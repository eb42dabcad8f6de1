// Minimal loopback UDP transport for running the protocols over real
// sockets (examples/udp_multicast_demo, server/).
//
// Multicast is emulated by unicast fan-out on 127.0.0.1: a UdpGroup holds
// the member ports, and a sender hands one FrameRef per member to
// send_batch.  This keeps the demo independent of kernel multicast
// support while exercising the real wire encoding (fec/packet.hpp) end
// to end.
//
// Data plane: sends and receives are batched.  Where the libc provides
// sendmmsg/recvmmsg (PBL_HAVE_MMSG at configure time) a whole batch of
// frames crosses the kernel boundary in one syscall; otherwise a portable
// one-datagram-at-a-time fallback runs the identical framing code.  The
// two backends are wire-exact: byte-identical streams per seed, proven by
// tests/test_udp_differential.cpp.  PBL_UDP_BACKEND=batched|fallback
// forces either at runtime, and ScopedUdpBackendOverride pins one for a
// test's scope.
//
// Segmentation offload: where the kernel supports it, the batched
// backend also hands each run of adjacent same-destination, same-size
// frames to the kernel as ONE super-datagram carrying a UDP_SEGMENT
// control message (GSO), and receives with UDP_GRO so a coalesced
// buffer crosses the kernel once and is split back into its datagrams
// here.  The wire is unchanged: the kernel segments on send, and every
// split datagram is impaired, CRC-checked and salvaged on its own.  The
// offload is probed once; when it is absent the batched backend sends
// one datagram per frame, as it always did.  docs/DATAPLANE.md has the
// details.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "fec/packet.hpp"
#include "net/impairment.hpp"

namespace pbl::net {

enum class UdpBackend {
  kBatched,   ///< sendmmsg/recvmmsg, many frames per syscall
  kFallback,  ///< portable sendto/recv loop, one frame per syscall
};

std::string to_string(UdpBackend backend);

/// True when the batched backend was compiled in (PBL_HAVE_MMSG).
bool udp_batched_available() noexcept;

/// The backend sockets currently use.  Resolution order: active
/// ScopedUdpBackendOverride, then the PBL_UDP_BACKEND environment
/// variable ("batched"/"fallback", read once), then kBatched when
/// available.  Requests for an unavailable batched backend degrade to
/// kFallback.
UdpBackend active_udp_backend() noexcept;

/// Pins the backend for a scope (differential tests run each session
/// once per backend).  Nestable; restores the previous state on
/// destruction.
class ScopedUdpBackendOverride {
 public:
  explicit ScopedUdpBackendOverride(UdpBackend backend);
  ~ScopedUdpBackendOverride();
  ScopedUdpBackendOverride(const ScopedUdpBackendOverride&) = delete;
  ScopedUdpBackendOverride& operator=(const ScopedUdpBackendOverride&) =
      delete;

 private:
  int previous_;
};

/// Test hook: sockets constructed while one of these is alive see the
/// segmentation-offload probe fail, exactly as on a kernel without
/// UDP_SEGMENT/UDP_GRO, and run the per-frame batched data plane.
/// Nestable.
class ScopedUdpOffloadProbeFailure {
 public:
  ScopedUdpOffloadProbeFailure();
  ~ScopedUdpOffloadProbeFailure();
  ScopedUdpOffloadProbeFailure(const ScopedUdpOffloadProbeFailure&) = delete;
  ScopedUdpOffloadProbeFailure& operator=(
      const ScopedUdpOffloadProbeFailure&) = delete;
};

/// Why a send stopped.  Transient kernel pushback (EAGAIN/EWOULDBLOCK/
/// ENOBUFS) is backpressure, not failure: the caller retries after the
/// socket drains.  Hard errors still throw std::system_error.
enum class SendStatus {
  kSent,
  kWouldBlock,
};

/// One frame of a batch: pre-serialized wire bytes and their destination.
/// The bytes are borrowed — arena frames or any stable buffer.
struct FrameRef {
  std::uint16_t dest_port = 0;
  std::span<const std::uint8_t> bytes;
};

/// Outcome of a (possibly partial) batch send.  `sent` frames — always a
/// prefix of the batch — reached the kernel; when status is kWouldBlock
/// the caller resumes from frames[sent] once the socket is writable.
struct BatchSendResult {
  std::size_t sent = 0;
  SendStatus status = SendStatus::kSent;
  int last_errno = 0;  ///< errno that stopped the batch, 0 if none
};

/// A parsed packet together with the kernel-reported source port of the
/// datagram that carried it.  On the loopback topology the source port
/// IS the peer identity, so this is what feedback admission (PeerGuard,
/// the feedback_addr_mismatch cross-check) keys on.
struct Datagram {
  std::uint16_t src_port = 0;
  fec::Packet packet;
};

class UdpSocket {
 public:
  /// Observes every frame the socket actually hands to the kernel, in
  /// send order (dest port + wire bytes).  The differential tests record
  /// the tap of each backend and require the streams byte-identical.
  using TxTap =
      std::function<void(std::uint16_t, std::span<const std::uint8_t>)>;

  /// Binds a UDP socket to 127.0.0.1:port (0 picks an ephemeral port).
  /// Throws std::system_error on failure.
  explicit UdpSocket(std::uint16_t port = 0);
  ~UdpSocket();

  UdpSocket(UdpSocket&& other) noexcept;
  UdpSocket& operator=(UdpSocket&& other) noexcept;
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  std::uint16_t port() const noexcept { return port_; }

  /// The raw descriptor, for event-loop registration (server/reactor).
  /// The socket still owns it; callers must not close it.
  int fd() const noexcept { return fd_; }

  /// True when received datagrams are queued for parsing: a receive(0)
  /// or drain() can return packets even if the descriptor is not
  /// readable.
  bool has_pending() const noexcept {
    return !pending_.empty() || !parsed_.empty();
  }

  /// Sends a packet to 127.0.0.1:dest_port.  Returns kWouldBlock on
  /// transient kernel pushback (EAGAIN/EWOULDBLOCK/ENOBUFS) instead of
  /// throwing — for a lossy datagram protocol that is just loss, and the
  /// FEC/NAK machinery above already repairs it.  Hard errors throw.
  SendStatus send_to(std::uint16_t dest_port, const fec::Packet& packet);

  /// Sends pre-framed wire bytes (serialize()/write_*_frame output).
  SendStatus send_frame(std::uint16_t dest_port,
                        std::span<const std::uint8_t> frame);

  /// Hands a batch of frames to the kernel — one sendmmsg per chunk on
  /// the batched backend, a sendto loop on the fallback.  With GSO on,
  /// each run of adjacent frames sharing a destination and a size (at
  /// most 64 frames and 65507 bytes) is one sendmmsg entry.  Stops at
  /// the first would-block; `sent` frames (a prefix) are on the wire.
  /// Hard errors throw after reporting nothing-sent-beyond-`sent`.
  BatchSendResult send_batch(std::span<const FrameRef> frames);

  /// send_batch with partial-send resume: polls the socket writable and
  /// retries until every frame is sent.  The protocol senders use this —
  /// backpressure slows them instead of crashing them.
  void send_batch_blocking(std::span<const FrameRef> frames);

  /// Waits up to `timeout_s` for a datagram; returns std::nullopt on
  /// timeout.  Malformed datagrams are dropped silently (the poll loop
  /// keeps waiting for the rest of the timeout), so nullopt always means
  /// "nothing arrived", even under impairment.
  std::optional<fec::Packet> receive(double timeout_s);

  /// receive() plus the datagram's kernel-reported source port — the
  /// hostile-peer defenses key on where bytes actually came from, not on
  /// what the header claims.  Same timeout/drop semantics as receive().
  std::optional<Datagram> receive_from(double timeout_s);

  /// Batched receive: drains queued datagrams, then waits up to
  /// `timeout_s` for the socket once and pulls everything readable in a
  /// single recvmmsg (single recv on the fallback).  Parsed packets are
  /// appended to `out`, at most `max_packets`; returns how many.
  std::size_t receive_batch(std::vector<fec::Packet>& out,
                            std::size_t max_packets, double timeout_s);

  /// Non-blocking in-place receive, the event-driven callers' path.
  /// Calls `sink(src_port, view)` for every frame until the socket is
  /// empty: datagrams still queued by an earlier call first, then
  /// recvmmsg (recvfrom on the fallback backend) in a loop, splitting
  /// GRO buffers.  Each datagram is parsed with fec::deserialize_view
  /// where the kernel wrote it, so `view.payload` is valid only during
  /// the call.  No poll() and no clock read.  Datagrams under an
  /// installed Impairment, and frames salvaged from malformed ones, take
  /// the copying queue in the same order receive_from() sees them.  A
  /// sink returning false stops the drain; what was already read off
  /// the socket stays queued for the next call.  Returns the frames
  /// delivered.
  template <class Sink>
  std::size_t drain(Sink&& sink) {
    return drain_views(
        &sink, [](void* ctx, std::uint16_t src, const fec::PacketView& view) {
          return static_cast<bool>(
              (*static_cast<std::remove_reference_t<Sink>*>(ctx))(src, view));
        });
  }

  /// Routes every received datagram through an adversarial Impairment
  /// before parsing: drops, duplicates, bit corruption, truncation and
  /// holdback reordering all happen on the raw bytes, exercising the
  /// real fec::deserialize path.  Impairment is applied per datagram in
  /// receive order on both backends.  Pass nullptr to remove.  The
  /// impairment object outlives any pending datagrams it produced.
  void set_impairment(std::shared_ptr<Impairment> impairment);

  /// Installs a tap observing every frame sent (nullptr to remove).
  void set_tx_tap(TxTap tap) { tx_tap_ = std::move(tap); }

  /// Test hook: the next `count` send syscall attempts fail with
  /// errno = err instead of reaching the kernel.  Injecting EAGAIN /
  /// ENOBUFS exercises the backpressure path deterministically.
  void inject_send_errno(int err, std::size_t count) {
    inject_errno_ = err;
    inject_count_ = count;
  }

  /// Fault-injection hook for sustained pushback: every `every`-th send
  /// syscall attempt opens a window of `burst` consecutive failures with
  /// errno = err (EAGAIN/ENOBUFS model a stalled socket, ENOMEM a
  /// starved kernel — all treated as backpressure).  every == 0 disables.
  /// Deterministic: keyed off the socket's own attempt counter.
  void inject_send_errno_every(int err, std::size_t every,
                               std::size_t burst) {
    inject_every_errno_ = err;
    inject_every_ = every;
    inject_burst_ = burst == 0 ? 1 : burst;
    inject_burst_left_ = 0;
  }

  /// Send attempts failed by either injection hook since construction —
  /// the server folds this into the fault_injected_send metric.
  std::uint64_t injected_send_failures() const noexcept {
    return injected_failures_;
  }

  /// Corruption-driven desync evidence from the receive path.  A
  /// datagram that fails the whole-datagram parse is run through a
  /// FrameStreamDecoder to salvage any embedded valid frames (a hostile
  /// peer may concatenate garbage around a sealed frame); every one-byte
  /// resynchronisation slide and every skipped frame is counted here and
  /// surfaces in the session metrics as frame_resyncs/frames_skipped.
  std::uint64_t frame_resyncs() const noexcept { return frame_resyncs_; }
  std::uint64_t frames_skipped() const noexcept { return frames_skipped_; }

  /// Whether this socket sends with UDP_SEGMENT / receives with UDP_GRO
  /// (probe passed; GRO only for sockets created on the batched backend).
  bool gso_enabled() const noexcept { return gso_; }
  bool gro_enabled() const noexcept { return gro_; }
  /// Super-datagrams (sendmmsg entries of two or more frames) handed to
  /// the kernel.
  std::uint64_t gso_sends() const noexcept { return gso_sends_; }
  /// Datagrams split out of GRO-coalesced receive buffers.
  std::uint64_t gro_coalesced() const noexcept { return gro_coalesced_; }

 private:
  SendStatus send_raw(std::uint16_t dest_port,
                      std::span<const std::uint8_t> bytes);
  /// Injection gate shared by every send syscall site: returns the errno
  /// this attempt must fail with, or 0 to let the real syscall run.
  int consume_injected_send();
  /// Pulls every readable datagram into pending_ (post-impairment).
  /// Returns the number of datagrams read off the socket, counting each
  /// segment of a GRO-coalesced buffer.
  std::size_t drain_ready();
  /// Queues one received datagram, through the impairment if installed.
  void enqueue_received(std::uint16_t src,
                        std::span<const std::uint8_t> bytes);
  /// Pops pending_ until a datagram parses (directly or salvaged via
  /// FrameStreamDecoder); nullopt when drained.
  std::optional<Datagram> parse_pending();

  using ViewSink = bool (*)(void* ctx, std::uint16_t src_port,
                            const fec::PacketView& view);
  std::size_t drain_views(void* ctx, ViewSink sink);
  /// Reads one receive chunk off the socket and hands every datagram
  /// (GRO buffers split) to `on_datagram(src, bytes)` in kernel order.
  /// Returns the datagrams read; `more` is false once the socket was
  /// seen empty.
  template <class OnDatagram>
  std::size_t read_ready(OnDatagram&& on_datagram, bool& more);
  /// Parses one datagram in place and delivers it (or the frames
  /// salvaged from it).  Returns the sink's verdict.
  bool deliver_datagram(std::uint16_t src, std::span<const std::uint8_t> bytes,
                        void* ctx, ViewSink sink, std::size_t& delivered);
  /// Delivers what earlier calls left in parsed_/pending_.
  bool deliver_queued(void* ctx, ViewSink sink, std::size_t& delivered);
  /// Runs a malformed datagram through FrameStreamDecoder (bounded; see
  /// kSalvageLimit) and counts the desync evidence.
  std::vector<fec::Packet> salvage(std::span<const std::uint8_t> bytes);

  /// A received datagram awaiting parsing, tagged with its source port.
  struct RawDatagram {
    std::uint16_t src_port = 0;
    std::vector<std::uint8_t> bytes;
  };

  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::shared_ptr<Impairment> impairment_;
  std::deque<RawDatagram> pending_;  // received, not yet parsed
  std::deque<Datagram> parsed_;      // salvaged frames awaiting delivery
  std::uint64_t frame_resyncs_ = 0;
  std::uint64_t frames_skipped_ = 0;
  TxTap tx_tap_;
  int inject_errno_ = 0;
  std::size_t inject_count_ = 0;
  int inject_every_errno_ = 0;
  std::size_t inject_every_ = 0;
  std::size_t inject_burst_ = 0;
  std::size_t inject_burst_left_ = 0;
  std::uint64_t attempted_sends_ = 0;
  std::uint64_t injected_failures_ = 0;
  bool gso_ = false;
  bool gro_ = false;
  std::uint64_t gso_sends_ = 0;
  std::uint64_t gro_coalesced_ = 0;
};

/// Emulated multicast group: fan-out over member ports.
class UdpGroup {
 public:
  void add_member(std::uint16_t port) { members_.push_back(port); }
  std::size_t size() const noexcept { return members_.size(); }

  /// Member ports in join order — the reliable control plane addresses
  /// per-member state (ACKs, liveness, eviction) by this index.
  const std::vector<std::uint16_t>& members() const noexcept {
    return members_;
  }

 private:
  std::vector<std::uint16_t> members_;
};

}  // namespace pbl::net
