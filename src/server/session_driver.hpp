// The UDP NP session endpoints (their config and result types live in
// net/udp/udp_np.hpp), shaped for the reactor: a driver owns no thread
// and never blocks in a socket wait — the reactor feeds it readability
// events and timer expiries, so thousands of concurrent sessions share
// one thread.  These are the only NP-over-UDP implementation: the
// server, the loopback session tests and examples/udp_multicast_demo
// all run on them.
//
// Features: reliable-control ACK/liveness/eviction, seeded re-POLL and
// NAK-retransmit backoff, session deadlines, incarnation stamping and
// stale rejection, journal write-ahead hooks, parity high-water resume,
// crash fault injection, overload pacing/shedding/quarantine, runtime
// NAK suppression and the hostile-peer guard.  Time comes exclusively
// from the injected clock in UdpNpConfig::clock, so the drivers can be
// unit-tested on a ManualClock by pumping events by hand.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "fec/fec_block.hpp"
#include "net/pacer.hpp"
#include "net/udp/packet_arena.hpp"
#include "net/udp/udp_np.hpp"
#include "server/reactor.hpp"

namespace pbl::server {

/// Non-blocking sender: drives one NP session (k data per TG, POLL/NAK
/// rounds, parity repair) from reactor callbacks.  `groups` must outlive
/// the driver — the server owns the payload so it can verify receivers
/// against it after the drivers are gone.
class SenderSessionDriver {
 public:
  SenderSessionDriver(Reactor& reactor, net::UdpSocket socket,
                      net::UdpGroup group, const net::UdpNpConfig& config,
                      const std::vector<net::TgBytes>& groups,
                      std::function<void()> on_finished);
  ~SenderSessionDriver();
  SenderSessionDriver(const SenderSessionDriver&) = delete;
  SenderSessionDriver& operator=(const SenderSessionDriver&) = delete;

  void start();
  /// Force-stop for drain: unregisters from the reactor immediately, no
  /// end-of-session marker (the journal is the handoff to the next
  /// life).  Does NOT invoke on_finished — the caller is the one
  /// stopping and does its own bookkeeping.
  void stop();

  bool finished() const noexcept { return finished_; }
  bool stopped() const noexcept { return stopped_; }
  const net::UdpNpSenderStats& stats() const noexcept { return stats_; }
  /// TGs confirmed complete this life (journal hook count).
  std::uint64_t tgs_completed() const noexcept { return tgs_completed_; }
  /// Index of the TG currently in repair (== num TGs when done).
  std::size_t current_tg() const noexcept { return tg_; }
  std::uint16_t port() const noexcept { return socket_.port(); }
  /// The session socket, exposed so overload tests and the server's
  /// fault plan can install send-errno injection on a live driver.
  net::UdpSocket& socket() noexcept { return socket_; }
  std::uint64_t injected_send_failures() const noexcept {
    return socket_.injected_send_failures();
  }
  std::uint64_t arena_canary_violations() const noexcept {
    return arena_->canary_violations();
  }
  /// Receive-path desync evidence (see UdpSocket::frame_resyncs).
  std::uint64_t frame_resyncs() const noexcept {
    return socket_.frame_resyncs();
  }
  std::uint64_t frames_skipped() const noexcept {
    return socket_.frames_skipped();
  }
  /// GSO super-datagrams sent (see UdpSocket::gso_sends).
  std::uint64_t gso_sends() const noexcept { return socket_.gso_sends(); }

 private:
  /// What the in-flight burst carries — determines the frame writer, the
  /// fan-out set, and what happens when the burst completes.
  enum class BurstPhase { kNone, kData, kParity, kCatchUpParity };

  void on_readable();
  /// One feedback frame off the socket, parsed in place.
  void on_feedback(std::uint16_t src_port, const fec::PacketView& nak);
  void on_window_expired();
  void begin_next_tg();
  void send_poll();
  void after_window();  // the post-collect decision logic
  void finish_session();
  bool send_mc(fec::Packet packet);
  /// Best-effort unicast of a control packet to the catch-up targets.
  bool send_to_targets(fec::Packet packet);
  /// Fans the frames staged since the last call out to the burst's
  /// destination set (the whole group, or cu_targets_ during catch-up),
  /// member-major.
  void fan_out_staged();
  /// Opens a resumable burst of `count` logical packets and pumps it.
  void start_burst(BurstPhase phase, std::size_t count);
  /// The burst engine: stages frames as the pacer and arena allow,
  /// flushes them with non-blocking send_batch, and on pushback or
  /// exhaustion defers itself on a reactor timer instead of blocking —
  /// the reactor thread is never parked in a socket wait.
  void pump_burst();
  void on_burst_complete();
  void arm_flush_timer(double when);
  void disarm_flush_timer();
  void arm_window_timer(double window);
  void disarm_timer();
  bool confirmed() const;
  /// True when every quarantined live member holds the current TG —
  /// only then may its completion be journaled (exactly-once).
  bool tg_fully_delivered() const;
  void complete_current_tg();
  /// Service-deficit accounting: once an acked quorum exists, laggards
  /// accrue deficit and cross into quarantine at the configured bound.
  void update_quarantine();
  void maybe_start_catch_up();
  void begin_catch_up_tg();
  void send_catch_up_poll();
  void after_catch_up_window();
  std::size_t member_of(std::uint16_t port) const;
  /// Marks members the guard has banned as expelled (sticky) — the round
  /// closer and the final report stop waiting for them.
  void refresh_expulsions();

  Reactor& reactor_;
  net::UdpSocket socket_;
  net::UdpGroup group_;
  net::UdpNpConfig cfg_;
  const std::vector<net::TgBytes>& groups_;
  const fec::RseCode& code_;  ///< shared per (k, n)
  const protocol::Clock& clk_;
  std::function<void()> on_finished_;

  net::UdpNpSenderStats stats_;
  std::uint64_t tgs_completed_ = 0;
  bool started_ = false;
  bool finished_ = false;
  bool stopped_ = false;
  bool fd_registered_ = false;

  // Session-wide state.
  std::uint32_t round_id_ = 0;
  std::size_t sends_ = 0;
  // Zero-copy burst path: DATA/PARITY frames are written in place into
  // arena slabs and batched per burst (see pump_burst).
  std::unique_ptr<net::PacketArena> arena_;
  std::vector<net::FrameRef> burst_;
  std::vector<std::span<const std::uint8_t>> staged_;  ///< not yet fanned out
  std::vector<bool> evicted_;
  std::vector<std::size_t> silent_;
  std::vector<std::vector<bool>> delivered_;
  protocol::Deadline deadline_;

  // Per-TG round state.
  std::size_t tg_ = 0;
  std::optional<fec::TgEncoder> encoder_;
  std::vector<bool> acked_;
  std::vector<bool> heard_;
  std::optional<protocol::Backoff> poll_backoff_;
  std::size_t parities_used_ = 0;
  double window_pad_ = 0.0;
  int round_ = 0;
  std::size_t l_ = 0;  ///< max NAK count collected this round
  Reactor::TimerId window_timer_ = 0;
  bool timer_armed_ = false;

  // Resumable burst engine (pump_burst).
  net::Pacer pacer_;
  BurstPhase burst_phase_ = BurstPhase::kNone;
  std::size_t stage_next_ = 0;    ///< next logical packet to stage
  std::size_t stage_count_ = 0;   ///< logical packets in this burst
  std::size_t burst_sent_ = 0;    ///< FrameRefs already on the wire
  std::size_t parity_base_ = 0;   ///< first parity index of this burst
  double stall_since_ = -1.0;     ///< when sustained pushback began
  Reactor::TimerId flush_timer_ = 0;
  bool flush_timer_armed_ = false;

  // Quarantine and parity-only catch-up (net/overload.hpp).
  std::vector<std::size_t> parity_high_;  ///< per-TG parity high-water
  std::vector<std::size_t> deficit_;      ///< rounds behind an acked quorum
  std::vector<bool> quarantined_;
  std::size_t round_naks_ = 0;  ///< NAKs admitted this round (budget)
  bool catchup_ = false;

  // Hostile-peer defense (net/peer_guard.hpp; null when guard off).
  std::unique_ptr<net::PeerGuard> guard_;
  std::vector<bool> expelled_;   ///< banned members, exempt from rounds
  std::uint32_t ctl_seq_ = 0;    ///< nonce for authenticated POLL frames
  std::uint64_t group_key_ = 0;  ///< sender->group control-frame key
  std::vector<std::size_t> cu_tgs_;      ///< TGs a straggler still lacks
  std::size_t cu_i_ = 0;
  std::size_t cu_round_ = 0;
  std::vector<std::size_t> cu_targets_;  ///< members served this catch-up TG
};

/// Non-blocking receiver endpoint, with resume support for the server's
/// restart path — a receiver that "survived" a sender restart is
/// reconstructed from its persisted decoded bitmap.  TGs the sender's journal had confirmed complete are
/// never re-multicast, so DATA/PARITY arriving for one is counted as a
/// redelivery violation (exactly-once audit).  TGs this receiver decoded
/// but the sender never confirmed ARE legitimately re-sent by the next
/// life; those are suppressed as ordinary duplicates, not violations.
class ReceiverSessionDriver {
 public:
  struct Options {
    double idle_timeout = 10.0;     ///< mid-session silence budget [s]
    double data_loss = 0.0;         ///< injected DATA/PARITY drop prob
    Rng rng{1};                     ///< drives injected loss
    net::ImpairmentConfig impairment{};  ///< byte-level wire faults
    /// Resume: TGs decoded in a prior life (empty = fresh receiver).
    std::vector<bool> resume_decoded;
    /// Resume: TGs the SENDER's journal confirmed complete.  A strict
    /// subset of what every member decoded (confirmation implies an ACK
    /// implies a decode), and the only TGs whose reappearance is an
    /// exactly-once violation.
    std::vector<bool> resume_confirmed;
    /// Resume: highest sender incarnation heard in the prior life.
    std::uint32_t resume_incarnation = 0;
    /// When set, every decoded TG is compared against these bytes and
    /// mismatches counted (end-to-end integrity under impairment).
    const std::vector<net::TgBytes>* expected = nullptr;
  };

  ReceiverSessionDriver(Reactor& reactor, net::UdpSocket socket,
                        std::uint16_t sender_port, std::size_t num_tgs,
                        const net::UdpNpConfig& config, Options options,
                        std::function<void()> on_finished);
  ~ReceiverSessionDriver();
  ReceiverSessionDriver(const ReceiverSessionDriver&) = delete;
  ReceiverSessionDriver& operator=(const ReceiverSessionDriver&) = delete;

  void start();
  /// Force-stop for drain: finalizes the result with the current state
  /// (end reason kMidSessionSilence unless already complete) without
  /// invoking on_finished.
  void stop();

  bool finished() const noexcept { return finished_; }
  const net::UdpNpReceiverResult& result() const noexcept { return result_; }
  /// DATA/PARITY received for TGs the sender journal had confirmed —
  /// must stay 0 for a correct resume (confirmed TGs are never
  /// re-multicast).
  std::uint64_t redelivered_prior() const noexcept {
    return redelivered_prior_;
  }
  std::uint64_t payload_mismatches() const noexcept {
    return payload_mismatches_;
  }
  /// Decoded bitmap (prior + this life), for persistence across drains.
  std::vector<bool> decoded_bitmap() const;
  std::uint32_t incarnation_heard() const noexcept { return known_inc_; }
  std::size_t tgs_done() const noexcept { return done_count_; }
  std::uint16_t port() const noexcept { return socket_.port(); }
  /// Receive-path desync evidence (see UdpSocket::frame_resyncs).
  std::uint64_t frame_resyncs() const noexcept {
    return socket_.frame_resyncs();
  }
  std::uint64_t frames_skipped() const noexcept {
    return socket_.frames_skipped();
  }
  /// Datagrams split out of GRO-coalesced buffers (UdpSocket).
  std::uint64_t gro_coalesced() const noexcept {
    return socket_.gro_coalesced();
  }

 private:
  void on_readable();
  void on_wake();
  void handle_packet(const fec::PacketView& packet);
  void accept_block_packet(const fec::PacketView& packet);
  void send_feedback(std::uint32_t tg, std::size_t count, std::uint32_t seq);
  void finish(net::UdpNpEndReason reason);
  void reschedule(double next_due);
  double idle_deadline() const;

  Reactor& reactor_;
  net::UdpSocket socket_;
  std::uint16_t sender_port_;
  std::size_t num_tgs_;
  net::UdpNpConfig cfg_;
  Options opt_;
  const fec::RseCode& code_;  ///< shared per (k, n)
  const protocol::Clock& clk_;
  std::function<void()> on_finished_;
  std::shared_ptr<net::Impairment> impairment_;

  net::UdpNpReceiverResult result_;
  std::uint64_t redelivered_prior_ = 0;
  std::uint64_t payload_mismatches_ = 0;
  bool started_ = false;
  bool finished_ = false;
  bool fd_registered_ = false;

  std::vector<fec::TgDecoder> decoders_;
  std::vector<bool> done_;
  std::vector<bool> prior_;      ///< decoded before this life (resume)
  std::vector<bool> confirmed_;  ///< journal-confirmed before this life
  std::size_t done_count_ = 0;
  std::vector<std::unique_ptr<protocol::Backoff>> nak_backoffs_;
  bool nak_pending_ = false;
  /// Suppression mode: the pending NAK has never been sent — it sits in
  /// its slot delay and repair arriving first cancels it entirely.
  bool nak_first_ = false;
  Rng supp_rng_{1};  ///< seeds the suppression slot draws
  std::uint32_t nak_tg_ = 0;
  std::uint32_t nak_round_ = 0;
  double nak_retry_at_ = 0.0;
  std::uint8_t known_inc_ = 0;
  double last_rx_ = 0.0;
  // Hostile-peer defense (guard knobs; zero-cost when off).
  std::uint32_t fbseq_ = 0;      ///< monotone per-feedback anti-replay seq
  std::uint64_t member_key_ = 0; ///< tags this member's feedback
  std::uint64_t group_key_ = 0;  ///< verifies sender control frames
  Reactor::TimerId wake_timer_ = 0;
  bool timer_armed_ = false;
  double armed_at_ = 0.0;
};

}  // namespace pbl::server
