#include "net/udp/udp_transport.hpp"

#include "net/udp/frame_stream.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/udp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace pbl::net {

namespace {

// Datagrams per sendmmsg/recvmmsg syscall.  Large enough to amortise
// the kernel crossing, small enough that the mmsghdr scaffolding stays
// on the stack (tx) or in a modest thread-local scratch (rx).  With GSO
// one tx entry carries up to kGsoMaxSegments frames, so the frames per
// sendmmsg are capped separately by the iovec array.
constexpr std::size_t kTxChunk = 128;
constexpr std::size_t kTxFrames = 1024;
constexpr std::size_t kRxChunk = 16;
constexpr std::size_t kMaxDatagram = 65536;
// Malformed datagrams up to this size are run through FrameStreamDecoder
// to salvage embedded valid frames.  The byte-by-byte resync scan is
// O(size * frame) in the worst case, so a hostile peer flooding max-size
// garbage must not buy that work: larger junk is just counted + dropped.
constexpr std::size_t kSalvageLimit = 4096;

#if defined(PBL_HAVE_MMSG) && defined(UDP_SEGMENT) && defined(UDP_GRO)
#define PBL_HAVE_UDP_OFFLOAD 1
// One super-datagram: at most the kernel's UDP_MAX_SEGMENTS on every
// kernel that has GSO, and at most the largest IPv4 UDP payload
// (65535 - 20 IP - 8 UDP header bytes).
constexpr std::size_t kGsoMaxSegments = 64;
constexpr std::size_t kGsoMaxBytes = 65507;
#endif

// Sockets constructed while this is positive skip the offload probe
// (ScopedUdpOffloadProbeFailure).
std::atomic<int> g_offload_probe_failures{0};

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

bool is_would_block(int err) noexcept {
  // ENOBUFS/ENOMEM: the kernel could not take the datagram right now —
  // for a lossy datagram protocol that is transient resource pressure,
  // not a broken socket; the caller defers or treats the frame as loss.
  return err == EAGAIN || err == EWOULDBLOCK || err == ENOBUFS ||
         err == ENOMEM;
}

// Backend selection state.  -1 = no scoped override.  The environment
// default is resolved once (first use) so a mid-run setenv cannot split
// a session across backends.
std::atomic<int> g_backend_override{-1};

UdpBackend env_default_backend() {
  static const UdpBackend resolved = [] {
    if (const char* env = std::getenv("PBL_UDP_BACKEND")) {
      if (std::string(env) == "fallback") return UdpBackend::kFallback;
      if (std::string(env) == "batched" && udp_batched_available())
        return UdpBackend::kBatched;
    }
    return udp_batched_available() ? UdpBackend::kBatched
                                   : UdpBackend::kFallback;
  }();
  return resolved;
}

}  // namespace

std::string to_string(UdpBackend backend) {
  switch (backend) {
    case UdpBackend::kBatched: return "batched";
    case UdpBackend::kFallback: return "fallback";
  }
  return "unknown";
}

bool udp_batched_available() noexcept {
#ifdef PBL_HAVE_MMSG
  return true;
#else
  return false;
#endif
}

UdpBackend active_udp_backend() noexcept {
  const int override = g_backend_override.load(std::memory_order_acquire);
  if (override >= 0) {
    const auto requested = static_cast<UdpBackend>(override);
    if (requested == UdpBackend::kBatched && !udp_batched_available())
      return UdpBackend::kFallback;
    return requested;
  }
  return env_default_backend();
}

ScopedUdpBackendOverride::ScopedUdpBackendOverride(UdpBackend backend)
    : previous_(g_backend_override.exchange(static_cast<int>(backend),
                                            std::memory_order_acq_rel)) {}

ScopedUdpBackendOverride::~ScopedUdpBackendOverride() {
  g_backend_override.store(previous_, std::memory_order_release);
}

ScopedUdpOffloadProbeFailure::ScopedUdpOffloadProbeFailure() {
  g_offload_probe_failures.fetch_add(1, std::memory_order_acq_rel);
}

ScopedUdpOffloadProbeFailure::~ScopedUdpOffloadProbeFailure() {
  g_offload_probe_failures.fetch_sub(1, std::memory_order_acq_rel);
}

namespace {

#ifdef PBL_HAVE_UDP_OFFLOAD
// Whether the kernel accepts UDP_SEGMENT at all, probed once per
// process on a throwaway socket (0 = "no default segment size", so the
// probe changes nothing).
bool kernel_has_gso() {
  static const bool has = [] {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd < 0) return false;
    int zero = 0;
    const bool ok =
        ::setsockopt(fd, SOL_UDP, UDP_SEGMENT, &zero, sizeof(zero)) == 0;
    ::close(fd);
    return ok;
  }();
  return has;
}

bool set_gro(int fd, bool on) {
  int v = on ? 1 : 0;
  return ::setsockopt(fd, SOL_UDP, UDP_GRO, &v, sizeof(v)) == 0;
}

// The segment size the kernel reports on a GRO-coalesced buffer, 0 for
// a plain datagram.
std::size_t gro_segment_size(const msghdr& h) {
  for (cmsghdr* c = CMSG_FIRSTHDR(&h); c != nullptr;
       c = CMSG_NXTHDR(const_cast<msghdr*>(&h), c)) {
    if (c->cmsg_level == SOL_UDP && c->cmsg_type == UDP_GRO) {
      int seg = 0;
      std::memcpy(&seg, CMSG_DATA(c), sizeof(seg));
      return seg > 0 ? static_cast<std::size_t>(seg) : 0;
    }
  }
  return 0;
}
#endif

}  // namespace

UdpSocket::UdpSocket(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0)
    throw std::system_error(errno, std::generic_category(), "socket");
  sockaddr_in addr = loopback(port);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw std::system_error(err, std::generic_category(), "bind");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw std::system_error(err, std::generic_category(), "getsockname");
  }
  port_ = ntohs(bound.sin_port);
#ifdef PBL_HAVE_UDP_OFFLOAD
  if (g_offload_probe_failures.load(std::memory_order_acquire) == 0) {
    gso_ = kernel_has_gso();
    // GRO changes what a plain recvfrom returns, so only sockets that
    // will be drained by the batched backend (which splits) turn it on.
    if (active_udp_backend() == UdpBackend::kBatched) gro_ = set_gro(fd_, true);
  }
#endif
}

UdpSocket::~UdpSocket() {
  if (fd_ >= 0) ::close(fd_);
}

UdpSocket::UdpSocket(UdpSocket&& other) noexcept
    : fd_(other.fd_), port_(other.port_),
      impairment_(std::move(other.impairment_)),
      pending_(std::move(other.pending_)), parsed_(std::move(other.parsed_)),
      frame_resyncs_(other.frame_resyncs_),
      frames_skipped_(other.frames_skipped_), tx_tap_(std::move(other.tx_tap_)),
      inject_errno_(other.inject_errno_), inject_count_(other.inject_count_),
      inject_every_errno_(other.inject_every_errno_),
      inject_every_(other.inject_every_), inject_burst_(other.inject_burst_),
      inject_burst_left_(other.inject_burst_left_),
      attempted_sends_(other.attempted_sends_),
      injected_failures_(other.injected_failures_), gso_(other.gso_),
      gro_(other.gro_), gso_sends_(other.gso_sends_),
      gro_coalesced_(other.gro_coalesced_) {
  other.fd_ = -1;
  other.port_ = 0;
  other.inject_count_ = 0;
  other.inject_every_ = 0;
  other.inject_burst_left_ = 0;
}

UdpSocket& UdpSocket::operator=(UdpSocket&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    port_ = other.port_;
    impairment_ = std::move(other.impairment_);
    pending_ = std::move(other.pending_);
    parsed_ = std::move(other.parsed_);
    frame_resyncs_ = other.frame_resyncs_;
    frames_skipped_ = other.frames_skipped_;
    tx_tap_ = std::move(other.tx_tap_);
    inject_errno_ = other.inject_errno_;
    inject_count_ = other.inject_count_;
    inject_every_errno_ = other.inject_every_errno_;
    inject_every_ = other.inject_every_;
    inject_burst_ = other.inject_burst_;
    inject_burst_left_ = other.inject_burst_left_;
    attempted_sends_ = other.attempted_sends_;
    injected_failures_ = other.injected_failures_;
    gso_ = other.gso_;
    gro_ = other.gro_;
    gso_sends_ = other.gso_sends_;
    gro_coalesced_ = other.gro_coalesced_;
    other.fd_ = -1;
    other.port_ = 0;
    other.inject_count_ = 0;
    other.inject_every_ = 0;
    other.inject_burst_left_ = 0;
  }
  return *this;
}

int UdpSocket::consume_injected_send() {
  if (inject_count_ > 0) {
    --inject_count_;
    ++injected_failures_;
    return inject_errno_;
  }
  if (inject_every_ > 0) {
    ++attempted_sends_;
    if (inject_burst_left_ == 0 && attempted_sends_ % inject_every_ == 0)
      inject_burst_left_ = inject_burst_;
    if (inject_burst_left_ > 0) {
      --inject_burst_left_;
      ++injected_failures_;
      return inject_every_errno_;
    }
  }
  return 0;
}

void UdpSocket::set_impairment(std::shared_ptr<Impairment> impairment) {
  impairment_ = std::move(impairment);
  pending_.clear();
  parsed_.clear();
}

SendStatus UdpSocket::send_raw(std::uint16_t dest_port,
                               std::span<const std::uint8_t> bytes) {
  const sockaddr_in dest = loopback(dest_port);
  for (;;) {
    if (const int inj = consume_injected_send()) {
      if (is_would_block(inj)) return SendStatus::kWouldBlock;
      throw std::system_error(inj, std::generic_category(),
                              "sendto (injected)");
    }
    const ssize_t sent =
        ::sendto(fd_, bytes.data(), bytes.size(), 0,
                 reinterpret_cast<const sockaddr*>(&dest), sizeof(dest));
    if (sent >= 0) {
      if (tx_tap_) tx_tap_(dest_port, bytes);
      return SendStatus::kSent;
    }
    if (errno == EINTR) continue;
    // Transient pushback is backpressure, not failure: callers either
    // retry (send_batch_blocking) or treat the frame as lost, which the
    // FEC/NAK machinery repairs like any other loss.
    if (is_would_block(errno)) return SendStatus::kWouldBlock;
    throw std::system_error(errno, std::generic_category(), "sendto");
  }
}

SendStatus UdpSocket::send_to(std::uint16_t dest_port,
                              const fec::Packet& packet) {
  const auto bytes = fec::serialize(packet);
  return send_raw(dest_port, bytes);
}

SendStatus UdpSocket::send_frame(std::uint16_t dest_port,
                                 std::span<const std::uint8_t> frame) {
  return send_raw(dest_port, frame);
}

BatchSendResult UdpSocket::send_batch(std::span<const FrameRef> frames) {
  BatchSendResult result;
#ifdef PBL_HAVE_MMSG
  if (active_udp_backend() == UdpBackend::kBatched) {
    while (result.sent < frames.size()) {
      sockaddr_in dests[kTxChunk];
      mmsghdr msgs[kTxChunk];
      std::size_t runs[kTxChunk];  // frames carried by each entry
      iovec iovs[kTxFrames];
#ifdef PBL_HAVE_UDP_OFFLOAD
      alignas(cmsghdr) unsigned char
          ctrl[kTxChunk][CMSG_SPACE(sizeof(std::uint16_t))];
#endif
      std::size_t entries = 0;
      std::size_t used = 0;  // iovecs
      std::size_t next = result.sent;
      while (entries < kTxChunk && used < kTxFrames && next < frames.size()) {
        const FrameRef& head = frames[next];
        const std::size_t size = head.bytes.size();
        std::size_t run = 1;
#ifdef PBL_HAVE_UDP_OFFLOAD
        if (gso_ && size > 0) {
          const std::size_t cap =
              std::min({kGsoMaxSegments, kGsoMaxBytes / size,
                        kTxFrames - used, frames.size() - next});
          while (run < cap && frames[next + run].dest_port == head.dest_port &&
                 frames[next + run].bytes.size() == size)
            ++run;
        }
#endif
        for (std::size_t i = 0; i < run; ++i) {
          iovs[used + i].iov_base =
              const_cast<std::uint8_t*>(frames[next + i].bytes.data());
          iovs[used + i].iov_len = size;
        }
        dests[entries] = loopback(head.dest_port);
        msghdr& h = msgs[entries].msg_hdr;
        std::memset(&msgs[entries], 0, sizeof(mmsghdr));
        h.msg_name = &dests[entries];
        h.msg_namelen = sizeof(dests[entries]);
        h.msg_iov = &iovs[used];
        h.msg_iovlen = run;
#ifdef PBL_HAVE_UDP_OFFLOAD
        if (run > 1) {
          // The kernel cuts the super-datagram back into `run` datagrams
          // of `size` bytes: the same datagrams, one crossing.
          h.msg_control = ctrl[entries];
          h.msg_controllen = sizeof(ctrl[entries]);
          cmsghdr* c = CMSG_FIRSTHDR(&h);
          c->cmsg_level = SOL_UDP;
          c->cmsg_type = UDP_SEGMENT;
          c->cmsg_len = CMSG_LEN(sizeof(std::uint16_t));
          const auto seg = static_cast<std::uint16_t>(size);
          std::memcpy(CMSG_DATA(c), &seg, sizeof(seg));
        }
#endif
        runs[entries++] = run;
        used += run;
        next += run;
      }
      int n;
      bool injected = false;
      for (;;) {
        if (const int inj = consume_injected_send()) {
          errno = inj;
          n = -1;
          injected = true;
        } else {
          n = ::sendmmsg(fd_, msgs, static_cast<unsigned>(entries), 0);
        }
        if (n < 0 && errno == EINTR) continue;
        break;
      }
      if (n < 0) {
        result.last_errno = errno;
        if (is_would_block(errno)) {
          result.status = SendStatus::kWouldBlock;
          return result;
        }
        if (!injected && runs[0] > 1 && (errno == EINVAL || errno == EIO)) {
          // The kernel refused the segmentation request on this path:
          // fall back to one datagram per frame and resend the chunk.
          gso_ = false;
          result.last_errno = 0;
          continue;
        }
        throw std::system_error(errno, std::generic_category(), "sendmmsg");
      }
      std::size_t done = 0;
      for (int i = 0; i < n; ++i) {
        done += runs[i];
        if (runs[i] > 1) ++gso_sends_;
      }
      if (tx_tap_) {
        for (std::size_t i = 0; i < done; ++i) {
          const FrameRef& f = frames[result.sent + i];
          tx_tap_(f.dest_port, f.bytes);
        }
      }
      result.sent += done;
      if (static_cast<std::size_t>(n) < entries) {
        // Kernel took a prefix of the chunk: partial send.  Report
        // would-block so the caller resumes from frames[sent].
        result.status = SendStatus::kWouldBlock;
        result.last_errno = EAGAIN;
        return result;
      }
    }
    return result;
  }
#endif
  // Portable fallback: same frames, same order, one syscall each.
  for (const FrameRef& f : frames) {
    if (send_raw(f.dest_port, f.bytes) == SendStatus::kWouldBlock) {
      result.status = SendStatus::kWouldBlock;
      result.last_errno = EAGAIN;
      return result;
    }
    ++result.sent;
  }
  return result;
}

void UdpSocket::send_batch_blocking(std::span<const FrameRef> frames) {
  std::size_t done = 0;
  while (done < frames.size()) {
    const BatchSendResult r = send_batch(frames.subspan(done));
    done += r.sent;
    if (done >= frames.size()) break;
    // Backpressure: wait for the socket to drain, then resume from the
    // first unsent frame.  Loopback drains fast; the poll keeps a
    // pathological stall from spinning.
    pollfd pfd{fd_, POLLOUT, 0};
    ::poll(&pfd, 1, 100);
  }
}

void UdpSocket::enqueue_received(std::uint16_t src,
                                 std::span<const std::uint8_t> bytes) {
  // Duplicates inherit the original datagram's source.
  if (impairment_) {
    for (auto& b : impairment_->apply_bytes(bytes))
      pending_.push_back({src, std::move(b)});
  } else {
    pending_.push_back(
        {src, std::vector<std::uint8_t>(bytes.begin(), bytes.end())});
  }
}

namespace {

#ifdef PBL_HAVE_MMSG
// Receive scratch shared by every socket on a thread: kRxChunk max-size
// datagram buffers plus the mmsg scaffolding (~1 MiB/thread).
struct RxScratch {
  std::vector<std::uint8_t> bufs =
      std::vector<std::uint8_t>(kRxChunk * kMaxDatagram);
  sockaddr_in srcs[kRxChunk];
  iovec iovs[kRxChunk];
  mmsghdr msgs[kRxChunk];
#ifdef PBL_HAVE_UDP_OFFLOAD
  alignas(cmsghdr) unsigned char ctrl[kRxChunk][CMSG_SPACE(sizeof(int))];
#endif
};

// Borrows the thread's scratch.  A nested read on the same thread (a
// sink that reads another socket before returning) gets a private one,
// so the outer read's buffers are never overwritten under its views.
class RxScratchLease {
 public:
  RxScratchLease() {
    if (busy_) {
      own_ = std::make_unique<RxScratch>();
      scratch_ = own_.get();
    } else {
      busy_ = true;
      scratch_ = &shared_;
    }
  }
  ~RxScratchLease() {
    if (!own_) busy_ = false;
  }
  RxScratchLease(const RxScratchLease&) = delete;
  RxScratchLease& operator=(const RxScratchLease&) = delete;
  RxScratch& operator*() const noexcept { return *scratch_; }

 private:
  static thread_local RxScratch shared_;
  static thread_local bool busy_;
  std::unique_ptr<RxScratch> own_;
  RxScratch* scratch_ = nullptr;
};

thread_local RxScratch RxScratchLease::shared_;
thread_local bool RxScratchLease::busy_ = false;
#endif

}  // namespace

template <class OnDatagram>
std::size_t UdpSocket::read_ready(OnDatagram&& on_datagram, bool& more) {
  more = false;
#ifdef PBL_HAVE_MMSG
  if (active_udp_backend() == UdpBackend::kBatched) {
    const RxScratchLease lease;
    RxScratch& scratch = *lease;
    std::memset(scratch.msgs, 0, sizeof(scratch.msgs));
    for (std::size_t i = 0; i < kRxChunk; ++i) {
      scratch.iovs[i].iov_base = scratch.bufs.data() + i * kMaxDatagram;
      scratch.iovs[i].iov_len = kMaxDatagram;
      scratch.msgs[i].msg_hdr.msg_iov = &scratch.iovs[i];
      scratch.msgs[i].msg_hdr.msg_iovlen = 1;
      scratch.msgs[i].msg_hdr.msg_name = &scratch.srcs[i];
      scratch.msgs[i].msg_hdr.msg_namelen = sizeof(scratch.srcs[i]);
#ifdef PBL_HAVE_UDP_OFFLOAD
      if (gro_) {
        scratch.msgs[i].msg_hdr.msg_control = scratch.ctrl[i];
        scratch.msgs[i].msg_hdr.msg_controllen = sizeof(scratch.ctrl[i]);
      }
#endif
    }
    int n;
    do {
      n = ::recvmmsg(fd_, scratch.msgs, kRxChunk, MSG_DONTWAIT, nullptr);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return 0;
    // A full chunk may have left more behind; a short one emptied the
    // socket.
    more = static_cast<std::size_t>(n) == kRxChunk;
    std::size_t datagrams = 0;
    for (int i = 0; i < n; ++i) {
      const std::span<const std::uint8_t> raw{
          static_cast<const std::uint8_t*>(scratch.iovs[i].iov_base),
          scratch.msgs[i].msg_len};
      const std::uint16_t src = ntohs(scratch.srcs[i].sin_port);
      std::size_t seg = 0;
#ifdef PBL_HAVE_UDP_OFFLOAD
      if (gro_) seg = gro_segment_size(scratch.msgs[i].msg_hdr);
#endif
      if (seg == 0 || seg >= raw.size()) {
        on_datagram(src, raw);
        ++datagrams;
        continue;
      }
      // A GRO-coalesced buffer: every segment but the last is `seg`
      // bytes.  Split first, so each datagram is impaired and parsed on
      // its own, in arrival order.
      for (std::size_t off = 0; off < raw.size(); off += seg) {
        on_datagram(src, raw.subspan(off, std::min(seg, raw.size() - off)));
        ++datagrams;
        ++gro_coalesced_;
      }
    }
    return datagrams;
  }
#endif
#ifdef PBL_HAVE_UDP_OFFLOAD
  // recvfrom cannot see segment boundaries: a socket created on the
  // batched backend but drained here stops accepting coalesced buffers.
  if (gro_) gro_ = !set_gro(fd_, false);
#endif
  std::uint8_t buf[kMaxDatagram];
  sockaddr_in src_addr{};
  socklen_t src_len = sizeof(src_addr);
  ssize_t got;
  do {
    got = ::recvfrom(fd_, buf, sizeof(buf), MSG_DONTWAIT,
                     reinterpret_cast<sockaddr*>(&src_addr), &src_len);
  } while (got < 0 && errno == EINTR);
  if (got < 0) return 0;
  more = true;
  on_datagram(ntohs(src_addr.sin_port),
              std::span<const std::uint8_t>{buf, static_cast<std::size_t>(got)});
  return 1;
}

std::size_t UdpSocket::drain_ready() {
  bool more = false;
  return read_ready(
      [this](std::uint16_t src, std::span<const std::uint8_t> bytes) {
        enqueue_received(src, bytes);
      },
      more);
}

std::vector<fec::Packet> UdpSocket::salvage(
    std::span<const std::uint8_t> bytes) {
  // Corrupted/truncated in flight — or hostile garbage.  Scan for
  // embedded sealed frames (bounded; see kSalvageLimit) and surface the
  // desync evidence through the frame_resyncs/frames_skipped counters
  // either way.
  if (bytes.size() > kSalvageLimit) {
    ++frames_skipped_;
    return {};
  }
  FrameStreamDecoder dec;
  dec.feed(bytes);
  frame_resyncs_ += dec.resyncs();
  frames_skipped_ += dec.skipped_invalid();
  auto salvaged = dec.take();
  if (salvaged.empty()) ++frames_skipped_;
  return salvaged;
}

std::optional<Datagram> UdpSocket::parse_pending() {
  for (;;) {
    // Frames salvaged from an earlier malformed datagram go first (they
    // arrived before anything still sitting in pending_).
    if (!parsed_.empty()) {
      Datagram d = std::move(parsed_.front());
      parsed_.pop_front();
      return d;
    }
    if (pending_.empty()) return std::nullopt;
    RawDatagram raw = std::move(pending_.front());
    pending_.pop_front();
    try {
      return Datagram{raw.src_port, fec::deserialize(raw.bytes)};
    } catch (const std::invalid_argument&) {
      for (auto& p : salvage(raw.bytes))
        parsed_.push_back({raw.src_port, std::move(p)});
    }
  }
}

bool UdpSocket::deliver_datagram(std::uint16_t src,
                                 std::span<const std::uint8_t> bytes,
                                 void* ctx, ViewSink sink,
                                 std::size_t& delivered) {
  fec::PacketView view;
  try {
    view = fec::deserialize_view(bytes);
  } catch (const std::invalid_argument&) {
    auto salvaged = salvage(bytes);
    for (std::size_t i = 0; i < salvaged.size(); ++i) {
      ++delivered;
      if (!sink(ctx, src, fec::view_of(salvaged[i]))) {
        // parsed_ is empty here (deliver_queued emptied it first), so
        // the unserved tail keeps its place at the head of the queue.
        for (std::size_t j = i + 1; j < salvaged.size(); ++j)
          parsed_.push_back({src, std::move(salvaged[j])});
        return false;
      }
    }
    return true;
  }
  ++delivered;
  return sink(ctx, src, view);
}

bool UdpSocket::deliver_queued(void* ctx, ViewSink sink,
                               std::size_t& delivered) {
  for (;;) {
    if (!parsed_.empty()) {
      const Datagram d = std::move(parsed_.front());
      parsed_.pop_front();
      ++delivered;
      if (!sink(ctx, d.src_port, fec::view_of(d.packet))) return false;
      continue;
    }
    if (pending_.empty()) return true;
    const RawDatagram raw = std::move(pending_.front());
    pending_.pop_front();
    if (!deliver_datagram(raw.src_port, raw.bytes, ctx, sink, delivered))
      return false;
  }
}

std::size_t UdpSocket::drain_views(void* ctx, ViewSink sink) {
  std::size_t delivered = 0;
  if (!deliver_queued(ctx, sink, delivered)) return delivered;
  bool go = true;
  bool more = true;
  while (go && more) {
    read_ready(
        [&](std::uint16_t src, std::span<const std::uint8_t> bytes) {
          if (impairment_) {
            // Impaired datagrams keep the copying path: the impairment
            // rewrites, duplicates and holds back bytes, and the whole
            // chunk is impaired before any of it is parsed, as in
            // receive_from().
            enqueue_received(src, bytes);
          } else if (go) {
            go = deliver_datagram(src, bytes, ctx, sink, delivered);
          } else {
            // Already read off the socket after the sink stopped: keep
            // it for the next call, in order.
            pending_.push_back(
                {src, std::vector<std::uint8_t>(bytes.begin(), bytes.end())});
          }
        },
        more);
    if (impairment_ && go) go = deliver_queued(ctx, sink, delivered);
  }
  return delivered;
}

std::optional<fec::Packet> UdpSocket::receive(double timeout_s) {
  if (auto d = receive_from(timeout_s)) return std::move(d->packet);
  return std::nullopt;
}

std::optional<Datagram> UdpSocket::receive_from(double timeout_s) {
  const auto start = std::chrono::steady_clock::now();
  bool polled = false;
  for (;;) {
    // Datagrams queued by an earlier drain go first.
    if (auto p = parse_pending()) return p;
    int ms = -1;
    if (timeout_s >= 0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      const double remaining = timeout_s - elapsed;
      if (remaining <= 0.0) {
        // An exhausted budget still gets ONE zero-timeout poll, so
        // receive(0) is a true non-blocking read for event-driven
        // callers (server/session_driver) instead of always nullopt.
        if (polled) return std::nullopt;
        ms = 0;
      } else {
        ms = static_cast<int>(remaining * 1000.0);
      }
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, ms);
    polled = true;
    if (ready <= 0) return std::nullopt;
    if (drain_ready() == 0) return std::nullopt;
  }
}

std::size_t UdpSocket::receive_batch(std::vector<fec::Packet>& out,
                                     std::size_t max_packets,
                                     double timeout_s) {
  std::size_t produced = 0;
  const auto take_pending = [&] {
    while (produced < max_packets) {
      auto p = parse_pending();
      if (!p) break;
      out.push_back(std::move(p->packet));
      ++produced;
    }
  };
  take_pending();
  if (produced >= max_packets) return produced;
  const int ms =
      timeout_s < 0 ? -1 : static_cast<int>(timeout_s * 1000.0);
  pollfd pfd{fd_, POLLIN, 0};
  if (::poll(&pfd, 1, ms) <= 0) return produced;
  drain_ready();
  take_pending();
  return produced;
}

}  // namespace pbl::net
