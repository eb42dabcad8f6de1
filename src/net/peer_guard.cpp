#include "net/peer_guard.hpp"

#include <algorithm>
#include <cstring>

namespace pbl::net {

namespace {

inline std::uint64_t rotl64(std::uint64_t x, int b) noexcept {
  return (x << b) | (x >> (64 - b));
}

inline std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

inline void put_le16(std::uint8_t* p, std::uint16_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

inline void put_le32(std::uint8_t* p, std::uint32_t v) noexcept {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

inline void put_le64(std::uint8_t* p, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

inline std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

// One splitmix64 step — the key-derivation mixer (matches util/rng.hpp).
inline std::uint64_t mix64(std::uint64_t z) noexcept {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t siphash24(std::uint64_t k0, std::uint64_t k1,
                        std::span<const std::uint8_t> data) {
  std::uint64_t v0 = 0x736f6d6570736575ULL ^ k0;
  std::uint64_t v1 = 0x646f72616e646f6dULL ^ k1;
  std::uint64_t v2 = 0x6c7967656e657261ULL ^ k0;
  std::uint64_t v3 = 0x7465646279746573ULL ^ k1;

  const auto sipround = [&] {
    v0 += v1;
    v1 = rotl64(v1, 13);
    v1 ^= v0;
    v0 = rotl64(v0, 32);
    v2 += v3;
    v3 = rotl64(v3, 16);
    v3 ^= v2;
    v0 += v3;
    v3 = rotl64(v3, 21);
    v3 ^= v0;
    v2 += v1;
    v1 = rotl64(v1, 17);
    v1 ^= v2;
    v2 = rotl64(v2, 32);
  };

  const std::size_t n = data.size();
  const std::size_t full = n & ~std::size_t{7};
  for (std::size_t i = 0; i < full; i += 8) {
    const std::uint64_t m = load_le64(data.data() + i);
    v3 ^= m;
    sipround();
    sipround();
    v0 ^= m;
  }
  std::uint64_t last = static_cast<std::uint64_t>(n & 0xff) << 56;
  for (std::size_t i = full; i < n; ++i)
    last |= static_cast<std::uint64_t>(data[i]) << (8 * (i - full));
  v3 ^= last;
  sipround();
  sipround();
  v0 ^= last;
  v2 ^= 0xff;
  sipround();
  sipround();
  sipround();
  sipround();
  return v0 ^ v1 ^ v2 ^ v3;
}

std::uint64_t derive_member_key(std::uint64_t session_key,
                                std::uint16_t port) {
  return mix64(session_key ^ (0x6d656d62ULL << 16) ^ port);
}

std::uint64_t derive_group_key(std::uint64_t session_key) {
  return mix64(session_key ^ 0x67726f7570ULL);
}

std::uint64_t feedback_tag(std::uint64_t key, const fec::PacketHeader& header,
                           std::uint32_t fbseq) {
  // The tag covers every semantic header field in wire order (type ..
  // seq; payload_len is framing, not semantics) plus the anti-replay
  // fbseq.  Control frames carry no payload besides the trailer itself,
  // so this authenticates everything that drives protocol state.
  std::uint8_t buf[22];
  buf[0] = static_cast<std::uint8_t>(header.type);
  buf[1] = header.incarnation;
  put_le32(buf + 2, header.tg);
  put_le16(buf + 6, header.index);
  put_le16(buf + 8, header.k);
  put_le16(buf + 10, header.n);
  put_le16(buf + 12, header.count);
  put_le32(buf + 14, header.seq);
  put_le32(buf + 18, fbseq);
  // Expand the 64-bit session-derived key into SipHash's 128-bit key.
  return siphash24(key, mix64(key), std::span<const std::uint8_t>(buf));
}

void append_auth_trailer(fec::Packet& packet, std::uint64_t key,
                         std::uint32_t fbseq) {
  const std::uint64_t tag = feedback_tag(key, packet.header, fbseq);
  const std::size_t base = packet.payload.size();
  packet.payload.resize(base + kAuthTrailerSize);
  put_le32(packet.payload.data() + base, fbseq);
  put_le64(packet.payload.data() + base + 4, tag);
}

std::optional<std::uint32_t> verify_auth_trailer(const fec::PacketView& packet,
                                                 std::uint64_t key) {
  if (packet.payload.size() < kAuthTrailerSize) return std::nullopt;
  const std::uint8_t* trailer =
      packet.payload.data() + packet.payload.size() - kAuthTrailerSize;
  const std::uint32_t fbseq = load_le32(trailer);
  const std::uint64_t want = feedback_tag(key, packet.header, fbseq);
  // Fold the comparison through XOR so it is not value-dependent
  // byte-by-byte (a timing side channel is a stretch on loopback, but
  // the constant-time form costs nothing).
  std::uint64_t got = 0;
  std::memcpy(&got, trailer + 4, sizeof(got));
  std::uint8_t want_le[8];
  put_le64(want_le, want);
  std::uint64_t want_native = 0;
  std::memcpy(&want_native, want_le, sizeof(want_native));
  if ((got ^ want_native) != 0) return std::nullopt;
  return fbseq;
}

PeerGuard::PeerGuard(PeerGuardConfig cfg, std::vector<std::uint16_t> members,
                     std::size_t k, std::size_t num_tgs, double now)
    : cfg_(cfg), members_(std::move(members)), k_(k), num_tgs_(num_tgs) {
  peers_.resize(members_.size());
  for (std::size_t m = 0; m < members_.size(); ++m) {
    peers_[m].bucket = Pacer(cfg_.feedback_rate, cfg_.feedback_burst, now);
    peers_[m].key = derive_member_key(cfg_.auth_key, members_[m]);
  }
}

bool PeerGuard::window_admit(ReplayWindow& w, std::uint64_t val) {
  if (!w.any) {
    w.any = true;
    w.top = val;
    w.bits = 1;
    return true;
  }
  if (val > w.top) {
    const std::uint64_t shift = val - w.top;
    w.bits = shift >= 64 ? 0 : w.bits << shift;
    w.bits |= 1;
    w.top = val;
    return true;
  }
  const std::uint64_t diff = w.top - val;
  if (diff >= 64) return false;  // older than the window: treat as replay
  const std::uint64_t mask = std::uint64_t{1} << diff;
  if (w.bits & mask) return false;
  w.bits |= mask;
  return true;
}

void PeerGuard::strike(Peer& peer, double now) {
  ++peer.strikes;
  if (peer.strikes >= cfg_.ban_after) {
    peer.banned = true;
    peer.ever_banned = true;
    peer.banned_until = now + cfg_.ban_duration;
    peer.greylisted_until = 0.0;
    ++stats_.banned;
  } else if (peer.strikes >= cfg_.greylist_after &&
             now >= peer.greylisted_until) {
    peer.greylisted_until = now + cfg_.greylist_duration;
    ++stats_.greylisted;
  }
}

PeerVerdict PeerGuard::check(std::uint16_t src_port,
                             const fec::PacketView& packet, double now) {
  const auto it = std::find(members_.begin(), members_.end(), src_port);
  if (it == members_.end()) {
    ++stats_.unknown_source;
    ++stats_.rejected;
    return PeerVerdict::kUnknownSource;
  }
  Peer& peer = peers_[static_cast<std::size_t>(it - members_.begin())];

  // Lazy readmission: a ban is quarantine, not expulsion.  Strikes and
  // the greylist reset; the replay window survives so captured frames
  // from before the ban stay dead.
  if (peer.banned && now >= peer.banned_until) {
    peer.banned = false;
    peer.strikes = 0;
    peer.greylisted_until = 0.0;
    peer.bucket = Pacer(cfg_.feedback_rate, cfg_.feedback_burst, now);
    ++stats_.readmitted;
  }
  if (peer.banned) {
    ++stats_.ban_drops;
    ++stats_.rejected;
    return PeerVerdict::kBanned;
  }

  // Shape: the sender socket only ever legitimately hears feedback —
  // a NAK/ACK about one of this session's TGs, demanding at most k
  // packets, with no payload beyond the (optional) auth trailer.
  const fec::PacketHeader& h = packet.header;
  const std::size_t expected_payload = cfg_.auth ? kAuthTrailerSize : 0;
  if (h.type != fec::PacketType::kNak || h.count > k_ || h.tg >= num_tgs_ ||
      packet.payload.size() != expected_payload) {
    strike(peer, now);
    ++stats_.bad_shape;
    ++stats_.rejected;
    return PeerVerdict::kBadShape;
  }

  // Identity: the member the frame claims to be must be where the bytes
  // came from.  Spoofing a victim's identity (to forge its ACKs or
  // inflate its NAK demand) is the cheapest feedback attack.
  if (cfg_.require_index_match && h.index != src_port) {
    strike(peer, now);
    ++stats_.addr_mismatch;
    ++stats_.rejected;
    return PeerVerdict::kAddrMismatch;
  }

  if (cfg_.auth) {
    const auto fbseq = verify_auth_trailer(packet, peer.key);
    if (!fbseq) {
      strike(peer, now);
      ++stats_.auth_failed;
      ++stats_.rejected;
      return PeerVerdict::kBadAuth;
    }
    const std::uint64_t val =
        (static_cast<std::uint64_t>(h.incarnation) << 32) | *fbseq;
    if (!window_admit(peer.window, val)) {
      strike(peer, now);
      ++stats_.replays;
      ++stats_.rejected;
      return PeerVerdict::kReplay;
    }
  }

  // Policing runs even while greylisted: a peer that keeps storming
  // through its quarantine keeps accruing strikes and escalates to a
  // ban, while a quiet greylisted peer serves out its time and recovers.
  if (peer.bucket.enabled() && !peer.bucket.ready(now)) {
    strike(peer, now);
    ++stats_.rate_limited;
    ++stats_.rejected;
    return PeerVerdict::kRateLimited;
  }

  if (now < peer.greylisted_until) {
    if (peer.bucket.enabled()) peer.bucket.consume(now);
    ++stats_.greylist_drops;
    ++stats_.rejected;
    return PeerVerdict::kGreylisted;
  }

  if (peer.bucket.enabled()) peer.bucket.consume(now);
  if (peer.strikes > 0) --peer.strikes;  // good behaviour pays down strikes
  ++stats_.accepted;
  return PeerVerdict::kAccept;
}

bool PeerGuard::is_banned(std::size_t member, double now) const {
  if (member >= peers_.size()) return false;
  const Peer& peer = peers_[member];
  return peer.banned && now < peer.banned_until;
}

bool PeerGuard::ever_banned(std::size_t member) const {
  if (member >= peers_.size()) return false;
  return peers_[member].ever_banned;
}

}  // namespace pbl::net
