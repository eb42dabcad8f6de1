// Hostile-peer defense for the sender's feedback path (docs/ROBUSTNESS.md
// "Hostile peers").
//
// The paper's NAK-implosion analysis (Section 5) assumes every NAK is an
// honest receiver's; one spoofed, replayed or storming feedback stream can
// inflate parity rounds for the whole group.  PeerGuard sits between the
// socket and the protocol state machine and admits a feedback datagram
// only when ALL of these hold:
//
//   1. the kernel-reported source port is an admitted group member
//      (unknown-source traffic never touches protocol state);
//   2. the frame is shape-valid for feedback (NAK/ACK type, demand count
//      bounded by k, in-range TG, expected payload size);
//   3. the header's claimed member identity matches the source port
//      (the feedback_addr_mismatch cross-check — spoofing another
//      member's identity is the cheapest attack on liveness tracking);
//   4. with `auth` on, the SipHash-2-4 trailer verifies under the peer's
//      key and its (incarnation, fbseq) falls outside the per-peer
//      sliding replay window;
//   5. the peer is inside its per-peer token-bucket rate (net::Pacer)
//      and not currently greylisted or banned.
//
// Violations accrue per-peer strikes; strikes escalate greylist -> ban,
// and a ban expires back to readmission (quarantine, not capital
// punishment — a NAT rebinding must not permanently kill a member).
// Every decision is counted in PeerGuardStats, which the server folds
// into the schema'd session metrics.
//
// Every knob in PeerGuardConfig defaults OFF: with a default config the
// guard is never constructed and the wire path is byte-identical to the
// unguarded build (pinned by the differential suites).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fec/packet.hpp"
#include "net/pacer.hpp"

namespace pbl::net {

/// Hostile-peer defense knobs.  Everything defaults off/zero; enabling
/// `enabled` activates admission + shape + identity checks, `auth` adds
/// the keyed trailer + replay window, `feedback_rate` adds per-peer
/// policing with greylist -> ban escalation.
struct PeerGuardConfig {
  bool enabled = false;  ///< master switch for the whole guard
  /// Authenticate control frames with a keyed 64-bit SipHash-2-4 tag
  /// carried in the (otherwise unused) payload of POLL/NAK frames, plus
  /// a per-peer replay window keyed on (incarnation, fbseq).
  bool auth = false;
  /// Per-session master secret, minted at admission.  Per-member and
  /// group keys are derived from it (derive_member_key/derive_group_key).
  std::uint64_t auth_key = 0;
  /// When true (the reliable-control topology), the member id a feedback
  /// frame advertises in header.index must equal the datagram's source
  /// port; mismatches are rejected and strike the peer.
  bool require_index_match = true;
  /// Per-peer feedback token rate (datagrams/s); <= 0 disables policing.
  double feedback_rate = 0.0;
  double feedback_burst = 16.0;
  /// Strikes before a peer is greylisted (all its feedback dropped for
  /// greylist_duration) and before it is banned outright.
  std::size_t greylist_after = 8;
  std::size_t ban_after = 24;
  double greylist_duration = 0.25;  ///< seconds
  /// Ban length; on expiry the peer is readmitted with a clean slate
  /// (replay history is kept, so old captures stay dead).
  double ban_duration = 5.0;
};

/// Why a feedback datagram was admitted or dropped.
enum class PeerVerdict {
  kAccept,
  kUnknownSource,  ///< source port is not an admitted member
  kBadShape,       ///< not feedback-shaped (type/count/tg/payload)
  kAddrMismatch,   ///< claimed member identity != kernel source port
  kBadAuth,        ///< keyed trailer missing or tag mismatch
  kReplay,         ///< (incarnation, fbseq) already seen in the window
  kRateLimited,    ///< per-peer token bucket empty
  kGreylisted,     ///< valid but dropped: peer is quarantined
  kBanned,         ///< dropped unconditionally until the ban expires
};

/// Closed-world decision counters.  accepted + rejected == checks, and
/// rejected is the sum of the per-cause counters — fuzz_feedback holds
/// both invariants against arbitrary input.
struct PeerGuardStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t unknown_source = 0;
  std::uint64_t bad_shape = 0;
  std::uint64_t addr_mismatch = 0;
  std::uint64_t auth_failed = 0;
  std::uint64_t replays = 0;
  std::uint64_t rate_limited = 0;
  std::uint64_t greylist_drops = 0;  ///< valid frames eaten by a greylist
  std::uint64_t ban_drops = 0;       ///< anything arriving while banned
  std::uint64_t greylisted = 0;      ///< greylist episodes entered
  std::uint64_t banned = 0;          ///< ban episodes entered
  std::uint64_t readmitted = 0;      ///< bans expired back to membership
};

// ---- keyed frame authentication -----------------------------------------

/// Bytes of the auth trailer appended to a control frame's payload:
/// u32 fbseq (LE) followed by the u64 SipHash-2-4 tag (LE).
inline constexpr std::size_t kAuthTrailerSize = 12;

/// SipHash-2-4 with a 128-bit key over `data`.
std::uint64_t siphash24(std::uint64_t k0, std::uint64_t k1,
                        std::span<const std::uint8_t> data);

/// Per-member key: what a receiver tags its feedback with, and what the
/// sender verifies that member's feedback against.
std::uint64_t derive_member_key(std::uint64_t session_key,
                                std::uint16_t port);

/// Group key for sender -> receivers control frames (POLL, end marker).
/// One key for the whole group keeps the multicast fan-out byte-identical
/// per member.
std::uint64_t derive_group_key(std::uint64_t session_key);

/// Tag over the semantic header fields (everything before payload_len,
/// in wire order) plus fbseq.  Control frames carry no payload besides
/// the trailer, so this covers every byte that drives protocol state.
std::uint64_t feedback_tag(std::uint64_t key, const fec::PacketHeader& header,
                           std::uint32_t fbseq);

/// Appends the 12-byte trailer to packet.payload.
void append_auth_trailer(fec::Packet& packet, std::uint64_t key,
                         std::uint32_t fbseq);

/// Verifies the trailer at the END of packet.payload; returns the fbseq
/// on success, nullopt on missing/short payload or tag mismatch.
std::optional<std::uint32_t> verify_auth_trailer(const fec::PacketView& packet,
                                                 std::uint64_t key);

// ---- the guard ----------------------------------------------------------

class PeerGuard {
 public:
  /// `members`: admitted peer ports in group order.  `k`/`num_tgs` bound
  /// shape validation (a receiver can never need more than k packets or
  /// speak about a TG the session does not have).  `now` seeds the
  /// per-peer token buckets.
  PeerGuard(PeerGuardConfig cfg, std::vector<std::uint16_t> members,
            std::size_t k, std::size_t num_tgs, double now);

  /// Classifies one feedback datagram.  Only kAccept may touch protocol
  /// state; every other verdict was already counted and (where the source
  /// is an admitted member) struck against the peer.
  PeerVerdict check(std::uint16_t src_port, const fec::PacketView& packet,
                    double now);
  PeerVerdict check(std::uint16_t src_port, const fec::Packet& packet,
                    double now) {
    return check(src_port, fec::view_of(packet), now);
  }

  /// True while member m is inside an unexpired ban.  The round closer
  /// skips banned members so one adversary cannot stall the group.
  bool is_banned(std::size_t member, double now) const;

  /// Ever entered a ban or greylist (sticky) — the session report exempts
  /// such members from the completeness requirement.
  bool ever_banned(std::size_t member) const;

  const PeerGuardStats& stats() const noexcept { return stats_; }
  const PeerGuardConfig& config() const noexcept { return cfg_; }

 private:
  struct ReplayWindow {
    bool any = false;
    std::uint64_t top = 0;
    std::uint64_t bits = 0;
  };
  struct Peer {
    Pacer bucket;
    std::size_t strikes = 0;
    double greylisted_until = 0.0;
    double banned_until = 0.0;
    bool banned = false;
    bool ever_banned = false;
    std::uint64_t key = 0;
    ReplayWindow window;
  };

  /// Violation bookkeeping: one strike, with greylist/ban escalation.
  void strike(Peer& peer, double now);
  /// Advances a (incarnation, fbseq) window; false when val is a replay.
  static bool window_admit(ReplayWindow& w, std::uint64_t val);

  PeerGuardConfig cfg_;
  std::vector<std::uint16_t> members_;
  std::vector<Peer> peers_;
  std::size_t k_ = 0;
  std::size_t num_tgs_ = 0;
  PeerGuardStats stats_;
};

}  // namespace pbl::net
