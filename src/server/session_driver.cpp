#include "server/session_driver.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "protocol/nak_suppression.hpp"

namespace pbl::server {

using protocol::Backoff;
using protocol::Deadline;

namespace {

/// True when the decoded TG of k packets holds exactly `expected`.
bool decoded_matches(const fec::TgDecoder& dec, std::size_t k,
                     const net::TgBytes& expected) {
  if (expected.size() != k) return false;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto got = dec.data(i);
    if (!std::equal(got.begin(), got.end(), expected[i].begin(),
                    expected[i].end()))
      return false;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// SenderSessionDriver
// ---------------------------------------------------------------------------

SenderSessionDriver::SenderSessionDriver(Reactor& reactor, net::UdpSocket socket,
                                         net::UdpGroup group,
                                         const net::UdpNpConfig& config,
                                         const std::vector<net::TgBytes>& groups,
                                         std::function<void()> on_finished)
    : reactor_(reactor), socket_(std::move(socket)), group_(std::move(group)),
      cfg_(config), groups_(groups),
      code_(fec::RseCode::shared(config.k, config.k + config.h)),
      clk_(config.clock ? *config.clock : protocol::steady_clock()),
      on_finished_(std::move(on_finished)) {
  if (config.k + config.h > 255)
    throw std::invalid_argument("SenderSessionDriver: k + h must be <= 255");
  if (group_.size() == 0)
    throw std::invalid_argument("SenderSessionDriver: empty group");
  if (cfg_.reliable_control) cfg_.retry.validate();
  if (!cfg_.resume_completed.empty() &&
      cfg_.resume_completed.size() != groups_.size())
    throw std::invalid_argument(
        "SenderSessionDriver: resume_completed size mismatch");
  if (!cfg_.resume_parities.empty() &&
      cfg_.resume_parities.size() != groups_.size())
    throw std::invalid_argument(
        "SenderSessionDriver: resume_parities size mismatch");
  for (const auto& tg : groups_)
    if (tg.size() != cfg_.k)
      throw std::invalid_argument("SenderSessionDriver: each TG needs k packets");
  std::size_t max_payload = cfg_.packet_len;
  for (const auto& g : groups_)
    if (!g.empty()) max_payload = std::max(max_payload, g[0].size());
  const std::size_t frames =
      cfg_.arena_frames > 0 ? cfg_.arena_frames
                            : std::max({cfg_.k, cfg_.h, std::size_t{1}});
  arena_ =
      std::make_unique<net::PacketArena>(fec::wire_size(max_payload), frames);
}

SenderSessionDriver::~SenderSessionDriver() {
  disarm_timer();
  disarm_flush_timer();
  if (fd_registered_) reactor_.remove_fd(socket_.fd());
}

void SenderSessionDriver::start() {
  if (started_) return;
  started_ = true;
  const auto& members = group_.members();
  evicted_.assign(members.size(), false);
  silent_.assign(members.size(), 0);
  delivered_.assign(members.size(), std::vector<bool>(groups_.size(), false));
  deficit_.assign(members.size(), 0);
  quarantined_.assign(members.size(), false);
  parity_high_.assign(groups_.size(), 0);
  for (std::size_t i = 0;
       i < cfg_.resume_parities.size() && i < groups_.size(); ++i)
    parity_high_[i] =
        std::min<std::size_t>(cfg_.resume_parities[i], cfg_.h);
  deadline_ = Deadline(clk_.now(), cfg_.reliable_control
                                       ? cfg_.retry.session_deadline
                                       : 0.0);
  pacer_ = net::Pacer(cfg_.overload.pace_rate, cfg_.overload.pace_burst,
                      clk_.now());
  expelled_.assign(members.size(), false);
  if (cfg_.guard.enabled) {
    auto gcfg = cfg_.guard;
    // The member identity rides in header.index only on the reliable
    // control plane; without it there is no claim to cross-check.
    gcfg.require_index_match = cfg_.reliable_control;
    guard_ = std::make_unique<net::PeerGuard>(gcfg, members, cfg_.k,
                                              groups_.size(), clk_.now());
  }
  if (cfg_.guard.auth)
    group_key_ = net::derive_group_key(cfg_.guard.auth_key);
  reactor_.add_fd(socket_.fd(), [this] { on_readable(); });
  fd_registered_ = true;
  tg_ = 0;
  begin_next_tg();
}

void SenderSessionDriver::stop() {
  if (finished_ || stopped_) return;
  stopped_ = true;
  disarm_timer();
  disarm_flush_timer();
  if (fd_registered_) {
    reactor_.remove_fd(socket_.fd());
    fd_registered_ = false;
  }
}

bool SenderSessionDriver::send_mc(fec::Packet packet) {
  if (stats_.crashed) return false;
  if (sends_ >= cfg_.crash_after_sends) {
    stats_.crashed = true;
    return false;
  }
  ++sends_;
  packet.header.incarnation = static_cast<std::uint8_t>(cfg_.incarnation);
  // Authenticated control plane: POLLs (including the end marker) carry
  // a group-keyed trailer so a hostile member cannot forge or replay
  // them at honest receivers.  One key for the whole group keeps the
  // fan-out bytes identical per member.
  if (cfg_.guard.auth && packet.header.type == fec::PacketType::kPoll)
    net::append_auth_trailer(packet, group_key_, ++ctl_seq_);
  // Best-effort control fan-out: a would-block tail is dropped rather
  // than parking the reactor in a blocking socket wait — control loss is
  // protocol-legal (re-POLL and NAK-retransmit machinery repairs it),
  // while a blocking retry under sustained pushback would starve every
  // other session on this thread.
  const auto bytes = fec::serialize(packet);
  std::vector<net::FrameRef> refs;
  refs.reserve(group_.members().size());
  for (const std::uint16_t port : group_.members())
    refs.push_back({port, bytes});
  if (socket_.send_batch(refs).status == net::SendStatus::kWouldBlock)
    ++stats_.would_block;
  return true;
}

bool SenderSessionDriver::send_to_targets(fec::Packet packet) {
  if (stats_.crashed) return false;
  if (sends_ >= cfg_.crash_after_sends) {
    stats_.crashed = true;
    return false;
  }
  ++sends_;
  packet.header.incarnation = static_cast<std::uint8_t>(cfg_.incarnation);
  if (cfg_.guard.auth && packet.header.type == fec::PacketType::kPoll)
    net::append_auth_trailer(packet, group_key_, ++ctl_seq_);
  const auto bytes = fec::serialize(packet);
  std::vector<net::FrameRef> refs;
  refs.reserve(cu_targets_.size());
  const auto& members = group_.members();
  for (const std::size_t m : cu_targets_) refs.push_back({members[m], bytes});
  if (socket_.send_batch(refs).status == net::SendStatus::kWouldBlock)
    ++stats_.would_block;
  return true;
}

void SenderSessionDriver::fan_out_staged() {
  // Member-major: each member's frames sit next to each other, so
  // send_batch can hand a member's share to the kernel as one GSO
  // super-datagram.  Every member's own stream is unchanged; only the
  // interleaving across members differs from packet-major order.
  const auto fan = [this](std::uint16_t port) {
    for (const auto frame : staged_) burst_.push_back({port, frame});
  };
  const auto& members = group_.members();
  if (burst_phase_ == BurstPhase::kCatchUpParity) {
    // Catch-up repair is unicast to the stragglers: the healthy group
    // already holds this TG and must not pay for the laggards' loss.
    for (const std::size_t m : cu_targets_) fan(members[m]);
  } else {
    for (const std::uint16_t port : members) fan(port);
  }
  staged_.clear();
}

void SenderSessionDriver::start_burst(BurstPhase phase, std::size_t count) {
  burst_phase_ = phase;
  stage_count_ = count;
  stage_next_ = 0;
  burst_sent_ = 0;
  stall_since_ = -1.0;
  burst_.clear();
  arena_->release_all();
  pump_burst();
}

void SenderSessionDriver::pump_burst() {
  if (finished_ || stopped_ || burst_phase_ == BurstPhase::kNone) return;
  const auto& ov = cfg_.overload;
  for (;;) {
    const double now = clk_.now();
    bool arena_full = false;
    bool pacer_blocked = false;
    // Stage as many logical packets as the pacer and arena allow.  The
    // crash counter ticks per logical packet before its frames stage,
    // clamping the burst at the same wire position regardless of how
    // many arena generations or pacer deferrals the burst spans.
    while (stage_next_ < stage_count_) {
      if (stats_.crashed) break;
      if (sends_ >= cfg_.crash_after_sends) {
        stats_.crashed = true;
        break;
      }
      if (!pacer_.ready(now)) {
        pacer_blocked = true;
        break;
      }
      const auto frame = arena_->acquire();
      if (!frame) {
        arena_full = true;
        ++stats_.arena_deferrals;
        break;
      }
      ++sends_;
      pacer_.consume(now);
      const auto inc = static_cast<std::uint8_t>(cfg_.incarnation);
      std::size_t len = 0;
      if (burst_phase_ == BurstPhase::kData) {
        len = encoder_->write_data_frame(stage_next_, inc, frame->bytes);
        ++stats_.data_sent;
      } else {
        len = encoder_->write_parity_frame(parity_base_ + stage_next_, inc,
                                           frame->bytes);
        ++stats_.parity_sent;
      }
      staged_.push_back(frame->bytes.first(len));
      ++stage_next_;
    }
    fan_out_staged();

    // Flush everything staged but unsent.  send_batch's prefix contract
    // keeps the wire byte-identical however the burst is chopped.
    if (burst_sent_ < burst_.size()) {
      const auto r = socket_.send_batch(
          std::span<const net::FrameRef>(burst_).subspan(burst_sent_));
      burst_sent_ += r.sent;
      if (r.status == net::SendStatus::kWouldBlock) {
        ++stats_.would_block;
        // Partial progress restarts the stall clock: shedding is for a
        // socket that stopped draining, not one draining slowly.
        if (r.sent > 0 || stall_since_ < 0.0) stall_since_ = now;
        if (ov.stall_timeout > 0.0 &&
            now - stall_since_ >= ov.stall_timeout) {
          const bool parity_burst = burst_phase_ != BurstPhase::kData;
          if (ov.shed_policy == net::ShedPolicy::kDropNewestParity &&
              parity_burst) {
            // Shed the unsent tail of the repair burst: the next NAK
            // round re-requests whatever this drop cost.
            stats_.shed_frames += burst_.size() - burst_sent_;
            burst_sent_ = burst_.size();
            stage_count_ = stage_next_;
            stall_since_ = -1.0;
            continue;
          }
          if (ov.shed_policy == net::ShedPolicy::kRefuse) {
            stats_.shed_frames += burst_.size() - burst_sent_;
            stats_.report.overloaded = true;
            finish_session();
            return;
          }
          // kDefer (and data bursts under kDropNewestParity): originals
          // are never shed — keep waiting on the retry timer.
        }
        if (deadline_.expired(now)) {
          stats_.report.deadline_expired = true;
          finish_session();
          return;
        }
        arm_flush_timer(now + ov.retry_interval);
        return;
      }
      stall_since_ = -1.0;
    }

    // Everything staged so far is on the wire.
    if (stage_next_ >= stage_count_ || stats_.crashed) {
      on_burst_complete();
      return;
    }
    if (arena_full) {
      // The staged generation is fully flushed: recycle the arena and
      // keep staging — a tiny arena costs extra kernel batches, never
      // different bytes.
      burst_.clear();
      burst_sent_ = 0;
      arena_->release_all();
      continue;
    }
    if (pacer_blocked) {
      if (deadline_.expired(now)) {
        stats_.report.deadline_expired = true;
        finish_session();
        return;
      }
      arm_flush_timer(pacer_.earliest(now));
      return;
    }
  }
}

void SenderSessionDriver::on_burst_complete() {
  const BurstPhase phase = burst_phase_;
  burst_phase_ = BurstPhase::kNone;
  burst_.clear();
  burst_sent_ = 0;
  stage_next_ = 0;
  stage_count_ = 0;
  stall_since_ = -1.0;
  arena_->release_all();
  disarm_flush_timer();
  if (stats_.crashed) {
    finish_session();
    return;
  }
  switch (phase) {
    case BurstPhase::kData:
      send_poll();
      break;
    case BurstPhase::kParity:
      ++round_;
      send_poll();
      break;
    case BurstPhase::kCatchUpParity:
      ++cu_round_;
      send_catch_up_poll();
      break;
    case BurstPhase::kNone:
      break;
  }
}

void SenderSessionDriver::arm_flush_timer(double when) {
  if (flush_timer_armed_) reactor_.cancel_timer(flush_timer_);
  flush_timer_ = reactor_.add_timer(when, [this] {
    flush_timer_armed_ = false;
    pump_burst();
  });
  flush_timer_armed_ = true;
}

void SenderSessionDriver::disarm_flush_timer() {
  if (!flush_timer_armed_) return;
  reactor_.cancel_timer(flush_timer_);
  flush_timer_armed_ = false;
}

std::size_t SenderSessionDriver::member_of(std::uint16_t port) const {
  const auto& members = group_.members();
  for (std::size_t m = 0; m < members.size(); ++m)
    if (members[m] == port) return m;
  return members.size();  // unknown port: foreign feedback
}

bool SenderSessionDriver::confirmed() const {
  // Quarantined members no longer gate the round: their missing TGs are
  // owed to them by the catch-up pass (or eviction), not by the group.
  // Expelled (banned) members forfeited their claim entirely.
  for (std::size_t m = 0; m < group_.members().size(); ++m)
    if (!evicted_[m] && !quarantined_[m] && !expelled_[m] && !acked_[m])
      return false;
  return true;
}

bool SenderSessionDriver::tg_fully_delivered() const {
  for (std::size_t m = 0; m < group_.members().size(); ++m)
    if (quarantined_[m] && !evicted_[m] && !expelled_[m] &&
        !delivered_[m][tg_])
      return false;
  return true;
}

void SenderSessionDriver::refresh_expulsions() {
  if (!guard_) return;
  // Expulsion is sticky: a ban ever pronounced exempts that member from
  // the group's completeness requirement for the rest of the session,
  // even if the ban itself later expires into readmission.  Without
  // this, one Byzantine peer would hold every round open (or force
  // eviction metrics that mask real failures).
  for (std::size_t m = 0; m < group_.members().size(); ++m)
    if (!expelled_[m] && guard_->ever_banned(m)) expelled_[m] = true;
}

void SenderSessionDriver::complete_current_tg() {
  if (cfg_.on_tg_completed) cfg_.on_tg_completed(tg_);
  ++tgs_completed_;
}

void SenderSessionDriver::update_quarantine() {
  const std::size_t need = cfg_.overload.quarantine_deficit;
  if (need == 0 || catchup_) return;
  const auto& members = group_.members();
  std::size_t live = 0;
  std::size_t acked = 0;
  for (std::size_t m = 0; m < members.size(); ++m) {
    if (evicted_[m] || quarantined_[m] || expelled_[m]) continue;
    ++live;
    if (acked_[m]) ++acked;
  }
  // Deficit accrues only against an acked quorum: when the whole group
  // is struggling the problem is the sender/network, not a member.
  if (live == 0 || acked >= live) return;
  if (static_cast<double>(acked) + 1e-9 <
      cfg_.overload.quarantine_quorum * static_cast<double>(live))
    return;
  for (std::size_t m = 0; m < members.size(); ++m) {
    if (evicted_[m] || quarantined_[m] || expelled_[m] || acked_[m]) continue;
    if (++deficit_[m] >= need) {
      quarantined_[m] = true;
      ++stats_.members_quarantined;
    }
  }
}

void SenderSessionDriver::arm_window_timer(double window) {
  window_timer_ = reactor_.add_timer(clk_.now() + window, [this] {
    timer_armed_ = false;
    on_window_expired();
  });
  timer_armed_ = true;
}

void SenderSessionDriver::disarm_timer() {
  if (!timer_armed_) return;
  reactor_.cancel_timer(window_timer_);
  timer_armed_ = false;
}

void SenderSessionDriver::begin_next_tg() {
  // Skip TGs confirmed complete in a prior life; they are never re-sent.
  while (tg_ < groups_.size() && tg_ < cfg_.resume_completed.size() &&
         cfg_.resume_completed[tg_]) {
    ++stats_.tgs_skipped;
    ++tg_;
  }
  if (tg_ >= groups_.size()) {
    maybe_start_catch_up();
    return;
  }
  if (stats_.crashed) {
    finish_session();
    return;
  }
  if (deadline_.expired(clk_.now())) {
    stats_.report.deadline_expired = true;
    finish_session();
    return;
  }

  encoder_.emplace(static_cast<std::uint32_t>(tg_), code_, groups_[tg_]);
  // Round state initialises BEFORE the data burst: the burst may now
  // complete asynchronously (pacer, arena or kernel-pushback deferrals),
  // and feedback racing in meanwhile must find per-member state sized.
  acked_.assign(group_.members().size(), false);
  heard_.assign(group_.members().size(), false);
  poll_backoff_.emplace(cfg_.retry, Rng(cfg_.seed).split(0x9100 + tg_));
  parities_used_ = parity_high_[tg_];
  window_pad_ = 0.0;
  round_ = 0;
  // Zero-copy burst: frames written in place into arena slabs, batched
  // to the kernel by the pump (see pump_burst for the crash-position
  // and byte-identity invariants).
  start_burst(BurstPhase::kData, cfg_.k);
}

void SenderSessionDriver::send_poll() {
  if (round_ >= cfg_.max_rounds) {
    // Round cap hit: abandon this TG silently and move on.
    ++tg_;
    begin_next_tg();
    return;
  }
  fec::Packet poll;
  poll.header.type = fec::PacketType::kPoll;
  poll.header.tg = static_cast<std::uint32_t>(tg_);
  poll.header.k = static_cast<std::uint16_t>(cfg_.k);
  poll.header.seq = ++round_id_;
  if (!send_mc(poll)) {
    finish_session();
    return;
  }
  ++stats_.polls_sent;

  l_ = 0;
  round_naks_ = 0;
  std::fill(heard_.begin(), heard_.end(), false);
  const double now = clk_.now();
  const double window =
      std::min(cfg_.poll_window + window_pad_, deadline_.remaining(now));
  arm_window_timer(window);
}

void SenderSessionDriver::on_readable() {
  if (finished_ || stopped_) return;
  socket_.drain([this](std::uint16_t src_port, const fec::PacketView& nak) {
    on_feedback(src_port, nak);
    return !finished_ && !stopped_;
  });
}

void SenderSessionDriver::on_feedback(std::uint16_t src_port,
                                      const fec::PacketView& nak) {
  // Hostile-peer admission runs before ANY protocol state is touched:
  // unknown sources, shape-invalid frames, identity spoofs, bad tags,
  // replays and over-rate peers are counted and dropped here.
  if (guard_ &&
      guard_->check(src_port, nak, clk_.now()) != net::PeerVerdict::kAccept) {
    stats_.guard = guard_->stats();
    return;
  }
  if (nak.header.type != fec::PacketType::kNak ||
      nak.header.tg != static_cast<std::uint32_t>(tg_))
    return;
  // Even with the guard off, feedback whose claimed identity
  // contradicts the kernel-reported source never reaches liveness
  // state (the header.index port-smuggling fix).  With the guard on
  // the same check already ran (and struck the peer) inside check().
  if (cfg_.reliable_control && !guard_ && nak.header.index != src_port) {
    ++stats_.feedback_addr_mismatch;
    return;
  }
  std::size_t m = group_.members().size();
  if (cfg_.reliable_control) {
    m = member_of(nak.header.index);
    if (m < group_.members().size()) {
      heard_[m] = true;
      silent_[m] = 0;
      if (nak.header.count == 0) {
        ++stats_.acks_received;
        deficit_[m] = 0;  // a serviced member is no longer lagging
        if (!acked_[m]) {
          acked_[m] = true;
          delivered_[m][tg_] = true;
        }
      }
    }
  }
  if (nak.header.count > 0 && nak.header.seq == round_id_) {
    // A quarantined member's NAK is liveness, not demand: its missing
    // TGs are owed by the catch-up pass, where its NAKs count again.
    if (!catchup_ && m < group_.members().size() && quarantined_[m]) {
      ++stats_.naks_suppressed;
      return;
    }
    // Per-round feedback budget (Section 3.3 implosion control): NAKs
    // past the budget are dropped this round; the next round's POLL
    // re-collects anyone still unserved.
    if (cfg_.overload.feedback_budget > 0 &&
        round_naks_ >= cfg_.overload.feedback_budget) {
      ++stats_.naks_suppressed;
      return;
    }
    ++round_naks_;
    ++stats_.naks_received;
    l_ = std::max(l_, static_cast<std::size_t>(nak.header.count));
  }
}

void SenderSessionDriver::on_window_expired() {
  if (finished_ || stopped_) return;
  // Pull in any feedback that raced the timer into the socket buffer.
  on_readable();
  if (catchup_)
    after_catch_up_window();
  else
    after_window();
}

void SenderSessionDriver::after_window() {
  refresh_expulsions();
  const auto next_tg = [&] {
    ++tg_;
    begin_next_tg();
  };
  // A confirmed round closes the TG, but its completion journals only
  // once every quarantined live member holds it too — a journaled TG is
  // never re-sent, so journaling early would silently strand the
  // stragglers' copies (exactly-once).  Catch-up journals the rest.
  const auto advance_confirmed = [&] {
    if (tg_fully_delivered()) complete_current_tg();
    next_tg();
  };

  if (!cfg_.reliable_control) {
    if (l_ == 0) {
      complete_current_tg();  // silence: all receivers reconstructed it
      next_tg();
      return;
    }
  } else {
    if (confirmed()) {
      advance_confirmed();  // every live non-quarantined member acked
      return;
    }
    if (deadline_.expired(clk_.now())) {
      stats_.report.deadline_expired = true;
      finish_session();
      return;
    }
    update_quarantine();
    if (confirmed()) {
      advance_confirmed();  // quarantining removed the last holdout
      return;
    }
    if (l_ == 0) {
      // A totally unanswered round: age every unconfirmed member and
      // re-POLL with a widened window — unless the budget is spent.
      // Expelled members are expected to be silent (their feedback is
      // dropped at the guard); aging them would turn every ban into a
      // spurious eviction and fail sessions the adversary cannot touch.
      for (std::size_t m = 0; m < group_.members().size(); ++m) {
        if (evicted_[m] || expelled_[m] || acked_[m] || heard_[m]) continue;
        if (++silent_[m] >= cfg_.retry.grace_rounds) {
          evicted_[m] = true;
          ++stats_.evictions;
        }
      }
      if (confirmed()) {
        advance_confirmed();
        return;
      }
      if (poll_backoff_->exhausted()) {
        ++stats_.tgs_unconfirmed;
        next_tg();
        return;
      }
      ++stats_.poll_retries;
      window_pad_ = poll_backoff_->next();
      ++round_;
      send_poll();
      return;
    }
    window_pad_ = 0.0;  // progress: the next round is a normal one
  }

  std::size_t l = std::min(l_, cfg_.h - parities_used_);
  if (l == 0) {
    ++stats_.tgs_exhausted;
    next_tg();
    return;
  }
  // Journal the new high-water BEFORE the parities leave: if the sender
  // dies in between, the next life merely skips indices that were never
  // sent (wasteful, never wrong) — the reverse order could re-send
  // indices receivers already hold.
  parities_used_ += l;
  parity_high_[tg_] = parities_used_;
  if (cfg_.on_parities_sent) cfg_.on_parities_sent(tg_, parities_used_);
  parity_base_ = parities_used_ - l;
  start_burst(BurstPhase::kParity, l);
}

// ---- slow-receiver catch-up (net/overload.hpp) ----------------------------
//
// After the main pass, each TG still owed to a live quarantined member is
// served again: a unicast POLL to the stragglers, then parity-only repair
// under the remaining per-TG budget, bounded by catch_up_rounds — the
// late-join idea applied to members who fell behind instead of arriving
// late.  A member still missing data when the budget ends is evicted, so
// the session's outcome never waits on a stuck receiver.

void SenderSessionDriver::maybe_start_catch_up() {
  if (!catchup_) {
    catchup_ = true;
    cu_tgs_.clear();
    for (std::size_t t = 0; t < groups_.size(); ++t) {
      if (t < cfg_.resume_completed.size() && cfg_.resume_completed[t])
        continue;
      for (std::size_t m = 0; m < group_.members().size(); ++m) {
        if (quarantined_[m] && !evicted_[m] && !expelled_[m] &&
            !delivered_[m][t]) {
          cu_tgs_.push_back(t);
          break;
        }
      }
    }
    cu_i_ = 0;
  }
  begin_catch_up_tg();
}

void SenderSessionDriver::begin_catch_up_tg() {
  if (stats_.crashed || cu_i_ >= cu_tgs_.size()) {
    finish_session();
    return;
  }
  if (deadline_.expired(clk_.now())) {
    stats_.report.deadline_expired = true;
    finish_session();
    return;
  }
  tg_ = cu_tgs_[cu_i_];
  encoder_.emplace(static_cast<std::uint32_t>(tg_), code_, groups_[tg_]);
  parities_used_ = parity_high_[tg_];
  acked_.assign(group_.members().size(), false);
  heard_.assign(group_.members().size(), false);
  cu_targets_.clear();
  for (std::size_t m = 0; m < group_.members().size(); ++m)
    if (quarantined_[m] && !evicted_[m] && !expelled_[m] &&
        !delivered_[m][tg_])
      cu_targets_.push_back(m);
  if (cu_targets_.empty()) {
    // Served (or evicted) since the work list was built: safe to journal.
    complete_current_tg();
    ++cu_i_;
    begin_catch_up_tg();
    return;
  }
  cu_round_ = 0;
  send_catch_up_poll();
}

void SenderSessionDriver::send_catch_up_poll() {
  fec::Packet poll;
  poll.header.type = fec::PacketType::kPoll;
  poll.header.tg = static_cast<std::uint32_t>(tg_);
  poll.header.k = static_cast<std::uint16_t>(cfg_.k);
  poll.header.seq = ++round_id_;
  if (!send_to_targets(poll)) {
    finish_session();
    return;
  }
  ++stats_.polls_sent;
  l_ = 0;
  round_naks_ = 0;
  std::fill(heard_.begin(), heard_.end(), false);
  arm_window_timer(std::min(cfg_.poll_window, deadline_.remaining(clk_.now())));
}

void SenderSessionDriver::after_catch_up_window() {
  refresh_expulsions();
  std::vector<std::size_t> remaining;
  for (const std::size_t m : cu_targets_)
    if (!evicted_[m] && !expelled_[m] && !delivered_[m][tg_])
      remaining.push_back(m);
  cu_targets_ = std::move(remaining);
  const auto close_tg = [&] {
    complete_current_tg();
    ++cu_i_;
    begin_catch_up_tg();
  };
  if (cu_targets_.empty()) {
    close_tg();
    return;
  }
  if (deadline_.expired(clk_.now())) {
    stats_.report.deadline_expired = true;
    finish_session();
    return;
  }
  const std::size_t budget_left = cfg_.h - parities_used_;
  if (cu_round_ >= cfg_.overload.catch_up_rounds || budget_left == 0) {
    // Budget spent: evict the stragglers via the liveness machinery so
    // the group outcome stops waiting on them, then close the TG.
    for (const std::size_t m : cu_targets_) {
      evicted_[m] = true;
      ++stats_.evictions;
    }
    cu_targets_.clear();
    close_tg();
    return;
  }
  // Serve at least one fresh parity per round even when the straggler's
  // NAK was lost — parity is the only repair currency here.
  std::size_t l = std::min(std::max<std::size_t>(l_, 1), budget_left);
  parities_used_ += l;
  parity_high_[tg_] = parities_used_;
  if (cfg_.on_parities_sent) cfg_.on_parities_sent(tg_, parities_used_);
  parity_base_ = parities_used_ - l;
  start_burst(BurstPhase::kCatchUpParity, l);
}

void SenderSessionDriver::finish_session() {
  if (finished_) return;
  refresh_expulsions();
  if (guard_) stats_.guard = guard_->stats();
  if (!stats_.crashed) {
    // A crashed sender never says goodbye — the receivers' phase-aware
    // idle clocks (or its own next incarnation) must end their runs.
    fec::Packet end;
    end.header.type = fec::PacketType::kPoll;
    end.header.tg = net::kUdpEndOfSession;
    send_mc(end);
  }
  if (!groups_.empty()) {
    stats_.tx_per_packet =
        static_cast<double>(stats_.data_sent + stats_.parity_sent) /
        (static_cast<double>(cfg_.k) * static_cast<double>(groups_.size()));
  }
  if (cfg_.reliable_control) {
    auto& rep = stats_.report;
    rep.delivered = delivered_;
    rep.evicted = evicted_;
    rep.evictions = stats_.evictions;
    rep.units_failed = stats_.tgs_exhausted + stats_.tgs_unconfirmed;
    rep.poll_retries = stats_.poll_retries;
    rep.shed_frames = stats_.shed_frames;
    rep.quarantined = stats_.members_quarantined;
    for (const bool e : expelled_) rep.expelled += e ? 1 : 0;
    // `complete` = every NON-expelled member delivered every unit, with
    // two exemptions: TGs a prior life confirmed (their rows are
    // vacuously incomplete this life), and members banished for hostile
    // behaviour (they forfeited the group's delivery obligation).
    rep.complete = !rep.deadline_expired && !rep.overloaded &&
                   rep.evictions == 0 && rep.units_failed == 0;
    if (rep.complete)
      for (std::size_t m = 0; m < rep.delivered.size(); ++m) {
        if (m < expelled_.size() && expelled_[m]) continue;
        const auto& row = rep.delivered[m];
        for (std::size_t i = 0; i < row.size(); ++i)
          if (!row[i] && !(i < cfg_.resume_completed.size() &&
                           cfg_.resume_completed[i]))
            rep.complete = false;
      }
  }
  disarm_timer();
  disarm_flush_timer();
  burst_phase_ = BurstPhase::kNone;
  if (fd_registered_) {
    reactor_.remove_fd(socket_.fd());
    fd_registered_ = false;
  }
  finished_ = true;
  if (on_finished_) on_finished_();  // may reschedule our destruction; last
}

// ---------------------------------------------------------------------------
// ReceiverSessionDriver
// ---------------------------------------------------------------------------

ReceiverSessionDriver::ReceiverSessionDriver(
    Reactor& reactor, net::UdpSocket socket, std::uint16_t sender_port,
    std::size_t num_tgs, const net::UdpNpConfig& config, Options options,
    std::function<void()> on_finished)
    : reactor_(reactor), socket_(std::move(socket)), sender_port_(sender_port),
      num_tgs_(num_tgs), cfg_(config), opt_(std::move(options)),
      code_(fec::RseCode::shared(config.k, config.k + config.h)),
      clk_(config.clock ? *config.clock : protocol::steady_clock()),
      on_finished_(std::move(on_finished)) {
  if (opt_.data_loss < 0.0 || opt_.data_loss >= 1.0)
    throw std::invalid_argument("ReceiverSessionDriver: data_loss in [0,1)");
  if (cfg_.reliable_control) cfg_.retry.validate();
  if (!opt_.resume_decoded.empty() && opt_.resume_decoded.size() != num_tgs_)
    throw std::invalid_argument(
        "ReceiverSessionDriver: resume_decoded size mismatch");
  if (!opt_.resume_confirmed.empty() &&
      opt_.resume_confirmed.size() != num_tgs_)
    throw std::invalid_argument(
        "ReceiverSessionDriver: resume_confirmed size mismatch");
  if (opt_.impairment.enabled() || opt_.impairment.control_enabled()) {
    impairment_ = std::make_shared<net::Impairment>(opt_.impairment);
    socket_.set_impairment(impairment_);
  }

  decoders_.reserve(num_tgs_);
  for (std::uint32_t i = 0; i < num_tgs_; ++i)
    decoders_.emplace_back(i, code_, cfg_.packet_len);
  done_.assign(num_tgs_, false);
  prior_.assign(num_tgs_, false);
  confirmed_.assign(num_tgs_, false);
  // prior_ is the UNION of what this member decoded and what the sender
  // journal confirmed: the union protects against a lost receiver state
  // file (a confirmed TG still counts as delivered — its confirmation
  // proves a prior life ACKed it, which proves it decoded).
  for (std::size_t i = 0; i < opt_.resume_decoded.size(); ++i)
    if (opt_.resume_decoded[i]) prior_[i] = true;
  for (std::size_t i = 0; i < opt_.resume_confirmed.size(); ++i)
    if (opt_.resume_confirmed[i]) prior_[i] = confirmed_[i] = true;
  for (std::size_t i = 0; i < num_tgs_; ++i) {
    if (!prior_[i]) continue;
    done_[i] = true;  // decoded in a prior life counts toward completion
    ++done_count_;
  }
  nak_backoffs_.resize(num_tgs_);
  supp_rng_ = opt_.rng.split(0x510F);
  known_inc_ = static_cast<std::uint8_t>(
      std::max(cfg_.incarnation, opt_.resume_incarnation));
  if (cfg_.guard.auth) {
    // Feedback we send is tagged under OUR member key (the sender
    // verifies it per-source); control we accept must carry the shared
    // group key (one tag per POLL preserves the multicast fan-out).
    member_key_ = net::derive_member_key(cfg_.guard.auth_key, socket_.port());
    group_key_ = net::derive_group_key(cfg_.guard.auth_key);
  }
}

ReceiverSessionDriver::~ReceiverSessionDriver() {
  if (timer_armed_) reactor_.cancel_timer(wake_timer_);
  if (fd_registered_) reactor_.remove_fd(socket_.fd());
}

void ReceiverSessionDriver::start() {
  if (started_) return;
  started_ = true;
  last_rx_ = clk_.now();
  result_.end_reason = net::UdpNpEndReason::kMidSessionSilence;
  reactor_.add_fd(socket_.fd(), [this] { on_readable(); });
  fd_registered_ = true;
  reschedule(idle_deadline());
}

void ReceiverSessionDriver::stop() {
  if (finished_) return;
  auto notify = std::move(on_finished_);
  on_finished_ = nullptr;  // drain stop: the caller does its own bookkeeping
  finish(done_count_ == num_tgs_ ? net::UdpNpEndReason::kDrainTimeout
                                 : net::UdpNpEndReason::kMidSessionSilence);
  on_finished_ = std::move(notify);
}

double ReceiverSessionDriver::idle_deadline() const {
  const double budget =
      done_count_ == num_tgs_ ? cfg_.drain_timeout : opt_.idle_timeout;
  return last_rx_ + budget;
}

std::vector<bool> ReceiverSessionDriver::decoded_bitmap() const {
  return done_;
}

void ReceiverSessionDriver::reschedule(double next_due) {
  if (cfg_.reliable_control && nak_pending_)
    next_due = std::min(next_due, nak_retry_at_);
  // An armed-too-early timer merely wakes us spuriously (on_wake rechecks
  // and re-arms), so only replace it when it would fire too LATE.
  if (timer_armed_ && armed_at_ <= next_due) return;
  if (timer_armed_) reactor_.cancel_timer(wake_timer_);
  armed_at_ = next_due;
  wake_timer_ = reactor_.add_timer(next_due, [this] {
    timer_armed_ = false;
    on_wake();
  });
  timer_armed_ = true;
}

void ReceiverSessionDriver::send_feedback(std::uint32_t tg, std::size_t count,
                                          std::uint32_t seq) {
  fec::Packet fb;
  fb.header.type = fec::PacketType::kNak;
  fb.header.tg = tg;
  fb.header.count = static_cast<std::uint16_t>(count);
  fb.header.seq = seq;
  fb.header.incarnation = known_inc_;
  // The port rides in the header for the sender's liveness tracking;
  // the kernel-reported source address must corroborate it (the guard —
  // and the always-on driver cross-check — reject mismatches).
  if (cfg_.reliable_control) fb.header.index = socket_.port();
  // Every send gets a FRESH feedback sequence, so honest retransmissions
  // of the same NAK pass the sender's replay window while a verbatim
  // capture-and-replay of old bytes does not.
  if (cfg_.guard.auth) net::append_auth_trailer(fb, member_key_, fbseq_++);
  socket_.send_to(sender_port_, fb);
}

void ReceiverSessionDriver::on_readable() {
  if (finished_) return;
  socket_.drain([this](std::uint16_t src_port, const fec::PacketView& packet) {
    // Guarded receivers only listen to their sender: a peer injecting
    // frames directly at members (fake end markers, garbage repair) is
    // rejected on source address before any header field is believed.
    if (cfg_.guard.enabled && src_port != sender_port_)
      ++result_.foreign_rejected;
    else
      handle_packet(packet);
    return !finished_;
  });
  if (!finished_) reschedule(idle_deadline());
}

void ReceiverSessionDriver::on_wake() {
  if (finished_) return;
  const double now = clk_.now();
  if (cfg_.reliable_control && nak_pending_ && now >= nak_retry_at_) {
    // The NAK (or its repair) may have been lost: retransmit under this
    // TG's backoff until served or the budget runs out.
    const std::size_t need = prior_[nak_tg_] ? 0 : decoders_[nak_tg_].needed();
    auto& bo = nak_backoffs_[nak_tg_];
    if (need == 0 || !bo || bo->exhausted()) {
      nak_pending_ = false;
      nak_first_ = false;
    } else if (nak_first_) {
      // The suppression slot elapsed with no repair covering us: this IS
      // the first send of the NAK, not a retransmission.
      nak_first_ = false;
      ++result_.naks_sent;
      send_feedback(nak_tg_, need, nak_round_);
      nak_retry_at_ = clk_.now() + cfg_.poll_window + bo->next();
    } else {
      ++result_.nak_retries;
      ++result_.naks_sent;
      send_feedback(nak_tg_, need, nak_round_);
      nak_retry_at_ = clk_.now() + cfg_.poll_window + bo->next();
    }
  }
  if (clk_.now() >= idle_deadline()) {
    finish(done_count_ == num_tgs_ ? net::UdpNpEndReason::kDrainTimeout
                                   : net::UdpNpEndReason::kMidSessionSilence);
    return;
  }
  reschedule(idle_deadline());
}

void ReceiverSessionDriver::accept_block_packet(
    const fec::PacketView& packet) {
  const auto& hdr = packet.header;
  if (hdr.k != cfg_.k || hdr.n != cfg_.k + cfg_.h ||
      hdr.index >= cfg_.k + cfg_.h || packet.payload.size() != cfg_.packet_len) {
    ++result_.rejected;  // foreign block shape: cannot be ours
    return;
  }
  if (opt_.data_loss > 0.0 && opt_.rng.bernoulli(opt_.data_loss)) {
    ++result_.dropped;
    return;
  }
  ++result_.received;
  auto& dec = decoders_[hdr.tg];
  if (!dec.add(packet)) {
    ++result_.duplicates;
    return;
  }
  if (dec.decodable() && !done_[hdr.tg]) {
    dec.decode();
    result_.decoded += dec.decoded_packets();
    done_[hdr.tg] = true;
    ++done_count_;
    // Eager end-to-end verification: the server discards decoded bytes
    // (holding 1000 sessions' payloads would defeat the point), so the
    // integrity check reads the TG's slab the moment it decodes, and
    // the slab is freed right after.
    if (opt_.expected && !decoded_matches(dec, cfg_.k, (*opt_.expected)[hdr.tg]))
      ++payload_mismatches_;
    dec.release();
  }
}

void ReceiverSessionDriver::handle_packet(const fec::PacketView& packet) {
  const auto& hdr = packet.header;
  // Authenticated control comes before EVERYTHING: an unverified POLL —
  // including a forged or replayed end marker — must not advance
  // known_inc_, refresh the idle clock, or end the session.  (DATA and
  // PARITY ride the zero-copy arena path untagged; their integrity is
  // covered end-to-end by the eager payload verification instead.)
  if (cfg_.guard.auth && hdr.type == fec::PacketType::kPoll &&
      !net::verify_auth_trailer(packet, group_key_)) {
    ++result_.auth_rejected;
    return;
  }
  // Stale-incarnation filtering comes next: a dead sender's straggler
  // must neither end the session (its end marker), repair anything, nor
  // count as liveness for the idle clock.
  if (hdr.incarnation < known_inc_) {
    ++result_.stale_rejected;
    return;
  }
  known_inc_ = hdr.incarnation;
  last_rx_ = clk_.now();
  if (hdr.type == fec::PacketType::kPoll && hdr.tg == net::kUdpEndOfSession) {
    finish(net::UdpNpEndReason::kEndOfSession);
    return;
  }
  if (hdr.tg >= num_tgs_) return;  // foreign traffic

  switch (hdr.type) {
    case fec::PacketType::kData:
    case fec::PacketType::kParity:
      if (prior_[hdr.tg]) {
        // Exactly-once audit: a journal-confirmed TG must never be
        // re-multicast by the resumed sender.  A decoded-but-unconfirmed
        // TG legitimately is (the ACK never reached the journal) — that
        // is just a duplicate to suppress.
        if (confirmed_[hdr.tg])
          ++redelivered_prior_;
        else
          ++result_.duplicates;
        return;
      }
      // Repair traffic for the NAKed TG: the request was heard.  A NAK
      // still sitting in its suppression slot is cancelled outright —
      // another member's request covered ours (Section 5.1 damping).
      if (nak_pending_ && hdr.tg == nak_tg_) {
        if (nak_first_) {
          ++result_.naks_suppressed;
          nak_first_ = false;
        }
        nak_pending_ = false;
      }
      accept_block_packet(packet);
      if (done_count_ >= cfg_.crash_after_tgs) {
        finish(net::UdpNpEndReason::kCrashed);
        return;
      }
      break;
    case fec::PacketType::kPoll: {
      const std::size_t l = prior_[hdr.tg] ? 0 : decoders_[hdr.tg].needed();
      if (l == 0) {
        if (cfg_.reliable_control) {
          // Reliable mode answers every POLL; silence is for the dead.
          send_feedback(hdr.tg, 0, hdr.seq);
          ++result_.acks_sent;
        }
        break;
      }
      if (cfg_.overload.nak_suppression && cfg_.reliable_control) {
        // Runtime slotting (Section 5.1): instead of answering the POLL
        // instantly, draw a seeded slot delay keyed to how much we need
        // — the needier answer sooner — and send only if no repair for
        // this TG lands first.  The trailing reschedule() in
        // on_readable folds nak_retry_at_ into the wake timer.
        auto& bo = nak_backoffs_[hdr.tg];
        if (!bo)
          bo = std::make_unique<Backoff>(cfg_.retry,
                                         opt_.rng.split(0x7000 + hdr.tg));
        const double slot =
            cfg_.overload.nak_slot > 0.0
                ? cfg_.overload.nak_slot
                : cfg_.poll_window / static_cast<double>(cfg_.k + 1);
        nak_pending_ = true;
        nak_first_ = true;
        nak_tg_ = hdr.tg;
        nak_round_ = hdr.seq;
        nak_retry_at_ =
            clk_.now() + protocol::nak_backoff(cfg_.k, l, slot, supp_rng_);
        break;
      }
      send_feedback(hdr.tg, l, hdr.seq);
      ++result_.naks_sent;
      if (cfg_.reliable_control) {
        auto& bo = nak_backoffs_[hdr.tg];
        if (!bo)
          bo = std::make_unique<Backoff>(cfg_.retry,
                                         opt_.rng.split(0x7000 + hdr.tg));
        nak_pending_ = true;
        nak_tg_ = hdr.tg;
        nak_round_ = hdr.seq;
        nak_retry_at_ = clk_.now() + cfg_.poll_window +
                        (bo->exhausted() ? cfg_.poll_window : bo->next());
      }
      break;
    }
    case fec::PacketType::kNak:
      break;  // unicast topology: receivers do not overhear NAKs
  }
}

void ReceiverSessionDriver::finish(net::UdpNpEndReason reason) {
  if (finished_) return;
  result_.end_reason = reason;

  // Datagrams still held back by the reorder queue are "in flight" when
  // the session ends; flush them so a late shard can still complete a TG.
  if (impairment_) {
    for (const auto& bytes : impairment_->drain()) {
      try {
        const fec::PacketView packet = fec::deserialize_view(bytes);
        if (packet.header.incarnation < known_inc_) {
          ++result_.stale_rejected;
          continue;
        }
        if ((packet.header.type == fec::PacketType::kData ||
             packet.header.type == fec::PacketType::kParity) &&
            packet.header.tg < num_tgs_) {
          if (prior_[packet.header.tg]) {
            if (confirmed_[packet.header.tg])
              ++redelivered_prior_;
            else
              ++result_.duplicates;
            continue;
          }
          accept_block_packet(packet);
        }
      } catch (const std::invalid_argument&) {
        // damaged in flight: loss
      }
    }
    result_.impairment = impairment_->stats();
  }

  // The driver does NOT materialise the reconstructed groups in the
  // result — at server scale that is the whole payload of every session
  // held live.  Integrity is audited eagerly against Options::expected
  // instead.
  result_.complete = done_count_ == num_tgs_;

  if (timer_armed_) {
    reactor_.cancel_timer(wake_timer_);
    timer_armed_ = false;
  }
  if (fd_registered_) {
    reactor_.remove_fd(socket_.fd());
    fd_registered_ = false;
  }
  finished_ = true;
  if (on_finished_) on_finished_();  // may reschedule our destruction; last
}

}  // namespace pbl::server
