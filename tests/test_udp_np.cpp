// Loopback sessions of protocol NP over UDP: the server's session
// drivers on one reactor, real sockets, real codec, injected loss, and
// every decoded TG verified against the payload the moment it decodes.
// Every session suite is parameterized over the {batched, fallback} UDP
// data planes — identical protocol outcomes are required on both (the
// byte-level equivalence proof lives in test_udp_differential.cpp).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/file_transfer.hpp"
#include "core/session_state.hpp"
#include "np_session.hpp"
#include "test_paths.hpp"
#include "util/rng.hpp"

namespace pbl::net {
namespace {

using np_session::member_options;
using np_session::random_groups;
using server::ReceiverSessionDriver;
using server::SenderSessionDriver;

UdpNpConfig small_config() {
  UdpNpConfig cfg;
  cfg.k = 6;
  cfg.h = 40;
  cfg.packet_len = 128;
  cfg.poll_window = 0.03;
  return cfg;
}

class UdpNp : public ::testing::TestWithParam<UdpBackend> {
 protected:
  ScopedUdpBackendOverride backend_{GetParam()};
};
using UdpNpReliable = UdpNp;
using UdpNpCrash = UdpNp;

std::string backend_name(const ::testing::TestParamInfo<UdpBackend>& info) {
  return to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(Backends, UdpNp,
                         ::testing::Values(UdpBackend::kBatched,
                                           UdpBackend::kFallback),
                         backend_name);
INSTANTIATE_TEST_SUITE_P(Backends, UdpNpReliable,
                         ::testing::Values(UdpBackend::kBatched,
                                           UdpBackend::kFallback),
                         backend_name);
INSTANTIATE_TEST_SUITE_P(Backends, UdpNpCrash,
                         ::testing::Values(UdpBackend::kBatched,
                                           UdpBackend::kFallback),
                         backend_name);

struct Outcome {
  UdpNpSenderStats sender;
  std::vector<UdpNpReceiverResult> receivers;
  std::uint64_t payload_mismatches = 0;
};

Outcome run_session(const std::vector<TgBytes>& groups, std::size_t receivers,
                    const UdpNpConfig& cfg, double inject_loss,
                    const ImpairmentConfig& impairment = {}) {
  np_session::Session session(receivers);
  for (std::size_t r = 0; r < receivers; ++r) {
    auto opt = member_options(r, &groups, inject_loss);
    opt.impairment = impairment;
    if (impairment.enabled() || impairment.control_enabled())
      opt.impairment.seed += r;  // independent per-receiver streams
    session.add_receiver(r, groups.size(), cfg, std::move(opt));
  }
  session.add_sender(cfg, groups);
  EXPECT_TRUE(session.run()) << "watchdog fired";
  return {session.sender().stats(), session.results(),
          session.payload_mismatches()};
}

TEST_P(UdpNp, ValidatesConfiguration) {
  server::Reactor reactor;
  UdpNpConfig cfg = small_config();
  cfg.k = 200;
  cfg.h = 100;
  const auto groups = random_groups(1, cfg.k, cfg.packet_len, 1);
  UdpGroup group;
  group.add_member(1);
  EXPECT_THROW(SenderSessionDriver(reactor, UdpSocket(), group, cfg, groups,
                                   nullptr),
               std::invalid_argument);
  ReceiverSessionDriver::Options opt;
  opt.data_loss = 1.5;
  EXPECT_THROW(ReceiverSessionDriver(reactor, UdpSocket(), 1, 1,
                                     small_config(), opt, nullptr),
               std::invalid_argument);
}

TEST_P(UdpNp, LosslessTransferIsExactlyK) {
  const auto groups = random_groups(3, 6, 128, 1);
  const auto session = run_session(groups, 3, small_config(), 0.0);
  EXPECT_EQ(session.sender.data_sent, 18u);
  EXPECT_EQ(session.sender.parity_sent, 0u);
  EXPECT_DOUBLE_EQ(session.sender.tx_per_packet, 1.0);
  EXPECT_EQ(session.payload_mismatches, 0u);
  for (const auto& r : session.receivers) {
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(r.naks_sent, 0u);
  }
}

TEST_P(UdpNp, RecoversFromInjectedLoss) {
  const auto groups = random_groups(4, 6, 128, 2);
  const auto session = run_session(groups, 4, small_config(), 0.2);
  EXPECT_GT(session.sender.parity_sent, 0u);
  EXPECT_GT(session.sender.naks_received, 0u);
  EXPECT_EQ(session.payload_mismatches, 0u);  // bit-exact reconstruction
  for (const auto& r : session.receivers) {
    ASSERT_TRUE(r.complete);
    EXPECT_GT(r.dropped, 0u);
  }
}

TEST_P(UdpNp, HeavyLossStillDelivers) {
  const auto groups = random_groups(2, 6, 64, 3);
  UdpNpConfig cfg = small_config();
  cfg.packet_len = 64;
  const auto session = run_session(groups, 2, cfg, 0.45);
  EXPECT_EQ(session.payload_mismatches, 0u);
  for (const auto& r : session.receivers) EXPECT_TRUE(r.complete);
}

TEST_P(UdpNp, FileTransferEndToEnd) {
  // segment_blob -> UDP multicast -> every receiver decodes every TG
  // byte-exact, so each one reassembles the blob.
  Rng rng(4);
  std::vector<std::uint8_t> blob(3000);
  for (auto& b : blob) b = static_cast<std::uint8_t>(rng());

  UdpNpConfig cfg = small_config();
  const auto groups64 = core::segment_blob(blob, cfg.k, cfg.packet_len);
  ASSERT_EQ(core::reassemble_blob(groups64), blob);
  const std::vector<TgBytes> groups(groups64.begin(), groups64.end());

  const auto session = run_session(groups, 3, cfg, 0.15);
  EXPECT_EQ(session.payload_mismatches, 0u);
  for (const auto& r : session.receivers) ASSERT_TRUE(r.complete);
}

TEST_P(UdpNp, ReceiverRejectsBadImpairmentConfig) {
  server::Reactor reactor;
  ReceiverSessionDriver::Options opt;
  opt.impairment.drop_prob = 1.5;
  EXPECT_THROW(ReceiverSessionDriver(reactor, UdpSocket(), 1, 1,
                                     small_config(), opt, nullptr),
               std::invalid_argument);
}

TEST_P(UdpNp, DuplicationImpairedSessionCompletesExactlyOnce) {
  // Duplication is the one fault that can hit control traffic harmlessly
  // (a duplicated POLL re-answers the same seq; the sender takes the max),
  // so completeness is still guaranteed and we can assert it.
  const auto groups = random_groups(3, 6, 128, 5);
  ImpairmentConfig imp;
  imp.seed = 101;
  imp.dup_prob = 0.3;
  const auto session = run_session(groups, 3, small_config(), 0.0, imp);
  EXPECT_EQ(session.payload_mismatches, 0u);  // duplicates absorbed
  for (const auto& r : session.receivers) {
    ASSERT_TRUE(r.complete);
    EXPECT_GT(r.impairment.duplicated, 0u);
    EXPECT_GT(r.duplicates, 0u);  // the decoder saw and dropped the copies
  }
}

TEST_P(UdpNp, AdversarialImpairmentTerminatesAndStaysExact) {
  // Corruption/reordering on a real socket also hits POLLs, which the
  // protocol knowingly cannot always survive (the lossy-control
  // limitation), so completion is not guaranteed here — but the session
  // must terminate, every fault must be counted, and whatever WAS
  // reconstructed must be bit-exact.
  const auto groups = random_groups(3, 6, 128, 6);
  ImpairmentConfig imp;
  imp.seed = 202;
  imp.dup_prob = 0.1;
  imp.corrupt_prob = 0.1;
  imp.truncate_prob = 0.05;
  imp.reorder_prob = 0.2;
  imp.reorder_window = 3;
  const auto session = run_session(groups, 3, small_config(), 0.0, imp);
  EXPECT_EQ(session.payload_mismatches, 0u);
  for (const auto& r : session.receivers) {
    EXPECT_GT(r.impairment.processed, 0u);
    EXPECT_GT(r.impairment.corrupted + r.impairment.truncated +
                  r.impairment.reordered + r.impairment.duplicated,
              0u);
  }
}

TEST_P(UdpNp, SenderRejectsWrongGroupShape) {
  server::Reactor reactor;
  UdpSocket rx;
  UdpGroup group;
  group.add_member(rx.port());
  const std::vector<TgBytes> bad{TgBytes(3, std::vector<std::uint8_t>(128))};
  EXPECT_THROW(SenderSessionDriver(reactor, UdpSocket(), group,
                                   small_config(), bad, nullptr),
               std::invalid_argument);
}

// --- Reliable control plane over real sockets ------------------------

std::uint64_t chaos_seed(std::uint64_t base) {
  if (const char* env = std::getenv("PBL_CHAOS_SEED"))
    return base + std::strtoull(env, nullptr, 10);
  return base;
}

UdpNpConfig reliable_config() {
  UdpNpConfig cfg = small_config();
  cfg.reliable_control = true;
  cfg.seed = chaos_seed(301);
  // Sized for control-loss rates up to ~0.2 (docs/ROBUSTNESS.md).
  cfg.retry.grace_rounds = 20;
  cfg.retry.max_retries = 16;
  return cfg;
}

TEST_P(UdpNpReliable, CleanSessionConfirmsEveryTgPositively) {
  const auto groups = random_groups(3, 6, 128, 7);
  const auto session = run_session(groups, 3, reliable_config(), 0.0);
  EXPECT_TRUE(session.sender.report.complete)
      << session.sender.report.summary();
  EXPECT_GE(session.sender.acks_received, 3u * 3u);
  EXPECT_EQ(session.sender.evictions, 0u);
  EXPECT_EQ(session.payload_mismatches, 0u);
  for (const auto& r : session.receivers) {
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(r.end_reason, UdpNpEndReason::kEndOfSession);
    EXPECT_GT(r.acks_sent, 0u);
  }
}

TEST_P(UdpNpReliable, SurvivesControlLossExactlyOnce) {
  // POLLs are dropped on the receivers' control path while data also
  // suffers injected loss: the retry layer must still deliver every TG
  // to every receiver exactly once, with no evictions.
  const auto groups = random_groups(3, 6, 128, 8);
  ImpairmentConfig imp;
  imp.seed = chaos_seed(404);
  imp.control_drop = 0.2;
  const auto session = run_session(groups, 3, reliable_config(), 0.1, imp);
  EXPECT_TRUE(session.sender.report.complete)
      << session.sender.report.summary();
  EXPECT_EQ(session.sender.evictions, 0u);
  EXPECT_EQ(session.payload_mismatches, 0u);  // bit-exact, exactly once
  std::uint64_t control_dropped = 0;
  for (const auto& r : session.receivers) {
    ASSERT_TRUE(r.complete);
    control_dropped += r.impairment.control_dropped;
  }
  EXPECT_GT(control_dropped, 0u);
}

TEST_P(UdpNpReliable, CrashedReceiverIsEvictedOthersComplete) {
  const auto groups = random_groups(2, 6, 64, 9);
  UdpNpConfig cfg = reliable_config();
  cfg.packet_len = 64;
  cfg.retry.grace_rounds = 3;  // evict fast; the peer is really gone
  cfg.retry.max_retries = 6;
  UdpNpConfig crash_cfg = cfg;
  crash_cfg.crash_after_tgs = 1;  // dies after the first TG

  np_session::Session session(2);
  const auto& live = session.add_receiver(0, groups.size(), cfg,
                                          member_options(0, &groups));
  const auto& crashed = session.add_receiver(1, groups.size(), crash_cfg,
                                             member_options(1, &groups));
  session.add_sender(cfg, groups);
  ASSERT_TRUE(session.run()) << "watchdog fired";
  const auto& stats = session.sender().stats();

  EXPECT_EQ(crashed.result().end_reason, UdpNpEndReason::kCrashed);
  EXPECT_EQ(stats.evictions, 1u);
  ASSERT_EQ(stats.report.evicted.size(), 2u);
  EXPECT_TRUE(stats.report.evicted[1]);
  EXPECT_FALSE(stats.report.complete);     // eviction = degraded exit
  EXPECT_TRUE(live.result().complete);     // the live member got everything
  EXPECT_EQ(live.payload_mismatches(), 0u);
  EXPECT_GT(stats.poll_retries, 0u);  // silence forced re-POLLs first
}

TEST_P(UdpNpReliable, EndReasonDistinguishesDrainFromStall) {
  // No sender at all.  A receiver that already holds every TG (zero of
  // them) is just draining for the end marker: it must report
  // kDrainTimeout after drain_timeout, not the mid-session idle timeout.
  UdpNpConfig cfg = small_config();
  cfg.drain_timeout = 0.1;
  np_session::Session drain_session(1);
  const auto& drained = drain_session.add_receiver(
      0, 0, cfg, member_options(0, nullptr, 0.0, /*idle_timeout=*/5.0));
  ASSERT_TRUE(drain_session.run());
  EXPECT_EQ(drained.result().end_reason, UdpNpEndReason::kDrainTimeout);

  // A receiver still missing TGs whose sender goes silent is a stall.
  np_session::Session stall_session(1);
  const auto& stalled = stall_session.add_receiver(
      0, 2, cfg, member_options(0, nullptr, 0.0, /*idle_timeout=*/0.1));
  ASSERT_TRUE(stall_session.run());
  EXPECT_EQ(stalled.result().end_reason, UdpNpEndReason::kMidSessionSilence);
  EXPECT_FALSE(stalled.result().complete);
}

// --- Crash-tolerant sessions over real sockets -----------------------

TEST_P(UdpNpCrash, SenderRestartResumesFromJournalAcrossLiveReceiver) {
  // One receiver driver runs across TWO sender lives.  Life 1 journals
  // its progress through core::SessionJournal and dies after 10
  // datagrams; its driver is destroyed, and life 2 reopens the journal
  // on the SAME port, bumps the incarnation, skips the journaled TGs and
  // finishes the transfer.
  const std::string journal = unique_test_path("session.log");
  std::remove(journal.c_str());

  UdpNpConfig cfg = small_config();
  const auto groups = random_groups(3, cfg.k, cfg.packet_len, 11);

  core::SenderSessionState fresh;
  fresh.session_id = 0xF00D;
  fresh.k = static_cast<std::uint32_t>(cfg.k);
  fresh.h = static_cast<std::uint32_t>(cfg.h);
  fresh.packet_len = static_cast<std::uint32_t>(cfg.packet_len);
  fresh.num_tgs = static_cast<std::uint32_t>(groups.size());

  np_session::Session session(1);
  const auto& receiver = session.add_receiver(
      0, groups.size(), cfg,
      member_options(0, &groups, 0.0, /*idle_timeout=*/10.0));

  UdpNpSenderStats life1;
  {
    core::SessionJournal sj(journal, fresh);
    UdpNpConfig c1 = cfg;
    c1.incarnation = sj.state().incarnation;
    c1.crash_after_sends = 10;  // dies inside TG 1, after TG 0 completed
    c1.on_tg_completed = [&sj](std::size_t tg) { sj.record_tg_completed(tg); };
    c1.on_parities_sent = [&sj](std::size_t tg, std::size_t hw) {
      sj.record_parities_sent(tg, hw);
    };
    auto& sender = session.add_sender(c1, groups);
    ASSERT_TRUE(session.run_until([&] { return sender.finished(); }));
    life1 = sender.stats();
    session.end_sender_life();  // the dead life's socket closes
  }
  EXPECT_TRUE(life1.crashed);
  EXPECT_LT(life1.data_sent, cfg.k * groups.size());
  EXPECT_FALSE(receiver.finished());  // the receiver outlives the sender

  core::SessionJournal sj(journal, fresh);
  EXPECT_TRUE(sj.resumed());
  EXPECT_EQ(sj.state().incarnation, 1u);
  EXPECT_FALSE(sj.state().all_complete());
  UdpNpConfig c2 = cfg;
  c2.incarnation = sj.state().incarnation;
  c2.resume_completed = sj.state().completed;
  c2.resume_parities = sj.state().parities_sent;
  c2.on_tg_completed = [&sj](std::size_t tg) { sj.record_tg_completed(tg); };
  c2.on_parities_sent = [&sj](std::size_t tg, std::size_t hw) {
    sj.record_parities_sent(tg, hw);
  };
  session.add_sender(c2, groups);
  ASSERT_TRUE(session.run()) << "watchdog fired";
  const auto life2 = session.sender().stats();
  session.end_sender_life();
  std::remove(journal.c_str());

  EXPECT_FALSE(life2.crashed);
  EXPECT_GE(life2.tgs_skipped, 1u);  // journaled completions never resent
  EXPECT_TRUE(sj.state().all_complete());
  // Across both lives the receiver delivered everything exactly once.
  EXPECT_TRUE(receiver.result().complete);
  EXPECT_EQ(receiver.payload_mismatches(), 0u);
  EXPECT_EQ(receiver.result().end_reason, UdpNpEndReason::kEndOfSession);
}

TEST_P(UdpNpCrash, StaleIncarnationDatagramsAreRejected) {
  // A receiver that has already heard incarnation 1 must drop everything
  // a sender stamped with incarnation 0 — including its end-of-session
  // marker, which must NOT end the run as a clean session.
  UdpNpConfig cfg = small_config();
  const auto groups = random_groups(2, cfg.k, cfg.packet_len, 12);

  UdpNpConfig rx_cfg = cfg;
  rx_cfg.incarnation = 1;  // the receiver's world has moved on
  rx_cfg.drain_timeout = 0.2;
  UdpNpConfig tx_cfg = cfg;
  tx_cfg.incarnation = 0;  // a dead life still talking

  np_session::Session session(1);
  const auto& receiver = session.add_receiver(
      0, groups.size(), rx_cfg,
      member_options(0, &groups, 0.0, /*idle_timeout=*/0.5));
  session.add_sender(tx_cfg, groups);
  ASSERT_TRUE(session.run()) << "watchdog fired";
  const auto& stats = session.sender().stats();
  const auto& result = receiver.result();

  EXPECT_GT(stats.data_sent, 0u);
  EXPECT_GT(result.stale_rejected, 0u);
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.received, 0u);
  EXPECT_EQ(result.end_reason, UdpNpEndReason::kMidSessionSilence);
}

}  // namespace
}  // namespace pbl::net
