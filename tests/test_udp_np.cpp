// Threaded loopback sessions of the UDP protocol-NP implementation:
// real sockets, real codec, injected loss, end-to-end byte verification.
// Every session suite is parameterized over the {batched, fallback} UDP
// data planes — identical protocol outcomes are required on both (the
// byte-level equivalence proof lives in test_udp_differential.cpp).
#include "net/udp/udp_np.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "core/file_transfer.hpp"
#include "core/session_state.hpp"
#include "test_paths.hpp"
#include "util/rng.hpp"

namespace pbl::net {
namespace {

std::vector<TgBytes> random_groups(std::size_t tgs, std::size_t k,
                                   std::size_t len, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TgBytes> groups(tgs);
  for (auto& tg : groups) {
    tg.resize(k);
    for (auto& pkt : tg) {
      pkt.resize(len);
      for (auto& b : pkt) b = static_cast<std::uint8_t>(rng());
    }
  }
  return groups;
}

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

struct Session {
  UdpNpSenderStats sender;
  std::vector<UdpNpReceiverResult> receivers;
};

Session run_session(const std::vector<TgBytes>& groups, std::size_t receivers,
                    const UdpNpConfig& cfg, double inject_loss,
                    const ImpairmentConfig& impairment = {}) {
  UdpSocket sender_socket;
  const std::uint16_t sender_port = sender_socket.port();

  std::vector<UdpSocket> rx_sockets;
  UdpGroup group;
  for (std::size_t r = 0; r < receivers; ++r) {
    rx_sockets.emplace_back();
    group.add_member(rx_sockets.back().port());
  }

  Session session;
  session.receivers.resize(receivers);
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < receivers; ++r) {
    threads.emplace_back([&, r, sock = std::move(rx_sockets[r])]() mutable {
      ImpairmentConfig imp = impairment;
      if (imp.enabled() || imp.control_enabled())
        imp.seed += r;  // independent per-receiver streams
      UdpNpReceiver receiver(std::move(sock), sender_port, groups.size(), cfg,
                             inject_loss, Rng(99).split(r), imp);
      session.receivers[r] = receiver.run(5.0);
    });
  }

  UdpNpSender sender(std::move(sender_socket), group, cfg);
  session.sender = sender.transfer(groups);
  for (auto& t : threads) t.join();
  return session;
}

TEST_P(UdpNp, ValidatesConfiguration) {
  UdpNpConfig cfg = small_config();
  cfg.k = 200;
  cfg.h = 100;
  EXPECT_THROW(UdpNpSender(UdpSocket(), UdpGroup(), cfg),
               std::invalid_argument);
  EXPECT_THROW(UdpNpReceiver(UdpSocket(), 1, 1, small_config(), 1.5),
               std::invalid_argument);
}

TEST_P(UdpNp, LosslessTransferIsExactlyK) {
  const auto groups = random_groups(3, 6, 128, 1);
  const auto session = run_session(groups, 3, small_config(), 0.0);
  EXPECT_EQ(session.sender.data_sent, 18u);
  EXPECT_EQ(session.sender.parity_sent, 0u);
  EXPECT_DOUBLE_EQ(session.sender.tx_per_packet, 1.0);
  for (const auto& r : session.receivers) {
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(r.groups, groups);
    EXPECT_EQ(r.naks_sent, 0u);
  }
}

TEST_P(UdpNp, RecoversFromInjectedLoss) {
  const auto groups = random_groups(4, 6, 128, 2);
  const auto session = run_session(groups, 4, small_config(), 0.2);
  EXPECT_GT(session.sender.parity_sent, 0u);
  EXPECT_GT(session.sender.naks_received, 0u);
  for (const auto& r : session.receivers) {
    ASSERT_TRUE(r.complete);
    EXPECT_EQ(r.groups, groups);  // bit-exact reconstruction
    EXPECT_GT(r.dropped, 0u);
  }
}

TEST_P(UdpNp, HeavyLossStillDelivers) {
  const auto groups = random_groups(2, 6, 64, 3);
  UdpNpConfig cfg = small_config();
  cfg.packet_len = 64;
  const auto session = run_session(groups, 2, cfg, 0.45);
  for (const auto& r : session.receivers) {
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(r.groups, groups);
  }
}

TEST_P(UdpNp, FileTransferEndToEnd) {
  // segment_blob -> UDP multicast -> reassemble_blob at each receiver.
  Rng rng(4);
  std::vector<std::uint8_t> blob(3000);
  for (auto& b : blob) b = static_cast<std::uint8_t>(rng());

  UdpNpConfig cfg = small_config();
  const auto groups64 = core::segment_blob(blob, cfg.k, cfg.packet_len);
  std::vector<TgBytes> groups(groups64.begin(), groups64.end());

  const auto session = run_session(groups, 3, cfg, 0.15);
  for (const auto& r : session.receivers) {
    ASSERT_TRUE(r.complete);
    std::vector<core::TgData> got(r.groups.begin(), r.groups.end());
    EXPECT_EQ(core::reassemble_blob(got), blob);
  }
}

TEST_P(UdpNp, ReceiverRejectsBadImpairmentConfig) {
  ImpairmentConfig imp;
  imp.drop_prob = 1.5;
  EXPECT_THROW(
      UdpNpReceiver(UdpSocket(), 1, 1, small_config(), 0.0, Rng(1), imp),
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
  for (const auto& r : session.receivers) {
    ASSERT_TRUE(r.complete);
    EXPECT_EQ(r.groups, groups);  // duplicates absorbed, bytes exact
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
  for (const auto& r : session.receivers) {
    EXPECT_GT(r.impairment.processed, 0u);
    EXPECT_GT(r.impairment.corrupted + r.impairment.truncated +
                  r.impairment.reordered + r.impairment.duplicated,
              0u);
    ASSERT_EQ(r.groups.size(), groups.size());
    for (std::size_t i = 0; i < groups.size(); ++i) {
      if (!r.groups[i].empty()) {  // reconstructed: must match exactly
        EXPECT_EQ(r.groups[i], groups[i]);
      }
    }
  }
}

TEST_P(UdpNp, SenderRejectsWrongGroupShape) {
  UdpSocket sock;
  UdpGroup group;
  UdpSocket rx;
  group.add_member(rx.port());
  UdpNpSender sender(std::move(sock), group, small_config());
  std::vector<TgBytes> bad{TgBytes(3, std::vector<std::uint8_t>(128))};
  EXPECT_THROW(sender.transfer(bad), std::invalid_argument);
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
  for (const auto& r : session.receivers) {
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(r.groups, groups);
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
  std::uint64_t control_dropped = 0;
  for (const auto& r : session.receivers) {
    ASSERT_TRUE(r.complete);
    EXPECT_EQ(r.groups, groups);  // bit-exact, exactly once
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

  UdpSocket sender_socket;
  const std::uint16_t sender_port = sender_socket.port();
  UdpSocket live_sock, crash_sock;
  UdpGroup group;
  group.add_member(live_sock.port());
  group.add_member(crash_sock.port());

  UdpNpConfig crash_cfg = cfg;
  crash_cfg.crash_after_tgs = 1;  // dies after the first TG

  UdpNpReceiverResult live_result, crash_result;
  std::thread live_thread([&, sock = std::move(live_sock)]() mutable {
    UdpNpReceiver receiver(std::move(sock), sender_port, groups.size(), cfg,
                           0.0, Rng(99).split(0));
    live_result = receiver.run(5.0);
  });
  std::thread crash_thread([&, sock = std::move(crash_sock)]() mutable {
    UdpNpReceiver receiver(std::move(sock), sender_port, groups.size(),
                           crash_cfg, 0.0, Rng(99).split(1));
    crash_result = receiver.run(5.0);
  });

  UdpNpSender sender(std::move(sender_socket), group, cfg);
  const auto stats = sender.transfer(groups);
  live_thread.join();
  crash_thread.join();

  EXPECT_EQ(crash_result.end_reason, UdpNpEndReason::kCrashed);
  EXPECT_EQ(stats.evictions, 1u);
  ASSERT_EQ(stats.report.evicted.size(), 2u);
  EXPECT_TRUE(stats.report.evicted[1]);
  EXPECT_FALSE(stats.report.complete);  // eviction = degraded exit
  EXPECT_TRUE(live_result.complete);    // the live member got everything
  EXPECT_EQ(live_result.groups, groups);
  EXPECT_GT(stats.poll_retries, 0u);  // silence forced re-POLLs first
}

TEST_P(UdpNpReliable, EndReasonDistinguishesDrainFromStall) {
  // No sender at all.  A receiver that already holds every TG (zero of
  // them) is just draining for the end marker: it must report
  // kDrainTimeout after drain_timeout, not the mid-session idle timeout.
  UdpNpConfig cfg = small_config();
  cfg.drain_timeout = 0.1;
  UdpNpReceiver drained(UdpSocket(), 1, 0, cfg);
  const auto drain = drained.run(5.0);
  EXPECT_EQ(drain.end_reason, UdpNpEndReason::kDrainTimeout);

  // A receiver still missing TGs whose sender goes silent is a stall.
  UdpNpReceiver stalled(UdpSocket(), 1, 2, cfg);
  const auto stall = stalled.run(0.1);
  EXPECT_EQ(stall.end_reason, UdpNpEndReason::kMidSessionSilence);
  EXPECT_FALSE(stall.complete);
}

// --- Crash-tolerant sessions over real sockets -----------------------

TEST_P(UdpNpCrash, SenderRestartResumesFromJournalAcrossLiveReceiver) {
  // The receiver thread genuinely survives the sender's death here: one
  // receiver runs across TWO sender lives.  Life 1 journals its progress
  // through core::SessionJournal and dies after 10 datagrams; life 2
  // reopens the journal on the SAME port, bumps the incarnation, skips
  // the journaled TGs and finishes the transfer.
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

  UdpSocket first_socket;
  const std::uint16_t sender_port = first_socket.port();
  UdpSocket rx_sock;
  UdpGroup group;
  group.add_member(rx_sock.port());

  UdpNpReceiverResult result;
  std::thread rx_thread([&, sock = std::move(rx_sock)]() mutable {
    UdpNpReceiver receiver(std::move(sock), sender_port, groups.size(), cfg,
                           0.0, Rng(99).split(0));
    result = receiver.run(10.0);
  });

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
    UdpNpSender sender(std::move(first_socket), group, c1);
    life1 = sender.transfer(groups);
  }  // the dead life's socket closes; its port frees up
  EXPECT_TRUE(life1.crashed);
  EXPECT_LT(life1.data_sent, cfg.k * groups.size());

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
  UdpNpSender sender(UdpSocket(sender_port), group, c2);
  const auto life2 = sender.transfer(groups);
  rx_thread.join();
  std::remove(journal.c_str());

  EXPECT_FALSE(life2.crashed);
  EXPECT_GE(life2.tgs_skipped, 1u);  // journaled completions never resent
  EXPECT_TRUE(sj.state().all_complete());
  // Across both lives the receiver delivered everything exactly once.
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.groups, groups);
  EXPECT_EQ(result.end_reason, UdpNpEndReason::kEndOfSession);
}

TEST_P(UdpNpCrash, StaleIncarnationDatagramsAreRejected) {
  // A receiver that has already heard incarnation 1 must drop everything
  // a sender stamped with incarnation 0 — including its end-of-session
  // marker, which must NOT end the run as a clean session.
  UdpNpConfig cfg = small_config();
  const auto groups = random_groups(2, cfg.k, cfg.packet_len, 12);

  UdpSocket sender_socket;
  const std::uint16_t sender_port = sender_socket.port();
  UdpSocket rx_sock;
  UdpGroup group;
  group.add_member(rx_sock.port());

  UdpNpConfig rx_cfg = cfg;
  rx_cfg.incarnation = 1;  // the receiver's world has moved on
  rx_cfg.drain_timeout = 0.2;
  UdpNpReceiverResult result;
  std::thread rx_thread([&, sock = std::move(rx_sock)]() mutable {
    UdpNpReceiver receiver(std::move(sock), sender_port, groups.size(),
                           rx_cfg, 0.0, Rng(99).split(0));
    result = receiver.run(0.5);
  });

  UdpNpConfig tx_cfg = cfg;
  tx_cfg.incarnation = 0;  // a dead life still talking
  UdpNpSender sender(std::move(sender_socket), group, tx_cfg);
  const auto stats = sender.transfer(groups);
  rx_thread.join();

  EXPECT_GT(stats.data_sent, 0u);
  EXPECT_GT(result.stale_rejected, 0u);
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.received, 0u);
  EXPECT_EQ(result.end_reason, UdpNpEndReason::kMidSessionSilence);
}

}  // namespace
}  // namespace pbl::net
