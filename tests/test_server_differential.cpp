// Differential proof that the server's data plane is wire-exact across
// UDP backends: the same seeded SenderSessionDriver session, run once
// on the batched backend (GSO super-datagrams and GRO receive where the
// kernel has them), once on the batched backend with the offload probe
// failed, and once on the per-frame fallback, must put byte-identical
// streams on the wire for every member (captured via the sender socket's
// tx tap) and leave every receiver with identical results.  The drivers
// stage bursts member-major; only the interleaving ACROSS members may
// differ from packet-major order, never a member's own stream.
//
// The *MatchesBlockingPath scenarios pin every member's stream to the
// FNV-1a 64 digest that the blocking sender/receiver pair these drivers
// replaced produced for the same seeded session (the two paths were
// compared byte for byte while both existed), so the drivers must keep
// reproducing the bytes of the implementation they replaced.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/session_state.hpp"
#include "np_session.hpp"
#include "server/session_driver.hpp"
#include "test_paths.hpp"

namespace pbl::server {
namespace {

using np_session::random_groups;

enum class Plane { kBatched, kBatchedNoOffload, kFallback };

net::UdpNpConfig base_config() {
  net::UdpNpConfig cfg;
  cfg.k = 6;
  cfg.h = 40;
  cfg.packet_len = 128;
  // Generous collect window: every NAK must land inside its round on
  // every run, so timing noise cannot skew the repair schedule.
  cfg.poll_window = 0.08;
  cfg.seed = 31;
  return cfg;
}

struct ServerRun {
  std::vector<std::vector<std::uint8_t>> tx;  ///< per-member wire stream
  net::UdpNpSenderStats sender;
  std::vector<net::UdpNpReceiverResult> receivers;
  std::uint64_t gso_sends = 0;
};

ServerRun run_session(Plane plane, const std::vector<net::TgBytes>& groups,
                      std::size_t members, const net::UdpNpConfig& np,
                      double data_loss, double idle_timeout = 5.0) {
  const net::ScopedUdpBackendOverride backend(
      plane == Plane::kFallback ? net::UdpBackend::kFallback
                                : net::UdpBackend::kBatched);
  std::optional<net::ScopedUdpOffloadProbeFailure> no_offload;
  if (plane == Plane::kBatchedNoOffload) no_offload.emplace();

  np_session::Session session(members);
  session.add_receivers(np, groups, data_loss, idle_timeout);
  session.add_sender(np, groups);
  EXPECT_TRUE(session.run()) << "watchdog fired";
  EXPECT_EQ(session.payload_mismatches(), 0u);
  return {session.tx, session.sender().stats(), session.results(),
          session.sender().gso_sends()};
}

void expect_same(const ServerRun& a, const ServerRun& b) {
  ASSERT_EQ(a.tx.size(), b.tx.size());
  for (std::size_t m = 0; m < a.tx.size(); ++m) {
    EXPECT_FALSE(a.tx[m].empty()) << "member " << m;
    EXPECT_EQ(a.tx[m], b.tx[m]) << "member " << m << " stream diverged";
  }
  EXPECT_EQ(a.sender.data_sent, b.sender.data_sent);
  EXPECT_EQ(a.sender.parity_sent, b.sender.parity_sent);
  EXPECT_EQ(a.sender.polls_sent, b.sender.polls_sent);
  EXPECT_EQ(a.sender.naks_received, b.sender.naks_received);
  EXPECT_EQ(a.sender.crashed, b.sender.crashed);
  ASSERT_EQ(a.receivers.size(), b.receivers.size());
  for (std::size_t r = 0; r < a.receivers.size(); ++r) {
    const auto& x = a.receivers[r];
    const auto& y = b.receivers[r];
    EXPECT_EQ(x.complete, y.complete) << "receiver " << r;
    EXPECT_EQ(x.received, y.received) << "receiver " << r;
    EXPECT_EQ(x.dropped, y.dropped) << "receiver " << r;
    EXPECT_EQ(x.decoded, y.decoded) << "receiver " << r;
    EXPECT_EQ(x.naks_sent, y.naks_sent) << "receiver " << r;
    EXPECT_EQ(x.end_reason, y.end_reason) << "receiver " << r;
  }
}

/// Runs every plane and compares each against the fallback, which it
/// returns for scenario-specific checks.
ServerRun expect_planes_agree(const std::vector<net::TgBytes>& groups,
                              std::size_t members, const net::UdpNpConfig& np,
                              double data_loss, double idle_timeout = 5.0) {
  const auto fallback = run_session(Plane::kFallback, groups, members, np,
                                    data_loss, idle_timeout);
  EXPECT_EQ(fallback.gso_sends, 0u);
  for (const Plane plane : {Plane::kBatched, Plane::kBatchedNoOffload}) {
    SCOPED_TRACE(plane == Plane::kBatched ? "batched"
                                          : "batched, no offload");
    expect_same(run_session(plane, groups, members, np, data_loss,
                            idle_timeout),
                fallback);
  }
  return fallback;
}

TEST(ServerDifferential, CleanSessionIsByteIdenticalPerMember) {
  const auto groups = random_groups(3, 6, 128, 41);
  const auto run = expect_planes_agree(groups, 3, base_config(), 0.0);
  for (const auto& r : run.receivers) EXPECT_TRUE(r.complete);
}

TEST(ServerDifferential, LossySessionIsByteIdenticalPerMember) {
  const auto groups = random_groups(3, 6, 128, 42);
  const auto run = expect_planes_agree(groups, 3, base_config(), 0.25);
  EXPECT_GT(run.sender.parity_sent, 0u);
  for (const auto& r : run.receivers) EXPECT_TRUE(r.complete);
}

TEST(ServerDifferential, CrashClampsAtTheSameFramePerMember) {
  net::UdpNpConfig np = base_config();
  np.crash_after_sends = 10;  // mid-way through the second TG's burst
  const auto groups = random_groups(3, 6, 128, 43);
  const auto run =
      expect_planes_agree(groups, 3, np, 0.0, /*idle_timeout=*/0.3);
  EXPECT_TRUE(run.sender.crashed);
}

TEST(ServerDifferential, DataBurstsLeaveAsOneSuperDatagramPerMember) {
  const net::ScopedUdpBackendOverride batched(net::UdpBackend::kBatched);
  if (!net::udp_batched_available() || !net::UdpSocket().gso_enabled())
    GTEST_SKIP() << "no UDP segmentation offload";
  const auto groups = random_groups(3, 6, 128, 44);
  const auto run =
      run_session(Plane::kBatched, groups, 3, base_config(), 0.0);
  // Member-major staging: every TG's k-frame data burst is one
  // super-datagram per member.
  EXPECT_GE(run.gso_sends, groups.size() * 3);
  for (const auto& r : run.receivers) EXPECT_TRUE(r.complete);
}

// --- Streams pinned to the former blocking path ----------------------

net::UdpNpConfig scenario_config() {
  net::UdpNpConfig cfg;
  cfg.k = 6;
  cfg.h = 40;
  cfg.packet_len = 128;
  cfg.poll_window = 0.08;
  return cfg;
}

struct Scenario {
  std::size_t members = 3;
  net::UdpNpConfig np = scenario_config();
  double data_loss = 0.0;
  /// Sender life 1 dies after this many sends and a second life resumes
  /// from its journal on the same port (SIZE_MAX: one clean life).
  std::size_t crash_after_sends = static_cast<std::size_t>(-1);
  /// Every member's stream digest, as the blocking pair produced it.
  std::uint64_t digest = 0;
};

bool crashes(const Scenario& sc) {
  return sc.crash_after_sends != static_cast<std::size_t>(-1);
}

/// The config of sender life `life` (0 or 1), journaling into `sj`.
net::UdpNpConfig life_config(const Scenario& sc, core::SessionJournal& sj,
                             int life) {
  net::UdpNpConfig c = sc.np;
  c.incarnation = sj.state().incarnation;
  if (life == 0) {
    c.crash_after_sends = sc.crash_after_sends;
  } else {
    c.resume_completed = sj.state().completed;
    c.resume_parities = sj.state().parities_sent;
  }
  c.on_tg_completed = [&sj](std::size_t tg) { sj.record_tg_completed(tg); };
  c.on_parities_sent = [&sj](std::size_t tg, std::size_t hw) {
    sj.record_parities_sent(tg, hw);
  };
  return c;
}

/// Runs the scenario on both UDP backends and checks every member's
/// stream against the pinned digest.
void expect_pinned_streams(const Scenario& sc, std::uint64_t payload_seed) {
  const auto groups =
      random_groups(3, sc.np.k, sc.np.packet_len, payload_seed);
  for (const auto backend :
       {net::UdpBackend::kBatched, net::UdpBackend::kFallback}) {
    SCOPED_TRACE(net::to_string(backend));
    const net::ScopedUdpBackendOverride override(backend);
    np_session::Session session(sc.members);
    session.add_receivers(sc.np, groups, sc.data_loss,
                          crashes(sc) ? 10.0 : 5.0);
    if (!crashes(sc)) {
      session.add_sender(sc.np, groups);
      ASSERT_TRUE(session.run()) << "watchdog fired";
    } else {
      const std::string journal = unique_test_path("session.log");
      std::remove(journal.c_str());
      core::SenderSessionState fresh;
      fresh.session_id = 0xD1FF;
      fresh.k = static_cast<std::uint32_t>(sc.np.k);
      fresh.h = static_cast<std::uint32_t>(sc.np.h);
      fresh.packet_len = static_cast<std::uint32_t>(sc.np.packet_len);
      fresh.num_tgs = static_cast<std::uint32_t>(groups.size());
      {
        core::SessionJournal sj(journal, fresh);
        auto& life1 = session.add_sender(life_config(sc, sj, 0), groups);
        ASSERT_TRUE(session.run_until([&] { return life1.finished(); }));
        EXPECT_TRUE(life1.stats().crashed);
        session.end_sender_life();
      }
      core::SessionJournal sj(journal, fresh);
      session.add_sender(life_config(sc, sj, 1), groups);
      ASSERT_TRUE(session.run()) << "watchdog fired";
      session.end_sender_life();
      std::remove(journal.c_str());
    }
    EXPECT_EQ(session.payload_mismatches(), 0u);
    for (const auto& r : session.results()) EXPECT_TRUE(r.complete);
    for (std::size_t m = 0; m < sc.members; ++m)
      EXPECT_EQ(np_session::fnv1a64(session.tx[m]), sc.digest)
          << "member " << m << " stream diverged from the blocking path";
  }
}

TEST(ServerDifferential, CleanSessionMatchesBlockingPath) {
  Scenario sc;
  sc.digest = 0xec065fe4267c4c69ull;
  expect_pinned_streams(sc, 51);
}

TEST(ServerDifferential, LossySessionMatchesBlockingPath) {
  Scenario sc;
  sc.data_loss = 0.25;
  sc.digest = 0x1cfa4f62a9bc1f8aull;
  expect_pinned_streams(sc, 52);
}

TEST(ServerDifferential, ReliableSessionMatchesBlockingPath) {
  Scenario sc;
  sc.data_loss = 0.15;
  sc.np.reliable_control = true;
  sc.np.seed = 53;
  sc.np.retry.grace_rounds = 20;
  sc.np.retry.max_retries = 16;
  sc.digest = 0xe772b9d70c617424ull;
  expect_pinned_streams(sc, 53);
}

TEST(ServerDifferential, CrashResumeMatchesBlockingPath) {
  Scenario sc;
  sc.members = 2;
  sc.crash_after_sends = 10;  // dies inside TG 1, after TG 0 completed
  sc.digest = 0x0e61426fdce947d7ull;
  expect_pinned_streams(sc, 54);
}

}  // namespace
}  // namespace pbl::server
