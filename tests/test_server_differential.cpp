// Differential proof that the server's data plane is wire-exact across
// UDP backends: the same seeded SenderSessionDriver session, run once
// on the batched backend (GSO super-datagrams and GRO receive where the
// kernel has them), once on the batched backend with the offload probe
// failed, and once on the per-frame fallback, must put byte-identical
// streams on the wire for every member (captured via the sender socket's
// tx tap) and leave every receiver with identical results.  The drivers
// stage bursts member-major; only the interleaving ACROSS members may
// differ from packet-major order, never a member's own stream.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "server/session_driver.hpp"
#include "util/rng.hpp"

namespace pbl::server {
namespace {

enum class Plane { kBatched, kBatchedNoOffload, kFallback };

std::vector<net::TgBytes> random_groups(std::size_t tgs, std::size_t k,
                                        std::size_t len, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<net::TgBytes> groups(tgs);
  for (auto& tg : groups) {
    tg.resize(k);
    for (auto& pkt : tg) {
      pkt.resize(len);
      for (auto& b : pkt) b = static_cast<std::uint8_t>(rng());
    }
  }
  return groups;
}

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
                      std::size_t members, net::UdpNpConfig np,
                      double data_loss, double idle_timeout = 5.0) {
  const net::ScopedUdpBackendOverride backend(
      plane == Plane::kFallback ? net::UdpBackend::kFallback
                                : net::UdpBackend::kBatched);
  std::optional<net::ScopedUdpOffloadProbeFailure> no_offload;
  if (plane == Plane::kBatchedNoOffload) no_offload.emplace();

  Reactor reactor;
  np.clock = &reactor.clock();
  net::UdpSocket sender_socket;
  const std::uint16_t sender_port = sender_socket.port();
  std::vector<net::UdpSocket> rx_sockets(members);
  net::UdpGroup group;
  for (auto& s : rx_sockets) group.add_member(s.port());

  ServerRun run;
  run.tx.resize(members);
  const std::vector<std::uint16_t> ports = group.members();
  sender_socket.set_tx_tap(
      [&](std::uint16_t dest, std::span<const std::uint8_t> bytes) {
        for (std::size_t m = 0; m < ports.size(); ++m)
          if (ports[m] == dest)
            run.tx[m].insert(run.tx[m].end(), bytes.begin(), bytes.end());
      });

  std::size_t finished = 0;
  const auto on_done = [&] {
    if (++finished == members + 1) reactor.stop();
  };
  std::vector<std::unique_ptr<ReceiverSessionDriver>> receivers;
  for (std::size_t r = 0; r < members; ++r) {
    ReceiverSessionDriver::Options opt;
    opt.idle_timeout = idle_timeout;
    opt.data_loss = data_loss;
    opt.rng = Rng(99).split(r);
    opt.expected = &groups;
    receivers.push_back(std::make_unique<ReceiverSessionDriver>(
        reactor, std::move(rx_sockets[r]), sender_port, groups.size(), np,
        std::move(opt), on_done));
  }
  SenderSessionDriver sender(reactor, std::move(sender_socket),
                             std::move(group), np, groups, on_done);
  for (auto& r : receivers) r->start();
  sender.start();
  bool wedged = false;
  reactor.add_timer(reactor.now() + 60.0, [&] {
    wedged = true;
    reactor.stop();
  });
  reactor.run();
  EXPECT_FALSE(wedged) << "watchdog fired";

  run.sender = sender.stats();
  run.gso_sends = sender.gso_sends();
  for (const auto& r : receivers) {
    run.receivers.push_back(r->result());
    EXPECT_EQ(r->payload_mismatches(), 0u);
  }
  return run;
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
    EXPECT_EQ(x.groups, y.groups) << "receiver " << r;
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

}  // namespace
}  // namespace pbl::server
