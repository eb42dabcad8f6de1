// UDP transport tests, parameterized over the {batched, fallback} data
// planes: every behavior here must hold identically on both backends.
#include "net/udp/udp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/udp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <cstring>
#include <memory>

namespace pbl::net {
namespace {

fec::Packet sample_packet() {
  fec::Packet p;
  p.header.type = fec::PacketType::kData;
  p.header.tg = 3;
  p.header.index = 1;
  p.header.k = 7;
  p.header.n = 10;
  p.payload = {10, 20, 30};
  p.header.payload_len = 3;
  return p;
}

std::string backend_name(
    const ::testing::TestParamInfo<UdpBackend>& info) {
  return to_string(info.param);
}

class UdpSocketTest : public ::testing::TestWithParam<UdpBackend> {
 protected:
  ScopedUdpBackendOverride backend_{GetParam()};
};
using UdpGroupTest = UdpSocketTest;

INSTANTIATE_TEST_SUITE_P(Backends, UdpSocketTest,
                         ::testing::Values(UdpBackend::kBatched,
                                           UdpBackend::kFallback),
                         backend_name);
INSTANTIATE_TEST_SUITE_P(Backends, UdpGroupTest,
                         ::testing::Values(UdpBackend::kBatched,
                                           UdpBackend::kFallback),
                         backend_name);

TEST_P(UdpSocketTest, BindsEphemeralPort) {
  UdpSocket s;
  EXPECT_GT(s.port(), 0);
}

TEST_P(UdpSocketTest, SendReceiveRoundTrip) {
  UdpSocket a, b;
  const fec::Packet p = sample_packet();
  EXPECT_EQ(a.send_to(b.port(), p), SendStatus::kSent);
  const auto got = b.receive(2.0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, p);
}

TEST_P(UdpSocketTest, ReceiveTimesOut) {
  UdpSocket s;
  const auto got = s.receive(0.05);
  EXPECT_FALSE(got.has_value());
}

TEST_P(UdpSocketTest, MoveTransfersOwnership) {
  UdpSocket a;
  const std::uint16_t port = a.port();
  UdpSocket b(std::move(a));
  EXPECT_EQ(b.port(), port);
  UdpSocket c;
  c = std::move(b);
  EXPECT_EQ(c.port(), port);
  // The moved-to socket still works.
  UdpSocket d;
  d.send_to(c.port(), sample_packet());
  EXPECT_TRUE(c.receive(2.0).has_value());
}

TEST_P(UdpGroupTest, FansOutToAllMembers) {
  UdpSocket sender, r1, r2, r3;
  UdpGroup group;
  group.add_member(r1.port());
  group.add_member(r2.port());
  group.add_member(r3.port());
  EXPECT_EQ(group.size(), 3u);
  group.multicast(sender, sample_packet());
  EXPECT_TRUE(r1.receive(2.0).has_value());
  EXPECT_TRUE(r2.receive(2.0).has_value());
  EXPECT_TRUE(r3.receive(2.0).has_value());
}

TEST_P(UdpGroupTest, ExcludeSkipsOneMember) {
  UdpSocket sender, r1, r2;
  UdpGroup group;
  group.add_member(r1.port());
  group.add_member(r2.port());
  group.multicast(sender, sample_packet(), r1.port());
  EXPECT_FALSE(r1.receive(0.1).has_value());
  EXPECT_TRUE(r2.receive(2.0).has_value());
}

TEST_P(UdpSocketTest, MultiplePacketsPreserveContent) {
  UdpSocket a, b;
  for (std::uint32_t i = 0; i < 10; ++i) {
    fec::Packet p = sample_packet();
    p.header.seq = i;
    a.send_to(b.port(), p);
  }
  for (std::uint32_t i = 0; i < 10; ++i) {
    const auto got = b.receive(2.0);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->header.seq, i);  // loopback preserves order in practice
  }
}

TEST_P(UdpSocketTest, LargePayload) {
  UdpSocket a, b;
  fec::Packet p = sample_packet();
  p.payload.assign(8192, 0x5A);
  p.header.payload_len = 8192;
  a.send_to(b.port(), p);
  const auto got = b.receive(2.0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload.size(), 8192u);
}

TEST_P(UdpSocketTest, SendBatchDeliversEveryFrameInOrder) {
  UdpSocket a, b;
  std::vector<std::vector<std::uint8_t>> wires;
  for (std::uint32_t i = 0; i < 50; ++i) {
    fec::Packet p = sample_packet();
    p.header.seq = i;
    wires.push_back(fec::serialize(p));
  }
  std::vector<FrameRef> refs;
  for (const auto& w : wires) refs.push_back({b.port(), w});
  const auto result = a.send_batch(refs);
  EXPECT_EQ(result.sent, refs.size());
  EXPECT_EQ(result.status, SendStatus::kSent);
  for (std::uint32_t i = 0; i < 50; ++i) {
    const auto got = b.receive(2.0);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->header.seq, i);
  }
}

TEST_P(UdpSocketTest, ReceiveBatchDrainsManyAtOnce) {
  UdpSocket a, b;
  for (std::uint32_t i = 0; i < 20; ++i) {
    fec::Packet p = sample_packet();
    p.header.seq = i;
    a.send_to(b.port(), p);
  }
  std::vector<fec::Packet> got;
  std::size_t n = 0;
  while (n < 20) {
    const std::size_t round = b.receive_batch(got, 20 - n, 2.0);
    ASSERT_GT(round, 0u) << "timed out with " << n << " of 20";
    n += round;
  }
  ASSERT_EQ(got.size(), 20u);
  for (std::uint32_t i = 0; i < 20; ++i) EXPECT_EQ(got[i].header.seq, i);
}

TEST_P(UdpSocketTest, TxTapSeesEveryFrame) {
  UdpSocket a, b;
  std::size_t taps = 0;
  std::vector<std::uint8_t> last;
  a.set_tx_tap([&](std::uint16_t dest, std::span<const std::uint8_t> bytes) {
    EXPECT_EQ(dest, b.port());
    last.assign(bytes.begin(), bytes.end());
    ++taps;
  });
  const fec::Packet p = sample_packet();
  a.send_to(b.port(), p);
  EXPECT_EQ(taps, 1u);
  EXPECT_EQ(last, fec::serialize(p));
}

// --- Backpressure regression (the old ::sendto threw on EAGAIN) -------

TEST_P(UdpSocketTest, InjectedEagainReturnsWouldBlockNotThrow) {
  UdpSocket a, b;
  a.inject_send_errno(EAGAIN, 1);
  EXPECT_EQ(a.send_to(b.port(), sample_packet()), SendStatus::kWouldBlock);
  // The condition was transient: the very next send goes through.
  EXPECT_EQ(a.send_to(b.port(), sample_packet()), SendStatus::kSent);
  EXPECT_TRUE(b.receive(2.0).has_value());
}

TEST_P(UdpSocketTest, InjectedEnobufsReturnsWouldBlockNotThrow) {
  UdpSocket a, b;
  a.inject_send_errno(ENOBUFS, 1);
  EXPECT_EQ(a.send_to(b.port(), sample_packet()), SendStatus::kWouldBlock);
  EXPECT_EQ(a.send_to(b.port(), sample_packet()), SendStatus::kSent);
}

TEST_P(UdpSocketTest, HardSendErrorsStillThrow) {
  UdpSocket a, b;
  a.inject_send_errno(EPERM, 1);
  EXPECT_THROW(a.send_to(b.port(), sample_packet()), std::system_error);
}

TEST_P(UdpSocketTest, SendBatchReportsPartialSendOnBackpressure) {
  UdpSocket a, b;
  const auto wire = fec::serialize(sample_packet());
  std::vector<FrameRef> refs(5, FrameRef{b.port(), wire});
  // The first syscall attempt fails with EAGAIN: the fallback stops
  // before frame 0; the batched backend fails the whole first chunk.
  a.inject_send_errno(EAGAIN, 1);
  const auto result = a.send_batch(refs);
  EXPECT_EQ(result.status, SendStatus::kWouldBlock);
  EXPECT_EQ(result.sent, 0u);
  // Resume from frames[sent]: everything goes through now.
  const auto resumed =
      a.send_batch(std::span<const FrameRef>(refs).subspan(result.sent));
  EXPECT_EQ(resumed.status, SendStatus::kSent);
  EXPECT_EQ(resumed.sent, 5u);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(b.receive(2.0).has_value());
}

TEST_P(UdpSocketTest, SendBatchBlockingRidesThroughBackpressure) {
  UdpSocket a, b;
  const auto wire = fec::serialize(sample_packet());
  std::vector<FrameRef> refs(8, FrameRef{b.port(), wire});
  a.inject_send_errno(ENOBUFS, 3);  // three transient stalls mid-batch
  a.send_batch_blocking(refs);
  for (int i = 0; i < 8; ++i)
    EXPECT_TRUE(b.receive(2.0).has_value()) << "frame " << i << " lost";
}

TEST(UdpBackendSelection, OverrideWinsAndRestores) {
  const UdpBackend ambient = active_udp_backend();
  {
    ScopedUdpBackendOverride fallback(UdpBackend::kFallback);
    EXPECT_EQ(active_udp_backend(), UdpBackend::kFallback);
    {
      ScopedUdpBackendOverride batched(UdpBackend::kBatched);
      // Requests for an unavailable batched backend degrade to fallback.
      EXPECT_EQ(active_udp_backend(), udp_batched_available()
                                          ? UdpBackend::kBatched
                                          : UdpBackend::kFallback);
    }
    EXPECT_EQ(active_udp_backend(), UdpBackend::kFallback);
  }
  EXPECT_EQ(active_udp_backend(), ambient);
}

// --- Segmentation offload (GSO send, GRO receive) --------------------
//
// Batched-backend only, and skipped on kernels without UDP_SEGMENT: the
// per-frame path those kernels fall back to is the suite above.

fec::Packet packet_of(std::uint32_t seq, std::size_t payload_len) {
  fec::Packet p = sample_packet();
  p.header.seq = seq;
  p.payload.assign(payload_len, static_cast<std::uint8_t>(seq));
  p.header.payload_len = static_cast<std::uint32_t>(payload_len);
  return p;
}

class UdpOffloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!udp_batched_available()) GTEST_SKIP() << "no sendmmsg/recvmmsg";
    if (!UdpSocket().gso_enabled()) GTEST_SKIP() << "kernel lacks UDP GSO";
  }

  static std::vector<std::uint32_t> drain_seqs(UdpSocket& rx,
                                               std::size_t want) {
    std::vector<fec::Packet> got;
    while (got.size() < want)
      if (rx.receive_batch(got, want - got.size(), 2.0) == 0) break;
    std::vector<std::uint32_t> seqs;
    for (const auto& p : got) seqs.push_back(p.header.seq);
    return seqs;
  }

  static std::vector<std::uint32_t> iota(std::uint32_t from,
                                         std::uint32_t to) {
    std::vector<std::uint32_t> v;
    for (std::uint32_t i = from; i < to; ++i) v.push_back(i);
    return v;
  }

  ScopedUdpBackendOverride backend_{UdpBackend::kBatched};
};

TEST_F(UdpOffloadTest, RunsCapAtSixtyFourSegments) {
  UdpSocket a, b;
  ASSERT_TRUE(b.gro_enabled());
  std::vector<std::vector<std::uint8_t>> wires;
  for (std::uint32_t i = 0; i < 65; ++i)
    wires.push_back(fec::serialize(packet_of(i, 100)));
  std::vector<FrameRef> refs;
  for (const auto& w : wires) refs.push_back({b.port(), w});
  const auto r = a.send_batch(refs);
  EXPECT_EQ(r.sent, 65u);
  // 64 frames ride one super-datagram; the 65th goes alone.
  EXPECT_EQ(a.gso_sends(), 1u);
  EXPECT_EQ(drain_seqs(b, 65), iota(0, 65));
  EXPECT_EQ(b.gro_coalesced(), 64u);
}

TEST_F(UdpOffloadTest, RunsCapAtTheLargestUdpPayload) {
  UdpSocket a, b;
  const std::size_t size = fec::serialize(packet_of(0, 1400)).size();
  const std::size_t per_run = 65507 / size;
  ASSERT_LT(per_run, 64u);
  std::vector<std::vector<std::uint8_t>> wires;
  for (std::uint32_t i = 0; i <= per_run; ++i)
    wires.push_back(fec::serialize(packet_of(i, 1400)));
  std::vector<FrameRef> refs;
  for (const auto& w : wires) refs.push_back({b.port(), w});
  EXPECT_EQ(a.send_batch(refs).sent, wires.size());
  EXPECT_EQ(a.gso_sends(), 1u);
  EXPECT_EQ(drain_seqs(b, wires.size()),
            iota(0, static_cast<std::uint32_t>(wires.size())));
  EXPECT_EQ(b.gro_coalesced(), per_run);
}

TEST_F(UdpOffloadTest, SizeChangeEndsARun) {
  UdpSocket a, b;
  std::vector<std::vector<std::uint8_t>> wires;
  for (std::uint32_t i = 0; i < 10; ++i)
    wires.push_back(fec::serialize(packet_of(i, i < 5 ? 40 : 80)));
  std::vector<FrameRef> refs;
  for (const auto& w : wires) refs.push_back({b.port(), w});
  EXPECT_EQ(a.send_batch(refs).sent, 10u);
  EXPECT_EQ(a.gso_sends(), 2u);
  EXPECT_EQ(drain_seqs(b, 10), iota(0, 10));
  EXPECT_EQ(b.gro_coalesced(), 10u);
}

TEST_F(UdpOffloadTest, DestinationChangeEndsARun) {
  UdpSocket a, b, c;
  std::vector<std::vector<std::uint8_t>> wires;
  for (std::uint32_t i = 0; i < 20; ++i)
    wires.push_back(fec::serialize(packet_of(i, 40)));
  // Member-major: two runs.
  std::vector<FrameRef> grouped;
  for (std::uint32_t i = 0; i < 10; ++i)
    grouped.push_back({b.port(), wires[i]});
  for (std::uint32_t i = 10; i < 20; ++i)
    grouped.push_back({c.port(), wires[i]});
  EXPECT_EQ(a.send_batch(grouped).sent, 20u);
  EXPECT_EQ(a.gso_sends(), 2u);
  EXPECT_EQ(drain_seqs(b, 10), iota(0, 10));
  EXPECT_EQ(drain_seqs(c, 10), iota(10, 20));
  EXPECT_EQ(b.gro_coalesced() + c.gro_coalesced(), 20u);
  // Packet-major (alternating destinations): nothing to coalesce.
  std::vector<FrameRef> alternating;
  std::vector<std::uint32_t> even, odd;
  for (std::uint32_t i = 0; i < 20; ++i) {
    alternating.push_back({i % 2 == 0 ? b.port() : c.port(), wires[i]});
    (i % 2 == 0 ? even : odd).push_back(i);
  }
  EXPECT_EQ(a.send_batch(alternating).sent, 20u);
  EXPECT_EQ(a.gso_sends(), 2u);
  EXPECT_EQ(drain_seqs(b, 10), even);
  EXPECT_EQ(drain_seqs(c, 10), odd);
}

TEST_F(UdpOffloadTest, MidBatchWouldBlockLeavesAWholeRunPrefix) {
  UdpSocket a, b, c;
  // 130 runs of two frames, alternating members: one sendmmsg carries
  // 128 entries, so the second syscall of the batch is the one that
  // meets the injected EAGAIN.
  std::vector<std::vector<std::uint8_t>> wires;
  for (std::uint32_t i = 0; i < 260; ++i)
    wires.push_back(fec::serialize(packet_of(i, 24)));
  std::vector<FrameRef> refs;
  for (std::uint32_t i = 0; i < 260; ++i)
    refs.push_back({(i / 2) % 2 == 0 ? b.port() : c.port(), wires[i]});
  a.inject_send_errno_every(EAGAIN, /*every=*/2, /*burst=*/1);
  const auto first = a.send_batch(refs);
  EXPECT_EQ(first.status, SendStatus::kWouldBlock);
  EXPECT_EQ(first.sent, 256u);
  const auto rest =
      a.send_batch(std::span<const FrameRef>(refs).subspan(first.sent));
  EXPECT_EQ(rest.status, SendStatus::kSent);
  EXPECT_EQ(rest.sent, 4u);
  EXPECT_EQ(a.gso_sends(), 130u);
  std::vector<std::uint32_t> want_b, want_c;
  for (std::uint32_t i = 0; i < 260; ++i)
    ((i / 2) % 2 == 0 ? want_b : want_c).push_back(i);
  EXPECT_EQ(drain_seqs(b, 130), want_b);
  EXPECT_EQ(drain_seqs(c, 130), want_c);
}

TEST_F(UdpOffloadTest, GroSplitsAShortTailAndImpairsEverySegment) {
  UdpSocket rx;
  ASSERT_TRUE(rx.gro_enabled());
  ImpairmentConfig icfg;
  icfg.dup_prob = 1.0;
  auto impairment = std::make_shared<Impairment>(icfg);
  rx.set_impairment(impairment);

  // Three full segments and a shorter tail, handed to the kernel by hand
  // as one UDP_SEGMENT super-datagram.
  std::vector<std::uint8_t> super;
  std::size_t seg = 0;
  for (std::uint32_t i = 0; i < 4; ++i) {
    const auto w = fec::serialize(packet_of(i, i < 3 ? 200 : 50));
    if (i == 0) seg = w.size();
    super.insert(super.end(), w.begin(), w.end());
  }
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in dest{};
  dest.sin_family = AF_INET;
  dest.sin_port = htons(rx.port());
  dest.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  iovec iov{super.data(), super.size()};
  alignas(cmsghdr) unsigned char ctrl[CMSG_SPACE(sizeof(std::uint16_t))] = {};
  msghdr h{};
  h.msg_name = &dest;
  h.msg_namelen = sizeof(dest);
  h.msg_iov = &iov;
  h.msg_iovlen = 1;
  h.msg_control = ctrl;
  h.msg_controllen = sizeof(ctrl);
  cmsghdr* c = CMSG_FIRSTHDR(&h);
  c->cmsg_level = SOL_UDP;
  c->cmsg_type = UDP_SEGMENT;
  c->cmsg_len = CMSG_LEN(sizeof(std::uint16_t));
  const auto seg16 = static_cast<std::uint16_t>(seg);
  std::memcpy(CMSG_DATA(c), &seg16, sizeof(seg16));
  const ssize_t sent = ::sendmsg(fd, &h, 0);
  ::close(fd);
  ASSERT_EQ(sent, static_cast<ssize_t>(super.size()));

  const std::vector<std::uint32_t> each_twice = {0, 0, 1, 1, 2, 2, 3, 3};
  EXPECT_EQ(drain_seqs(rx, 8), each_twice);
  EXPECT_EQ(rx.gro_coalesced(), 4u);
  // One impairment decision per segment, not per coalesced buffer.
  EXPECT_EQ(impairment->stats().processed, 4u);
  EXPECT_EQ(impairment->stats().duplicated, 4u);
}

TEST(UdpOffloadFallback, FailedProbeSendsOneDatagramPerFrame) {
  if (!udp_batched_available()) GTEST_SKIP() << "no sendmmsg/recvmmsg";
  ScopedUdpBackendOverride batched(UdpBackend::kBatched);
  ScopedUdpOffloadProbeFailure no_offload;
  UdpSocket a, b;
  EXPECT_FALSE(a.gso_enabled());
  EXPECT_FALSE(b.gro_enabled());
  std::vector<std::vector<std::uint8_t>> wires;
  for (std::uint32_t i = 0; i < 50; ++i)
    wires.push_back(fec::serialize(packet_of(i, 64)));
  std::vector<FrameRef> refs;
  for (const auto& w : wires) refs.push_back({b.port(), w});
  const auto r = a.send_batch(refs);
  EXPECT_EQ(r.status, SendStatus::kSent);
  EXPECT_EQ(r.sent, 50u);
  EXPECT_EQ(a.gso_sends(), 0u);
  std::vector<fec::Packet> got;
  while (got.size() < 50)
    if (b.receive_batch(got, 50 - got.size(), 2.0) == 0) break;
  ASSERT_EQ(got.size(), 50u);
  for (std::uint32_t i = 0; i < 50; ++i) EXPECT_EQ(got[i].header.seq, i);
  EXPECT_EQ(b.gro_coalesced(), 0u);
}

}  // namespace
}  // namespace pbl::net
