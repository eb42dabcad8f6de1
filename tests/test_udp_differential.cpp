// Differential proof that the batched UDP data plane is wire-exact
// against the portable fallback: the same seeded session, run once per
// backend on the server's session drivers, must put byte-identical
// streams on the wire for every member (captured via the socket tx
// tap), produce identical sender stats and PartialDeliveryReports, and
// leave every receiver with identical results.  Same pattern as the
// shard-equivalence harness, one layer down.
//
// Also holds the FrameStreamDecoder segmentation-invariance contract
// (the deterministic twin of fuzz/fuzz_frame_batch.cpp) so tier-1 runs
// cover it without -DPBL_FUZZ=ON.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "core/session_state.hpp"
#include "net/udp/frame_stream.hpp"
#include "np_session.hpp"
#include "test_paths.hpp"
#include "util/rng.hpp"

namespace pbl::net {
namespace {

using np_session::random_groups;

UdpNpConfig base_config() {
  UdpNpConfig cfg;
  cfg.k = 6;
  cfg.h = 40;
  cfg.packet_len = 128;
  // Generous collect window: the differential assertion needs every NAK
  // inside its round on both runs, so timing noise cannot skew the
  // repair schedule between backends.
  cfg.poll_window = 0.08;
  return cfg;
}

/// Everything one session run exposes, for cross-backend comparison.
struct DiffRun {
  std::vector<std::vector<std::uint8_t>> tx;  ///< per-member wire stream
  UdpNpSenderStats sender;
  std::vector<UdpNpReceiverResult> receivers;
};

DiffRun run_session(UdpBackend backend, const std::vector<TgBytes>& groups,
                    std::size_t receivers, const UdpNpConfig& cfg,
                    double inject_loss) {
  ScopedUdpBackendOverride override(backend);
  np_session::Session session(receivers);
  session.add_receivers(cfg, groups, inject_loss);
  session.add_sender(cfg, groups);
  EXPECT_TRUE(session.run()) << "watchdog fired";
  EXPECT_EQ(session.payload_mismatches(), 0u);
  return {session.tx, session.sender().stats(), session.results()};
}

void expect_same_wire(const DiffRun& a, const DiffRun& b) {
  ASSERT_EQ(a.tx.size(), b.tx.size());
  for (std::size_t m = 0; m < a.tx.size(); ++m) {
    EXPECT_EQ(a.tx[m].size(), b.tx[m].size()) << "member " << m;
    EXPECT_EQ(a.tx[m], b.tx[m]) << "member " << m << " stream diverged";
  }
}

void expect_same_sender_stats(const UdpNpSenderStats& a,
                              const UdpNpSenderStats& b) {
  EXPECT_EQ(a.data_sent, b.data_sent);
  EXPECT_EQ(a.parity_sent, b.parity_sent);
  EXPECT_EQ(a.polls_sent, b.polls_sent);
  EXPECT_EQ(a.naks_received, b.naks_received);
  EXPECT_EQ(a.tgs_exhausted, b.tgs_exhausted);
  EXPECT_EQ(a.acks_received, b.acks_received);
  EXPECT_EQ(a.poll_retries, b.poll_retries);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.tgs_unconfirmed, b.tgs_unconfirmed);
  EXPECT_EQ(a.crashed, b.crashed);
  EXPECT_EQ(a.tgs_skipped, b.tgs_skipped);
}

void expect_same_report(const protocol::PartialDeliveryReport& a,
                        const protocol::PartialDeliveryReport& b) {
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.deadline_expired, b.deadline_expired);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.evicted, b.evicted);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.units_failed, b.units_failed);
  EXPECT_EQ(a.poll_retries, b.poll_retries);
}

void expect_same_receivers(const DiffRun& a, const DiffRun& b) {
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

TEST(UdpDifferential, CleanSessionIsByteIdentical) {
  const auto groups = random_groups(3, 6, 128, 21);
  const auto batched =
      run_session(UdpBackend::kBatched, groups, 3, base_config(), 0.0);
  const auto fallback =
      run_session(UdpBackend::kFallback, groups, 3, base_config(), 0.0);
  expect_same_wire(batched, fallback);
  expect_same_sender_stats(batched.sender, fallback.sender);
  expect_same_receivers(batched, fallback);
  EXPECT_GT(batched.tx[0].size(), 0u);
}

TEST(UdpDifferential, LossyRepairScheduleIsByteIdentical) {
  // Injected loss is seeded per receiver, so both runs lose the same
  // packets — the NAK counts, the parity bursts they trigger, and hence
  // the whole wire stream must match frame for frame.
  const auto groups = random_groups(4, 6, 128, 22);
  const auto batched =
      run_session(UdpBackend::kBatched, groups, 4, base_config(), 0.2);
  const auto fallback =
      run_session(UdpBackend::kFallback, groups, 4, base_config(), 0.2);
  EXPECT_GT(batched.sender.parity_sent, 0u);
  expect_same_wire(batched, fallback);
  expect_same_sender_stats(batched.sender, fallback.sender);
  expect_same_receivers(batched, fallback);
}

TEST(UdpDifferential, ReliableSessionReportsAreIdentical) {
  UdpNpConfig cfg = base_config();
  cfg.reliable_control = true;
  cfg.seed = 23;
  cfg.retry.grace_rounds = 20;
  cfg.retry.max_retries = 16;
  const auto groups = random_groups(3, 6, 128, 23);
  const auto batched =
      run_session(UdpBackend::kBatched, groups, 3, cfg, 0.15);
  const auto fallback =
      run_session(UdpBackend::kFallback, groups, 3, cfg, 0.15);
  EXPECT_TRUE(batched.sender.report.complete)
      << batched.sender.report.summary();
  expect_same_wire(batched, fallback);
  expect_same_sender_stats(batched.sender, fallback.sender);
  expect_same_report(batched.sender.report, fallback.sender.report);
  expect_same_receivers(batched, fallback);
}

// Crash + resume across two sender lives: the crash must clamp the wire
// stream at the same frame on both backends, and the resumed life must
// continue from the same journal state.
DiffRun run_crash_session(UdpBackend backend,
                          const std::vector<TgBytes>& groups,
                          const UdpNpConfig& cfg, const std::string& journal) {
  ScopedUdpBackendOverride override(backend);
  std::remove(journal.c_str());

  core::SenderSessionState fresh;
  fresh.session_id = 0xD1FF;
  fresh.k = static_cast<std::uint32_t>(cfg.k);
  fresh.h = static_cast<std::uint32_t>(cfg.h);
  fresh.packet_len = static_cast<std::uint32_t>(cfg.packet_len);
  fresh.num_tgs = static_cast<std::uint32_t>(groups.size());

  np_session::Session session(1);
  session.add_receivers(cfg, groups, 0.0, /*idle_timeout=*/10.0);

  DiffRun run;
  {
    core::SessionJournal sj(journal, fresh);
    UdpNpConfig c1 = cfg;
    c1.incarnation = sj.state().incarnation;
    c1.crash_after_sends = 10;
    c1.on_tg_completed = [&sj](std::size_t tg) { sj.record_tg_completed(tg); };
    c1.on_parities_sent = [&sj](std::size_t tg, std::size_t hw) {
      sj.record_parities_sent(tg, hw);
    };
    auto& sender = session.add_sender(c1, groups);
    EXPECT_TRUE(session.run_until([&] { return sender.finished(); }));
    run.sender = sender.stats();
    session.end_sender_life();
  }
  EXPECT_TRUE(run.sender.crashed);

  core::SessionJournal sj(journal, fresh);
  UdpNpConfig c2 = cfg;
  c2.incarnation = sj.state().incarnation;
  c2.resume_completed = sj.state().completed;
  c2.resume_parities = sj.state().parities_sent;
  c2.on_tg_completed = [&sj](std::size_t tg) { sj.record_tg_completed(tg); };
  c2.on_parities_sent = [&sj](std::size_t tg, std::size_t hw) {
    sj.record_parities_sent(tg, hw);
  };
  session.add_sender(c2, groups);
  EXPECT_TRUE(session.run()) << "watchdog fired";
  const auto life2 = session.sender().stats();
  session.end_sender_life();
  std::remove(journal.c_str());
  EXPECT_EQ(session.payload_mismatches(), 0u);

  // Fold life-2 counters in so the comparison spans both lives.
  run.sender.data_sent += life2.data_sent;
  run.sender.parity_sent += life2.parity_sent;
  run.sender.polls_sent += life2.polls_sent;
  run.sender.tgs_skipped = life2.tgs_skipped;
  run.tx = session.tx;
  run.receivers = session.results();
  return run;
}

TEST(UdpDifferential, CrashResumeClampsAtTheSameFrame) {
  UdpNpConfig cfg = base_config();
  const auto groups = random_groups(3, cfg.k, cfg.packet_len, 24);
  const auto batched = run_crash_session(UdpBackend::kBatched, groups, cfg,
                                         unique_test_path("batched.log"));
  const auto fallback = run_crash_session(UdpBackend::kFallback, groups, cfg,
                                          unique_test_path("fallback.log"));
  expect_same_wire(batched, fallback);
  EXPECT_EQ(batched.sender.data_sent, fallback.sender.data_sent);
  EXPECT_EQ(batched.sender.polls_sent, fallback.sender.polls_sent);
  EXPECT_EQ(batched.sender.tgs_skipped, fallback.sender.tgs_skipped);
  expect_same_receivers(batched, fallback);
  EXPECT_TRUE(batched.receivers[0].complete);
}

// --- FrameStreamDecoder: deterministic segmentation invariance --------

std::vector<std::uint8_t> wire_frame(fec::PacketType type,
                                     std::uint16_t index, std::uint16_t k,
                                     std::uint16_t n, std::size_t len) {
  fec::Packet p;
  p.header.type = type;
  p.header.tg = 7;
  p.header.index = index;
  p.header.k = k;
  p.header.n = n;
  p.payload.assign(len, static_cast<std::uint8_t>(index + 1));
  p.header.payload_len = static_cast<std::uint32_t>(len);
  return fec::serialize(p);
}

TEST(FrameStream, ParsesConcatenatedFrames) {
  FrameStreamDecoder dec;
  std::vector<std::uint8_t> stream;
  for (std::uint16_t i = 0; i < 4; ++i) {
    const auto f = wire_frame(fec::PacketType::kData, i, 6, 12, 32);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  dec.feed(stream);
  const auto got = dec.take();
  ASSERT_EQ(got.size(), 4u);
  for (std::uint16_t i = 0; i < 4; ++i) EXPECT_EQ(got[i].header.index, i);
  EXPECT_EQ(dec.buffered(), 0u);
  EXPECT_EQ(dec.resyncs(), 0u);
}

TEST(FrameStream, ResyncsPastGarbageAndSkipsSealedInvalid) {
  FrameStreamDecoder dec;
  std::vector<std::uint8_t> stream{0xFF, 0x13, 0x37};  // garbage prefix
  // Sealed but semantically invalid: DATA index in the parity range.
  // payload_len 300 keeps every misaligned length read implausible, so
  // the decoder slides through all 3 garbage offsets instead of pausing
  // on a phantom "frame still arriving" (which would also be correct,
  // but leaves nothing to assert until more bytes land).
  const auto bad = wire_frame(fec::PacketType::kData, 9, 6, 12, 300);
  stream.insert(stream.end(), bad.begin(), bad.end());
  const auto good = wire_frame(fec::PacketType::kParity, 9, 6, 12, 300);
  stream.insert(stream.end(), good.begin(), good.end());
  dec.feed(stream);
  const auto got = dec.take();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].header.type, fec::PacketType::kParity);
  EXPECT_EQ(dec.resyncs(), 3u);  // one slide per garbage byte
  EXPECT_EQ(dec.skipped_invalid(), 1u);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(FrameStream, ArbitrarySegmentationDecodesIdentically) {
  // The deterministic twin of fuzz_frame_batch: valid frames mixed with
  // garbage and a truncated tail, cut at RNG-driven boundaries, must
  // decode exactly like the unsegmented stream.
  std::vector<std::uint8_t> stream;
  Rng noise(77);
  for (std::uint16_t i = 0; i < 8; ++i) {
    if (i % 3 == 1)  // interleave garbage between frames
      for (int g = 0; g < 5; ++g)
        stream.push_back(static_cast<std::uint8_t>(noise()));
    const auto f = wire_frame(
        i % 2 ? fec::PacketType::kParity : fec::PacketType::kData,
        i % 2 ? static_cast<std::uint16_t>(6 + i % 6) : i % 6, 6, 12,
        16 + i);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  stream.resize(stream.size() - 7);  // truncated tail frame

  FrameStreamDecoder whole;
  whole.feed(stream);
  const auto expected = whole.take();
  EXPECT_GT(expected.size(), 0u);

  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    FrameStreamDecoder segmented;
    Rng rng(seed);
    std::size_t pos = 0;
    while (pos < stream.size()) {
      const std::size_t len = std::min<std::size_t>(
          1 + rng() % 61, stream.size() - pos);
      segmented.feed(std::span<const std::uint8_t>(stream).subspan(pos, len));
      pos += len;
    }
    const auto got = segmented.take();
    ASSERT_EQ(got.size(), expected.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_EQ(got[i], expected[i]) << "seed " << seed;
    EXPECT_EQ(segmented.resyncs(), whole.resyncs()) << "seed " << seed;
    EXPECT_EQ(segmented.skipped_invalid(), whole.skipped_invalid());
    EXPECT_EQ(segmented.buffered(), whole.buffered());
  }
}

}  // namespace
}  // namespace pbl::net
