#include "loss/trace_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "test_paths.hpp"
#include "util/rng.hpp"

namespace pbl::loss {
namespace {

class TraceIoTest : public ::testing::Test {
 protected:
  std::string temp_path() {
    path_ = unique_test_path("trace.txt");
    return path_;
  }
  void TearDown() override {
    if (!path_.empty()) std::remove(path_.c_str());
  }
  std::string path_;
};

TEST_F(TraceIoTest, RecordSamplesTheProcess) {
  TraceLossModel model({true, false, true});
  auto proc = model.make_process(Rng(1), 0);
  const auto trace = record_trace(*proc, 6, 0.01);
  EXPECT_EQ(trace, (std::vector<bool>{true, false, true, true, false, true}));
}

TEST_F(TraceIoTest, SaveLoadRoundTrip) {
  Rng rng(2);
  std::vector<bool> trace(1000);
  for (auto&& b : trace) b = rng.bernoulli(0.3);
  const auto path = temp_path();
  save_trace(path, trace);
  EXPECT_EQ(load_trace(path), trace);
}

TEST_F(TraceIoTest, EmptyTraceRoundTrips) {
  const auto path = temp_path();
  save_trace(path, {});
  EXPECT_TRUE(load_trace(path).empty());
}

TEST_F(TraceIoTest, LoadRejectsGarbage) {
  const auto path = temp_path();
  {
    std::ofstream out(path);
    out << "0101x01\n";
  }
  EXPECT_THROW(load_trace(path), std::runtime_error);
}

TEST_F(TraceIoTest, MissingFileThrows) {
  EXPECT_THROW(load_trace("/nonexistent/dir/trace.txt"), std::runtime_error);
  EXPECT_THROW(save_trace("/nonexistent/dir/trace.txt", {true}),
               std::runtime_error);
}

TEST_F(TraceIoTest, EmptyFileLoadsAsEmptyTrace) {
  const auto path = temp_path();
  { std::ofstream out(path, std::ios::binary); }
  EXPECT_TRUE(load_trace(path).empty());
}

TEST_F(TraceIoTest, MissingTrailingNewlineStillLoads) {
  const auto path = temp_path();
  {
    std::ofstream out(path, std::ios::binary);
    out << "0011";  // no trailing newline
  }
  EXPECT_EQ(load_trace(path),
            (std::vector<bool>{false, false, true, true}));
}

TEST_F(TraceIoTest, CrlfLineEndingsAreIgnored) {
  const auto path = temp_path();
  {
    std::ofstream out(path, std::ios::binary);
    out << "0101\r\n1010\r\n";
  }
  EXPECT_EQ(load_trace(path),
            (std::vector<bool>{false, true, false, true, true, false, true,
                               false}));
}

TEST_F(TraceIoTest, WhitespaceOnlyFileIsEmptyTrace) {
  const auto path = temp_path();
  {
    std::ofstream out(path, std::ios::binary);
    out << " \t\n\r\n  \n";
  }
  EXPECT_TRUE(load_trace(path).empty());
}

TEST_F(TraceIoTest, LoadErrorNamesThePath) {
  const auto path = temp_path();
  {
    std::ofstream out(path, std::ios::binary);
    out << "01x";
  }
  try {
    (void)load_trace(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
}

TEST_F(TraceIoTest, ParseTraceCoreBehaviour) {
  EXPECT_TRUE(parse_trace("").empty());
  EXPECT_TRUE(parse_trace(" \r\n\t").empty());
  EXPECT_EQ(parse_trace("0 1\t0"),
            (std::vector<bool>{false, true, false}));
  EXPECT_EQ(parse_trace("01\r\n10"),
            (std::vector<bool>{false, true, true, false}));
  EXPECT_THROW(parse_trace("012"), std::runtime_error);
  EXPECT_THROW(parse_trace("2"), std::runtime_error);
  try {
    (void)parse_trace("01x");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    // The error pinpoints the offending character and offset.
    const std::string what = e.what();
    EXPECT_NE(what.find('x'), std::string::npos);
    EXPECT_NE(what.find('2'), std::string::npos);
  }
}

TEST_F(TraceIoTest, GilbertTraceReplaysWithSameStatistics) {
  // Record a calibrated burst trace, persist it, replay it through
  // TraceLossModel, and confirm the statistics carried over.
  const double p = 0.05, burst = 2.0, delta = 0.04;
  const auto gilbert = GilbertLossModel::from_packet_stats(p, burst, delta);
  auto proc = gilbert.make_process(Rng(3), 0);
  const auto trace = record_trace(*proc, 200000, delta);

  const auto path = temp_path();
  save_trace(path, trace);
  TraceLossModel replay(load_trace(path));
  EXPECT_NEAR(replay.mean_loss_probability(), p, 0.01);

  auto rp = replay.make_process(Rng(4), 0);
  std::size_t losses = 0;
  for (std::size_t i = 0; i < trace.size(); ++i)
    if (rp->lost(static_cast<double>(i) * delta)) ++losses;
  std::size_t expected = 0;
  for (const bool b : trace) expected += b ? 1 : 0;
  EXPECT_EQ(losses, expected);  // bit-exact replay
}

}  // namespace
}  // namespace pbl::loss
