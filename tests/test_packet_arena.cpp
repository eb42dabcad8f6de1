// Property and stress tests for the PacketArena slab allocator: alias
// freedom across arbitrary acquire/release interleavings, full
// re-initialization of recycled frames, typed exhaustion, double-free /
// foreign-frame guards, and the use-after-free canary (ASan-backed when
// the sanitizer is present, stamp-based otherwise).
#include <algorithm>
#include <cstring>
#include <map>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "net/udp/packet_arena.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define PBL_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PBL_TEST_ASAN 1
#endif
#endif

namespace {

using pbl::net::PacketArena;

TEST(PacketArena, HandsOutZeroFilledFramesOfRequestedSize) {
  PacketArena arena(128, 4);
  auto f = arena.acquire();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->bytes.size(), 128u);
  EXPECT_TRUE(std::all_of(f->bytes.begin(), f->bytes.end(),
                          [](std::uint8_t b) { return b == 0; }));
  EXPECT_EQ(arena.live(), 1u);
}

TEST(PacketArena, ExhaustionReturnsTypedEmptyNotThrow) {
  PacketArena arena(64, 3);
  std::vector<PacketArena::Frame> held;
  for (int i = 0; i < 3; ++i) {
    auto f = arena.acquire();
    ASSERT_TRUE(f.has_value());
    held.push_back(*f);
  }
  EXPECT_EQ(arena.live(), 3u);
  EXPECT_FALSE(arena.acquire().has_value());  // typed exhaustion, no throw
  arena.release(held.back());
  held.pop_back();
  EXPECT_TRUE(arena.acquire().has_value());
}

TEST(PacketArena, LiveFramesNeverAlias) {
  PacketArena arena(256, 16);
  std::vector<PacketArena::Frame> held;
  for (int i = 0; i < 16; ++i) held.push_back(*arena.acquire());
  // Pairwise-disjoint address ranges.
  for (std::size_t a = 0; a < held.size(); ++a) {
    for (std::size_t b = a + 1; b < held.size(); ++b) {
      const auto* lo_a = held[a].bytes.data();
      const auto* hi_a = lo_a + held[a].bytes.size();
      const auto* lo_b = held[b].bytes.data();
      const auto* hi_b = lo_b + held[b].bytes.size();
      EXPECT_TRUE(hi_a <= lo_b || hi_b <= lo_a)
          << "frames " << held[a].index << " and " << held[b].index
          << " overlap";
    }
  }
  // Writing a distinct pattern into each frame must not leak across.
  for (std::size_t i = 0; i < held.size(); ++i)
    std::memset(held[i].bytes.data(), static_cast<int>(i + 1),
                held[i].bytes.size());
  for (std::size_t i = 0; i < held.size(); ++i)
    EXPECT_TRUE(std::all_of(
        held[i].bytes.begin(), held[i].bytes.end(),
        [&](std::uint8_t b) { return b == static_cast<std::uint8_t>(i + 1); }));
}

TEST(PacketArena, RecycledFramesAreFullyReinitialized) {
  PacketArena arena(96, 2);
  auto f = *arena.acquire();
  std::memset(f.bytes.data(), 0xAB, f.bytes.size());
  arena.release(f);
  // The recycled frame must come back all-zero regardless of what the
  // previous life wrote (no stale-byte leakage into shorter packets).
  for (int round = 0; round < 4; ++round) {
    auto g = *arena.acquire();
    EXPECT_TRUE(std::all_of(g.bytes.begin(), g.bytes.end(),
                            [](std::uint8_t b) { return b == 0; }));
    std::memset(g.bytes.data(), 0xCD, g.bytes.size());
    arena.release(g);
  }
  EXPECT_EQ(arena.canary_violations(), 0u);
}

TEST(PacketArena, DoubleFreeAndForeignFrameThrow) {
  PacketArena arena(32, 2);
  auto f = *arena.acquire();
  arena.release(f);
  EXPECT_THROW(arena.release(f), std::logic_error);
  PacketArena::Frame foreign{99, {}};
  EXPECT_THROW(arena.release(foreign), std::invalid_argument);
}

TEST(PacketArena, ReleaseAllResetsEveryLiveFrame) {
  PacketArena arena(64, 8);
  for (int i = 0; i < 5; ++i) {
    auto f = *arena.acquire();
    std::memset(f.bytes.data(), 0xEE, f.bytes.size());
  }
  EXPECT_EQ(arena.live(), 5u);
  arena.release_all();
  EXPECT_EQ(arena.live(), 0u);
  for (int i = 0; i < 8; ++i) {
    auto f = arena.acquire();
    ASSERT_TRUE(f.has_value());
    EXPECT_TRUE(std::all_of(f->bytes.begin(), f->bytes.end(),
                            [](std::uint8_t b) { return b == 0; }));
  }
  EXPECT_EQ(arena.canary_violations(), 0u);
}

// Property test: a long random interleaving of acquire/release never
// aliases two live frames, never loses capacity, and every acquire hands
// back a zeroed frame.
TEST(PacketArena, RandomInterleavingPreservesInvariants) {
  constexpr std::size_t kFrames = 24;
  constexpr std::size_t kFrameSize = 80;
  PacketArena arena(kFrameSize, kFrames);
  std::mt19937 rng(0xA12E7Au);
  std::map<std::size_t, PacketArena::Frame> live;  // index -> frame
  std::map<std::size_t, std::uint8_t> pattern;     // index -> fill byte

  for (int step = 0; step < 20000; ++step) {
    const bool do_acquire =
        live.empty() || (live.size() < kFrames && (rng() & 1));
    if (do_acquire) {
      auto f = arena.acquire();
      ASSERT_TRUE(f.has_value());
      ASSERT_EQ(live.count(f->index), 0u) << "arena handed out a live frame";
      ASSERT_TRUE(std::all_of(f->bytes.begin(), f->bytes.end(),
                              [](std::uint8_t b) { return b == 0; }));
      const auto fill = static_cast<std::uint8_t>((rng() % 255) + 1);
      std::memset(f->bytes.data(), fill, f->bytes.size());
      pattern[f->index] = fill;
      live.emplace(f->index, *f);
    } else {
      auto it = live.begin();
      std::advance(it, rng() % live.size());
      // The frame's pattern must still be intact: nothing else wrote it.
      ASSERT_TRUE(std::all_of(
          it->second.bytes.begin(), it->second.bytes.end(),
          [&](std::uint8_t b) { return b == pattern[it->first]; }))
          << "live frame " << it->first << " was scribbled on";
      arena.release(it->second);
      pattern.erase(it->first);
      live.erase(it);
    }
    ASSERT_EQ(arena.live(), live.size());
  }
  EXPECT_EQ(arena.canary_violations(), 0u);
}

TEST(PacketArena, ExhaustionRecoveryChurnStaysCleanAcrossGenerations) {
  // The burst engine's overload pattern (src/server/session_driver.cpp):
  // fill the arena to exhaustion, flush, release_all, refill — thousands
  // of generations on a deliberately undersized slab.  Every generation
  // must see virgin zero-filled frames, never an aliased or stale one,
  // and the canary must stay silent throughout.
  PacketArena arena(96, 2);  // smaller than any realistic burst
  std::mt19937 rng(20260808);
  for (int generation = 0; generation < 2000; ++generation) {
    std::vector<PacketArena::Frame> batch;
    while (auto f = arena.acquire()) {
      ASSERT_TRUE(std::all_of(f->bytes.begin(), f->bytes.end(),
                              [](std::uint8_t b) { return b == 0; }))
          << "generation " << generation;
      // Scribble a generation-unique pattern, as frame writers do.
      std::memset(f->bytes.data(), static_cast<int>(generation & 0xFF),
                  f->bytes.size());
      batch.push_back(*f);
    }
    ASSERT_EQ(batch.size(), arena.capacity());  // exhaustion, not leakage
    ASSERT_EQ(arena.live(), arena.capacity());
    // Half the generations release frame-by-frame (the retry path), half
    // in one sweep (the burst-complete path).
    if (rng() % 2 == 0) {
      for (const auto& f : batch) arena.release(f);
    } else {
      arena.release_all();
    }
    ASSERT_EQ(arena.live(), 0u);
  }
  EXPECT_EQ(arena.canary_violations(), 0u);
}

#ifdef PBL_TEST_ASAN
// Under ASan a released frame is poisoned: any touch must abort with a
// use-after-free report.  Death test keeps the abort out of this process.
TEST(PacketArenaDeathTest, TouchingReleasedFrameDiesUnderAsan) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        PacketArena arena(64, 2);
        auto f = *arena.acquire();
        arena.release(f);
        f.bytes[0] = 0x42;  // use-after-free
      },
      "");
}
#else
// Without ASan the canary stamp is the detector: a stale writer that
// scribbles on a freed frame is counted at the next acquire.
TEST(PacketArena, CanaryCountsUseAfterFreeWriter) {
  // 1050 bytes: the canary scan's word loop ends 2 bytes short of the
  // frame, so the last byte is checked by the tail loop.
  constexpr std::size_t kSize = 1050;
  static_assert(kSize % 8 != 0);
  PacketArena arena(kSize, 1);
  std::size_t expected = 0;
  for (const std::size_t at : {std::size_t{0}, std::size_t{7}, kSize / 2,
                               kSize - 3, kSize - 1}) {
    auto f = *arena.acquire();
    std::uint8_t* stale = f.bytes.data();
    arena.release(f);
    stale[at] = 0x42;  // use-after-free write a real bug would make
    auto g = arena.acquire();
    ASSERT_TRUE(g.has_value());
    EXPECT_EQ(arena.canary_violations(), ++expected) << "byte " << at;
    // The frame is still zero-filled for its new life despite the scribble.
    EXPECT_TRUE(std::all_of(g->bytes.begin(), g->bytes.end(),
                            [](std::uint8_t b) { return b == 0; }));
    arena.release(*g);
  }
  // An untouched release/acquire cycle adds nothing.
  arena.release(*arena.acquire());
  ASSERT_TRUE(arena.acquire().has_value());
  EXPECT_EQ(arena.canary_violations(), expected);
}
#endif

}  // namespace
