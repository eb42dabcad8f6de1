#include "util/crc32.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace pbl {
namespace {

std::uint32_t crc_of(std::string_view s) {
  return crc32({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

TEST(Crc32, KnownVectors) {
  // The IEEE 802.3 check value.
  EXPECT_EQ(crc_of("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc_of(""), 0x00000000u);
  EXPECT_EQ(crc_of("a"), 0xE8B7BE43u);
  EXPECT_EQ(crc_of("abc"), 0x352441C2u);
}

TEST(Crc32, ChainingMatchesOneShot) {
  const std::string_view s = "parity-based loss recovery";
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(s.data());
  const std::uint32_t whole = crc32({bytes, s.size()});
  const std::uint32_t part = crc32({bytes + 10, s.size() - 10},
                                   crc32({bytes, 10}));
  EXPECT_EQ(part, whole);
}

TEST(Crc32, DetectsSingleBitFlips) {
  Rng rng(1);
  std::vector<std::uint8_t> data(256);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  const std::uint32_t original = crc32(data);
  for (std::size_t trial = 0; trial < 200; ++trial) {
    const std::size_t byte = rng.below(data.size());
    const std::uint8_t bit = static_cast<std::uint8_t>(1u << rng.below(8));
    data[byte] ^= bit;
    EXPECT_NE(crc32(data), original);
    data[byte] ^= bit;
  }
}

// --- Runtime kernels vs the constexpr byte-wise reference ------------

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng());
  return v;
}

TEST(Crc32Kernels, SliceByEightIsAlwaysAvailableAndDispatchPicksTheBest) {
  const auto kernels = crc::available_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.front()->name, "slice8");
  EXPECT_EQ(&crc::active_kernel(), kernels.back());
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  // The folding kernel must be compiled in wherever the CPU can run it,
  // or the equivalence tests below would silently skip it.
  if (__builtin_cpu_supports("pclmul")) {
    EXPECT_STREQ(kernels.back()->name, "pclmul");
  }
#endif
}

TEST(Crc32Kernels, EveryLengthUpTo4KiBMatchesReference) {
  const auto data = random_bytes(4096, 11);
  for (const crc::Kernel* k : crc::available_kernels()) {
    for (std::size_t len = 0; len <= data.size(); ++len) {
      const std::span<const std::uint8_t> s(data.data(), len);
      ASSERT_EQ(k->compute(s.data(), s.size(), 0), detail::crc32_bytewise(s))
          << k->name << " len " << len;
    }
  }
}

TEST(Crc32Kernels, SixtyFourKiBMatchesReference) {
  const auto data = random_bytes(64 * 1024, 12);
  const std::uint32_t want = detail::crc32_bytewise(data);
  for (const crc::Kernel* k : crc::available_kernels())
    EXPECT_EQ(k->compute(data.data(), data.size(), 0), want) << k->name;
  EXPECT_EQ(crc32(data), want);
}

TEST(Crc32Kernels, EveryStartAlignmentMatchesReference) {
  const auto data = random_bytes(2048 + 16, 13);
  constexpr std::size_t kLens[] = {0, 1, 15, 16, 63, 64, 65, 127, 1046, 2048};
  for (const crc::Kernel* k : crc::available_kernels()) {
    for (std::size_t align = 0; align < 16; ++align) {
      for (const std::size_t len : kLens) {
        const std::span<const std::uint8_t> s(data.data() + align, len);
        EXPECT_EQ(k->compute(s.data(), s.size(), 0),
                  detail::crc32_bytewise(s))
            << k->name << " align " << align << " len " << len;
      }
    }
  }
}

TEST(Crc32Kernels, ChainedSeedsMatchReference) {
  const auto data = random_bytes(3000, 14);
  const std::uint32_t whole = detail::crc32_bytewise(data);
  constexpr std::size_t kCuts[] = {0, 1, 15, 64, 100, 1046, 2999, 3000};
  for (const crc::Kernel* k : crc::available_kernels()) {
    for (const std::size_t cut : kCuts) {
      const std::uint32_t head = k->compute(data.data(), cut, 0);
      EXPECT_EQ(head, detail::crc32_bytewise({data.data(), cut}));
      EXPECT_EQ(k->compute(data.data() + cut, data.size() - cut, head), whole)
          << k->name << " cut " << cut;
    }
    // Arbitrary seeds, not only chained results.
    for (const std::uint32_t seed : {0x00000001u, 0xDEADBEEFu, 0xFFFFFFFFu}) {
      EXPECT_EQ(k->compute(data.data(), 777, seed),
                detail::crc32_bytewise({data.data(), 777}, seed))
          << k->name << " seed " << seed;
    }
  }
}

TEST(Crc32Kernels, KnownVectorsOnEveryKernel) {
  const std::string_view s = "123456789";
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(s.data());
  for (const crc::Kernel* k : crc::available_kernels())
    EXPECT_EQ(k->compute(bytes, s.size(), 0), 0xCBF43926u) << k->name;
}

TEST(Crc32, ConstexprUsable) {
  constexpr std::array<std::uint8_t, 3> arr{1, 2, 3};
  constexpr std::uint32_t c = crc32(std::span<const std::uint8_t>(arr));
  static_assert(c != 0);
  EXPECT_EQ(c, crc32(std::span<const std::uint8_t>(arr)));
}

}  // namespace
}  // namespace pbl
