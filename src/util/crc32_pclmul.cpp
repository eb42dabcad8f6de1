// Carry-less-multiply CRC-32 kernel: folds 64 bytes per step with
// PCLMULQDQ, then reduces 128 -> 64 -> 32 bits with a Barrett step
// (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
// PCLMULQDQ Instruction", Intel, 2009; the constants below are that
// paper's bit-reflected ones for the IEEE 802.3 polynomial).
//
// Compiled with -mpclmul (this TU only — see src/CMakeLists.txt);
// selected at runtime only when __builtin_cpu_supports("pclmul") holds.
#include "util/crc32_kernels.hpp"

#if defined(PBL_CRC_HAVE_PCLMUL) && defined(__PCLMUL__)

#include <emmintrin.h>
#include <wmmintrin.h>

namespace pbl::crc::detail {

namespace {

// Fold distances x^(512±32) and x^(128±32) mod P (reflected, 33-bit),
// the 64 -> 32 fold x^64 mod P, and the Barrett pair P' and mu'.
alignas(16) constexpr std::uint64_t kFold4[2] = {0x0154442bd4, 0x01c6e41596};
alignas(16) constexpr std::uint64_t kFold1[2] = {0x01751997d0, 0x00ccaa009e};
alignas(16) constexpr std::uint64_t kFold64[2] = {0x0163cd6124, 0};
alignas(16) constexpr std::uint64_t kBarrett[2] = {0x01db710641,
                                                   0x01f7011641};

// Shorter inputs cost less through the table loop than the fold setup.
constexpr std::size_t kMinFoldBytes = 64;

inline __m128i load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

inline __m128i constant(const std::uint64_t (&k)[2]) {
  return _mm_load_si128(reinterpret_cast<const __m128i*>(k));
}

// acc * x^d folded onto the next 16 bytes: the high and low halves are
// multiplied by their own distance constants.
inline __m128i fold(__m128i acc, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                     _mm_clmulepi64_si128(acc, k, 0x11)),
                       next);
}

// Raw-register CRC of `len` bytes, len >= 64 and a multiple of 16.
std::uint32_t fold_register(std::uint32_t c, const std::uint8_t* p,
                            std::size_t len) {
  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  len -= 64;

  const __m128i k4 = constant(kFold4);
  for (; len >= 64; p += 64, len -= 64) {
    x0 = fold(x0, k4, load(p));
    x1 = fold(x1, k4, load(p + 16));
    x2 = fold(x2, k4, load(p + 32));
    x3 = fold(x3, k4, load(p + 48));
  }

  const __m128i k1 = constant(kFold1);
  __m128i x = fold(x0, k1, x1);
  x = fold(x, k1, x2);
  x = fold(x, k1, x3);
  for (; len >= 16; p += 16, len -= 16) x = fold(x, k1, load(p));

  // 128 -> 64 bits.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k1, 0x10));
  x = _mm_xor_si128(
      _mm_srli_si128(x, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x, low32), constant(kFold64), 0x00));

  // Barrett reduction 64 -> 32 bits.
  const __m128i kb = constant(kBarrett);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), kb, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), kb, 0x00);
  x = _mm_xor_si128(x, t);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x, 4)));
}

std::uint32_t pclmul_compute(const std::uint8_t* data, std::size_t len,
                             std::uint32_t seed) {
  std::uint32_t c = ~seed;
  if (len >= kMinFoldBytes) {
    const std::size_t bulk = len & ~std::size_t{15};
    c = fold_register(c, data, bulk);
    data += bulk;
    len -= bulk;
  }
  return ~slice8_register(c, data, len);
}

}  // namespace

const Kernel kPclmulKernel{"pclmul", pclmul_compute};

}  // namespace pbl::crc::detail

#endif  // PBL_CRC_HAVE_PCLMUL && __PCLMUL__
