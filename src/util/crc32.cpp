// Portable slicing-by-8 CRC-32 kernel and the runtime dispatcher.  The
// carry-less-multiply kernel lives in crc32_pclmul.cpp so it alone is
// compiled with -mpclmul; this file is built with project-default flags.
#include "util/crc32.hpp"

#include "util/crc32_kernels.hpp"

namespace pbl {

namespace crc::detail {

namespace {

// T[0] is the byte-wise table; T[j][i] advances T[j-1][i] by one more
// zero byte, so eight lookups retire eight input bytes at once.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_slice8_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  t[0] = pbl::detail::kCrc32Table;
  for (std::size_t j = 1; j < 8; ++j)
    for (std::size_t i = 0; i < 256; ++i)
      t[j][i] = (t[j - 1][i] >> 8) ^ t[0][t[j - 1][i] & 0xFFu];
  return t;
}
constexpr auto kSlice8 = make_slice8_tables();

// Byte-assembled little-endian load: endian-neutral, and compilers fold
// it into one unaligned load on little-endian targets.
inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint32_t slice8_compute(const std::uint8_t* data, std::size_t len,
                             std::uint32_t seed) {
  return ~slice8_register(~seed, data, len);
}

}  // namespace

std::uint32_t slice8_register(std::uint32_t c, const std::uint8_t* p,
                              std::size_t len) {
  for (; len >= 8; p += 8, len -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = kSlice8[7][lo & 0xFFu] ^ kSlice8[6][(lo >> 8) & 0xFFu] ^
        kSlice8[5][(lo >> 16) & 0xFFu] ^ kSlice8[4][lo >> 24] ^
        kSlice8[3][hi & 0xFFu] ^ kSlice8[2][(hi >> 8) & 0xFFu] ^
        kSlice8[1][(hi >> 16) & 0xFFu] ^ kSlice8[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) c = kSlice8[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c;
}

namespace {

constexpr Kernel kSlice8Kernel{"slice8", slice8_compute};

bool cpu_supports(const Kernel& k) {
  (void)k;
#if defined(PBL_CRC_HAVE_PCLMUL) && (defined(__GNUC__) || defined(__clang__))
  if (&k == &kPclmulKernel) return __builtin_cpu_supports("pclmul");
#endif
  return true;
}

}  // namespace

}  // namespace crc::detail

namespace crc {

std::span<const Kernel* const> available_kernels() {
  // Ascending preference; built once (thread-safe magic static).
  static const auto list = [] {
    static const Kernel* slots[2];
    std::size_t count = 0;
    slots[count++] = &detail::kSlice8Kernel;
#if defined(PBL_CRC_HAVE_PCLMUL)
    if (detail::cpu_supports(detail::kPclmulKernel))
      slots[count++] = &detail::kPclmulKernel;
#endif
    return std::span<const Kernel* const>(slots, count);
  }();
  return list;
}

const Kernel& active_kernel() {
  static const Kernel& k = *available_kernels().back();
  return k;
}

}  // namespace crc

namespace detail {

std::uint32_t crc32_dispatch(const std::uint8_t* data, std::size_t len,
                             std::uint32_t seed) {
  return crc::active_kernel().compute(data, len, seed);
}

}  // namespace detail

}  // namespace pbl
