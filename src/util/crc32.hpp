// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) for wire-level
// integrity of serialised packets.  RSE is an erasure code: it can repair
// packets that are MISSING but silently mis-decodes if a corrupted packet
// is fed in, so the transport must turn corruption into erasure — that is
// this checksum's job.
//
// Every sealed frame, every parsed frame and every journal record pays
// one CRC over its whole length, so at runtime crc32() routes through a
// kernel chosen once at first use:
//
//   slice8  — slicing-by-8 table loop (8 KiB of tables), runs everywhere
//   pclmul  — carry-less-multiply folding, 64 bytes per step (x86 with
//             PCLMULQDQ; its own translation unit, crc32_pclmul.cpp)
//
// All kernels produce the same values as the byte-at-a-time table loop
// below, which stays as the constant-evaluation path and as the
// reference the equivalence tests hold every kernel to.  See
// docs/KERNELS.md for the numbers.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

namespace pbl {

namespace detail {
constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    table[i] = c;
  }
  return table;
}
inline constexpr auto kCrc32Table = make_crc32_table();

/// The byte-at-a-time reference: constexpr, and the definition every
/// runtime kernel is tested against.
constexpr std::uint32_t crc32_bytewise(std::span<const std::uint8_t> bytes,
                                       std::uint32_t seed = 0) {
  std::uint32_t c = ~seed;
  for (const std::uint8_t b : bytes)
    c = kCrc32Table[(c ^ b) & 0xFFu] ^ (c >> 8);
  return ~c;
}

/// Runtime entry: the active kernel (resolved on first call).
std::uint32_t crc32_dispatch(const std::uint8_t* data, std::size_t len,
                             std::uint32_t seed);
}  // namespace detail

namespace crc {

/// One runtime CRC-32 implementation.  `compute` has crc32()'s exact
/// contract (seed in, finished checksum out) for any length/alignment.
struct Kernel {
  const char* name;  ///< "slice8", "pclmul"
  std::uint32_t (*compute)(const std::uint8_t* data, std::size_t len,
                           std::uint32_t seed);
};

/// Kernels compiled in AND supported by the running CPU, in ascending
/// preference order; the dispatcher uses the last one.
std::span<const Kernel* const> available_kernels();

/// The kernel crc32() routes through at runtime.
const Kernel& active_kernel();

}  // namespace crc

/// CRC-32 of `bytes`; chainable via the `seed` parameter (pass a previous
/// result to continue a running checksum).
constexpr std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                              std::uint32_t seed = 0) {
  if (std::is_constant_evaluated()) return detail::crc32_bytewise(bytes, seed);
  return detail::crc32_dispatch(bytes.data(), bytes.size(), seed);
}

}  // namespace pbl
