// Internal to the CRC-32 kernels (crc32.cpp, crc32_pclmul.cpp): what the
// ISA-specific translation units share with the portable one.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/crc32.hpp"

namespace pbl::crc::detail {

/// Slicing-by-8 over the raw (already inverted) CRC register: the
/// portable kernel's core, and the head/tail loop of the SIMD kernel.
std::uint32_t slice8_register(std::uint32_t reg, const std::uint8_t* data,
                              std::size_t len);

#if defined(PBL_CRC_HAVE_PCLMUL)
extern const Kernel kPclmulKernel;
#endif

}  // namespace pbl::crc::detail
