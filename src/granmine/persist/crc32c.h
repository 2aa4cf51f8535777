#ifndef GRANMINE_PERSIST_CRC32C_H_
#define GRANMINE_PERSIST_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace granmine::persist {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
/// checksum the snapshot format frames every section with, and the wire
/// protocol every frame. Detects all single-bit and all burst errors up to
/// 32 bits, which the snapshot fuzz suite leans on.
///
/// On x86-64 CPUs with SSE4.2 the checksum runs on the `crc32` instruction
/// (three interleaved streams, recombined with precomputed shift tables);
/// the choice is made once, at the first call, from the CPU's feature bits,
/// so the binary still runs on CPUs without it. Everywhere else a portable
/// slicing-by-8 table computes it. Both produce identical values.
///
/// `Extend(crc, data)` continues a running checksum (start from
/// `kCrc32cInit`, i.e. 0); `Crc32c(data)` is the one-shot form.
inline constexpr std::uint32_t kCrc32cInit = 0;

std::uint32_t ExtendCrc32c(std::uint32_t crc,
                           std::span<const std::uint8_t> data);

inline std::uint32_t Crc32c(std::span<const std::uint8_t> data) {
  return ExtendCrc32c(kCrc32cInit, data);
}

namespace detail {

/// The portable slicing-by-8 routine ExtendCrc32c falls back to. Visible
/// so tests can pin the hardware path against it; callers use
/// ExtendCrc32c.
std::uint32_t ExtendCrc32cPortable(std::uint32_t crc,
                                   std::span<const std::uint8_t> data);

}  // namespace detail

}  // namespace granmine::persist

#endif  // GRANMINE_PERSIST_CRC32C_H_
