#include "granmine/persist/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define GRANMINE_CRC32C_X86 1
#include <nmmintrin.h>
#endif

namespace granmine::persist {

namespace {

constexpr std::uint32_t kPolyReflected = 0x82F63B78u;

// Slicing-by-8 tables: kSlice[0] is the classic bytewise table (one byte
// into the register); kSlice[k][b] is byte b pushed through k more zero
// bytes, so eight table lookups retire eight input bytes at once.
using SliceTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr SliceTables MakeSliceTables() {
  SliceTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? kPolyReflected : 0u);
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr SliceTables kSlice = MakeSliceTables();

std::uint32_t LoadU32Le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

#if GRANMINE_CRC32C_X86

// One `crc32` instruction has a 3-cycle latency but issues every cycle, so
// a single dependent chain runs at a third of the unit's throughput. The
// hardware path splits a long input into three adjacent blocks, runs one
// chain per block, and folds the chains back together: the raw (un-inverted)
// CRC register is linear, so crc(A‖B) = shift_|B|(crc(A)) ⊕ crc₀(B), where
// shift_n advances a register through n zero bytes. A ShiftTable applies
// shift_n for one fixed n with four byte-indexed lookups.
using ShiftTable = std::array<std::array<std::uint32_t, 256>, 4>;

constexpr std::size_t kLongBlock = 8192;
constexpr std::size_t kShortBlock = 256;

__attribute__((target("sse4.2"))) ShiftTable MakeShiftTable(
    std::size_t zero_bytes) {
  // shift_n of each of the 32 single-bit registers; every other register
  // is an XOR of these.
  std::array<std::uint32_t, 32> basis{};
  for (int bit = 0; bit < 32; ++bit) {
    std::uint64_t crc = std::uint64_t{1} << bit;
    for (std::size_t i = 0; i < zero_bytes; i += 8) crc = _mm_crc32_u64(crc, 0);
    basis[static_cast<std::size_t>(bit)] = static_cast<std::uint32_t>(crc);
  }
  ShiftTable table{};
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::uint32_t b = 1; b < 256; ++b) {
      const std::uint32_t low_bit = static_cast<std::uint32_t>(__builtin_ctz(b));
      table[k][b] = table[k][b & (b - 1)] ^ basis[8 * k + low_bit];
    }
  }
  return table;
}

std::uint32_t Shift(const ShiftTable& table, std::uint32_t crc) {
  return table[0][crc & 0xFFu] ^ table[1][(crc >> 8) & 0xFFu] ^
         table[2][(crc >> 16) & 0xFFu] ^ table[3][crc >> 24];
}

struct ShiftTables {
  ShiftTable long_block = MakeShiftTable(kLongBlock);
  ShiftTable short_block = MakeShiftTable(kShortBlock);
};

/// Consumes whole groups of three `block`-byte blocks from [*p, *p + *n).
__attribute__((target("sse4.2"))) std::uint64_t ExtendThreeWay(
    std::uint64_t crc0, std::size_t block, const ShiftTable& shift,
    const std::uint8_t** p, std::size_t* n) {
  while (*n >= 3 * block) {
    const std::uint8_t* next = *p;
    const std::uint8_t* const end = next + block;
    std::uint64_t crc1 = 0;
    std::uint64_t crc2 = 0;
    for (; next < end; next += 8) {
      std::uint64_t w0, w1, w2;
      std::memcpy(&w0, next, 8);
      std::memcpy(&w1, next + block, 8);
      std::memcpy(&w2, next + 2 * block, 8);
      crc0 = _mm_crc32_u64(crc0, w0);
      crc1 = _mm_crc32_u64(crc1, w1);
      crc2 = _mm_crc32_u64(crc2, w2);
    }
    crc0 = Shift(shift, static_cast<std::uint32_t>(crc0)) ^ crc1;
    crc0 = Shift(shift, static_cast<std::uint32_t>(crc0)) ^ crc2;
    *p += 3 * block;
    *n -= 3 * block;
  }
  return crc0;
}

__attribute__((target("sse4.2"))) std::uint32_t ExtendHardware(
    std::uint32_t crc, const std::uint8_t* p, std::size_t n) {
  static const ShiftTables kShifts;
  std::uint64_t reg = ~crc;
  reg = ExtendThreeWay(reg, kLongBlock, kShifts.long_block, &p, &n);
  reg = ExtendThreeWay(reg, kShortBlock, kShifts.short_block, &p, &n);
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    reg = _mm_crc32_u64(reg, word);
  }
  std::uint32_t tail = static_cast<std::uint32_t>(reg);
  for (; n > 0; ++p, --n) tail = _mm_crc32_u8(tail, *p);
  return ~tail;
}

bool CpuHasCrc32c() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

#endif  // GRANMINE_CRC32C_X86

}  // namespace

namespace detail {

std::uint32_t ExtendCrc32cPortable(std::uint32_t crc,
                                   std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  crc = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ LoadU32Le(p);
    crc = kSlice[7][lo & 0xFFu] ^ kSlice[6][(lo >> 8) & 0xFFu] ^
          kSlice[5][(lo >> 16) & 0xFFu] ^ kSlice[4][lo >> 24] ^
          kSlice[3][p[4]] ^ kSlice[2][p[5]] ^ kSlice[1][p[6]] ^
          kSlice[0][p[7]];
  }
  for (; n > 0; ++p, --n) crc = kSlice[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

}  // namespace detail

std::uint32_t ExtendCrc32c(std::uint32_t crc,
                           std::span<const std::uint8_t> data) {
#if GRANMINE_CRC32C_X86
  static const bool kHardware = CpuHasCrc32c();
  if (kHardware) return ExtendHardware(crc, data.data(), data.size());
#endif
  return detail::ExtendCrc32cPortable(crc, data);
}

}  // namespace granmine::persist
