// net::Crc32c and its two kernels (crc32c_kernel.h).

#include <array>
#include <cstring>

#include "net/crc32c_kernel.h"
#include "net/frame.h"

#if PRESTIGE_CRC32C_SSE42
#include <cpuid.h>
#include <nmmintrin.h>
#endif

namespace prestige {
namespace net {
namespace {

constexpr uint32_t kCastagnoliReflected = 0x82F63B78u;

/// kTable[b]: the register after shifting byte b through eight zero bits.
constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t crc = b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? kCastagnoliReflected : 0u);
    }
    table[b] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

/// The kernel choice, probed once per process on first use. A function-local
/// static, so a checksum taken during static initialisation probes too and
/// never reads an unset flag.
bool UseSse42() {
  static const bool use = internal::Sse42Supported();
  return use;
}

}  // namespace

namespace internal {

uint32_t Crc32cPortable(uint32_t crc, const uint8_t* data, size_t len) {
  for (size_t i = 0; i < len; ++i) {
    crc = (crc >> 8) ^ kTable[(crc ^ data[i]) & 0xffu];
  }
  return crc;
}

#if PRESTIGE_CRC32C_SSE42

namespace {

// Moving a raw CRC register across n zero bytes multiplies it by x^(8n)
// modulo the polynomial. That is linear in the register, so a table of the
// products of each register byte at each of its four positions turns the
// move into four lookups. The SSE4.2 kernel runs three crc32 chains over
// three adjacent blocks, then moves the earlier chains across the later
// blocks with such a table and XORs the registers together.

/// a * b modulo the Castagnoli polynomial, both reflected (bit 31 is x^0).
constexpr uint32_t MultModP(uint32_t a, uint32_t b) {
  uint32_t product = 0;
  for (uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if ((a & m) != 0) product ^= b;
    b = (b & 1u) != 0 ? (b >> 1) ^ kCastagnoliReflected : b >> 1;
  }
  return product;
}

/// x^(8n) modulo the polynomial: the multiplier that moves a register
/// across n zero bytes.
constexpr uint32_t ZeroBytesOp(size_t n) {
  uint32_t op = 1u << 31;     // x^0
  uint32_t square = 1u << 23;  // x^8
  for (; n != 0; n >>= 1) {
    if ((n & 1u) != 0) op = MultModP(square, op);
    square = MultModP(square, square);
  }
  return op;
}

using ShiftTable = std::array<std::array<uint32_t, 256>, 4>;

/// table[k][b]: the register b << 8k moved across n zero bytes.
constexpr ShiftTable MakeShiftTable(size_t n) {
  const uint32_t op = ZeroBytesOp(n);
  ShiftTable table{};
  for (size_t k = 0; k < 4; ++k) {
    for (uint32_t b = 0; b < 256; ++b) {
      table[k][b] = MultModP(op, b << (8 * k));
    }
  }
  return table;
}

static_assert(kSse42LongBlock % 8 == 0 && kSse42ShortBlock % 8 == 0);
constexpr ShiftTable kShiftLong = MakeShiftTable(kSse42LongBlock);
constexpr ShiftTable kShiftShort = MakeShiftTable(kSse42ShortBlock);

uint32_t Shift(const ShiftTable& table, uint32_t crc) {
  return table[0][crc & 0xffu] ^ table[1][(crc >> 8) & 0xffu] ^
         table[2][(crc >> 16) & 0xffu] ^ table[3][crc >> 24];
}

uint64_t Load64(const uint8_t* p) {
  uint64_t word = 0;
  std::memcpy(&word, p, 8);
  return word;
}

/// Advances `crc` over as many runs of three kBlock-byte blocks as fit in
/// [data, data + len), consuming them.
template <size_t kBlock>
__attribute__((target("sse4.2"))) uint64_t ThreeChains(
    uint64_t crc, const ShiftTable& shift, const uint8_t*& data,
    size_t& len) {
  for (; len >= 3 * kBlock; data += 3 * kBlock, len -= 3 * kBlock) {
    uint64_t crc1 = 0;
    uint64_t crc2 = 0;
    for (size_t i = 0; i < kBlock; i += 8) {
      crc = _mm_crc32_u64(crc, Load64(data + i));
      crc1 = _mm_crc32_u64(crc1, Load64(data + kBlock + i));
      crc2 = _mm_crc32_u64(crc2, Load64(data + 2 * kBlock + i));
    }
    crc = Shift(shift, static_cast<uint32_t>(crc)) ^ crc1;
    crc = Shift(shift, static_cast<uint32_t>(crc)) ^ crc2;
  }
  return crc;
}

}  // namespace

__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(uint32_t crc,
                                                       const uint8_t* data,
                                                       size_t len) {
  // Single bytes up to an 8-byte boundary, then three chains over long and
  // short blocks, then one chain over the remaining words, then the tail.
  for (; len > 0 && (reinterpret_cast<uintptr_t>(data) & 7u) != 0; --len) {
    crc = _mm_crc32_u8(crc, *data++);
  }
  uint64_t wide = crc;
  wide = ThreeChains<kSse42LongBlock>(wide, kShiftLong, data, len);
  wide = ThreeChains<kSse42ShortBlock>(wide, kShiftShort, data, len);
  for (; len >= 8; len -= 8, data += 8) {
    wide = _mm_crc32_u64(wide, Load64(data));
  }
  crc = static_cast<uint32_t>(wide);
  for (; len > 0; --len) crc = _mm_crc32_u8(crc, *data++);
  return crc;
}

#endif  // PRESTIGE_CRC32C_SSE42

bool Sse42Supported() {
#if PRESTIGE_CRC32C_SSE42
  constexpr unsigned int kSse42 = 1u << 20;  // CPUID.1:ECX
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ecx & kSse42) != 0;
#else
  return false;
#endif
}

}  // namespace internal

uint32_t Crc32c(const uint8_t* data, size_t len) {
#if PRESTIGE_CRC32C_SSE42
  if (UseSse42()) return ~internal::Crc32cSse42(~0u, data, len);
#endif
  return ~internal::Crc32cPortable(~0u, data, len);
}

}  // namespace net
}  // namespace prestige
