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

__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(uint32_t crc,
                                                       const uint8_t* data,
                                                       size_t len) {
  // Single bytes up to an 8-byte boundary, then whole words, then the tail.
  for (; len > 0 && (reinterpret_cast<uintptr_t>(data) & 7u) != 0; --len) {
    crc = _mm_crc32_u8(crc, *data++);
  }
  uint64_t wide = crc;
  for (; len >= 8; len -= 8, data += 8) {
    uint64_t word;
    std::memcpy(&word, data, 8);
    wide = _mm_crc32_u64(wide, word);
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
