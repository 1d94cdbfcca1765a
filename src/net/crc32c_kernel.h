// The CRC32C kernels behind net::Crc32c. Private to src/net and its tests:
// callers checksum through Crc32c, which picks a kernel once per process
// (see frame.h).
//
// Both kernels advance the raw CRC register `crc` (no pre- or
// post-inversion; Crc32c adds those) over `len` bytes at `data` and produce
// identical output; tests/net_wire_test.cc (Crc32cKernelTest) runs both on
// the same input at every length and start alignment and compares.

#ifndef PRESTIGE_NET_CRC32C_KERNEL_H_
#define PRESTIGE_NET_CRC32C_KERNEL_H_

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) && defined(__GNUC__)
#define PRESTIGE_CRC32C_SSE42 1
#else
#define PRESTIGE_CRC32C_SSE42 0
#endif

namespace prestige {
namespace net {
namespace internal {

/// Table-driven CRC32C (Castagnoli, reflected polynomial 0x82F63B78), one
/// byte per step; runs on every host.
uint32_t Crc32cPortable(uint32_t crc, const uint8_t* data, size_t len);

#if PRESTIGE_CRC32C_SSE42
/// The same CRC on the SSE4.2 crc32 instruction, eight bytes per step in
/// three independent chains: while three kSse42LongBlock-byte blocks remain
/// it runs one chain per block, then the same over kSse42ShortBlock-byte
/// blocks, then one chain over what is left. Only call it when
/// Sse42Supported() is true: on other CPUs it is an illegal instruction.
uint32_t Crc32cSse42(uint32_t crc, const uint8_t* data, size_t len);
constexpr size_t kSse42LongBlock = 8192;
constexpr size_t kSse42ShortBlock = 256;
#endif

/// True when this CPU executes the SSE4.2 kernel. Always false where the
/// kernel is not compiled. Probes CPUID on every call; Crc32c caches the
/// answer.
bool Sse42Supported();

}  // namespace internal
}  // namespace net
}  // namespace prestige

#endif  // PRESTIGE_NET_CRC32C_KERNEL_H_
