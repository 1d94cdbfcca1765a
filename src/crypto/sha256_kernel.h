// The SHA-256 compression kernels behind crypto::Sha256. Private to
// src/crypto and its tests: callers hash through Sha256, which picks a
// kernel once per process (see sha256.h).
//
// Both kernels fold `blocks` consecutive 64-byte blocks at `data` into the
// eight-word chaining `state` and produce identical output;
// tests/crypto_test.cc (Sha256KernelTest) runs both on the same padded
// messages and compares the final states.

#ifndef PRESTIGE_CRYPTO_SHA256_KERNEL_H_
#define PRESTIGE_CRYPTO_SHA256_KERNEL_H_

#include <cstddef>
#include <cstdint>

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define PRESTIGE_SHA256_SHANI 1
#else
#define PRESTIGE_SHA256_SHANI 0
#endif

namespace prestige {
namespace crypto {
namespace internal {

/// FIPS 180-4 compression in portable C++; runs on every host.
void Sha256CompressPortable(uint32_t state[8], const uint8_t* data,
                            size_t blocks);

#if PRESTIGE_SHA256_SHANI
/// The same compression on the x86 SHA extensions (SHA-NI). Only call it
/// when ShaNiSupported() is true: on other CPUs it is an illegal
/// instruction.
void Sha256CompressShaNi(uint32_t state[8], const uint8_t* data,
                         size_t blocks);
#endif

/// True when this CPU executes the SHA-NI kernel: CPUID reports the SHA
/// extensions and SSE4.1. Always false where the kernel is not compiled.
/// Probes CPUID on every call; Sha256 caches the answer.
bool ShaNiSupported();

}  // namespace internal
}  // namespace crypto
}  // namespace prestige

#endif  // PRESTIGE_CRYPTO_SHA256_KERNEL_H_
