// Memoized SHA-256 digest for block types whose identity fields mutate
// rarely but whose Digest() is read once per protocol message.

#ifndef PRESTIGE_LEDGER_DIGEST_CACHE_H_
#define PRESTIGE_LEDGER_DIGEST_CACHE_H_

#include <atomic>
#include <thread>

#include "crypto/sha256.h"

namespace prestige {
namespace ledger {

/// Lazily computed digest with explicit invalidation.
///
/// The owning block calls Invalidate() from every mutator of a field the
/// digest covers; Get() then recomputes at most once per invalidation.
/// Copying a cache alongside its fields keeps the cached value valid, so
/// blocks remain freely copyable.
///
/// Concurrency: under the threaded runtime a broadcast delivers one shared
/// message — and thus one shared cache — to receivers running on different
/// threads, so concurrent Get() calls on a *published* (no longer mutated)
/// block must be safe. A three-state atomic guards the fill: exactly one
/// thread computes, late arrivals spin until the digest is published.
/// Mutation (Invalidate / the mutating Get that follows) remains
/// single-threaded by the runtime::Env contract — only the block's owner
/// mutates it, and only before sending. On the single-threaded simulator
/// the fast path is one relaxed-ish atomic load, and the compute-once
/// accounting (hash counts) is unchanged.
class DigestCache {
 public:
  DigestCache() = default;

  /// Copies preserve a published value; a copy raced against an in-flight
  /// fill (impossible under the Env contract, but harmless) just starts
  /// invalid and recomputes. Both are noexcept (an atomic and 32 bytes):
  /// a block type's implicit move then stays nothrow, so a growing
  /// std::vector of blocks relocates by move instead of deep-copying
  /// every block.
  DigestCache(const DigestCache& other) noexcept { CopyFrom(other); }
  DigestCache& operator=(const DigestCache& other) noexcept {
    if (this != &other) {
      CopyFrom(other);
    }
    return *this;
  }

  void Invalidate() { state_.store(kEmpty, std::memory_order_relaxed); }
  bool valid() const {
    return state_.load(std::memory_order_acquire) == kValid;
  }

  template <typename ComputeFn>
  const crypto::Sha256Digest& Get(ComputeFn&& compute) const {
    if (state_.load(std::memory_order_acquire) == kValid) {
      return digest_;
    }
    int expected = kEmpty;
    if (state_.compare_exchange_strong(expected, kFilling,
                                       std::memory_order_acq_rel)) {
      digest_ = compute();
      state_.store(kValid, std::memory_order_release);
      return digest_;
    }
    // Another thread owns the fill; wait for it to publish.
    while (state_.load(std::memory_order_acquire) != kValid) {
      std::this_thread::yield();
    }
    return digest_;
  }

 private:
  enum : int { kEmpty = 0, kFilling = 1, kValid = 2 };

  void CopyFrom(const DigestCache& other) noexcept {
    if (other.state_.load(std::memory_order_acquire) == kValid) {
      digest_ = other.digest_;
      state_.store(kValid, std::memory_order_release);
    } else {
      state_.store(kEmpty, std::memory_order_relaxed);
    }
  }

  mutable crypto::Sha256Digest digest_{};
  mutable std::atomic<int> state_{kEmpty};
};

}  // namespace ledger
}  // namespace prestige

#endif  // PRESTIGE_LEDGER_DIGEST_CACHE_H_
