// 48-bit timer-tag packing shared by every protocol and the runtime layer.
//
// Timers carry one opaque uint64_t tag. By convention the top 16 bits hold
// a protocol-defined kind (an enum) and the low 48 bits an optional
// payload. Each protocol used to re-implement this split privately
// (PrestigeReplica::Tag and copies in the baselines); it lives here once so
// runtime::Env implementations, protocols, and tests agree on the layout.
//
// The 48-bit payload ceiling is a real protocol constraint: wider keys
// (e.g. complaint request ids) do NOT fit and must be routed through an
// indirection table instead of being truncated into the tag — truncation
// silently breaks the timer's lookup on fire (found the hard way in PR 2).

#ifndef PRESTIGE_UTIL_TIMER_TAG_H_
#define PRESTIGE_UTIL_TIMER_TAG_H_

#include <cstdint>

namespace prestige {
namespace util {

/// Bits of payload a timer tag can carry alongside its kind.
constexpr int kTimerTagPayloadBits = 48;

/// Mask selecting the payload bits of a packed tag.
constexpr uint64_t kTimerTagPayloadMask =
    (uint64_t{1} << kTimerTagPayloadBits) - 1;

/// Largest payload representable without truncation.
constexpr uint64_t kTimerTagMaxPayload = kTimerTagPayloadMask;

/// Packs (kind, payload) into one tag. `Kind` is any enum (or integer)
/// whose values fit in 16 bits; payloads wider than 48 bits are masked —
/// callers owning wider keys must map them through a table first (see
/// PrestigeReplica::complaint_probe_keys_).
template <typename Kind>
constexpr uint64_t PackTimerTag(Kind kind, uint64_t payload = 0) {
  return (static_cast<uint64_t>(kind) << kTimerTagPayloadBits) |
         (payload & kTimerTagPayloadMask);
}

/// Recovers the kind of a packed tag.
template <typename Kind>
constexpr Kind TimerTagKind(uint64_t tag) {
  return static_cast<Kind>(tag >> kTimerTagPayloadBits);
}

/// Recovers the payload of a packed tag.
constexpr uint64_t TimerTagPayload(uint64_t tag) {
  return tag & kTimerTagPayloadMask;
}

}  // namespace util
}  // namespace prestige

#endif  // PRESTIGE_UTIL_TIMER_TAG_H_
