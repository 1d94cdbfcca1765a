// Runtime-internal pieces shared by the two wall-clock backends
// (ThreadedRuntime, SocketRuntime): the monotonic run clock and the Env
// base that owns a node's id, RNG stream, and timer service. Each backend
// derives its NodeEnv from WallClockEnv and adds only its transport (Send);
// each event loop calls FireDueTimers and keeps its own receive and wake
// path.
//
// Timer state is owned by the node's loop thread: SetTimer/CancelTimer
// are only legal from the owning node's callbacks (runtime/env.h), so none
// of it needs locking.

#ifndef PRESTIGE_RUNTIME_WALL_CLOCK_ENV_H_
#define PRESTIGE_RUNTIME_WALL_CLOCK_ENV_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <unordered_set>
#include <utility>

#include "runtime/env.h"

namespace prestige {
namespace runtime {

/// Monotonic wall clock: microseconds since the epoch marked by Reset().
class WallClock {
 public:
  WallClock() : epoch_(std::chrono::steady_clock::now()) {}

  /// Marks the run epoch (the backends call this at Start()).
  void Reset() { epoch_ = std::chrono::steady_clock::now(); }

  util::TimeMicros Now() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// The steady_clock instant of run time `t` (for timed waits).
  std::chrono::steady_clock::time_point At(util::TimeMicros t) const {
    return epoch_ + std::chrono::microseconds(t);
  }

 private:
  std::chrono::steady_clock::time_point epoch_;
};

/// Env base of the wall-clock backends: everything but the transport.
class WallClockEnv : public Env {
 public:
  WallClockEnv(const WallClock* clock, NodeId id, util::Rng rng)
      : clock_(clock), id_(id), rng_(rng) {}

  NodeId id() const override { return id_; }

  TimerId SetTimer(util::DurationMicros delay, uint64_t tag) override {
    const TimerId timer = next_timer_id_++;
    live_timers_.insert(timer);
    const util::TimeMicros deadline = clock_->Now() + (delay < 0 ? 0 : delay);
    timer_queue_.emplace(deadline, std::make_pair(timer, tag));
    return timer;
  }
  void CancelTimer(TimerId timer) override { live_timers_.erase(timer); }
  void CancelAllTimers() override { live_timers_.clear(); }

  util::TimeMicros Now() const override { return clock_->Now(); }
  util::Rng* rng() override { return &rng_; }

  /// Fires every due, uncancelled timer on `node`; returns the next
  /// pending deadline or -1 when no timer is armed. Loop thread only.
  util::TimeMicros FireDueTimers(Node* node) {
    for (;;) {
      auto it = timer_queue_.begin();
      if (it == timer_queue_.end()) return -1;
      if (it->first > clock_->Now()) return it->first;
      const auto [timer_id, tag] = it->second;
      timer_queue_.erase(it);
      if (live_timers_.erase(timer_id) > 0) node->OnTimer(tag);
    }
  }

 private:
  const WallClock* clock_;
  NodeId id_;
  util::Rng rng_;
  TimerId next_timer_id_ = 1;
  std::unordered_set<TimerId> live_timers_;
  /// deadline (run micros) -> (timer id, tag); multimap keeps equal
  /// deadlines in arming order.
  std::multimap<util::TimeMicros, std::pair<TimerId, uint64_t>> timer_queue_;
};

}  // namespace runtime
}  // namespace prestige

#endif  // PRESTIGE_RUNTIME_WALL_CLOCK_ENV_H_
