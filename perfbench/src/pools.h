// Load generators: the repo's client pools with a completion observer.
//
// Each pool is a workload::ClientPool / workload::OpenLoopPool whose
// callbacks also watch its own completed count and feed one Timeline: the
// benchmark's view of the commit timeline. It marks the first commit (end
// of set-up) and the start and end of the measured window (wall time,
// process CPU, completed ops), throws the leader's CrashSwitch, and keeps
// the time of every completion batch after the crash (the failover). The
// pool's loop thread writes it; the main thread reads it after Stop(),
// which joins that thread.

#ifndef PERFBENCH_POOLS_H_
#define PERFBENCH_POOLS_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "util/stats.h"
#include "workload/client_pool.h"
#include "workload/open_loop_pool.h"

namespace perfbench {

/// Process CPU time (all threads), nanoseconds.
int64_t ProcessCpuNs();

/// One point on the commit timeline.
struct Mark {
  int64_t wall_ns = -1;  ///< Steady clock; -1 = not reached.
  int64_t cpu_ns = 0;
  int64_t ops = 0;
  bool reached() const { return wall_ns >= 0; }
};

/// Crash-stop switch around a node: once thrown, the node receives no
/// further messages or timers, exactly like a FaultSpec::Crash replica
/// whose crash time is decided at run time (by the pool that throws it).
class CrashSwitch final : public prestige::runtime::Node {
 public:
  explicit CrashSwitch(prestige::runtime::Node* inner) : inner_(inner) {}

  /// Binds the wrapped node to the backend's Env (after registration).
  void Attach() { inner_->BindEnv(env()); }
  /// Also publish the crash instant here when thrown (tracing).
  void NotifyCrashAt(std::atomic<int64_t>* stamp) { stamp_ = stamp; }
  void Throw(int64_t now_us) {
    crashed_.store(true, std::memory_order_relaxed);
    if (stamp_ != nullptr) stamp_->store(now_us);
  }

  void OnStart() override { inner_->OnStart(); }
  void OnMessage(prestige::runtime::NodeId from,
                 const prestige::runtime::MessagePtr& msg) override {
    if (!crashed_.load(std::memory_order_relaxed)) inner_->OnMessage(from, msg);
  }
  void OnTimer(uint64_t tag) override {
    if (!crashed_.load(std::memory_order_relaxed)) inner_->OnTimer(tag);
  }

 private:
  prestige::runtime::Node* inner_;
  std::atomic<bool> crashed_{false};
  std::atomic<int64_t>* stamp_ = nullptr;
};

/// The commit timeline of one round, shared by both pools.
class Timeline {
 public:
  explicit Timeline(CrashSwitch* leader) : leader_(leader) {}

  // ---- pool loop thread
  /// Notes the pool's completed count `done` at runtime time `now_us`:
  /// marks the first commit and records completions after the crash.
  /// True when `done` changed since the last call.
  bool Observe(int64_t done, int64_t now_us);
  void OpenWindow(int64_t done);
  void CloseWindow(int64_t done);
  /// Throws the leader's CrashSwitch.
  void CrashLeader(int64_t now_us);
  bool crashed() const { return crash_at_us_ >= 0; }
  /// True once a completion followed a silence after the crash longer than
  /// any commit gap of normal operation: the new view serves.
  bool recovered() const { return recovered_; }
  /// The round's work is done; wakes Wait(). Idempotent.
  void Finish();

  // ---- main thread
  /// Waits until Finish() or `timeout_ms`; true when finished.
  bool Wait(int64_t timeout_ms);
  const Mark& first() const { return first_; }
  const Mark& warm() const { return warm_; }
  const Mark& end() const { return end_; }
  int64_t crash_at_us() const { return crash_at_us_; }
  /// End of the outage: the completion that ends the longest silence after
  /// the crash (blocks already in flight may still commit just after it).
  /// Runtime µs, or -1 when no commit followed the crash.
  int64_t OutageEndUs() const;

 private:
  CrashSwitch* leader_;
  int64_t seen_ = 0;
  Mark first_, warm_, end_;
  int64_t crash_at_us_ = -1;
  std::vector<int64_t> after_crash_us_;
  bool recovered_ = false;

  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
};

/// Closed loop with a fixed amount of work: after `warmup_ops` completions
/// the window opens (latency samples reset); at `target_ops` it closes and
/// the leader crashes. Once the new view commits, the pool stops issuing,
/// and the round finishes when every request in flight has completed.
class SaturatePool final : public prestige::workload::ClientPool {
 public:
  SaturatePool(prestige::workload::ClientPoolConfig config,
               int64_t warmup_ops, int64_t target_ops, Timeline* timeline)
      : ClientPool(config),
        warmup_ops_(warmup_ops),
        target_ops_(target_ops),
        timeline_(timeline) {}

  void OnMessage(prestige::runtime::NodeId from,
                 const prestige::runtime::MessagePtr& msg) override;

  /// Submit -> f+1 matched reply latencies of the window, milliseconds.
  prestige::util::Histogram& window_latencies() { return window_; }

 private:
  int64_t warmup_ops_;
  int64_t target_ops_;
  Timeline* timeline_;
  prestige::util::Histogram window_;
};

/// Open loop over a fixed arrival schedule that crashes the leader at
/// runtime time `crash_at_us`. The latency window is [warm_at_us,
/// crash_at_us): fault-free latencies. The work window (ops, CPU) starts at
/// `warm_at_us` too and ends at the crash, or, with `work_to_drain`, when
/// the last arrival (stop_at) has completed or been shed, outage included.
/// The round finishes at that drain point either way.
class OpenPool final : public prestige::workload::OpenLoopPool {
 public:
  OpenPool(prestige::workload::OpenLoopConfig config, int64_t warm_at_us,
           int64_t crash_at_us, bool work_to_drain, Timeline* timeline)
      : OpenLoopPool(config),
        warm_at_us_(warm_at_us),
        crash_at_us_(crash_at_us),
        work_to_drain_(work_to_drain),
        timeline_(timeline) {}

  void OnMessage(prestige::runtime::NodeId from,
                 const prestige::runtime::MessagePtr& msg) override;
  void OnTimer(uint64_t tag) override;

  /// Arrival -> f+1 matched reply latencies of the window, milliseconds.
  prestige::util::Histogram& window_latencies() { return window_e2e_; }
  /// Submit -> f+1 matched reply latencies of the window, milliseconds.
  prestige::util::Histogram& window_submit_latencies() {
    return window_submit_;
  }

 private:
  void Observe();

  int64_t warm_at_us_;
  int64_t crash_at_us_;
  bool work_to_drain_;
  Timeline* timeline_;
  prestige::util::Histogram window_e2e_, window_submit_;
};

}  // namespace perfbench

#endif  // PERFBENCH_POOLS_H_
