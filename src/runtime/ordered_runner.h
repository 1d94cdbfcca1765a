// OrderedRunner: a per-node worker pool that parallelizes the CPU-heavy
// *prologue* of message handling while keeping the *epilogue* — the actual
// protocol state transition — single-threaded and in original receive
// order.
//
// The shape follows dsnet's SpinOrderedRunner/taskqueue design: every
// submitted task is stamped with a monotonically increasing sequence
// number; workers execute prologues in whatever order the scheduler
// dictates and park each finished epilogue in a completion slot keyed by
// its sequence number; the owning loop thread then pops epilogues strictly
// from the head sequence, so no state transition ever observes a message
// out of receive order. Unlike dsnet we block on condition variables
// instead of spinning — the pool shares cores with every other node's loop
// on CI runners, and TSan-friendly blocking beats burning a core per
// worker.
//
// Threading contract:
//   * Submit / RunReadyEpilogues / Drain are called only by the owning
//     loop thread;
//   * HasReady may be called from any thread (the loop's wait predicate);
//   * prologues run on pool workers and must touch only immutable or
//     internally synchronized state; epilogues run on the loop thread and
//     may mutate node state freely;
//   * the `wakeup` callback fires on a worker thread whenever the head
//     epilogue becomes runnable — it must make the loop thread re-check
//     HasReady (and must not call back into the runner).
//
// Stop() finishes every already-submitted prologue before joining the
// workers (nothing is abandoned mid-task); call Drain() first when the
// epilogues must run too — the wall-clock event loop does exactly that on
// shutdown.

#ifndef PRESTIGE_RUNTIME_ORDERED_RUNNER_H_
#define PRESTIGE_RUNTIME_ORDERED_RUNNER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace prestige {
namespace runtime {

/// Worker pool with sequence-ordered epilogue delivery.
class OrderedRunner {
 public:
  /// Runs on the loop thread, in receive order. May be empty (no-op).
  using Epilogue = std::function<void()>;
  /// Runs on a worker thread; returns the epilogue to deliver in order.
  using Prologue = std::function<Epilogue()>;

  /// Spawns `num_workers` (>= 1) worker threads. `wakeup` is invoked from
  /// a worker whenever HasReady() transitions to true; pass a callback
  /// that nudges the owning loop out of its wait (may be null for callers
  /// that poll, e.g. tests).
  OrderedRunner(size_t num_workers, std::function<void()> wakeup);

  /// Stops the pool (see Stop()).
  ~OrderedRunner();

  OrderedRunner(const OrderedRunner&) = delete;
  OrderedRunner& operator=(const OrderedRunner&) = delete;

  /// Enqueues a prologue, stamping it with the next sequence number. Loop
  /// thread only.
  void Submit(Prologue prologue);

  /// True when the epilogue for the head sequence number has been produced
  /// and RunReadyEpilogues() would make progress. Any thread.
  bool HasReady() const;

  /// Runs every epilogue that is ready in one contiguous run from the
  /// head sequence number; returns how many ran. Loop thread only.
  size_t RunReadyEpilogues();

  /// Blocks until every submitted task's epilogue has run (in order),
  /// executing them on the calling (loop) thread as they become ready.
  /// Loop thread only.
  void Drain();

  /// Finishes all in-flight and pending prologues, then joins the worker
  /// threads. Epilogues not yet delivered stay queued (use Drain() first
  /// to flush them). Idempotent; also called by the destructor.
  void Stop();

  size_t num_workers() const { return workers_.size(); }

  /// Tasks submitted so far (loop thread's own count; exact).
  uint64_t submitted() const;
  /// Epilogues delivered so far (loop thread's own count; exact).
  uint64_t delivered() const;

 private:
  struct Task {
    uint64_t seq = 0;
    Prologue work;
  };

  void WorkerMain();
  /// Pops the contiguous ready run [head_seq_, ...) under mu_.
  std::vector<Epilogue> TakeReadyLocked();

  std::function<void()> wakeup_;

  mutable std::mutex mu_;
  std::condition_variable task_cv_;   ///< Workers wait for pending work.
  std::condition_variable ready_cv_;  ///< Drain waits for the head epilogue.
  std::deque<Task> pending_;
  /// Finished prologues waiting for their turn: seq -> epilogue. Ordered
  /// map so the contiguous run from head_seq_ pops in one sweep.
  std::map<uint64_t, Epilogue> completed_;
  uint64_t next_seq_ = 0;  ///< Next sequence number to stamp.
  uint64_t head_seq_ = 0;  ///< Next sequence number to deliver.
  bool stop_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace runtime
}  // namespace prestige

#endif  // PRESTIGE_RUNTIME_ORDERED_RUNNER_H_
