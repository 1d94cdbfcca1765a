// EventLoop: the one wall-clock event loop behind both real-time backends.
//
// It owns everything about hosting runtime::Nodes on OS threads that does
// not depend on how messages travel:
//   * node registration and one event-loop thread per node. All of a
//     node's callbacks (OnStart, OnMessage, OnTimer) run on that thread,
//     preserving the single-threaded-per-node contract of runtime::Env;
//   * the monotonic run clock (epoch at Start()) and the one wall-clock Env:
//     timer service, per-node RNG stream, and Send, which hands the message
//     and its whole target list to the transport in one call;
//   * the in-process mailbox: a mutex-guarded deque per node, drained in one
//     swap per wakeup, plus the delivered counter (bumped once per batch);
//   * one dispatch step per drained batch: OnMessage for each message, in
//     receive order, on the loop thread;
//   * Start/Stop/join.
//
// A transport derives from EventLoop and supplies the three hooks at the
// bottom of the class: Transmit (one Env::Send with all its targets), Wake
// (pop a node's loop out of its wait) and Wait (sleep until there is work,
// then hand over a batch). ThreadedRuntime (threaded_env.h) is the
// in-process transport, SocketRuntime (socket_env.h) the UDP one; each also
// picks its nodes' RNG derivation.
//
// Timer state is owned by the node's loop thread: SetTimer/CancelTimer are
// only legal from the owning node's callbacks (runtime/env.h), so none of it
// needs locking. Thread scheduling makes whole-run behaviour
// nondeterministic: these backends measure real throughput and latency;
// reproducibility is the simulator's job.
//
// Lifecycle: construct → register each node (the transport's AddNode) →
// Start() spawns the loops and runs every OnStart on its own thread → ... →
// Stop() signals and joins. After Stop returns, node state may be inspected
// from the caller's thread (join gives the happens-before edge).

#ifndef PRESTIGE_RUNTIME_EVENT_LOOP_H_
#define PRESTIGE_RUNTIME_EVENT_LOOP_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "runtime/env.h"

namespace prestige {
namespace runtime {

/// Monotonic wall clock: microseconds since the epoch marked by Reset().
class WallClock {
 public:
  WallClock() : epoch_(std::chrono::steady_clock::now()) {}

  /// Marks the run epoch (EventLoop::Start calls this).
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

/// Per-node event loops on wall-clock time; transports derive from it.
class EventLoop {
 public:
  virtual ~EventLoop() = default;

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Marks the clock epoch and spawns one event-loop thread per node; each
  /// loop runs its node's OnStart first.
  void Start();

  /// Signals every loop to exit and joins the threads. Pending messages
  /// and timers are discarded. Idempotent; the transports' destructors
  /// call it.
  void Stop();

  bool started() const { return started_; }
  size_t num_nodes() const { return slots_.size(); }

  /// Microseconds of wall-clock time since Start().
  util::TimeMicros Now() const { return clock_.Now(); }

  /// Total messages handed to nodes so far. Exact at any moment (single
  /// atomic counter), monotone while running.
  uint64_t messages_delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }

 protected:
  struct Inbound {
    NodeId from;
    MessagePtr msg;
  };
  using Batch = std::deque<Inbound>;
  struct Slot;

  /// The Env every hosted node speaks to: clock, timers, RNG, and Send
  /// through the transport.
  class LoopEnv final : public Env {
   public:
    LoopEnv(EventLoop* loop, Slot* slot, NodeId id, util::Rng rng)
        : loop_(loop), slot_(slot), id_(id), rng_(rng) {}

    NodeId id() const override { return id_; }

    void Send(NodeId to, MessagePtr msg) override {
      loop_->Transmit(slot_, &to, 1, msg);
    }
    void Send(const std::vector<NodeId>& targets, MessagePtr msg) override {
      loop_->Transmit(slot_, targets.data(), targets.size(), msg);
    }

    TimerId SetTimer(util::DurationMicros delay, uint64_t tag) override;
    void CancelTimer(TimerId timer) override { live_timers_.erase(timer); }
    void CancelAllTimers() override { live_timers_.clear(); }

    util::TimeMicros Now() const override { return loop_->Now(); }
    util::Rng* rng() override { return &rng_; }

    /// Fires every due, uncancelled timer on `node`; returns the next
    /// pending deadline or -1 when no timer is armed. Loop thread only.
    util::TimeMicros FireDueTimers(Node* node);

   private:
    EventLoop* loop_;
    Slot* slot_;
    NodeId id_;
    util::Rng rng_;
    TimerId next_timer_id_ = 1;
    std::unordered_set<TimerId> live_timers_;
    /// deadline (run micros) -> (timer id, tag); multimap keeps equal
    /// deadlines in arming order.
    std::multimap<util::TimeMicros, std::pair<TimerId, uint64_t>>
        timer_queue_;
  };

  /// One node's share of the loop; transports derive to add their own
  /// per-node state. The mailbox is guarded by `mu`; `stop` is written
  /// under `mu` and atomic so a transport may also poll it outside the
  /// lock. Everything else belongs to the loop thread.
  struct Slot {
    Slot(EventLoop* loop, Node* node_in, NodeId id, util::Rng rng)
        : node(node_in), env(loop, this, id, rng) {}
    virtual ~Slot() = default;
    Slot(const Slot&) = delete;
    Slot& operator=(const Slot&) = delete;

    Node* node;
    LoopEnv env;
    std::mutex mu;
    Batch mailbox;
    std::atomic<bool> stop{false};
    std::thread thread;
  };

  EventLoop() = default;

  /// Binds the node to `slot`'s Env and hosts it under that Env's id.
  /// Must precede Start(); ids must be unused (see Find).
  void Register(std::unique_ptr<Slot> slot);

  /// The slot hosting `id`, or nullptr when `id` lives elsewhere.
  Slot* Find(NodeId id) const {
    return id < by_id_.size() ? by_id_[id] : nullptr;
  }

  const std::vector<std::unique_ptr<Slot>>& slots() const { return slots_; }

  /// Appends to `to`'s mailbox under one lock, then Wakes it. Returns
  /// false when `to` is not hosted here; a stopped receiver drops it.
  bool Post(NodeId to, NodeId from, const MessagePtr& msg);

  // ------------------------------------------------------ transport hooks

  /// Carries one Env::Send: a copy of `msg` to each of the `count` ids at
  /// `targets`, in order, so a transport can do per-message work (encoding,
  /// framing) once for all copies. Runs on the thread that called Send.
  /// That is `from`'s loop thread, with one exception: Client::SubmitAsync
  /// sends its SubmitRequestMsg to its own node from the caller's thread,
  /// to marshal the request onto the loop. That message has no wire form,
  /// so a transport must touch none of `from`'s loop-thread state before
  /// it knows the message is one it serializes.
  virtual void Transmit(Slot* from, const NodeId* targets, size_t count,
                        const MessagePtr& msg) = 0;

  /// Pops `slot`'s loop out of Wait. Called after a mailbox post, and by
  /// Stop with `mu` taken and released first, so a loop that checked its
  /// condition under `mu` cannot miss it.
  virtual void Wake(Slot* slot) = 0;

  /// Sleeps until `slot` has work or `next_deadline` (run micros; -1 = no
  /// timer armed) is due, then moves what arrived into the empty `batch`,
  /// mailbox first. Returns false once the slot is stopped.
  virtual bool Wait(Slot* slot, util::TimeMicros next_deadline,
                    Batch* batch) = 0;

  WallClock clock_;

 private:
  void RunLoop(Slot* slot);
  void Dispatch(Slot* slot, Batch* batch);

  bool started_ = false;
  bool stopped_ = false;
  std::atomic<uint64_t> delivered_{0};
  std::vector<std::unique_ptr<Slot>> slots_;  ///< Registration order.
  std::vector<Slot*> by_id_;                  ///< Indexed by node id.
};

}  // namespace runtime
}  // namespace prestige

#endif  // PRESTIGE_RUNTIME_EVENT_LOOP_H_
