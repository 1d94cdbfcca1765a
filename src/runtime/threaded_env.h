// ThreadedRuntime: hosts runtime::Nodes on real OS threads and wall-clock
// time — the first backend that executes the protocols with true
// concurrency instead of a virtual clock.
//
// Design:
//   * one event-loop thread per node. All of a node's callbacks (OnStart,
//     OnMessage, OnTimer) run on that thread, preserving the
//     single-threaded-per-node contract of runtime::Env;
//   * an in-process loopback transport: Send locks the receiver's mailbox,
//     enqueues the shared message, and signals its condition variable —
//     real queues, real contention, no modelled costs;
//   * monotonic-clock timers: each loop sleeps until its earliest pending
//     deadline or the next message, whichever comes first. Timer state is
//     owned by the loop thread (SetTimer/CancelTimer are only legal from
//     the owning node's callbacks), so it needs no locking;
//   * a deterministically forked RNG per node (registration order), though
//     thread scheduling makes whole-run behaviour nondeterministic — this
//     backend measures real throughput/latency; reproducibility is the
//     simulator's job;
//   * optionally, a per-node OrderedRunner worker pool (`workers_per_node`
//     > 0): the loop drains its mailbox into the pool, workers run each
//     message's stateless prologue (Node::PreVerify) in parallel, and the
//     loop thread applies the resulting epilogues in original receive
//     order — state stays single-threaded-per-node while crypto
//     verification scales across cores. With workers_per_node == 0 (the
//     default) the loop calls OnMessage directly, byte-identical to the
//     historical single-thread path.
//
// Delivery is reliable and per-sender FIFO (a std::deque per receiver);
// cross-sender order is whatever the locks arbitrate, which is exactly the
// nondeterminism a real deployment exhibits.
//
// Lifecycle: construct → AddNode each node (before Start) → Start() spawns
// the loops and runs every OnStart on its own thread → ... → Stop() signals
// and joins. After Stop returns, node state may be inspected from the
// caller's thread (join gives the happens-before edge).

#ifndef PRESTIGE_RUNTIME_THREADED_ENV_H_
#define PRESTIGE_RUNTIME_THREADED_ENV_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/env.h"
#include "runtime/ordered_runner.h"
#include "runtime/wall_clock_env.h"

namespace prestige {
namespace runtime {

/// The threaded backend: a set of per-node event loops plus the loopback
/// transport connecting them.
class ThreadedRuntime {
 public:
  /// `seed` feeds the per-node RNG forks (registration order), mirroring
  /// the simulator's seeding discipline. `workers_per_node` > 0 gives each
  /// node an OrderedRunner pool of that many threads for parallel message
  /// prologues; 0 keeps the classic one-thread-per-node path.
  explicit ThreadedRuntime(uint64_t seed, uint32_t workers_per_node = 0);
  ~ThreadedRuntime();

  ThreadedRuntime(const ThreadedRuntime&) = delete;
  ThreadedRuntime& operator=(const ThreadedRuntime&) = delete;

  /// Registers `node` (non-owning; must outlive the runtime) and binds its
  /// Env. Ids are assigned in call order. Must precede Start().
  NodeId AddNode(Node* node);

  /// Marks the clock epoch and spawns one event-loop thread per node; each
  /// loop runs its node's OnStart first.
  void Start();

  /// Signals every loop to exit and joins the threads. Pending messages
  /// and timers are discarded. Idempotent; also called by the destructor.
  void Stop();

  bool started() const { return started_; }
  size_t num_nodes() const { return nodes_.size(); }
  uint32_t workers_per_node() const { return workers_per_node_; }

  /// Microseconds of wall-clock time since Start().
  util::TimeMicros Now() const { return clock_.Now(); }

  /// Total messages taken off all mailboxes so far. Exact at any moment
  /// (single atomic counter), monotone while running.
  uint64_t messages_delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }

 private:
  struct NodeState;

  /// Env implementation handed to each node: the shared clock/timer/RNG
  /// base plus the loopback transport.
  class NodeEnv final : public WallClockEnv {
   public:
    NodeEnv(ThreadedRuntime* runtime, NodeId id, util::Rng rng)
        : WallClockEnv(&runtime->clock_, id, rng), runtime_(runtime) {}

    void Send(NodeId to, MessagePtr msg) override;
    void Send(const std::vector<NodeId>& targets, MessagePtr msg) override;

   private:
    ThreadedRuntime* runtime_;
  };

  struct Inbound {
    NodeId from;
    MessagePtr msg;
  };

  /// Everything one node's loop owns. Mailbox fields are guarded by `mu`;
  /// the env's timer service is touched only by the loop thread.
  struct NodeState {
    Node* node = nullptr;
    std::unique_ptr<NodeEnv> env;

    // Mailbox (cross-thread, guarded by mu).
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Inbound> inbox;
    bool stop = false;

    /// Prologue worker pool (null when workers_per_node == 0). Created in
    /// Start(), drained and joined by the loop thread on shutdown.
    std::unique_ptr<OrderedRunner> runner;

    std::thread thread;
  };

  void Post(NodeId to, NodeId from, const MessagePtr& msg);
  void RunLoop(NodeState* state);

  uint64_t seed_;
  uint32_t workers_per_node_;
  util::Rng root_rng_;
  bool started_ = false;
  bool stopped_ = false;
  WallClock clock_;
  std::atomic<uint64_t> delivered_{0};
  std::vector<std::unique_ptr<NodeState>> nodes_;
};

}  // namespace runtime
}  // namespace prestige

#endif  // PRESTIGE_RUNTIME_THREADED_ENV_H_
