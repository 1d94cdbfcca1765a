// ThreadedRuntime: the in-process transport of the wall-clock event loop
// (event_loop.h) — every node on its own OS thread, connected by real
// queues with real contention and no modelled costs.
//
// Send locks the receiver's mailbox, appends the shared message, and
// signals the receiver's condition variable: one lock and one notify per
// copy. Each loop sleeps on that condition variable until its earliest
// timer deadline or the next message.
//
// Delivery is reliable and per-sender FIFO (one deque per receiver);
// cross-sender order is whatever the locks arbitrate, which is exactly the
// nondeterminism a real deployment exhibits. Each node's RNG stream is
// forked from the seed in registration order, like the simulator's.

#ifndef PRESTIGE_RUNTIME_THREADED_ENV_H_
#define PRESTIGE_RUNTIME_THREADED_ENV_H_

#include <condition_variable>
#include <cstdint>

#include "runtime/event_loop.h"

namespace prestige {
namespace runtime {

/// The threaded backend: per-node event loops joined by in-process
/// mailboxes.
class ThreadedRuntime : public EventLoop {
 public:
  /// `seed` feeds the per-node RNG forks (registration order), mirroring
  /// the simulator's seeding discipline.
  explicit ThreadedRuntime(uint64_t seed);
  ~ThreadedRuntime() override;

  /// Registers `node` (non-owning; must outlive the runtime) and binds its
  /// Env. Ids are assigned in call order. Must precede Start().
  NodeId AddNode(Node* node);

 private:
  /// A slot plus the condition variable its loop sleeps on.
  struct Mailbox final : Slot {
    using Slot::Slot;
    std::condition_variable cv;
  };

  void Transmit(Slot* from, const NodeId* targets, size_t count,
                const MessagePtr& msg) override;
  void Wake(Slot* slot) override;
  bool Wait(Slot* slot, util::TimeMicros next_deadline,
            Batch* batch) override;

  util::Rng root_rng_;
};

}  // namespace runtime
}  // namespace prestige

#endif  // PRESTIGE_RUNTIME_THREADED_ENV_H_
