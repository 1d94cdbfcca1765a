#include "runtime/threaded_env.h"

namespace prestige {
namespace runtime {

ThreadedRuntime::ThreadedRuntime(uint64_t seed, uint32_t workers_per_node)
    : EventLoop(workers_per_node), root_rng_(seed) {}

ThreadedRuntime::~ThreadedRuntime() { Stop(); }

NodeId ThreadedRuntime::AddNode(Node* node) {
  const NodeId id = static_cast<NodeId>(num_nodes());
  // Same forking discipline as Simulator::AddActor: one child stream per
  // node, drawn from the root in registration order.
  Register(std::make_unique<Mailbox>(this, node, id, root_rng_.Fork()));
  return id;
}

void ThreadedRuntime::Transmit(Slot* from, const NodeId* targets,
                               size_t count, const MessagePtr& msg) {
  for (size_t i = 0; i < count; ++i) Post(targets[i], from->env.id(), msg);
}

void ThreadedRuntime::Wake(Slot* slot) {
  static_cast<Mailbox*>(slot)->cv.notify_one();
}

bool ThreadedRuntime::Wait(Slot* slot, util::TimeMicros next_deadline,
                           Batch* batch) {
  Mailbox* s = static_cast<Mailbox*>(slot);
  std::unique_lock<std::mutex> lock(s->mu);
  for (;;) {
    if (s->stop.load(std::memory_order_relaxed)) return false;
    if (!s->mailbox.empty()) break;
    if (s->runner != nullptr && s->runner->HasReady()) break;
    if (next_deadline >= 0) {
      if (Now() >= next_deadline) break;  // Due: fire on next pass.
      s->cv.wait_until(lock, clock_.At(next_deadline));
      break;  // Re-evaluate timers before sleeping again.
    }
    s->cv.wait(lock);
  }
  // Swap the whole mailbox out — one lock hold, no per-message
  // round-trips (batch is empty here, so this is O(1)).
  batch->swap(s->mailbox);
  return true;
}

}  // namespace runtime
}  // namespace prestige
