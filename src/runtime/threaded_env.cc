#include "runtime/threaded_env.h"

#include <cassert>

namespace prestige {
namespace runtime {

ThreadedRuntime::ThreadedRuntime(uint64_t seed, uint32_t workers_per_node)
    : seed_(seed),
      workers_per_node_(workers_per_node),
      root_rng_(seed) {}

ThreadedRuntime::~ThreadedRuntime() { Stop(); }

NodeId ThreadedRuntime::AddNode(Node* node) {
  assert(!started_ && "AddNode must precede Start()");
  const NodeId id = static_cast<NodeId>(nodes_.size());
  auto state = std::make_unique<NodeState>();
  state->node = node;
  // Same forking discipline as Simulator::AddActor: one child stream per
  // node, drawn from the root in registration order.
  state->env = std::make_unique<NodeEnv>(this, id, root_rng_.Fork());
  node->BindEnv(state->env.get());
  nodes_.push_back(std::move(state));
  return id;
}

void ThreadedRuntime::Start() {
  assert(!started_);
  started_ = true;
  stopped_ = false;
  clock_.Reset();
  for (auto& state : nodes_) {
    NodeState* s = state.get();
    if (workers_per_node_ > 0) {
      // The wakeup must pass through the mailbox mutex: a bare notify
      // could land between the loop's predicate check (which saw no ready
      // epilogue) and its wait, and be lost.
      s->runner = std::make_unique<OrderedRunner>(workers_per_node_, [s]() {
        { std::lock_guard<std::mutex> lock(s->mu); }
        s->cv.notify_one();
      });
    }
    s->thread = std::thread([this, s]() { RunLoop(s); });
  }
}

void ThreadedRuntime::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  for (auto& state : nodes_) {
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->stop = true;
    }
    state->cv.notify_one();
  }
  for (auto& state : nodes_) {
    if (state->thread.joinable()) state->thread.join();
  }
}

void ThreadedRuntime::Post(NodeId to, NodeId from, const MessagePtr& msg) {
  if (to >= nodes_.size()) return;
  NodeState* target = nodes_[to].get();
  {
    std::lock_guard<std::mutex> lock(target->mu);
    if (target->stop) return;
    target->inbox.push_back(Inbound{from, msg});
  }
  target->cv.notify_one();
}

void ThreadedRuntime::RunLoop(NodeState* s) {
  s->node->OnStart();
  OrderedRunner* runner = s->runner.get();
  std::deque<Inbound> batch;
  for (;;) {
    // Fire whatever is due, then learn how long we may sleep.
    const util::TimeMicros next_deadline = s->env->FireDueTimers(s->node);
    {
      std::unique_lock<std::mutex> lock(s->mu);
      for (;;) {
        if (s->stop) {
          lock.unlock();
          if (runner != nullptr) {
            // Messages already handed to the pool count as delivered:
            // finish their prologues and apply their epilogues in order,
            // then join the workers. Messages still in the inbox are
            // discarded, as on the classic path.
            runner->Drain();
            runner->Stop();
          }
          return;
        }
        if (!s->inbox.empty()) break;
        if (runner != nullptr && runner->HasReady()) break;
        if (next_deadline >= 0) {
          if (Now() >= next_deadline) break;  // Due: fire on next pass.
          s->cv.wait_until(lock, clock_.At(next_deadline));
          break;  // Re-evaluate timers before sleeping again.
        }
        s->cv.wait(lock);
      }
      // Swap the whole mailbox out — one lock hold, no per-message
      // round-trips (batch is empty here, so this is O(1)).
      batch.swap(s->inbox);
    }
    delivered_.fetch_add(batch.size(), std::memory_order_relaxed);
    if (runner == nullptr) {
      for (Inbound& in : batch) {
        s->node->OnMessage(in.from, in.msg);
      }
    } else {
      // Parallel path: stamp each message into the pool in receive order;
      // workers run the stateless prologue (Node::PreVerify), and the
      // epilogues come back to this thread strictly in stamp order.
      for (Inbound& in : batch) {
        Node* node = s->node;
        const NodeId from = in.from;
        MessagePtr msg = std::move(in.msg);
        runner->Submit(
            [node, from, msg]() -> OrderedRunner::Epilogue {
              OrderedRunner::Epilogue verdict = node->PreVerify(from, msg);
              if (verdict) return verdict;
              // Declined: the whole handler becomes the epilogue, exactly
              // the classic single-thread delivery, just in-order later.
              return [node, from, msg]() { node->OnMessage(from, msg); };
            });
      }
      runner->RunReadyEpilogues();
    }
    batch.clear();
  }
}

// ------------------------------------------------------------------ NodeEnv

void ThreadedRuntime::NodeEnv::Send(NodeId to, MessagePtr msg) {
  runtime_->Post(to, id(), msg);
}

void ThreadedRuntime::NodeEnv::Send(const std::vector<NodeId>& targets,
                                    MessagePtr msg) {
  for (NodeId to : targets) {
    runtime_->Post(to, id(), msg);
  }
}

}  // namespace runtime
}  // namespace prestige
