#include "runtime/event_loop.h"

#include <cassert>

namespace prestige {
namespace runtime {

void EventLoop::Register(std::unique_ptr<Slot> slot) {
  assert(!started_ && "nodes must be registered before Start()");
  const NodeId id = slot->env.id();
  assert(Find(id) == nullptr && "node id registered twice");
  slot->node->BindEnv(&slot->env);
  if (id >= by_id_.size()) by_id_.resize(size_t{id} + 1, nullptr);
  by_id_[id] = slot.get();
  slots_.push_back(std::move(slot));
}

void EventLoop::Start() {
  assert(!started_);
  started_ = true;
  stopped_ = false;
  clock_.Reset();
  for (auto& owned : slots_) {
    Slot* s = owned.get();
    s->thread = std::thread([this, s]() { RunLoop(s); });
  }
}

void EventLoop::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  for (auto& s : slots_) {
    {
      std::lock_guard<std::mutex> lock(s->mu);
      s->stop.store(true, std::memory_order_relaxed);
    }
    Wake(s.get());
  }
  for (auto& s : slots_) {
    if (s->thread.joinable()) s->thread.join();
  }
}

bool EventLoop::Post(NodeId to, NodeId from, const MessagePtr& msg) {
  Slot* target = Find(to);
  if (target == nullptr) return false;
  {
    std::lock_guard<std::mutex> lock(target->mu);
    if (target->stop.load(std::memory_order_relaxed)) return true;
    target->mailbox.push_back(Inbound{from, msg});
  }
  Wake(target);
  return true;
}

void EventLoop::RunLoop(Slot* s) {
  s->node->OnStart();
  Batch batch;
  // Fire whatever is due, then wait at most until the next deadline.
  while (Wait(s, s->env.FireDueTimers(s->node), &batch)) {
    Dispatch(s, &batch);
  }
}

void EventLoop::Dispatch(Slot* s, Batch* batch) {
  delivered_.fetch_add(batch->size(), std::memory_order_relaxed);
  for (Inbound& in : *batch) s->node->OnMessage(in.from, in.msg);
  batch->clear();
}

// ------------------------------------------------------------------ LoopEnv

TimerId EventLoop::LoopEnv::SetTimer(util::DurationMicros delay,
                                     uint64_t tag) {
  const TimerId timer = next_timer_id_++;
  live_timers_.insert(timer);
  const util::TimeMicros deadline = Now() + (delay < 0 ? 0 : delay);
  timer_queue_.emplace(deadline, std::make_pair(timer, tag));
  return timer;
}

util::TimeMicros EventLoop::LoopEnv::FireDueTimers(Node* node) {
  for (;;) {
    auto it = timer_queue_.begin();
    if (it == timer_queue_.end()) return -1;
    if (it->first > Now()) return it->first;
    const auto [timer_id, tag] = it->second;
    timer_queue_.erase(it);
    if (live_timers_.erase(timer_id) > 0) node->OnTimer(tag);
  }
}

}  // namespace runtime
}  // namespace prestige
