#include "pools.h"

#include <time.h>

#include <chrono>

#include "trace.h"

namespace perfbench {
namespace {

Mark MarkNow(int64_t ops) {
  Mark mark;
  mark.wall_ns = NowNs();
  mark.cpu_ns = ProcessCpuNs();
  mark.ops = ops;
  return mark;
}

}  // namespace

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

bool Timeline::Observe(int64_t done, int64_t now_us) {
  if (done == seen_) return false;
  seen_ = done;
  if (!first_.reached()) first_ = MarkNow(done);
  if (crashed() && now_us >= crash_at_us_) {
    // Normal operation commits every few milliseconds; a view change takes
    // at least the 800 ms follower timeout.
    constexpr int64_t kSilenceUs = 200000;
    const int64_t prev =
        after_crash_us_.empty() ? crash_at_us_ : after_crash_us_.back();
    after_crash_us_.push_back(now_us);
    if (now_us - prev > kSilenceUs) recovered_ = true;
  }
  return true;
}

void Timeline::OpenWindow(int64_t done) { warm_ = MarkNow(done); }

void Timeline::CloseWindow(int64_t done) { end_ = MarkNow(done); }

void Timeline::CrashLeader(int64_t now_us) {
  leader_->Throw(now_us);
  crash_at_us_ = now_us;
}

void Timeline::Finish() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    done_ = true;
  }
  cv_.notify_all();
}

bool Timeline::Wait(int64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                      [this] { return done_; });
}

int64_t Timeline::OutageEndUs() const {
  int64_t prev = crash_at_us_, best_gap = -1, end = -1;
  for (int64_t t : after_crash_us_) {
    if (t - prev > best_gap) {
      best_gap = t - prev;
      end = t;
    }
    prev = t;
  }
  return end;
}

void SaturatePool::OnMessage(prestige::runtime::NodeId from,
                             const prestige::runtime::MessagePtr& msg) {
  ClientPool::OnMessage(from, msg);
  const int64_t done = committed();
  if (timeline_->Observe(done, Now())) {
    if (!timeline_->warm().reached() && done >= warmup_ops_) {
      timeline_->OpenWindow(done);
      latencies().Reset();
    } else if (timeline_->warm().reached() && !timeline_->crashed() &&
               done >= target_ops_) {
      timeline_->CloseWindow(done);
      window_ = latencies();
      timeline_->CrashLeader(Now());
    } else if (timeline_->recovered() && active()) {
      SetActive(false);  // The new view serves: stop and drain.
    }
  }
  if (timeline_->crashed() && !active() && outstanding() == 0) {
    timeline_->Finish();
  }
}

void OpenPool::OnMessage(prestige::runtime::NodeId from,
                         const prestige::runtime::MessagePtr& msg) {
  OpenLoopPool::OnMessage(from, msg);
  Observe();
}

void OpenPool::OnTimer(uint64_t tag) {
  OpenLoopPool::OnTimer(tag);
  Observe();
}

void OpenPool::Observe() {
  // Runs after every completion batch and every arrival tick, so the
  // window edges and the crash land within one arrival gap of their due
  // times.
  const int64_t done = committed();
  const int64_t now = Now();
  timeline_->Observe(done, now);
  if (!timeline_->warm().reached() && now >= warm_at_us_) {
    timeline_->OpenWindow(done);
    e2e_latencies().Reset();
    latencies().Reset();
  }
  if (!timeline_->crashed() && now >= crash_at_us_) {
    window_e2e_ = e2e_latencies();
    window_submit_ = latencies();
    if (!work_to_drain_) timeline_->CloseWindow(done);
    timeline_->CrashLeader(now);
  }
  const prestige::workload::OpenLoopStats& s = open_stats();
  if (timeline_->crashed() && now > open_config().stop_at &&
      done + s.shed + stats().expired >= s.arrivals) {
    if (!timeline_->end().reached()) timeline_->CloseWindow(done);
    timeline_->Finish();
  }
}

}  // namespace perfbench
