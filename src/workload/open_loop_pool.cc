#include "workload/open_loop_pool.h"

#include <algorithm>

#include "app/kv_service.h"
#include "util/timer_tag.h"

namespace prestige {
namespace workload {

namespace {

/// Degenerate parameters are clamped to their smallest meaningful values
/// (same policy as ClientPool / app::KvService) so generators never divide
/// by zero and backpressure never deadlocks on a zero budget.
OpenLoopConfig Normalize(OpenLoopConfig config) {
  if (config.kv_key_space == 0) config.kv_key_space = 1;
  if (config.logical_sessions == 0) config.logical_sessions = 1;
  if (config.num_groups == 0) config.num_groups = 1;
  if (config.max_outstanding == 0) config.max_outstanding = 1;
  return config;
}

}  // namespace

client::ClientConfig OpenLoopPool::ToClientConfig(
    const OpenLoopConfig& config) {
  client::ClientConfig cc;
  cc.client_id = config.pool_id;
  cc.group = config.group;
  cc.f = config.f;
  cc.payload_size = config.payload_size;
  // Same retry ladder as ClientPool: one cheap retransmit at half the
  // complaint deadline before escalating.
  cc.retransmit_after = config.request_timeout / 2;
  cc.request_timeout = config.request_timeout;
  cc.aggregation_window = config.aggregation_window;
  cc.retry_scan_period = config.complaint_scan_period;
  return cc;
}

OpenLoopPool::OpenLoopPool(OpenLoopConfig config)
    : client::Client(ToClientConfig(config)),
      pool_config_(Normalize(config)),
      router_(pool_config_.num_groups, pool_config_.router_salt),
      zipf_(pool_config_.kv_key_space, pool_config_.zipf_theta) {}

void OpenLoopPool::OnStart() {
  client::Client::OnStart();
  // The trace RNG forks off this node's stream at a fixed point (first
  // draw after Client::OnStart), keeping the arrival schedule a pure
  // function of the pool's registration-order seed.
  arrivals_ = std::make_unique<ArrivalGenerator>(pool_config_.arrival,
                                                 rng()->NextUint64());
  next_arrival_ = arrivals_->Next();
  PumpArrivals();
}

void OpenLoopPool::OnTimer(uint64_t tag) {
  const uint64_t kind = util::TimerTagKind<uint64_t>(tag);
  if (kind == kArrivalKind) {
    PumpArrivals();
    return;
  }
  if (kind == kDrainKind) {
    drain_armed_ = false;
    DrainBacklog();
    return;
  }
  client::Client::OnTimer(tag);
}

void OpenLoopPool::PumpArrivals() {
  // Drain every arrival due by now (a timer can fire late on the threaded
  // backend; the catch-up loop keeps offered load on schedule), then sleep
  // until the next one.
  while (!stream_done_ && next_arrival_ <= Now()) {
    if (pool_config_.stop_at != 0 && next_arrival_ > pool_config_.stop_at) {
      stream_done_ = true;
      break;
    }
    ProcessArrival(next_arrival_);
    next_arrival_ = arrivals_->Next();
  }
  if (stream_done_) return;
  if (pool_config_.stop_at != 0 && next_arrival_ > pool_config_.stop_at) {
    stream_done_ = true;  // Backlog keeps draining off completions.
    return;
  }
  SetTimer(std::max<util::DurationMicros>(1, next_arrival_ - Now()),
           util::PackTimerTag(kArrivalKind));
}

void OpenLoopPool::ProcessArrival(util::TimeMicros arrived_at) {
  ++open_stats_.arrivals;
  QueuedArrival arrival;
  arrival.arrived_at = arrived_at;
  arrival.key = PickKey();
  arrival.session = rng()->NextBounded(pool_config_.logical_sessions);

  if (backlog_.empty() && outstanding() < pool_config_.max_outstanding) {
    SubmitArrival(arrival);
    return;
  }
  // Over budget (or behind an existing queue — FIFO admission): wait if
  // the backlog has room, shed if it doesn't. Shedding at admission is
  // what bounds queueing delay, and with it the latency tail.
  if (backlog_.size() < pool_config_.max_backlog) {
    backlog_.push_back(arrival);
    ++open_stats_.backlogged;
    open_stats_.backlog_peak = std::max(
        open_stats_.backlog_peak, static_cast<int64_t>(backlog_.size()));
  } else {
    ++open_stats_.shed;
  }
}

void OpenLoopPool::SubmitArrival(const QueuedArrival& arrival) {
  ++open_stats_.admitted;
  const util::TimeMicros arrived_at = arrival.arrived_at;
  Submit(MakeCommand(arrival.key, arrival.session),
         [this, arrived_at](const client::SubmitResult& result) {
           OnCompletion(arrived_at, result);
         });
}

void OpenLoopPool::OnCompletion(util::TimeMicros arrived_at,
                                const client::SubmitResult& result) {
  (void)result;  // f+1-matched by the client library; success implied.
  const double e2e_ms =
      static_cast<double>(Now() - arrived_at) / 1000.0;
  e2e_latencies_.Add(e2e_ms);
  if (e2e_ms <= pool_config_.slo_ms) ++open_stats_.slo_met;
  // Completions land in reply batches; defer the refill one tick so every
  // slot the batch frees is drained as ONE burst (see kDrainKind).
  if (!backlog_.empty() && !drain_armed_) {
    drain_armed_ = true;
    SetTimer(1, util::PackTimerTag(kDrainKind));
  }
}

void OpenLoopPool::DrainBacklog() {
  if (backlog_.empty()) return;
  int64_t burst = 0;
  while (!backlog_.empty() &&
         outstanding() < pool_config_.max_outstanding) {
    SubmitArrival(backlog_.front());
    backlog_.pop_front();
    ++burst;
  }
  if (burst == 0) return;
  ++open_stats_.drain_bursts;
  open_stats_.max_burst = std::max(open_stats_.max_burst, burst);
  // Adaptive batching: the whole burst rides one ClientBatch instead of
  // waiting out the aggregation window — batches grow exactly when the
  // system is catching up.
  Flush();
}

uint64_t OpenLoopPool::PickKey() {
  uint64_t key = zipf_.Next(rng());
  if (pool_config_.num_groups <= 1) return key;
  // Rejection-sample until the router assigns the key to this pool's
  // group. Expected num_groups draws; the cap only matters for degenerate
  // geometries (more groups than keys this group owns).
  for (int attempt = 0; attempt < 64; ++attempt) {
    if (router_.GroupForKey(key) == pool_config_.group) return key;
    key = zipf_.Next(rng());
  }
  for (uint64_t probe = 0; probe < pool_config_.kv_key_space; ++probe) {
    if (router_.GroupForKey(probe) == pool_config_.group) return probe;
  }
  return key;  // No key in the space routes here; config is unusable.
}

util::SmallBytes OpenLoopPool::MakeCommand(uint64_t key,
                                           uint64_t session) {
  switch (pool_config_.command_kind) {
    case CommandKind::kKvPut:
      // The session id rides as the stored value: sessions exist on the
      // wire (and in the applied state), not as per-session structs.
      return app::kv::EncodePut(key, session);
    case CommandKind::kOpaque:
      break;
  }
  return {};
}

}  // namespace workload
}  // namespace prestige
