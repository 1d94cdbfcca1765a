// OpenLoopPool: an open-loop arrival engine multiplexing a large population
// of lightweight logical sessions over ONE client::Client instance.
//
// Where ClientPool drives N closed loops (each session waits for its
// previous request), OpenLoopPool decouples offered load from completions:
// an ArrivalGenerator (workload/arrival.h) schedules request arrivals on a
// Poisson / ramp / constant trace, each arrival belongs to one of
// `logical_sessions` simulated sessions, and the session's key is drawn
// from a zipfian or uniform popularity distribution (workload/key_dist.h).
// Millions of sessions cost nothing per session: a session is just an id
// carried in the command, not a struct — the Client's (pool, client_seq)
// space is the only per-request state.
//
// Backpressure (overload is the point of open loop):
//   * at most `max_outstanding` requests are in flight; arrivals beyond
//     that wait in a bounded backlog (their queueing time counts toward
//     end-to-end latency);
//   * a full backlog sheds new arrivals at admission (counted, never
//     submitted) — bounded queues are what keep tail latency inside the
//     SLO while the system runs at capacity;
//   * adaptive batching: when completions free capacity, the backlog
//     drains in one burst sized to the free in-flight budget and rides a
//     single ClientBatch — batches grow exactly when the system is behind.
//
// SLO accounting: end-to-end latency (arrival → f+1-matched completion,
// including backlog queueing) feeds a dedicated histogram with
// p50/p99/p999 accessors plus the fraction of completions inside
// `slo_ms`. The Client's own latencies() histogram still measures
// submit → completion (consensus latency) as everywhere else.
//
// Sharding: with num_groups > 1 the pool is bound to one consensus group
// and rejection-samples keys until shard::Router assigns them to that
// group — the generator-side half of the "no key executes in two groups"
// invariant the harness sweeps checker-side.

#ifndef PRESTIGE_WORKLOAD_OPEN_LOOP_POOL_H_
#define PRESTIGE_WORKLOAD_OPEN_LOOP_POOL_H_

#include <deque>
#include <memory>

#include "client/client.h"
#include "shard/router.h"
#include "types/ids.h"
#include "util/small_bytes.h"
#include "util/stats.h"
#include "workload/arrival.h"
#include "workload/client_pool.h"
#include "workload/key_dist.h"

namespace prestige {
namespace workload {

/// Open-loop pool parameters.
struct OpenLoopConfig {
  types::ClientPoolId pool_id = 0;
  uint32_t f = 1;
  uint32_t payload_size = 32;
  util::DurationMicros request_timeout = util::Seconds(1);
  util::DurationMicros aggregation_window = util::Millis(1);
  util::DurationMicros complaint_scan_period = util::Millis(200);

  /// Arrival trace feeding this pool (per-pool rate: a deployment-wide
  /// rate is divided across pools by the harness).
  ArrivalSpec arrival;
  /// Simulated session population multiplexed over this one Client.
  uint64_t logical_sessions = 1000000;
  /// Command shape; kKvPut routes on real keys, kOpaque on fingerprints.
  CommandKind command_kind = CommandKind::kKvPut;
  uint64_t kv_key_space = 1 << 20;
  /// Key-popularity skew: 0 = uniform, 0.99 = heavy YCSB zipfian.
  double zipf_theta = 0.0;

  /// Backpressure bounds (see header comment).
  uint32_t max_outstanding = 2048;
  uint32_t max_backlog = 4096;
  /// End-to-end latency SLO for slo_fraction() reporting.
  double slo_ms = 500.0;
  /// Stop generating arrivals after this time (0 = never).
  util::TimeMicros stop_at = 0;

  /// Sharded deployments: this pool's consensus group and the router
  /// geometry (must match the harness's checker-side Router).
  types::GroupId group = 0;
  uint32_t num_groups = 1;
  uint64_t router_salt = shard::Router::kDefaultSalt;
};

/// Open-loop engine counters (completions/latency live in ClientStats and
/// the histograms).
struct OpenLoopStats {
  int64_t arrivals = 0;         ///< Trace arrivals generated.
  int64_t admitted = 0;         ///< Submitted into consensus.
  int64_t backlogged = 0;       ///< Arrivals that waited in the backlog.
  int64_t shed = 0;             ///< Dropped at admission (backlog full).
  int64_t backlog_peak = 0;     ///< Deepest backlog observed.
  int64_t drain_bursts = 0;     ///< Adaptive-batch backlog drains.
  int64_t max_burst = 0;        ///< Largest single drain burst.
  int64_t slo_met = 0;          ///< Completions within slo_ms end-to-end.
};

/// The pool node. One Client session; arrivals ride timers.
class OpenLoopPool : public client::Client {
 public:
  explicit OpenLoopPool(OpenLoopConfig config);

  void OnStart() override;
  void OnTimer(uint64_t tag) override;

  int64_t committed() const { return stats().completed; }
  const OpenLoopStats& open_stats() const { return open_stats_; }
  const OpenLoopConfig& open_config() const { return pool_config_; }

  /// End-to-end latency histogram (arrival → completion, milliseconds).
  util::Histogram& e2e_latencies() { return e2e_latencies_; }
  /// Fraction of completions that met the SLO (1.0 when none completed).
  double slo_fraction() const {
    const int64_t completed = stats().completed;
    return completed == 0
               ? 1.0
               : static_cast<double>(open_stats_.slo_met) /
                     static_cast<double>(completed);
  }

 private:
  /// Timer kinds; Client privately uses kinds 1 and 2, and kinds are
  /// namespaced per node type, so any distinct values work — kept high to
  /// make collisions with future Client kinds unlikely.
  static constexpr uint64_t kArrivalKind = 7;
  /// Deferred backlog drain: completions arrive in reply batches, and
  /// draining once per batch (not once per completion) is what lets the
  /// refill ride one ClientBatch instead of trickling out 1-tx flushes.
  static constexpr uint64_t kDrainKind = 8;

  struct QueuedArrival {
    util::TimeMicros arrived_at = 0;
    uint64_t key = 0;
    uint64_t session = 0;
  };

  static client::ClientConfig ToClientConfig(const OpenLoopConfig& config);

  void PumpArrivals();
  void ProcessArrival(util::TimeMicros arrived_at);
  void SubmitArrival(const QueuedArrival& arrival);
  void OnCompletion(util::TimeMicros arrived_at,
                    const client::SubmitResult& result);
  void DrainBacklog();
  uint64_t PickKey();
  util::SmallBytes MakeCommand(uint64_t key, uint64_t session);

  OpenLoopConfig pool_config_;
  shard::Router router_;
  ZipfianGenerator zipf_;
  /// Constructed in OnStart from the node RNG (registration-order fork
  /// discipline); absent until then.
  std::unique_ptr<ArrivalGenerator> arrivals_;
  util::TimeMicros next_arrival_ = 0;
  bool stream_done_ = false;
  bool drain_armed_ = false;  ///< A kDrainKind timer is pending.
  std::deque<QueuedArrival> backlog_;
  util::Histogram e2e_latencies_;
  OpenLoopStats open_stats_;
};

}  // namespace workload
}  // namespace prestige

#endif  // PRESTIGE_WORKLOAD_OPEN_LOOP_POOL_H_
