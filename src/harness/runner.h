// One run-and-harvest for every backend.
//
// RunDeployment builds a Cluster on any backend (sim, threaded, socket),
// runs it for a duration — virtual time on the simulator, wall time on the
// others — stops it, and harvests one RunResult: client-observed
// throughput and latency on both ladders (consensus latency, submit →
// f+1-matched completion; end-to-end latency, arrival → completion
// including admission queueing), open-loop admission counters, per-group
// commits and view changes, reply/execution counters, the backend's own
// counters, and the safety sweep. The sweep is CheckShardedSafety
// (invariants.h): CheckSafety per group, plus router consistency and shard
// exclusivity, which an unsharded deployment passes trivially.
//
// RunWallClockScenario is the scenario entry for the wall-clock backends:
// a fault-free, full-load ScenarioSpec (ThreadedCapable) runs its scripted
// duration as real time on a cluster of spec.n replicas. Partitions, link
// faults, and crashes are simulator machinery; scenario_runner.h runs
// those in virtual time.
//
// Wall-clock results are scheduler-dependent and differ between reruns;
// simulated ones are reproducible per seed.

#ifndef PRESTIGE_HARNESS_RUNNER_H_
#define PRESTIGE_HARNESS_RUNNER_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "harness/cluster.h"
#include "harness/invariants.h"
#include "harness/scenario.h"
#include "net/frame.h"
#include "shard/router.h"

namespace prestige {
namespace harness {

/// Per-group slice of a run.
struct GroupRunStats {
  int64_t committed = 0;      ///< Client-observed commits in this group.
  int64_t view_changes = 0;   ///< Summed over the group's replicas.
  int64_t elections_won = 0;
};

/// Metrics of one run on any backend.
struct RunResult {
  bool ran = false;   ///< False when the run was refused or could not start.
  std::string error;  ///< Why it did not run.
  double duration_seconds = 0.0;  ///< Measurement window.
  uint32_t groups = 1;
  int64_t committed = 0;  ///< Client-observed, summed over groups.
  double tps = 0.0;       ///< committed / duration.

  // Consensus latency (submit → f+1-matched completion), merged pools.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;

  // End-to-end latency (arrival → completion, incl. admission queueing);
  // open-loop pools only.
  double e2e_p50_ms = 0.0;
  double e2e_p99_ms = 0.0;
  double e2e_p999_ms = 0.0;
  double slo_ms = 0.0;        ///< The SLO the run was held to.
  double slo_fraction = 1.0;  ///< Completions inside the SLO.

  // Open-loop admission accounting, summed over pools.
  int64_t arrivals = 0;
  int64_t admitted = 0;
  int64_t shed = 0;

  int64_t view_changes = 0;   ///< Summed over all replicas.
  int64_t elections_won = 0;
  int64_t replies = 0;               ///< Client-matched reply entries.
  int64_t duplicate_suppressed = 0;  ///< Session-table dedup hits.
  int64_t result_mismatches = 0;     ///< Conflicting result digests seen.
  int64_t executed = 0;              ///< Exactly-once service executions.
  uint64_t messages_delivered = 0;   ///< Wall-clock backends only.
  net::FrameCounters net;  ///< Socket backend only.

  std::vector<GroupRunStats> per_group;

  // Safety sweep outcome.
  bool safety_ok = true;
  std::string violation;
  types::SeqNum min_height = 0;  ///< Shortest honest chain, any group.
  types::SeqNum max_height = 0;  ///< Longest honest chain, any group.
  int64_t routed_txs = 0;
  int64_t distinct_keys = 0;
};

/// Per-replica application factory (nullptr keeps the default service).
using ServiceFactory = std::function<std::unique_ptr<app::Service>()>;

/// Harvests metrics + safety from a finished cluster (wall-clock backends
/// after Stop()). `duration` is the measurement window; `byzantine` marks
/// scripted adversaries the safety sweep excludes (BuildByzantineSet).
template <typename Replica, typename Config, typename Backend>
RunResult Harvest(Cluster<Replica, Config, Backend>& cluster,
                  const WorkloadOptions& workload,
                  util::DurationMicros duration,
                  const std::vector<bool>& byzantine = {}) {
  RunResult result;
  result.ran = true;
  result.duration_seconds = util::ToSeconds(duration);
  result.groups = cluster.num_groups();
  result.committed = cluster.ClientCommitted();
  result.tps = result.duration_seconds > 0.0
                   ? static_cast<double>(result.committed) /
                         result.duration_seconds
                   : 0.0;
  result.p50_ms = cluster.LatencyPercentileMs(50);
  result.p99_ms = cluster.LatencyPercentileMs(99);
  result.mean_ms = cluster.MeanLatencyMs();
  result.e2e_p50_ms = cluster.E2eLatencyPercentileMs(50);
  result.e2e_p99_ms = cluster.E2eLatencyPercentileMs(99);
  result.e2e_p999_ms = cluster.E2eLatencyPercentileMs(99.9);
  result.slo_ms = workload.slo_ms;
  result.slo_fraction = cluster.SloFraction();
  result.arrivals = cluster.TotalArrivals();
  result.admitted = cluster.TotalAdmitted();
  result.shed = cluster.TotalShed();
  result.replies = cluster.RepliesReceived();
  result.duplicate_suppressed = cluster.DuplicatesSuppressed();
  result.result_mismatches = cluster.ResultMismatches();
  result.executed = cluster.ExecutedTotal();
  if constexpr (!std::is_same_v<Backend, SimBackend>) {
    auto& rt = cluster.runtime();
    result.messages_delivered = rt.messages_delivered();
    if constexpr (std::is_same_v<Backend, SocketBackend>) {
      result.net = rt.net_stats();
    }
  }

  for (uint32_t g = 0; g < cluster.num_groups(); ++g) {
    GroupRunStats stats;
    stats.committed = cluster.GroupCommitted(g);
    for (uint32_t i = 0; i < cluster.replicas_per_group(); ++i) {
      const auto& metrics = cluster.group_replica(g, i).metrics();
      stats.view_changes += metrics.view_changes_started;
      stats.elections_won += metrics.elections_won;
    }
    result.view_changes += stats.view_changes;
    result.elections_won += stats.elections_won;
    result.per_group.push_back(stats);
  }

  const shard::Router router(cluster.num_groups(), workload.router_salt);
  const ShardedSafetyReport safety =
      CheckShardedSafety(cluster, router, byzantine);
  result.safety_ok = safety.ok;
  result.violation = safety.violation;
  result.routed_txs = safety.routed_txs;
  result.distinct_keys = safety.distinct_keys;
  for (size_t g = 0; g < safety.groups.size(); ++g) {
    const SafetyReport& group = safety.groups[g];
    result.min_height = g == 0 ? group.min_height
                               : std::min(result.min_height, group.min_height);
    result.max_height = std::max(result.max_height, group.max_height);
  }
  return result;
}

/// Builds a deployment of `config.n` replicas per group on `Backend`,
/// runs it for `duration`, stops it, and harvests it. A deployment that
/// cannot be built (a socket bind failure) does not run: the result has
/// ran == false and the setup error.
template <typename Replica, typename Config, typename Backend = SimBackend>
RunResult RunDeployment(Config config, const WorkloadOptions& workload,
                        util::DurationMicros duration,
                        const ServiceFactory& services = {}) {
  Cluster<Replica, Config, Backend> cluster(config, workload);
  if (!cluster.setup_error().empty()) {
    RunResult result;
    result.error = cluster.setup_error();
    return result;
  }
  if (services) cluster.InstallServices(services);
  cluster.Start();
  cluster.RunFor(duration);
  cluster.Stop();
  return Harvest(cluster, workload, duration);
}

/// Runs `spec`'s workload on a fresh `Backend` deployment for its scripted
/// duration of wall time, then checks safety. config.n is overridden by
/// the spec's cluster size; specs that need simulator-only machinery are
/// refused (ran == false) instead of misrun.
template <typename Replica, typename Config, typename Backend>
RunResult RunWallClockScenario(const ScenarioSpec& spec, Config config,
                               const WorkloadOptions& workload) {
  if (!ThreadedCapable(spec)) {
    RunResult result;
    result.error = "scenario '" + spec.name +
                   "' uses simulator-only faults (partitions / link faults / "
                   "crashes / partial load); the " +
                   Backend::kName + " backend runs fault-free workloads";
    return result;
  }
  config.n = spec.n;
  return RunDeployment<Replica, Config, Backend>(config, workload,
                                                 spec.TotalDuration());
}

}  // namespace harness
}  // namespace prestige

#endif  // PRESTIGE_HARNESS_RUNNER_H_
