// bench_runner: scenario driver emitting machine-readable BENCH_*.json.
//
// Unlike the fig*_ binaries (which pretty-print one paper figure each),
// this driver exists so CI and future PRs can track the performance
// trajectory numerically. Each scenario writes BENCH_<scenario>.json
// (full schema: docs/BENCHMARKS.md). Flat fields shared by every file:
//
//   {
//     "scenario":      name,
//     "n":             cluster size,
//     "committed":     client-observed committed txs in the window,
//     "throughput_tps": client-observed virtual-time throughput,
//     "p50_latency_ms" / "p99_latency_ms": client latency percentiles,
//     "view_changes":  redeemer activations summed over replicas,
//     "elections_won": completed elections summed over replicas,
//     "replies" / "duplicate_suppressed" / "result_mismatches":
//                      client-observed reply metrics (PrestigeBFT
//                      aggregate for declarative scenarios; 0 otherwise),
//     "wall_seconds" / "wall_ms": host wall time for the run,
//     "events" / "events_per_sec": simulator events executed / host rate,
//     "hashes" == "sha256_hashes": SHA-256 computations the run performed
//   }
//
// Declarative fault scenarios (src/harness/scenario.h) additionally carry
// a "protocols" array: a seed sweep per protocol (PrestigeBFT, HotStuff,
// SBFT) with per-seed virtual-time metrics and safety verdicts. The flat
// fields then mirror the PrestigeBFT aggregate so trajectory tooling can
// read every BENCH file uniformly.
//
// Virtual-time metrics (tps, latency) track protocol behaviour; wall
// time and the hash counter track implementation cost — digest caching
// and similar optimisations show up there even when simulated network
// latency dominates the virtual clock.
//
// Usage: bench_runner [--outdir DIR] [--seeds N] [--seed BASE] [--jobs N]
//                     [--runtime sim|threaded|socket] [--workers LIST]
//                     [--groups LIST] [--arrival-rate R] [--slo-ms MS]
//                     [scenario ...]
//        bench_runner --scenario NAME [--scenario NAME ...]
//        bench_runner --list
// With no scenario arguments — or with the pseudo-name "all" — every
// scenario runs. `--jobs N` fans declarative seed sweeps out over N worker
// threads (default: hardware concurrency); per-seed metric blocks are
// byte-identical to the serial path regardless of N.
// `--runtime=threaded` additionally executes each selected (fault-free)
// declarative scenario on the real-time ThreadedRuntime backend and adds a
// "threaded" JSON block with real wall-clock TPS/latency next to the
// simulated numbers (docs/BENCHMARKS.md). `--workers 0,2,4` (threaded only)
// repeats each threaded run with that many OrderedRunner prologue workers
// per node and records the sweep in "threaded.worker_sweep"; the flat
// threaded fields always describe the classic workers=0 path, which is
// included automatically. `--groups 1,2,4` (threaded only) additionally
// runs one sharded OPEN-LOOP deployment per group count — G disjoint
// consensus groups behind a shard::Router, Poisson arrivals at
// `--arrival-rate` req/s per pool, zipfian keys, end-to-end latency held
// to `--slo-ms` — and records the sweep in "threaded.group_sweep"
// (groups=1 joins automatically as the unsharded reference; the flat
// threaded fields still describe the classic closed-loop run). Every
// sharded run passes through the full cross-group safety sweep
// (per-group committed-prefix safety + router consistency + shard
// exclusivity). `--runtime=socket` instead runs each selected (fault-free)
// declarative scenario on the socket runtime — real loopback UDP datagrams
// through the hardened wire codec — and adds a "socket" JSON block with
// wall-clock numbers plus frame/drop counters. `--list` prints scenarios,
// protocol configs, and runtime backends. Exit status is 2 on usage
// errors (unknown scenarios, unknown --runtime values, malformed or
// out-of-range --seeds/--seed/--jobs/--workers/--groups, sim-only scenarios
// under a real-time backend, threaded-only flags without
// --runtime=threaded), 1 when any output failed to write OR any
// scenario — simulated, threaded, or socket — violated a safety invariant
// — CI keys off this.

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "app/kv_service.h"
#include "bench/bench_util.h"
#include "crypto/sha256.h"
#include "harness/runner.h"
#include "harness/scenario.h"
#include "harness/scenario_runner.h"

namespace prestige {
namespace bench {
namespace {

/// Execution backend (--runtime). kSim runs everything on the
/// deterministic discrete-event simulator. kThreaded additionally runs each
/// selected scenario's workload on the real-time ThreadedRuntime (one
/// thread per node, wall-clock timers, loopback queues); kSocket on the
/// socket runtime (every node in-process, all traffic crossing real
/// loopback UDP sockets through the hardened wire codec). Either adds a
/// JSON block with wall-clock numbers next to the simulated ones.
enum class Runtime { kSim, kThreaded, kSocket };

/// The parsed command line (usage at the top of this file).
struct Options {
  std::string outdir = ".";
  std::vector<std::string> selected;
  Runtime runtime = Runtime::kSim;
  /// Seed sweep of declarative scenarios: seeds [base_seed, +seeds).
  uint32_t seeds = 3;
  uint64_t base_seed = 1;
  /// Worker threads for declarative seed sweeps (--jobs); 0 = not set,
  /// resolved to the machine's hardware concurrency.
  uint32_t jobs = 0;
  /// Per-node prologue worker counts for the threaded backend (--workers).
  std::vector<uint32_t> worker_counts;
  /// Consensus-group counts for the sharded open-loop sweep (--groups,
  /// threaded backend only). Empty = no group sweep.
  std::vector<uint32_t> group_counts;
  /// Open-loop Poisson arrival rate, req/s per client pool.
  double arrival_rate = 2000.0;
  /// End-to-end latency SLO for the group sweep.
  double slo_ms = 500.0;

  uint32_t ResolvedJobs() const {
    if (jobs != 0) return jobs;
    const unsigned hc = std::thread::hardware_concurrency();
    return hc == 0 ? 1 : hc;
  }

  /// Resolved worker sweep: a single K>0 expands to {0, K}, and 0 always
  /// leads so the flat "threaded" fields (and the CI gates reading them)
  /// keep describing the classic path. Empty = {0} (classic only).
  std::vector<uint32_t> WorkerCounts() const {
    std::vector<uint32_t> counts = worker_counts;
    if (std::find(counts.begin(), counts.end(), 0u) == counts.end()) {
      counts.insert(counts.begin(), 0);
    }
    return counts;
  }

  /// Resolved group sweep: groups=1 always leads so every sweep carries
  /// the unsharded reference point scaling claims are made against.
  std::vector<uint32_t> GroupCounts() const {
    std::vector<uint32_t> counts = group_counts;
    if (counts.empty()) return counts;
    if (std::find(counts.begin(), counts.end(), 1u) == counts.end()) {
      counts.insert(counts.begin(), 1);
    }
    return counts;
  }
};

struct ScenarioResult {
  uint32_t n = 0;
  int64_t committed = 0;
  double tps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  int64_t view_changes = 0;
  int64_t elections_won = 0;
  /// Client-observed reply metrics (PrestigeBFT aggregate for declarative
  /// scenarios; zero for classic scenarios without the sweep machinery).
  int64_t replies = 0;
  int64_t duplicate_suppressed = 0;
  int64_t result_mismatches = 0;
  double wall_seconds = 0.0;
  uint64_t sha256_hashes = 0;
  uint64_t events = 0;  ///< Simulator events executed across the run.
  /// Declarative scenarios: false when any seed of any protocol violated a
  /// safety invariant (drives the process exit code).
  bool safe = true;
  /// Extra JSON members appended verbatim to the BENCH file (the per-
  /// protocol seed-sweep detail); empty for classic scenarios.
  std::string extra_json;
};

/// Runs `body` with wall-clock and hash-count accounting around it. The
/// CryptoMeter credits hashing done on this thread outside any nested
/// per-run meter; declarative sweeps add their workers' per-run counts to
/// r.sha256_hashes themselves, so the sum stays exact for any --jobs.
ScenarioResult Instrumented(const std::function<void(ScenarioResult&)>& body) {
  ScenarioResult r;
  crypto::CryptoMeter meter;
  const auto wall_before = std::chrono::steady_clock::now();
  {
    crypto::ScopedCryptoMeter scope(&meter);
    body(r);
  }
  const auto wall_after = std::chrono::steady_clock::now();
  r.wall_seconds =
      std::chrono::duration<double>(wall_after - wall_before).count();
  r.sha256_hashes += meter.finished;
  return r;
}

/// A classic scenario: one simulated PrestigeBFT run of `spec` (warmup,
/// then measure; MeasuredSpec) through the one measured-run path. The flat
/// fields describe the measure window, and the replies /
/// duplicate_suppressed / result_mismatches fields stay 0, as they always
/// have for classic scenarios. A safety violation fails the run.
ScenarioResult RunClassic(const harness::ScenarioSpec& spec,
                          const core::PrestigeConfig& config,
                          const harness::WorkloadOptions& workload) {
  return Instrumented([&](ScenarioResult& r) {
    const harness::ScenarioSeedResult run =
        MeasureScenario<core::PrestigeReplica>(spec, config, workload,
                                               &r.safe);
    r.n = spec.n;
    r.committed = run.phases.back().committed;
    r.tps = run.phases.back().Tps();
    r.p50_ms = run.p50_ms;
    r.p99_ms = run.p99_ms;
    r.view_changes = run.view_changes;
    r.elections_won = run.elections_won;
    r.events = run.events;
    // The run's own meter counted its hashing; Instrumented adds what its
    // meter saw outside the run.
    r.sha256_hashes = run.hashes;
  });
}

/// Steady-state replication on an n-server fault-free cluster.
ScenarioResult RunReplication(uint32_t n) {
  return RunClassic(
      MeasuredSpec("replication_n" + std::to_string(n), n, {},
                   util::Seconds(2), util::Seconds(4)),
      PaperPrestigeConfig(n, 1000),
      SaturatingWorkload(/*seed=*/42, /*pools=*/8, /*clients=*/200));
}

/// Replication with periodic leader rotation: exercises the view-change
/// path (redeemer -> candidate -> leader) many times per run.
ScenarioResult RunViewChangeChurn() {
  core::PrestigeConfig config = PaperPrestigeConfig(8, 500);
  config.rotation_period = util::Seconds(1);
  return RunClassic(
      MeasuredSpec("view_change_churn", 8, {}, util::Seconds(2),
                   util::Seconds(8)),
      config, SaturatingWorkload(/*seed=*/7, /*pools=*/4, /*clients=*/100));
}

/// Leader crash and recovery: one forced view change under load. Replica 0
/// starts as view-1 leader and goes down when the measure window opens.
ScenarioResult RunLeaderCrash() {
  std::vector<types::FaultSpec> faults(4, types::FaultSpec::Honest());
  faults[0] = types::FaultSpec::Crash(util::Seconds(3));
  harness::ScenarioSpec spec = MeasuredSpec(
      "leader_crash", 4, std::move(faults), util::Seconds(2), util::Seconds(6));
  spec.phases.back().crash = {0};
  return RunClassic(
      spec, PaperPrestigeConfig(4, 500),
      SaturatingWorkload(/*seed=*/13, /*pools=*/4, /*clients=*/100));
}

/// Hot-path microbenchmark: repeated TxBlock / VcBlock digest reads, the
/// pattern replication and view change hit per protocol message.
ScenarioResult RunDigestMicro() {
  return Instrumented([](ScenarioResult& r) {
    constexpr size_t kTxs = 1000;
    constexpr int kReads = 20000;
    r.n = 1;
    ledger::TxBlock block;
    block.set_n(1);
    std::vector<types::Transaction> txs;
    txs.reserve(kTxs);
    for (size_t i = 0; i < kTxs; ++i) {
      types::Transaction tx;
      tx.pool = 0;
      tx.client_seq = static_cast<uint64_t>(i);
      tx.fingerprint = static_cast<uint64_t>(i) * 0x9e3779b97f4a7c15ull;
      txs.push_back(tx);
    }
    block.set_txs(std::move(txs));

    ledger::VcBlock vc;
    vc.set_v(2);
    vc.set_leader(1);
    for (types::ReplicaId id = 0; id < 64; ++id) {
      vc.SetPenalty(id, 3);
      vc.SetCompensation(id, 2);
    }

    // Digest() once per simulated protocol message, as OnOrd/OnCmt/commit
    // and the vcBlock handshake do.
    crypto::Sha256Digest sink{};
    for (int i = 0; i < kReads; ++i) {
      const crypto::Sha256Digest& d = block.Digest();
      const crypto::Sha256Digest& e = vc.Digest();
      sink[0] = static_cast<unsigned char>(sink[0] ^ d[0] ^ e[0]);
    }
    // Folding sink into the result keeps the loop observable. kReads is
    // even, so sink[0] XORed an even number of times is 0 and the value
    // reported is exactly kReads.
    r.committed = kReads ^ static_cast<int64_t>(sink[0]);
  });
}

// --------------------------------------------- declarative fault scenarios

/// Modest closed-loop load for fault scenarios: enough traffic to keep the
/// pipeline busy without making a 20-seed × 3-protocol sweep slow.
harness::WorkloadOptions ScenarioWorkload(uint64_t seed) {
  harness::WorkloadOptions w;
  w.num_pools = 4;
  w.clients_per_pool = 50;
  w.payload_size = 32;
  w.client_timeout = util::Seconds(1);
  w.seed = seed;
  return w;
}

/// Open-loop sharded load for the --groups sweep: per-pool Poisson
/// arrivals, zipfian keys, bounded admission. The per-pool rate is fixed
/// (not divided by G), so offered load scales with the group count — the
/// planet-scale question is whether committed throughput follows it.
harness::WorkloadOptions GroupSweepWorkload(const Options& options,
                                            uint32_t groups) {
  harness::WorkloadOptions w;
  w.num_pools = 2;  // Per group.
  w.payload_size = 32;
  w.client_timeout = util::Seconds(1);
  w.seed = options.base_seed;
  w.kv_key_space = 1 << 16;
  w.num_groups = groups;
  w.open_loop = true;
  w.arrival.kind = workload::ArrivalKind::kPoisson;
  w.arrival.rate_per_sec = options.arrival_rate;
  w.zipf_theta = 0.5;
  w.max_outstanding = 1024;
  w.max_backlog = 4096;
  w.slo_ms = options.slo_ms;
  return w;
}

/// One protocol's sweep rendered as a JSON object. events/hashes are
/// deterministic sums over the seeds; run_wall_ms sums per-run CPU wall
/// time (with --jobs > 1 it exceeds elapsed time by roughly the speedup).
std::string ProtocolJson(const char* protocol,
                         const harness::ScenarioAggregate& agg) {
  char buf[960];
  std::snprintf(buf, sizeof(buf),
                "    {\n"
                "      \"protocol\": \"%s\",\n"
                "      \"all_safe\": %s,\n"
                "      \"throughput_tps_mean\": %.1f,\n"
                "      \"throughput_tps_min\": %.1f,\n"
                "      \"throughput_tps_max\": %.1f,\n"
                "      \"p50_latency_ms_mean\": %.3f,\n"
                "      \"p99_latency_ms_mean\": %.3f,\n"
                "      \"committed\": %lld,\n"
                "      \"view_changes\": %lld,\n"
                "      \"elections_won\": %lld,\n"
                "      \"replies\": %lld,\n"
                "      \"duplicate_suppressed\": %lld,\n"
                "      \"result_mismatches\": %lld,\n"
                "      \"messages_dropped\": %llu,\n"
                "      \"events\": %llu,\n"
                "      \"hashes\": %llu,\n"
                "      \"run_wall_ms\": %.3f,\n"
                "      \"per_seed\": [\n",
                protocol, agg.all_safe ? "true" : "false", agg.tps_mean,
                agg.tps_min, agg.tps_max, agg.p50_ms_mean, agg.p99_ms_mean,
                static_cast<long long>(agg.committed_total),
                static_cast<long long>(agg.view_changes_total),
                static_cast<long long>(agg.elections_won_total),
                static_cast<long long>(agg.replies_total),
                static_cast<long long>(agg.duplicate_suppressed_total),
                static_cast<long long>(agg.result_mismatches_total),
                static_cast<unsigned long long>(agg.messages_dropped_total),
                static_cast<unsigned long long>(agg.events_total),
                static_cast<unsigned long long>(agg.hashes_total),
                agg.run_wall_ms_total);
  std::string out = buf;
  for (size_t i = 0; i < agg.seeds.size(); ++i) {
    out += "        ";
    out += harness::SeedResultJson(agg.seeds[i]);
    if (i + 1 < agg.seeds.size()) out += ",";
    out += "\n";
  }
  out += "      ]\n    }";
  return out;
}

/// Seed-sweeps the scenario `spec_fn` yields per seed on PrestigeBFT + the
/// HotStuff and SBFT baselines. Flat result fields mirror the PrestigeBFT
/// aggregate; `label` names the scenario in safety-violation reports.
template <typename SpecFn>
ScenarioResult SweepProtocols(const SpecFn& spec_fn, const std::string& label,
                              const Options& options) {
  const uint32_t seeds = options.seeds;
  const uint64_t base_seed = options.base_seed;
  const uint32_t jobs = options.ResolvedJobs();
  return Instrumented([&](ScenarioResult& r) {
    const uint32_t n = spec_fn(base_seed).n;
    r.n = n;

    const auto prestige = harness::RunScenarioSweepGen<
        core::PrestigeReplica, core::PrestigeConfig>(
        spec_fn, PaperPrestigeConfig(n, 500), ScenarioWorkload(0), base_seed,
        seeds, jobs);
    const auto hotstuff = harness::RunScenarioSweepGen<
        baselines::hotstuff::HotStuffReplica,
        baselines::hotstuff::HotStuffConfig>(
        spec_fn, PaperHotStuffConfig(n, 500), ScenarioWorkload(0), base_seed,
        seeds, jobs);
    baselines::sbft::SbftConfig sbft_config;
    sbft_config.n = n;
    sbft_config.batch_size = 500;
    const auto sbft = harness::RunScenarioSweepGen<
        baselines::sbft::SbftReplica, baselines::sbft::SbftConfig>(
        spec_fn, sbft_config, ScenarioWorkload(0), base_seed, seeds, jobs);

    r.committed = prestige.committed_total;
    r.tps = prestige.tps_mean;
    r.p50_ms = prestige.p50_ms_mean;
    r.p99_ms = prestige.p99_ms_mean;
    r.view_changes = prestige.view_changes_total;
    r.elections_won = prestige.elections_won_total;
    r.replies = prestige.replies_total;
    r.duplicate_suppressed = prestige.duplicate_suppressed_total;
    r.result_mismatches = prestige.result_mismatches_total;
    r.safe = prestige.all_safe && hotstuff.all_safe && sbft.all_safe;
    // Per-run meters on the sweep workers counted this hashing; add it to
    // the (calling-thread) Instrumented meter's count.
    r.sha256_hashes = prestige.hashes_total + hotstuff.hashes_total +
                      sbft.hashes_total;
    r.events = prestige.events_total + hotstuff.events_total +
               sbft.events_total;

    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "  \"seeds\": %u,\n  \"base_seed\": %llu,\n"
                  "  \"jobs\": %u,\n"
                  "  \"all_safe\": %s,\n  \"protocols\": [\n",
                  seeds, static_cast<unsigned long long>(base_seed), jobs,
                  r.safe ? "true" : "false");
    r.extra_json = buf;
    r.extra_json += ProtocolJson("prestigebft", prestige) + ",\n";
    r.extra_json += ProtocolJson("hotstuff", hotstuff) + ",\n";
    r.extra_json += ProtocolJson("sbft", sbft) + "\n  ],\n";

    for (const auto* agg : {&prestige, &hotstuff, &sbft}) {
      for (const auto& seed : agg->seeds) {
        if (!seed.safety_ok) {
          std::fprintf(stderr,
                       "bench_runner: SAFETY VIOLATION %s seed %llu: %s\n",
                       label.c_str(),
                       static_cast<unsigned long long>(seed.seed),
                       seed.violation.c_str());
        }
      }
    }
  });
}

/// The shared head of the "threaded" and "socket" JSON blocks: one
/// wall-clock PrestigeBFT run. The caller appends the backend's own
/// members and closes the block.
std::string WallClockJson(const char* backend, const harness::RunResult& rt) {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "  \"%s\": {\n"
      "    \"protocol\": \"prestigebft\",\n"
      "    \"duration_seconds\": %.3f,\n"
      "    \"committed\": %lld,\n"
      "    \"throughput_tps\": %.1f,\n"
      "    \"p50_latency_ms\": %.4f,\n"
      "    \"p99_latency_ms\": %.4f,\n"
      "    \"mean_latency_ms\": %.4f,\n"
      "    \"view_changes\": %lld,\n"
      "    \"replies\": %lld,\n"
      "    \"duplicate_suppressed\": %lld,\n"
      "    \"result_mismatches\": %lld,\n"
      "    \"executed\": %lld,\n"
      "    \"messages_delivered\": %llu,\n"
      "    \"min_height\": %lld,\n"
      "    \"max_height\": %lld,\n"
      "    \"safe\": %s,\n",
      backend, rt.duration_seconds, static_cast<long long>(rt.committed),
      rt.tps, rt.p50_ms, rt.p99_ms, rt.mean_ms,
      static_cast<long long>(rt.view_changes),
      static_cast<long long>(rt.replies),
      static_cast<long long>(rt.duplicate_suppressed),
      static_cast<long long>(rt.result_mismatches),
      static_cast<long long>(rt.executed),
      static_cast<unsigned long long>(rt.messages_delivered),
      static_cast<long long>(rt.min_height),
      static_cast<long long>(rt.max_height),
      rt.safety_ok ? "true" : "false");
  return buf;
}

/// --runtime=threaded: the scenario's workload on the threaded backend
/// (PrestigeBFT), once per --workers count, then one sharded open-loop
/// deployment per --groups count. The flat "threaded" fields always
/// describe the workers=0 classic closed-loop path — CI gates read them —
/// and the sweeps ride in "worker_sweep" / "group_sweep".
void RunThreadedComparison(const harness::ScenarioSpec& spec,
                           const Options& options, ScenarioResult& result) {
  std::vector<harness::RunResult> sweep;
  for (const uint32_t workers : options.WorkerCounts()) {
    harness::WorkloadOptions workload = ScenarioWorkload(options.base_seed);
    workload.workers_per_node = workers;
    const harness::RunResult rt = harness::RunWallClockScenario<
        core::PrestigeReplica, core::PrestigeConfig, harness::ThreadedBackend>(
        spec, PaperPrestigeConfig(spec.n, 500), workload);
    if (!rt.ran) {
      std::fprintf(stderr, "bench_runner: threaded run skipped: %s\n",
                   rt.error.c_str());
      result.safe = false;
      return;
    }
    if (!rt.safety_ok) {
      std::fprintf(stderr,
                   "bench_runner: SAFETY VIOLATION (threaded, workers=%u) "
                   "%s: %s\n",
                   workers, spec.name.c_str(), rt.violation.c_str());
      result.safe = false;
    }
    std::printf(
        "  threaded[workers=%u]: committed=%lld tps=%.1f p50=%.2fms "
        "p99=%.2fms msgs=%llu safe=%s   (sim tps=%.1f p50=%.2fms)\n",
        workers, static_cast<long long>(rt.committed), rt.tps, rt.p50_ms,
        rt.p99_ms, static_cast<unsigned long long>(rt.messages_delivered),
        rt.safety_ok ? "yes" : "NO", result.tps, result.p50_ms);
    sweep.push_back(rt);
  }

  // Sharded open-loop group sweep: G disjoint consensus groups of spec.n
  // replicas each behind a shard::Router, open-loop Poisson load, and the
  // full cross-group safety sweep.
  std::string group_json;
  const std::vector<uint32_t> group_counts = options.GroupCounts();
  for (size_t gi = 0; gi < group_counts.size(); ++gi) {
    const uint32_t groups = group_counts[gi];
    const harness::RunResult sr = harness::RunDeployment<
        core::PrestigeReplica, core::PrestigeConfig, harness::ThreadedBackend>(
        PaperPrestigeConfig(spec.n, 500), GroupSweepWorkload(options, groups),
        spec.TotalDuration(),
        [] { return std::make_unique<app::KvService>(1 << 16); });
    if (!sr.safety_ok) {
      std::fprintf(stderr,
                   "bench_runner: SAFETY VIOLATION (threaded, "
                   "groups=%u) %s: %s\n",
                   groups, spec.name.c_str(), sr.violation.c_str());
      result.safe = false;
    }
    std::printf(
        "  threaded[groups=%u]: committed=%lld tps=%.1f "
        "e2e_p50=%.2fms e2e_p99=%.2fms slo_frac=%.3f shed=%lld "
        "keys=%lld safe=%s\n",
        groups, static_cast<long long>(sr.committed), sr.tps, sr.e2e_p50_ms,
        sr.e2e_p99_ms, sr.slo_fraction, static_cast<long long>(sr.shed),
        static_cast<long long>(sr.distinct_keys),
        sr.safety_ok ? "yes" : "NO");
    char gbuf[640];
    std::snprintf(
        gbuf, sizeof(gbuf),
        "      {\"groups\": %u, \"duration_seconds\": %.3f, "
        "\"committed\": %lld, \"throughput_tps\": %.1f, "
        "\"p50_latency_ms\": %.4f, \"p99_latency_ms\": %.4f, "
        "\"e2e_p50_ms\": %.4f, \"e2e_p99_ms\": %.4f, "
        "\"e2e_p999_ms\": %.4f, \"slo_ms\": %.1f, "
        "\"slo_fraction\": %.4f, \"arrivals\": %lld, "
        "\"admitted\": %lld, \"shed\": %lld, \"routed_txs\": %lld, "
        "\"distinct_keys\": %lld, \"safe\": %s}%s\n",
        sr.groups, sr.duration_seconds, static_cast<long long>(sr.committed),
        sr.tps, sr.p50_ms, sr.p99_ms, sr.e2e_p50_ms, sr.e2e_p99_ms,
        sr.e2e_p999_ms, sr.slo_ms, sr.slo_fraction,
        static_cast<long long>(sr.arrivals),
        static_cast<long long>(sr.admitted), static_cast<long long>(sr.shed),
        static_cast<long long>(sr.routed_txs),
        static_cast<long long>(sr.distinct_keys),
        sr.safety_ok ? "true" : "false",
        gi + 1 < group_counts.size() ? "," : "");
    group_json += gbuf;
  }

  result.extra_json += WallClockJson("threaded", sweep.front());  // workers=0
  result.extra_json += "    \"worker_sweep\": [\n";
  for (size_t i = 0; i < sweep.size(); ++i) {
    const harness::RunResult& wr = sweep[i];
    char wbuf[384];
    std::snprintf(
        wbuf, sizeof(wbuf),
        "      {\"workers\": %u, \"duration_seconds\": %.3f, "
        "\"committed\": %lld, \"throughput_tps\": %.1f, "
        "\"p50_latency_ms\": %.4f, \"p99_latency_ms\": %.4f, "
        "\"mean_latency_ms\": %.4f, \"messages_delivered\": %llu, "
        "\"safe\": %s}%s\n",
        wr.workers, wr.duration_seconds, static_cast<long long>(wr.committed),
        wr.tps, wr.p50_ms, wr.p99_ms, wr.mean_ms,
        static_cast<unsigned long long>(wr.messages_delivered),
        wr.safety_ok ? "true" : "false", i + 1 < sweep.size() ? "," : "");
    result.extra_json += wbuf;
  }
  result.extra_json += "    ]";
  if (!group_json.empty()) {
    result.extra_json += ",\n    \"group_sweep\": [\n";
    result.extra_json += group_json;
    result.extra_json += "    ]";
  }
  result.extra_json += "\n  },\n";
}

/// --runtime=socket: the same workload with every node's traffic crossing
/// real loopback UDP datagrams through the wire codec and per-peer
/// sequence framing. The "socket" block adds the frame/drop counters so CI
/// can watch the decode-hardening surface.
void RunSocketComparison(const harness::ScenarioSpec& spec,
                         const Options& options, ScenarioResult& result) {
  const harness::RunResult sr = harness::RunWallClockScenario<
      core::PrestigeReplica, core::PrestigeConfig, harness::SocketBackend>(
      spec, PaperPrestigeConfig(spec.n, 500),
      ScenarioWorkload(options.base_seed));
  if (!sr.ran) {
    std::fprintf(stderr, "bench_runner: socket run skipped: %s\n",
                 sr.error.c_str());
    result.safe = false;
    return;
  }
  if (!sr.safety_ok) {
    std::fprintf(stderr, "bench_runner: SAFETY VIOLATION (socket) %s: %s\n",
                 spec.name.c_str(), sr.violation.c_str());
    result.safe = false;
  }
  const net::FrameCounters& net = sr.net;
  std::printf(
      "  socket: committed=%lld tps=%.1f p50=%.2fms p99=%.2fms "
      "frames=%llu/%llu gaps=%llu drops=%llu safe=%s   (sim "
      "tps=%.1f)\n",
      static_cast<long long>(sr.committed), sr.tps, sr.p50_ms, sr.p99_ms,
      static_cast<unsigned long long>(net.frames_sent),
      static_cast<unsigned long long>(net.frames_received),
      static_cast<unsigned long long>(net.seq_gaps),
      static_cast<unsigned long long>(net.header_drops + net.length_drops +
                                      net.checksum_drops + net.frag_drops +
                                      net.decode_drops),
      sr.safety_ok ? "yes" : "NO", result.tps);
  char nbuf[640];
  std::snprintf(
      nbuf, sizeof(nbuf),
      "    \"net\": {\"frames_sent\": %llu, \"frames_received\": %llu,\n"
      "      \"messages_assembled\": %llu, \"seq_gaps\": %llu,\n"
      "      \"seq_out_of_order\": %llu, \"header_drops\": %llu,\n"
      "      \"checksum_drops\": %llu, \"length_drops\": %llu,\n"
      "      \"frag_drops\": %llu, \"decode_drops\": %llu,\n"
      "      \"send_errors\": %llu, \"unserializable_drops\": %llu}\n"
      "  },\n",
      static_cast<unsigned long long>(net.frames_sent),
      static_cast<unsigned long long>(net.frames_received),
      static_cast<unsigned long long>(net.messages_assembled),
      static_cast<unsigned long long>(net.seq_gaps),
      static_cast<unsigned long long>(net.seq_out_of_order),
      static_cast<unsigned long long>(net.header_drops),
      static_cast<unsigned long long>(net.checksum_drops),
      static_cast<unsigned long long>(net.length_drops),
      static_cast<unsigned long long>(net.frag_drops),
      static_cast<unsigned long long>(net.decode_drops),
      static_cast<unsigned long long>(net.send_errors),
      static_cast<unsigned long long>(net.unserializable_drops));
  result.extra_json += WallClockJson("socket", sr) + nbuf;
}

/// Runs `spec` as a seed sweep on all three protocols, then — under a
/// real-time --runtime — once more on that backend. The wall-clock run
/// stays OUTSIDE the Instrumented window: wall_ms / events /
/// events_per_sec track the simulator hot path across PRs, and a 6 s
/// real-time sleep would corrupt that trajectory.
ScenarioResult RunDeclarative(const harness::ScenarioSpec& spec,
                              const Options& options) {
  ScenarioResult result = SweepProtocols(
      [&spec](uint64_t) { return spec; }, spec.name, options);
  switch (options.runtime) {
    case Runtime::kSim:
      break;
    case Runtime::kThreaded:
      RunThreadedComparison(spec, options, result);
      break;
    case Runtime::kSocket:
      RunSocketComparison(spec, options, result);
      break;
  }
  return result;
}

struct Scenario {
  const char* name;
  const char* description;
  std::function<ScenarioResult(const Options&)> run;
};

const std::vector<Scenario>& Scenarios() {
  static const std::vector<Scenario> kScenarios = [] {
    std::vector<Scenario> scenarios = {
        {"replication_n4", "steady-state replication, n=4, fault-free",
         [](const Options&) { return RunReplication(4); }},
        {"replication_n16", "steady-state replication, n=16, fault-free",
         [](const Options&) { return RunReplication(16); }},
        {"view_change_churn", "1s leader rotation, n=8 (active view changes)",
         [](const Options&) { return RunViewChangeChurn(); }},
        {"leader_crash", "leader crash at t=3s, n=4 (forced view change)",
         [](const Options&) { return RunLeaderCrash(); }},
        {"digest_micro", "repeated TxBlock/VcBlock digest reads (hot path)",
         [](const Options&) { return RunDigestMicro(); }},
        // Seed-randomized adversary-schedule fuzzer: every seed runs a
        // *different* ByzantineSpec (harness::ByzantineFuzzSpec) — a pure
        // function of the seed, so per-seed JSON stays byte-identical for
        // any --jobs value.
        {"byzantine-fuzz",
         "seed-randomized adversary schedules, all protocols (fuzzer)",
         [](const Options& options) {
           return SweepProtocols(
               [](uint64_t seed) { return harness::ByzantineFuzzSpec(seed); },
               "byzantine-fuzz", options);
         }},
    };
    // Declarative fault scenarios (seed-swept over all three protocols).
    // The specs live in a function-local static, so the c_str() pointers
    // stay valid for the process lifetime.
    for (const harness::ScenarioSpec& spec : harness::NamedScenarios()) {
      scenarios.push_back(
          {spec.name.c_str(), spec.description.c_str(),
           [&spec](const Options& options) {
             return RunDeclarative(spec, options);
           }});
    }
    return scenarios;
  }();
  return kScenarios;
}

bool WriteJson(const std::string& outdir, const char* scenario,
               const ScenarioResult& r) {
  const std::string path = outdir + "/BENCH_" + scenario + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_runner: cannot open %s\n", path.c_str());
    return false;
  }
  // wall_ms duplicates wall_seconds and hashes duplicates sha256_hashes:
  // wall_ms/events_per_sec/hashes are the canonical wall-clock trio shared
  // by every BENCH consumer going forward; the older two names stay so the
  // BENCH_*.json trajectory across PRs remains directly comparable.
  const double events_per_sec =
      r.wall_seconds > 0.0 ? static_cast<double>(r.events) / r.wall_seconds
                           : 0.0;
  std::fprintf(f,
               "{\n"
               "  \"scenario\": \"%s\",\n"
               "  \"n\": %u,\n"
               "  \"committed\": %lld,\n"
               "  \"throughput_tps\": %.1f,\n"
               "  \"p50_latency_ms\": %.3f,\n"
               "  \"p99_latency_ms\": %.3f,\n"
               "  \"view_changes\": %lld,\n"
               "  \"elections_won\": %lld,\n"
               "  \"replies\": %lld,\n"
               "  \"duplicate_suppressed\": %lld,\n"
               "  \"result_mismatches\": %lld,\n"
               "%s"
               "  \"build\": %s,\n"
               "  \"sanitized\": %s,\n"
               "  \"wall_seconds\": %.3f,\n"
               "  \"wall_ms\": %.3f,\n"
               "  \"events\": %llu,\n"
               "  \"events_per_sec\": %.1f,\n"
               "  \"hashes\": %llu,\n"
               "  \"sha256_hashes\": %llu\n"
               "}\n",
               scenario, r.n, static_cast<long long>(r.committed), r.tps,
               r.p50_ms, r.p99_ms, static_cast<long long>(r.view_changes),
               static_cast<long long>(r.elections_won),
               static_cast<long long>(r.replies),
               static_cast<long long>(r.duplicate_suppressed),
               static_cast<long long>(r.result_mismatches),
               r.extra_json.c_str(), BuildMetadataJson().c_str(),
               SanitizedBuild() ? "true" : "false",
               r.wall_seconds, r.wall_seconds * 1000.0,
               static_cast<unsigned long long>(r.events), events_per_sec,
               static_cast<unsigned long long>(r.sha256_hashes),
               static_cast<unsigned long long>(r.sha256_hashes));
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

/// --list: everything a driver script can select — scenarios, the protocol
/// configurations the sweeps use, and the runtime backends.
void PrintList() {
  std::printf("scenarios:\n");
  for (const Scenario& s : Scenarios()) {
    const harness::ScenarioSpec* spec = harness::FindScenario(s.name);
    const char* kind = spec == nullptr ? "classic   "
                       : harness::ThreadedCapable(*spec)
                           ? "sim+thread"
                           : "sim-only  ";
    std::printf("  %-30s %s %s\n", s.name, kind, s.description);
  }
  std::printf("\nprotocol configs (declarative sweeps):\n");
  const core::PrestigeConfig pc = PaperPrestigeConfig(4, 500);
  std::printf(
      "  %-12s batch=%zu timeout=[%lld,%lld]ms rotation=%s refresh=%s\n",
      "prestigebft", pc.batch_size,
      static_cast<long long>(pc.timeout_min / util::kMicrosPerMilli),
      static_cast<long long>(pc.timeout_max / util::kMicrosPerMilli),
      pc.rotation_period > 0 ? "on" : "off",
      pc.enable_refresh ? "on" : "off");
  const baselines::hotstuff::HotStuffConfig hc = PaperHotStuffConfig(4, 500);
  std::printf("  %-12s batch=%zu view_timeout=%lldms (passive pacemaker)\n",
              "hotstuff", hc.batch_size,
              static_cast<long long>(hc.view_timeout /
                                     util::kMicrosPerMilli));
  baselines::sbft::SbftConfig sc;
  sc.batch_size = 500;
  std::printf("  %-12s batch=%zu crypto_weight=%d (collector fast path)\n",
              "sbft", sc.batch_size, sc.crypto_weight);
  std::printf(
      "\nruntime backends (--runtime):\n"
      "  sim       deterministic discrete-event simulator (default):\n"
      "            virtual time, modelled network, bit-identical per-seed "
      "JSON\n"
      "  threaded  real-time: one event-loop thread per node, loopback\n"
      "            queues, wall-clock timers; adds a \"threaded\" block "
      "with\n"
      "            real TPS/latency next to the simulated numbers\n"
      "            (fault-free declarative scenarios only)\n"
      "  socket    real loopback UDP: one event-loop thread + one datagram\n"
      "            socket per node, hardened wire encode/decode, per-peer\n"
      "            sequence framing; adds a \"socket\" block with wall-clock\n"
      "            TPS/latency and frame/drop counters\n"
      "            (fault-free declarative scenarios only)\n");
}

/// Parses one decimal count in [lo, hi] at `p` — digits only: no sign, no
/// space, no overflow — and returns the byte after it, or nullptr.
const char* ParseCount(const char* p, unsigned long long lo,
                       unsigned long long hi, unsigned long long* out) {
  if (!std::isdigit(static_cast<unsigned char>(*p))) return nullptr;
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(p, &end, 10);
  if (errno == ERANGE || *out < lo || *out > hi) return nullptr;
  return end;
}

/// Parses `flag`'s value: one count in [lo, hi] and nothing after it.
/// Prints the usage error and returns false on malformed input.
template <typename T>
bool ParseFlagCount(const char* flag, const char* p, unsigned long long lo,
                    unsigned long long hi, T* out) {
  unsigned long long v = 0;
  const char* end = ParseCount(p, lo, hi, &v);
  if (end == nullptr || *end != '\0') {
    std::fprintf(stderr, "bench_runner: %s expects a count in [%llu,%llu]\n",
                 flag, lo, hi);
    return false;
  }
  *out = static_cast<T>(v);
  return true;
}

/// Parses a comma-separated list of counts in [lo, hi] for `flag`.
/// Prints the usage error and returns false on malformed input.
bool ParseCounts(const char* flag, const char* p, unsigned long long lo,
                 unsigned long long hi, std::vector<uint32_t>* out) {
  out->clear();
  while (*p != '\0') {
    unsigned long long v = 0;
    const char* end = ParseCount(p, lo, hi, &v);
    if (end == nullptr || (*end != ',' && *end != '\0')) {
      std::fprintf(stderr,
                   "bench_runner: %s expects a comma-separated "
                   "list of counts in [%llu,%llu]\n",
                   flag, lo, hi);
      return false;
    }
    out->push_back(static_cast<uint32_t>(v));
    p = *end == ',' ? end + 1 : end;
  }
  if (out->empty()) {
    std::fprintf(stderr, "bench_runner: %s needs a value\n", flag);
    return false;
  }
  return true;
}

/// Parses argv into `o`. Returns -1 to go on running, otherwise the exit
/// status: 0 after --list, 2 on a usage error.
int ParseArgs(int argc, char** argv, Options* o) {
  // Only the threaded comparison reads these; elsewhere they would be
  // silently ignored.
  const char* threaded_only = nullptr;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (std::strcmp(arg, "--list") == 0) {
      PrintList();
      return 0;
    }
    if (std::strncmp(arg, "--runtime", 9) == 0) {
      std::string value;
      if (arg[9] == '=') {
        value = arg + 10;
      } else if (arg[9] == '\0' && has_value) {
        value = argv[++i];
      }
      if (value == "sim") {
        o->runtime = Runtime::kSim;
      } else if (value == "threaded") {
        o->runtime = Runtime::kThreaded;
      } else if (value == "socket") {
        o->runtime = Runtime::kSocket;
      } else {
        std::fprintf(stderr,
                     "bench_runner: unknown runtime '%s'; valid backends: "
                     "sim, threaded, socket\n",
                     value.c_str());
        return 2;
      }
    } else if (std::strcmp(arg, "--outdir") == 0 && has_value) {
      o->outdir = argv[++i];
    } else if (std::strcmp(arg, "--scenario") == 0 && has_value) {
      o->selected.emplace_back(argv[++i]);
    } else if (std::strcmp(arg, "--seeds") == 0 && has_value) {
      if (!ParseFlagCount("--seeds", argv[++i], 1, 100000, &o->seeds)) {
        return 2;
      }
    } else if (std::strcmp(arg, "--seed") == 0 && has_value) {
      if (!ParseFlagCount("--seed", argv[++i], 0, UINT64_MAX,
                          &o->base_seed)) {
        return 2;
      }
    } else if (std::strcmp(arg, "--jobs") == 0 && has_value) {
      if (!ParseFlagCount("--jobs", argv[++i], 1, 1024, &o->jobs)) return 2;
    } else if (std::strcmp(arg, "--workers") == 0 && has_value) {
      threaded_only = arg;
      if (!ParseCounts("--workers", argv[++i], 0, 256, &o->worker_counts)) {
        return 2;
      }
    } else if (std::strcmp(arg, "--groups") == 0 && has_value) {
      threaded_only = arg;
      if (!ParseCounts("--groups", argv[++i], 1, 64, &o->group_counts)) {
        return 2;
      }
    } else if (std::strcmp(arg, "--arrival-rate") == 0 && has_value) {
      threaded_only = arg;
      o->arrival_rate = std::atof(argv[++i]);
      if (o->arrival_rate <= 0.0) {
        std::fprintf(stderr, "bench_runner: --arrival-rate must be > 0\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--slo-ms") == 0 && has_value) {
      threaded_only = arg;
      o->slo_ms = std::atof(argv[++i]);
      if (o->slo_ms <= 0.0) {
        std::fprintf(stderr, "bench_runner: --slo-ms must be > 0\n");
        return 2;
      }
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "bench_runner: unknown flag '%s'\n", arg);
      return 2;
    } else {
      o->selected.emplace_back(arg);
    }
  }
  if (threaded_only != nullptr && o->runtime != Runtime::kThreaded) {
    std::fprintf(stderr, "bench_runner: %s needs --runtime=threaded\n",
                 threaded_only);
    return 2;
  }
  return -1;
}

int Main(int argc, char** argv) {
  Options options;
  const int parsed = ParseArgs(argc, argv, &options);
  if (parsed >= 0) return parsed;
  std::vector<std::string>& selected = options.selected;

  // The pseudo-name "all" selects every scenario, same as passing none.
  if (std::find(selected.begin(), selected.end(), "all") != selected.end()) {
    selected.clear();
  }

  // Reject unknown names up front so a typo cannot silently drop a
  // scenario from a CI smoke run or a measurement script.
  for (const std::string& name : selected) {
    const bool known =
        std::any_of(Scenarios().begin(), Scenarios().end(),
                    [&](const Scenario& s) { return name == s.name; });
    if (!known) {
      std::fprintf(stderr,
                   "bench_runner: unknown scenario '%s'; try --list\n",
                   name.c_str());
      return 2;
    }
  }

  // The real-time backends run explicit, fault-free declarative
  // scenarios; reject anything else up front rather than mid-run.
  if (options.runtime != Runtime::kSim) {
    const char* backend =
        options.runtime == Runtime::kThreaded ? "threaded" : "socket";
    if (selected.empty()) {
      std::fprintf(stderr,
                   "bench_runner: --runtime=%s needs an explicit "
                   "--scenario selection (try --scenario steady-state)\n",
                   backend);
      return 2;
    }
    for (const std::string& name : selected) {
      const harness::ScenarioSpec* spec = harness::FindScenario(name);
      if (spec == nullptr || !harness::ThreadedCapable(*spec)) {
        std::fprintf(stderr,
                     "bench_runner: scenario '%s' cannot run on the "
                     "%s backend (sim-only faults); see --list\n",
                     name.c_str(), backend);
        return 2;
      }
    }
  }

  bool ok = true;
  bool any = false;
  for (const Scenario& s : Scenarios()) {
    if (!selected.empty() &&
        std::find(selected.begin(), selected.end(), s.name) ==
            selected.end()) {
      continue;
    }
    any = true;
    std::printf("running %-28s (%s)\n", s.name, s.description);
    const ScenarioResult r = s.run(options);
    std::printf(
        "  n=%u committed=%lld tps=%.1f p50=%.2fms p99=%.2fms vc=%lld "
        "wall=%.2fs sha256=%llu%s\n",
        r.n, static_cast<long long>(r.committed), r.tps, r.p50_ms, r.p99_ms,
        static_cast<long long>(r.view_changes), r.wall_seconds,
        static_cast<unsigned long long>(r.sha256_hashes),
        r.safe ? "" : "  ** SAFETY VIOLATION **");
    ok = WriteJson(options.outdir, s.name, r) && r.safe && ok;
  }
  if (!any) {
    std::fprintf(stderr,
                 "bench_runner: no scenario matched; try --list for names\n");
    return 2;
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace prestige

int main(int argc, char** argv) {
  return prestige::bench::Main(argc, argv);
}
