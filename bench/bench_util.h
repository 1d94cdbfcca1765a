// Shared helpers for the figure-reproduction benches and bench_runner. Each
// figure binary runs argument-free and prints the series of one paper
// figure, with the paper's reported values alongside for comparison (see
// README.md, "Benchmarks").

#ifndef PRESTIGE_BENCH_BENCH_UTIL_H_
#define PRESTIGE_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "baselines/hotstuff/hotstuff_replica.h"
#include "baselines/prosecutor/prosecutor.h"
#include "baselines/sbft/sbft_replica.h"
#include "core/replica.h"
#include "crypto/sha256.h"
#include "harness/cluster.h"
#include "harness/scenario_runner.h"

namespace prestige {
namespace bench {

/// The two-phase spec every measured bench run executes on `n` replicas
/// with the `faults` cast: a `warmup` phase, then a `measure` phase whose
/// PhaseOutcome is the measurement window.
inline harness::ScenarioSpec MeasuredSpec(const std::string& name, uint32_t n,
                                          std::vector<types::FaultSpec> faults,
                                          util::DurationMicros warmup,
                                          util::DurationMicros measure) {
  harness::ScenarioSpec spec;
  spec.name = name;
  spec.n = n;
  spec.byzantine = std::move(faults);
  spec.phases.resize(2);
  spec.phases[0].name = "warmup";
  spec.phases[0].duration = warmup;
  spec.phases[1].name = "measure";
  spec.phases[1].duration = measure;
  return spec;
}

/// The one bench-side measured run: `spec` through the scenario runner, so
/// the cross-replica safety invariants sweep at every phase boundary. The
/// measure window's throughput is `phases.back().Tps()`; latency and the
/// other harvested metrics cover the whole run. A violation prints to
/// stderr and clears `*safe` (never set back to true), letting binaries
/// keep their tables while exiting non-zero on any safety failure.
template <typename Replica, typename Config>
harness::ScenarioSeedResult MeasureScenario(
    const harness::ScenarioSpec& spec, Config config,
    const harness::WorkloadOptions& workload, bool* safe) {
  harness::ScenarioSeedResult r =
      harness::RunScenarioSeed<Replica, Config>(spec, config, workload);
  if (!r.safety_ok) {
    std::fprintf(stderr, "SAFETY VIOLATION %s (seed %llu): %s\n",
                 spec.name.c_str(), static_cast<unsigned long long>(r.seed),
                 r.violation.c_str());
    *safe = false;
  }
  return r;
}

/// True when this binary was built with any sanitizer instrumentation.
/// Sanitized builds run 2-20x slower; their wall-clock numbers must never
/// enter the perf trajectory, so every BENCH_*.json carries this flag.
inline bool SanitizedBuild() {
  return PRESTIGE_BUILD_SANITIZERS[0] != '\0';
}

/// Build-provenance JSON object stamped into every BENCH_*.json:
///   {"sanitizers": "tsan", "build_type": "RelWithDebInfo",
///    "werror": false, "sanitized": true, "sha256": "sha-ni"}
/// The CMake cache supplies the macro values (see the BENCH metadata block
/// in CMakeLists.txt). "sha256" is the SHA-256 kernel this host runs
/// ("sha-ni" or "portable"): hashing is a large share of replica CPU, so
/// numbers from a host without SHA-NI are not comparable with ones from a
/// host with it.
inline std::string BuildMetadataJson() {
  std::string json = "{\"sanitizers\": \"";
  json += PRESTIGE_BUILD_SANITIZERS;
  json += "\", \"build_type\": \"";
  json += PRESTIGE_BUILD_TYPE;
  json += "\", \"werror\": ";
  json += PRESTIGE_BUILD_WERROR ? "true" : "false";
  json += ", \"sanitized\": ";
  json += SanitizedBuild() ? "true" : "false";
  json += ", \"sha256\": \"";
  json += crypto::Sha256::KernelName();
  json += "\"}";
  return json;
}

inline void PrintHeader(const char* figure, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s\n%s\n", figure, description);
  std::printf("==============================================================\n");
}

inline void PrintFooter(const char* note) {
  std::printf("--------------------------------------------------------------\n");
  std::printf("%s\n\n", note);
}

/// Default workload sized to saturate an n=4 cluster.
inline harness::WorkloadOptions SaturatingWorkload(uint64_t seed,
                                                   uint32_t pools = 24,
                                                   uint32_t clients = 400,
                                                   uint32_t payload = 32) {
  harness::WorkloadOptions w;
  w.num_pools = pools;
  w.clients_per_pool = clients;
  w.payload_size = payload;
  w.client_timeout = util::Seconds(2);
  w.seed = seed;
  return w;
}

/// The paper's PrestigeBFT configuration scaled for simulation runs.
inline core::PrestigeConfig PaperPrestigeConfig(uint32_t n,
                                                size_t batch = 3000) {
  core::PrestigeConfig config;
  config.n = n;
  config.batch_size = batch;
  config.timeout_min = util::Millis(800);
  config.timeout_max = util::Millis(1200);
  return config;
}

/// The paper's HotStuff configuration (1 s initial timeout).
inline baselines::hotstuff::HotStuffConfig PaperHotStuffConfig(
    uint32_t n, size_t batch = 1000) {
  baselines::hotstuff::HotStuffConfig config;
  config.n = n;
  config.batch_size = batch;
  config.view_timeout = util::Seconds(1);
  return config;
}

}  // namespace bench
}  // namespace prestige

#endif  // PRESTIGE_BENCH_BENCH_UTIL_H_
