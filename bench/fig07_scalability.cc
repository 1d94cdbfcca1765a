// Figure 7: throughput and latency under increasing system scales.
//
// pb vs hs at n in {4, 16, 31, 61, 100}, message sizes m in {32, 64} bytes,
// and emulated network delay d in {0, 10 +- 5 ms} (netem). Paper shape:
// both algorithms' throughput falls and latency rises with cluster size;
// pb stays above hs throughout; the netem delay raises latency sharply.
//
// Every cell runs through the scenario runner (MeasureScenario): the
// cross-replica safety invariants sweep after warmup and after the
// measurement window, and any violation makes the binary exit non-zero.

#include "bench/bench_util.h"

namespace prestige {
namespace bench {
namespace {

constexpr util::DurationMicros kWarmup = util::Millis(1500);
constexpr util::DurationMicros kMeasure = util::Millis(1200);

/// All cells safe so far; cleared by MeasureScenario on any violation.
bool g_safe = true;

/// Measures one fault-free cell and prints its row.
template <typename Replica, typename Config>
void Cell(const char* algo, uint32_t n, uint32_t m, int d,
          const Config& config, const harness::WorkloadOptions& workload) {
  const std::string name = std::string("fig07_") + algo + "_n" +
                           std::to_string(n) + "_m" + std::to_string(m) +
                           "_d" + std::to_string(d);
  const auto r = MeasureScenario<Replica>(
      MeasuredSpec(name, n, {}, kWarmup, kMeasure), config, workload,
      &g_safe);
  std::printf("%-4s %-4u %-4u d=%-4d %12.0f %12.1f %12.1f\n", algo, n, m, d,
              r.phases.back().Tps(), r.mean_ms, r.p99_ms);
}

int Run() {
  PrintHeader("Figure 7",
              "Throughput/latency vs scale (m=32/64, d=0 / 10±5 ms)");
  std::printf("%-4s %-4s %-4s %-6s %12s %12s %12s\n", "algo", "n", "m", "d",
              "TPS", "mean ms", "p99 ms");

  for (uint32_t n : {4u, 16u, 31u, 61u, 100u}) {
    for (uint32_t m : {32u, 64u}) {
      for (int d : {0, 10}) {
        if (m == 64 && d == 10) continue;  // Redundant combo (runtime).
        harness::WorkloadOptions w = SaturatingWorkload(
            700 + n + m + d, n <= 16 ? 16 : 8, n <= 16 ? 300 : 120, m);
        w.latency = d == 0 ? sim::LatencyModel::Datacenter()
                           : sim::LatencyModel::NetemEmulated();
        Cell<core::PrestigeReplica>("pb", n, m, d, PaperPrestigeConfig(n),
                                    w);
        Cell<baselines::hotstuff::HotStuffReplica>("hs", n, m, d,
                                                   PaperHotStuffConfig(n), w);
      }
    }
  }

  PrintFooter(
      "Shape to check: throughput decreases / latency increases with n for\n"
      "both algorithms; pb > hs at every scale; d=10 ms inflates latency\n"
      "and its variance (paper Fig. 7).");
  return g_safe ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace prestige

int main() { return prestige::bench::Run(); }
