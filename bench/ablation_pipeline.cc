// Ablation (beyond the paper's figures): replication pipelining depth.
//
// PrestigeBFT's two-phase replication allows multiple instances in flight;
// Prosecutor runs with depth 1. Sweeps max_inflight to show where the
// throughput between them comes from. Every cell runs through the
// scenario runner (MeasureScenario), and a safety violation makes the
// binary exit non-zero.

#include "bench/bench_util.h"

namespace prestige {
namespace bench {
namespace {

int Run() {
  bool safe = true;
  PrintHeader("Ablation: pipelining depth",
              "PrestigeBFT n=4, beta=3000, m=32; max in-flight instances");
  std::printf("%-10s %12s %12s\n", "depth", "TPS", "mean ms");

  for (size_t depth : {1, 2, 4, 8, 16}) {
    core::PrestigeConfig config = PaperPrestigeConfig(4);
    config.max_inflight = depth;
    const auto r = MeasureScenario<core::PrestigeReplica>(
        MeasuredSpec("ablation_pipeline_depth" + std::to_string(depth), 4, {},
                     util::Seconds(1), util::Seconds(2)),
        config, SaturatingWorkload(2100 + depth), &safe);
    std::printf("%-10zu %12.0f %12.1f\n", depth, r.phases.back().Tps(),
                r.mean_ms);
  }

  PrintFooter(
      "Reading: depth 1 approximates Prosecutor's serial replication;\n"
      "depth >= 4 saturates the leader (diminishing returns beyond).");
  return safe ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace prestige

int main() { return prestige::bench::Run(); }
