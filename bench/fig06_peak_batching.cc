// Figure 6: peak performance under batching (n = 4, m = 32 bytes).
//
// Reproduces the batch-size sweep for PrestigeBFT (pb), HotStuff (hs),
// Prosecutor (ps), and SBFT (sb). Paper peaks: pb 186,012 TPS @ 166 ms
// (beta=3000); hs 35,428 @ 129 ms (beta=1000); sb 4,872 @ 148 ms (beta=800);
// ps similar throughput to hs at lower latency. Absolute values depend on
// the calibrated cost model; the ordering pb > hs ~ ps > sb and the
// batching trends are the reproduced shape.
//
// Every cell runs through the scenario runner (MeasureScenario): the
// cross-replica safety invariants sweep after warmup and after the
// measurement window, and any violation makes the binary exit non-zero.

#include "bench/bench_util.h"

namespace prestige {
namespace bench {
namespace {

constexpr util::DurationMicros kWarmup = util::Seconds(1);
constexpr util::DurationMicros kMeasure = util::Seconds(2);

/// All cells safe so far; cleared by MeasureScenario on any violation.
bool g_safe = true;

/// Measures one fault-free n=4 cell.
template <typename Replica, typename Config>
harness::ScenarioSeedResult Cell(const char* algo, size_t batch,
                                 const Config& config,
                                 const harness::WorkloadOptions& workload) {
  return MeasureScenario<Replica>(
      MeasuredSpec(std::string("fig06_") + algo + "_beta" +
                       std::to_string(batch),
                   4, {}, kWarmup, kMeasure),
      config, workload, &g_safe);
}

void Row(const char* algo, size_t batch, const harness::ScenarioSeedResult& r,
         const char* paper) {
  std::printf("%-4s beta=%-5zu  %10.0f TPS  %7.1f ms mean  %7.1f ms p99   %s\n",
              algo, batch, r.phases.back().Tps(), r.mean_ms, r.p99_ms, paper);
}

int Run() {
  PrintHeader("Figure 6", "Peak performance under batching (n=4, m=32)");

  for (size_t batch : {2000, 3000, 5000}) {
    auto r = Cell<core::PrestigeReplica>("pb", batch,
                                         PaperPrestigeConfig(4, batch),
                                         SaturatingWorkload(601));
    Row("pb", batch, r,
        batch == 3000 ? "(paper peak: 186,012 TPS @ 166 ms)" : "");
  }
  for (size_t batch : {800, 1000, 2000}) {
    auto r = Cell<baselines::hotstuff::HotStuffReplica>(
        "hs", batch, PaperHotStuffConfig(4, batch), SaturatingWorkload(602));
    Row("hs", batch, r,
        batch == 1000 ? "(paper peak: 35,428 TPS @ 129 ms)" : "");
  }
  for (size_t batch : {800, 1000, 1500}) {
    core::PrestigeConfig config =
        baselines::prosecutor::MakeProsecutorConfig(4, batch);
    auto r = Cell<baselines::prosecutor::ProsecutorReplica>(
        "ps", batch, config, SaturatingWorkload(603));
    Row("ps", batch, r,
        batch == 1000 ? "(paper: ~HotStuff throughput, lower latency)" : "");
  }
  for (size_t batch : {500, 800, 1000}) {
    baselines::sbft::SbftConfig config;
    config.n = 4;
    config.batch_size = batch;
    auto r = Cell<baselines::sbft::SbftReplica>(
        "sb", batch, config, SaturatingWorkload(604, 24, 120));
    Row("sb", batch, r,
        batch == 800 ? "(paper peak: 4,872 TPS @ 148 ms)" : "");
  }

  PrintFooter(
      "Shape to check: pb fastest (two-phase + pipelining), hs/ps mid, sb\n"
      "slowest (per-request threshold-RSA verification); throughput grows\n"
      "with batch size until the leader saturates.");
  return g_safe ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace prestige

int main() { return prestige::bench::Run(); }
