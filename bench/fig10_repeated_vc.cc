// Figure 10: throughput under repeated view-change attacks (F4+F2, F4+F3).
//
// Faulty servers campaign for leadership at every opportunity and, once in
// power, go quiet (F4+F2) or equivocate (F4+F3); colluders share logs and
// pool PoW computation. Paper shape: hs suffers the same sustained drop as
// Fig. 9 (its passive schedule ignores campaigns); pb takes a moderate hit
// (~24% at n=4, f=1) because its reputation engine progressively suppresses
// the attackers.
//
// Every cell runs through the scenario runner (MeasureScenario): the
// cross-replica safety invariants sweep after warmup and after the
// measurement window, and any violation makes the binary exit non-zero.

#include "bench/bench_util.h"

namespace prestige {
namespace bench {
namespace {

constexpr util::DurationMicros kWarmup = util::Seconds(1);
constexpr util::DurationMicros kMeasure = util::Seconds(6);

/// All cells safe so far; cleared by MeasureScenario on any violation.
bool g_safe = true;

std::vector<types::FaultSpec> MakeAttackers(
    uint32_t n, uint32_t f, types::LeaderMisbehaviour misbehaviour) {
  std::vector<types::FaultSpec> faults(n, types::FaultSpec::Honest());
  for (uint32_t i = 0; i < f; ++i) {
    const uint32_t id = (n - 1 - i) % n;
    faults[id] = types::FaultSpec::RepeatedVc(
        types::AttackStrategy::kS1, misbehaviour,
        /*collusion_speedup=*/std::max(1.0, static_cast<double>(f)));
  }
  return faults;
}

harness::ScenarioSpec CellSpec(const char* proto, const char* kind,
                               uint32_t n, uint32_t f,
                               types::LeaderMisbehaviour misbehaviour) {
  return MeasuredSpec(std::string("fig10_") + proto + "_r10_" + kind + "_n" +
                          std::to_string(n) + "_f" + std::to_string(f),
                      n, MakeAttackers(n, f, misbehaviour), kWarmup, kMeasure);
}

void RunScale(uint32_t n, const std::vector<uint32_t>& f_values) {
  std::printf("--- n=%u ---\n", n);
  const types::LeaderMisbehaviour kinds[] = {
      types::LeaderMisbehaviour::kQuiet,
      types::LeaderMisbehaviour::kEquivocate};
  const char* kind_names[] = {"quiet", "equiv"};

  for (int k = 0; k < 2; ++k) {
    std::printf("pb_r10_%-12s", kind_names[k]);
    for (uint32_t f : f_values) {
      core::PrestigeConfig config = PaperPrestigeConfig(n, 1000);
      config.rotation_period = util::Seconds(2);
      auto r = MeasureScenario<core::PrestigeReplica>(
          CellSpec("pb", kind_names[k], n, f, kinds[k]),
          config, SaturatingWorkload(1000 + n + f + k, 8, 150), &g_safe);
      std::printf(" f=%u: %8.0f", f, r.phases.back().Tps());
    }
    std::printf("\n");
    std::printf("hs_r10_%-12s", kind_names[k]);
    for (uint32_t f : f_values) {
      baselines::hotstuff::HotStuffConfig config =
          PaperHotStuffConfig(n, 1000);
      config.rotation_period = util::Seconds(2);
      auto r = MeasureScenario<baselines::hotstuff::HotStuffReplica>(
          CellSpec("hs", kind_names[k], n, f, kinds[k]),
          config, SaturatingWorkload(1050 + n + f + k, 8, 150), &g_safe);
      std::printf(" f=%u: %8.0f", f, r.phases.back().Tps());
    }
    std::printf("\n");
  }
}

int Run() {
  PrintHeader("Figure 10",
              "Throughput under repeated VC attacks (F4+F2 / F4+F3), TPS");
  RunScale(4, {0, 1});
  RunScale(16, {0, 3, 5});
  PrintFooter(
      "Shape to check: pb drops moderately (paper: -24% at n=4 f=1) and\n"
      "recovers as attackers are penalized; hs shows the Fig. 9-style\n"
      "sustained drop (paper: -69%).");
  return g_safe ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace prestige

int main() { return prestige::bench::Run(); }
