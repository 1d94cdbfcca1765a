// Declarative fault/workload scenarios.
//
// A ScenarioSpec is an ordered list of timed phases. Each phase can, at its
// start: install or heal a partition (expressed over replica *indices*, not
// actor ids), replace the cluster-wide / per-link degradation (LinkFault),
// crash or recover replicas, and set the workload intensity (fraction of
// client pools issuing requests). The spec also carries per-replica
// Byzantine FaultSpecs (F1-F4 behaviours activate at their own start_at
// inside a phase timeline).
//
// Specs are pure data: the same spec runs unchanged against PrestigeBFT,
// HotStuff, and SBFT clusters via scenario_runner.h, and the same
// (spec, seed) pair reproduces byte-identical virtual-time metrics.

#ifndef PRESTIGE_HARNESS_SCENARIO_H_
#define PRESTIGE_HARNESS_SCENARIO_H_

#include <optional>
#include <string>
#include <vector>

#include "sim/fault.h"
#include "util/time.h"
#include "types/byzantine_spec.h"
#include "types/fault_spec.h"

namespace prestige {
namespace harness {

/// A LinkFault on one directed replica-to-replica link.
struct LinkFaultRule {
  uint32_t from = 0;  ///< Sender replica index.
  uint32_t to = 0;    ///< Receiver replica index.
  sim::LinkFault fault;
};

/// One timed phase of a scenario. All settings apply at phase start; the
/// phase then runs for `duration` of virtual time, after which the safety
/// invariants are checked (see invariants.h) and the next phase begins.
struct Phase {
  std::string name;
  util::DurationMicros duration = util::Seconds(2);

  /// When true, replaces the partition state: `partition` lists groups of
  /// replica indices that can only reach their own group (client pools stay
  /// unrestricted). An empty group list heals the network.
  bool set_partition = false;
  std::vector<std::vector<uint32_t>> partition;

  /// When true, isolates whichever replica currently leads (resolved at
  /// phase start by majority of the replicas' leader views) from all other
  /// replicas. Combines with `set_partition` being false.
  bool partition_leader = false;

  /// When true, replaces all link-level degradation: `default_link_fault`
  /// (if set) applies to every replica-to-replica link, then `link_faults`
  /// override individual directed links. When false, previous-phase faults
  /// persist.
  bool set_link_faults = false;
  std::optional<sim::LinkFault> default_link_fault;
  std::vector<LinkFaultRule> link_faults;

  /// Replicas crashed (network-level down) / recovered at phase start.
  std::vector<uint32_t> crash;
  std::vector<uint32_t> recover;

  /// Fraction of client pools issuing requests during this phase [0, 1].
  double load = 1.0;
};

/// A complete scenario: cluster size, Byzantine cast, and phase script.
struct ScenarioSpec {
  std::string name;
  std::string description;
  uint32_t n = 4;
  /// Per-replica Byzantine behaviours (resized to n with Honest()).
  std::vector<types::FaultSpec> byzantine;
  /// Active scripted adversaries (equivocation, wedging, withholding,
  /// forged replies, complaint spam), enacted via an AdversaryPolicy the
  /// runner installs on replicas and client pools. Empty = no adversary.
  types::ByzantineSpec adversary;
  /// Run the KV workload (real command bytes + KvService) instead of the
  /// null service — forged-reply adversaries need genuine application
  /// state to diverge.
  bool kv_workload = false;
  std::vector<Phase> phases;

  /// Total scripted virtual time.
  util::DurationMicros TotalDuration() const {
    util::DurationMicros total = 0;
    for (const Phase& p : phases) total += p.duration;
    return total;
  }
};

/// The built-in scenario library: fault scenarios (partition-minority,
/// partition-leader, flaky-links, churn, partition-during-view-change) and
/// the active-adversary suite (equivocating-leader, slow-leader,
/// complaint-spam, vote-withholding, forged-replies, mixed-adversary).
const std::vector<ScenarioSpec>& NamedScenarios();

/// Looks up a built-in scenario by name; nullptr when unknown.
const ScenarioSpec* FindScenario(const std::string& name);

/// True when `spec` uses no simulator-only machinery — partitions, link
/// faults, crashes, partial load, or a Byzantine cast — and can therefore
/// run unchanged on the wall-clock backends (runner.h).
bool ThreadedCapable(const ScenarioSpec& spec);

}  // namespace harness
}  // namespace prestige

#endif  // PRESTIGE_HARNESS_SCENARIO_H_
