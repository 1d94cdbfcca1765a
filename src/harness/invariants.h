// Cross-replica safety invariants, checked between scenario phases.
//
// Checks over the honest replicas' committed txBlock chains AND their
// application execution state:
//  1. agreement at every sequence number — no two honest replicas hold
//     different blocks at the same height (Theorem 3's guarantee);
//  2. committed-prefix agreement — combined with (1) and BlockStore's
//     append-time hash-chain enforcement, equal digests at every common
//     height imply one replica's chain is a prefix of the other's;
//  3. execution-result agreement — replicas at the same chain height must
//     report the same app::Service::StateDigest() and the same
//     exactly-once execution count (divergence means the service executed
//     different commands, in a different order, or a duplicate slipped
//     past a session table);
//  4. execution conservation — per replica, executed + duplicates
//     suppressed equals the transactions in its committed chain (nothing
//     double-executed, nothing skipped).
//
// Byzantine replicas are excluded: an equivocator's or forger's local
// bookkeeping carries no safety obligation. The exclusion set is the
// union of the FaultSpec cast (crash excluded — crashed replicas are
// honest, they simply stopped early, and their shorter prefix must still
// agree) and any scripted active adversaries the caller passes in
// (BuildByzantineSet in harness/adversary.h composes both). A scripted
// forged-reply replica genuinely diverges its application state, so
// including it would turn check (3) into a false safety violation.
//
// Checks 1-4 live in one loop, SweepChains. CheckSafety adapts live
// replica objects to it (ReplicaChains: in-process clusters, one shard
// group's range, perfbench's replica set); the process cluster adapts its
// nodes' self-reported chains (process_cluster.cc).

#ifndef PRESTIGE_HARNESS_INVARIANTS_H_
#define PRESTIGE_HARNESS_INVARIANTS_H_

#include <cstdio>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ledger/block_store.h"
#include "shard/router.h"
#include "types/fault_spec.h"
#include "util/hex.h"

namespace prestige {
namespace harness {

/// Outcome of one safety sweep.
struct SafetyReport {
  bool ok = true;
  std::string violation;  ///< Human-readable description when !ok.
  types::SeqNum min_height = 0;  ///< Shortest honest committed chain.
  types::SeqNum max_height = 0;  ///< Longest honest committed chain.
};

/// One replica's execution counters, as the sweep reads them.
struct ExecutionCounters {
  int64_t executed = 0;
  int64_t duplicates = 0;
  uint64_t state_digest = 0;
};

/// The chain and execution invariants over one replica set: the only
/// implementation, which CheckSafety and the process cluster's
/// reported-chain sweep adapt their replicas to. `Chains` exposes
/// num_replicas(), and for replica i: excluded(i), id(i) (the name
/// violations use), chain(i) (a vector of blocks) and execution(i); and,
/// as static functions of a block, DigestOf(), SeqOf() and TxsOf(), plus
/// DigestText(digest). Digests compare with ==; a default-constructed
/// `Chains::Digest` marks a height nobody holds yet.
template <typename Chains>
SafetyReport SweepChains(const Chains& chains) {
  using Digest = typename Chains::Digest;
  SafetyReport report;
  char buf[224];
  const auto fail = [&report, &buf]() {
    report.ok = false;
    report.violation = buf;
    return report;
  };
  // Reference chain per height: (digest, owner) of the first honest
  // replica seen holding that height.
  struct Reference {
    Digest digest{};
    uint32_t owner = 0;
  };
  std::vector<Reference> reference;
  // Execution reference per chain height: (state digest, executed count,
  // owner) of the first honest replica seen at that height.
  struct ExecReference {
    ExecutionCounters counters;
    uint32_t owner = 0;
    bool set = false;
  };
  std::unordered_map<types::SeqNum, ExecReference> exec_reference;
  bool first_honest = true;

  for (uint32_t i = 0; i < chains.num_replicas(); ++i) {
    if (chains.excluded(i)) continue;
    const uint32_t id = chains.id(i);
    const auto& chain = chains.chain(i);
    const types::SeqNum height = static_cast<types::SeqNum>(chain.size());
    if (first_honest || height < report.min_height) {
      report.min_height = height;
    }
    if (first_honest || height > report.max_height) {
      report.max_height = height;
    }
    first_honest = false;

    // 1 + 2. Agreement at every height this replica holds.
    if (reference.size() < chain.size()) reference.resize(chain.size());
    int64_t chain_txs = 0;
    for (size_t k = 0; k < chain.size(); ++k) {
      chain_txs += Chains::TxsOf(chain[k]);
      const Digest& digest = Chains::DigestOf(chain[k]);
      if (reference[k].digest == Digest{}) {
        reference[k] = Reference{digest, id};
        continue;
      }
      if (reference[k].digest != digest) {
        std::snprintf(buf, sizeof(buf),
                      "conflicting txBlocks at n=%lld: replica %u has %s…, "
                      "replica %u has %s…",
                      static_cast<long long>(Chains::SeqOf(chain[k])),
                      reference[k].owner,
                      Chains::DigestText(reference[k].digest).c_str(), id,
                      Chains::DigestText(digest).c_str());
        return fail();
      }
    }

    // 3. Execution-result agreement among replicas at this chain height.
    const ExecutionCounters exec = chains.execution(i);
    ExecReference& ref = exec_reference[height];
    if (!ref.set) {
      ref = ExecReference{exec, id, true};
    } else if (ref.counters.state_digest != exec.state_digest ||
               ref.counters.executed != exec.executed) {
      std::snprintf(buf, sizeof(buf),
                    "divergent execution at height %lld: replica %u "
                    "(digest=%016llx, executed=%lld) vs replica %u "
                    "(digest=%016llx, executed=%lld)",
                    static_cast<long long>(height), ref.owner,
                    static_cast<unsigned long long>(ref.counters.state_digest),
                    static_cast<long long>(ref.counters.executed), id,
                    static_cast<unsigned long long>(exec.state_digest),
                    static_cast<long long>(exec.executed));
      return fail();
    }

    // 4. Conservation: every committed transaction either executed exactly
    // once or was suppressed as a session duplicate — never both, never
    // neither.
    if (exec.executed + exec.duplicates != chain_txs) {
      std::snprintf(buf, sizeof(buf),
                    "execution count mismatch on replica %u: chain carries "
                    "%lld txs but executed=%lld + duplicates=%lld",
                    id, static_cast<long long>(chain_txs),
                    static_cast<long long>(exec.executed),
                    static_cast<long long>(exec.duplicates));
      return fail();
    }
  }
  return report;
}

/// The sweep's view of live replica objects: replicas [first, first +
/// count) of any Cluster<Replica, Config> whose Replica exposes store(),
/// delivery() and fault() (PrestigeBFT, HotStuff, and SBFT all do), named
/// by their index within the range and compared by full 32-byte block
/// digests. `byzantine` is indexed like the cluster.
template <typename Cluster>
struct ReplicaChains {
  using Digest = crypto::Sha256Digest;

  const Cluster& cluster;
  const std::vector<bool>& byzantine;
  uint32_t first;
  uint32_t count;

  uint32_t num_replicas() const { return count; }
  uint32_t id(uint32_t i) const { return i; }
  bool excluded(uint32_t i) const {
    const types::FaultSpec& fault = cluster.replica(first + i).fault();
    return (fault.IsByzantine() && fault.type != types::FaultType::kCrash) ||
           (first + i < byzantine.size() && byzantine[first + i]);
  }
  const std::vector<ledger::TxBlock>& chain(uint32_t i) const {
    return cluster.replica(first + i).store().tx_chain();
  }
  ExecutionCounters execution(uint32_t i) const {
    const auto& delivery = cluster.replica(first + i).delivery();
    return {delivery.stats().executed, delivery.stats().duplicates_suppressed,
            delivery.service().StateDigest()};
  }
  static const Digest& DigestOf(const ledger::TxBlock& block) {
    return block.Digest();
  }
  static types::SeqNum SeqOf(const ledger::TxBlock& block) { return block.n(); }
  static int64_t TxsOf(const ledger::TxBlock& block) {
    return static_cast<int64_t>(block.BatchSize());
  }
  static std::string DigestText(const Digest& digest) {
    return util::HexEncode(digest.data(), 4);
  }
};

/// Checks chain agreement across every honest replica of `cluster` (any
/// replica set with num_replicas() and replica(i)). `byzantine` marks
/// replicas excluded from every agreement check in addition to the
/// FaultSpec-derived exclusions; indices beyond its size count as honest.
template <typename Cluster>
SafetyReport CheckSafety(const Cluster& cluster,
                         const std::vector<bool>& byzantine) {
  return SweepChains(
      ReplicaChains<Cluster>{cluster, byzantine, 0, cluster.num_replicas()});
}

/// All-honest convenience overload: no scripted adversaries beyond the
/// FaultSpec cast.
template <typename Cluster>
SafetyReport CheckSafety(const Cluster& cluster) {
  return CheckSafety(cluster, std::vector<bool>());
}

// ------------------------------------------------------- sharded clusters

/// Outcome of one sharded safety sweep.
struct ShardedSafetyReport {
  bool ok = true;
  std::string violation;  ///< Human-readable description when !ok.
  /// Per-group chain/execution sweeps, in group order (truncated at the
  /// first failing group).
  std::vector<SafetyReport> groups;
  int64_t routed_txs = 0;     ///< Committed txs checked against the router.
  int64_t distinct_keys = 0;  ///< Distinct routing keys seen committed.
};

/// The sharded safety sweep:
///  1. per-group committed-prefix + execution agreement — the CheckSafety
///     sweep over each group's replica range (groups never intercommunicate,
///     so cross-group chains are unrelated by design and compared by
///     nobody);
///  2. router consistency — every committed transaction routes (by its
///     routing key, under `router`) to the group that committed it, and
///     carries that group's id in its digest-covered `group` field;
///  3. shard exclusivity — no routing key appears in the committed chains
///     of two different groups ("no key executes in two groups").
///
/// `router` must be the geometry the workload generated against (same
/// num_groups and salt). `byzantine` marks scripted adversaries by global
/// replica index, as CheckSafety's does; they are excluded from every
/// check.
template <typename Cluster>
ShardedSafetyReport CheckShardedSafety(
    const Cluster& cluster, const shard::Router& router,
    const std::vector<bool>& byzantine = {}) {
  ShardedSafetyReport report;
  const uint32_t groups = cluster.num_groups();
  const uint32_t per_group = cluster.replicas_per_group();
  const auto group = [&](uint32_t g) {
    return ReplicaChains<Cluster>{cluster, byzantine, g * per_group,
                                  per_group};
  };
  for (uint32_t g = 0; g < groups; ++g) {
    SafetyReport group_report = SweepChains(group(g));
    const bool group_ok = group_report.ok;
    if (!group_ok) {
      report.ok = false;
      report.violation =
          "group " + std::to_string(g) + ": " + group_report.violation;
    }
    report.groups.push_back(std::move(group_report));
    if (!group_ok) return report;
  }

  // Checks 2 and 3 over each group's longest honest chain: per-group
  // agreement (check 1) makes every other honest chain in the group a
  // prefix of it, so the longest chain covers everything the group
  // committed.
  std::unordered_map<uint64_t, uint32_t> key_owner;
  for (uint32_t g = 0; g < groups; ++g) {
    const ReplicaChains<Cluster> chains = group(g);
    const std::vector<ledger::TxBlock>* chain = nullptr;
    for (uint32_t i = 0; i < per_group; ++i) {
      if (chains.excluded(i)) continue;
      const std::vector<ledger::TxBlock>& candidate = chains.chain(i);
      if (chain == nullptr || candidate.size() > chain->size()) {
        chain = &candidate;
      }
    }
    if (chain == nullptr) continue;  // All-Byzantine group: nothing to owe.
    for (const ledger::TxBlock& block : *chain) {
      for (const auto& tx : block.txs()) {
        ++report.routed_txs;
        std::string violation;
        if (!shard::VerifyRoutingAssignment(router, g, tx, &violation)) {
          report.ok = false;
          report.violation = violation;
          return report;
        }
        const uint64_t key = shard::Router::RoutingKey(tx);
        const auto [it, inserted] = key_owner.emplace(key, g);
        if (!inserted && it->second != g) {
          char buf[160];
          std::snprintf(buf, sizeof(buf),
                        "routing key %llu executed in two groups: %u and %u",
                        static_cast<unsigned long long>(key), it->second, g);
          report.ok = false;
          report.violation = buf;
          return report;
        }
      }
    }
  }
  report.distinct_keys = static_cast<int64_t>(key_owner.size());
  return report;
}

}  // namespace harness
}  // namespace prestige

#endif  // PRESTIGE_HARNESS_INVARIANTS_H_
