// ProcessCluster: launches an n-replica (+ client pools) deployment as
// separate OS processes over loopback UDP and sweeps safety invariants
// over their post-mortem reports.
//
// The launcher side of the deployment story (the node side is
// tools/prestige_node):
//   1. allocate loopback ports and write a net::ClusterConfig file;
//   2. fork/exec one prestige_node per node, stdout/err to per-node logs;
//   3. ping-barrier every control socket until the fleet is up;
//   4. let the scripted duration elapse, then `stop` + `status` + `quit`
//      each node over its control socket and reap the processes;
//   5. parse the status JSON and run the CheckSafety sweep — per-height
//      digest agreement, execution agreement at equal heights, and
//      executed + duplicates == chain-tx conservation — over the reported
//      chains: the same loop (invariants.h's SweepChains) the in-process
//      harnesses run, through an adapter over the reports.
//
// Unlike the in-process clusters this cannot inspect replica objects, so
// nodes self-report: each status reply carries the replica's committed
// chain as (n, digest-prefix, tx-count) triples plus its execution
// counters, or the pool's client statistics. A crashed node (no status
// reply) fails the run.

#ifndef PRESTIGE_HARNESS_PROCESS_CLUSTER_H_
#define PRESTIGE_HARNESS_PROCESS_CLUSTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness/invariants.h"
#include "net/address.h"
#include "net/frame.h"

namespace prestige {
namespace harness {

/// Everything one node reported in its final `status` reply.
struct NodeReport {
  uint32_t id = 0;
  bool is_replica = true;
  bool responded = false;
  std::string raw;  ///< The full status JSON line, for logs/artifacts.

  // Replica fields.
  int64_t committed_txs = 0;
  int64_t committed_blocks = 0;
  int64_t view_changes = 0;
  int64_t elections_won = 0;
  int64_t executed = 0;
  int64_t duplicates = 0;
  uint64_t state_digest = 0;
  struct ChainEntry {
    int64_t n = 0;
    std::string digest_hex;  ///< First 8 digest bytes, 16 hex chars.
    int64_t txs = 0;
  };
  std::vector<ChainEntry> chain;

  // Pool fields.
  int64_t completed = 0;
  int64_t replies = 0;
  int64_t result_mismatches = 0;
  int64_t retransmissions = 0;
  int64_t expired = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;

  net::FrameCounters net;
};

/// Outcome of one multi-process run.
struct ProcessClusterResult {
  bool ran = false;
  std::string error;  ///< Launch/harvest failure when !ran.
  double duration_seconds = 0.0;
  int64_t committed = 0;  ///< Client-observed, summed over pools.
  double tps = 0.0;
  double p50_ms = 0.0;  ///< Max over pools (conservative).
  double p99_ms = 0.0;
  int64_t view_changes = 0;
  int64_t elections_won = 0;
  int64_t executed = 0;
  int64_t duplicates = 0;
  int64_t replies = 0;
  int64_t result_mismatches = 0;
  bool safety_ok = false;
  std::string violation;
  int64_t min_height = 0;
  int64_t max_height = 0;
  net::FrameCounters net;  ///< Summed over every node.
  std::vector<NodeReport> nodes;
};

/// Launch parameters beyond the cluster config itself.
struct ProcessClusterOptions {
  net::ClusterConfig config;  ///< Peer addresses are filled by the launcher.
  std::string node_binary;    ///< Path to prestige_node.
  std::string work_dir;       ///< Config + per-node logs land here.
  int startup_timeout_ms = 15000;  ///< Ping-barrier budget for the fleet.
  int control_timeout_ms = 30000;  ///< Per-command control-socket budget.
};

/// Allocates loopback ports for every node of `options.config` (replicas
/// 0..n-1 then pools n..n+pools-1) and rewrites its peer list. Returns
/// false if the kernel refuses a port.
bool AllocateLoopbackPorts(net::ClusterConfig* config, std::string* error);

/// Runs the full launch → run → harvest → sweep sequence. Always reaps
/// every child it spawned (SIGKILL on the error paths).
ProcessClusterResult RunProcessCluster(const ProcessClusterOptions& options);

/// The CheckSafety sweep (invariants.h's SweepChains) over self-reported
/// chains; exposed for tests. A replica with no status, or no replica
/// report at all, fails the sweep before it starts.
SafetyReport SweepReportedSafety(const std::vector<NodeReport>& nodes);

// Minimal JSON field extractors for the flat status documents the control
// protocol emits (exposed for tests and prestige_cluster's reporting).
// They scan for `"key":` at top level or inside nested objects; the first
// occurrence wins, so emit unambiguous keys.
bool JsonFindInt(const std::string& json, const std::string& key,
                 int64_t* out);
bool JsonFindDouble(const std::string& json, const std::string& key,
                    double* out);
bool JsonFindString(const std::string& json, const std::string& key,
                    std::string* out);

/// Parses one node's status JSON into a NodeReport (id/kind/counters/
/// chain). Returns false on documents missing the `kind` marker.
bool ParseNodeStatus(const std::string& json, NodeReport* out);

}  // namespace harness
}  // namespace prestige

#endif  // PRESTIGE_HARNESS_PROCESS_CLUSTER_H_
