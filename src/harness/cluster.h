// Cluster: wires n replicas + client pools onto one runtime backend.
//
// Generic over the protocol: any Replica type with
//   Replica(Config, ReplicaId, const KeyStore*, FaultSpec)
//   SetTopology(replica_node_ids, client_node_ids)
//   store() / metrics() / fault() / delivery()
// works (PrestigeBFT and all baselines follow this shape). The protocol
// Config must expose `n` and `f()`.
//
// Generic over the backend too. A backend adapter only registers nodes
// and starts, runs, and stops the deployment; wiring, pools, services,
// adversaries, and every aggregate live once, here:
//   * SimBackend (default) — the deterministic discrete-event simulator:
//     virtual time, modelled network costs, fault plane, reproducible per
//     seed;
//   * ThreadedBackend — runtime::ThreadedRuntime: one OS thread per node,
//     in-process loopback queues, wall-clock time;
//   * SocketBackend — runtime::SocketRuntime: one OS thread and one
//     loopback UDP socket per node; all traffic crosses the kernel through
//     the net/ framing and wire codec.
// The two wall-clock backends are two transports of one event loop
// (runtime/event_loop.h).
// Protocols speak only runtime::Env and never see which backend drives
// them. Node ids follow registration order (replicas group-major, then
// pools group-major) on every backend; the sim and threaded RNG streams
// are forked in that order too (the socket runtime derives each node's
// stream from (seed, id)). Thread scheduling makes wall-clock runs
// nondeterministic.
//
// On the wall-clock backends RunFor sleeps while the node threads work;
// call Stop() before reading replica stores, metrics, or pool counters —
// the join publishes them to the caller's thread.

#ifndef PRESTIGE_HARNESS_CLUSTER_H_
#define PRESTIGE_HARNESS_CLUSTER_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "app/service.h"
#include "core/metrics.h"
#include "crypto/keys.h"
#include "runtime/sim_env.h"
#include "runtime/socket_env.h"
#include "runtime/threaded_env.h"
#include "shard/router.h"
#include "sim/latency.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "workload/client_pool.h"
#include "workload/open_loop_pool.h"
#include "types/adversary.h"
#include "types/fault_spec.h"

namespace prestige {
namespace harness {

/// Workload / environment parameters shared by all protocols.
struct WorkloadOptions {
  uint32_t num_pools = 8;
  uint32_t clients_per_pool = 100;
  uint32_t payload_size = 32;  ///< m.
  util::DurationMicros client_timeout = util::Seconds(1);
  sim::LatencyModel latency = sim::LatencyModel::Datacenter();
  sim::CostModel cost;
  uint64_t seed = 1;
  /// Command shape the virtual clients issue (opaque vs real KV puts).
  workload::CommandKind command_kind = workload::CommandKind::kOpaque;
  uint64_t kv_key_space = 1024;

  // ---- Sharding ---------------------------------------------------------
  /// Number of consensus groups. Each group is an independent replica set
  /// of `protocol.n` replicas — its own leader, views, and reputation —
  /// sharing one runtime backend; shard::Router hash-partitions the key
  /// space across groups and `num_pools` client pools drive EACH group.
  /// 1 = the classic unsharded deployment (wiring, ids, and RNG streams
  /// are bit-for-bit the historical ones). With more than one group the
  /// workload is forced to kKvPut: only real keys can be routed, opaque
  /// fingerprints cannot be generated pre-targeted at a group.
  uint32_t num_groups = 1;
  /// Router salt; must match whatever checks routing later.
  uint64_t router_salt = shard::Router::kDefaultSalt;

  // ---- Open-loop workload engine ----------------------------------------
  /// When true, pools are workload::OpenLoopPool arrival engines instead
  /// of closed-loop ClientPools. clients_per_pool is then unused (load
  /// comes from `arrival`, sessions from `logical_sessions`), and the
  /// scenario SetActive machinery does not apply.
  bool open_loop = false;
  workload::ArrivalSpec arrival;        ///< Per-pool arrival trace.
  uint64_t logical_sessions = 1000000;  ///< Sessions multiplexed per pool.
  double zipf_theta = 0.0;              ///< Key skew (0 = uniform).
  uint32_t max_outstanding = 2048;      ///< Per-pool in-flight budget.
  uint32_t max_backlog = 4096;          ///< Per-pool admission queue bound.
  double slo_ms = 500.0;                ///< End-to-end latency SLO.
  util::TimeMicros open_loop_stop_at = 0;  ///< Stop arrivals (0 = never).
};

// ------------------------------------------------------------- backends

/// The deterministic simulator: one SimEnv actor per node on one
/// Simulator + Network. The default backend.
class SimBackend {
 public:
  static constexpr const char* kName = "sim";

  explicit SimBackend(const WorkloadOptions& workload)
      : sim_(workload.seed), net_(&sim_, workload.latency, workload.cost) {}

  runtime::NodeId Add(runtime::Node* node, std::string* /*error*/) {
    envs_.push_back(std::make_unique<runtime::SimEnv>(node));
    const sim::ActorId id = sim_.AddActor(envs_.back().get());
    envs_.back()->AttachNetwork(&net_);
    return id;
  }

  /// Schedules every node's OnStart, in registration order, at the
  /// current virtual time.
  void Start() {
    // All actors are registered; size the network's per-actor resource
    // tables once instead of growing them lazily inside Send/Deliver.
    net_.PresizeActors(sim_.num_actors());
    for (auto& env : envs_) {
      sim_.ScheduleAfter(0, [node = env->node()]() { node->OnStart(); });
    }
  }
  void RunFor(util::DurationMicros duration) {
    sim_.RunUntil(sim_.Now() + duration);
  }
  void Stop() {}

  sim::Simulator& simulator() { return sim_; }
  sim::Network& network() { return net_; }

 private:
  sim::Simulator sim_;
  sim::Network net_;
  std::vector<std::unique_ptr<runtime::SimEnv>> envs_;
};

/// Shared lifecycle of the wall-clock backends: the node threads do the
/// work while the caller sleeps through RunFor.
template <typename Runtime>
class WallClockBackend {
 public:
  void Start() { runtime_.Start(); }
  void RunFor(util::DurationMicros duration) {
    std::this_thread::sleep_for(std::chrono::microseconds(duration));
  }
  /// Stops every event loop and joins (idempotent).
  void Stop() { runtime_.Stop(); }
  Runtime& runtime() { return runtime_; }

 protected:
  template <typename... Args>
  explicit WallClockBackend(Args&&... args)
      : runtime_(std::forward<Args>(args)...) {}

  Runtime runtime_;
};

/// runtime::ThreadedRuntime: in-process mailboxes between per-node threads.
class ThreadedBackend : public WallClockBackend<runtime::ThreadedRuntime> {
 public:
  static constexpr const char* kName = "threaded";

  explicit ThreadedBackend(const WorkloadOptions& workload)
      : WallClockBackend(workload.seed) {}

  runtime::NodeId Add(runtime::Node* node, std::string* /*error*/) {
    return runtime_.AddNode(node);
  }
};

/// The loopback address socket nodes bind to (port 0 = kernel-assigned).
inline net::SockAddr LoopbackAny() {
  net::SockAddr addr;
  addr.ip = 0x7f000001;  // 127.0.0.1
  addr.port = 0;
  return addr;
}

/// runtime::SocketRuntime inside one process: every node binds its own
/// loopback UDP socket — the in-process twin of the multi-process
/// deployment prestige_node / prestige_cluster build.
class SocketBackend : public WallClockBackend<runtime::SocketRuntime> {
 public:
  static constexpr const char* kName = "socket";

  explicit SocketBackend(const WorkloadOptions& workload)
      : WallClockBackend(workload.seed) {}

  /// Ids follow registration order, as on the other backends. A failed
  /// bind is reported through `error` (first failure wins).
  runtime::NodeId Add(runtime::Node* node, std::string* error) {
    const runtime::NodeId id = next_id_++;
    std::string bind_error;
    if (!runtime_.AddNode(node, id, LoopbackAny(), &bind_error) &&
        error->empty()) {
      *error = "socket node " + std::to_string(id) + ": " + bind_error;
    }
    return id;
  }

 private:
  runtime::NodeId next_id_ = 0;
};

// ------------------------------------------------------------ deployment

/// A complete deployment of one protocol on one backend.
template <typename Replica, typename Config, typename Backend = SimBackend>
class Cluster {
 public:
  Cluster(Config protocol, WorkloadOptions workload,
          std::vector<types::FaultSpec> faults = {})
      : protocol_(protocol),
        workload_(workload),
        keys_(workload.seed ^ 0xc0ffee),
        backend_(workload) {
    if (workload_.num_groups == 0) workload_.num_groups = 1;
    const uint32_t groups = workload_.num_groups;
    // Faults address replicas by global (group-major) index; the usual
    // n-entry list targets group 0 and every other group runs honest.
    faults.resize(static_cast<size_t>(protocol_.n) * groups,
                  types::FaultSpec::Honest());

    // Registration order (replicas group-major, then pools group-major)
    // fixes both the id layout and each node's forked RNG stream. With one
    // group this is exactly the historical wiring — replicas 0..n-1, then
    // pools 0..num_pools-1 — so unsharded runs stay bit-for-bit
    // reproducible across the sharding refactor.
    std::vector<std::vector<runtime::NodeId>> group_replica_ids(groups);
    std::vector<std::vector<runtime::NodeId>> group_pool_ids(groups);
    for (uint32_t g = 0; g < groups; ++g) {
      for (uint32_t i = 0; i < protocol_.n; ++i) {
        replicas_.push_back(std::make_unique<Replica>(
            protocol_, i, &keys_,
            faults[static_cast<size_t>(g) * protocol_.n + i]));
        const runtime::NodeId id =
            backend_.Add(replicas_.back().get(), &setup_error_);
        group_replica_ids[g].push_back(id);
        replica_ids_.push_back(id);
      }
    }
    for (uint32_t g = 0; g < groups; ++g) {
      for (uint32_t p = 0; p < workload_.num_pools; ++p) {
        client::Client* client = MakePool(g, p);
        group_pool_ids[g].push_back(backend_.Add(client, &setup_error_));
        client->SetReplicas(group_replica_ids[g]);
      }
    }
    // Each group's topology is its own replica set: groups never
    // intercommunicate, which is what makes per-group leaders, views, and
    // reputation independent by construction.
    for (uint32_t g = 0; g < groups; ++g) {
      for (uint32_t i = 0; i < protocol_.n; ++i) {
        replicas_[static_cast<size_t>(g) * protocol_.n + i]->SetTopology(
            group_replica_ids[g], group_pool_ids[g]);
      }
    }
  }

  /// Why the deployment could not be built (a socket bind failure); empty
  /// when it is whole. Start() refuses to run a broken deployment.
  const std::string& setup_error() const { return setup_error_; }

  /// Starts every node (each OnStart runs before its first message). Call
  /// once, before the first Run*.
  void Start() {
    if (!setup_error_.empty()) {
      std::fprintf(stderr, "harness::Cluster: %s backend setup failed: %s\n",
                   Backend::kName, setup_error_.c_str());
      std::abort();
    }
    backend_.Start();
  }

  /// Runs for `duration`: virtual time on the simulator, wall-clock time
  /// on the other backends.
  void RunFor(util::DurationMicros duration) { backend_.RunFor(duration); }

  /// Stops and joins the wall-clock event loops (no-op in simulation).
  /// Call before inspecting state.
  void Stop() { backend_.Stop(); }

  Replica& replica(uint32_t i) { return *replicas_[i]; }
  const Replica& replica(uint32_t i) const { return *replicas_[i]; }
  workload::ClientPool& pool(uint32_t p) { return *pools_[p]; }
  workload::OpenLoopPool& open_pool(uint32_t p) { return *open_pools_[p]; }
  /// Node id of replica i (for fault-plane partitions / link faults).
  runtime::NodeId replica_actor_id(uint32_t i) const {
    return replica_ids_[i];
  }
  /// Total replicas across groups (group-major: group g owns global
  /// indices [g*n, (g+1)*n)). Equal to protocol n when unsharded.
  uint32_t num_replicas() const {
    return static_cast<uint32_t>(replicas_.size());
  }
  uint32_t num_pools() const { return static_cast<uint32_t>(pools_.size()); }
  uint32_t num_open_pools() const {
    return static_cast<uint32_t>(open_pools_.size());
  }
  uint32_t num_groups() const { return workload_.num_groups; }
  uint32_t replicas_per_group() const { return protocol_.n; }
  /// Replica i of group g (the group-local view of the global layout).
  Replica& group_replica(uint32_t g, uint32_t i) {
    return *replicas_[static_cast<size_t>(g) * protocol_.n + i];
  }
  const Config& protocol_config() const { return protocol_; }
  Backend& backend() { return backend_; }

  // Backend-specific handles; each exists only on the backends that have
  // the underlying object.
  sim::Simulator& simulator() { return backend_.simulator(); }
  sim::Network& network() { return backend_.network(); }
  auto& runtime() { return backend_.runtime(); }
  void RunUntil(util::TimeMicros until) {
    backend_.simulator().RunUntil(until);
  }
  /// Crash / recover replica i at the network level (it neither sends nor
  /// receives while down). Simulator only.
  void SetReplicaDown(uint32_t i, bool down) {
    backend_.network().SetNodeDown(replica_ids_[i], down);
  }

  /// Installs an application service on every replica (each gets its own
  /// instance from `factory`). Call before Start().
  void InstallServices(
      const std::function<std::unique_ptr<app::Service>()>& factory) {
    for (auto& replica : replicas_) replica->SetService(factory());
  }

  /// Installs an active-adversary policy on every replica and client pool
  /// (the policy decides per node id whether and how to misbehave). The
  /// caller keeps ownership; call before Start() and keep `adversary`
  /// alive for the cluster's lifetime.
  void SetAdversary(const types::AdversaryPolicy* adversary) {
    for (auto& replica : replicas_) replica->SetAdversary(adversary);
    for (client::Client* client : clients_) client->SetAdversary(adversary);
  }

  // ----------------------------------------------- client/execution metrics
  // On the wall-clock backends pool and replica counters belong to their
  // event-loop threads: read them only after Stop().

  /// Reply entries matched to outstanding requests, summed over pools.
  int64_t RepliesReceived() const {
    int64_t total = 0;
    for (const client::Client* c : clients_) {
      total += c->stats().replies_received;
    }
    return total;
  }

  /// Conflicting result digests observed by clients (should be 0 with
  /// honest replicas).
  int64_t ResultMismatches() const {
    int64_t total = 0;
    for (const client::Client* c : clients_) {
      total += c->stats().result_mismatches;
    }
    return total;
  }

  /// Replica-side duplicate executions suppressed by the session tables.
  int64_t DuplicatesSuppressed() const {
    int64_t total = 0;
    for (const auto& replica : replicas_) {
      total += replica->delivery().stats().duplicates_suppressed;
    }
    return total;
  }

  /// Exactly-once service executions, summed over replicas.
  int64_t ExecutedTotal() const {
    int64_t total = 0;
    for (const auto& replica : replicas_) {
      total += replica->delivery().stats().executed;
    }
    return total;
  }

  /// Transactions committed, summed over all client pools (client-observed).
  int64_t ClientCommitted() const {
    int64_t total = 0;
    for (const client::Client* c : clients_) total += c->stats().completed;
    return total;
  }

  /// Transactions committed by group g's pools alone.
  int64_t GroupCommitted(uint32_t g) const {
    int64_t total = 0;
    const uint32_t per = workload_.num_pools;
    for (uint32_t p = g * per; p < (g + 1) * per && p < clients_.size();
         ++p) {
      total += clients_[p]->stats().completed;
    }
    return total;
  }

  /// Mean client latency in milliseconds across pools.
  double MeanLatencyMs() {
    double weighted = 0.0;
    size_t count = 0;
    for (client::Client* c : clients_) {
      weighted += c->latencies().Mean() *
                  static_cast<double>(c->latencies().count());
      count += c->latencies().count();
    }
    return count == 0 ? 0.0 : weighted / static_cast<double>(count);
  }

  /// Latency percentile over the merged samples of EVERY pool. (This used
  /// to read pool 0's histogram alone on the theory that pools are
  /// statistically identical — no longer true once pools belong to
  /// different shard groups or mix open- and closed-loop drivers, and the
  /// merged percentile is exact either way.)
  double LatencyPercentileMs(double p) {
    util::Histogram merged;
    for (client::Client* c : clients_) merged.MergeFrom(c->latencies());
    return merged.Percentile(p);
  }

  // ------------------------------------------------- open-loop aggregates

  /// End-to-end latency percentile (arrival → completion, including
  /// admission queueing) merged across every open-loop pool.
  double E2eLatencyPercentileMs(double p) {
    util::Histogram merged;
    for (auto& pool : open_pools_) merged.MergeFrom(pool->e2e_latencies());
    return merged.Percentile(p);
  }

  /// Trace arrivals generated / admitted into consensus / shed at
  /// admission, summed over open-loop pools.
  int64_t TotalArrivals() const {
    int64_t total = 0;
    for (const auto& pool : open_pools_) total += pool->open_stats().arrivals;
    return total;
  }
  int64_t TotalAdmitted() const {
    int64_t total = 0;
    for (const auto& pool : open_pools_) total += pool->open_stats().admitted;
    return total;
  }
  int64_t TotalShed() const {
    int64_t total = 0;
    for (const auto& pool : open_pools_) total += pool->open_stats().shed;
    return total;
  }

  /// Fraction of completions meeting the SLO across open-loop pools
  /// (1.0 when nothing completed).
  double SloFraction() const {
    int64_t met = 0, completed = 0;
    for (const auto& pool : open_pools_) {
      met += pool->open_stats().slo_met;
      completed += pool->stats().completed;
    }
    return completed == 0
               ? 1.0
               : static_cast<double>(met) / static_cast<double>(completed);
  }

 private:
  /// Builds pool p of group g (closed- or open-loop per the workload) and
  /// returns it as the common client::Client base.
  client::Client* MakePool(uint32_t g, uint32_t p) {
    const uint32_t groups = workload_.num_groups;
    // Only real keys can be routed to a group, so sharded deployments
    // always drive KV puts regardless of the requested command kind.
    const workload::CommandKind kind = groups > 1
                                           ? workload::CommandKind::kKvPut
                                           : workload_.command_kind;
    // Pool ids are group-local: replicas index their own group's client
    // topology by pool id (clients_[reply->pool]), and cross-group
    // transaction identity is carried by the digest-covered group field.
    const types::ClientPoolId pool_id = p;
    if (workload_.open_loop) {
      workload::OpenLoopConfig pc;
      pc.pool_id = pool_id;
      pc.f = protocol_.f();
      pc.payload_size = workload_.payload_size;
      pc.request_timeout = workload_.client_timeout;
      pc.arrival = workload_.arrival;
      pc.logical_sessions = workload_.logical_sessions;
      pc.command_kind = kind;
      pc.kv_key_space = workload_.kv_key_space;
      pc.zipf_theta = workload_.zipf_theta;
      pc.max_outstanding = workload_.max_outstanding;
      pc.max_backlog = workload_.max_backlog;
      pc.slo_ms = workload_.slo_ms;
      pc.stop_at = workload_.open_loop_stop_at;
      pc.group = g;
      pc.num_groups = groups;
      pc.router_salt = workload_.router_salt;
      open_pools_.push_back(std::make_unique<workload::OpenLoopPool>(pc));
      clients_.push_back(open_pools_.back().get());
    } else {
      workload::ClientPoolConfig pool_config;
      pool_config.pool_id = pool_id;
      pool_config.num_clients = workload_.clients_per_pool;
      pool_config.payload_size = workload_.payload_size;
      pool_config.f = protocol_.f();
      pool_config.request_timeout = workload_.client_timeout;
      pool_config.command_kind = kind;
      pool_config.kv_key_space = workload_.kv_key_space;
      pool_config.group = g;
      pool_config.num_groups = groups;
      pool_config.router_salt = workload_.router_salt;
      pools_.push_back(std::make_unique<workload::ClientPool>(pool_config));
      clients_.push_back(pools_.back().get());
    }
    return clients_.back();
  }

  Config protocol_;
  WorkloadOptions workload_;
  crypto::KeyStore keys_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<std::unique_ptr<workload::ClientPool>> pools_;
  std::vector<std::unique_ptr<workload::OpenLoopPool>> open_pools_;
  /// Every pool in registration order (group-major), whichever kind.
  std::vector<client::Client*> clients_;
  std::vector<runtime::NodeId> replica_ids_;
  std::string setup_error_;
  /// Declared last so it is destroyed first: a wall-clock backend's
  /// runtime stops and joins its event loops before any node it drives is
  /// destroyed, even when a running cluster leaves scope early.
  Backend backend_;
};

}  // namespace harness
}  // namespace prestige

#endif  // PRESTIGE_HARNESS_CLUSTER_H_
