// prestige_perf: runs ONE round of a benchmark workload and prints its
// measurements as one JSON line. perfbench/run.py repeats rounds for the
// requested time and reports medians; see perfbench/README.md.
//
// A round is one fresh deployment in this process: 4 PrestigeBFT replicas
// (PaperPrestigeConfig(4, 500), modelled PoW, KvService) and one client
// pool, wired from the public node classes onto a runtime backend:
//   socket-saturate  SocketRuntime, closed loop of 2000 virtual clients;
//                    the window is committed ops 50 000 .. 300 000, then
//                    replica 0 (the view-1 leader) crash-stops and the round
//                    ends once the new view has served and every request
//                    has completed;
//   kv-open          ThreadedRuntime, Poisson arrivals at 25k ops/s; the
//                    window is [0.3 s, 1.8 s), at whose end replica 0
//                    crashes;
//   leader-crash     kv-open's load; replica 0 crashes at 0.75 s; the work
//                    window (ops, CPU) spans [0.15 s, last completion], the
//                    outage included.
// On the open loops arrivals stop kOutageMs after the crash. Every round
// thus ends with one leader crash, thrown by the pool through a CrashSwitch
// around replica 0; failover_ms is measured on it. Latency percentiles
// always come from the fault-free window before the crash.
//
// --short shortens the socket-saturate and kv-open windows (self-test).
// With --trace 1 every node is wrapped in the trace decorators (trace.h)
// and the line also carries the per-layer metrics; --spans PATH writes the
// recorded spans there.
//
// Exit status: 0 when the round ran and passed its correctness gate, 1 on
// a correctness failure (the JSON line is still printed, with
// "correct": false), 2 on usage errors.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "app/kv_service.h"
#include "bench/bench_util.h"
#include "core/replica.h"
#include "harness/invariants.h"
#include "net/address.h"
#include "pools.h"
#include "runtime/socket_env.h"
#include "runtime/threaded_env.h"
#include "trace.h"

namespace perfbench {
namespace {

using prestige::core::PrestigeReplica;

// The load every workload shares.
constexpr uint32_t kClosedLoopClients = 2000;
constexpr double kOpenLoopRate = 25000.0;  // ops/s, Poisson.
constexpr uint64_t kKeySpace = 1024;
// Arrivals stop this long after the leader crash: longer than any outage
// (follower timeouts are below 1.2 s), so the backlog drains after it.
constexpr int64_t kOutageMs = 1200;
// A round that has not drained by then is reported as failed.
constexpr int64_t kDeadlineMs = 60000;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  bool trace = false;
  bool short_round = false;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--short") {
      o->short_round = true;
      continue;
    }
    if (i + 1 == argc) return false;
    const char* v = argv[++i];
    if (key == "--workload") o->workload = v;
    else if (key == "--seed") o->seed = std::strtoull(v, nullptr, 10);
    else if (key == "--trace") o->trace = std::atoi(v) != 0;
    else if (key == "--spans") o->spans = v;
    else return false;
  }
  return o->workload == "socket-saturate" || o->workload == "kv-open" ||
         o->workload == "leader-crash";
}

/// CheckSafety's view of the replica set.
struct ReplicaSet {
  const std::vector<std::unique_ptr<PrestigeReplica>>* replicas;
  uint32_t num_replicas() const {
    return static_cast<uint32_t>(replicas->size());
  }
  const PrestigeReplica& replica(uint32_t i) const { return *(*replicas)[i]; }
};

/// Independent replay of the longest committed chain on a fresh KvService
/// (duplicates suppressed by (pool, client_seq), as the session layer
/// does): every replica's StateDigest and execution count must equal the
/// replay at its own height. Returns "" or a description of the mismatch.
std::string CheckReplay(
    const std::vector<std::unique_ptr<PrestigeReplica>>& replicas,
    uint64_t key_space, int64_t* distinct_txs) {
  const PrestigeReplica* longest = replicas.front().get();
  for (const auto& r : replicas) {
    if (r->store().tx_chain().size() > longest->store().tx_chain().size()) {
      longest = r.get();
    }
  }
  const auto& chain = longest->store().tx_chain();
  prestige::app::KvService replay(key_space);
  std::set<std::pair<uint32_t, uint64_t>> seen;
  // digest/count after h blocks, h = 0..chain.size().
  std::vector<std::pair<uint64_t, int64_t>> at_height;
  at_height.emplace_back(replay.StateDigest(), replay.applied_count());
  for (const auto& block : chain) {
    for (const auto& tx : block.txs()) {
      if (tx.client_seq != 0 && !seen.emplace(tx.pool, tx.client_seq).second) {
        continue;
      }
      replay.Execute(tx);
    }
    at_height.emplace_back(replay.StateDigest(), replay.applied_count());
  }
  *distinct_txs = replay.applied_count();
  for (size_t i = 0; i < replicas.size(); ++i) {
    const size_t h = replicas[i]->store().tx_chain().size();
    const auto& service = replicas[i]->service();
    if (service.StateDigest() != at_height[h].first ||
        service.applied_count() != at_height[h].second) {
      return "replica " + std::to_string(i) + " state at height " +
             std::to_string(h) + " differs from the replayed chain";
    }
  }
  return "";
}

/// Heap bytes a committed chain keeps alive (blocks, txs, commands, QCs).
int64_t ChainBytes(const PrestigeReplica& replica) {
  int64_t bytes = 0;
  for (const auto& block : replica.store().tx_chain()) {
    bytes += static_cast<int64_t>(sizeof(block) + block.status.capacity());
    bytes += static_cast<int64_t>(
        (block.ordering_qc.partials.capacity() +
         block.commit_qc.partials.capacity()) *
        sizeof(prestige::crypto::Signature));
    bytes += static_cast<int64_t>(block.txs().capacity() *
                                  sizeof(prestige::types::Transaction));
    for (const auto& tx : block.txs()) {
      bytes += static_cast<int64_t>(tx.command.capacity());
    }
  }
  return bytes;
}

double Percentile(std::vector<int64_t> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t idx = std::min(
      v.size() - 1,
      static_cast<size_t>(p / 100.0 * static_cast<double>(v.size() - 1)));
  return static_cast<double>(v[idx]);
}

/// Ordered JSON object writer (numbers with all their digits).
class Json {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    Raw(key, buf);
  }
  void Int(const std::string& key, int64_t v) { Raw(key, std::to_string(v)); }
  void Bool(const std::string& key, bool v) { Raw(key, v ? "true" : "false"); }
  void Str(const std::string& key, const std::string& v) {
    std::string esc;
    for (char c : v) {
      if (c == '"' || c == '\\') esc += '\\';
      esc += (c == '\n' ? ' ' : c);
    }
    Raw(key, "\"" + esc + "\"");
  }
  void Raw(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + v;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Message names whose replica handler time is reported separately.
const char* const kCoreMessages[] = {
    "ClientBatch", "Ord",    "OrdReply",   "Cmt",     "CmtReply",
    "Heartbeat",   "ClientComplaint",      "ComptRelay", "ConfVC",
    "ReVC",        "Camp",   "VoteCP",     "VcBlockMsg", "VcYes",
    "SyncReq",     "SyncResp", "TxBlock"};

int Run(const Options& o) {
  const bool socket = o.workload == "socket-saturate";
  const bool open_loop = !socket;
  const bool crash_trial = o.workload == "leader-crash";

  const int64_t t0 = NowNs();
  prestige::core::PrestigeConfig config =
      prestige::bench::PaperPrestigeConfig(4, 500);
  prestige::crypto::KeyStore keys(o.seed ^ 0xc0ffee);
  TraceContext ctx;
  ctx.sample_cap = (o.trace && socket) ? 1024 : 0;

  std::vector<std::unique_ptr<PrestigeReplica>> replicas;
  for (uint32_t i = 0; i < config.n; ++i) {
    replicas.push_back(std::make_unique<PrestigeReplica>(
        config, i, &keys, prestige::types::FaultSpec::Honest()));
  }
  CrashSwitch leader_switch(replicas[0].get());
  leader_switch.NotifyCrashAt(&ctx.vc.crash_at_us);
  Timeline timeline(&leader_switch);

  std::unique_ptr<SaturatePool> closed;
  std::unique_ptr<OpenPool> open;
  prestige::client::Client* pool = nullptr;
  if (socket) {
    prestige::workload::ClientPoolConfig pc;
    pc.num_clients = kClosedLoopClients;
    pc.f = config.f();
    pc.command_kind = prestige::workload::CommandKind::kKvPut;
    pc.kv_key_space = kKeySpace;
    closed = std::make_unique<SaturatePool>(
        pc, o.short_round ? 10000 : 50000, o.short_round ? 40000 : 300000,
        &timeline);
    pool = closed.get();
  } else {
    const int64_t warm_at_us = crash_trial ? 150000 : 300000;
    const int64_t crash_at_us =
        crash_trial ? 750000 : (o.short_round ? 700000 : 1800000);
    prestige::workload::OpenLoopConfig pc;
    pc.f = config.f();
    pc.arrival.kind = prestige::workload::ArrivalKind::kPoisson;
    pc.arrival.rate_per_sec = kOpenLoopRate;
    pc.command_kind = prestige::workload::CommandKind::kKvPut;
    pc.kv_key_space = kKeySpace;
    // Room for a whole outage of arrivals: a stall shows as latency, not
    // as shed requests.
    pc.max_backlog = 1 << 18;
    pc.stop_at = crash_at_us + kOutageMs * 1000;
    open = std::make_unique<OpenPool>(pc, warm_at_us, crash_at_us,
                                      /*work_to_drain=*/crash_trial,
                                      &timeline);
    pool = open.get();
  }

  // Trace decorators: one per node, registered in the node's place.
  std::vector<std::unique_ptr<TracedNode>> traced;
  std::vector<prestige::runtime::Node*> nodes;
  for (auto& r : replicas) nodes.push_back(r.get());
  nodes[0] = &leader_switch;
  nodes.push_back(pool);
  if (o.trace) {
    for (size_t i = 0; i < nodes.size(); ++i) {
      traced.push_back(std::make_unique<TracedNode>(
          nodes[i], i < replicas.size() ? "core" : "client", &ctx));
      ctx.nodes.push_back(traced.back().get());
      nodes[i] = traced.back().get();
    }
  }
  for (size_t i = 0; i < replicas.size(); ++i) {
    auto service = std::make_unique<prestige::app::KvService>(kKeySpace);
    if (o.trace) {
      replicas[i]->SetService(
          std::make_unique<TracedService>(std::move(service), traced[i].get()));
    } else {
      replicas[i]->SetService(std::move(service));
    }
  }

  std::vector<prestige::runtime::NodeId> replica_ids;
  const prestige::runtime::NodeId pool_id = config.n;
  std::unique_ptr<prestige::runtime::ThreadedRuntime> threaded;
  std::unique_ptr<prestige::runtime::SocketRuntime> sockets;
  if (socket) {
    sockets = std::make_unique<prestige::runtime::SocketRuntime>(o.seed);
    prestige::net::SockAddr loopback;
    loopback.ip = 0x7f000001;  // 127.0.0.1, kernel-assigned port.
    for (size_t i = 0; i < nodes.size(); ++i) {
      std::string error;
      if (!sockets->AddNode(nodes[i], static_cast<uint32_t>(i), loopback,
                            &error)) {
        std::fprintf(stderr, "prestige_perf: bind failed: %s\n",
                     error.c_str());
        return 1;
      }
    }
  } else {
    threaded = std::make_unique<prestige::runtime::ThreadedRuntime>(o.seed);
    for (auto* node : nodes) threaded->AddNode(node);
  }
  for (auto& t : traced) t->Attach();
  leader_switch.Attach();
  for (uint32_t i = 0; i < config.n; ++i) replica_ids.push_back(i);
  for (auto& r : replicas) r->SetTopology(replica_ids, {pool_id});
  pool->SetReplicas(replica_ids);

  if (socket) sockets->Start(); else threaded->Start();
  const int64_t started_ns = NowNs();
  const bool finished = timeline.Wait(kDeadlineMs);
  if (socket) sockets->Stop(); else threaded->Stop();
  const int64_t stopped_ns = NowNs();

  // ----------------------------------------------------------- accounting
  const prestige::client::ClientStats& cs = pool->stats();
  const Mark& first = timeline.first();
  const Mark& warm = timeline.warm();
  const Mark& end = timeline.end();
  const int64_t completed = cs.completed;
  int64_t attempted = 0, failed = 0, shed = 0;
  if (socket) {
    attempted = completed + static_cast<int64_t>(pool->outstanding());
    failed = static_cast<int64_t>(pool->outstanding());
  } else {
    const auto& s = open->open_stats();
    attempted = s.arrivals;
    shed = s.shed;
    failed = s.arrivals - completed;  // shed + expired + unmatched
  }
  failed += cs.result_mismatches;

  // ------------------------------------------------------ correctness gate
  std::string violation;
  const prestige::harness::SafetyReport safety =
      prestige::harness::CheckSafety(ReplicaSet{&replicas});
  if (!safety.ok) violation = "safety: " + safety.violation;
  int64_t distinct_txs = 0;
  if (violation.empty()) {
    violation = CheckReplay(replicas, kKeySpace, &distinct_txs);
  }
  if (violation.empty() && cs.result_mismatches != 0) {
    violation = std::to_string(cs.result_mismatches) + " result mismatches";
  }
  if (violation.empty() && completed > distinct_txs) {
    violation = "clients saw more commits than the chain holds";
  }
  if (violation.empty() && !finished) {
    violation = "round did not finish within the deadline";
  }
  if (violation.empty() && (!warm.reached() || !end.reached())) {
    violation = "measurement window never closed";
  }
  const int64_t outage_end_us = timeline.OutageEndUs();
  if (violation.empty()) {
    if (outage_end_us < 0) {
      violation = "no commit after the leader crash";
    } else if (replicas[1]->view() < 2) {
      violation = "no view change after the crash";
    }
  }
  const bool correct = violation.empty();

  // ------------------------------------------------------ end-to-end
  const int64_t window_ops = end.ops - warm.ops;
  const double window_s = static_cast<double>(end.wall_ns - warm.wall_ns) / 1e9;
  Json e2e;
  e2e.Num("throughput_ops",
          window_s > 0 ? static_cast<double>(window_ops) / window_s : 0.0);
  prestige::util::Histogram& lat =
      socket ? closed->window_latencies() : open->window_latencies();
  e2e.Num("latency_p50_ms", lat.Percentile(50));
  e2e.Num("latency_p90_ms", lat.Percentile(90));
  e2e.Num("cpu_us_per_op",
          window_ops > 0 ? static_cast<double>(end.cpu_ns - warm.cpu_ns) /
                               1000.0 / static_cast<double>(window_ops)
                         : 0.0);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  e2e.Num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
  e2e.Num("setup_s", first.reached()
                         ? static_cast<double>(first.wall_ns - t0) / 1e9
                         : 0.0);
  e2e.Num("failover_ms",
          outage_end_us >= 0
              ? static_cast<double>(outage_end_us - timeline.crash_at_us()) /
                    1000.0
              : 0.0);

  // ------------------------------------------------------ per layer
  Json layers;
  if (o.trace) {
    const double ops = static_cast<double>(std::max<int64_t>(1, completed));
    TracedNode& pool_trace = *traced.back();
    const auto& pool_names = pool_trace.by_name();
    const auto reply_it = pool_names.find("ClientReply");
    layers.Num("client.replies_per_op",
               static_cast<double>(cs.replies_received) / ops);
    layers.Num("client.retransmits_per_kop",
               static_cast<double>(cs.retransmissions) * 1000.0 / ops);
    layers.Num("client.handler_us_per_op",
               reply_it == pool_names.end()
                   ? 0.0
                   : static_cast<double>(reply_it->second.busy_ns) / 1000.0 /
                         ops);
    layers.Num("workload.latency_p99_ms", lat.Percentile(99));
    if (open_loop) {
      layers.Num("workload.admit_wait_ms_p99",
                 open->window_latencies().Percentile(99) -
                     open->window_submit_latencies().Percentile(99));
      layers.Num("workload.backlog_peak",
                 static_cast<double>(open->open_stats().backlog_peak));
    } else {
      layers.Num("workload.admit_wait_ms_p99", 0.0);
      layers.Num("workload.backlog_peak", 0.0);
    }

    const PrestigeReplica& live = *replicas[1];
    const auto& lm = live.metrics();
    layers.Num("core.ops_per_block",
               lm.committed_blocks > 0
                   ? static_cast<double>(lm.committed_txs) /
                         static_cast<double>(lm.committed_blocks)
                   : 0.0);
    int64_t msgs = 0, busy = 0, cb_max = 0, exec_ns = 0, exec_max = 0;
    uint64_t hashes = 0;
    std::map<std::string, int64_t> by_msg;
    const double run_ns = static_cast<double>(stopped_ns - started_ns);
    double leader_busy = 0.0;
    std::vector<int64_t> deliver, late;
    for (size_t i = 0; i < traced.size(); ++i) {
      const TracedNode& t = *traced[i];
      hashes += t.hashes();
      deliver.insert(deliver.end(), t.deliver_ns().begin(),
                     t.deliver_ns().end());
      late.insert(late.end(), t.timer_late_ns().begin(),
                  t.timer_late_ns().end());
      if (i >= replicas.size()) continue;
      msgs += t.msgs_sent();
      busy += t.busy_ns();
      cb_max = std::max(cb_max, t.callback_max_ns());
      exec_ns += t.execute_ns();
      exec_max = std::max(exec_max, t.execute_max_ns());
      leader_busy =
          std::max(leader_busy, static_cast<double>(t.busy_ns()) / run_ns);
      for (const auto& [name, stats] : t.by_name()) {
        by_msg[name] += stats.busy_ns;
      }
    }
    layers.Num("core.msgs_per_op", static_cast<double>(msgs) / ops);
    layers.Num("core.handler_us_per_op",
               static_cast<double>(busy) / 1000.0 / ops);
    int64_t listed = 0;
    for (const char* name : kCoreMessages) {
      const int64_t ns = by_msg.count(name) ? by_msg[name] : 0;
      listed += ns;
      layers.Num(std::string("core.handler_us_per_op.") + name,
                 static_cast<double>(ns) / 1000.0 / ops);
    }
    const int64_t timer_ns = by_msg.count("timer") ? by_msg["timer"] : 0;
    layers.Num("core.handler_us_per_op.timer",
               static_cast<double>(timer_ns) / 1000.0 / ops);
    layers.Num("core.handler_us_per_op.other",
               static_cast<double>(busy - listed - timer_ns) / 1000.0 / ops);
    layers.Num("core.leader_busy_frac", leader_busy);
    layers.Num("core.callback_ms_max", static_cast<double>(cb_max) / 1e6);

    // View-change split of the round's leader crash.
    double detect = 0, elect = 0, resume = 0, solve = 0;
    const int64_t confvc = ctx.vc.first_confvc_us.load();
    const int64_t vcblock = ctx.vc.first_vcblock_us.load();
    if (confvc >= 0 && vcblock >= confvc && outage_end_us >= vcblock) {
      detect = static_cast<double>(confvc - timeline.crash_at_us()) / 1000.0;
      elect = static_cast<double>(vcblock - confvc) / 1000.0;
      resume = static_cast<double>(outage_end_us - vcblock) / 1000.0;
    }
    const prestige::types::ReplicaId leader = live.current_leader();
    const auto& costs = replicas[leader]->metrics().vc_costs;
    if (!costs.empty()) {
      solve = static_cast<double>(costs.back().solve_time) / 1000.0;
    }
    // One crash per trial: views past view 1 are the view changes it cost.
    layers.Num("core.vc_per_crash", static_cast<double>(live.view() - 1));
    layers.Num("core.vc_detect_ms", detect);
    layers.Num("core.vc_elect_ms", elect);
    layers.Num("core.vc_resume_ms", resume);
    layers.Num("reputation.leader_rp",
               static_cast<double>(live.EffectiveRp(leader)));
    layers.Num("reputation.solve_ms", solve);
    layers.Num("crypto.hashes_per_op", static_cast<double>(hashes) / ops);
    int64_t chain_bytes = 0;
    for (const auto& r : replicas) chain_bytes += ChainBytes(*r);
    layers.Num("ledger.chain_bytes_per_op",
               static_cast<double>(chain_bytes) / ops);
    layers.Num("app.execute_us_per_op",
               static_cast<double>(exec_ns) / 1000.0 / ops);
    layers.Num("app.execute_ms_max", static_cast<double>(exec_max) / 1e6);
    layers.Num("runtime.deliver_us_p50", Percentile(deliver, 50) / 1000.0);
    layers.Num("runtime.deliver_us_p99", Percentile(deliver, 99) / 1000.0);
    layers.Num("runtime.timer_late_us_p99", Percentile(late, 99) / 1000.0);

    prestige::net::FrameCounters net;
    NetCodecTiming codec;
    if (socket) {
      net = sockets->net_stats();
      std::vector<prestige::runtime::MessagePtr> sample;
      for (const auto& t : traced) {
        sample.insert(sample.end(), t->sample().begin(), t->sample().end());
      }
      codec = TimeNetCodec(sample);
    }
    layers.Num("net.frames_per_op", static_cast<double>(net.frames_sent) / ops);
    layers.Num("net.bytes_per_op", static_cast<double>(net.bytes_sent) / ops);
    layers.Num("net.loss_frac",
               net.frames_sent > 0 ? static_cast<double>(net.seq_gaps) /
                                         static_cast<double>(net.frames_sent)
                                   : 0.0);
    layers.Num("net.send_errors_per_kop",
               static_cast<double>(net.send_errors) * 1000.0 / ops);
    layers.Num("net.encode_us_per_msg", codec.encode_us);
    layers.Num("net.decode_us_per_msg", codec.decode_us);
    layers.Num("net.frame_us_per_msg", codec.frame_us);

    if (!o.spans.empty() && !WriteSpans(o.spans, ctx)) {
      std::fprintf(stderr, "prestige_perf: cannot write %s\n",
                   o.spans.c_str());
    }
  }

  Json out;
  out.Str("workload", o.workload);
  out.Int("seed", static_cast<int64_t>(o.seed));
  out.Bool("trace", o.trace);
  out.Bool("correct", correct);
  out.Str("violation", violation);
  out.Int("attempted", attempted);
  out.Int("failed", failed);
  out.Int("shed", shed);
  out.Int("completed", completed);
  out.Int("retransmissions", cs.retransmissions);
  out.Int("window_ops", window_ops);
  out.Num("window_s", window_s);
  out.Int("latency_samples", static_cast<int64_t>(lat.count()));
  out.Int("chain_height", static_cast<int64_t>(safety.max_height));
  out.Int("nproc", std::thread::hardware_concurrency());
  out.Raw("build", prestige::bench::BuildMetadataJson());
  out.Raw("e2e", e2e.str());
  if (o.trace) out.Raw("layers", layers.str());
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  if (!correct) {
    std::fprintf(stderr, "prestige_perf: correctness failure: %s\n",
                 violation.c_str());
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: prestige_perf --workload "
                 "socket-saturate|kv-open|leader-crash [--seed N] "
                 "[--trace 0|1] [--spans PATH] [--short]\n");
    return 2;
  }
  return perfbench::Run(options);
}
