#include "harness/process_cluster.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "net/socket.h"

namespace prestige {
namespace harness {
namespace {

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Finds the value position after `"key":`, or npos.
size_t FindValue(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return std::string::npos;
  size_t pos = at + needle.size();
  while (pos < json.size() && std::isspace(static_cast<unsigned char>(
                                  json[pos]))) {
    ++pos;
  }
  return pos;
}

}  // namespace

bool JsonFindInt(const std::string& json, const std::string& key,
                 int64_t* out) {
  const size_t pos = FindValue(json, key);
  if (pos == std::string::npos || pos >= json.size()) return false;
  char* end = nullptr;
  const long long value = std::strtoll(json.c_str() + pos, &end, 10);
  if (end == json.c_str() + pos) return false;
  *out = value;
  return true;
}

bool JsonFindDouble(const std::string& json, const std::string& key,
                    double* out) {
  const size_t pos = FindValue(json, key);
  if (pos == std::string::npos || pos >= json.size()) return false;
  char* end = nullptr;
  const double value = std::strtod(json.c_str() + pos, &end);
  if (end == json.c_str() + pos) return false;
  *out = value;
  return true;
}

bool JsonFindString(const std::string& json, const std::string& key,
                    std::string* out) {
  size_t pos = FindValue(json, key);
  if (pos == std::string::npos || pos >= json.size() || json[pos] != '"') {
    return false;
  }
  ++pos;
  const size_t close = json.find('"', pos);
  if (close == std::string::npos) return false;
  out->assign(json, pos, close - pos);
  return true;
}

bool ParseNodeStatus(const std::string& json, NodeReport* out) {
  std::string kind;
  if (!JsonFindString(json, "kind", &kind)) return false;
  out->raw = json;
  out->responded = true;
  out->is_replica = (kind == "replica");
  int64_t id = 0;
  JsonFindInt(json, "id", &id);
  out->id = static_cast<uint32_t>(id);

  if (out->is_replica) {
    JsonFindInt(json, "committed_txs", &out->committed_txs);
    JsonFindInt(json, "committed_blocks", &out->committed_blocks);
    JsonFindInt(json, "view_changes", &out->view_changes);
    JsonFindInt(json, "elections_won", &out->elections_won);
    JsonFindInt(json, "executed", &out->executed);
    JsonFindInt(json, "duplicates", &out->duplicates);
    std::string digest_hex;
    if (JsonFindString(json, "state_digest", &digest_hex)) {
      out->state_digest = std::strtoull(digest_hex.c_str(), nullptr, 16);
    }
    // Chain array: [{"n":1,"d":"16hex","t":50},...]
    const size_t chain_at = FindValue(json, "chain");
    if (chain_at != std::string::npos && chain_at < json.size() &&
        json[chain_at] == '[') {
      size_t pos = chain_at;
      const size_t end = json.find(']', pos);
      while (pos < end) {
        const size_t obj = json.find('{', pos);
        if (obj == std::string::npos || obj > end) break;
        const size_t obj_end = json.find('}', obj);
        if (obj_end == std::string::npos) break;
        const std::string entry = json.substr(obj, obj_end - obj + 1);
        NodeReport::ChainEntry ce;
        JsonFindInt(entry, "n", &ce.n);
        JsonFindString(entry, "d", &ce.digest_hex);
        JsonFindInt(entry, "t", &ce.txs);
        out->chain.push_back(std::move(ce));
        pos = obj_end + 1;
      }
    }
  } else {
    JsonFindInt(json, "completed", &out->completed);
    JsonFindInt(json, "replies", &out->replies);
    JsonFindInt(json, "result_mismatches", &out->result_mismatches);
    JsonFindInt(json, "retransmissions", &out->retransmissions);
    JsonFindInt(json, "expired", &out->expired);
    JsonFindDouble(json, "p50_ms", &out->p50_ms);
    JsonFindDouble(json, "p99_ms", &out->p99_ms);
    JsonFindDouble(json, "mean_ms", &out->mean_ms);
  }

  // Frame counters shared by both kinds (flat keys inside "net":{...}).
  int64_t v = 0;
  if (JsonFindInt(json, "frames_sent", &v)) {
    out->net.frames_sent = static_cast<uint64_t>(v);
  }
  if (JsonFindInt(json, "frames_received", &v)) {
    out->net.frames_received = static_cast<uint64_t>(v);
  }
  if (JsonFindInt(json, "messages_assembled", &v)) {
    out->net.messages_assembled = static_cast<uint64_t>(v);
  }
  if (JsonFindInt(json, "decode_drops", &v)) {
    out->net.decode_drops = static_cast<uint64_t>(v);
  }
  if (JsonFindInt(json, "checksum_drops", &v)) {
    out->net.checksum_drops = static_cast<uint64_t>(v);
  }
  if (JsonFindInt(json, "header_drops", &v)) {
    out->net.header_drops = static_cast<uint64_t>(v);
  }
  if (JsonFindInt(json, "seq_gaps", &v)) {
    out->net.seq_gaps = static_cast<uint64_t>(v);
  }
  if (JsonFindInt(json, "send_errors", &v)) {
    out->net.send_errors = static_cast<uint64_t>(v);
  }
  return true;
}

namespace {

/// The sweep's view of self-reported replicas: each chain carries the
/// first 8 bytes of every block digest as 16 hex chars, compared as
/// reported.
struct ReportedChains {
  using Digest = std::string;
  using Entry = NodeReport::ChainEntry;

  std::vector<const NodeReport*> replicas;

  uint32_t num_replicas() const {
    return static_cast<uint32_t>(replicas.size());
  }
  uint32_t id(uint32_t i) const { return replicas[i]->id; }
  bool excluded(uint32_t) const { return false; }
  const std::vector<Entry>& chain(uint32_t i) const {
    return replicas[i]->chain;
  }
  ExecutionCounters execution(uint32_t i) const {
    return {replicas[i]->executed, replicas[i]->duplicates,
            replicas[i]->state_digest};
  }
  static const Digest& DigestOf(const Entry& entry) {
    return entry.digest_hex;
  }
  static types::SeqNum SeqOf(const Entry& entry) { return entry.n; }
  static int64_t TxsOf(const Entry& entry) { return entry.txs; }
  static const std::string& DigestText(const Digest& digest) {
    return digest;
  }
};

}  // namespace

SafetyReport SweepReportedSafety(const std::vector<NodeReport>& nodes) {
  ReportedChains chains;
  SafetyReport refused;
  refused.ok = false;
  for (const NodeReport& node : nodes) {
    if (!node.is_replica) continue;
    if (!node.responded) {
      refused.violation =
          "replica " + std::to_string(node.id) + " reported no status";
      return refused;
    }
    chains.replicas.push_back(&node);
  }
  if (chains.replicas.empty()) {
    refused.violation = "no replica reports to sweep";
    return refused;
  }
  return SweepChains(chains);
}

bool AllocateLoopbackPorts(net::ClusterConfig* config, std::string* error) {
  const uint32_t total = config->n + config->pools;
  config->peers.clear();
  // Hold every probe socket open until all ports are drawn so the kernel
  // cannot hand the same port out twice within this loop.
  std::vector<net::UdpSocket> data_probes;
  std::vector<std::unique_ptr<net::TcpListener>> control_probes;
  net::SockAddr loopback;
  loopback.ip = 0x7f000001;
  loopback.port = 0;
  for (uint32_t i = 0; i < total; ++i) {
    net::PeerEntry peer;
    peer.id = i;
    peer.kind = i < config->n ? net::PeerEntry::Kind::kReplica
                              : net::PeerEntry::Kind::kPool;
    net::UdpSocket data;
    if (!data.Bind(loopback, error)) return false;
    peer.data = data.local_addr();
    data_probes.push_back(std::move(data));
    auto control = std::make_unique<net::TcpListener>();
    if (!control->Listen(loopback, error)) return false;
    peer.control = control->local_addr();
    control_probes.push_back(std::move(control));
    config->peers.push_back(peer);
  }
  return true;
}

namespace {

/// One spawned prestige_node process.
struct Child {
  pid_t pid = -1;
  uint32_t node_id = 0;
};

pid_t SpawnNode(const std::string& binary, const std::string& config_path,
                uint32_t id, const std::string& log_path) {
  // Flush stdio first: fork duplicates unflushed buffers, and each child
  // would re-emit the launcher's pending output when its streams close.
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  // Child: stdout/stderr to the node's log, then exec.
  std::FILE* log = std::freopen(log_path.c_str(), "w", stdout);
  if (log != nullptr) ::dup2(::fileno(stdout), 2);
  const std::string id_str = std::to_string(id);
  ::execl(binary.c_str(), "prestige_node", "--config", config_path.c_str(),
          "--id", id_str.c_str(), static_cast<char*>(nullptr));
  std::perror("execl prestige_node");
  std::_Exit(127);
}

/// One control command; returns false on connect/timeout failure.
bool ControlCommand(const net::SockAddr& addr, const std::string& command,
                    std::string* reply, int timeout_ms) {
  net::TcpConn conn = net::TcpConn::Connect(addr, timeout_ms);
  if (!conn.valid()) return false;
  if (!conn.SendLine(command)) return false;
  return conn.RecvLine(reply, timeout_ms);
}

void ReapAll(std::vector<Child>* children, bool force) {
  for (Child& child : *children) {
    if (child.pid <= 0) continue;
    if (force) ::kill(child.pid, SIGKILL);
    int status = 0;
    ::waitpid(child.pid, &status, 0);
    child.pid = -1;
  }
}

}  // namespace

ProcessClusterResult RunProcessCluster(const ProcessClusterOptions& options) {
  ProcessClusterResult result;
  net::ClusterConfig config = options.config;
  if (config.peers.empty() &&
      !AllocateLoopbackPorts(&config, &result.error)) {
    return result;
  }

  const std::string config_path = options.work_dir + "/cluster.cfg";
  {
    std::ofstream out(config_path);
    if (!out) {
      result.error = "cannot write " + config_path;
      return result;
    }
    out << net::FormatClusterConfig(config);
  }

  std::vector<Child> children;
  for (const net::PeerEntry& peer : config.peers) {
    Child child;
    child.node_id = peer.id;
    child.pid = SpawnNode(
        options.node_binary, config_path, peer.id,
        options.work_dir + "/node-" + std::to_string(peer.id) + ".log");
    if (child.pid < 0) {
      result.error = "fork failed for node " + std::to_string(peer.id);
      ReapAll(&children, /*force=*/true);
      return result;
    }
    children.push_back(child);
  }

  // Ping barrier: every control socket must answer before the clock
  // starts, so no node spends the measured window still booting.
  const auto barrier_start = std::chrono::steady_clock::now();
  for (const net::PeerEntry& peer : config.peers) {
    for (;;) {
      std::string reply;
      if (ControlCommand(peer.control, "ping", &reply, 500) &&
          reply == "ok") {
        break;
      }
      const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - barrier_start);
      if (waited.count() > options.startup_timeout_ms) {
        result.error =
            "node " + std::to_string(peer.id) + " failed the ping barrier";
        ReapAll(&children, /*force=*/true);
        return result;
      }
      SleepMs(50);
    }
  }

  SleepMs(static_cast<int>(config.duration_us / 1000));
  result.duration_seconds = static_cast<double>(config.duration_us) / 1e6;

  // Stop the whole fleet before harvesting so chains are final and reads
  // are race-free on the node side.
  for (const net::PeerEntry& peer : config.peers) {
    std::string reply;
    ControlCommand(peer.control, "stop", &reply, options.control_timeout_ms);
  }
  for (const net::PeerEntry& peer : config.peers) {
    NodeReport report;
    report.id = peer.id;
    report.is_replica = peer.kind == net::PeerEntry::Kind::kReplica;
    std::string reply;
    if (ControlCommand(peer.control, "status", &reply,
                       options.control_timeout_ms)) {
      ParseNodeStatus(reply, &report);
    }
    result.nodes.push_back(std::move(report));
  }
  for (const net::PeerEntry& peer : config.peers) {
    std::string reply;
    ControlCommand(peer.control, "quit", &reply, 2000);
  }
  SleepMs(200);
  ReapAll(&children, /*force=*/true);  // SIGKILL is a no-op for exited pids.

  result.ran = true;
  for (const NodeReport& node : result.nodes) {
    if (!node.responded) {
      result.error =
          "node " + std::to_string(node.id) + " reported no status";
      result.ran = false;
    }
    result.net.MergeFrom(node.net);
    if (node.is_replica) {
      result.view_changes += node.view_changes;
      result.elections_won += node.elections_won;
      result.executed += node.executed;
      result.duplicates += node.duplicates;
    } else {
      result.committed += node.completed;
      result.replies += node.replies;
      result.result_mismatches += node.result_mismatches;
      if (node.p50_ms > result.p50_ms) result.p50_ms = node.p50_ms;
      if (node.p99_ms > result.p99_ms) result.p99_ms = node.p99_ms;
    }
  }
  result.tps = result.duration_seconds > 0
                   ? static_cast<double>(result.committed) /
                         result.duration_seconds
                   : 0.0;
  if (result.ran) {
    const SafetyReport safety = SweepReportedSafety(result.nodes);
    result.safety_ok = safety.ok;
    result.violation = safety.violation;
    result.min_height = safety.min_height;
    result.max_height = safety.max_height;
  }
  return result;
}

}  // namespace harness
}  // namespace prestige
