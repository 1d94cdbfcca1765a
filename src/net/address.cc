#include "net/address.h"

#include <cstdio>
#include <sstream>

namespace prestige {
namespace net {

std::string SockAddr::ToString() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u:%u", (ip >> 24) & 0xff,
                (ip >> 16) & 0xff, (ip >> 8) & 0xff, ip & 0xff, port);
  return buf;
}

bool ParseSockAddr(const std::string& text, SockAddr* out) {
  unsigned a = 0, b = 0, c = 0, d = 0, port = 0;
  char tail = 0;
  const int matched = std::sscanf(text.c_str(), "%u.%u.%u.%u:%u%c", &a, &b,
                                  &c, &d, &port, &tail);
  if (matched != 5 || a > 255 || b > 255 || c > 255 || d > 255 ||
      port > 65535) {
    return false;
  }
  out->ip = (a << 24) | (b << 16) | (c << 8) | d;
  out->port = static_cast<uint16_t>(port);
  return true;
}

const PeerEntry* ClusterConfig::Find(uint32_t id) const {
  for (const PeerEntry& p : peers) {
    if (p.id == id) return &p;
  }
  return nullptr;
}

std::vector<uint32_t> ClusterConfig::ReplicaIds() const {
  std::vector<uint32_t> ids;
  for (const PeerEntry& p : peers) {
    if (p.kind == PeerEntry::Kind::kReplica) ids.push_back(p.id);
  }
  return ids;
}

std::vector<uint32_t> ClusterConfig::PoolIds() const {
  std::vector<uint32_t> ids;
  for (const PeerEntry& p : peers) {
    if (p.kind == PeerEntry::Kind::kPool) ids.push_back(p.id);
  }
  return ids;
}

bool ParseClusterConfig(const std::string& text, ClusterConfig* out,
                        std::string* error) {
  std::istringstream stream(text);
  std::string line;
  int line_no = 0;
  auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no) + ": " + why;
    }
    return false;
  };

  while (std::getline(stream, line)) {
    ++line_no;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    std::string key;
    if (!(fields >> key)) continue;  // Blank / comment-only line.

    if (key == "seed") {
      if (!(fields >> out->seed)) return fail("seed wants an integer");
    } else if (key == "protocol") {
      if (!(fields >> out->protocol)) return fail("protocol wants a name");
      if (out->protocol != "prestigebft" && out->protocol != "hotstuff" &&
          out->protocol != "sbft") {
        return fail("unknown protocol '" + out->protocol + "'");
      }
    } else if (key == "n") {
      if (!(fields >> out->n) || out->n == 0) {
        return fail("n wants a positive integer");
      }
    } else if (key == "batch") {
      if (!(fields >> out->batch)) return fail("batch wants an integer");
    } else if (key == "pools") {
      if (!(fields >> out->pools)) return fail("pools wants an integer");
    } else if (key == "clients_per_pool") {
      if (!(fields >> out->clients_per_pool)) {
        return fail("clients_per_pool wants an integer");
      }
    } else if (key == "payload") {
      if (!(fields >> out->payload)) return fail("payload wants an integer");
    } else if (key == "duration_us") {
      if (!(fields >> out->duration_us) || out->duration_us < 0) {
        return fail("duration_us wants a non-negative integer");
      }
    } else if (key == "node") {
      PeerEntry peer;
      std::string kind, data, control;
      if (!(fields >> peer.id >> kind >> data >> control)) {
        return fail("node wants: <id> <replica|pool> <data> <control>");
      }
      if (kind == "replica") {
        peer.kind = PeerEntry::Kind::kReplica;
      } else if (kind == "pool") {
        peer.kind = PeerEntry::Kind::kPool;
      } else {
        return fail("node kind must be replica or pool, got '" + kind + "'");
      }
      if (!ParseSockAddr(data, &peer.data)) {
        return fail("bad data address '" + data + "'");
      }
      if (!ParseSockAddr(control, &peer.control)) {
        return fail("bad control address '" + control + "'");
      }
      if (out->Find(peer.id) != nullptr) {
        return fail("duplicate node id " + std::to_string(peer.id));
      }
      out->peers.push_back(peer);
    } else {
      return fail("unknown key '" + key + "'");
    }
  }
  line_no = 0;
  if (out->peers.empty()) return fail("config declares no nodes");
  // Ids are dense (0..N-1 for N node lines): runtimes index tables by id,
  // so an id taken from input must never size an allocation.
  for (const PeerEntry& peer : out->peers) {
    if (peer.id >= out->peers.size()) {
      return fail("node id " + std::to_string(peer.id) + " out of range: " +
                  std::to_string(out->peers.size()) +
                  " nodes need ids 0.." +
                  std::to_string(out->peers.size() - 1));
    }
  }
  return true;
}

std::string FormatClusterConfig(const ClusterConfig& config) {
  std::ostringstream out;
  out << "# prestige cluster config (net/address.h)\n";
  out << "seed " << config.seed << "\n";
  out << "protocol " << config.protocol << "\n";
  out << "n " << config.n << "\n";
  out << "batch " << config.batch << "\n";
  out << "pools " << config.pools << "\n";
  out << "clients_per_pool " << config.clients_per_pool << "\n";
  out << "payload " << config.payload << "\n";
  out << "duration_us " << config.duration_us << "\n";
  for (const PeerEntry& p : config.peers) {
    out << "node " << p.id << " "
        << (p.kind == PeerEntry::Kind::kReplica ? "replica" : "pool") << " "
        << p.data.ToString() << " " << p.control.ToString() << "\n";
  }
  return out.str();
}

}  // namespace net
}  // namespace prestige
