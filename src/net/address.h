// Addressing for multi-process deployments: host:port parsing, the peer
// address book, and the on-disk cluster config format shared by
// prestige_node (which reads it) and prestige_cluster / the process-cluster
// harness (which write it).
//
// Config format — line-based, '#' comments, whitespace-separated:
//
//   seed 42
//   protocol prestigebft        # prestigebft | hotstuff | sbft
//   n 4
//   batch 500
//   pools 1
//   clients_per_pool 200
//   payload 32
//   duration_us 6000000
//   node 0 replica 127.0.0.1:9000 127.0.0.1:9100
//   node 4 pool    127.0.0.1:9004 127.0.0.1:9104
//
// Node ids are deployment-global and follow the harness convention:
// replicas 0..n-1, then client pools n..n+pools-1. A config with N node
// lines must use exactly the ids 0..N-1 (anything else is rejected). The
// fourth column is the node's data (UDP) address, the fifth its control
// (TCP) address.

#ifndef PRESTIGE_NET_ADDRESS_H_
#define PRESTIGE_NET_ADDRESS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace prestige {
namespace net {

/// An IPv4 endpoint in host byte order. Plain data — OS sockaddr types
/// never leak out of net/.
struct SockAddr {
  uint32_t ip = 0;
  uint16_t port = 0;

  bool valid() const { return ip != 0 || port != 0; }
  std::string ToString() const;  ///< "a.b.c.d:port".

  bool operator==(const SockAddr& other) const {
    return ip == other.ip && port == other.port;
  }
};

/// Parses "a.b.c.d:port". Returns false on malformed input.
bool ParseSockAddr(const std::string& text, SockAddr* out);

/// One process in a deployment.
struct PeerEntry {
  enum class Kind { kReplica, kPool };
  uint32_t id = 0;
  Kind kind = Kind::kReplica;
  SockAddr data;     ///< UDP endpoint for replica/client traffic.
  SockAddr control;  ///< TCP endpoint for the status/shutdown socket.
};

/// A parsed cluster config: workload parameters + the peer map.
struct ClusterConfig {
  uint64_t seed = 1;
  std::string protocol = "prestigebft";
  uint32_t n = 4;
  uint32_t batch = 500;
  uint32_t pools = 1;
  uint32_t clients_per_pool = 200;
  uint32_t payload = 32;
  int64_t duration_us = 6000000;
  std::vector<PeerEntry> peers;

  const PeerEntry* Find(uint32_t id) const;
  std::vector<uint32_t> ReplicaIds() const;
  std::vector<uint32_t> PoolIds() const;
};

/// Parses the config text. On failure returns false and describes the
/// offending line in `error`.
bool ParseClusterConfig(const std::string& text, ClusterConfig* out,
                        std::string* error);

/// Serializes `config` back into the file format ParseClusterConfig reads.
std::string FormatClusterConfig(const ClusterConfig& config);

}  // namespace net
}  // namespace prestige

#endif  // PRESTIGE_NET_ADDRESS_H_
