// SocketRuntime: the UDP transport of the wall-clock event loop
// (event_loop.h) — the deployment backend behind the prestige_node daemon
// and multi-process clusters.
//
// Every local node owns a bound, non-blocking UDP socket and speaks the
// net/ framing protocol (net/frame.h) over it: Send serializes the message
// (net/wire.h), splits it into CRC32C-checksummed datagram fragments, and
// writes them straight to each destination's address from the peer book.
// This works identically whether the destination lives in the same
// process, another process on this host, or another machine — all traffic
// crosses the kernel's network stack.
//
// Transport details:
//   * each loop waits in poll(2) over its node's socket and a wake pipe,
//     with the timeout clamped to the earliest timer deadline; a wakeup
//     drains the local mailbox first, then at most kRecvBurst datagrams;
//   * hardened receive path: datagrams pass through FrameAssembler
//     (header/length/checksum validation, bounded reassembly) and then the
//     bounds-checked wire decoder. Malformed input at either layer becomes
//     a counted drop (see net::FrameCounters), never UB or a crash;
//   * one encode and one frame set per Send, however many targets it
//     names: a broadcast serializes the message once and builds and
//     checksums each fragment once; per destination only the header's dst
//     and per-(src, dst) seq are rewritten before sendto. Every copy of one
//     message shares its frame_id (reassembly is keyed per receiver);
//   * one buffer per Send: the message is encoded behind room for a frame
//     header, and a message that fits one datagram (under 60 KB) is framed
//     and checksummed in that buffer; on receive, such a message is decoded
//     straight out of the receive buffer;
//   * messages with no wire form (e.g. client::SubmitRequestMsg, which
//     carries a closure) fall back to the local mailbox when the
//     destination node lives in this runtime, and are counted and dropped
//     otherwise — such messages are harness-internal by construction;
//   * a message whose encoding exceeds net::kMaxMessageBytes cannot be
//     framed; it is dropped and counted in send_errors, like a failed
//     sendto;
//   * per-node RNG streams derived from (seed, node id) alone, so every
//     process of a deployment derives the same stream for a given node
//     without coordinating registration order.
//
// Delivery is UDP: unreliable and unordered. The protocols already tolerate
// loss (client retransmission, view-change timeouts), which is exactly what
// this backend exists to exercise. The framing header's source id is
// *claimed*, not authenticated at the transport layer — authentication is
// the job of the message-level MACs the replicas verify.
//
// Lifecycle: construct → AddNode each local node (binds its socket
// immediately; port 0 picks a free port) → SetPeer for every remote id →
// Start() → ... → Stop().

#ifndef PRESTIGE_RUNTIME_SOCKET_ENV_H_
#define PRESTIGE_RUNTIME_SOCKET_ENV_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/address.h"
#include "net/frame.h"
#include "runtime/event_loop.h"

namespace prestige {
namespace runtime {

/// The socket backend: per-node event loops joined by real UDP datagrams.
class SocketRuntime : public EventLoop {
 public:
  /// `seed` feeds the per-node RNG derivation; every process in a
  /// deployment must use the same seed.
  explicit SocketRuntime(uint64_t seed);
  ~SocketRuntime() override;

  /// Registers `node` (non-owning; must outlive the runtime) under the
  /// deployment-global `id` (dense: 0..N-1 of the deployment, which
  /// net::ParseClusterConfig enforces for config files), binds a UDP socket to `bind_addr` (port 0 =
  /// kernel-assigned), and publishes the bound address in the peer book.
  /// Must precede Start(). Returns false (with `error`) on bind failure or
  /// duplicate id.
  bool AddNode(Node* node, NodeId id, const net::SockAddr& bind_addr,
               std::string* error);

  /// Publishes the data address of a node hosted elsewhere. Must precede
  /// Start(); later calls for an id overwrite earlier ones.
  void SetPeer(NodeId id, const net::SockAddr& addr);

  /// The bound address of a local node (valid after AddNode), or a default
  /// SockAddr for unknown ids.
  net::SockAddr local_addr(NodeId id) const;

  /// Frame-level counters of one local node (send + receive directions
  /// merged). The loop thread owns them: read only after Stop().
  net::FrameCounters node_net_stats(NodeId id) const;

  /// Sum of node_net_stats over all local nodes (only after Stop()).
  net::FrameCounters net_stats() const;

 private:
  /// A slot plus its socket, framing state, counters and wake pipe, all
  /// loop-thread state except the pipe's write end.
  struct Port;

  void Transmit(Slot* from, const NodeId* targets, size_t count,
                const MessagePtr& msg) override;
  void Wake(Slot* slot) override;
  bool Wait(Slot* slot, util::TimeMicros next_deadline,
            Batch* batch) override;

  uint64_t seed_;
  std::map<NodeId, net::SockAddr> peers_;
};

}  // namespace runtime
}  // namespace prestige

#endif  // PRESTIGE_RUNTIME_SOCKET_ENV_H_
