// SocketRuntime: hosts runtime::Nodes on real OS threads with real UDP
// transport — the deployment backend behind the prestige_node daemon and
// multi-process clusters.
//
// Where ThreadedRuntime connects its per-node event loops through
// in-process queues, SocketRuntime gives every node a bound, non-blocking
// UDP socket and speaks the net/ framing protocol (net/frame.h) over it:
// Send serializes the message (net/wire.h), splits it into checksummed
// datagram fragments, and writes them straight to the destination's
// address from the address book. This works identically whether the
// destination lives in the same process, another process on this host, or
// another machine — all traffic crosses the kernel's network stack.
//
// Design:
//   * one event-loop thread per local node: poll(2) over the node's UDP
//     socket and a wake pipe, with the timeout clamped to the earliest
//     pending timer deadline. All callbacks of a node run on its loop
//     thread, preserving the single-threaded-per-node Env contract;
//   * hardened receive path: datagrams pass through FrameAssembler
//     (header/length/checksum validation, bounded reassembly) and then the
//     bounds-checked wire decoder. Malformed input at either layer becomes
//     a counted drop (see net::FrameCounters), never UB or a crash;
//   * messages with no wire form (e.g. client::SubmitRequestMsg, which
//     carries a closure) fall back to an in-process mailbox when the
//     destination node lives in this runtime, and are counted and dropped
//     otherwise — such messages are harness-internal by construction;
//   * per-node RNG streams derived from (seed, node id) alone, so every
//     process of a deployment derives the same stream for a given node
//     without coordinating registration order;
//   * monotonic wall-clock time, epoch at Start(), same as the threaded
//     backend.
//
// Delivery is UDP: unreliable and unordered. The protocols already tolerate
// loss (client retransmission, view-change timeouts), which is exactly what
// this backend exists to exercise. The framing header's source id is
// *claimed*, not authenticated at the transport layer — authentication is
// the job of the message-level MACs the replicas verify.
//
// Lifecycle: construct → AddNode each local node (binds its socket
// immediately; port 0 picks a free port) → SetPeer for every remote id →
// Start() → ... → Stop() signals and joins. After Stop returns, node state
// and counters may be inspected from the caller's thread.

#ifndef PRESTIGE_RUNTIME_SOCKET_ENV_H_
#define PRESTIGE_RUNTIME_SOCKET_ENV_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/address.h"
#include "net/frame.h"
#include "net/socket.h"
#include "runtime/env.h"
#include "runtime/wall_clock_env.h"

namespace prestige {
namespace runtime {

/// The socket backend: per-node event loops joined by real UDP datagrams.
class SocketRuntime {
 public:
  /// `seed` feeds the per-node RNG derivation; every process in a
  /// deployment must use the same seed.
  explicit SocketRuntime(uint64_t seed);
  ~SocketRuntime();

  SocketRuntime(const SocketRuntime&) = delete;
  SocketRuntime& operator=(const SocketRuntime&) = delete;

  /// Registers `node` (non-owning; must outlive the runtime) under the
  /// deployment-global `id`, binds a UDP socket to `bind_addr` (port 0 =
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

  /// Marks the clock epoch and spawns one event-loop thread per local
  /// node; each loop runs its node's OnStart first.
  void Start();

  /// Signals every loop to exit and joins the threads. Pending datagrams
  /// and timers are discarded. Idempotent; also called by the destructor.
  void Stop();

  bool started() const { return started_; }
  size_t num_nodes() const { return nodes_.size(); }

  /// Microseconds of wall-clock time since Start().
  util::TimeMicros Now() const { return clock_.Now(); }

  /// Messages handed to OnMessage across all local nodes so far.
  uint64_t messages_delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }

  /// Frame-level counters of one local node (send + receive directions
  /// merged). Call after Stop() for exact totals.
  net::FrameCounters node_net_stats(NodeId id) const;

  /// Sum of node_net_stats over all local nodes.
  net::FrameCounters net_stats() const;

 private:
  struct NodeState;

  /// Env implementation handed to each node: the shared clock/timer/RNG
  /// base plus the UDP transport.
  class NodeEnv final : public WallClockEnv {
   public:
    NodeEnv(SocketRuntime* runtime, NodeState* state, NodeId id,
            util::Rng rng)
        : WallClockEnv(&runtime->clock_, id, rng),
          runtime_(runtime),
          state_(state) {}

    void Send(NodeId to, MessagePtr msg) override;
    void Send(const std::vector<NodeId>& targets, MessagePtr msg) override;

   private:
    SocketRuntime* runtime_;
    NodeState* state_;
  };

  struct Inbound {
    NodeId from;
    MessagePtr msg;
  };

  /// Everything one local node's loop owns. The local mailbox is guarded
  /// by `mu`; socket, frame writer, counters, and the env's timers are
  /// touched only by the loop thread (Env calls are only legal from the
  /// owning node's callbacks).
  struct NodeState {
    ~NodeState();

    Node* node = nullptr;
    NodeId id = 0;
    std::unique_ptr<NodeEnv> env;

    net::UdpSocket socket;
    std::unique_ptr<net::FrameWriter> writer;
    std::unique_ptr<net::FrameAssembler> assembler;
    net::FrameCounters send_counters;

    /// Wake pipe: Stop() and cross-thread local deliveries write one byte
    /// to pop the loop out of poll(2).
    int wake_read = -1;
    int wake_write = -1;

    // Local mailbox for messages with no wire form (cross-thread,
    // guarded by mu).
    std::mutex mu;
    std::deque<Inbound> mailbox;
    std::atomic<bool> stop{false};

    std::thread thread;
  };

  /// Serializes + frames + transmits, or falls back to the local mailbox
  /// for unserializable payloads. Runs on `from`'s loop thread.
  void SendFrom(NodeState* from, NodeId to, const MessagePtr& msg);
  void Wake(NodeState* state);
  void RunLoop(NodeState* state);
  NodeState* FindLocal(NodeId id) const;

  uint64_t seed_;
  bool started_ = false;
  bool stopped_ = false;
  WallClock clock_;
  std::atomic<uint64_t> delivered_{0};
  std::vector<std::unique_ptr<NodeState>> nodes_;
  std::unordered_map<NodeId, NodeState*> local_by_id_;
  std::map<NodeId, net::SockAddr> peers_;
};

}  // namespace runtime
}  // namespace prestige

#endif  // PRESTIGE_RUNTIME_SOCKET_ENV_H_
