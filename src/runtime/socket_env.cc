#include "runtime/socket_env.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>

#include "net/socket.h"
#include "net/wire.h"

namespace prestige {
namespace runtime {
namespace {

/// Datagrams drained per poll wakeup before timers get another look.
constexpr int kRecvBurst = 64;
/// Receive buffer: larger than kMaxDatagramBytes so oversized hostile
/// datagrams arrive untruncated and die in header validation instead of
/// masquerading as shorter frames.
constexpr size_t kRecvBufBytes = 65536;
/// Poll ceiling when no timer is armed; wake pipe handles prompt wakeups.
constexpr int kIdlePollMs = 100;

bool MakeNonBlockingPipe(int* read_fd, int* write_fd) {
  int fds[2];
  if (::pipe(fds) != 0) return false;
  for (int fd : fds) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return false;
    }
  }
  *read_fd = fds[0];
  *write_fd = fds[1];
  return true;
}

}  // namespace

struct SocketRuntime::Port final : Slot {
  Port(SocketRuntime* runtime, Node* node_in, NodeId id, util::Rng rng)
      : Slot(runtime, node_in, id, rng), writer(id), assembler(id) {}
  ~Port() override {
    if (wake_read >= 0) ::close(wake_read);
    if (wake_write >= 0) ::close(wake_write);
  }

  net::UdpSocket socket;
  net::FrameWriter writer;
  net::FrameAssembler assembler;
  net::FrameCounters send_counters;
  /// Wake pipe: Stop() and local mailbox posts write one byte to pop the
  /// loop out of poll(2).
  int wake_read = -1;
  int wake_write = -1;
  std::vector<uint8_t> recv_buf = std::vector<uint8_t>(kRecvBufBytes);
  std::vector<net::FrameAssembler::Complete> completes;
};

SocketRuntime::SocketRuntime(uint64_t seed) : seed_(seed) {}

SocketRuntime::~SocketRuntime() { Stop(); }

bool SocketRuntime::AddNode(Node* node, NodeId id,
                            const net::SockAddr& bind_addr,
                            std::string* error) {
  assert(!started() && "AddNode must precede Start()");
  if (Find(id) != nullptr) {
    if (error != nullptr) {
      *error = "duplicate local node id " + std::to_string(id);
    }
    return false;
  }
  // RNG derived from (seed, id) alone — unlike the registration-order fork
  // of the other backends, every process of a deployment reproduces the
  // same stream for a given node independently.
  auto port = std::make_unique<Port>(
      this, node, id,
      util::Rng(seed_ ^ (0x9e3779b97f4a7c15ULL * (uint64_t{id} + 1))));
  if (!port->socket.Bind(bind_addr, error)) return false;
  if (!MakeNonBlockingPipe(&port->wake_read, &port->wake_write)) {
    if (error != nullptr) *error = "wake pipe creation failed";
    return false;
  }
  peers_[id] = port->socket.local_addr();
  Register(std::move(port));
  return true;
}

void SocketRuntime::SetPeer(NodeId id, const net::SockAddr& addr) {
  assert(!started() && "SetPeer must precede Start()");
  peers_[id] = addr;
}

net::SockAddr SocketRuntime::local_addr(NodeId id) const {
  const Slot* s = Find(id);
  return s == nullptr ? net::SockAddr{}
                      : static_cast<const Port*>(s)->socket.local_addr();
}

net::FrameCounters SocketRuntime::node_net_stats(NodeId id) const {
  net::FrameCounters total;
  if (const Slot* s = Find(id)) {
    total.MergeFrom(static_cast<const Port*>(s)->send_counters);
    total.MergeFrom(static_cast<const Port*>(s)->assembler.counters());
  }
  return total;
}

net::FrameCounters SocketRuntime::net_stats() const {
  net::FrameCounters total;
  for (const auto& s : slots()) total.MergeFrom(node_net_stats(s->env.id()));
  return total;
}

void SocketRuntime::Wake(Slot* slot) {
  const uint8_t byte = 1;
  // A full pipe already guarantees a pending wakeup; EAGAIN is fine.
  (void)!::write(static_cast<Port*>(slot)->wake_write, &byte, 1);
}

void SocketRuntime::Transmit(Slot* slot, const NodeId* targets, size_t count,
                             const MessagePtr& msg) {
  Port* from = static_cast<Port*>(slot);
  std::vector<uint8_t> payload;
  if (!net::EncodeMessage(*msg, &payload)) {
    // No wire form: deliverable only within this process.
    for (size_t i = 0; i < count; ++i) {
      if (!Post(targets[i], from->env.id(), msg)) {
        ++from->send_counters.unserializable_drops;
      }
    }
    return;
  }
  // One frame set for every copy. Empty when the message is over
  // net::kMaxMessageBytes: the framing refuses it.
  net::FrameWriter::Frames frames = from->writer.Frame(payload);
  for (size_t i = 0; i < count; ++i) {
    const NodeId to = targets[i];
    const auto peer = peers_.find(to);
    if (peer == peers_.end() || frames.empty()) {
      ++from->send_counters.send_errors;
      continue;
    }
    // Every copy — self-sends and co-hosted destinations included — goes
    // through the kernel, so one process per node and n nodes per process
    // exercise the identical transport path.
    from->writer.AddressTo(to, &frames);
    for (const std::vector<uint8_t>& frame : frames) {
      if (from->socket.SendTo(peer->second, frame.data(), frame.size())) {
        ++from->send_counters.frames_sent;
        from->send_counters.bytes_sent += frame.size();
      } else {
        ++from->send_counters.send_errors;
      }
    }
  }
}

bool SocketRuntime::Wait(Slot* slot, util::TimeMicros next_deadline,
                         Batch* batch) {
  Port* p = static_cast<Port*>(slot);
  int timeout_ms = kIdlePollMs;
  if (next_deadline >= 0) {
    const util::TimeMicros now = Now();
    timeout_ms =
        next_deadline <= now
            ? 0
            : static_cast<int>(std::min<int64_t>(
                  (next_deadline - now + 999) / 1000, kIdlePollMs));
  }
  const int fds[2] = {p->socket.fd(), p->wake_read};
  bool readable[2] = {false, false};
  net::PollSockets(fds, readable, 2, timeout_ms);
  if (p->stop.load(std::memory_order_relaxed)) return false;

  if (readable[1]) {
    uint8_t drain[64];
    while (::read(p->wake_read, drain, sizeof(drain)) > 0) {
    }
  }
  {
    std::lock_guard<std::mutex> lock(p->mu);
    batch->swap(p->mailbox);
  }
  if (!readable[0]) return true;
  for (int burst = 0; burst < kRecvBurst; ++burst) {
    const long got = p->socket.RecvFrom(p->recv_buf.data(), p->recv_buf.size());
    if (got < 0) break;
    p->completes.clear();
    p->assembler.Accept(p->recv_buf.data(), static_cast<size_t>(got),
                        &p->completes);
    for (net::FrameAssembler::Complete& c : p->completes) {
      MessagePtr msg = net::DecodeMessage(c.payload.data(), c.payload.size());
      if (msg == nullptr) {
        // Frame layer was satisfied but the body is malformed: counted
        // drop, nothing applied.
        ++p->assembler.counters().decode_drops;
        continue;
      }
      batch->push_back(Inbound{c.src, std::move(msg)});
    }
  }
  return true;
}

}  // namespace runtime
}  // namespace prestige
