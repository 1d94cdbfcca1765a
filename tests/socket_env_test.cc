// Tests for the socket backend: SocketRuntime primitives (real loopback
// UDP transport, timers, local fallback for unserializable messages, an
// oversized send counted as a send error, one broadcast framed once and
// addressed to every target, client calls from threads outside the
// loops), live-loop hostile-datagram
// injection, and the cross-backend equivalence run — the same fault-free
// scenario on the simulator, the threaded runtime, and the socket runtime
// must all commit work and pass the same safety sweep — and the process
// cluster's sweep over self-reported chains.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "app/kv_service.h"
#include "client/client.h"
#include "core/messages.h"
#include "core/replica.h"
#include "crypto/keys.h"
#include "harness/cluster.h"
#include "harness/process_cluster.h"
#include "harness/runner.h"
#include "harness/scenario.h"
#include "harness/scenario_runner.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/wire.h"
#include "runtime/socket_env.h"
#include "types/client_messages.h"

namespace prestige {
namespace runtime {
namespace {

using util::Millis;

/// Waits (really) until `pred` holds or `deadline_ms` passes.
template <typename Pred>
bool SpinUntil(Pred pred, int deadline_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Ping-pong over real UDP: bounces a NoiseMsg (which HAS a wire form, so
/// every hop crosses the kernel's loopback stack) back to the sender with
/// an incremented size until `limit` hops.
class UdpPongNode : public Node {
 public:
  explicit UdpPongNode(uint32_t limit) : limit_(limit) {}

  void OnMessage(NodeId from, const MessagePtr& msg) override {
    const auto* noise = dynamic_cast<const core::NoiseMsg*>(msg.get());
    if (noise == nullptr) return;
    hops_.fetch_add(1, std::memory_order_relaxed);
    if (noise->bytes >= limit_) return;
    auto next = std::make_shared<core::NoiseMsg>();
    next->bytes = noise->bytes + 1;
    Send(from, next);
  }

  void Kick(NodeId to) {
    auto msg = std::make_shared<core::NoiseMsg>();
    msg->bytes = 1;
    Send(to, msg);
  }

  uint32_t hops() const { return hops_.load(std::memory_order_relaxed); }

 private:
  uint32_t limit_;
  std::atomic<uint32_t> hops_{0};
};

class KickingUdpPongNode : public UdpPongNode {
 public:
  KickingUdpPongNode(uint32_t limit, NodeId peer)
      : UdpPongNode(limit), peer_(peer) {}
  void OnStart() override { Kick(peer_); }

 private:
  NodeId peer_;
};

TEST(SocketRuntimeTest, PingPongOverLoopbackUdp) {
  SocketRuntime runtime(1);
  UdpPongNode a(200);
  KickingUdpPongNode b(200, /*peer=*/0);
  std::string error;
  ASSERT_TRUE(runtime.AddNode(&a, 0, harness::LoopbackAny(), &error)) << error;
  ASSERT_TRUE(runtime.AddNode(&b, 1, harness::LoopbackAny(), &error)) << error;
  runtime.Start();
  EXPECT_TRUE(SpinUntil([&] { return a.hops() + b.hops() >= 200; }, 5000));
  runtime.Stop();
  EXPECT_GE(a.hops() + b.hops(), 200u);
  // Every hop was a real datagram, not an in-process shortcut.
  const net::FrameCounters net = runtime.net_stats();
  EXPECT_GE(net.frames_sent, 200u);
  EXPECT_GE(net.messages_assembled, 200u);
  EXPECT_EQ(net.unserializable_drops, 0u);
}

struct LocalOnlyMsg : public NetMessage {
  size_t WireSize() const override { return 8; }
  const char* Name() const override { return "LocalOnly"; }
};

/// Counts LocalOnlyMsg deliveries (no wire form -> mailbox fallback).
class LocalSinkNode : public Node {
 public:
  void OnMessage(NodeId, const MessagePtr& msg) override {
    if (dynamic_cast<const LocalOnlyMsg*>(msg.get()) != nullptr) {
      received_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  int received() const { return received_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int> received_{0};
};

class LocalSenderNode : public Node {
 public:
  explicit LocalSenderNode(NodeId peer) : peer_(peer) {}
  void OnStart() override {
    for (int i = 0; i < 10; ++i) Send(peer_, std::make_shared<LocalOnlyMsg>());
  }
  void OnMessage(NodeId, const MessagePtr&) override {}

 private:
  NodeId peer_;
};

TEST(SocketRuntimeTest, UnserializableMessagesFallBackToLocalDelivery) {
  SocketRuntime runtime(7);
  LocalSinkNode sink;
  LocalSenderNode sender(/*peer=*/0);
  std::string error;
  ASSERT_TRUE(runtime.AddNode(&sink, 0, harness::LoopbackAny(), &error));
  ASSERT_TRUE(runtime.AddNode(&sender, 1, harness::LoopbackAny(), &error));
  runtime.Start();
  EXPECT_TRUE(SpinUntil([&] { return sink.received() >= 10; }, 5000));
  runtime.Stop();
  EXPECT_EQ(sink.received(), 10);
  EXPECT_EQ(runtime.net_stats().unserializable_drops, 0u);
}

class TimerNode : public Node {
 public:
  void OnStart() override {
    SetTimer(Millis(5), 5);
    SetTimer(Millis(15), 15);
    const TimerId doomed = SetTimer(Millis(10), 10);
    CancelTimer(doomed);
  }
  void OnMessage(NodeId, const MessagePtr&) override {}
  void OnTimer(uint64_t tag) override {
    fired_order_.push_back(tag);
    count_.fetch_add(1, std::memory_order_release);
  }

  int count() const { return count_.load(std::memory_order_acquire); }
  // Loop-thread state; read after Stop() only.
  std::vector<uint64_t> fired_order_;

 private:
  std::atomic<int> count_{0};
};

TEST(SocketRuntimeTest, TimersFireInOrderAndCancelWorks) {
  SocketRuntime runtime(1);
  TimerNode node;
  std::string error;
  ASSERT_TRUE(runtime.AddNode(&node, 0, harness::LoopbackAny(), &error));
  runtime.Start();
  EXPECT_TRUE(SpinUntil([&] { return node.count() >= 2; }, 5000));
  runtime.Stop();
  ASSERT_EQ(node.fired_order_.size(), 2u);
  EXPECT_EQ(node.fired_order_[0], 5u);
  EXPECT_EQ(node.fired_order_[1], 15u);  // Tag 10 was cancelled.
}

TEST(SocketRuntimeTest, DuplicateIdAndUnknownPeerAreHandled) {
  SocketRuntime runtime(1);
  UdpPongNode a(1);
  UdpPongNode b(1);
  std::string error;
  ASSERT_TRUE(runtime.AddNode(&a, 3, harness::LoopbackAny(), &error));
  EXPECT_FALSE(runtime.AddNode(&b, 3, harness::LoopbackAny(), &error));
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(runtime.local_addr(3).valid());
  EXPECT_FALSE(runtime.local_addr(99).valid());
}

/// Sends one message whose encoding is over net::kMaxMessageBytes, then a
/// 1-byte NoiseMsg the peer can receive.
class OversizedSenderNode : public Node {
 public:
  explicit OversizedSenderNode(NodeId peer) : peer_(peer) {}
  void OnStart() override {
    auto batch = std::make_shared<types::ClientBatch>();
    for (uint64_t i = 0; i < 40; ++i) {
      types::Transaction tx;
      tx.client_seq = i;
      tx.command.assign(1 << 20, 0x5a);
      batch->txs.push_back(std::move(tx));
    }
    Send(peer_, batch);
    auto noise = std::make_shared<core::NoiseMsg>();
    noise->bytes = 1;
    Send(peer_, noise);
  }
  void OnMessage(NodeId, const MessagePtr&) override {}

 private:
  NodeId peer_;
};

TEST(SocketRuntimeTest, OversizedMessageIsACountedSendError) {
  SocketRuntime runtime(1);
  UdpPongNode receiver(1);
  OversizedSenderNode sender(/*peer=*/0);
  std::string error;
  ASSERT_TRUE(runtime.AddNode(&receiver, 0, harness::LoopbackAny(), &error));
  ASSERT_TRUE(runtime.AddNode(&sender, 1, harness::LoopbackAny(), &error));
  runtime.Start();
  // The NoiseMsg is sent after the oversized batch, so once it arrives the
  // batch's send has been accounted for.
  EXPECT_TRUE(SpinUntil([&] { return receiver.hops() >= 1; }, 5000));
  runtime.Stop();

  const net::FrameCounters sent = runtime.node_net_stats(1);
  EXPECT_EQ(sent.send_errors, 1u);
  EXPECT_EQ(sent.unserializable_drops, 0u);
  const net::FrameCounters received = runtime.node_net_stats(0);
  EXPECT_EQ(received.length_drops, 0u);
  EXPECT_EQ(received.decode_drops, 0u);
}

// ---------------------------------------------------- one-encode broadcast

/// Collects every wire-carried message it receives, re-encoded, so the test
/// can compare copies byte for byte.
class RecordingNode : public Node {
 public:
  void OnMessage(NodeId, const MessagePtr& msg) override {
    std::vector<uint8_t> bytes;
    if (!net::EncodeMessage(*msg, &bytes)) return;
    received_.push_back(std::move(bytes));
    count_.fetch_add(1, std::memory_order_release);
  }
  int count() const { return count_.load(std::memory_order_acquire); }
  /// Loop-thread state; read after Stop() only.
  const std::vector<std::vector<uint8_t>>& received() const {
    return received_;
  }

 private:
  std::vector<std::vector<uint8_t>> received_;
  std::atomic<int> count_{0};
};

/// Broadcasts `msg` to `targets` in one Send each time the test raises
/// `rounds`; polls the request on a 1 ms timer, so every Send runs on the
/// node's own loop thread.
class BroadcasterNode : public RecordingNode {
 public:
  BroadcasterNode(std::vector<NodeId> targets, MessagePtr msg)
      : targets_(std::move(targets)), msg_(std::move(msg)) {}
  void OnStart() override { SetTimer(Millis(1), 0); }
  void OnTimer(uint64_t) override {
    for (; sent_ < rounds.load(std::memory_order_acquire); ++sent_) {
      Send(targets_, msg_);
    }
    SetTimer(Millis(1), 0);
  }
  std::atomic<int> rounds{0};

 private:
  std::vector<NodeId> targets_;
  MessagePtr msg_;
  int sent_ = 0;
};

TEST(SocketRuntimeTest, BroadcastEncodesOnceAndEveryCopyArrives) {
  // A message just over two fragments' worth, so each copy is 3 datagrams.
  auto batch = std::make_shared<types::ClientBatch>();
  types::Transaction tx;
  tx.client_seq = 1;
  tx.command.assign(2 * net::kMaxFragPayload + 1000, 0x3c);
  batch->txs.push_back(std::move(tx));
  std::vector<uint8_t> original;
  ASSERT_TRUE(net::EncodeMessage(*batch, &original));
  ASSERT_GT(original.size(), 2 * net::kMaxFragPayload);
  ASSERT_LE(original.size(), 3 * net::kMaxFragPayload);

  // Self, two peers, and an id with no peer-book entry.
  constexpr NodeId kUnknown = 7;
  SocketRuntime runtime(3);
  BroadcasterNode sender({0, 1, 2, kUnknown}, batch);
  RecordingNode peer1, peer2;
  std::string error;
  ASSERT_TRUE(runtime.AddNode(&sender, 0, harness::LoopbackAny(), &error));
  ASSERT_TRUE(runtime.AddNode(&peer1, 1, harness::LoopbackAny(), &error));
  ASSERT_TRUE(runtime.AddNode(&peer2, 2, harness::LoopbackAny(), &error));
  const RecordingNode* receivers[] = {&sender, &peer1, &peer2};
  auto all_have = [&](int n) {
    for (const RecordingNode* r : receivers) {
      if (r->count() < n) return false;
    }
    return true;
  };
  runtime.Start();
  sender.rounds.store(1, std::memory_order_release);
  EXPECT_TRUE(SpinUntil([&] { return all_have(1); }, 5000));
  sender.rounds.store(2, std::memory_order_release);
  EXPECT_TRUE(SpinUntil([&] { return all_have(2); }, 5000));
  runtime.Stop();

  for (NodeId id = 0; id < 3; ++id) {
    const RecordingNode* r = receivers[id];
    ASSERT_EQ(r->received().size(), 2u) << "node " << id;
    for (const auto& bytes : r->received()) EXPECT_EQ(bytes, original);
    const net::FrameCounters c = runtime.node_net_stats(id);
    EXPECT_EQ(c.messages_assembled, 2u) << "node " << id;
    // The second broadcast's sequences continue the first's.
    EXPECT_EQ(c.seq_gaps, 0u) << "node " << id;
    EXPECT_EQ(c.seq_out_of_order, 0u) << "node " << id;
    EXPECT_EQ(c.checksum_drops, 0u) << "node " << id;
    EXPECT_EQ(c.length_drops + c.frag_drops + c.decode_drops, 0u);
  }
  // Two broadcasts of 3 datagrams to each of the 3 known targets; the
  // unknown id is one send error per broadcast.
  const net::FrameCounters sent = runtime.node_net_stats(0);
  EXPECT_EQ(sent.frames_sent, 2u * 3u * 3u);
  EXPECT_EQ(sent.send_errors, 2u);
}

// A client's Call marshals each request onto the client's loop with an
// Env::Send from the calling thread (Client::SubmitAsync), while every loop
// encodes and sends on its own thread. Two foreign threads call at once
// through one client; under TSan this checks that the socket transport
// touches no loop-thread state for a send from outside the loop.
TEST(SocketRuntimeTest, ForeignThreadsCallThroughAClientWhileLoopsSend) {
  constexpr uint32_t kN = 4;
  core::PrestigeConfig config;
  config.n = kN;
  config.batch_size = 16;
  config.batch_wait = Millis(1);
  config.timeout_min = Millis(400);
  config.timeout_max = Millis(600);

  SocketRuntime runtime(/*seed=*/41);
  crypto::KeyStore keys(41 ^ 0xc0ffee);
  std::vector<std::unique_ptr<core::PrestigeReplica>> replicas;
  std::vector<NodeId> replica_ids;
  std::string error;
  for (uint32_t i = 0; i < kN; ++i) {
    replicas.push_back(
        std::make_unique<core::PrestigeReplica>(config, i, &keys));
    replicas.back()->SetService(std::make_unique<app::KvService>(4096));
    ASSERT_TRUE(runtime.AddNode(replicas.back().get(), i,
                                harness::LoopbackAny(), &error))
        << error;
    replica_ids.push_back(i);
  }
  client::ClientConfig client_config;
  client_config.client_id = 0;
  client_config.f = types::MaxFaulty(kN);
  client::Client client(client_config);
  ASSERT_TRUE(runtime.AddNode(&client, kN, harness::LoopbackAny(), &error))
      << error;
  client.SetReplicas(replica_ids);
  for (auto& replica : replicas) replica->SetTopology(replica_ids, {kN});

  runtime.Start();
  constexpr int kCallsPerThread = 5;
  std::atomic<int> completed{0};
  auto caller = [&](uint64_t first_key) {
    for (int i = 0; i < kCallsPerThread; ++i) {
      const client::SubmitResult put =
          client.Call(app::kv::EncodePut(first_key + i, 7), util::Seconds(20));
      if (!put.timed_out && put.status == app::ExecStatus::kOk) {
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  std::thread first(caller, 100);
  std::thread second(caller, 200);
  first.join();
  second.join();
  runtime.Stop();

  EXPECT_EQ(completed.load(), 2 * kCallsPerThread);
  const net::FrameCounters net = runtime.net_stats();
  EXPECT_GT(net.frames_sent, 0u);
  EXPECT_EQ(net.unserializable_drops, 0u);
  EXPECT_EQ(net.header_drops + net.checksum_drops + net.length_drops +
                net.decode_drops,
            0u);
}

// ----------------------------------------------- live hostile datagrams

/// Injects raw bytes at a live node's UDP socket: pure garbage must be a
/// header drop, a well-framed datagram whose payload fails wire decode
/// must be a decode drop — and the node must keep serving either way.
TEST(SocketRuntimeTest, HostileDatagramsAreCountedDropsNotCrashes) {
  SocketRuntime runtime(1);
  UdpPongNode victim(1u << 30);
  std::string error;
  ASSERT_TRUE(runtime.AddNode(&victim, 0, harness::LoopbackAny(), &error));
  runtime.Start();
  const net::SockAddr target = runtime.local_addr(0);
  ASSERT_TRUE(target.valid());

  net::UdpSocket attacker;
  ASSERT_TRUE(attacker.Bind(harness::LoopbackAny(), &error)) << error;

  // 1. Pure garbage: fails header validation.
  const std::vector<uint8_t> garbage(64, 0xee);
  ASSERT_TRUE(attacker.SendTo(target, garbage.data(), garbage.size()));

  // 2. Valid framing around an undecodable payload (unknown wire kind):
  //    passes the assembler, dies in DecodeMessage.
  net::FrameWriter writer(/*src=*/42);
  const std::vector<uint8_t> junk_payload = {0xff, 0x01, 0x02, 0x03};
  for (const auto& datagram : writer.Split(/*dst=*/0, junk_payload)) {
    ASSERT_TRUE(attacker.SendTo(target, datagram.data(), datagram.size()));
  }

  // The victim still processes legitimate traffic after the attack. The
  // legitimate datagram follows the hostile ones over the same loopback
  // socket pair, so once the victim has handled it the hostile ones have
  // been counted too. The drop counters belong to the loop thread: read
  // them only after Stop().
  std::vector<uint8_t> wire;
  core::NoiseMsg noise;
  noise.bytes = 1;
  ASSERT_TRUE(net::EncodeMessage(noise, &wire));
  net::FrameWriter legit(/*src=*/42);
  for (const auto& datagram : legit.Split(/*dst=*/0, wire)) {
    ASSERT_TRUE(attacker.SendTo(target, datagram.data(), datagram.size()));
  }
  EXPECT_TRUE(SpinUntil([&] { return victim.hops() >= 1; }, 5000));
  runtime.Stop();

  const net::FrameCounters c = runtime.node_net_stats(0);
  EXPECT_GE(c.header_drops, 1u);
  EXPECT_GE(c.decode_drops, 1u);
}

// ------------------------------------------------- cross-backend equivalence

/// A fault-free steady-state spec all three backends can execute.
harness::ScenarioSpec EquivalenceSpec() {
  harness::ScenarioSpec spec;
  spec.name = "equivalence";
  spec.description = "fault-free cross-backend comparison";
  spec.n = 4;
  harness::Phase phase;
  phase.name = "steady";
  phase.duration = util::Seconds(2);
  spec.phases.push_back(phase);
  return spec;
}

harness::WorkloadOptions EquivalenceWorkload() {
  harness::WorkloadOptions w;
  w.num_pools = 2;
  w.clients_per_pool = 50;
  w.payload_size = 32;
  w.client_timeout = util::Seconds(1);
  w.seed = 11;
  return w;
}

core::PrestigeConfig EquivalenceConfig() {
  core::PrestigeConfig config;
  config.n = 4;
  config.batch_size = 500;
  return config;
}

TEST(CrossBackendTest, SameScenarioCommitsAndStaysSafeOnAllThreeBackends) {
  const harness::ScenarioSpec spec = EquivalenceSpec();
  ASSERT_TRUE(harness::ThreadedCapable(spec));
  // A deliberately modest floor: virtual time and the two wall-clock
  // backends run at different speeds; equivalence means "all make real
  // progress and none violates an invariant", not identical throughput.
  constexpr int64_t kCommittedFloor = 1000;

  const harness::ScenarioSeedResult sim =
      harness::RunScenarioSeed<core::PrestigeReplica, core::PrestigeConfig>(
          spec, EquivalenceConfig(), EquivalenceWorkload());
  EXPECT_TRUE(sim.safety_ok) << sim.violation;
  EXPECT_GE(sim.committed, kCommittedFloor);

  const harness::RunResult threaded = harness::RunWallClockScenario<
      core::PrestigeReplica, core::PrestigeConfig, harness::ThreadedBackend>(
      spec, EquivalenceConfig(), EquivalenceWorkload());
  ASSERT_TRUE(threaded.ran) << threaded.error;
  EXPECT_TRUE(threaded.safety_ok) << threaded.violation;
  EXPECT_GE(threaded.committed, kCommittedFloor);

  const harness::RunResult socket = harness::RunWallClockScenario<
      core::PrestigeReplica, core::PrestigeConfig, harness::SocketBackend>(
      spec, EquivalenceConfig(), EquivalenceWorkload());
  ASSERT_TRUE(socket.ran) << socket.error;
  EXPECT_TRUE(socket.safety_ok) << socket.violation;
  EXPECT_GE(socket.committed, kCommittedFloor);
  // The socket run really crossed the kernel: frames flowed and the
  // hardened receive path assembled them.
  EXPECT_GT(socket.net.frames_sent, 0u);
  EXPECT_GT(socket.net.messages_assembled, 0u);

  // The spec with a simulator-only fault must be refused, not misrun.
  harness::ScenarioSpec faulty = spec;
  faulty.phases[0].crash = {0};
  const harness::RunResult refused = harness::RunWallClockScenario<
      core::PrestigeReplica, core::PrestigeConfig, harness::SocketBackend>(
      faulty, EquivalenceConfig(), EquivalenceWorkload());
  EXPECT_FALSE(refused.ran);
  EXPECT_FALSE(refused.error.empty());
}

/// Lowers this process's open-file limit below any free descriptor, so
/// every later socket() fails, and returns the limit it replaced. Only
/// ever called inside a death-test child.
rlimit ExhaustDescriptors() {
  rlimit saved;
  getrlimit(RLIMIT_NOFILE, &saved);
  rlimit low = saved;
  low.rlim_cur = 3;
  setrlimit(RLIMIT_NOFILE, &low);
  return saved;
}

/// Exit status 0 when the run-and-harvest refuses a deployment whose
/// sockets cannot bind and reports the bind error.
[[noreturn]] void RunWithoutDescriptors() {
  const rlimit saved = ExhaustDescriptors();
  const harness::RunResult result =
      harness::RunDeployment<core::PrestigeReplica, core::PrestigeConfig,
                             harness::SocketBackend>(
          EquivalenceConfig(), EquivalenceWorkload(), util::Millis(50));
  const bool refused =
      !result.ran && result.error.find("socket node") != std::string::npos;
  // Exit hooks (LeakSanitizer's check) need descriptors again.
  setrlimit(RLIMIT_NOFILE, &saved);
  std::exit(refused ? 0 : 1);
}

/// Starts a deployment whose sockets could not bind.
void StartWithoutDescriptors() {
  ExhaustDescriptors();
  harness::Cluster<core::PrestigeReplica, core::PrestigeConfig,
                   harness::SocketBackend>
      cluster(EquivalenceConfig(), EquivalenceWorkload());
  cluster.Start();
}

TEST(SocketBackendTest, FailedBindRefusesToRunWithANodeMissing) {
  EXPECT_EXIT(RunWithoutDescriptors(), ::testing::ExitedWithCode(0), "");
  EXPECT_DEATH(StartWithoutDescriptors(), "socket backend setup failed");
}

/// A replica's status report: one 10-tx block per digest prefix, and a
/// service that executed every one of them.
harness::NodeReport ReportedReplica(uint32_t id,
                                    const std::vector<std::string>& chain) {
  harness::NodeReport node;
  node.id = id;
  node.responded = true;
  for (size_t k = 0; k < chain.size(); ++k) {
    node.chain.push_back({static_cast<int64_t>(k + 1), chain[k], 10});
  }
  node.executed = 10 * static_cast<int64_t>(chain.size());
  node.state_digest = 0x1000 + chain.size();
  return node;
}

/// Four agreeing replicas (one a block behind) and a client pool.
std::vector<harness::NodeReport> AgreeingReports() {
  const std::string a = "00000000000000aa", b = "00000000000000bb",
                    c = "00000000000000cc";
  std::vector<harness::NodeReport> nodes = {
      ReportedReplica(0, {a, b, c}), ReportedReplica(1, {a, b, c}),
      ReportedReplica(2, {a, b}), ReportedReplica(3, {a, b, c})};
  harness::NodeReport pool;
  pool.id = 4;
  pool.is_replica = false;
  pool.responded = true;
  pool.completed = 30;
  nodes.push_back(pool);
  return nodes;
}

TEST(ReportedSafetyTest, SweepsSelfReportedChains) {
  struct Case {
    const char* name;
    std::function<void(std::vector<harness::NodeReport>*)> mutate;
    bool ok;
    const char* violation;  ///< Substring of the expected violation.
  };
  const std::vector<Case> cases = {
      {"all agree", [](std::vector<harness::NodeReport>*) {}, true, ""},
      {"conflicting digests at one height",
       [](std::vector<harness::NodeReport>* nodes) {
         (*nodes)[1].chain[1].digest_hex = "00000000000000ee";
       },
       false, "conflicting txBlocks at n=2"},
      {"divergent state digest at equal heights",
       [](std::vector<harness::NodeReport>* nodes) {
         (*nodes)[3].state_digest ^= 1;
       },
       false, "divergent execution at height 3"},
      {"executed + duplicates != chain txs",
       [](std::vector<harness::NodeReport>* nodes) {
         (*nodes)[2].executed = 18;
         (*nodes)[2].duplicates = 1;
       },
       false, "execution count mismatch on replica 2"},
      {"replica with no status",
       [](std::vector<harness::NodeReport>* nodes) {
         (*nodes)[2] = harness::NodeReport();
         (*nodes)[2].id = 2;
       },
       false, "replica 2 reported no status"},
      {"no replica reports",
       [](std::vector<harness::NodeReport>* nodes) {
         nodes->erase(nodes->begin(), nodes->begin() + 4);
       },
       false, "no replica reports"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<harness::NodeReport> nodes = AgreeingReports();
    c.mutate(&nodes);
    const harness::SafetyReport report = harness::SweepReportedSafety(nodes);
    const std::string& violation = report.violation;
    EXPECT_EQ(report.ok, c.ok) << violation;
    if (c.ok) {
      EXPECT_EQ(report.min_height, 2);
      EXPECT_EQ(report.max_height, 3);
    } else {
      EXPECT_NE(violation.find(c.violation), std::string::npos) << violation;
    }
  }
}

}  // namespace
}  // namespace runtime
}  // namespace prestige
