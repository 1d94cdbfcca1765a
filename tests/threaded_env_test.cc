// Tests for the real-time backend: ThreadedRuntime primitives (loopback
// transport, monotonic timers, lifecycle) and the end-to-end smoke that
// runs PrestigeBFT and HotStuff with true concurrency and checks the
// cross-replica safety invariants. This suite is the TSan CI job's main
// subject: every primitive here crosses threads.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "baselines/hotstuff/hotstuff_replica.h"
#include "core/replica.h"
#include "harness/invariants.h"
#include "harness/cluster.h"
#include "harness/runner.h"
#include "runtime/threaded_env.h"

namespace prestige {
namespace runtime {
namespace {

using util::Millis;

struct CountMsg : public NetMessage {
  int hop = 0;
  size_t WireSize() const override { return 8; }
  const char* Name() const override { return "Count"; }
};

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

/// Ping-pong node: bounces a CountMsg back to the sender, incrementing the
/// hop count, until `limit` hops. The atomic makes progress observable
/// from the test thread while the loops run.
class PongNode : public Node {
 public:
  explicit PongNode(int limit) : limit_(limit) {}

  void OnMessage(NodeId from, const MessagePtr& msg) override {
    auto* count = dynamic_cast<const CountMsg*>(msg.get());
    if (count == nullptr) return;
    hops_.fetch_add(1, std::memory_order_relaxed);
    if (count->hop >= limit_) return;
    auto next = std::make_shared<CountMsg>();
    next->hop = count->hop + 1;
    Send(from, next);
  }

  void Kick(NodeId to) {
    auto msg = std::make_shared<CountMsg>();
    msg->hop = 1;
    Send(to, msg);
  }

  int hops() const { return hops_.load(std::memory_order_relaxed); }

 private:
  int limit_;
  std::atomic<int> hops_{0};
};

/// Kicks off the ping-pong from its own OnStart.
class KickingPongNode : public PongNode {
 public:
  KickingPongNode(int limit, NodeId peer) : PongNode(limit), peer_(peer) {}
  void OnStart() override { Kick(peer_); }

 private:
  NodeId peer_;
};

TEST(ThreadedRuntimeTest, PingPongAcrossThreads) {
  ThreadedRuntime runtime(1);
  PongNode a(200);
  KickingPongNode b(200, /*peer=*/0);
  ASSERT_EQ(runtime.AddNode(&a), 0u);
  ASSERT_EQ(runtime.AddNode(&b), 1u);
  runtime.Start();
  EXPECT_TRUE(SpinUntil([&] { return a.hops() + b.hops() >= 200; }, 5000));
  runtime.Stop();
  EXPECT_GE(a.hops() + b.hops(), 200);
  EXPECT_GE(runtime.messages_delivered(), 200u);
}

class TimerNode : public Node {
 public:
  void OnStart() override {
    armed_at_ = Now();
    SetTimer(Millis(5), 5);
    SetTimer(Millis(15), 15);
    const TimerId doomed = SetTimer(Millis(10), 10);
    CancelTimer(doomed);
  }
  void OnMessage(NodeId, const MessagePtr&) override {}
  void OnTimer(uint64_t tag) override {
    fired_order_.push_back(tag);
    if (tag == 15) fired_at_ = Now();
    count_.fetch_add(1, std::memory_order_release);
  }

  int count() const { return count_.load(std::memory_order_acquire); }
  // Loop-thread state; read after Stop() only.
  std::vector<uint64_t> fired_order_;
  util::TimeMicros armed_at_ = 0;
  util::TimeMicros fired_at_ = 0;

 private:
  std::atomic<int> count_{0};
};

TEST(ThreadedRuntimeTest, TimersFireOnWallClockInOrderAndHonorCancel) {
  ThreadedRuntime runtime(1);
  TimerNode node;
  runtime.AddNode(&node);
  runtime.Start();
  EXPECT_TRUE(SpinUntil([&] { return node.count() >= 2; }, 5000));
  // Give the cancelled 10ms timer every chance to (wrongly) fire.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  runtime.Stop();
  ASSERT_EQ(node.fired_order_.size(), 2u);
  EXPECT_EQ(node.fired_order_, (std::vector<uint64_t>{5, 15}));
  // The 15ms timer cannot have fired before 15ms of wall time elapsed.
  EXPECT_GE(node.fired_at_ - node.armed_at_, Millis(15));
}

TEST(ThreadedRuntimeTest, ClockIsMonotonicAndStopIsIdempotent) {
  ThreadedRuntime runtime(3);
  TimerNode node;
  runtime.AddNode(&node);
  runtime.Start();
  const util::TimeMicros t0 = runtime.Now();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const util::TimeMicros t1 = runtime.Now();
  EXPECT_GE(t1 - t0, Millis(4));
  runtime.Stop();
  runtime.Stop();  // Second stop is a no-op.
}

/// Sender: fires `total` numbered CountMsgs (hop = 0, 1, ...) at `peer`
/// from OnStart.
class BlastNode : public Node {
 public:
  BlastNode(NodeId peer, int total) : peer_(peer), total_(total) {}
  void OnStart() override {
    for (int i = 0; i < total_; ++i) {
      auto msg = std::make_shared<CountMsg>();
      msg->hop = i;
      Send(peer_, msg);
    }
  }
  void OnMessage(NodeId, const MessagePtr&) override {}

 private:
  NodeId peer_;
  int total_;
};

/// Receiver: records each sender's hop numbers in arrival order.
class RecordingNode : public Node {
 public:
  void OnMessage(NodeId from, const MessagePtr& msg) override {
    auto* count = dynamic_cast<const CountMsg*>(msg.get());
    if (count == nullptr) return;
    if (from >= by_sender_.size()) by_sender_.resize(size_t{from} + 1);
    by_sender_[from].push_back(count->hop);
    received_.fetch_add(1, std::memory_order_release);
  }

  int received() const { return received_.load(std::memory_order_acquire); }
  // Loop-thread state; read after Stop() only.
  std::vector<std::vector<int>> by_sender_;

 private:
  std::atomic<int> received_{0};
};

// Protocol code relies on per-sender FIFO delivery; several senders racing
// into one mailbox must not reorder or drop any one sender's stream.
TEST(ThreadedRuntimeTest, DeliversEachSendersStreamInFifoOrder) {
  constexpr int kTotal = 500;
  constexpr int kSenders = 3;
  ThreadedRuntime runtime(1);
  RecordingNode receiver;
  std::vector<std::unique_ptr<BlastNode>> senders;
  ASSERT_EQ(runtime.AddNode(&receiver), 0u);
  for (int i = 1; i <= kSenders; ++i) {
    senders.push_back(std::make_unique<BlastNode>(/*peer=*/0, kTotal));
    ASSERT_EQ(runtime.AddNode(senders.back().get()), static_cast<NodeId>(i));
  }
  runtime.Start();
  EXPECT_TRUE(SpinUntil(
      [&] { return receiver.received() >= kSenders * kTotal; }, 10000));
  runtime.Stop();

  std::vector<int> expect(kTotal);
  for (int i = 0; i < kTotal; ++i) expect[i] = i;
  ASSERT_EQ(receiver.by_sender_.size(), size_t{kSenders} + 1);
  EXPECT_TRUE(receiver.by_sender_[0].empty());
  for (size_t i = 1; i <= kSenders; ++i) {
    EXPECT_EQ(receiver.by_sender_[i], expect) << "sender " << i;
  }
  EXPECT_GE(runtime.messages_delivered(), uint64_t{kSenders * kTotal});
}

// ---------------------------------------------------- protocol smoke tests

harness::WorkloadOptions SmokeWorkload() {
  harness::WorkloadOptions w;
  w.num_pools = 2;
  w.clients_per_pool = 25;
  w.payload_size = 32;
  w.client_timeout = util::Seconds(2);
  w.seed = 5;
  return w;
}

core::PrestigeConfig SmokeConfig() {
  core::PrestigeConfig config;
  config.n = 4;
  config.batch_size = 50;
  config.batch_wait = Millis(2);
  // Generous timeouts: TSan/valgrind-grade slowdowns must not trip
  // spurious view changes in a smoke test.
  config.timeout_min = util::Seconds(2);
  config.timeout_max = util::Seconds(3);
  return config;
}

TEST(ThreadedClusterTest, PrestigeBftCommitsUnderTrueConcurrency) {
  harness::Cluster<core::PrestigeReplica, core::PrestigeConfig,
                   harness::ThreadedBackend>
      cluster(SmokeConfig(), SmokeWorkload());
  cluster.Start();
  cluster.RunFor(Millis(700));
  cluster.Stop();

  EXPECT_GT(cluster.ClientCommitted(), 0);
  const harness::SafetyReport safety = harness::CheckSafety(cluster);
  EXPECT_TRUE(safety.ok) << safety.violation;
  EXPECT_GT(safety.max_height, 0);
  // Committed work reached the replicas' chains, not just the pools.
  EXPECT_GT(cluster.replica(0).metrics().committed_txs, 0);
}

TEST(ThreadedClusterTest, HotStuffRunsOnTheSameRuntime) {
  baselines::hotstuff::HotStuffConfig config;
  config.n = 4;
  config.batch_size = 50;
  config.batch_wait = Millis(2);
  config.view_timeout = util::Seconds(2);
  harness::Cluster<baselines::hotstuff::HotStuffReplica,
                   baselines::hotstuff::HotStuffConfig,
                   harness::ThreadedBackend>
      cluster(config, SmokeWorkload());
  cluster.Start();
  cluster.RunFor(Millis(700));
  cluster.Stop();

  EXPECT_GT(cluster.ClientCommitted(), 0);
  const harness::SafetyReport safety = harness::CheckSafety(cluster);
  EXPECT_TRUE(safety.ok) << safety.violation;
}

TEST(ThreadedRunnerTest, SteadyStateScenarioRunsAndFaultyScenariosRefuse) {
  const harness::ScenarioSpec* steady = harness::FindScenario("steady-state");
  ASSERT_NE(steady, nullptr);
  EXPECT_TRUE(harness::ThreadedCapable(*steady));

  // Shrink the scripted durations so the smoke stays fast.
  harness::ScenarioSpec quick = *steady;
  for (harness::Phase& p : quick.phases) p.duration = Millis(300);
  const harness::RunResult result = harness::RunWallClockScenario<
      core::PrestigeReplica, core::PrestigeConfig, harness::ThreadedBackend>(
      quick, SmokeConfig(), SmokeWorkload());
  EXPECT_TRUE(result.ran) << result.error;
  EXPECT_TRUE(result.safety_ok) << result.violation;
  EXPECT_GT(result.committed, 0);
  EXPECT_GT(result.tps, 0.0);

  // Every fault-bearing scenario must refuse the threaded backend.
  const harness::ScenarioSpec* churn = harness::FindScenario("churn");
  ASSERT_NE(churn, nullptr);
  EXPECT_FALSE(harness::ThreadedCapable(*churn));
  const harness::RunResult refused = harness::RunWallClockScenario<
      core::PrestigeReplica, core::PrestigeConfig, harness::ThreadedBackend>(
      *churn, SmokeConfig(), SmokeWorkload());
  EXPECT_FALSE(refused.ran);
  EXPECT_FALSE(refused.error.empty());
}

TEST(ThreadedRunnerTest, OpenLoopRunCountsEveryPoolsReplies) {
  // Open-loop pools match replies like closed-loop ones: every commit
  // needs f+1 matching replies, so the harvested reply count must cover
  // them (a harvest that skipped open-loop pools reported 0 here).
  harness::WorkloadOptions workload = SmokeWorkload();
  workload.open_loop = true;
  workload.arrival.kind = workload::ArrivalKind::kPoisson;
  workload.arrival.rate_per_sec = 1000.0;  // Per pool.
  const core::PrestigeConfig config = SmokeConfig();
  const harness::RunResult result = harness::RunDeployment<
      core::PrestigeReplica, core::PrestigeConfig, harness::ThreadedBackend>(
      config, workload, Millis(600));
  ASSERT_TRUE(result.ran) << result.error;
  EXPECT_TRUE(result.safety_ok) << result.violation;
  EXPECT_GT(result.committed, 0);
  EXPECT_GT(result.arrivals, 0);
  EXPECT_GE(result.replies, result.committed * (config.f() + 1));
  EXPECT_EQ(result.result_mismatches, 0);
}

}  // namespace
}  // namespace runtime
}  // namespace prestige
