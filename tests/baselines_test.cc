// Integration tests for the baseline protocols: HotStuff (passive VC),
// SBFT-like collector BFT, and Prosecutor (monotone-penalty PrestigeBFT).

#include <gtest/gtest.h>

#include <set>

#include "baselines/hotstuff/hotstuff_replica.h"
#include "baselines/prosecutor/prosecutor.h"
#include "baselines/sbft/sbft_replica.h"
#include "core/replica.h"
#include "harness/cluster.h"
#include "harness/invariants.h"

namespace prestige {
namespace baselines {
namespace {

using harness::Cluster;
using harness::WorkloadOptions;
using util::Millis;
using util::Seconds;

using HsCluster = Cluster<hotstuff::HotStuffReplica, hotstuff::HotStuffConfig>;
using SbCluster = Cluster<sbft::SbftReplica, sbft::SbftConfig>;
using PsCluster = Cluster<prosecutor::ProsecutorReplica, core::PrestigeConfig>;
using PbCluster = Cluster<core::PrestigeReplica, core::PrestigeConfig>;

WorkloadOptions SmallWorkload(uint64_t seed = 1) {
  WorkloadOptions w;
  w.num_pools = 4;
  w.clients_per_pool = 50;
  w.client_timeout = Seconds(2);
  w.seed = seed;
  return w;
}

// --------------------------------------------------------------- HotStuff

hotstuff::HotStuffConfig HsConfig(uint32_t n = 4) {
  hotstuff::HotStuffConfig config;
  config.n = n;
  config.batch_size = 100;
  config.view_timeout = Millis(800);
  return config;
}

TEST(HotStuffTest, CommitsUnderNormalOperation) {
  HsCluster cluster(HsConfig(), SmallWorkload());
  cluster.Start();
  cluster.RunFor(Seconds(3));
  EXPECT_GT(cluster.ClientCommitted(), 1000);
  // Chains agree across replicas.
  const auto& a = cluster.replica(0).store().tx_chain();
  for (uint32_t i = 1; i < 4; ++i) {
    const auto& b = cluster.replica(i).store().tx_chain();
    const size_t common = std::min(a.size(), b.size());
    for (size_t k = 0; k < common; ++k) {
      ASSERT_EQ(a[k].Digest(), b[k].Digest());
    }
  }
}

TEST(HotStuffTest, LatencyHigherThanPrestige) {
  // Three QC phases + decide: more rounds than PrestigeBFT's two phases.
  HsCluster cluster(HsConfig(), SmallWorkload(3));
  cluster.Start();
  cluster.RunFor(Seconds(3));
  EXPECT_GT(cluster.MeanLatencyMs(), 4.0);
}

TEST(HotStuffTest, PassiveRotationCannotSkipCrashedLeader) {
  // Crash the NEXT scheduled leader. When rotation reaches it, the system
  // must wait out a timeout (the paper's Figure 1 scenario).
  hotstuff::HotStuffConfig config = HsConfig();
  config.rotation_period = Millis(500);
  HsCluster cluster(config, SmallWorkload(5));
  cluster.Start();
  cluster.RunFor(Millis(200));
  cluster.SetReplicaDown(2, true);  // A future scheduled leader.
  cluster.RunFor(Seconds(6));
  // Progress continued overall (timeouts moved past the crashed server)...
  EXPECT_GT(cluster.ClientCommitted(), 500);
  // ...but views advanced beyond the crashed server's slots.
  EXPECT_GT(cluster.replica(0).view(), 3);
}

TEST(HotStuffTest, QuietLeaderCausesTimeoutRotation) {
  std::vector<types::FaultSpec> faults(4, types::FaultSpec::Honest());
  faults[1] = types::FaultSpec::Quiet();  // View-1 leader is 1 % 4 = 1.
  HsCluster cluster(HsConfig(), SmallWorkload(7), faults);
  cluster.Start();
  cluster.RunFor(Seconds(5));
  // The system rotated past the quiet leader and committed.
  EXPECT_GT(cluster.replica(0).view(), 1);
  EXPECT_GT(cluster.ClientCommitted(), 200);
}

TEST(HotStuffTest, DeterministicRuns) {
  auto run = [](uint64_t seed) {
    HsCluster cluster(HsConfig(), SmallWorkload(seed));
    cluster.Start();
    cluster.RunFor(Seconds(2));
    return cluster.ClientCommitted();
  };
  EXPECT_EQ(run(42), run(42));
}

// ------------------------------------------------------------------- SBFT

sbft::SbftConfig SbConfig() {
  sbft::SbftConfig config;
  config.n = 4;
  config.batch_size = 100;
  return config;
}

TEST(SbftTest, CommitsButSlowerThanLightweightCrypto) {
  SbCluster cluster(SbConfig(), SmallWorkload(9));
  cluster.Start();
  cluster.RunFor(Seconds(3));
  EXPECT_GT(cluster.ClientCommitted(), 100);
}

TEST(SbftTest, HeavyCryptoWeightReducesThroughput) {
  auto run = [](int weight) {
    sbft::SbftConfig config = SbConfig();
    config.crypto_weight = weight;
    SbCluster cluster(config, SmallWorkload(11));
    cluster.Start();
    cluster.RunFor(Seconds(3));
    return cluster.ClientCommitted();
  };
  EXPECT_GT(run(1), run(16));
}

TEST(SbftTest, QuietLeaderCausesTimeoutRotation) {
  std::vector<types::FaultSpec> faults(4, types::FaultSpec::Honest());
  faults[1] = types::FaultSpec::Quiet();  // View-1 leader is 1 % 4 = 1.
  SbCluster cluster(SbConfig(), SmallWorkload(7), faults);
  cluster.Start();
  cluster.RunFor(Seconds(5));
  // The system rotated past the quiet leader and committed.
  EXPECT_GT(cluster.replica(0).view(), 1);
  EXPECT_GT(cluster.ClientCommitted(), 200);
}

TEST(SbftTest, CountsEachClientComplaint) {
  WorkloadOptions workload = SmallWorkload(23);
  workload.num_pools = 1;
  SbCluster cluster(SbConfig(), workload);
  cluster.Start();
  cluster.RunFor(Millis(1));
  auto complaint = std::make_shared<types::ClientComplaint>();
  complaint->tx.pool = 0;
  complaint->tx.client_seq = 1;
  // Actor ids: replicas 0..3, then the one client pool.
  cluster.network().Send(/*from=*/4, cluster.replica_actor_id(0), complaint);
  cluster.RunFor(Millis(50));  // Far below the clients' own 2 s timeout.
  EXPECT_EQ(cluster.replica(0).metrics().complaints_received, 1);
}

TEST(SbftTest, CrashedReplicaFiresNoTimers) {
  std::vector<types::FaultSpec> faults(4, types::FaultSpec::Honest());
  faults[1] = types::FaultSpec::Crash(Seconds(1));
  SbCluster cluster(SbConfig(), SmallWorkload(7), faults);
  cluster.Start();
  // A crashed replica neither rotates views nor proposes.
  for (int second = 1; second <= 6; ++second) {
    cluster.RunFor(Seconds(1));
    EXPECT_EQ(cluster.replica(1).view(), 1) << "at " << second << " s";
  }
}

// ------------------------------------------------------------ request pool

// Followers buffer every broadcast request and never propose, so only the
// prune after each commit keeps their pools from growing with the run. The
// bound is the prune threshold plus one retry scan of every closed-loop
// client's outstanding request.
template <typename ClusterT, typename Config>
void ExpectPoolsBounded(const Config& config, const char* protocol) {
  const WorkloadOptions workload = SmallWorkload(19);
  ClusterT cluster(config, workload);
  cluster.Start();
  const size_t bound = 8 * config.batch_size + 1024 +
                       workload.num_pools * workload.clients_per_pool;
  for (int second = 1; second <= 8; ++second) {
    cluster.RunFor(Seconds(1));
    for (uint32_t i = 0; i < config.n; ++i) {
      EXPECT_LE(cluster.replica(i).pending_pool_size(), bound)
          << protocol << " replica " << i << " at " << second << " s";
    }
  }
  EXPECT_GT(cluster.ClientCommitted(), 1000) << protocol;
}

TEST(RequestPoolTest, EveryProtocolBoundsItsPool) {
  core::PrestigeConfig prestige;
  prestige.n = 4;
  prestige.batch_size = 100;
  ExpectPoolsBounded<PbCluster>(prestige, "prestigebft");
  ExpectPoolsBounded<HsCluster>(HsConfig(), "hotstuff");
  ExpectPoolsBounded<SbCluster>(SbConfig(), "sbft");
}

// ------------------------------------------------------------ commit path

// One protocol as the commit-path tests drive it: its cluster, a small
// config, one whose leaders rotate, and the digest its commit certificate
// signs for block (v, n, D).
struct PrestigeProtocol {
  using ClusterT = PbCluster;
  static core::PrestigeConfig Config() {
    core::PrestigeConfig config;
    config.n = 4;
    config.batch_size = 100;
    return config;
  }
  static core::PrestigeConfig RotatingConfig() {
    core::PrestigeConfig config = Config();
    config.rotation_period = Seconds(1);
    return config;
  }
  static crypto::Sha256Digest CertDigest(types::View v, types::SeqNum n,
                                         const crypto::Sha256Digest& d) {
    return ledger::CommitDigest(v, n, d);
  }
};

struct HotStuffProtocol {
  using ClusterT = HsCluster;
  static hotstuff::HotStuffConfig Config() { return HsConfig(); }
  static hotstuff::HotStuffConfig RotatingConfig() {
    hotstuff::HotStuffConfig config = HsConfig();
    config.rotation_period = Millis(700);
    return config;
  }
  static crypto::Sha256Digest CertDigest(types::View v, types::SeqNum n,
                                         const crypto::Sha256Digest& d) {
    return hotstuff::HsVoteDigest(hotstuff::HsPhase::kCommit, v, n, d);
  }
};

struct SbftProtocol {
  using ClusterT = SbCluster;
  static sbft::SbftConfig Config() { return SbConfig(); }
  // Under loss SBFT stalls, and each stall ends in a view-timeout rotation.
  static sbft::SbftConfig RotatingConfig() { return SbConfig(); }
  static crypto::Sha256Digest CertDigest(types::View v, types::SeqNum n,
                                         const crypto::Sha256Digest& d) {
    return sbft::SbStageDigest(1, v, n, d);
  }
};

template <typename Protocol>
class CommitPathTest : public ::testing::Test {};
using Protocols =
    ::testing::Types<PrestigeProtocol, HotStuffProtocol, SbftProtocol>;
TYPED_TEST_SUITE(CommitPathTest, Protocols);

// Counts the client replies a replica sends to it.
class ReplyProbe : public runtime::Node {
 public:
  void OnMessage(runtime::NodeId, const runtime::MessagePtr& msg) override {
    if (dynamic_cast<const types::ClientReply*>(msg.get()) != nullptr) {
      ++replies;
    }
  }
  int replies = 0;
};

// A peer's SyncResp carries the next block with a quorum certificate of
// valid signatures over a different body: the replica refuses it before
// anything runs.
TYPED_TEST(CommitPathTest, SyncedBlockWithoutItsCertificateIsRefused) {
  WorkloadOptions idle = SmallWorkload(3);
  idle.clients_per_pool = 0;  // Nothing commits but the injected block.
  typename TypeParam::ClusterT cluster(TypeParam::Config(), idle);
  ReplyProbe probe;
  const runtime::NodeId probe_id = cluster.backend().Add(&probe, nullptr);
  std::vector<runtime::NodeId> replicas;
  for (uint32_t i = 0; i < 4; ++i) {
    replicas.push_back(cluster.replica_actor_id(i));
  }
  auto& target = cluster.replica(1);
  target.SetTopology(replicas, {probe_id});  // Pool 0's replies: the probe.
  cluster.Start();
  cluster.RunFor(Millis(1));

  auto block_with = [](uint64_t fingerprint) {
    types::Transaction tx;
    tx.pool = 0;
    tx.client_seq = 1;
    tx.fingerprint = fingerprint;
    ledger::TxBlock block;
    block.v = 1;
    block.set_n(1);
    block.set_txs(types::MakeTxList({tx}));
    block.status.assign(1, 1);
    return block;
  };
  ledger::TxBlock block = block_with(7);
  const crypto::Sha256Digest other =
      TypeParam::CertDigest(1, 1, block_with(8).Digest());
  crypto::QuorumCertBuilder qc(other, 3);
  for (types::ReplicaId r : {0u, 2u, 3u}) {
    qc.Add(cluster.keys().Sign(r, other), other);
  }
  block.commit_qc = qc.Build();
  auto resp = std::make_shared<core::SyncRespMsg>();
  resp->tx_blocks.push_back(block);

  const int64_t invalid = target.metrics().invalid_messages;
  cluster.network().Send(replicas[2], replicas[1], resp);
  cluster.RunFor(Millis(50));
  EXPECT_EQ(target.store().LatestTxSeq(), 0);
  EXPECT_EQ(target.metrics().invalid_messages, invalid + 1);
  EXPECT_EQ(target.delivery().stats().executed, 0);
  EXPECT_EQ(probe.replies, 0);
}

// Under 1% loss every replica fills gaps through buffering and sync; each
// commit releases the buffer entries it settles, and chains agree.
TYPED_TEST(CommitPathTest, LossyRunReleasesBufferedBlocksAtOrBelowTheTip) {
  typename TypeParam::ClusterT cluster(TypeParam::Config(), SmallWorkload(5));
  cluster.network().fault_plane().SetDefaultLinkFault(
      sim::LinkFault::Lossy(0.01));
  cluster.Start();
  cluster.RunFor(Seconds(10));
  for (uint32_t i = 0; i < 4; ++i) {
    const auto& replica = cluster.replica(i);
    const types::SeqNum tip = replica.store().LatestTxSeq();
    size_t settled = 0;  // Buffered at or below the tip: never drained.
    for (types::SeqNum n : replica.BufferedSeqs()) settled += n <= tip;
    EXPECT_EQ(settled, 0u) << "replica " << i << " at tip " << tip;
  }
  const harness::SafetyReport safety = harness::CheckSafety(cluster);
  EXPECT_TRUE(safety.ok) << safety.violation;
  EXPECT_GT(safety.max_height, 10);
}

// Whichever route a block took into a chain (the protocol's own phases, a
// drained buffer entry, or sync) it carries the commit certificate a peer
// checks when the block is served: the QC over the protocol's digest at
// the block's own view, also when the body arrived in an earlier view.
TYPED_TEST(CommitPathTest, EveryChainedBlockCarriesItsCommitCertificate) {
  typename TypeParam::ClusterT cluster(TypeParam::RotatingConfig(),
                                       SmallWorkload(3));
  cluster.network().fault_plane().SetDefaultLinkFault(
      sim::LinkFault::Lossy(0.01));
  cluster.Start();
  cluster.RunFor(Seconds(8));
  std::set<types::View> views;
  for (uint32_t i = 0; i < 4; ++i) {
    for (const ledger::TxBlock& block : cluster.replica(i).store().tx_chain()) {
      views.insert(block.v);
      EXPECT_TRUE(crypto::VerifyQuorumCert(
                      cluster.keys(), block.commit_qc,
                      TypeParam::CertDigest(block.v, block.n(), block.Digest()),
                      3)
                      .ok())
          << "replica " << i << " block " << block.n() << " view " << block.v;
    }
  }
  EXPECT_GT(views.size(), 1u) << "the run must cross view changes";
}

// -------------------------------------------------------------- Prosecutor

TEST(ProsecutorTest, CommitsUnderNormalOperation) {
  core::PrestigeConfig config = prosecutor::MakeProsecutorConfig(4, 100);
  config.timeout_min = Millis(400);
  config.timeout_max = Millis(600);
  PsCluster cluster(config, SmallWorkload(13));
  cluster.Start();
  cluster.RunFor(Seconds(3));
  EXPECT_GT(cluster.ClientCommitted(), 500);
}

TEST(ProsecutorTest, PenaltiesAreMonotone) {
  // With compensation disabled, an elected server's penalty never falls.
  core::PrestigeConfig config = prosecutor::MakeProsecutorConfig(4, 100);
  config.timeout_min = Millis(400);
  config.timeout_max = Millis(600);
  config.rotation_period = Seconds(1);
  PsCluster cluster(config, SmallWorkload(17));
  cluster.Start();
  cluster.RunFor(Seconds(6));
  for (uint32_t r = 0; r < 4; ++r) {
    const auto& history = cluster.replica(0).store().vc_chain();
    types::Penalty last = 0;
    for (const auto& block : history) {
      EXPECT_GE(block.PenaltyOf(r), last >= 1 ? 1 : last);
      if (block.leader() == r) {
        EXPECT_GE(block.PenaltyOf(r), last);
      }
      last = block.PenaltyOf(r);
    }
  }
}

}  // namespace
}  // namespace baselines
}  // namespace prestige
