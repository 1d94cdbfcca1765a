// Integration tests for the baseline protocols: HotStuff (passive VC),
// SBFT-like collector BFT, and Prosecutor (monotone-penalty PrestigeBFT).

#include <gtest/gtest.h>

#include "baselines/hotstuff/hotstuff_replica.h"
#include "baselines/prosecutor/prosecutor.h"
#include "baselines/sbft/sbft_replica.h"
#include "core/replica.h"
#include "harness/cluster.h"

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
