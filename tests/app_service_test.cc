// Unit tests for the replica-side application stack: ClientSessionTable
// exactly-once semantics, CommitPipeline delivery (dedup + cached-reply
// resend + checkpoint eviction), and the end-to-end session behaviour of a
// real PrestigeReplica fed duplicate ClientBatches and complaint
// resubmissions.

#include <gtest/gtest.h>

#include "app/kv_service.h"
#include "core/client_session.h"
#include "core/commit_delivery.h"
#include "core/replica.h"
#include "harness/cluster.h"
#include "harness/invariants.h"
#include "harness/scenario.h"
#include "harness/scenario_runner.h"

namespace prestige {
namespace core {
namespace {

using util::Millis;
using util::Seconds;

types::Transaction MakeTx(types::ClientPoolId pool, uint64_t seq,
                          std::vector<uint8_t> command = {}) {
  types::Transaction tx;
  tx.pool = pool;
  tx.client_seq = seq;
  tx.sent_at = static_cast<util::TimeMicros>(seq);
  tx.fingerprint = seq * 7919 + pool;
  tx.command = std::move(command);
  return tx;
}

ledger::TxBlock MakeBlock(types::SeqNum n,
                          std::vector<types::Transaction> txs) {
  ledger::TxBlock block;
  block.v = 1;
  block.set_n(n);
  block.set_txs(std::move(txs));
  block.status.assign(block.BatchSize(), 1);
  return block;
}

// ------------------------------------------------------ ClientSessionTable

TEST(ClientSessionTableTest, DetectsDuplicatesAndAdvancesFloor) {
  ClientSessionTable table;
  EXPECT_FALSE(table.IsDuplicate(0, 1));
  table.Record(0, 1, app::Response{}, 1);
  table.Record(0, 2, app::Response{}, 1);
  EXPECT_TRUE(table.IsDuplicate(0, 1));
  EXPECT_TRUE(table.IsDuplicate(0, 2));
  EXPECT_FALSE(table.IsDuplicate(0, 3));
  EXPECT_FALSE(table.IsDuplicate(1, 1));  // Sessions are per pool.
}

TEST(ClientSessionTableTest, OutOfOrderSeqsStayExact) {
  ClientSessionTable table;
  table.Record(0, 3, app::Response{}, 1);  // Hole at 1, 2.
  EXPECT_TRUE(table.IsDuplicate(0, 3));
  EXPECT_FALSE(table.IsDuplicate(0, 1));
  EXPECT_FALSE(table.IsDuplicate(0, 2));
  table.Record(0, 1, app::Response{}, 2);
  table.Record(0, 2, app::Response{}, 2);
  EXPECT_TRUE(table.IsDuplicate(0, 1));
  EXPECT_TRUE(table.IsDuplicate(0, 2));
  EXPECT_FALSE(table.IsDuplicate(0, 4));
}

TEST(ClientSessionTableTest, EvictionDropsRepliesButKeepsDedup) {
  ClientSessionTable table;
  app::Response r;
  r.result = {42};
  table.Record(0, 1, r, /*height=*/1);
  table.Record(0, 2, r, /*height=*/10);
  ASSERT_NE(table.Lookup(0, 1), nullptr);
  EXPECT_EQ(table.cached_replies(), 2u);

  table.EvictUpTo(/*height=*/5);
  EXPECT_EQ(table.Lookup(0, 1), nullptr);   // Evicted body...
  EXPECT_TRUE(table.IsDuplicate(0, 1));     // ...but still a duplicate.
  ASSERT_NE(table.Lookup(0, 2), nullptr);   // Newer reply retained.
  EXPECT_EQ(table.cached_replies(), 1u);
}

// Two pools record replies at interleaved, non-decreasing heights (pool 1
// with out-of-order seqs); after each eviction the table must agree with a
// brute-force model that keeps exactly the replies above the threshold.
TEST(ClientSessionTableTest, EvictionMatchesBruteForceModel) {
  struct Recorded {
    types::ClientPoolId pool;
    uint64_t seq;
    types::SeqNum height;
  };
  ClientSessionTable table;
  std::vector<Recorded> model;
  util::Rng rng(5);
  uint64_t next_seq[2] = {1, 2};
  types::SeqNum evicted_up_to = 0;

  auto check = [&](types::SeqNum height) {
    size_t live = 0;
    for (const Recorded& r : model) {
      EXPECT_TRUE(table.IsDuplicate(r.pool, r.seq))
          << "pool " << r.pool << " seq " << r.seq;
      const ClientSessionTable::CachedReply* cached =
          table.Lookup(r.pool, r.seq);
      if (r.height <= evicted_up_to) {
        EXPECT_EQ(cached, nullptr) << "at height " << height;
        continue;
      }
      ++live;
      ASSERT_NE(cached, nullptr) << "at height " << height;
      EXPECT_EQ(cached->height, r.height);
      ASSERT_EQ(cached->response.result.size(), 1u);
      EXPECT_EQ(cached->response.result[0], static_cast<uint8_t>(r.seq));
    }
    EXPECT_EQ(table.cached_replies(), live) << "at height " << height;
  };

  for (types::SeqNum height = 1; height <= 60; ++height) {
    const uint64_t count = rng.NextBounded(4);
    for (uint64_t i = 0; i < count; ++i) {
      const auto pool = static_cast<types::ClientPoolId>(rng.NextBounded(2));
      uint64_t seq = next_seq[pool]++;
      if (pool == 1) seq ^= 1;  // 3, 2, 5, 4, ...: swapped pairs.
      app::Response response;
      response.result = {static_cast<uint8_t>(seq)};
      table.Record(pool, seq, response, height);
      model.push_back({pool, seq, height});
    }
    if (height % 8 == 0) {
      evicted_up_to = height - 5;
      table.EvictUpTo(evicted_up_to);
      check(height);
    }
  }
  table.EvictUpTo(60);  // Everything goes; dedup stays.
  evicted_up_to = 60;
  check(60);
  EXPECT_EQ(table.cached_replies(), 0u);
}

// --------------------------------------------------------- CommitPipeline

TEST(CommitPipelineTest, ExecutesEachRequestExactlyOnce) {
  CommitPipeline pipeline(/*replica_id=*/0);
  pipeline.SetService(std::make_unique<app::KvService>(64));

  auto replies =
      pipeline.Deliver(MakeBlock(1, {MakeTx(0, 1), MakeTx(0, 2)}));
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0]->entries.size(), 2u);
  EXPECT_FALSE(replies[0]->entries[0].duplicate);
  EXPECT_EQ(pipeline.stats().executed, 2);

  // The same requests committed again in a later block (the double-commit
  // a complaint resubmission can produce): executed once, replied from
  // cache with the identical result digest.
  auto dup_replies =
      pipeline.Deliver(MakeBlock(2, {MakeTx(0, 1), MakeTx(0, 2)}));
  ASSERT_EQ(dup_replies.size(), 1u);
  EXPECT_TRUE(dup_replies[0]->entries[0].duplicate);
  EXPECT_EQ(dup_replies[0]->entries[0].result_digest,
            replies[0]->entries[0].result_digest);
  EXPECT_EQ(pipeline.stats().executed, 2);
  EXPECT_EQ(pipeline.stats().duplicates_suppressed, 2);
  EXPECT_EQ(pipeline.service().applied_count(), 2);
}

TEST(CommitPipelineTest, DuplicateExecutionWouldDivergeWithoutDedup) {
  // The scenario dedup protects against: a Put re-executed on replay
  // would return the *new* previous value, diverging from the original
  // reply. The pipeline must return the cached original instead.
  CommitPipeline pipeline(/*replica_id=*/0);
  pipeline.SetService(std::make_unique<app::KvService>(64));

  types::Transaction put = MakeTx(0, 1, app::kv::EncodePut(5, 100));
  auto first = pipeline.Deliver(MakeBlock(1, {put}));
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(app::kv::DecodeValue(first[0]->entries[0].result), 0u);

  auto replay = pipeline.Deliver(MakeBlock(2, {put}));
  // A re-execution would have produced previous=100; the cache returns 0.
  EXPECT_EQ(app::kv::DecodeValue(replay[0]->entries[0].result), 0u);
  EXPECT_EQ(replay[0]->entries[0].result_digest,
            first[0]->entries[0].result_digest);
}

TEST(CommitPipelineTest, GroupsRepliesByPool) {
  CommitPipeline pipeline(/*replica_id=*/3);
  auto replies = pipeline.Deliver(
      MakeBlock(1, {MakeTx(0, 1), MakeTx(2, 1), MakeTx(0, 2)}));
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0]->pool, 0u);
  EXPECT_EQ(replies[0]->entries.size(), 2u);
  EXPECT_EQ(replies[1]->pool, 2u);
  EXPECT_EQ(replies[1]->entries.size(), 1u);
  EXPECT_EQ(replies[0]->replica, 3u);
  EXPECT_EQ(replies[0]->n, 1);
}

TEST(CommitPipelineTest, CheckpointEvictsOldRepliesDeterministically) {
  CommitPipeline pipeline(/*replica_id=*/0, /*checkpoint_interval=*/4,
                          /*reply_retain_blocks=*/4);
  uint64_t seq = 0;
  for (types::SeqNum n = 1; n <= 12; ++n) {
    pipeline.Deliver(MakeBlock(n, {MakeTx(0, ++seq)}));
  }
  EXPECT_EQ(pipeline.stats().checkpoints, 3);
  // Replies from blocks <= 8 (last checkpoint 12, retain 4) are evicted.
  EXPECT_EQ(pipeline.sessions().Lookup(0, 1), nullptr);
  EXPECT_NE(pipeline.sessions().Lookup(0, 12), nullptr);
  // Dedup metadata survives eviction; a replay is answered as kStaleDup.
  auto replies = pipeline.Deliver(MakeBlock(13, {MakeTx(0, 1)}));
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_TRUE(replies[0]->entries[0].duplicate);
  EXPECT_EQ(replies[0]->entries[0].status,
            static_cast<uint8_t>(app::ExecStatus::kStaleDup));
  EXPECT_EQ(pipeline.stats().executed, 13 - 1);
}

TEST(CommitPipelineTest, ReplyForServesComplaintRetransmissions) {
  CommitPipeline pipeline(/*replica_id=*/1);
  pipeline.SetService(std::make_unique<app::KvService>(64));
  types::Transaction put = MakeTx(0, 7, app::kv::EncodePut(9, 900));
  auto original = pipeline.Deliver(MakeBlock(1, {put}));

  auto reply = pipeline.ReplyFor(put, /*v=*/2);
  ASSERT_EQ(reply->entries.size(), 1u);
  EXPECT_TRUE(reply->entries[0].duplicate);
  EXPECT_EQ(reply->entries[0].result_digest,
            original[0]->entries[0].result_digest);
  EXPECT_EQ(reply->n, 1);  // Height it originally executed at.
}

// -------------------------------------------- replica session integration

/// Drives a real 4-replica PrestigeBFT cluster and checks that duplicate
/// client submissions (retransmission-shaped: same (pool, client_seq))
/// execute exactly once on every replica.
TEST(ReplicaSessionIntegrationTest, FlakyLinksExecuteExactlyOnce) {
  const harness::ScenarioSpec* spec = harness::FindScenario("flaky-links");
  ASSERT_NE(spec, nullptr);

  PrestigeConfig config;
  config.n = spec->n;
  config.batch_size = 100;
  config.batch_wait = Millis(2);
  config.timeout_min = Millis(400);
  config.timeout_max = Millis(600);

  harness::WorkloadOptions workload;
  workload.num_pools = 2;
  workload.clients_per_pool = 25;
  workload.client_timeout = Millis(600);
  workload.seed = 5;

  const auto result =
      harness::RunScenarioSeed<PrestigeReplica, PrestigeConfig>(
          *spec, config, workload);
  ASSERT_TRUE(result.safety_ok) << result.violation;
  EXPECT_GT(result.committed, 0);
  // The invariant sweep (result.safety_ok) already enforced, per replica:
  //   executed + duplicates_suppressed == transactions in the chain
  // and cross-replica state-digest agreement — i.e. committed == applied
  // with zero double-executes even under lossy links that force client
  // retransmissions and complaint resubmissions.
  EXPECT_EQ(result.result_mismatches, 0);
  EXPECT_GT(result.executed, 0);
}

}  // namespace
}  // namespace core
}  // namespace prestige
