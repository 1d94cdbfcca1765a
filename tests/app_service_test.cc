// Unit tests for the replica-side application stack: ClientSessionTable
// exactly-once semantics, CommitPipeline delivery (dedup + cached-reply
// resend + checkpoint eviction), and the end-to-end session behaviour of a
// real PrestigeReplica fed duplicate ClientBatches and complaint
// resubmissions.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

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
                          util::SmallBytes command = {}) {
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

/// One executed request of a recorded block.
struct ExecutedTx {
  types::ClientPoolId pool;
  uint64_t seq;
  std::vector<uint8_t> result;
};

/// Records one block the way CommitPipeline does: marks each request
/// executed and retains the block's per-pool replies as the cache.
void RecordBlock(ClientSessionTable& table, types::SeqNum height,
                 const std::vector<ExecutedTx>& txs) {
  std::map<types::ClientPoolId, std::shared_ptr<types::ClientReply>>
      by_pool;
  for (const ExecutedTx& tx : txs) {
    std::shared_ptr<types::ClientReply>& reply = by_pool[tx.pool];
    if (reply == nullptr) {
      reply = std::make_shared<types::ClientReply>();
      reply->n = height;
      reply->pool = tx.pool;
    }
    types::ReplyEntry entry;
    entry.client_seq = tx.seq;
    entry.result = tx.result;
    entry.result_digest = app::ResultDigest(app::ExecStatus::kOk, tx.result);
    reply->entries.push_back(std::move(entry));
    table.Record(tx.pool, tx.seq);
  }
  std::vector<std::shared_ptr<const types::ClientReply>> replies;
  for (auto& [pool, reply] : by_pool) replies.push_back(std::move(reply));
  table.Retain(height, std::move(replies));
}

TEST(ClientSessionTableTest, DetectsDuplicatesAndAdvancesFloor) {
  ClientSessionTable table;
  EXPECT_FALSE(table.IsDuplicate(0, 1));
  table.Record(0, 1);
  table.Record(0, 2);
  EXPECT_TRUE(table.IsDuplicate(0, 1));
  EXPECT_TRUE(table.IsDuplicate(0, 2));
  EXPECT_FALSE(table.IsDuplicate(0, 3));
  EXPECT_FALSE(table.IsDuplicate(1, 1));  // Sessions are per pool.
}

TEST(ClientSessionTableTest, OutOfOrderSeqsStayExact) {
  ClientSessionTable table;
  table.Record(0, 3);  // Hole at 1, 2.
  EXPECT_TRUE(table.IsDuplicate(0, 3));
  EXPECT_FALSE(table.IsDuplicate(0, 1));
  EXPECT_FALSE(table.IsDuplicate(0, 2));
  table.Record(0, 1);
  table.Record(0, 2);
  EXPECT_TRUE(table.IsDuplicate(0, 1));
  EXPECT_TRUE(table.IsDuplicate(0, 2));
  EXPECT_FALSE(table.IsDuplicate(0, 4));
}

TEST(ClientSessionTableTest, EvictionDropsRepliesButKeepsDedup) {
  ClientSessionTable table;
  RecordBlock(table, /*height=*/1, {{0, 1, {42}}});
  RecordBlock(table, /*height=*/10, {{0, 2, {42}}});
  ASSERT_NE(table.Lookup(0, 1).entry, nullptr);
  EXPECT_EQ(table.cached_replies(), 2u);

  table.EvictUpTo(/*height=*/5);
  EXPECT_EQ(table.Lookup(0, 1).entry, nullptr);  // Evicted body...
  EXPECT_TRUE(table.IsDuplicate(0, 1));          // ...but still a duplicate.
  ASSERT_NE(table.Lookup(0, 2).entry, nullptr);  // Newer reply retained.
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
      const ClientSessionTable::CachedReply cached =
          table.Lookup(r.pool, r.seq);
      if (r.height <= evicted_up_to) {
        EXPECT_EQ(cached.entry, nullptr) << "at height " << height;
        continue;
      }
      ++live;
      ASSERT_NE(cached.entry, nullptr) << "at height " << height;
      EXPECT_EQ(cached.height, r.height);
      ASSERT_EQ(cached.entry->result.size(), 1u);
      EXPECT_EQ(cached.entry->result[0], static_cast<uint8_t>(r.seq));
    }
    EXPECT_EQ(table.cached_replies(), live) << "at height " << height;
  };

  for (types::SeqNum height = 1; height <= 60; ++height) {
    const uint64_t count = rng.NextBounded(4);
    std::vector<ExecutedTx> block;
    for (uint64_t i = 0; i < count; ++i) {
      const auto pool = static_cast<types::ClientPoolId>(rng.NextBounded(2));
      uint64_t seq = next_seq[pool]++;
      if (pool == 1) seq ^= 1;  // 3, 2, 5, 4, ...: swapped pairs.
      block.push_back({pool, seq, {static_cast<uint8_t>(seq)}});
      model.push_back({pool, seq, height});
    }
    RecordBlock(table, height, block);
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
  EXPECT_EQ(pipeline.sessions().Lookup(0, 1).entry, nullptr);
  EXPECT_NE(pipeline.sessions().Lookup(0, 12).entry, nullptr);
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

TEST(CommitPipelineTest, DuplicateInOneBlockReplaysTheFirstEntry) {
  CommitPipeline pipeline(/*replica_id=*/0);
  pipeline.SetService(std::make_unique<app::KvService>(64));
  pipeline.Deliver(MakeBlock(1, {MakeTx(0, 1, app::kv::EncodePut(5, 50))}));
  types::Transaction put = MakeTx(0, 2, app::kv::EncodePut(5, 100));
  auto replies = pipeline.Deliver(MakeBlock(2, {put, MakeTx(0, 3), put}));
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_EQ(replies[0]->entries.size(), 3u);
  const types::ReplyEntry& first = replies[0]->entries[0];
  const types::ReplyEntry& dup = replies[0]->entries[2];
  EXPECT_FALSE(first.duplicate);
  EXPECT_TRUE(dup.duplicate);
  EXPECT_EQ(dup.client_seq, 2u);
  EXPECT_EQ(dup.status, first.status);
  EXPECT_EQ(dup.result, first.result);
  EXPECT_EQ(app::kv::DecodeValue(dup.result), 50u);  // Not re-executed.
  EXPECT_EQ(dup.result_digest, first.result_digest);
  EXPECT_EQ(pipeline.stats().executed, 3);
  EXPECT_EQ(pipeline.stats().duplicates_suppressed, 1);
}

TEST(CommitPipelineTest, DuplicateReplaysFromCacheUntilItsBlockIsEvicted) {
  CommitPipeline pipeline(/*replica_id=*/0, /*checkpoint_interval=*/4,
                          /*reply_retain_blocks=*/4);
  pipeline.SetService(std::make_unique<app::KvService>(64));
  types::Transaction put = MakeTx(0, 1, app::kv::EncodePut(7, 70));
  auto original = pipeline.Deliver(MakeBlock(1, {put}));
  const types::ReplyEntry& sent = original[0]->entries[0];
  uint64_t seq = 1;
  for (types::SeqNum n = 2; n <= 7; ++n) {
    // The checkpoint at 4 evicts nothing (heights <= 0); block 1 stays.
    std::vector<types::Transaction> txs = {MakeTx(0, ++seq)};
    if (n == 6) txs.push_back(put);
    auto replies = pipeline.Deliver(MakeBlock(n, std::move(txs)));
    if (n != 6) continue;
    ASSERT_EQ(replies[0]->entries.size(), 2u);
    const types::ReplyEntry& dup = replies[0]->entries[1];
    EXPECT_TRUE(dup.duplicate);
    EXPECT_EQ(dup.status, sent.status);
    EXPECT_EQ(dup.result, sent.result);
    EXPECT_EQ(dup.result_digest, sent.result_digest);
  }
  // The checkpoint at 8 evicts blocks <= 4: the duplicate reads kStaleDup.
  pipeline.Deliver(MakeBlock(8, {MakeTx(0, ++seq)}));
  EXPECT_EQ(pipeline.sessions().Lookup(0, 1).entry, nullptr);
  auto stale = pipeline.Deliver(MakeBlock(9, {put}));
  ASSERT_EQ(stale[0]->entries.size(), 1u);
  EXPECT_TRUE(stale[0]->entries[0].duplicate);
  EXPECT_EQ(stale[0]->entries[0].status,
            static_cast<uint8_t>(app::ExecStatus::kStaleDup));
  EXPECT_TRUE(stale[0]->entries[0].result.empty());
  EXPECT_EQ(stale[0]->entries[0].result_digest,
            app::ResultDigest(app::ExecStatus::kStaleDup, {}));
  auto complaint = pipeline.ReplyFor(put, /*v=*/1);
  EXPECT_EQ(complaint->entries[0].result_digest,
            stale[0]->entries[0].result_digest);
  EXPECT_EQ(complaint->n, 0);  // Executing height no longer known.
  EXPECT_EQ(pipeline.stats().executed, 8);
}

TEST(CommitPipelineTest, ReplyForReportsTheExecutingHeight) {
  CommitPipeline pipeline(/*replica_id=*/0);
  types::Transaction tx = MakeTx(0, 2);
  pipeline.Deliver(MakeBlock(3, {tx}));
  // A duplicate at 5, between the late seq 1 and seq 3: block 5's fresh
  // range covers seq 2, and only its fresh entry counts.
  pipeline.Deliver(MakeBlock(5, {MakeTx(0, 1), tx, MakeTx(0, 3)}));
  auto reply = pipeline.ReplyFor(tx, /*v=*/1);
  EXPECT_EQ(reply->n, 3);
  EXPECT_EQ(pipeline.sessions().Lookup(0, 2).height, 3);
  EXPECT_EQ(pipeline.sessions().Lookup(0, 1).height, 5);
}

TEST(CommitPipelineTest, SeqZeroIsNeverCached) {
  CommitPipeline pipeline(/*replica_id=*/0);
  pipeline.SetService(std::make_unique<app::KvService>(64));
  pipeline.Deliver(MakeBlock(1, {MakeTx(0, 0, app::kv::EncodePut(1, 2))}));
  EXPECT_EQ(pipeline.stats().executed, 1);
  EXPECT_EQ(pipeline.sessions().Lookup(0, 0).entry, nullptr);
  EXPECT_EQ(pipeline.sessions().cached_replies(), 0u);
  pipeline.Deliver(MakeBlock(2, {MakeTx(0, 0, app::kv::EncodePut(1, 3))}));
  EXPECT_EQ(pipeline.stats().executed, 2);  // Executed every time.
  EXPECT_EQ(pipeline.sessions().Lookup(0, 0).entry, nullptr);
}

TEST(CommitPipelineTest, CachedRepliesCountsFreshEntriesOnly) {
  CommitPipeline pipeline(/*replica_id=*/0);
  pipeline.Deliver(MakeBlock(1, {MakeTx(0, 1), MakeTx(1, 1)}));
  EXPECT_EQ(pipeline.sessions().cached_replies(), 2u);
  // Two duplicates, one seq-0 request and two fresh ones.
  pipeline.Deliver(MakeBlock(2, {MakeTx(0, 1), MakeTx(0, 2), MakeTx(0, 0),
                                 MakeTx(1, 1), MakeTx(1, 2)}));
  EXPECT_EQ(pipeline.sessions().cached_replies(), 4u);
  // A block of duplicates only adds nothing.
  pipeline.Deliver(MakeBlock(3, {MakeTx(0, 2), MakeTx(1, 1)}));
  EXPECT_EQ(pipeline.sessions().cached_replies(), 4u);
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
