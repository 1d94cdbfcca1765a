// CommitPipeline: the one commit-delivery path shared by PrestigeBFT and
// both baselines.
//
// Every protocol funnels each committed TxBlock through Deliver(), which
//   1. executes every *fresh* transaction exactly once via app::Service
//      (ClientSessionTable suppresses retransmitted / complaint-resubmitted
//      duplicates, and their entries copy the status, result and digest of
//      the entry sent when the request executed — in an earlier block or
//      earlier in this one),
//   2. returns the per-pool types::ClientReply messages — status + opaque
//      result + result digest per request — for the replica to send, and
//      retains those same messages as the reply cache (the response bytes
//      are moved into the entry, never copied),
//   3. fires the service's block hook (and checkpoint hook + reply-cache
//      eviction every checkpoint_interval blocks: the blocks retained at
//      heights <= checkpoint - reply_retain_blocks go whole, oldest first;
//      see ClientSessionTable).
//
// Because the pipeline is driven only by the committed chain, its state
// (session table, execution counts, service state digest) is a
// deterministic function of the chain — the property the cross-replica
// execution invariant (harness/invariants.h) checks.

#ifndef PRESTIGE_CORE_COMMIT_DELIVERY_H_
#define PRESTIGE_CORE_COMMIT_DELIVERY_H_

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "app/service.h"
#include "core/client_session.h"
#include "ledger/tx_block.h"
#include "types/client_messages.h"

namespace prestige {
namespace core {

class CommitPipeline {
 public:
  struct Stats {
    int64_t executed = 0;               ///< Exactly-once service executions.
    int64_t duplicates_suppressed = 0;  ///< Dedup hits answered from cache.
    int64_t blocks_delivered = 0;
    int64_t checkpoints = 0;
  };

  explicit CommitPipeline(types::ReplicaId replica_id,
                          types::SeqNum checkpoint_interval = 32,
                          types::SeqNum reply_retain_blocks = 64)
      : replica_id_(replica_id),
        checkpoint_interval_(checkpoint_interval < 1 ? 1
                                                     : checkpoint_interval),
        reply_retain_blocks_(reply_retain_blocks),
        service_(std::make_unique<app::NullService>()) {}

  void SetService(std::unique_ptr<app::Service> service) {
    service_ = std::move(service);
  }

  app::Service& service() { return *service_; }
  const app::Service& service() const { return *service_; }
  const ClientSessionTable& sessions() const { return sessions_; }
  const Stats& stats() const { return stats_; }

  /// Executes `block` through the service with exactly-once dedup and
  /// returns one ClientReply per client pool present in the block. The
  /// replies are also retained as the reply cache, so they are never
  /// mutated after this returns.
  std::vector<std::shared_ptr<const types::ClientReply>> Deliver(
      const ledger::TxBlock& block) {
    // One reply per pool, its entries reserved to the pool's share of the
    // block (one allocation each).
    std::map<types::ClientPoolId, size_t> counts;
    for (const types::Transaction& tx : block.txs()) ++counts[tx.pool];
    std::map<types::ClientPoolId, std::shared_ptr<types::ClientReply>>
        by_pool;
    for (const auto& [pool, count] : counts) {
      auto reply = std::make_shared<types::ClientReply>();
      reply->replica = replica_id_;
      reply->v = block.v;
      reply->n = block.n();
      reply->pool = pool;
      reply->entries.reserve(count);
      by_pool.emplace(pool, std::move(reply));
    }
    for (const types::Transaction& tx : block.txs()) {
      types::ClientReply& reply = *by_pool[tx.pool];
      reply.entries.push_back(ExecuteOrReplay(tx, reply));
    }

    std::vector<std::shared_ptr<const types::ClientReply>> replies;
    replies.reserve(by_pool.size());
    for (auto& [pool, reply] : by_pool) {
      (void)pool;
      replies.push_back(std::move(reply));
    }
    sessions_.Retain(block.n(), replies);
    service_->OnBlockCommitted(block.n(), block.v);
    ++stats_.blocks_delivered;
    if (block.n() % checkpoint_interval_ == 0) {
      service_->OnCheckpoint(block.n());
      sessions_.EvictUpTo(block.n() - reply_retain_blocks_);
      ++stats_.checkpoints;
    }
    return replies;
  }

  /// Reply for a single already-committed request (complaint path: the
  /// client missed the original replies). Served from the cache; evicted
  /// results come back as kStaleDup — deterministically on every replica,
  /// so the client's digest quorum still forms.
  std::shared_ptr<types::ClientReply> ReplyFor(const types::Transaction& tx,
                                               types::View v) {
    auto reply = std::make_shared<types::ClientReply>();
    reply->replica = replica_id_;
    reply->v = v;
    reply->pool = tx.pool;
    const ClientSessionTable::CachedReply cached =
        sessions_.Lookup(tx.pool, tx.client_seq);
    if (cached.entry != nullptr) reply->n = cached.height;
    reply->entries.push_back(ReplayEntry(tx.client_seq, cached.entry));
    return reply;
  }

  /// True when (pool, seq) already executed here (the dedup question).
  bool Executed(types::ClientPoolId pool, uint64_t seq) const {
    return sessions_.IsDuplicate(pool, seq);
  }

 private:
  /// The one construction of a duplicate's ReplyEntry — from the fresh
  /// entry that was sent for the request, or the deterministic kStaleDup
  /// shape once evicted. Both the block-delivery and complaint paths must
  /// produce byte-identical entries (clients quorum-match on the digest),
  /// so they share this.
  static types::ReplyEntry ReplayEntry(uint64_t client_seq,
                                       const types::ReplyEntry* cached) {
    types::ReplyEntry entry;
    entry.client_seq = client_seq;
    entry.duplicate = true;
    if (cached != nullptr) {
      entry.status = cached->status;
      entry.result = cached->result;
      entry.result_digest = cached->result_digest;
    } else {
      entry.status = static_cast<uint8_t>(app::ExecStatus::kStaleDup);
      entry.result_digest = app::ResultDigest(app::ExecStatus::kStaleDup, {});
    }
    return entry;
  }

  /// Executes `tx`, or replays it when it already executed: from the
  /// retained blocks, or from `building`, the reply of tx's pool this
  /// block is filling (a duplicate inside one block).
  types::ReplyEntry ExecuteOrReplay(const types::Transaction& tx,
                                    const types::ClientReply& building) {
    if (sessions_.IsDuplicate(tx.pool, tx.client_seq)) {
      ++stats_.duplicates_suppressed;
      const types::ReplyEntry* cached =
          sessions_.Lookup(tx.pool, tx.client_seq).entry;
      if (cached == nullptr) {
        cached = ClientSessionTable::FindFresh(building, tx.client_seq);
      }
      return ReplayEntry(tx.client_seq, cached);
    }
    types::ReplyEntry entry;
    entry.client_seq = tx.client_seq;
    app::Response response = service_->Execute(tx);
    ++stats_.executed;
    entry.status = static_cast<uint8_t>(response.status);
    entry.result_digest = app::ResultDigest(response.status, response.result);
    entry.result = std::move(response.result);
    sessions_.Record(tx.pool, tx.client_seq);
    return entry;
  }

  types::ReplicaId replica_id_;
  types::SeqNum checkpoint_interval_;
  types::SeqNum reply_retain_blocks_;
  std::unique_ptr<app::Service> service_;
  ClientSessionTable sessions_;
  Stats stats_;
};

}  // namespace core
}  // namespace prestige

#endif  // PRESTIGE_CORE_COMMIT_DELIVERY_H_
