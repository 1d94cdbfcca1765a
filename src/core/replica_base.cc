#include "core/replica_base.h"

#include <algorithm>

namespace prestige {
namespace core {

ReplicaBase::ReplicaBase(types::ReplicaId id, const crypto::KeyStore* keys,
                         types::FaultSpec fault, size_t batch_size)
    : id_(id),
      keys_(keys),
      signer_(keys, id),
      fault_(fault),
      delivery_(id),
      pool_limit_(8 * batch_size + 1024) {}

void ReplicaBase::SetTopology(std::vector<runtime::NodeId> replicas,
                              std::vector<runtime::NodeId> clients) {
  replicas_ = std::move(replicas);
  clients_ = std::move(clients);
}

void ReplicaBase::SetService(std::unique_ptr<app::Service> service) {
  delivery_.SetService(std::move(service));
}

std::vector<runtime::NodeId> ReplicaBase::PeerActors() const {
  std::vector<runtime::NodeId> peers;
  peers.reserve(replicas_.size() - 1);
  for (size_t i = 0; i < replicas_.size(); ++i) {
    if (static_cast<types::ReplicaId>(i) != id_) peers.push_back(replicas_[i]);
  }
  return peers;
}

types::ReplicaId ReplicaBase::ReplicaIndexOf(runtime::NodeId node) const {
  for (size_t i = 0; i < replicas_.size(); ++i) {
    if (replicas_[i] == node) return static_cast<types::ReplicaId>(i);
  }
  return id_;
}

// --------------------------------------------------------------- faults

bool ReplicaBase::CrashedNow() const {
  return fault_.type == types::FaultType::kCrash && fault_.start_at > 0 &&
         Now() >= fault_.start_at;
}

bool ReplicaBase::QuietActive() const {
  if (fault_.type == types::FaultType::kQuiet) return Now() >= fault_.start_at;
  // F4+F2: the attacker completes the view change honestly (so it is
  // installed as leader), then stonewalls replication.
  return fault_.type == types::FaultType::kRepeatedVc &&
         fault_.as_leader == types::LeaderMisbehaviour::kQuiet &&
         Now() >= fault_.start_at && ActingAsLeader();
}

bool ReplicaBase::EquivocateActive() const {
  if (fault_.type == types::FaultType::kEquivocate) {
    return Now() >= fault_.start_at;
  }
  return fault_.type == types::FaultType::kRepeatedVc &&
         fault_.as_leader == types::LeaderMisbehaviour::kEquivocate &&
         Now() >= fault_.start_at && ActingAsLeader();
}

void ReplicaBase::GuardedSend(runtime::NodeId to, runtime::MessagePtr msg) {
  if (QuietActive()) return;
  Send(to, std::move(msg));
}

void ReplicaBase::GuardedSend(const std::vector<runtime::NodeId>& to,
                              runtime::MessagePtr msg) {
  if (QuietActive()) return;
  Send(to, std::move(msg));
}

crypto::Signature ReplicaBase::SignMaybeCorrupt(
    const crypto::Sha256Digest& digest) {
  crypto::Signature sig = signer_.Sign(digest);
  if (EquivocateActive()) {
    sig.mac[0] ^= 0xff;  // F3: erroneous reply; receivers reject it.
  }
  return sig;
}

// --------------------------------------------------------- request pool

void ReplicaBase::EnqueueTx(const types::Transaction& tx) {
  if (RefuseSeqZero(tx)) return;
  if (Committed(tx)) return;                           // Already decided.
  if (!pending_keys_.insert(IdOf(tx)).second) return;  // Already buffered.
  pending_txs_.push_back(tx);
}

std::vector<types::Transaction> ReplicaBase::TakeBatch(
    size_t max, const RequestSet* in_flight) {
  std::vector<types::Transaction> batch;
  batch.reserve(std::min(pending_txs_.size(), max));
  while (!pending_txs_.empty() && batch.size() < max) {
    types::Transaction tx = std::move(pending_txs_.front());
    pending_txs_.pop_front();
    const RequestId id = IdOf(tx);
    pending_keys_.erase(id);
    if (Committed(tx)) continue;
    if (in_flight != nullptr && in_flight->count(id) > 0) continue;
    batch.push_back(std::move(tx));
  }
  return batch;
}

bool ReplicaBase::ReplyIfCommitted(const types::Transaction& tx,
                                   types::View v) {
  if (!Committed(tx)) return false;
  if (tx.pool < clients_.size()) {
    GuardedSend(clients_[tx.pool], delivery_.ReplyFor(tx, v));
  }
  return true;
}

// ----------------------------------------------------- committed blocks

void ReplicaBase::CommitInOrder(ledger::TxBlock&& block) {
  const types::SeqNum tip = store_.LatestTxSeq();
  if (block.n() <= tip) return;
  if (block.n() > tip + 1) {
    BufferCommit(std::move(block));
    return;
  }
  CommitNext(std::move(block));
}

bool ReplicaBase::CommitNext(ledger::TxBlock&& block) {
  if (!AppendAndDeliver(std::move(block))) return false;
  while (!buffered_commits_.empty() &&
         buffered_commits_.begin()->first == store_.LatestTxSeq() + 1) {
    ledger::TxBlock next = std::move(buffered_commits_.begin()->second);
    buffered_commits_.erase(buffered_commits_.begin());
    if (!VerifyCommitCert(next).ok()) {
      ++metrics_.invalid_messages;
      break;
    }
    if (!AppendAndDeliver(std::move(next))) break;
  }
  return true;
}

bool ReplicaBase::AppendAndDeliver(ledger::TxBlock&& block) {
  if (!store_.AppendTxBlock(std::move(block)).ok()) {
    ++metrics_.invalid_messages;
    return false;
  }
  const ledger::TxBlock& committed = *store_.LatestTxBlock();
  DeliverCommitted(committed);
  const types::SeqNum tip = committed.n();
  bound_bodies_.erase(bound_bodies_.begin(), bound_bodies_.upper_bound(tip));
  buffered_commits_.erase(buffered_commits_.begin(),
                          buffered_commits_.upper_bound(tip));
  AfterCommit(committed);
  return true;
}

void ReplicaBase::ServeSync(runtime::NodeId from, const SyncReqMsg& req) {
  auto resp = std::make_shared<SyncRespMsg>();
  if (req.kind == SyncReqMsg::Kind::kTxBlocks) {
    resp->tx_blocks = store_.TxBlocksAfter(req.after, req.up_to);
  } else {
    resp->vc_blocks = store_.VcBlocksAfter(req.after, req.up_to);
  }
  if (resp->tx_blocks.empty() && resp->vc_blocks.empty()) return;
  GuardedSend(from, resp);
}

bool ReplicaBase::ApplySyncedTxBlocks(
    const std::vector<ledger::TxBlock>& blocks) {
  for (const ledger::TxBlock& block : blocks) {
    if (block.n() <= store_.LatestTxSeq()) continue;
    if (!VerifyCommitCert(block).ok()) {
      ++metrics_.invalid_messages;
      return false;
    }
    if (!CommitNext(ledger::TxBlock(block))) return false;
  }
  return true;
}

// ------------------------------------------------------- executed block

void ReplicaBase::DeliverCommitted(const ledger::TxBlock& block) {
  std::vector<std::shared_ptr<const types::ClientReply>> replies;
  if (adversary_ != nullptr && adversary_->TamperExecution(id_, Now())) {
    // Forged replies: execute a tampered copy of the committed block, so
    // this replica's application state genuinely diverges and the reply
    // entries it reports carry forged result digests. The chain itself
    // stays canonical.
    ledger::TxBlock forged = block;
    std::vector<types::Transaction> txs = forged.release_txs();
    for (types::Transaction& tx : txs) {
      tx.fingerprint ^= 0xf00dfacef00dfaceULL;
      for (uint8_t& b : tx.command) b ^= 0x5a;
    }
    forged.set_txs(std::move(txs));
    replies = delivery_.Deliver(forged);
  } else {
    replies = delivery_.Deliver(block);
  }
  for (const auto& reply : replies) {
    if (reply->pool < clients_.size()) {
      GuardedSend(clients_[reply->pool], reply);
    }
  }
  const auto batch = static_cast<int64_t>(block.BatchSize());
  metrics_.committed_txs += batch;
  ++metrics_.committed_blocks;
  metrics_.commit_timeline.Add(Now(), batch);
  // Amortized prune: committed entries linger in the request pool until
  // proposal time (followers never propose); rebuild the pool once it
  // outgrows the bound.
  if (pending_txs_.size() > pool_limit_) {
    std::deque<types::Transaction> kept;
    for (types::Transaction& tx : pending_txs_) {
      if (Committed(tx)) {
        pending_keys_.erase(IdOf(tx));
      } else {
        kept.push_back(std::move(tx));
      }
    }
    pending_txs_.swap(kept);
  }
}

}  // namespace core
}  // namespace prestige
