// The two-phase replication protocol (§4.3): ordering_QC then commit_QC,
// with batching and pipelining. Message complexity O(n); 7 rounds end-to-end
// including the client (Prop, Ord, replies, Cmt, replies, txBlock, Notif).

#include "core/replica.h"

namespace prestige {
namespace core {

// ----------------------------------------------------------- client input

void PrestigeReplica::OnClientBatch(runtime::NodeId from,
                                    const types::ClientBatch& batch) {
  (void)from;
  // Every replica buffers proposals (clients broadcast them, §4.3), so a
  // newly elected leader can make immediate progress on outstanding load.
  for (const types::Transaction& tx : batch.txs) {
    EnqueueTx(tx);
  }
  if (role_ == Role::kLeader) MaybePropose();
}

void PrestigeReplica::MaybePropose(bool allow_partial) {
  if (role_ != Role::kLeader || !replication_enabled_) return;
  // Slow/selective leader: wedge the proposal path while heartbeats keep
  // flowing (OnTimer kHeartbeat), so failure detectors that only watch
  // pings see a live leader that never makes progress.
  if (AdversaryWedged()) return;
  // An expired batch-wait deadline stays in force until the partial batch
  // actually goes out: when the timer fires while the pipeline is full, the
  // trigger must survive to the next free slot, not be dropped.
  if (partial_due_) allow_partial = true;
  while (pending_pool_size() > 0 &&
         instances_.size() < config_.max_inflight) {
    if (pending_pool_size() < config_.batch_size && !allow_partial) break;
    // Transactions inside re-proposed bodies are skipped.
    std::vector<types::Transaction> batch =
        TakeBatch(config_.batch_size, &inflight_tx_keys_);
    if (batch.empty()) break;
    Propose(types::MakeTxList(std::move(batch)));
    allow_partial = false;  // At most one partial block per trigger.
    partial_due_ = false;   // The overdue front of the pool was proposed.
  }
  if (pending_pool_size() == 0) partial_due_ = false;
  // A partial batch left behind gets proposed when the batch timer fires.
  if (pending_pool_size() > 0 && batch_timer_ == 0) {
    batch_timer_ = SetTimer(config_.batch_wait, Tag(kBatchTimer));
  }
}

void PrestigeReplica::Propose(types::TxList batch) {
  Instance instance;
  instance.last_broadcast_at = Now();
  instance.block.v = view_;
  instance.block.set_n(next_seq_++);
  instance.block.set_prev_hash(last_proposed_digest_);
  instance.block.set_txs(std::move(batch));
  for (const types::Transaction& tx : instance.block.txs()) {
    inflight_tx_keys_.insert(IdOf(tx));
  }
  instance.block.status.assign(instance.block.BatchSize(), 1);

  const crypto::Sha256Digest digest = instance.block.Digest();
  last_proposed_digest_ = digest;
  const crypto::Sha256Digest ord_digest =
      ledger::OrderingDigest(view_, instance.block.n(), digest);
  instance.ord_builder =
      crypto::QuorumCertBuilder(ord_digest, config_.quorum());
  instance.ord_builder.Add(signer_.Sign(ord_digest), ord_digest);

  auto ord = std::make_shared<OrdMsg>();
  ord->v = view_;
  ord->n = instance.block.n();
  ord->prev_hash = instance.block.prev_hash();
  ord->txs = instance.block.body();  // Shared, not copied.
  ord->sig = SignMaybeCorrupt(ord_digest);

  instances_.emplace(instance.block.n(), std::move(instance));
  BroadcastOrd(ord);
}

void PrestigeReplica::BroadcastOrd(const std::shared_ptr<OrdMsg>& ord) {
  SendProposal(ord, [&](uint32_t variant) {
    ledger::TxBlock block;
    block.v = ord->v;
    block.set_n(ord->n);
    block.set_prev_hash(ord->prev_hash);
    block.set_txs(ord->txs);
    // The variant is a copy: the genuine body stays as the leader's
    // instance and the honest followers hold it.
    std::vector<types::Transaction> txs = block.release_txs();
    PerturbFingerprints(txs, variant);
    block.set_txs(std::move(txs));
    block.status.assign(block.BatchSize(), 1);
    auto forged = std::make_shared<OrdMsg>();
    forged->v = ord->v;
    forged->n = ord->n;
    forged->prev_hash = ord->prev_hash;
    forged->txs = block.body();
    forged->sig = SignMaybeCorrupt(
        ledger::OrderingDigest(ord->v, ord->n, block.Digest()));
    return forged;
  });
}

// ------------------------------------------------------ follower: phase 1

void PrestigeReplica::OnOrd(runtime::NodeId from, const OrdMsg& ord) {
  if (ord.v < view_) return;  // Never respond to lower views (§4.3).
  if (ord.v > view_) {
    // We are behind on view changes; catch up from the sender.
    RequestSync(from, SyncReqMsg::Kind::kVcBlocks, store_.CurrentView(),
                ord.v);
    return;
  }
  if (role_ == Role::kLeader || from != ActorOf(leader_)) return;
  if (ord.n <= store_.LatestTxSeq()) return;  // Stale retransmission.

  ledger::TxBlock block;
  block.v = ord.v;
  block.set_n(ord.n);
  block.set_prev_hash(ord.prev_hash);
  block.set_txs(ord.txs);  // Adopt the proposal's body (null = empty).
  block.status.assign(block.BatchSize(), 1);
  const crypto::Sha256Digest digest = block.Digest();
  const crypto::Sha256Digest ord_digest =
      ledger::OrderingDigest(ord.v, ord.n, digest);
  if (!keys_->Verify(ord.sig, ord_digest) || ord.sig.signer != leader_) {
    ++metrics_.invalid_messages;
    return;
  }

  // Equivocation guard: never sign two different blocks at the same (v, n).
  const auto key = std::make_pair(ord.v, ord.n);
  auto signed_it = signed_ord_.find(key);
  if (signed_it != signed_ord_.end()) {
    if (signed_it->second != digest) {
      ++metrics_.invalid_messages;  // Leader equivocated.
      return;
    }
  } else {
    signed_ord_.emplace(key, digest);
  }

  // Cross-view ordering binding: once we ordering-sign a body at n, no
  // other body may occupy n (Theorem 3). Bind now; conflicting proposals
  // from later views are refused until n commits.
  if (BoundElsewhere(ord.n, digest)) {
    return;  // Keep the bound body; refuse the conflicting proposal.
  }
  BindBody(ord.n, digest);

  PendingBlock pending;
  pending.block = std::move(block);
  pending_blocks_[ord.n] = std::move(pending);

  // Vote withholding: starve the leader of this ordering reply (the
  // progress timer still resets — the attacker saw a live leader and has
  // no interest in campaigning itself).
  if (AdversaryWithholds(ReplicaIndexOf(from))) {
    ResetProgress();
    return;
  }

  auto reply = std::make_shared<OrdReplyMsg>();
  reply->v = ord.v;
  reply->n = ord.n;
  reply->partial = SignMaybeCorrupt(ord_digest);
  GuardedSend(from, reply);
  ResetProgress();
}

// -------------------------------------------------------- leader: phase 1

void PrestigeReplica::OnOrdReply(runtime::NodeId from, const OrdReplyMsg& reply) {
  (void)from;
  if (role_ != Role::kLeader || reply.v != view_) return;
  auto it = instances_.find(reply.n);
  if (it == instances_.end() || it->second.ordered) return;
  Instance& instance = it->second;

  const crypto::Sha256Digest ord_digest = instance.ord_builder.digest();
  if (!keys_->Verify(reply.partial, ord_digest)) {
    ++metrics_.invalid_messages;  // F3 equivocators land here.
    return;
  }
  instance.ord_builder.Add(reply.partial, ord_digest);
  if (!instance.ord_builder.Complete()) return;

  // ordering_QC formed: enter phase 2.
  instance.ordered = true;
  instance.last_broadcast_at = Now();  // The Cmt broadcast below.
  instance.block.ordering_qc = instance.ord_builder.Build();
  const crypto::Sha256Digest& block_digest = instance.block.Digest();
  const crypto::Sha256Digest cmt_digest =
      ledger::CommitDigest(view_, instance.block.n(), block_digest);
  instance.cmt_builder =
      crypto::QuorumCertBuilder(cmt_digest, config_.quorum());
  instance.cmt_builder.Add(signer_.Sign(cmt_digest), cmt_digest);

  auto cmt = std::make_shared<CmtMsg>();
  cmt->v = view_;
  cmt->n = instance.block.n();
  cmt->block_digest = block_digest;
  cmt->ordering_qc = instance.block.ordering_qc;
  cmt->sig = SignMaybeCorrupt(cmt_digest);
  GuardedSend(PeerActors(), cmt);
}

// ------------------------------------------------------ follower: phase 2

void PrestigeReplica::OnCmt(runtime::NodeId from, const CmtMsg& cmt) {
  if (cmt.v != view_ || role_ == Role::kLeader || from != ActorOf(leader_)) {
    return;
  }
  auto it = pending_blocks_.find(cmt.n);
  if (it == pending_blocks_.end()) return;  // No Ord seen for this n.
  PendingBlock& pending = it->second;
  const crypto::Sha256Digest digest = pending.block.Digest();
  if (digest != cmt.block_digest) {
    ++metrics_.invalid_messages;
    return;
  }
  if (!crypto::VerifyQuorumCert(*keys_, cmt.ordering_qc,
                                ledger::OrderingDigest(cmt.v, cmt.n, digest),
                                config_.quorum())
           .ok()) {
    ++metrics_.invalid_messages;
    return;
  }
  const crypto::Sha256Digest cmt_digest =
      ledger::CommitDigest(cmt.v, cmt.n, digest);
  if (!keys_->Verify(cmt.sig, cmt_digest) || cmt.sig.signer != leader_) {
    ++metrics_.invalid_messages;
    return;
  }
  // Binding check (Theorem 3): never commit-sign a block conflicting with
  // the body we ordering-signed at this sequence number.
  if (BoundElsewhere(cmt.n, digest)) {
    ++metrics_.invalid_messages;
    return;
  }

  pending.block.ordering_qc = cmt.ordering_qc;
  pending.commit_signed = true;

  if (AdversaryWithholds(ReplicaIndexOf(from))) {  // Starve the commit QC.
    ResetProgress();
    return;
  }

  auto reply = std::make_shared<CmtReplyMsg>();
  reply->v = cmt.v;
  reply->n = cmt.n;
  reply->partial = SignMaybeCorrupt(cmt_digest);
  GuardedSend(from, reply);
  ResetProgress();
}

// -------------------------------------------------------- leader: phase 2

void PrestigeReplica::OnCmtReply(runtime::NodeId from, const CmtReplyMsg& reply) {
  (void)from;
  if (role_ != Role::kLeader || reply.v != view_) return;
  auto it = instances_.find(reply.n);
  if (it == instances_.end() || !it->second.ordered || it->second.done) return;
  Instance& instance = it->second;

  const crypto::Sha256Digest cmt_digest = instance.cmt_builder.digest();
  if (!keys_->Verify(reply.partial, cmt_digest)) {
    ++metrics_.invalid_messages;
    return;
  }
  instance.cmt_builder.Add(reply.partial, cmt_digest);
  if (!instance.cmt_builder.Complete()) return;

  // commit_QC formed: the block is decided.
  instance.done = true;
  instance.block.commit_qc = instance.cmt_builder.Build();
  ready_blocks_.emplace(reply.n, std::move(instance.block));
  instances_.erase(it);

  // Commit strictly in sequence order (QCs may complete out of order).
  while (true) {
    auto ready = ready_blocks_.find(store_.LatestTxSeq() + 1);
    if (ready == ready_blocks_.end()) break;
    ledger::TxBlock block = std::move(ready->second);
    ready_blocks_.erase(ready);

    auto msg = std::make_shared<TxBlockMsg>();
    msg->block = block;  // Shares the committed body.
    GuardedSend(PeerActors(), msg);
    CommitBlock(std::move(block));
  }
  MaybePropose();
}

// ----------------------------------------------------------------- commit

void PrestigeReplica::OnTxBlockMsg(runtime::NodeId from, const TxBlockMsg& msg) {
  const types::SeqNum latest = store_.LatestTxSeq();
  const types::SeqNum n = msg.block.n();
  if (n <= latest) return;  // Duplicate.
  if (n > latest + 1) {
    // Gap: buffer and fetch the missing prefix.
    BufferCommit(msg.block);
    RequestSync(from, SyncReqMsg::Kind::kTxBlocks, latest, n - 1);
    return;
  }
  auto pending = pending_blocks_.find(n);
  if (pending != pending_blocks_.end()) {
    // The commit QC certifies CommitDigest(v, n, D). When D is the digest
    // of the body we validated at Ord (memoized there), that body is the
    // certified one: commit it instead of hashing and copying the
    // message's copy of it.
    const ledger::TxBlock& body = pending->second.block;
    const crypto::Sha256Digest cmt_digest =
        ledger::CommitDigest(msg.block.v, n, body.Digest());
    if (cmt_digest == msg.block.commit_qc.digest) {
      // Both checks run before the body moves, so a refused adoption
      // leaves the pending entry intact (the tip check is the store's own
      // append rule).
      const ledger::TxBlock* tip = store_.LatestTxBlock();
      if (!crypto::VerifyQuorumCert(*keys_, msg.block.commit_qc, cmt_digest,
                                    config_.quorum())
               .ok() ||
          (tip != nullptr && body.prev_hash() != tip->Digest())) {
        ++metrics_.invalid_messages;
        return;
      }
      ledger::TxBlock block = std::move(pending->second.block);
      pending_blocks_.erase(pending);
      block.v = msg.block.v;
      block.status = msg.block.status;
      block.ordering_qc = msg.block.ordering_qc;
      block.commit_qc = msg.block.commit_qc;
      CommitCertified(std::move(block));
      return;
    }
  }
  CommitBlock(ledger::TxBlock(msg.block));
}

void PrestigeReplica::CommitBlock(ledger::TxBlock&& block) {
  if (!VerifyCommitCert(block).ok()) {
    ++metrics_.invalid_messages;
    return;
  }
  CommitCertified(std::move(block));
}

void PrestigeReplica::CommitCertified(ledger::TxBlock&& block) {
  const types::SeqNum first = block.n();
  if (!CommitNext(std::move(block))) return;
  // This route's own work, for the block and each buffered successor its
  // commit released: one progress reset per block, as when each committed
  // on its own (every reset draws a fresh timeout).
  for (types::SeqNum n = first; n <= store_.LatestTxSeq(); ++n) {
    const ledger::TxBlock& committed = *store_.TxBlockAt(n);
    signed_ord_.erase(std::make_pair(committed.v, n));
    for (const types::Transaction& tx : committed.txs()) {
      inflight_tx_keys_.erase(IdOf(tx));
    }
    ResetProgress();
  }
}

void PrestigeReplica::AfterCommit(const ledger::TxBlock& committed) {
  if (!complaints_.empty()) {
    for (const types::Transaction& tx : committed.txs()) {
      auto it = complaints_.find(IdOf(tx));
      if (it != complaints_.end()) ResolveComplaint(it);
    }
  }
  pending_blocks_.erase(pending_blocks_.begin(),
                        pending_blocks_.upper_bound(committed.n()));
}

// -------------------------------------------------------------- liveness

void PrestigeReplica::OnHeartbeat(runtime::NodeId from,
                                  const HeartbeatMsg& hb) {
  if (hb.v < view_) return;
  if (hb.v > view_) {
    RequestSync(from, SyncReqMsg::Kind::kVcBlocks, store_.CurrentView(),
                hb.v);
    return;
  }
  if (from != ActorOf(leader_)) return;
  if (!keys_->Verify(hb.sig, HeartbeatDigest(hb.v, hb.latest_n)) ||
      hb.sig.signer != leader_) {
    ++metrics_.invalid_messages;
    return;
  }
  if (hb.latest_n > store_.LatestTxSeq()) {
    RequestSync(from, SyncReqMsg::Kind::kTxBlocks, store_.LatestTxSeq(),
                hb.latest_n);
  }
  ResetProgress();
}

void PrestigeReplica::ResetProgress() {
  progress_stale_ = false;
  if (role_ == Role::kLeader) return;
  ArmProgressTimer();
}

void PrestigeReplica::ArmProgressTimer() {
  if (progress_timer_ != 0) CancelTimer(progress_timer_);
  progress_timer_ = SetTimer(SampleTimeout(), Tag(kProgressTimeout));
}

util::DurationMicros PrestigeReplica::SampleTimeout() {
  if (config_.timeout_max <= config_.timeout_min) return config_.timeout_min;
  return config_.timeout_min +
         timeout_rng_.NextInRange(
             0, config_.timeout_max - config_.timeout_min - 1);
}

void PrestigeReplica::StartLeading() {
  replication_enabled_ = true;
  next_seq_ = store_.LatestTxSeq() + 1;
  last_proposed_digest_ = store_.LatestTxDigest();
  instances_.clear();
  ready_blocks_.clear();
  if (progress_timer_ != 0) {
    CancelTimer(progress_timer_);
    progress_timer_ = 0;
  }
  if (heartbeat_timer_ != 0) CancelTimer(heartbeat_timer_);
  heartbeat_timer_ = SetTimer(config_.timeout_min / 3, Tag(kHeartbeat));

  // Re-propose the in-flight suffix inherited from the previous view: the
  // bodies keep their identity (TxBlock::Digest excludes the view), so
  // followers commit-bound by the old view converge on the same blocks.
  std::vector<ledger::TxBlock> repropose = std::move(repropose_);
  repropose_.clear();
  for (ledger::TxBlock& body : repropose) {
    if (body.n() < next_seq_) continue;  // Committed while we were elected.
    if (body.n() != next_seq_ || instances_.size() >= config_.max_inflight) {
      // Gap or full pipeline: recycle the transactions into the pool.
      for (const types::Transaction& tx : body.txs()) EnqueueTx(tx);
      continue;
    }
    Propose(body.body());
  }

  MaybePropose(/*allow_partial=*/true);
}

void PrestigeReplica::StopReplicationActivity() {
  replication_enabled_ = false;
  // Return uncommitted in-flight transactions to the request pool so a
  // future leadership term can re-propose them.
  auto recycle = [this](const ledger::TxBlock& block) {
    for (const types::Transaction& tx : block.txs()) {
      inflight_tx_keys_.erase(IdOf(tx));
      EnqueueTx(tx);
    }
  };
  for (const auto& entry : instances_) recycle(entry.second.block);
  for (const auto& entry : ready_blocks_) recycle(entry.second);
  instances_.clear();
  ready_blocks_.clear();
  partial_due_ = false;
  if (batch_timer_ != 0) {
    CancelTimer(batch_timer_);
    batch_timer_ = 0;
  }
  if (heartbeat_timer_ != 0) {
    CancelTimer(heartbeat_timer_);
    heartbeat_timer_ = 0;
  }
}

void PrestigeReplica::RetransmitStalledInstances() {
  // On lossy links an instance wedges when an Ord/Cmt copy or enough
  // replies are lost: the leader would otherwise wait forever (followers
  // keep seeing heartbeats, so only the slow complaint path would recover
  // via a full view change). Re-broadcast the current phase of any
  // instance older than one heartbeat interval; followers treat the
  // repeats idempotently and re-send their replies.
  if (AdversaryWedged()) return;  // Wedged leaders never retransmit.
  const util::DurationMicros stall_age = config_.timeout_min / 3;
  for (auto& [n, instance] : instances_) {
    if (instance.done || Now() - instance.last_broadcast_at < stall_age) {
      continue;
    }
    instance.last_broadcast_at = Now();
    const crypto::Sha256Digest& digest = instance.block.Digest();
    if (!instance.ordered) {
      auto ord = std::make_shared<OrdMsg>();
      ord->v = instance.block.v;
      ord->n = n;
      ord->prev_hash = instance.block.prev_hash();
      ord->txs = instance.block.body();
      ord->sig = SignMaybeCorrupt(
          ledger::OrderingDigest(instance.block.v, n, digest));
      BroadcastOrd(ord);  // Equivocators keep their per-group stories.
    } else {
      auto cmt = std::make_shared<CmtMsg>();
      cmt->v = instance.block.v;
      cmt->n = n;
      cmt->block_digest = digest;
      cmt->ordering_qc = instance.block.ordering_qc;
      cmt->sig = SignMaybeCorrupt(
          ledger::CommitDigest(instance.block.v, n, digest));
      GuardedSend(PeerActors(), cmt);
    }
  }
}

}  // namespace core
}  // namespace prestige
