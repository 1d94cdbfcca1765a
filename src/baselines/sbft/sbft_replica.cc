#include "baselines/sbft/sbft_replica.h"

#include <cassert>

namespace prestige {
namespace baselines {
namespace sbft {

crypto::Sha256Digest SbStageDigest(int stage, types::View v, types::SeqNum n,
                                   const crypto::Sha256Digest& block_digest) {
  types::HashingEncoder enc("sbft");
  enc.PutU8(static_cast<uint8_t>(stage)).PutI64(v).PutI64(n).PutDigest(
      block_digest);
  return enc.Digest();
}

SbftReplica::SbftReplica(SbftConfig config, types::ReplicaId id,
                         const crypto::KeyStore* keys,
                         types::FaultSpec fault)
    : ReplicaBase(id, keys, fault, config.batch_size), config_(config) {}

void SbftReplica::OnStart() {
  view_ = 1;
  if (IsLeader()) {
    ++metrics_.views_led;
    metrics_.last_led_at = Now();
  }
  view_timer_ = SetTimer(config_.view_timeout, Tag(kViewTimer));
}

void SbftReplica::OnTimer(uint64_t tag) {
  if (CrashedNow()) return;
  switch (TagKind(tag)) {
    case kViewTimer:
      // Passive rotation on timeout (fast path only — dual paths and view
      // change details of full SBFT are out of scope for the peak-
      // performance comparison this baseline serves). Pending block bodies
      // survive the rotation: the share binding refuses conflicting bodies
      // at their sequences, so the new leader must re-propose them.
      ++view_;
      proposal_active_ = false;
      view_timer_ = SetTimer(config_.view_timeout, Tag(kViewTimer));
      if (IsLeader()) {
        ++metrics_.views_led;
        metrics_.last_led_at = Now();
        MaybePropose(true);
      }
      break;
    case kBatchTimer:
      batch_timer_ = 0;
      MaybePropose(true);
      break;
  }
}

void SbftReplica::MaybePropose(bool allow_partial) {
  if (!IsLeader() || proposal_active_) return;
  // Slow/selective leader: hold the view without proposing; only the view
  // timeout recovers (passive schedule — same exposure as HotStuff).
  if (AdversaryWedged()) return;
  const types::SeqNum next = store_.LatestTxSeq() + 1;
  // Inherited in-flight body first: peers share-bound to a body at the
  // next sequence refuse anything else there, so a new leader re-proposes
  // the body it saw instead of composing a fresh batch. If we are bound at
  // `next` but no longer hold the matching body, stand down *before*
  // consuming the request pool — a leader that still has the body will
  // re-propose it after a rotation.
  auto inherited = pending_blocks_.find(next);
  auto bound = share_bound_.find(next);
  if (bound != share_bound_.end() &&
      (inherited == pending_blocks_.end() ||
       inherited->second.Digest() != bound->second)) {
    return;
  }
  std::vector<types::Transaction> batch;
  if (inherited != pending_blocks_.end()) {
    batch = inherited->second.txs();
  } else {
    if (pending_pool_size() == 0) return;
    if (pending_pool_size() < config_.batch_size && !allow_partial) {
      if (batch_timer_ == 0) {
        batch_timer_ = SetTimer(config_.batch_wait, Tag(kBatchTimer));
      }
      return;
    }
    batch = TakeBatch(config_.batch_size);
  }
  if (batch.empty()) return;

  proposal_active_ = true;
  current_block_ = ledger::TxBlock{};
  current_block_.v = view_;
  current_block_.set_n(next);
  current_block_.set_prev_hash(store_.LatestTxDigest());
  current_block_.set_txs(std::move(batch));
  current_block_.status.assign(current_block_.BatchSize(), 1);

  const crypto::Sha256Digest digest = current_block_.Digest();
  // The leader's own share binds it like any follower's. (A bound conflict
  // is impossible here: the stand-down above covered it, and an inherited
  // body reproduces the bound digest — TxBlock digests exclude the view.)
  share_bound_.emplace(current_block_.n(), digest);
  const crypto::Sha256Digest stage_digest =
      SbStageDigest(0, view_, current_block_.n(), digest);
  collect_stage_ = 0;
  share_builder_ = crypto::QuorumCertBuilder(stage_digest, config_.quorum());
  share_builder_.Add(signer_.Sign(stage_digest), stage_digest);

  auto pp = std::make_shared<SbPrePrepareMsg>();
  pp->v = view_;
  pp->block = current_block_;
  pp->crypto_weight = config_.crypto_weight;
  pp->sig = SignMaybeCorrupt(stage_digest);
  SendProposal(pp, [this](uint32_t variant) {
    auto forged = std::make_shared<SbPrePrepareMsg>();
    forged->v = view_;
    forged->block = current_block_;
    forged->crypto_weight = config_.crypto_weight;
    std::vector<types::Transaction> txs = forged->block.release_txs();
    PerturbFingerprints(txs, variant);
    forged->block.set_txs(std::move(txs));
    forged->sig = SignMaybeCorrupt(
        SbStageDigest(0, view_, forged->block.n(), forged->block.Digest()));
    return forged;
  });
}

void SbftReplica::ExecuteBlock(ledger::TxBlock block) {
  if (block.n() <= store_.LatestTxSeq()) return;
  if (block.n() > store_.LatestTxSeq() + 1) {
    buffered_commits_[block.n()] = std::move(block);
    return;
  }
  DeliverCommitted(block);
  util::Status st = store_.AppendTxBlock(std::move(block));
  assert(st.ok());
  (void)st;
  // Executed sequences release their bindings and pending bodies.
  share_bound_.erase(share_bound_.begin(),
                     share_bound_.upper_bound(store_.LatestTxSeq()));
  pending_blocks_.erase(pending_blocks_.begin(),
                        pending_blocks_.upper_bound(store_.LatestTxSeq()));
  // Progress: reset the view timer.
  if (view_timer_ != 0) CancelTimer(view_timer_);
  view_timer_ = SetTimer(config_.view_timeout, Tag(kViewTimer));
  auto it = buffered_commits_.find(store_.LatestTxSeq() + 1);
  if (it != buffered_commits_.end()) {
    ledger::TxBlock next = std::move(it->second);
    buffered_commits_.erase(it);
    ExecuteBlock(std::move(next));
  }
}

void SbftReplica::OnPrePrepare(runtime::NodeId from,
                               const SbPrePrepareMsg& msg) {
  if (msg.v != view_ || IsLeader()) return;
  if (msg.block.n() <= store_.LatestTxSeq()) return;  // Stale.
  const crypto::Sha256Digest digest = msg.block.Digest();
  // Share binding: never back a second body at a sequence we already
  // shared for (commit quorums need 2f+1 shares, so this keeps at most
  // one certifiable body per sequence across view rotations).
  auto bound = share_bound_.find(msg.block.n());
  if (bound != share_bound_.end() && bound->second != digest) return;
  const crypto::Sha256Digest stage_digest =
      SbStageDigest(0, msg.v, msg.block.n(), digest);
  if (!keys_->Verify(msg.sig, stage_digest)) {
    ++metrics_.invalid_messages;
    return;
  }
  share_bound_.emplace(msg.block.n(), digest);
  pending_blocks_[msg.block.n()] = msg.block;
  if (AdversaryWithholds(ReplicaIndexOf(from))) return;  // Starve shares.
  auto share = std::make_shared<SbShareMsg>();
  share->stage = SbShareMsg::Stage::kCommit;
  share->v = msg.v;
  share->n = msg.block.n();
  share->partial = SignMaybeCorrupt(stage_digest);
  GuardedSend(from, share);
}

void SbftReplica::OnProof(runtime::NodeId from, const SbProofMsg& msg) {
  if (msg.v != view_ || IsLeader()) return;
  if (!crypto::VerifyQuorumCert(*keys_, msg.proof,
                                SbStageDigest(static_cast<int>(msg.stage),
                                              msg.v, msg.n, msg.block_digest),
                                config_.quorum())
           .ok()) {
    ++metrics_.invalid_messages;
    return;
  }
  auto it = pending_blocks_.find(msg.n);
  if (it == pending_blocks_.end()) return;
  if (it->second.Digest() != msg.block_digest) {
    // Proof for a different body than the one we hold; never certify or
    // execute a body under another body's proof.
    ++metrics_.invalid_messages;
    return;
  }
  if (msg.stage == SbProofMsg::Stage::kCommit) {
    // Reply with an execution share.
    it->second.commit_qc = msg.proof;
    if (AdversaryWithholds(ReplicaIndexOf(from))) return;  // Starve exec.
    const crypto::Sha256Digest exec_digest =
        SbStageDigest(1, msg.v, msg.n, msg.block_digest);
    auto share = std::make_shared<SbShareMsg>();
    share->stage = SbShareMsg::Stage::kExecute;
    share->v = msg.v;
    share->n = msg.n;
    share->partial = SignMaybeCorrupt(exec_digest);
    GuardedSend(from, share);
  } else {
    ledger::TxBlock block = std::move(it->second);
    pending_blocks_.erase(it);
    ExecuteBlock(std::move(block));
  }
}

void SbftReplica::OnMessage(runtime::NodeId from, const runtime::MessagePtr& msg) {
  if (CrashedNow()) {
    return;
  }
  if (auto* m = dynamic_cast<const types::ClientBatch*>(msg.get())) {
    for (const types::Transaction& tx : m->txs) EnqueueTx(tx);
    MaybePropose(false);
    return;
  }
  if (auto* m =
          dynamic_cast<const types::ClientComplaint*>(msg.get())) {
    ++metrics_.complaints_received;
    if (ReplyIfCommitted(m->tx, view_)) return;
    EnqueueTx(m->tx);
    MaybePropose(true);
    return;
  }
  if (auto* m = dynamic_cast<const SbPrePrepareMsg*>(msg.get())) {
    OnPrePrepare(from, *m);
    return;
  }
  if (auto* m = dynamic_cast<const SbShareMsg*>(msg.get())) {
    (void)from;
    if (!IsLeader() || !proposal_active_ || m->v != view_ ||
        m->n != current_block_.n() ||
        static_cast<int>(m->stage) != collect_stage_) {
      return;
    }
    const crypto::Sha256Digest expected = share_builder_.digest();
    if (!keys_->Verify(m->partial, expected)) {
      ++metrics_.invalid_messages;
      return;
    }
    share_builder_.Add(m->partial, expected);
    if (!share_builder_.Complete()) return;

    const crypto::QuorumCert proof = share_builder_.Build();
    const crypto::Sha256Digest digest = current_block_.Digest();
    auto out = std::make_shared<SbProofMsg>();
    out->v = view_;
    out->n = current_block_.n();
    out->block_digest = digest;
    out->proof = proof;

    if (collect_stage_ == 0) {
      // Full-commit-proof; start collecting execution shares.
      current_block_.commit_qc = proof;
      out->stage = SbProofMsg::Stage::kCommit;
      out->sig =
          SignMaybeCorrupt(SbStageDigest(0, view_, current_block_.n(), digest));
      collect_stage_ = 1;
      const crypto::Sha256Digest exec_digest =
          SbStageDigest(1, view_, current_block_.n(), digest);
      share_builder_ =
          crypto::QuorumCertBuilder(exec_digest, config_.quorum());
      share_builder_.Add(signer_.Sign(exec_digest), exec_digest);
      GuardedSend(PeerActors(), out);
    } else {
      // Execute-proof: decision complete.
      out->stage = SbProofMsg::Stage::kExecute;
      out->sig =
          SignMaybeCorrupt(SbStageDigest(1, view_, current_block_.n(), digest));
      GuardedSend(PeerActors(), out);
      proposal_active_ = false;
      ExecuteBlock(current_block_);
      MaybePropose(true);
    }
    return;
  }
  if (auto* m = dynamic_cast<const SbProofMsg*>(msg.get())) {
    OnProof(from, *m);
    return;
  }
}

}  // namespace sbft
}  // namespace baselines
}  // namespace prestige
