#include "baselines/hotstuff/hotstuff_replica.h"

#include <algorithm>
#include <cassert>

namespace prestige {
namespace baselines {
namespace hotstuff {

const char* HsPhaseName(HsPhase phase) {
  switch (phase) {
    case HsPhase::kPrepare:
      return "prepare";
    case HsPhase::kPreCommit:
      return "pre-commit";
    case HsPhase::kCommit:
      return "commit";
    case HsPhase::kDecide:
      return "decide";
  }
  return "?";
}

crypto::Sha256Digest HsVoteDigest(HsPhase phase, types::View v,
                                  types::SeqNum n,
                                  const crypto::Sha256Digest& block_digest) {
  types::HashingEncoder enc("hs-vote");
  enc.PutU8(static_cast<uint8_t>(phase)).PutI64(v).PutI64(n).PutDigest(
      block_digest);
  return enc.Digest();
}

HotStuffReplica::HotStuffReplica(HotStuffConfig config, types::ReplicaId id,
                                 const crypto::KeyStore* keys,
                                 types::FaultSpec fault)
    : ReplicaBase(id, keys, fault, config.batch_size), config_(config) {}

void HotStuffReplica::OnStart() {
  view_ = 1;
  if (IsLeader()) {
    ++metrics_.views_led;
    metrics_.last_led_at = Now();
  }
  ArmViewTimer();
  if (config_.rotation_period > 0) {
    rotation_timer_ = SetTimer(
        config_.rotation_period + rng()->NextInRange(0, util::Millis(100)),
        Tag(kRotationTimer));
  }
  if (fault_.type == types::FaultType::kEquivocate) {
    SetTimer(util::Millis(50), Tag(kNoiseTimer));
  }
}

void HotStuffReplica::ArmViewTimer() {
  if (view_timer_ != 0) CancelTimer(view_timer_);
  util::DurationMicros timeout = config_.view_timeout;
  for (int i = 0; i < consecutive_failures_ && i < 8; ++i) timeout *= 2;
  timeout = std::min(timeout, config_.max_view_timeout);
  view_timer_ = SetTimer(timeout, Tag(kViewTimer));
}

void HotStuffReplica::OnTimer(uint64_t tag) {
  if (CrashedNow()) return;
  switch (TagKind(tag)) {
    case kViewTimer:
      view_timer_ = 0;
      // The passive pacemaker: leader failed; blindly rotate to the next
      // scheduled server — it may itself be unavailable (the weakness the
      // paper's Figure 1 illustrates).
      ++consecutive_failures_;
      ++metrics_.view_changes_started;
      AdvanceView(/*failed=*/true);
      break;
    case kRotationTimer:
      rotation_timer_ = 0;
      if (config_.rotation_period > 0) {
        AdvanceView(/*failed=*/false);
        rotation_timer_ =
            SetTimer(config_.rotation_period +
                         rng()->NextInRange(0, util::Millis(100)),
                     Tag(kRotationTimer));
      }
      break;
    case kBatchTimer:
      batch_timer_ = 0;
      MaybePropose(/*allow_partial=*/true);
      break;
    case kNoiseTimer:
      if (EquivocateActive()) {
        auto noise = std::make_shared<core::NoiseMsg>();
        noise->bytes = 2048;
        Send(PeerActors(), noise);
      }
      if (fault_.type == types::FaultType::kEquivocate) {
        SetTimer(util::Millis(50), Tag(kNoiseTimer));
      }
      break;
  }
}

void HotStuffReplica::AdvanceView(bool failed) {
  EnterView(view_ + 1, failed);
  auto nv = std::make_shared<HsNewViewMsg>();
  nv->v = view_;
  nv->latest_n = store_.LatestTxSeq();
  nv->sig = SignMaybeCorrupt(ledger::ConfDigest(view_));
  GuardedSend(ActorOf(current_leader()), nv);
}

void HotStuffReplica::EnterView(types::View v, bool failed) {
  view_ = v;
  if (!failed) consecutive_failures_ = 0;
  proposal_active_ = false;
  // Pending bodies survive the rotation: the vote binding refuses
  // conflicting bodies at their sequences, so the next leader re-proposes
  // the inherited body instead of a fresh batch.
  ArmViewTimer();
  if (IsLeader()) {
    ++metrics_.elections_won;  // "Elected" by schedule.
    ++metrics_.views_led;
    metrics_.last_led_at = Now();
    MaybePropose(/*allow_partial=*/true);
  }
}

void HotStuffReplica::MaybePropose(bool allow_partial) {
  if (!IsLeader() || proposal_active_) return;
  // Slow/selective leader: hold the view without proposing. The passive
  // pacemaker only recovers via view timeouts — the churn PrestigeBFT's
  // complaint-driven inspection avoids charging to honest replicas.
  if (AdversaryWedged()) return;
  const types::SeqNum next = store_.LatestTxSeq() + 1;
  // Inherited in-flight body first: peers vote-bound to a body at the next
  // sequence refuse anything else there, so a new leader re-proposes the
  // body it saw instead of composing a fresh batch. If we are bound at
  // `next` but no longer hold the matching body, stand down *before*
  // consuming the request pool — until the schedule reaches a leader that
  // still has it.
  auto inherited = pending_blocks_.find(next);
  auto bound = vote_bound_.find(next);
  if (bound != vote_bound_.end() &&
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
  // The leader's own prepare vote binds it like any follower's. (A bound
  // conflict is impossible here: the stand-down above covered it, and an
  // inherited body reproduces the bound digest — TxBlock digests exclude
  // the view.)
  vote_bound_.emplace(current_block_.n(), digest);
  const crypto::Sha256Digest vote_digest =
      HsVoteDigest(HsPhase::kPrepare, view_, current_block_.n(), digest);
  collect_phase_ = HsPhase::kPrepare;
  vote_builder_ = crypto::QuorumCertBuilder(vote_digest, config_.quorum());
  vote_builder_.Add(signer_.Sign(vote_digest), vote_digest);

  auto proposal = std::make_shared<HsProposalMsg>();
  proposal->v = view_;
  proposal->block = current_block_;
  proposal->sig = SignMaybeCorrupt(vote_digest);
  SendProposal(proposal, [this](uint32_t variant) {
    auto forged = std::make_shared<HsProposalMsg>();
    forged->v = view_;
    forged->block = current_block_;
    std::vector<types::Transaction> txs = forged->block.release_txs();
    PerturbFingerprints(txs, variant);
    forged->block.set_txs(std::move(txs));
    forged->sig = SignMaybeCorrupt(HsVoteDigest(
        HsPhase::kPrepare, view_, forged->block.n(), forged->block.Digest()));
    return forged;
  });
}

void HotStuffReplica::OnProposal(runtime::NodeId from,
                                 const HsProposalMsg& msg) {
  if (msg.v < view_) return;
  if (msg.v > view_) {
    // The cluster moved on; adopt the higher view (passive schedule makes
    // the leader identity implicit in the view number).
    EnterView(msg.v, /*failed=*/false);
  }
  if (IsLeader() || from != ActorOf(current_leader())) return;
  if (msg.block.n() <= store_.LatestTxSeq()) return;  // Stale proposal.
  if (msg.block.n() > store_.LatestTxSeq() + 1) {
    // Links are not FIFO: this proposal overtook the previous decide.
    // Fetch the gap; ordering is enforced when blocks are decided.
    auto req = std::make_shared<core::SyncReqMsg>();
    req->kind = core::SyncReqMsg::Kind::kTxBlocks;
    req->after = store_.LatestTxSeq();
    req->up_to = msg.block.n() - 1;
    GuardedSend(from, req);
  }
  const crypto::Sha256Digest digest = msg.block.Digest();
  // Vote binding: never back a second body at a sequence we already voted
  // for (commit quorums need 2f+1 votes, so this keeps at most one
  // certifiable body per sequence across view rotations).
  auto bound = vote_bound_.find(msg.block.n());
  if (bound != vote_bound_.end() && bound->second != digest) return;
  const crypto::Sha256Digest vote_digest =
      HsVoteDigest(HsPhase::kPrepare, msg.v, msg.block.n(), digest);
  if (!keys_->Verify(msg.sig, vote_digest) ||
      msg.sig.signer != current_leader()) {
    ++metrics_.invalid_messages;
    return;
  }
  vote_bound_.emplace(msg.block.n(), digest);
  pending_blocks_[msg.block.n()] = msg.block;

  if (AdversaryWithholds(ReplicaIndexOf(from))) {  // Starve the prepare QC.
    ArmViewTimer();
    consecutive_failures_ = 0;
    return;
  }

  auto vote = std::make_shared<HsVoteMsg>();
  vote->v = msg.v;
  vote->phase = HsPhase::kPrepare;
  vote->n = msg.block.n();
  vote->block_digest = digest;
  vote->partial = SignMaybeCorrupt(vote_digest);
  GuardedSend(from, vote);
  ArmViewTimer();
  consecutive_failures_ = 0;
}

void HotStuffReplica::OnVote(runtime::NodeId from, const HsVoteMsg& msg) {
  (void)from;
  if (!IsLeader() || !proposal_active_ || msg.v != view_ ||
      msg.n != current_block_.n() || msg.phase != collect_phase_) {
    return;
  }
  const crypto::Sha256Digest expected = vote_builder_.digest();
  if (!keys_->Verify(msg.partial, expected)) {
    ++metrics_.invalid_messages;
    return;
  }
  vote_builder_.Add(msg.partial, expected);
  if (!vote_builder_.Complete()) return;

  const crypto::QuorumCert qc = vote_builder_.Build();
  const crypto::Sha256Digest digest = current_block_.Digest();

  if (collect_phase_ == HsPhase::kPrepare) {
    current_block_.ordering_qc = qc;  // prepareQC.
  } else if (collect_phase_ == HsPhase::kCommit) {
    current_block_.commit_qc = qc;  // commitQC.
  }

  if (collect_phase_ == HsPhase::kCommit) {
    // Decision reached: append, notify, broadcast Decide, next proposal.
    auto decide = std::make_shared<HsPhaseMsg>();
    decide->v = view_;
    decide->phase = HsPhase::kDecide;
    decide->n = current_block_.n();
    decide->block_digest = digest;
    decide->justify = qc;
    decide->sig = SignMaybeCorrupt(
        HsVoteDigest(HsPhase::kDecide, view_, current_block_.n(), digest));
    GuardedSend(PeerActors(), decide);

    proposal_active_ = false;
    DecideBlock(current_block_);
    MaybePropose(/*allow_partial=*/true);
    return;
  }

  // Advance to the next phase: pre-commit after prepare, commit after
  // pre-commit (the third phase PrestigeBFT does not need).
  const HsPhase next_phase = collect_phase_ == HsPhase::kPrepare
                                 ? HsPhase::kPreCommit
                                 : HsPhase::kCommit;
  auto phase_msg = std::make_shared<HsPhaseMsg>();
  phase_msg->v = view_;
  phase_msg->phase = next_phase;
  phase_msg->n = current_block_.n();
  phase_msg->block_digest = digest;
  phase_msg->justify = qc;
  phase_msg->sig = SignMaybeCorrupt(
      HsVoteDigest(next_phase, view_, current_block_.n(), digest));

  collect_phase_ = next_phase;
  const crypto::Sha256Digest next_digest =
      HsVoteDigest(next_phase, view_, current_block_.n(), digest);
  vote_builder_ = crypto::QuorumCertBuilder(next_digest, config_.quorum());
  vote_builder_.Add(signer_.Sign(next_digest), next_digest);

  GuardedSend(PeerActors(), phase_msg);
}

void HotStuffReplica::OnPhase(runtime::NodeId from, const HsPhaseMsg& msg) {
  if (msg.v != view_ || IsLeader() || from != ActorOf(current_leader())) {
    return;
  }
  // Justify QC certifies the previous phase (quorum-many signature checks,
  // the per-message bottleneck).
  const HsPhase prev_phase =
      msg.phase == HsPhase::kPreCommit
          ? HsPhase::kPrepare
          : (msg.phase == HsPhase::kCommit ? HsPhase::kPreCommit
                                           : HsPhase::kCommit);
  if (!crypto::VerifyQuorumCert(
           *keys_, msg.justify,
           HsVoteDigest(prev_phase, msg.v, msg.n, msg.block_digest),
           config_.quorum())
           .ok()) {
    ++metrics_.invalid_messages;
    return;
  }

  if (msg.phase == HsPhase::kDecide) {
    auto it = pending_blocks_.find(msg.n);
    if (it == pending_blocks_.end()) return;
    if (it->second.Digest() != msg.block_digest) {
      ++metrics_.invalid_messages;
      return;
    }
    ledger::TxBlock block = std::move(it->second);
    pending_blocks_.erase(it);
    block.commit_qc = msg.justify;
    DecideBlock(std::move(block));
    return;
  }

  // Vote for this phase (binding: refuse conflicting bodies at this n).
  auto bound = vote_bound_.find(msg.n);
  if (bound != vote_bound_.end() && bound->second != msg.block_digest) {
    return;
  }
  vote_bound_.emplace(msg.n, msg.block_digest);
  if (AdversaryWithholds(ReplicaIndexOf(from))) {  // Starve the phase QC.
    ArmViewTimer();
    return;
  }
  auto vote = std::make_shared<HsVoteMsg>();
  vote->v = msg.v;
  vote->phase = msg.phase;
  vote->n = msg.n;
  vote->block_digest = msg.block_digest;
  vote->partial = SignMaybeCorrupt(
      HsVoteDigest(msg.phase, msg.v, msg.n, msg.block_digest));
  GuardedSend(from, vote);
  ArmViewTimer();
}

void HotStuffReplica::OnNewView(runtime::NodeId from, const HsNewViewMsg& msg) {
  (void)from;
  if (msg.v <= view_) return;
  // Enough of the cluster moved to a higher view; follow along so the
  // schedule stays roughly synchronized. (Basic pacemaker: any NewView from
  // a higher view triggers adoption; safety is QC-based, not view-based.)
  if (msg.v == view_ + 1) {
    EnterView(msg.v, /*failed=*/false);
  }
}

void HotStuffReplica::DecideBlock(ledger::TxBlock block) {
  if (block.n() <= store_.LatestTxSeq()) return;
  if (block.n() > store_.LatestTxSeq() + 1) {
    buffered_commits_[block.n()] = std::move(block);
    return;
  }
  DeliverCommitted(block);
  util::Status st = store_.AppendTxBlock(std::move(block));
  assert(st.ok());
  (void)st;
  // Decided sequences release their bindings and pending bodies.
  vote_bound_.erase(vote_bound_.begin(),
                    vote_bound_.upper_bound(store_.LatestTxSeq()));
  pending_blocks_.erase(pending_blocks_.begin(),
                        pending_blocks_.upper_bound(store_.LatestTxSeq()));
  ArmViewTimer();
  consecutive_failures_ = 0;
  // Unblock any buffered successors.
  auto it = buffered_commits_.find(store_.LatestTxSeq() + 1);
  if (it != buffered_commits_.end()) {
    ledger::TxBlock next = std::move(it->second);
    buffered_commits_.erase(it);
    DecideBlock(std::move(next));
  }
}

void HotStuffReplica::OnMessage(runtime::NodeId from, const runtime::MessagePtr& msg) {
  if (CrashedNow()) {
    return;
  }
  if (auto* m = dynamic_cast<const types::ClientBatch*>(msg.get())) {
    for (const types::Transaction& tx : m->txs) EnqueueTx(tx);
    MaybePropose(/*allow_partial=*/false);
    return;
  }
  if (auto* m =
          dynamic_cast<const types::ClientComplaint*>(msg.get())) {
    ++metrics_.complaints_received;
    if (ReplyIfCommitted(m->tx, view_)) return;
    EnqueueTx(m->tx);
    MaybePropose(/*allow_partial=*/true);
    return;
  }
  if (auto* m = dynamic_cast<const HsProposalMsg*>(msg.get())) {
    OnProposal(from, *m);
    return;
  }
  if (auto* m = dynamic_cast<const HsVoteMsg*>(msg.get())) {
    OnVote(from, *m);
    return;
  }
  if (auto* m = dynamic_cast<const HsPhaseMsg*>(msg.get())) {
    OnPhase(from, *m);
    return;
  }
  if (auto* m = dynamic_cast<const HsNewViewMsg*>(msg.get())) {
    OnNewView(from, *m);
    return;
  }
  if (auto* m = dynamic_cast<const core::SyncReqMsg*>(msg.get())) {
    auto resp = std::make_shared<core::SyncRespMsg>();
    resp->tx_blocks = store_.TxBlocksAfter(m->after, m->up_to);
    if (!resp->tx_blocks.empty()) GuardedSend(from, resp);
    return;
  }
  if (auto* m = dynamic_cast<const core::SyncRespMsg*>(msg.get())) {
    for (const ledger::TxBlock& block : m->tx_blocks) {
      if (block.n() == store_.LatestTxSeq() + 1) {
        DecideBlock(block);
      }
    }
    return;
  }
  if (dynamic_cast<const core::NoiseMsg*>(msg.get()) != nullptr) {
    // Attack traffic; cost already charged by the network model.
  }
}

}  // namespace baselines
}  // namespace hotstuff
}  // namespace prestige
