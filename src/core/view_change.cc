// The active view-change protocol (§4.2, Algorithm 2):
//   failure detection (client complaints, timeouts, timing policies),
//   inspection (ConfVC / ReVC -> conf_QC with threshold f+1),
//   redeemer (reputation-determined proof of work),
//   candidate (campaign + voting criteria C1-C5, vc_QC with 2f+1),
//   leader (vcBlock consensus with vcYes acknowledgements).

#include <cassert>

#include "core/replica.h"

namespace prestige {
namespace core {

// ------------------------------------------------------ failure detection

void PrestigeReplica::OnClientComplaint(runtime::NodeId from,
                                        const types::ClientComplaint& compt) {
  (void)from;
  ++metrics_.complaints_received;
  if (RefuseSeqZero(compt.tx)) return;
  if (ReplyIfCommitted(compt.tx, view_)) return;
  const RequestId id = IdOf(compt.tx);
  auto existing = complaints_.find(id);
  if (existing != complaints_.end()) {
    // Re-complaint: if the previous escalation fizzled, watch again.
    if (existing->second.escalated) {
      existing->second.escalated = false;
      ArmComplaintTimer(id, existing->second);
    }
    return;
  }

  // Relay the proposal to the leader (Algorithm 2 line 2) and watch for the
  // commit (line 4).
  if (role_ == Role::kLeader) {
    // Attacker emulation: an F4 leader stashes the complaint as evidence
    // for contesting its own deposition (kAttackProbe cites it).
    if (fault_.type == types::FaultType::kRepeatedVc &&
        Now() >= fault_.start_at) {
      attack_complaint_tx_ = compt.tx;
      has_attack_complaint_ = true;
    }
    EnqueueTx(compt.tx);
    MaybePropose(/*allow_partial=*/true);
    return;
  }
  auto relay = std::make_shared<ComptRelayMsg>();
  relay->tx = compt.tx;
  relay->sig = SignMaybeCorrupt(compt.tx.Digest());
  GuardedSend(ActorOf(leader_), relay);

  ComplaintState state;
  state.tx = compt.tx;
  ArmComplaintTimer(id, state);
  complaints_.emplace(id, std::move(state));
}

void PrestigeReplica::ArmComplaintTimer(RequestId id,
                                        ComplaintState& state) {
  // The (pool, seq) request id cannot ride in the 48-bit tag payload
  // without truncation (which would make HandleComplaintTimer miss every
  // lookup and silently disable complaint-driven view changes); route it
  // through a sequential probe id instead. The probe is recorded in the
  // state so the table entry can be reclaimed when the complaint is erased
  // before its timer fires.
  const uint64_t probe = next_complaint_probe_++;
  complaint_probe_keys_[probe] = id;
  state.probe = probe;
  state.timer = SetTimer(config_.complaint_wait, Tag(kComplaintWait, probe));
}

void PrestigeReplica::OnComptRelay(runtime::NodeId from,
                                   const ComptRelayMsg& msg) {
  (void)from;
  if (role_ != Role::kLeader) return;
  if (!keys_->Verify(msg.sig, msg.tx.Digest())) {
    ++metrics_.invalid_messages;
    return;
  }
  EnqueueTx(msg.tx);
  MaybePropose(/*allow_partial=*/true);
}

void PrestigeReplica::ResolveComplaint(
    RequestMap<ComplaintState>::iterator it) {
  // The probe entry must die with the complaint whether the timer already
  // fired (stale ids cancel/erase as no-ops) or is still pending —
  // otherwise churning complaints leak probe-table entries.
  CancelTimer(it->second.timer);
  complaint_probe_keys_.erase(it->second.probe);
  complaints_.erase(it);
}

void PrestigeReplica::ResolveAllComplaints() {
  for (auto& [id, state] : complaints_) {
    (void)id;
    if (state.timer != 0) CancelTimer(state.timer);
  }
  complaints_.clear();
  complaint_probe_keys_.clear();
}

void PrestigeReplica::HandleComplaintTimer(uint64_t probe) {
  auto probe_it = complaint_probe_keys_.find(probe);
  if (probe_it == complaint_probe_keys_.end()) return;
  auto it = complaints_.find(probe_it->second);
  complaint_probe_keys_.erase(probe_it);
  if (it == complaints_.end()) return;  // Committed in the meantime.
  it->second.escalated = true;  // Entry kept: peers' ConfVCs need it.
  const types::Transaction tx = it->second.tx;
  if (Committed(tx)) {
    ResolveComplaint(it);
    return;  // Leader was correct.
  }
  // The leader failed to commit the complained tx in time: inspect
  // (Algorithm 2 line 6).
  StartInspection(VcReason::kClientComplaint, &tx);
}

void PrestigeReplica::StartInspection(VcReason reason,
                                      const types::Transaction* tx) {
  // Honest servers inspect only as followers. An F4 attacker additionally
  // inspects as a quiet leader to contest its own deposition.
  const bool byzantine_leader_probe =
      role_ == Role::kLeader &&
      fault_.type == types::FaultType::kRepeatedVc &&
      Now() >= fault_.start_at;
  if (role_ != Role::kFollower && !byzantine_leader_probe) return;
  if (inspecting_) return;  // One inspection at a time.
  // Someone else's view change is in flight; let it finish first (honest
  // servers only — attackers race on purpose and pay for it).
  if (config_.enable_standdown && !fault_.IsByzantine() &&
      Now() < standdown_until_) {
    return;
  }
  inspecting_ = true;
  inspection_reason_ = reason;

  const crypto::Sha256Digest conf_digest = ledger::ConfDigest(view_);
  revc_builder_ = crypto::QuorumCertBuilder(conf_digest, config_.confirm());
  revc_builder_.Add(signer_.Sign(conf_digest), conf_digest);

  auto conf = std::make_shared<ConfVcMsg>();
  conf->v = view_;
  conf->reason = reason;
  if (tx != nullptr) conf->tx = *tx;
  conf->sig = SignMaybeCorrupt(conf_digest);
  GuardedSend(PeerActors(), conf);

  if (inspection_timer_ != 0) CancelTimer(inspection_timer_);
  inspection_timer_ =
      SetTimer(config_.complaint_wait, Tag(kInspectionTimeout));
}

void PrestigeReplica::OnConfVc(runtime::NodeId from, const ConfVcMsg& msg) {
  if (msg.v != view_) return;
  if (role_ == Role::kLeader) return;  // A leader never endorses its removal.
  if (!keys_->Verify(msg.sig, ledger::ConfDigest(msg.v))) {
    ++metrics_.invalid_messages;
    return;
  }

  bool support = false;
  switch (msg.reason) {
    case VcReason::kClientComplaint: {
      // Support only if we saw the same complaint and it is still pending
      // (Algorithm 2 line 12-13), or it timed out on us already.
      support = complaints_.count(IdOf(msg.tx)) > 0 && !Committed(msg.tx);
      break;
    }
    case VcReason::kTimeout:
      support = progress_stale_;
      break;
    case VcReason::kPolicy:
      support = config_.rotation_period > 0 &&
                Now() - view_entered_at_ >= config_.rotation_period * 9 / 10;
      break;
  }
  // Fault injection: colluding F4 attackers endorse any view change.
  if (fault_.type == types::FaultType::kRepeatedVc &&
      Now() >= fault_.start_at) {
    support = true;
  }
  if (!support) return;

  auto reply = std::make_shared<ReVcMsg>();
  reply->v = msg.v;
  reply->partial = SignMaybeCorrupt(ledger::ConfDigest(msg.v));
  GuardedSend(from, reply);

  // We endorsed this view change; stand down our own campaign plans long
  // enough for the initiator's election to complete.
  standdown_until_ = std::max(
      standdown_until_,
      Now() + rng()->NextInRange(util::Millis(300), util::Millis(900)));
}

void PrestigeReplica::OnReVc(runtime::NodeId from, const ReVcMsg& msg) {
  (void)from;
  if (!inspecting_ || msg.v != view_) return;
  const crypto::Sha256Digest& conf_digest = revc_builder_.digest();
  if (!keys_->Verify(msg.partial, conf_digest)) {
    ++metrics_.invalid_messages;
    return;
  }
  revc_builder_.Add(msg.partial, conf_digest);
  if (!revc_builder_.Complete()) return;

  // f+1 confirmations (including ourselves): the view change is necessary.
  inspecting_ = false;
  if (inspection_timer_ != 0) {
    CancelTimer(inspection_timer_);
    inspection_timer_ = 0;
  }
  BecomeRedeemer(revc_builder_.Build(), view_, view_ + 1);
}

// ---------------------------------------------------------------- redeemer

bool PrestigeReplica::ShouldCampaign(types::View v_new) {
  if (fault_.type != types::FaultType::kRepeatedVc ||
      Now() < fault_.start_at) {
    return true;
  }
  if (fault_.strategy == types::AttackStrategy::kS1) return true;
  // S2: attack only when the reputation engine would grant compensation
  // keeping rp from growing (§6.2 Availability).
  auto result = engine_.CalcRp(v_new, view_, EffectiveRp(id_),
                               std::max<types::SeqNum>(store_.LatestTxSeq(), 1),
                               EffectiveCi(id_), [&] {
                                 std::vector<types::Penalty> p;
                                 p.push_back(EffectiveRp(id_));
                                 auto h = store_.HistoricPenalties(id_);
                                 if (!h.empty()) {
                                   p.insert(p.end(), h.begin() + 1, h.end());
                                 }
                                 return p;
                               }());
  return result.ok() && result->new_rp <= EffectiveRp(id_);
}

void PrestigeReplica::ReturnToFollower() {
  role_ = Role::kFollower;
  consecutive_election_timeouts_ = 0;
  AbortCampaignActivities();
  ArmProgressTimer();
}

void PrestigeReplica::BecomeRedeemer(crypto::QuorumCert conf_qc,
                                     types::View confirmed_view,
                                     types::View v_new) {
  // C1 discipline: never campaign for a view number our vote is already
  // spent in — self-voting there would be a double vote. Advance to the
  // nearest free view (paying Eq. 1's view-skip penalty for it).
  while (votes_by_view_.count(v_new) > 0) {
    ++v_new;
  }
  if (!ShouldCampaign(v_new)) {
    ReturnToFollower();
    return;
  }
  role_ = Role::kRedeemer;
  ++metrics_.view_changes_started;
  StopReplicationActivity();
  if (progress_timer_ != 0) {
    CancelTimer(progress_timer_);
    progress_timer_ = 0;
  }

  campaign_conf_qc_ = std::move(conf_qc);
  confirmed_view_ = confirmed_view;
  campaign_view_ = v_new;
  redeem_started_at_ = Now();
  // One consistent chain snapshot for CalcRP, the puzzle payload, and the
  // campaign message (blocks may keep committing while we work).
  campaign_latest_n_ = store_.LatestTxSeq();
  campaign_payload_ = store_.LatestTxDigest();

  // Consult the reputation engine (Algorithm 2 line 33). The effective
  // (rp, ci) include any penalty refresh overlay.
  std::vector<types::Penalty> penalty_set;
  penalty_set.push_back(EffectiveRp(id_));
  {
    auto historic = store_.HistoricPenalties(id_);
    if (!historic.empty()) {
      penalty_set.insert(penalty_set.end(), historic.begin() + 1,
                         historic.end());
    }
  }
  auto result = engine_.CalcRp(
      v_new, view_, EffectiveRp(id_),
      std::max<types::SeqNum>(campaign_latest_n_, 1), EffectiveCi(id_),
      penalty_set);
  if (!result.ok()) {
    ReturnToFollower();
    return;
  }
  campaign_rp_ = result->new_rp;
  campaign_ci_ = result->new_ci;
  campaign_difficulty_bits_ = config_.pow.DifficultyBits(campaign_rp_);

  // Perform the reputation-determined work (hash puzzle, §4.2.2).
  const crypto::Sha256Digest payload = campaign_payload_;
  if (config_.pow_mode == PowMode::kReal) {
    util::Rng pow_rng = rng()->Fork();
    auto solution = real_solver_.Solve(payload, campaign_difficulty_bits_,
                                       &pow_rng, 1ull << 26);
    if (!solution.ok()) {
      // Puzzle beyond our means (cf. Lemma 3: computation bound gamma).
      ReturnToFollower();
      return;
    }
    campaign_solution_ = *solution;
    const double seconds = static_cast<double>(solution->iterations) /
                           (config_.pow.hashes_per_second *
                            std::max(1.0, fault_.collusion_speedup));
    campaign_solve_time_ = std::max<util::DurationMicros>(
        1, static_cast<util::DurationMicros>(seconds * 1e6));
  } else {
    campaign_solution_ = crypto::PowSolution{};
    campaign_solution_.hash = payload;  // Token checked via C4's rp.
    util::DurationMicros solve =
        modeled_solver_.SampleSolveMicros(campaign_difficulty_bits_, rng());
    if (fault_.collusion_speedup > 1.0) {
      solve = std::max<util::DurationMicros>(
          1, static_cast<util::DurationMicros>(
                 static_cast<double>(solve) / fault_.collusion_speedup));
    }
    campaign_solve_time_ = solve;
  }
  // Honest servers bound the work they will spend on one campaign: a
  // healthy cluster offers another (cheaper) chance at view_+1 later, and
  // doubling patience per abandon keeps liveness when a VC is mandatory.
  if (!fault_.IsByzantine()) {
    util::DurationMicros patience = config_.redeemer_patience;
    for (int i = 0; i < consecutive_pow_abandons_ && i < 16; ++i) {
      patience *= 2;
    }
    if (campaign_solve_time_ > patience) {
      ++consecutive_pow_abandons_;
      ReturnToFollower();
      return;
    }
  }
  if (pow_timer_ != 0) CancelTimer(pow_timer_);
  // Honest redeemers add a small randomized pause before campaigning (part
  // of the §4.2.1 randomization); attackers race at full speed — and win,
  // until their penalty makes the puzzle slower than everyone's pause.
  const util::DurationMicros courtesy =
      (fault_.IsByzantine() || !config_.enable_courtesy)
          ? 0
          : rng()->NextInRange(0, util::Millis(100));
  pow_timer_ = SetTimer(courtesy + campaign_solve_time_, Tag(kPowDone));
}

void PrestigeReplica::OnPowSolved() {
  if (role_ != Role::kRedeemer) return;
  metrics_.vc_costs.push_back(VcCostSample{Now(), campaign_view_,
                                           campaign_rp_,
                                           campaign_solve_time_});
  BecomeCandidate();
}

// --------------------------------------------------------------- candidate

void PrestigeReplica::BecomeCandidate() {
  // While redeeming we may have voted for another candidate at our target
  // view; self-voting there now would double-vote (C1). Yield.
  if (votes_by_view_.count(campaign_view_) > 0) {
    ReturnToFollower();
    return;
  }
  role_ = Role::kCandidate;
  ++metrics_.campaigns_sent;

  const crypto::Sha256Digest vote_digest =
      ledger::VoteDigest(campaign_view_, id_);
  vote_builder_ = crypto::QuorumCertBuilder(vote_digest, config_.quorum());
  vote_builder_.Add(signer_.Sign(vote_digest), vote_digest);
  votes_by_view_[campaign_view_] = id_;  // C1: our vote goes to ourselves.
  voted_view_ = std::max(voted_view_, campaign_view_);

  auto camp = std::make_shared<CampMsg>();
  camp->conf_qc = campaign_conf_qc_;
  camp->v = confirmed_view_;
  camp->v_new = campaign_view_;
  camp->rp = campaign_rp_;
  camp->ci = campaign_ci_;
  camp->nonce = campaign_solution_.nonce;
  camp->hash_result = campaign_solution_.hash;
  camp->claimed_difficulty_bits = campaign_difficulty_bits_;
  if (const ledger::TxBlock* snap = store_.TxBlockAt(campaign_latest_n_)) {
    camp->latest_tx_block = *snap;
  }
  camp->latest_n = campaign_latest_n_;
  camp->latest_vc_view = view_;
  camp->sig = SignMaybeCorrupt(CampaignDigest(*camp));
  GuardedSend(PeerActors(), camp);

  if (election_timer_ != 0) CancelTimer(election_timer_);
  election_timer_ = SetTimer(config_.election_timeout, Tag(kElectionTimeout));
}

bool PrestigeReplica::VerifyCampaign(runtime::NodeId from,
                                     const CampMsg& camp) {
  // Signature of the candidate.
  const types::ReplicaId candidate = camp.sig.signer;
  if (candidate >= config_.n || ActorOf(candidate) != from) return false;
  if (!keys_->Verify(camp.sig, CampaignDigest(camp))) return false;

  // C2: the view change was confirmed by f+1 servers.
  if (!crypto::VerifyQuorumCert(*keys_, camp.conf_qc,
                                ledger::ConfDigest(camp.v), config_.confirm())
           .ok()) {
    return false;
  }

  // C4: recompute the candidate's rp and ci with the same scheme. Per
  // Algorithm 2 line 21, ti is the candidate's txBlock.n — under a live
  // leader our own tip may already be ahead by a few blocks.
  std::vector<types::Penalty> penalty_set;
  penalty_set.push_back(EffectiveRp(candidate));
  {
    auto historic = store_.HistoricPenalties(candidate);
    if (!historic.empty()) {
      penalty_set.insert(penalty_set.end(), historic.begin() + 1,
                         historic.end());
    }
  }
  auto result = engine_.CalcRp(
      camp.v_new, view_, EffectiveRp(candidate),
      std::max<types::SeqNum>(camp.latest_n, 1),
      EffectiveCi(candidate), penalty_set);
  if (!result.ok()) return false;
  if (result->new_ci != camp.ci) return false;
  if (result->new_rp != camp.rp) return false;

  // C5: the performed computation matches the penalty. One hash — O(1).
  // The puzzle payload is the candidate's snapshot txBlock; verify the
  // snapshot is genuine (it must match our chain at that height).
  const int required_bits = config_.pow.DifficultyBits(camp.rp);
  if (camp.claimed_difficulty_bits != required_bits) return false;
  crypto::Sha256Digest payload{};
  if (camp.latest_n > 0) {
    const ledger::TxBlock* mine = store_.TxBlockAt(camp.latest_n);
    if (mine == nullptr) return false;
    payload = mine->Digest();
    if (camp.latest_tx_block.n() != camp.latest_n ||
        camp.latest_tx_block.Digest() != payload) {
      return false;
    }
  }
  if (config_.pow_mode == PowMode::kReal &&
      !crypto::PowVerify(payload, camp.nonce, required_bits)) {
    return false;
  }
  // In modeled mode the redeemer's work was expressed in virtual time; the
  // solution token is accepted once C4 pins the difficulty (DESIGN.md §4).
  return true;
}

void PrestigeReplica::OnCamp(runtime::NodeId from, const CampMsg& camp) {
  if (camp.v_new <= view_) return;  // Stale campaign (line 16).
  if (votes_by_view_.count(camp.v_new) > 0) {
    return;  // C1: vote once per view number.
  }

  // Sync up view changes if the candidate is operating in a higher view
  // (lines 19-20).
  if (camp.v > view_) {
    stashed_camps_.emplace_back(from, camp);
    RequestSync(from, SyncReqMsg::Kind::kVcBlocks, store_.CurrentView(),
                camp.v);
    return;
  }

  // C3: the candidate's replication must be at least as up-to-date as ours
  // (lines 21-24), modulo the configured slack for blocks that committed
  // while the campaign was in flight (the winner catches up before it
  // starts proposing).
  if (camp.latest_n + config_.c3_slack_blocks < store_.LatestTxSeq()) return;
  if (camp.latest_n > store_.LatestTxSeq()) {
    stashed_camps_.emplace_back(from, camp);
    RequestSync(from, SyncReqMsg::Kind::kTxBlocks, store_.LatestTxSeq(),
                camp.latest_n);
    return;
  }

  if (!VerifyCampaign(from, camp)) {
    ++metrics_.invalid_messages;
    return;
  }

  // Vote withholding: starve the candidate of our campaign vote. The C1
  // book-keeping is deliberately skipped too — the attacker keeps its
  // vote free for a colluder campaigning at the same view number.
  if (AdversaryWithholds(camp.sig.signer)) return;

  // All criteria hold: vote, and stand down our own plans — this candidate
  // is likely to win.
  votes_by_view_[camp.v_new] = camp.sig.signer;
  voted_view_ = std::max(voted_view_, camp.v_new);
  standdown_until_ = std::max(
      standdown_until_,
      Now() + rng()->NextInRange(util::Millis(300), util::Millis(900)));
  ++metrics_.votes_cast;
  auto vote = std::make_shared<VoteCpMsg>();
  vote->v_new = camp.v_new;
  vote->candidate = camp.sig.signer;
  vote->partial =
      SignMaybeCorrupt(ledger::VoteDigest(camp.v_new, camp.sig.signer));
  GuardedSend(from, vote);
}

void PrestigeReplica::OnVoteCp(runtime::NodeId from, const VoteCpMsg& vote) {
  (void)from;
  if (role_ != Role::kCandidate || vote.v_new != campaign_view_ ||
      vote.candidate != id_) {
    return;
  }
  const crypto::Sha256Digest& digest = vote_builder_.digest();
  if (!keys_->Verify(vote.partial, digest)) {
    ++metrics_.invalid_messages;
    return;
  }
  vote_builder_.Add(vote.partial, digest);
  if (vote_builder_.Complete()) {
    BecomeLeaderOfView();
  }
}

// ------------------------------------------------------------------ leader

void PrestigeReplica::BecomeLeaderOfView() {
  if (election_timer_ != 0) {
    CancelTimer(election_timer_);
    election_timer_ = 0;
  }
  ++metrics_.elections_won;
  catchup_target_ = store_.LatestTxSeq();
  awaiting_catchup_ = false;

  // Prepare the new vcBlock (§4.2.4): inherit the previous reputation
  // segment (with refresh overlay folded in) and update only our own entry.
  ledger::VcBlock block;
  block.set_v(campaign_view_);
  block.set_leader(id_);
  block.set_confirmed_view(confirmed_view_);
  block.set_prev_hash(store_.LatestVcBlock()->Digest());
  block.conf_qc = campaign_conf_qc_;
  block.vc_qc = vote_builder_.Build();
  for (types::ReplicaId r = 0; r < config_.n; ++r) {
    block.SetPenalty(r, EffectiveRp(r));
    block.SetCompensation(r, EffectiveCi(r));
  }
  block.SetPenalty(id_, campaign_rp_);
  block.SetCompensation(id_, campaign_ci_);

  const crypto::Sha256Digest yes_digest =
      ledger::VcYesDigest(block.Digest());
  vcyes_builder_ = crypto::QuorumCertBuilder(yes_digest, config_.quorum());
  vcyes_builder_.Add(signer_.Sign(yes_digest), yes_digest);
  announced_vc_block_ = block;

  auto msg = std::make_shared<VcBlockMsg>();
  msg->block = block;
  GuardedSend(PeerActors(), msg);

  util::Status st = store_.AppendVcBlock(block);
  assert(st.ok());
  (void)st;
  InstallVcBlock(block, /*as_leader=*/true);
}

void PrestigeReplica::OnVcBlockMsg(runtime::NodeId from, const VcBlockMsg& msg) {
  const ledger::VcBlock& block = msg.block;
  if (block.v() <= store_.CurrentView()) return;  // Old news.

  const bool extends_tip =
      store_.LatestVcBlock() == nullptr ||
      block.prev_hash() == store_.LatestVcBlock()->Digest();

  if (extends_tip) {
    // Normal path: validate QCs and the reputation segment — the only
    // change from our current segment may be the new leader's rp and ci
    // (§4.2.4).
    for (types::ReplicaId r = 0; r < config_.n; ++r) {
      if (r == block.leader()) continue;
      if (block.rp().count(r) == 0 || block.ci().count(r) == 0 ||
          block.rp().at(r) != EffectiveRp(r) ||
          block.ci().at(r) != EffectiveCi(r)) {
        ++metrics_.invalid_messages;
        return;
      }
    }
    ledger::VcBlock copy = block;
    if (!ValidateAndAppendVcBlock(copy).ok()) {
      ++metrics_.invalid_messages;
      return;
    }
  } else {
    // Concurrent elections at different views can fork the vcBlock chain;
    // a certified higher-view block extending a recent ancestor wins and
    // the conflicting tail unwinds. (The 2f+1 vc_QC carries the honest
    // majority's endorsement; the per-entry segment check is meaningful
    // only against the block's own parent.)
    if (!crypto::VerifyQuorumCert(*keys_, block.conf_qc,
                                  ledger::ConfDigest(block.confirmed_view()),
                                  config_.confirm())
             .ok() ||
        !crypto::VerifyQuorumCert(*keys_, block.vc_qc,
                                  ledger::VoteDigest(block.v(), block.leader()),
                                  config_.quorum())
             .ok()) {
      ++metrics_.invalid_messages;
      return;
    }
    if (!store_.AppendVcBlockResolvingFork(block).ok()) {
      // Not a shallow fork: we are missing history; fetch and retry.
      stashed_vc_blocks_.emplace_back(from, block);
      RequestSync(from, SyncReqMsg::Kind::kVcBlocks, store_.CurrentView(),
                  block.v());
      return;
    }
  }

  auto yes = std::make_shared<VcYesMsg>();
  yes->v = block.v();
  yes->latest_n = store_.LatestTxSeq();
  yes->partial = SignMaybeCorrupt(ledger::VcYesDigest(block.Digest()));
  GuardedSend(from, yes);

  InstallVcBlock(block, /*as_leader=*/false);
}

void PrestigeReplica::OnVcYes(runtime::NodeId from, const VcYesMsg& msg) {
  if (!announced_vc_block_.has_value() || msg.v != view_ ||
      role_ != Role::kLeader) {
    return;
  }
  const crypto::Sha256Digest& digest = vcyes_builder_.digest();
  if (!keys_->Verify(msg.partial, digest)) {
    ++metrics_.invalid_messages;
    return;
  }
  if (msg.latest_n > catchup_target_) {
    catchup_target_ = msg.latest_n;
    catchup_source_ = from;
  }
  vcyes_builder_.Add(msg.partial, digest);
  if (!vcyes_builder_.Complete()) return;

  // VC consensus complete. If blocks committed while the election ran
  // (C3 slack), fetch them first; normal operation then resumes under our
  // leadership.
  announced_vc_block_.reset();
  consecutive_election_timeouts_ = 0;
  if (catchup_target_ > store_.LatestTxSeq()) {
    awaiting_catchup_ = true;
    RequestSync(catchup_source_, SyncReqMsg::Kind::kTxBlocks,
                store_.LatestTxSeq(), catchup_target_);
    return;
  }
  StartLeading();
}

void PrestigeReplica::InstallVcBlock(const ledger::VcBlock& block,
                                     bool as_leader) {
  view_ = block.v();
  leader_ = block.leader();
  view_entered_at_ = Now();
  voted_view_ = std::max(voted_view_, block.v());
  votes_by_view_.erase(votes_by_view_.begin(),
                       votes_by_view_.upper_bound(block.v()));
  consecutive_election_timeouts_ = 0;
  consecutive_pow_abandons_ = 0;
  refresh_overlay_.clear();
  refresh_pending_ = false;

  AbortCampaignActivities();
  inspecting_ = false;
  if (inspection_timer_ != 0) {
    CancelTimer(inspection_timer_);
    inspection_timer_ = 0;
  }
  progress_stale_ = false;
  signed_ord_.clear();
  if (as_leader) {
    // Preserve the contiguous in-flight suffix for re-proposal: any block
    // that might have gathered a commit_QC in an earlier view is among
    // these bodies (we ordering-signed it, so we held on to it).
    repropose_.clear();
    types::SeqNum expect = store_.LatestTxSeq() + 1;
    for (auto& [n, pending] : pending_blocks_) {
      if (n < expect) continue;  // Already committed; pruned below.
      if (n != expect) break;
      repropose_.push_back(std::move(pending.block));
      ++expect;
    }
    pending_blocks_.clear();
  } else {
    // Keep uncommitted bodies we ordering-signed. The body binding
    // persists across views (Theorem 3), so the cluster can only ever certify
    // those exact bodies at their sequence numbers — and the leader that
    // eventually re-proposes them may be several views away (e.g. after
    // an intermediate quiet leader). Discarding them here used to
    // livelock the cluster: every later leader composed a fresh body at
    // the bound sequence, which 2f+1 bound followers refused, forever.
    // Only the committed prefix is pruned.
    pending_blocks_.erase(pending_blocks_.begin(),
                          pending_blocks_.upper_bound(store_.LatestTxSeq()));
  }
  // Complaints targeted the old leader; clients re-complain if the new
  // leader also stalls. (Fired timers for erased keys are no-ops.)
  ResolveAllComplaints();

  metrics_.rp_history.push_back(
      RpSample{Now(), view_, block.PenaltyOf(id_)});

  if (as_leader) {
    role_ = Role::kLeader;
    replication_enabled_ = false;  // Awaits 2f+1 vcYes (§4.2.4).
    ++metrics_.views_led;
    metrics_.last_led_at = Now();
  } else {
    role_ = Role::kFollower;
    StopReplicationActivity();
    ArmProgressTimer();
  }

  if (config_.rotation_period > 0) {
    if (rotation_timer_ != 0) CancelTimer(rotation_timer_);
    const util::DurationMicros jitter =
        rng()->NextInRange(0, util::Millis(300));
    rotation_timer_ =
        SetTimer(config_.rotation_period + jitter, Tag(kRotationDue));
  }
  MaybeRequestRefresh();
}

void PrestigeReplica::AbortCampaignActivities() {
  if (pow_timer_ != 0) {
    CancelTimer(pow_timer_);
    pow_timer_ = 0;
  }
  if (election_timer_ != 0) {
    CancelTimer(election_timer_);
    election_timer_ = 0;
  }
  campaign_view_ = 0;
}

void PrestigeReplica::OnRotationDue() {
  // Timing policy (§4.2.1): the view has served its term; rotate.
  if (role_ == Role::kFollower) {
    StartInspection(VcReason::kPolicy, nullptr);
  }
  if (config_.rotation_period > 0) {
    const util::DurationMicros jitter =
        rng()->NextInRange(0, util::Millis(300));
    rotation_timer_ =
        SetTimer(config_.rotation_period + jitter, Tag(kRotationDue));
  }
}

}  // namespace core
}  // namespace prestige
