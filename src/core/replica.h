// PrestigeReplica: one PrestigeBFT server.
//
// Implements the paper's full protocol stack:
//  * two-phase replication with batching and pipelining (§4.3);
//  * the active view-change protocol — failure detection via client
//    complaints / timeouts / timing policies, redeemer PoW, candidate
//    campaigns with voting criteria C1-C5, vcBlock consensus, SyncUp
//    (§4.2, Algorithm 2);
//  * the reputation engine hookup (§3) and penalty refresh (§4.2.5).
//
// Fault injection for the evaluation's attack suite (F1-F4, S1/S2) is
// driven by a types::FaultSpec: the crash/quiet/equivocate gates live in
// ReplicaBase (shared with the baselines), the campaign strategy at
// clearly marked decision points here; honest replicas take none of those
// branches.
//
// Implementation is split across replica.cc (dispatch, sync, shared
// helpers), replication.cc (§4.3), and view_change.cc (§4.2).

#ifndef PRESTIGE_CORE_REPLICA_H_
#define PRESTIGE_CORE_REPLICA_H_

#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "core/messages.h"
#include "core/replica_base.h"
#include "crypto/pow.h"
#include "reputation/reputation_engine.h"

namespace prestige {
namespace core {

/// Server state per Figure 5.
enum class Role { kFollower, kRedeemer, kCandidate, kLeader };

const char* RoleName(Role role);

/// One PrestigeBFT server as a simulation actor.
class PrestigeReplica : public ReplicaBase {
 public:
  PrestigeReplica(PrestigeConfig config, types::ReplicaId replica_id,
                  const crypto::KeyStore* keys,
                  types::FaultSpec fault = types::FaultSpec::Honest());
  ~PrestigeReplica() override;

  // runtime::Node interface.
  void OnStart() override;
  void OnMessage(runtime::NodeId from, const runtime::MessagePtr& msg) override;
  void OnTimer(uint64_t tag) override;

  // Observability.
  Role role() const { return role_; }
  types::View view() const { return view_; }
  types::ReplicaId current_leader() const { return leader_; }
  bool IsLeader() const { return role_ == Role::kLeader; }
  /// Effective current penalty of `id` (vcBlock value + refresh overlay).
  types::Penalty EffectiveRp(types::ReplicaId id) const;
  types::CompensationIndex EffectiveCi(types::ReplicaId id) const;

  // Introspection for tests and debugging.
  bool replication_enabled() const { return replication_enabled_; }
  size_t inflight_instances() const { return instances_.size(); }
  size_t pending_block_count() const { return pending_blocks_.size(); }
  types::View voted_view() const { return voted_view_; }
  /// Complaint-table sizes (regression tests pin that the probe table
  /// tracks the complaint table and never leaks entries).
  size_t complaint_count() const { return complaints_.size(); }
  size_t complaint_probe_count() const { return complaint_probe_keys_.size(); }
  std::vector<types::SeqNum> BoundSeqs() const {
    std::vector<types::SeqNum> out;
    for (const auto& [n, d] : commit_bound_) {
      (void)d;
      out.push_back(n);
    }
    return out;
  }
  std::vector<types::SeqNum> InflightSeqs() const {
    std::vector<types::SeqNum> out;
    for (const auto& [n, inst] : instances_) {
      (void)inst;
      out.push_back(n);
    }
    return out;
  }
  struct InstanceDebug {
    types::SeqNum n;
    bool ordered;
    uint32_t ord_count;
    uint32_t cmt_count;
  };
  std::vector<InstanceDebug> DebugInstances() const {
    std::vector<InstanceDebug> out;
    for (const auto& [n, inst] : instances_) {
      out.push_back(InstanceDebug{n, inst.ordered, inst.ord_builder.Count(),
                                  inst.cmt_builder.Count()});
    }
    return out;
  }

 private:
  // ------------------------------------------------------------ plumbing

  /// Leader-side state of one in-flight replication instance.
  struct Instance {
    ledger::TxBlock block;
    crypto::QuorumCertBuilder ord_builder;
    crypto::QuorumCertBuilder cmt_builder;
    bool ordered = false;  ///< ordering_QC complete, Cmt broadcast.
    bool done = false;     ///< commit_QC complete.
    /// Last Ord/Cmt broadcast for this instance (stalled-instance
    /// retransmits refresh it, giving a per-instance rebroadcast interval).
    util::TimeMicros last_broadcast_at = 0;
  };

  /// Follower-side record of a block body received via Ord.
  struct PendingBlock {
    ledger::TxBlock block;
    bool commit_signed = false;
  };

  /// A client complaint this replica relayed and is watching (§4.2.1).
  struct ComplaintState {
    types::Transaction tx;
    runtime::TimerId timer = 0;
    uint64_t probe = 0;      ///< complaint_probe_keys_ entry for the timer.
    bool escalated = false;  ///< Complaint wait expired; inspection begun.
  };

  enum TimerKind : uint64_t {
    kProgressTimeout = 1,
    kBatchTimer = 2,
    kElectionTimeout = 3,
    kPowDone = 4,
    kRotationDue = 5,
    kHeartbeat = 6,
    kComplaintWait = 7,
    kInspectionTimeout = 8,
    kNoiseTimer = 9,
    kAttackProbe = 10,
    kElectionRetry = 11,
  };
  // Tag packing shared with the baselines and runtime layer
  // (util/timer_tag.h): 16-bit kind, 48-bit payload.
  static uint64_t Tag(TimerKind kind, uint64_t payload = 0) {
    return util::PackTimerTag(kind, payload);
  }
  static TimerKind TagKind(uint64_t tag) {
    return util::TimerTagKind<TimerKind>(tag);
  }
  static uint64_t TagPayload(uint64_t tag) {
    return util::TimerTagPayload(tag);
  }

  /// In office: elected and past the vcYes quorum.
  bool ActingAsLeader() const override {
    return role_ == Role::kLeader && replication_enabled_;
  }

  // ------------------------------------------------------- replication
  void OnClientBatch(runtime::NodeId from, const types::ClientBatch& batch);
  void MaybePropose(bool allow_partial = false);
  void Propose(std::vector<types::Transaction> batch);
  /// Broadcasts an Ord to all peers; with an equivocating adversary
  /// installed, follower groups receive conflicting signed variants.
  void BroadcastOrd(const std::shared_ptr<OrdMsg>& ord);
  void OnOrd(runtime::NodeId from, const OrdMsg& ord);
  void OnOrdReply(runtime::NodeId from, const OrdReplyMsg& reply);
  void OnCmt(runtime::NodeId from, const CmtMsg& cmt);
  void OnCmtReply(runtime::NodeId from, const CmtReplyMsg& reply);
  void OnTxBlockMsg(runtime::NodeId from, const TxBlockMsg& msg);
  void OnHeartbeat(runtime::NodeId from, const HeartbeatMsg& hb);
  /// Verifies `block`'s commit QC over its own body, then commits it.
  void CommitBlock(ledger::TxBlock&& block);
  /// Commits a block whose commit QC is already verified: moves it into
  /// the store, applies it, notifies clients and clears its follower state.
  void CommitCertified(ledger::TxBlock&& block);
  void DrainBufferedBlocks();
  void ResetProgress();
  void ArmProgressTimer();
  util::DurationMicros SampleTimeout();
  void StartLeading();
  void StopReplicationActivity();
  /// Re-broadcasts Ord / Cmt for in-flight instances whose quorum stalled
  /// (lost replies on lossy links); piggybacks on the heartbeat tick.
  void RetransmitStalledInstances();

  // ------------------------------------------------------- view change
  void OnClientComplaint(runtime::NodeId from,
                         const types::ClientComplaint& compt);
  void OnComptRelay(runtime::NodeId from, const ComptRelayMsg& msg);
  /// Arms a complaint-wait timer for the complaint about request `id`,
  /// filling `state`'s timer/probe fields. Timer tags carry only 48 payload
  /// bits, too few for a (32-bit pool, 64-bit seq) id, so the id is mapped
  /// through a small probe-id table instead of being truncated into the tag.
  void ArmComplaintTimer(RequestId id, ComplaintState& state);
  void HandleComplaintTimer(uint64_t probe);
  /// Erases one complaint and everything attached to it: its pending
  /// timer and its complaint_probe_keys_ entry. Every resolution path
  /// (commit, timer verdict, view install) funnels through here so the
  /// probe table can never outlive its complaints.
  void ResolveComplaint(RequestMap<ComplaintState>::iterator it);
  void ResolveAllComplaints();
  void StartInspection(VcReason reason, const types::Transaction* tx);
  void OnConfVc(runtime::NodeId from, const ConfVcMsg& msg);
  void OnReVc(runtime::NodeId from, const ReVcMsg& msg);
  void BecomeRedeemer(crypto::QuorumCert conf_qc, types::View confirmed_view,
                      types::View v_new);
  void OnPowSolved();
  void BecomeCandidate();
  /// Abandons any campaign and resumes normal follower operation.
  void ReturnToFollower();
  void OnCamp(runtime::NodeId from, const CampMsg& camp);
  bool VerifyCampaign(runtime::NodeId from, const CampMsg& camp);
  void OnVoteCp(runtime::NodeId from, const VoteCpMsg& vote);
  void BecomeLeaderOfView();
  void OnVcBlockMsg(runtime::NodeId from, const VcBlockMsg& msg);
  void OnVcYes(runtime::NodeId from, const VcYesMsg& msg);
  void InstallVcBlock(const ledger::VcBlock& block, bool as_leader);
  void AbortCampaignActivities();
  void OnRotationDue();
  bool ShouldCampaign(types::View v_new);  ///< F4 S1/S2 strategy gate.

  // ----------------------------------------------------------- refresh
  void MaybeRequestRefresh();
  void OnRef(runtime::NodeId from, const RefMsg& msg);
  void OnRefReply(runtime::NodeId from, const RefReplyMsg& msg);
  void OnRdone(runtime::NodeId from, const RdoneMsg& msg);

  // ------------------------------------------------------------- sync
  void RequestSync(runtime::NodeId from, SyncReqMsg::Kind kind, int64_t after,
                   int64_t up_to);
  void OnSyncReq(runtime::NodeId from, const SyncReqMsg& msg);
  void OnSyncResp(runtime::NodeId from, const SyncRespMsg& msg);
  /// Checks the commit QC against CommitDigest(v, n, block.Digest()).
  util::Status VerifyCommitQc(const ledger::TxBlock& block) const;
  /// Sync path: verifies, then appends a copy of `block`.
  util::Status ValidateAndAppendTxBlock(const ledger::TxBlock& block);
  /// Appends a certified block and delivers it from the store.
  util::Status AppendCertifiedTxBlock(ledger::TxBlock&& block);
  util::Status ValidateAndAppendVcBlock(const ledger::VcBlock& block);
  void ReplayStashedCampaigns();

  // ------------------------------------------------------------ members
  PrestigeConfig config_;
  /// F4 attacker emulation: the latest client complaint received while
  /// leading, kept as evidence for contesting its own deposition
  /// (kAttackProbe) — the same evidence honest followers hold, minus
  /// their complaint_wait patience.
  types::Transaction attack_complaint_tx_;
  bool has_attack_complaint_ = false;

  reputation::ReputationEngine engine_;
  crypto::RealPowSolver real_solver_;
  crypto::ModeledPowSolver modeled_solver_;

  Role role_ = Role::kFollower;
  util::Rng timeout_rng_{0};  ///< Timeout stream (mimicked under F1).
  crypto::Sha256Digest last_proposed_digest_{};
  types::View view_ = 1;
  types::ReplicaId leader_ = 0;
  util::TimeMicros view_entered_at_ = 0;
  bool replication_enabled_ = false;  ///< Leader: vcYes quorum reached.

  // Refresh overlay: effective (rp, ci) replacing the stored vcBlock values
  // until the next vcBlock folds them in (§4.2.5; see DESIGN.md).
  std::map<types::ReplicaId,
           std::pair<types::Penalty, types::CompensationIndex>>
      refresh_overlay_;

  std::map<types::SeqNum, Instance> instances_;
  std::map<types::SeqNum, ledger::TxBlock> ready_blocks_;  ///< Out-of-order.
  types::SeqNum next_seq_ = 1;
  runtime::TimerId batch_timer_ = 0;
  runtime::TimerId heartbeat_timer_ = 0;
  /// The batch-wait deadline expired while the pipeline was full: propose
  /// the partial batch as soon as a slot frees instead of waiting for
  /// another full batch_wait.
  bool partial_due_ = false;

  // Follower replication state.
  std::map<types::SeqNum, PendingBlock> pending_blocks_;
  std::map<types::SeqNum, ledger::TxBlock> buffered_commits_;
  /// Cross-view ordering binding: once this replica ordering-signs a block
  /// at sequence n, it never ordering- or commit-signs a different block at
  /// n. Since an ordering_QC needs 2f+1 signers, at most one body can ever
  /// be certified per sequence number — the invariant behind Theorem 3's
  /// intersection argument. Entries clear when n commits.
  std::map<types::SeqNum, crypto::Sha256Digest> commit_bound_;
  /// Requests inside in-flight leader instances (prevents a re-proposed
  /// body's transactions from being batched a second time).
  RequestSet inflight_tx_keys_;
  /// Block bodies a newly elected leader re-proposes first (its in-flight
  /// suffix from the previous view; preserves possibly-committed blocks).
  std::vector<ledger::TxBlock> repropose_;

  // Progress / timeout state.
  runtime::TimerId progress_timer_ = 0;
  bool progress_stale_ = false;
  runtime::TimerId rotation_timer_ = 0;

  // Complaint tracking.
  RequestMap<ComplaintState> complaints_;
  /// Probe-id -> complained request for pending complaint-wait timers (a
  /// request id does not fit the 48 payload bits of a timer tag).
  std::unordered_map<uint64_t, RequestId> complaint_probe_keys_;
  uint64_t next_complaint_probe_ = 1;

  // Inspection (ConfVC/ReVC collection).
  bool inspecting_ = false;
  VcReason inspection_reason_ = VcReason::kClientComplaint;
  crypto::QuorumCertBuilder revc_builder_;
  runtime::TimerId inspection_timer_ = 0;

  // Campaign state.
  types::View voted_view_ = 1;  ///< Highest view voted in (introspection).
  /// C1: at most one vote per view number. Entries at or below the
  /// installed view are pruned on view entry.
  std::map<types::View, types::ReplicaId> votes_by_view_;
  types::View campaign_view_ = 0;        ///< v_new being campaigned for.
  types::View confirmed_view_ = 0;       ///< View whose failure was confirmed.
  crypto::QuorumCert campaign_conf_qc_;
  types::Penalty campaign_rp_ = 0;
  types::CompensationIndex campaign_ci_ = 0;
  crypto::PowSolution campaign_solution_;
  int campaign_difficulty_bits_ = 0;
  /// Chain snapshot taken when the campaign began (redeemer entry): CalcRP,
  /// the PoW payload, and the Camp message all use this one consistent ti.
  types::SeqNum campaign_latest_n_ = 0;
  crypto::Sha256Digest campaign_payload_{};
  util::TimeMicros redeem_started_at_ = 0;
  util::DurationMicros campaign_solve_time_ = 0;
  crypto::QuorumCertBuilder vote_builder_;
  runtime::TimerId election_timer_ = 0;
  runtime::TimerId pow_timer_ = 0;
  int consecutive_election_timeouts_ = 0;
  int consecutive_pow_abandons_ = 0;
  /// Until this time, suppress starting our own inspection: we recently
  /// endorsed someone else's view change (ReVC) or voted for a candidate,
  /// so a campaign is already under way. Randomized, so concurrent
  /// candidacies (split votes) stay rare — the role the paper assigns to
  /// randomized timers (§4.2.3).
  util::TimeMicros standdown_until_ = 0;

  // Leader vcBlock acknowledgement state.
  std::optional<ledger::VcBlock> announced_vc_block_;
  crypto::QuorumCertBuilder vcyes_builder_;
  /// Catch-up before leading: highest chain height reported via vcYes and
  /// who reported it.
  types::SeqNum catchup_target_ = 0;
  runtime::NodeId catchup_source_ = 0;
  bool awaiting_catchup_ = false;

  // Refresh state.
  crypto::QuorumCertBuilder refresh_builder_;
  bool refresh_pending_ = false;

  // Sync state.
  /// Sync back-off: no new request of that kind until the deadline passes.
  /// A deadline (rather than a latch) keeps a lost SyncReq / SyncResp from
  /// suppressing catch-up forever on lossy links.
  util::TimeMicros tx_sync_backoff_until_ = 0;
  util::TimeMicros vc_sync_backoff_until_ = 0;
  std::vector<std::pair<runtime::NodeId, CampMsg>> stashed_camps_;
  std::vector<std::pair<runtime::NodeId, ledger::VcBlock>> stashed_vc_blocks_;

  // Equivocation guard: digests this replica signed per (view, seq).
  std::map<std::pair<types::View, types::SeqNum>, crypto::Sha256Digest>
      signed_ord_;
};

}  // namespace core
}  // namespace prestige

#endif  // PRESTIGE_CORE_REPLICA_H_
