// Basic (non-chained) HotStuff baseline with a passive view-change protocol.
//
// The paper's primary comparator (§6): three quorum-certificate phases
// (prepare, pre-commit, commit) plus a decide broadcast — the extra phase
// relative to PrestigeBFT is precisely the sync-up cost HotStuff pays for
// its passive pacemaker (§1, §4.3 of the paper). Leadership follows the
// predefined schedule L = V mod n; view changes occur on leader timeout
// (with exponential back-off) or the timing policy (r10/r30), and cannot
// skip an already-crashed scheduled leader.
//
// Shares the simulation substrate, client messages, ledger, and — through
// core::ReplicaBase — the fault gates, request pool and commit delivery
// with PrestigeBFT, so harness experiments drive both identically.

#ifndef PRESTIGE_BASELINES_HOTSTUFF_REPLICA_H_
#define PRESTIGE_BASELINES_HOTSTUFF_REPLICA_H_

#include <map>

#include "core/messages.h"
#include "core/replica_base.h"
#include "crypto/quorum_cert.h"

namespace prestige {
namespace baselines {
namespace hotstuff {

/// HotStuff protocol phases.
enum class HsPhase : uint8_t {
  kPrepare = 0,
  kPreCommit = 1,
  kCommit = 2,
  kDecide = 3,
};

const char* HsPhaseName(HsPhase phase);

/// Digest signed by votes of `phase` for block (v, n, digest).
crypto::Sha256Digest HsVoteDigest(HsPhase phase, types::View v,
                                  types::SeqNum n,
                                  const crypto::Sha256Digest& block_digest);

/// Leader proposal carrying the batch body (the prepare broadcast).
struct HsProposalMsg : public runtime::NetMessage {
  types::View v = 0;
  ledger::TxBlock block;
  crypto::Signature sig;

  size_t WireSize() const override {
    size_t payload = 0;
    for (const auto& tx : block.txs()) payload += tx.WireBytes();
    return core::kHeaderBytes + payload + core::kSigBytes;
  }
  int NumSigVerifies() const override { return 1; }
  const char* Name() const override { return "HsProposal"; }
};

/// Follower vote: partial signature for one phase.
struct HsVoteMsg : public runtime::NetMessage {
  types::View v = 0;
  HsPhase phase = HsPhase::kPrepare;
  types::SeqNum n = 0;
  crypto::Sha256Digest block_digest{};
  crypto::Signature partial;

  size_t WireSize() const override {
    return core::kHeaderBytes + core::kSigBytes;
  }
  int NumSigVerifies() const override { return 1; }
  const char* Name() const override { return "HsVote"; }
};

/// Leader phase broadcast carrying the QC of the previous phase.
struct HsPhaseMsg : public runtime::NetMessage {
  types::View v = 0;
  HsPhase phase = HsPhase::kPreCommit;  // kPreCommit / kCommit / kDecide.
  types::SeqNum n = 0;
  crypto::Sha256Digest block_digest{};
  crypto::QuorumCert justify;
  crypto::Signature sig;

  size_t WireSize() const override {
    return core::kHeaderBytes + core::kQcBytes + core::kSigBytes;
  }
  // libhotstuff verifies each of the quorum's secp256k1 signatures
  // individually when checking a QC (no threshold aggregation), which is
  // the dominant per-phase cost and the known scaling bottleneck.
  int NumSigVerifies() const override {
    return 1 + static_cast<int>(justify.partials.size());
  }
  const char* Name() const override { return "HsPhase"; }
};

/// Pacemaker message sent to the next scheduled leader on view advance.
struct HsNewViewMsg : public runtime::NetMessage {
  types::View v = 0;           ///< The view being entered.
  types::SeqNum latest_n = 0;  ///< Sender's chain height.
  crypto::Signature sig;

  size_t WireSize() const override {
    return core::kHeaderBytes + core::kQcBytes + core::kSigBytes;
  }
  int NumSigVerifies() const override { return 1; }
  const char* Name() const override { return "HsNewView"; }
};

/// Cluster parameters (mirrors the paper's hs configuration).
struct HotStuffConfig {
  uint32_t n = 4;
  size_t batch_size = 1000;
  util::DurationMicros batch_wait = util::Millis(3);
  /// Initial view timeout (paper: 1 s), doubled per consecutive failure.
  util::DurationMicros view_timeout = util::Seconds(1);
  util::DurationMicros max_view_timeout = util::Seconds(8);
  /// Timing policy: rotate every r (0 = only on failure).
  util::DurationMicros rotation_period = 0;

  uint32_t f() const { return types::MaxFaulty(n); }
  uint32_t quorum() const { return types::QuorumSize(n); }
};

/// One HotStuff server.
class HotStuffReplica : public core::ReplicaBase {
 public:
  HotStuffReplica(HotStuffConfig config, types::ReplicaId id,
                  const crypto::KeyStore* keys,
                  types::FaultSpec fault = types::FaultSpec::Honest());

  void OnStart() override;
  void OnMessage(runtime::NodeId from, const runtime::MessagePtr& msg) override;
  void OnTimer(uint64_t tag) override;

  types::View view() const { return view_; }
  types::ReplicaId current_leader() const {
    return static_cast<types::ReplicaId>(view_ % config_.n);
  }
  bool IsLeader() const { return current_leader() == id_; }

 private:
  enum TimerKind : uint64_t {
    kViewTimer = 1,
    kBatchTimer = 2,
    kRotationTimer = 3,
    kNoiseTimer = 4,
  };
  // Shared 48-bit tag packing (util/timer_tag.h).
  static uint64_t Tag(TimerKind kind, uint64_t payload = 0) {
    return util::PackTimerTag(kind, payload);
  }
  static TimerKind TagKind(uint64_t tag) {
    return util::TimerTagKind<TimerKind>(tag);
  }

  bool ActingAsLeader() const override { return IsLeader(); }

  void EnterView(types::View v, bool failed);
  void AdvanceView(bool failed);
  void MaybePropose(bool allow_partial);
  void OnProposal(runtime::NodeId from, const HsProposalMsg& msg);
  void OnVote(runtime::NodeId from, const HsVoteMsg& msg);
  void OnPhase(runtime::NodeId from, const HsPhaseMsg& msg);
  void OnNewView(runtime::NodeId from, const HsNewViewMsg& msg);
  void ArmViewTimer();

  /// The commitQC: HsVoteDigest(kCommit, v, n, D).
  util::Status VerifyCommitCert(const ledger::TxBlock& block) const override;
  /// Drops decided pending bodies and counts the decision as view progress.
  void AfterCommit(const ledger::TxBlock& committed) override;

  HotStuffConfig config_;

  types::View view_ = 1;
  int consecutive_failures_ = 0;
  runtime::TimerId view_timer_ = 0;
  runtime::TimerId rotation_timer_ = 0;
  runtime::TimerId batch_timer_ = 0;

  // Leader state: the single in-flight proposal (basic HotStuff has no
  // pipelining — one decision per view sequence of phases).
  bool proposal_active_ = false;
  ledger::TxBlock current_block_;
  HsPhase collect_phase_ = HsPhase::kPrepare;
  crypto::QuorumCertBuilder vote_builder_;

  /// Follower state for the in-flight proposal. The base's body binding
  /// plays the role of basic HotStuff's lock rule: a vote in any phase
  /// binds the body at its sequence, so views drifting under message loss
  /// never certify two bodies at one height (found by the flaky-links
  /// scenario).
  std::map<types::SeqNum, ledger::TxBlock> pending_blocks_;
};

}  // namespace hotstuff
}  // namespace baselines
}  // namespace prestige

#endif  // PRESTIGE_BASELINES_HOTSTUFF_REPLICA_H_
