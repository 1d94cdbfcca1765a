// SBFT-like baseline: linear collector-based BFT (Gueta et al., DSN'19).
//
// Round structure (fast path): pre-prepare broadcast → sign-shares to the
// collector → full-commit-proof broadcast → state-shares → execute-proof,
// then client notification. Message complexity is linear like PrestigeBFT
// and HotStuff, but the concord-style implementation verifies every client
// request signature individually with heavyweight threshold-RSA crypto,
// which dominates its throughput (the paper measures sb at ~4.9k TPS peak,
// §6.1). We model that cost with a per-transaction signature-verification
// weight on the pre-prepare message (see DESIGN.md §4).

#ifndef PRESTIGE_BASELINES_SBFT_REPLICA_H_
#define PRESTIGE_BASELINES_SBFT_REPLICA_H_

#include <map>

#include "core/messages.h"
#include "core/replica_base.h"
#include "crypto/quorum_cert.h"

namespace prestige {
namespace baselines {
namespace sbft {

/// Pre-prepare: the batch body; every replica verifies each request's
/// client signature individually (RSA-style weight).
struct SbPrePrepareMsg : public runtime::NetMessage {
  types::View v = 0;
  ledger::TxBlock block;
  crypto::Signature sig;
  /// Relative cost of one threshold-RSA client-signature verification vs
  /// the baseline HMAC verify in the cost model.
  int crypto_weight = 8;

  size_t WireSize() const override {
    size_t payload = 0;
    for (const auto& tx : block.txs()) payload += tx.WireBytes();
    return core::kHeaderBytes + payload + core::kSigBytes;
  }
  int NumSigVerifies() const override {
    return 1 + crypto_weight * static_cast<int>(block.BatchSize());
  }
  const char* Name() const override { return "SbPrePrepare"; }
};

/// Threshold signature share sent to the collector.
struct SbShareMsg : public runtime::NetMessage {
  enum class Stage : uint8_t { kCommit = 0, kExecute = 1 } stage = Stage::kCommit;
  types::View v = 0;
  types::SeqNum n = 0;
  crypto::Signature partial;

  size_t WireSize() const override {
    return core::kHeaderBytes + core::kSigBytes;
  }
  int NumSigVerifies() const override { return 4; }  // Share verification.
  const char* Name() const override { return "SbShare"; }
};

/// Collector broadcast carrying a combined proof.
struct SbProofMsg : public runtime::NetMessage {
  enum class Stage : uint8_t { kCommit = 0, kExecute = 1 } stage = Stage::kCommit;
  types::View v = 0;
  types::SeqNum n = 0;
  crypto::Sha256Digest block_digest{};
  crypto::QuorumCert proof;
  crypto::Signature sig;

  size_t WireSize() const override {
    return core::kHeaderBytes + core::kQcBytes + core::kSigBytes;
  }
  int NumSigVerifies() const override { return 2; }
  const char* Name() const override { return "SbProof"; }
};

/// Cluster parameters.
struct SbftConfig {
  uint32_t n = 4;
  size_t batch_size = 800;
  util::DurationMicros batch_wait = util::Millis(3);
  util::DurationMicros view_timeout = util::Seconds(1);
  int crypto_weight = 8;  ///< Threshold-RSA verify weight per request.

  uint32_t f() const { return types::MaxFaulty(n); }
  uint32_t quorum() const { return types::QuorumSize(n); }
};

/// Digest signed in SBFT stage `stage` for block (v, n, digest).
crypto::Sha256Digest SbStageDigest(int stage, types::View v, types::SeqNum n,
                                   const crypto::Sha256Digest& block_digest);

/// One SBFT server (leader doubles as the collector, fast path only; view
/// changes use the passive schedule like HotStuff).
class SbftReplica : public core::ReplicaBase {
 public:
  SbftReplica(SbftConfig config, types::ReplicaId id,
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
  enum TimerKind : uint64_t { kViewTimer = 1, kBatchTimer = 2 };
  // Shared 48-bit tag packing (util/timer_tag.h).
  static uint64_t Tag(TimerKind kind, uint64_t payload = 0) {
    return util::PackTimerTag(kind, payload);
  }
  static TimerKind TagKind(uint64_t tag) {
    return util::TimerTagKind<TimerKind>(tag);
  }

  bool ActingAsLeader() const override { return IsLeader(); }

  void MaybePropose(bool allow_partial);
  void OnPrePrepare(runtime::NodeId from, const SbPrePrepareMsg& msg);
  void OnProof(runtime::NodeId from, const SbProofMsg& msg);

  /// The execute-proof: SbStageDigest(1, v, n, D). Every replica that
  /// executes a block holds it (2f+1 replicas sign it only after holding
  /// the commit-proof), so a served block carries it.
  util::Status VerifyCommitCert(const ledger::TxBlock& block) const override;
  /// Drops executed pending bodies and restarts the view timer.
  void AfterCommit(const ledger::TxBlock& committed) override;

  SbftConfig config_;

  types::View view_ = 1;
  runtime::TimerId view_timer_ = 0;
  runtime::TimerId batch_timer_ = 0;

  bool proposal_active_ = false;
  ledger::TxBlock current_block_;
  int collect_stage_ = 0;
  crypto::QuorumCertBuilder share_builder_;

  /// Pre-prepared bodies. A share binds its body at its sequence (the
  /// base's body binding); without that, view drift under message loss
  /// lets two leaders certify conflicting blocks at the same height
  /// (found by the flaky-links scenario).
  std::map<types::SeqNum, ledger::TxBlock> pending_blocks_;
};

}  // namespace sbft
}  // namespace baselines
}  // namespace prestige

#endif  // PRESTIGE_BASELINES_SBFT_REPLICA_H_
