// PrestigeBFT protocol messages (replication §4.3, view change §4.2).
//
// WireSize() models the physical encoding: QCs are threshold signatures of
// constant size (the O(1) property of §4.1); batches carry their payload
// bytes; block-carrying messages ship headers, not payloads, unless they
// serve SyncUp.

#ifndef PRESTIGE_CORE_MESSAGES_H_
#define PRESTIGE_CORE_MESSAGES_H_

#include <vector>

#include "crypto/quorum_cert.h"
#include "ledger/tx_block.h"
#include "ledger/vc_block.h"
#include "runtime/message.h"
#include "types/ids.h"
#include "types/transaction.h"

namespace prestige {
namespace core {

constexpr size_t kSigBytes = 64;   ///< One signature on the wire.
constexpr size_t kQcBytes = 80;    ///< One combined threshold signature.
constexpr size_t kHeaderBytes = 48;

/// Phase-1 proposal: ⟨Ord, ⟨Prop...⟩, n, V, σ⟩ — carries the batch body.
struct OrdMsg : public runtime::NetMessage {
  types::View v = 0;
  types::SeqNum n = 0;
  crypto::Sha256Digest prev_hash{};
  std::vector<types::Transaction> txs;
  crypto::Signature sig;  ///< Leader signature over OrderingDigest.

  size_t WireSize() const override {
    size_t payload = 0;
    for (const auto& tx : txs) payload += tx.WireBytes();
    return kHeaderBytes + payload + kSigBytes;
  }
  int NumSigVerifies() const override { return 1; }
  const char* Name() const override { return "Ord"; }
};

/// Follower reply to Ord: a partial signature over OrderingDigest.
struct OrdReplyMsg : public runtime::NetMessage {
  types::View v = 0;
  types::SeqNum n = 0;
  crypto::Signature partial;

  size_t WireSize() const override { return kHeaderBytes + kSigBytes; }
  int NumSigVerifies() const override { return 1; }
  const char* Name() const override { return "OrdReply"; }
};

/// Phase-2 message: ⟨Cmt, ordering_QC, V, σ⟩.
struct CmtMsg : public runtime::NetMessage {
  types::View v = 0;
  types::SeqNum n = 0;
  crypto::Sha256Digest block_digest{};
  crypto::QuorumCert ordering_qc;
  crypto::Signature sig;

  size_t WireSize() const override {
    return kHeaderBytes + kQcBytes + kSigBytes;
  }
  int NumSigVerifies() const override { return 2; }  // QC + leader sig.
  const char* Name() const override { return "Cmt"; }
};

/// Follower reply to Cmt: a partial signature over CommitDigest.
struct CmtReplyMsg : public runtime::NetMessage {
  types::View v = 0;
  types::SeqNum n = 0;
  crypto::Signature partial;

  size_t WireSize() const override { return kHeaderBytes + kSigBytes; }
  int NumSigVerifies() const override { return 1; }
  const char* Name() const override { return "CmtReply"; }
};

/// Final txBlock broadcast. Followers already hold the batch body from Ord,
/// so the wire carries header + QCs + status bits only.
struct TxBlockMsg : public runtime::NetMessage {
  ledger::TxBlock block;

  size_t WireSize() const override {
    return kHeaderBytes + 2 * kQcBytes + block.status.size() / 8 + 8;
  }
  int NumSigVerifies() const override { return 1; }  // commit_QC.
  const char* Name() const override { return "TxBlock"; }
};

/// Complaint relayed from a follower to the leader (§4.2.1 line 2).
struct ComptRelayMsg : public runtime::NetMessage {
  types::Transaction tx;
  crypto::Signature sig;

  size_t WireSize() const override {
    return tx.WireBytes() + kHeaderBytes + kSigBytes;
  }
  int NumSigVerifies() const override { return 1; }
  const char* Name() const override { return "ComptRelay"; }
};

/// Why a view change is being confirmed.
enum class VcReason : uint8_t {
  kClientComplaint = 0,  ///< A relayed complaint went uncommitted.
  kTimeout = 1,          ///< Leader progress timeout expired.
  kPolicy = 2,           ///< Timing policy (r10/r30) fired.
};

/// Inspection broadcast: ⟨ConfVC, V, σ⟩ (§4.2.1 line 6).
struct ConfVcMsg : public runtime::NetMessage {
  types::View v = 0;
  VcReason reason = VcReason::kClientComplaint;
  types::Transaction tx;  ///< The complained tx (kClientComplaint only).
  crypto::Signature sig;

  size_t WireSize() const override {
    return kHeaderBytes + tx.WireBytes() + kSigBytes;
  }
  int NumSigVerifies() const override { return 1; }
  const char* Name() const override { return "ConfVC"; }
};

/// Reply supporting a view change: partial over ConfDigest(v).
struct ReVcMsg : public runtime::NetMessage {
  types::View v = 0;
  crypto::Signature partial;

  size_t WireSize() const override { return kHeaderBytes + kSigBytes; }
  int NumSigVerifies() const override { return 1; }
  const char* Name() const override { return "ReVC"; }
};

/// Campaign broadcast (Algorithm 2 line 43).
struct CampMsg : public runtime::NetMessage {
  crypto::QuorumCert conf_qc;  ///< f+1 confirmation of the old view's failure.
  types::View v = 0;           ///< View in which the failure was confirmed.
  types::View v_new = 0;       ///< View campaigned for.
  types::Penalty rp = 0;       ///< Claimed penalty (verified via C4).
  types::CompensationIndex ci = 0;
  uint64_t nonce = 0;          ///< PoW nonce nc.
  crypto::Sha256Digest hash_result{};  ///< Claimed hr.
  int claimed_difficulty_bits = 0;     ///< Difficulty the work was done at.
  ledger::TxBlock latest_tx_block;     ///< Candidate's newest txBlock (C3).
  types::SeqNum latest_n = 0;
  types::View latest_vc_view = 0;      ///< Candidate's vcBlock view.
  crypto::Signature sig;

  size_t WireSize() const override {
    // conf_QC + header + nonce/hash + latest block header.
    return kQcBytes + kHeaderBytes + 40 + 2 * kHeaderBytes + kSigBytes;
  }
  int NumSigVerifies() const override { return 3; }  // sig + conf_QC + C5.
  const char* Name() const override { return "Camp"; }
};

/// Vote for a candidate: partial over VoteDigest(v_new, candidate).
struct VoteCpMsg : public runtime::NetMessage {
  types::View v_new = 0;
  types::ReplicaId candidate = 0;
  crypto::Signature partial;

  size_t WireSize() const override { return kHeaderBytes + kSigBytes; }
  int NumSigVerifies() const override { return 1; }
  const char* Name() const override { return "VoteCP"; }
};

/// New-leader vcBlock broadcast (§4.2.4).
struct VcBlockMsg : public runtime::NetMessage {
  ledger::VcBlock block;

  size_t WireSize() const override {
    return kHeaderBytes + 2 * kQcBytes + block.rp().size() * 24;
  }
  int NumSigVerifies() const override { return 2; }  // conf_QC + vc_QC.
  const char* Name() const override { return "VcBlockMsg"; }
};

/// Acknowledgement of a vcBlock: partial over VcYesDigest. Carries the
/// follower's chain height so a marginally-behind new leader can catch up
/// before proposing.
struct VcYesMsg : public runtime::NetMessage {
  types::View v = 0;
  types::SeqNum latest_n = 0;
  crypto::Signature partial;

  size_t WireSize() const override { return kHeaderBytes + kSigBytes; }
  int NumSigVerifies() const override { return 1; }
  const char* Name() const override { return "VcYes"; }
};

/// Refresh request: ⟨Ref, V, σ⟩ (§4.2.5).
struct RefMsg : public runtime::NetMessage {
  types::View v = 0;
  crypto::Signature sig;

  size_t WireSize() const override { return kHeaderBytes + kSigBytes; }
  int NumSigVerifies() const override { return 1; }
  const char* Name() const override { return "Ref"; }
};

/// Support for a refresh: partial over RefreshDigest(target, v).
struct RefReplyMsg : public runtime::NetMessage {
  types::ReplicaId target = 0;
  types::View v = 0;
  crypto::Signature partial;

  size_t WireSize() const override { return kHeaderBytes + kSigBytes; }
  int NumSigVerifies() const override { return 1; }
  const char* Name() const override { return "RefReply"; }
};

/// Refresh completion: ⟨Rdone, rs_QC, V, rp, ci, σ⟩.
struct RdoneMsg : public runtime::NetMessage {
  types::ReplicaId target = 0;
  types::View v = 0;
  crypto::QuorumCert rs_qc;
  crypto::Signature sig;

  size_t WireSize() const override {
    return kHeaderBytes + kQcBytes + kSigBytes;
  }
  int NumSigVerifies() const override { return 2; }
  const char* Name() const override { return "Rdone"; }
};

/// SyncUp request (§4.2.3): fetch blocks in (after, up_to].
struct SyncReqMsg : public runtime::NetMessage {
  enum class Kind : uint8_t { kTxBlocks, kVcBlocks } kind = Kind::kTxBlocks;
  int64_t after = 0;
  int64_t up_to = 0;

  size_t WireSize() const override { return kHeaderBytes; }
  const char* Name() const override { return "SyncReq"; }
};

/// SyncUp response: the requested block ranges (validated via their QCs).
struct SyncRespMsg : public runtime::NetMessage {
  std::vector<ledger::TxBlock> tx_blocks;
  std::vector<ledger::VcBlock> vc_blocks;

  size_t WireSize() const override {
    size_t total = kHeaderBytes;
    for (const auto& b : tx_blocks) {
      total += kHeaderBytes + 2 * kQcBytes;
      for (const auto& tx : b.txs()) total += tx.WireBytes();
    }
    total += vc_blocks.size() * (kHeaderBytes + 2 * kQcBytes + 64);
    return total;
  }
  int NumSigVerifies() const override {
    return static_cast<int>(tx_blocks.size() + vc_blocks.size());
  }
  const char* Name() const override { return "SyncResp"; }
};

/// Leader liveness beacon; resets follower progress timers when idle.
struct HeartbeatMsg : public runtime::NetMessage {
  types::View v = 0;
  types::SeqNum latest_n = 0;
  crypto::Signature sig;

  size_t WireSize() const override { return kHeaderBytes + kSigBytes; }
  int NumSigVerifies() const override { return 1; }
  const char* Name() const override { return "Heartbeat"; }
};

/// Junk broadcast used by equivocating attackers (F3) to burn bandwidth.
struct NoiseMsg : public runtime::NetMessage {
  size_t bytes = 1024;
  size_t WireSize() const override { return bytes; }
  const char* Name() const override { return "Noise"; }
};

/// Digest a candidate signs over its campaign message.
inline crypto::Sha256Digest CampaignDigest(const CampMsg& camp) {
  types::HashingEncoder enc("camp");
  enc.PutI64(camp.v)
      .PutI64(camp.v_new)
      .PutI64(camp.rp)
      .PutI64(camp.ci)
      .PutU64(camp.nonce)
      .PutI64(camp.latest_n)
      .PutU8(static_cast<uint8_t>(camp.claimed_difficulty_bits));
  return enc.Digest();
}

/// Digest signed by heartbeats.
inline crypto::Sha256Digest HeartbeatDigest(types::View v, types::SeqNum n) {
  types::HashingEncoder enc("heartbeat");
  enc.PutI64(v).PutI64(n);
  return enc.Digest();
}

}  // namespace core
}  // namespace prestige

#endif  // PRESTIGE_CORE_MESSAGES_H_
