// PrestigeReplica::PreVerify — the stateless message prologues that the
// threaded backend's OrderedRunner executes on worker threads (see
// runtime/ordered_runner.h). Each prologue may touch only immutable state:
// the message itself, keys_ (KeyStore::Verify is const and thread-safe),
// and config_. Everything view- or ledger-dependent stays in the handler,
// which runs as the epilogue on the node's loop thread, strictly in
// receive order.
//
// Splitting discipline per message type:
//   * Ord / Cmt / Heartbeat / ComptRelay / ConfVc — expected digest derives
//     purely from message fields, so signature (and Cmt's ordering_QC)
//     verification moves wholesale to the prologue.
//   * ReVc / VoteCp — the handler checks against a QuorumCertBuilder
//     digest, but its guards pin that digest to a message-derived value
//     (ConfDigest(msg.v) resp. VoteDigest(v_new, candidate)), so the
//     stateless verdict is exact whenever the handler would consume it.
//   * Camp — signature, C2 conf_QC, the snapshot-block hash, and the C5
//     PoW hash move off-loop; C4 (reputation recomputation against our
//     store) and the snapshot-vs-own-chain comparison stay in the handler,
//     which re-anchors the prologue verdicts before trusting them.
//   * TxBlock / SyncResp — no split, but the prologue pre-warms the
//     DigestCache (concurrency-safe publish) so the loop-thread hashing
//     the handler performs becomes a cache hit.
//   * Reply types (OrdReply, CmtReply, VcYes) are verified against live
//     builder state, so they are declined entirely: the whole handler
//     runs as the epilogue.
//
// Every epilogue is CrashGated (core/replica_base.h): a kCrash fault may
// activate in the window between prologue and epilogue, and a crashed
// replica must process nothing.

#include <memory>

#include "core/replica.h"

namespace prestige {
namespace core {

runtime::Node::VerdictFn PrestigeReplica::PreVerify(
    runtime::NodeId from, const runtime::MessagePtr& msg) {
  if (auto m = std::dynamic_pointer_cast<const OrdMsg>(msg)) {
    auto pre = std::make_shared<OrdMsg::Verified>();
    pre->block.v = m->v;
    pre->block.set_n(m->n);
    pre->block.set_prev_hash(m->prev_hash);
    pre->block.set_txs(m->txs);
    pre->block.status.assign(pre->block.BatchSize(), 1);
    pre->block_digest = pre->block.Digest();
    pre->ord_digest = ledger::OrderingDigest(m->v, m->n, pre->block_digest);
    pre->sig_ok = keys_->Verify(m->sig, pre->ord_digest);
    return CrashGated([this, from, m, pre] { OnOrd(from, *m, pre.get()); });
  }
  if (auto m = std::dynamic_pointer_cast<const CmtMsg>(msg)) {
    auto pre = std::make_shared<CmtMsg::Verified>();
    const crypto::Sha256Digest ord_digest =
        ledger::OrderingDigest(m->v, m->n, m->block_digest);
    pre->qc_ok = crypto::VerifyQuorumCert(*keys_, m->ordering_qc, ord_digest,
                                          config_.quorum())
                     .ok();
    pre->cmt_digest = ledger::CommitDigest(m->v, m->n, m->block_digest);
    pre->sig_ok = keys_->Verify(m->sig, pre->cmt_digest);
    return CrashGated([this, from, m, pre] { OnCmt(from, *m, pre.get()); });
  }
  if (auto m = std::dynamic_pointer_cast<const HeartbeatMsg>(msg)) {
    auto pre = std::make_shared<HeartbeatMsg::Verified>();
    pre->sig_ok = keys_->Verify(m->sig, HeartbeatDigest(m->v, m->latest_n));
    return CrashGated(
        [this, from, m, pre] { OnHeartbeat(from, *m, pre.get()); });
  }
  if (auto m = std::dynamic_pointer_cast<const ComptRelayMsg>(msg)) {
    auto pre = std::make_shared<ComptRelayMsg::Verified>();
    pre->sig_ok = keys_->Verify(m->sig, m->tx.Digest());
    return CrashGated(
        [this, from, m, pre] { OnComptRelay(from, *m, pre.get()); });
  }
  if (auto m = std::dynamic_pointer_cast<const ConfVcMsg>(msg)) {
    auto pre = std::make_shared<ConfVcMsg::Verified>();
    pre->sig_ok = keys_->Verify(m->sig, ledger::ConfDigest(m->v));
    return CrashGated([this, from, m, pre] { OnConfVc(from, *m, pre.get()); });
  }
  if (auto m = std::dynamic_pointer_cast<const ReVcMsg>(msg)) {
    auto pre = std::make_shared<ReVcMsg::Verified>();
    pre->sig_ok = keys_->Verify(m->partial, ledger::ConfDigest(m->v));
    return CrashGated([this, from, m, pre] { OnReVc(from, *m, pre.get()); });
  }
  if (auto m = std::dynamic_pointer_cast<const CampMsg>(msg)) {
    auto pre = std::make_shared<CampMsg::Verified>();
    pre->sig_ok = keys_->Verify(m->sig, CampaignDigest(*m));
    pre->conf_qc_ok = crypto::VerifyQuorumCert(*keys_, m->conf_qc,
                                               ledger::ConfDigest(m->v),
                                               config_.confirm())
                          .ok();
    pre->snapshot_digest = m->latest_tx_block.Digest();
    if (config_.pow_mode == PowMode::kReal) {
      // Same payload rule as VerifyCampaign: the snapshot block's digest,
      // or the zero digest for an empty chain. The handler only consumes
      // pow_ok after proving snapshot_digest equals its own chain's block
      // at latest_n and the claimed bits equal the required bits.
      const crypto::Sha256Digest payload =
          m->latest_n > 0 ? pre->snapshot_digest : crypto::Sha256Digest{};
      const int required_bits = config_.pow.DifficultyBits(m->rp);
      pre->pow_ok = crypto::PowVerify(payload, m->nonce, required_bits);
    }
    return CrashGated([this, from, m, pre] { OnCamp(from, *m, pre.get()); });
  }
  if (auto m = std::dynamic_pointer_cast<const VoteCpMsg>(msg)) {
    auto pre = std::make_shared<VoteCpMsg::Verified>();
    pre->sig_ok = keys_->Verify(
        m->partial, ledger::VoteDigest(m->v_new, m->candidate));
    return CrashGated([this, from, m, pre] { OnVoteCp(from, *m, pre.get()); });
  }
  if (auto m = std::dynamic_pointer_cast<const TxBlockMsg>(msg)) {
    // No verdict to precompute, but hashing the block here publishes its
    // digest into the (concurrency-safe) DigestCache, so the handler's
    // Digest() call, when it commits the message's body instead of its
    // pending one, is a cache hit on the loop thread.
    (void)m->block.Digest();
    return nullptr;
  }
  if (auto m = std::dynamic_pointer_cast<const SyncRespMsg>(msg)) {
    for (const ledger::TxBlock& b : m->tx_blocks) (void)b.Digest();
    return nullptr;
  }
  (void)from;
  return nullptr;  // Decline: the full handler runs as the epilogue.
}

}  // namespace core
}  // namespace prestige
