// vcBlock: the deterministic result of one view-change consensus instance.
//
// Mirrors Figure 3 of the paper:
//   header           — view number v, leader id, addresses of this and the
//                      previous vcBlock;
//   election         — conf_QC (confirming the leader failure, threshold
//                      f+1) and vc_QC (confirming leadership legitimacy,
//                      threshold 2f+1);
//   reputation       — rp[Id] and ci[Id] maps for every server.

#ifndef PRESTIGE_LEDGER_VC_BLOCK_H_
#define PRESTIGE_LEDGER_VC_BLOCK_H_

#include <map>
#include <type_traits>

#include "crypto/quorum_cert.h"
#include "crypto/sha256.h"
#include "ledger/digest_cache.h"
#include "types/codec.h"
#include "types/ids.h"

namespace prestige {
namespace ledger {

/// One view-change consensus result.
///
/// Everything the address covers (header + reputation segment) is private
/// behind mutators so the memoized Digest() can never go stale. The QCs
/// certify the block, are excluded from the address, and stay public.
class VcBlock {
 public:
  crypto::QuorumCert conf_qc;  ///< f+1 confirmation of the leader failure.
  crypto::QuorumCert vc_qc;    ///< 2f+1 votes electing the leader.

  types::View v() const { return v_; }
  void set_v(types::View v) {
    v_ = v;
    cache_.Invalidate();
  }

  types::ReplicaId leader() const { return leader_; }
  void set_leader(types::ReplicaId leader) {
    leader_ = leader;
    cache_.Invalidate();
  }

  /// The view whose failure conf_qc confirms (v - 1 normally; lower when
  /// split-vote retries skipped views). Lets any server recompute the
  /// conf_qc digest.
  types::View confirmed_view() const { return confirmed_view_; }
  void set_confirmed_view(types::View v) {
    confirmed_view_ = v;
    cache_.Invalidate();
  }

  const crypto::Sha256Digest& prev_hash() const { return prev_hash_; }
  void set_prev_hash(const crypto::Sha256Digest& h) {
    prev_hash_ = h;
    cache_.Invalidate();
  }

  const std::map<types::ReplicaId, types::Penalty>& rp() const { return rp_; }
  const std::map<types::ReplicaId, types::CompensationIndex>& ci() const {
    return ci_;
  }
  void SetPenalty(types::ReplicaId id, types::Penalty penalty) {
    rp_[id] = penalty;
    cache_.Invalidate();
  }
  void SetCompensation(types::ReplicaId id, types::CompensationIndex index) {
    ci_[id] = index;
    cache_.Invalidate();
  }

  /// Penalty of `id`, defaulting to the paper's initial value 1.
  types::Penalty PenaltyOf(types::ReplicaId id) const {
    auto it = rp_.find(id);
    return it == rp_.end() ? 1 : it->second;
  }

  /// Compensation index of `id`, defaulting to the initial value 1.
  types::CompensationIndex CompensationOf(types::ReplicaId id) const {
    auto it = ci_.find(id);
    return it == ci_.end() ? 1 : it->second;
  }

  /// Address of this block: header + full reputation segment. Memoized;
  /// valid until the next mutation of a covered field.
  const crypto::Sha256Digest& Digest() const {
    return cache_.Get([this] {
      types::HashingEncoder enc("vcblock");
      enc.PutI64(v_).PutU32(leader_).PutI64(confirmed_view_).PutDigest(
          prev_hash_);
      enc.PutU64(rp_.size());
      for (const auto& [id, penalty] : rp_) {
        enc.PutU32(id).PutI64(penalty);
      }
      enc.PutU64(ci_.size());
      for (const auto& [id, index] : ci_) {
        enc.PutU32(id).PutI64(index);
      }
      return enc.Digest();
    });
  }

 private:
  types::View v_ = 0;
  types::ReplicaId leader_ = 0;
  types::View confirmed_view_ = 0;
  crypto::Sha256Digest prev_hash_{};  ///< Address of the previous vcBlock.
  std::map<types::ReplicaId, types::Penalty> rp_;
  std::map<types::ReplicaId, types::CompensationIndex> ci_;
  DigestCache cache_;
};

// The vcBlock chain grows by push_back too; keep its relocation a move.
static_assert(std::is_nothrow_move_constructible_v<VcBlock>);

/// Digest signed by ReVC replies confirming the failure of view v's leader.
crypto::Sha256Digest ConfDigest(types::View v);

/// Digest signed by VoteCP votes electing `candidate` for view v_new.
crypto::Sha256Digest VoteDigest(types::View v_new,
                                types::ReplicaId candidate);

/// Digest signed by vcYes acknowledgements of a vcBlock.
crypto::Sha256Digest VcYesDigest(const crypto::Sha256Digest& vc_block_digest);

/// Digest signed by refresh supporters for server `id` at view v (§4.2.5).
crypto::Sha256Digest RefreshDigest(types::ReplicaId id, types::View v);

}  // namespace ledger
}  // namespace prestige

#endif  // PRESTIGE_LEDGER_VC_BLOCK_H_
