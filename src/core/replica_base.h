// ReplicaBase: the part of a replica that does not depend on its protocol.
//
// PrestigeReplica, HotStuffReplica and SbftReplica all derive from it. The
// base owns the replica's identity and keys, its topology, the fault plane
// (types::FaultSpec and the active-adversary policy), the request pool,
// and the step every executed block takes: execution through the
// CommitPipeline, per-pool client replies, commit metrics and the pool
// prune. Whether a request is decided is asked of the CommitPipeline's
// session table, the one record of executed requests. Phases, view change,
// pacemakers, vote/share bindings and in-order buffering stay in each
// protocol class.
//
// Every FaultSpec therefore reaches all three protocols through the same
// code: a crashed replica processes nothing (OnMessage/OnTimer check
// CrashedNow()), a quiet one emits nothing
// (GuardedSend), and an equivocating one corrupts every signature it sends
// (SignMaybeCorrupt). The only protocol input is ActingAsLeader(), which
// an F4 (kRepeatedVc) attacker's in-office misbehaviour consults.

#ifndef PRESTIGE_CORE_REPLICA_BASE_H_
#define PRESTIGE_CORE_REPLICA_BASE_H_

#include <deque>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/commit_delivery.h"
#include "core/metrics.h"
#include "crypto/keys.h"
#include "ledger/block_store.h"
#include "runtime/env.h"
#include "types/adversary.h"
#include "types/client_messages.h"
#include "types/fault_spec.h"
#include "types/ids.h"

namespace prestige {
namespace core {

/// A client request's identity: its exact (pool, client_seq). The request
/// pool, PrestigeBFT's in-flight skip and its complaint tables all key
/// requests by it.
using RequestId = std::pair<types::ClientPoolId, uint64_t>;
inline RequestId IdOf(const types::Transaction& tx) {
  return {tx.pool, tx.client_seq};
}
/// Bucket hash only; equality stays exact.
struct RequestIdHash {
  size_t operator()(const RequestId& id) const {
    return static_cast<uint64_t>(id.first) * 0x9e3779b97f4a7c15ULL ^
           id.second * 0xc2b2ae3d27d4eb4fULL;
  }
};
using RequestSet = std::unordered_set<RequestId, RequestIdHash>;
template <typename Value>
using RequestMap = std::unordered_map<RequestId, Value, RequestIdHash>;

class ReplicaBase : public runtime::Node {
 public:
  /// Wires actor ids: `replicas[i]` is replica i's actor id; `clients` are
  /// the client-pool actors to notify on commit.
  void SetTopology(std::vector<runtime::NodeId> replicas,
                   std::vector<runtime::NodeId> clients);

  /// Replaces the application service (defaults to app::NullService).
  void SetService(std::unique_ptr<app::Service> service);

  /// Installs an active-adversary policy (harness wiring only; nullptr =
  /// honest, the default). The replica consults it at its propose / reply
  /// / vote / execute sites; see types/adversary.h.
  void SetAdversary(const types::AdversaryPolicy* adversary) {
    adversary_ = adversary;
  }

  types::ReplicaId replica_id() const { return id_; }
  const ledger::BlockStore& store() const { return store_; }
  const app::Service& service() const { return delivery_.service(); }
  /// The commit-delivery pipeline (service + client session table).
  const CommitPipeline& delivery() const { return delivery_; }
  const ReplicaMetrics& metrics() const { return metrics_; }
  const types::FaultSpec& fault() const { return fault_; }
  /// Buffered requests. A commit that finds more than 8·batch_size + 1024
  /// prunes the committed ones.
  size_t pending_pool_size() const { return pending_txs_.size(); }

 protected:
  ReplicaBase(types::ReplicaId id, const crypto::KeyStore* keys,
              types::FaultSpec fault, size_t batch_size);

  /// Whether the protocol currently holds office. Consulted only for an
  /// active kRepeatedVc fault (its as_leader misbehaviour), never on the
  /// honest path.
  virtual bool ActingAsLeader() const = 0;

  runtime::NodeId ActorOf(types::ReplicaId id) const { return replicas_[id]; }
  std::vector<runtime::NodeId> PeerActors() const;  ///< All replicas but self.
  /// Replica index of actor `node`, or id_ when it is not a replica.
  types::ReplicaId ReplicaIndexOf(runtime::NodeId node) const;

  // ------------------------------------------------------------ faults

  /// The OnMessage/OnTimer crash gate.
  bool CrashedNow() const;
  bool QuietActive() const;
  bool EquivocateActive() const;

  /// Send gated by fault behaviour (F2: a quiet server emits nothing).
  void GuardedSend(runtime::NodeId to, runtime::MessagePtr msg);
  void GuardedSend(const std::vector<runtime::NodeId>& to,
                   runtime::MessagePtr msg);

  /// Signs `digest`, corrupting the MAC when equivocating (F3).
  crypto::Signature SignMaybeCorrupt(const crypto::Sha256Digest& digest);

  // Active-adversary queries (all false when no policy is installed).
  bool AdversaryWedged() const {
    return adversary_ != nullptr && adversary_->WedgeProposals(id_, Now());
  }
  bool AdversaryWithholds(types::ReplicaId target) const {
    return adversary_ != nullptr &&
           adversary_->WithholdVote(id_, target, Now());
  }

  /// Sends a leader's proposal to every peer. Under an equivocating
  /// adversary each follower group gets its own conflicting but properly
  /// signed variant, built once by `forge(variant)`; variant 0 is
  /// `proposal` itself, the body the leader's own vote covers.
  template <typename Msg, typename Forge>
  void SendProposal(const std::shared_ptr<Msg>& proposal, Forge forge) {
    if (adversary_ == nullptr) {
      GuardedSend(PeerActors(), proposal);
      return;
    }
    std::map<uint32_t, std::shared_ptr<Msg>> variants;
    variants.emplace(0u, proposal);
    for (size_t i = 0; i < replicas_.size(); ++i) {
      const auto dest = static_cast<types::ReplicaId>(i);
      if (dest == id_) continue;
      const uint32_t variant = adversary_->ProposalVariant(id_, dest, Now());
      auto it = variants.find(variant);
      if (it == variants.end()) {
        it = variants.emplace(variant, forge(variant)).first;
      }
      GuardedSend(replicas_[i], it->second);
    }
  }
  /// Perturbs every fingerprint for proposal variant `variant`: the block
  /// digest changes while the batch stays well-formed.
  static void PerturbFingerprints(std::vector<types::Transaction>& txs,
                                  uint32_t variant) {
    for (types::Transaction& tx : txs) {
      tx.fingerprint ^= 0x9e3779b97f4a7c15ULL * variant;
    }
  }

  // ------------------------------------------------------ request pool

  /// Refuses a request with client_seq 0 and counts it invalid. Sessions
  /// are 1-based and never record seq 0 (client_session.h), so a committed
  /// seq-0 request would otherwise be re-admitted on every resubmission.
  bool RefuseSeqZero(const types::Transaction& tx) {
    if (tx.client_seq == 0) ++metrics_.invalid_messages;
    return tx.client_seq == 0;
  }
  /// Buffers `tx` unless it has seq 0 or is already committed or buffered.
  void EnqueueTx(const types::Transaction& tx);
  /// Pops up to `max` pool entries, dropping committed ones and, when
  /// given, those in `in_flight`.
  std::vector<types::Transaction> TakeBatch(
      size_t max, const RequestSet* in_flight = nullptr);
  /// Whether `tx` is decided: the session table is the one record.
  bool Committed(const types::Transaction& tx) const {
    return delivery_.Executed(tx.pool, tx.client_seq);
  }
  /// A complaint about an already committed `tx`: re-serves its cached
  /// reply (the client missed the originals) and returns true.
  bool ReplyIfCommitted(const types::Transaction& tx, types::View v);

  /// The executed-block step: executes `block` exactly once (a tampered
  /// copy under a forged-reply adversary), routes the per-pool replies,
  /// counts the commit and prunes the request pool.
  void DeliverCommitted(const ledger::TxBlock& block);

  const types::ReplicaId id_;
  const crypto::KeyStore* const keys_;
  crypto::Signer signer_;
  const types::FaultSpec fault_;
  /// Active-adversary interposer (nullptr = honest; harness-owned).
  const types::AdversaryPolicy* adversary_ = nullptr;

  std::vector<runtime::NodeId> replicas_;
  std::vector<runtime::NodeId> clients_;

  ledger::BlockStore store_;
  CommitPipeline delivery_;
  ReplicaMetrics metrics_;

 private:
  const size_t pool_limit_;
  // Request pool: every replica buffers the broadcast requests; only the
  // leader proposes. Committed entries linger until proposal time or the
  // amortized prune in DeliverCommitted.
  std::deque<types::Transaction> pending_txs_;
  RequestSet pending_keys_;  ///< Requests in pending_txs_.
};

}  // namespace core
}  // namespace prestige

#endif  // PRESTIGE_CORE_REPLICA_BASE_H_
