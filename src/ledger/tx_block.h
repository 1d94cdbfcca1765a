// txBlock: the deterministic result of one replication consensus instance.
//
// Mirrors Figure 3 of the paper:
//   header    — view number v, block index n, addresses of this block and
//               the previous txBlock (hash chaining);
//   agreement — ordering_QC and commit_QC;
//   payload   — tx[] and per-transaction status[].

#ifndef PRESTIGE_LEDGER_TX_BLOCK_H_
#define PRESTIGE_LEDGER_TX_BLOCK_H_

#include <type_traits>
#include <utility>
#include <vector>

#include "crypto/quorum_cert.h"
#include "crypto/sha256.h"
#include "ledger/digest_cache.h"
#include "types/codec.h"
#include "types/ids.h"
#include "types/transaction.h"

namespace prestige {
namespace ledger {

/// One committed batch of transactions.
///
/// The identity fields (n, prev_hash, txs) are private behind mutators so
/// the memoized Digest() can never go stale: every write invalidates the
/// cache. Fields the digest does not cover (v, status, QCs) stay public.
/// The transactions live in a shared immutable types::TxList, so copying
/// or moving a block never copies its body.
class TxBlock {
 public:
  types::View v = 0;
  std::vector<uint8_t> status;  ///< Per-tx consensus result (1 = committed).

  crypto::QuorumCert ordering_qc;
  crypto::QuorumCert commit_qc;

  types::SeqNum n() const { return n_; }
  void set_n(types::SeqNum n) {
    n_ = n;
    cache_.Invalidate();
  }

  const crypto::Sha256Digest& prev_hash() const { return prev_hash_; }
  void set_prev_hash(const crypto::Sha256Digest& h) {
    prev_hash_ = h;
    cache_.Invalidate();
  }

  /// The transactions; an empty list when the block has no body.
  const std::vector<types::Transaction>& txs() const {
    return body_ != nullptr ? *body_ : kNoTxs;
  }
  /// The shared, immutable body (null reads as empty). Copying a block
  /// shares its body; nothing writes through it.
  const types::TxList& body() const { return body_; }
  /// Adopts `body` as-is: the block shares it with every other holder.
  void set_txs(types::TxList body) {
    body_ = std::move(body);
    cache_.Invalidate();
  }
  void set_txs(std::vector<types::Transaction> txs) {
    set_txs(types::MakeTxList(std::move(txs)));
  }
  /// Copies the batch out for a writer (the shared body stays as other
  /// holders see it); the block is left empty.
  std::vector<types::Transaction> release_txs() {
    std::vector<types::Transaction> txs = this->txs();
    set_txs(types::TxList{});
    return txs;
  }

  /// Digest of the block body, i.e. the block's address. Memoized; valid
  /// until the next identity-field mutation.
  ///
  /// Identity = (n, prev_hash, transactions). The view is deliberately
  /// excluded (like PBFT's request digests): a new leader re-proposing an
  /// in-flight block in a higher view keeps the same block identity, so
  /// followers commit-bound to it by an earlier view still converge. QCs
  /// certify the block and are likewise not part of the address.
  const crypto::Sha256Digest& Digest() const {
    return cache_.Get([this] {
      types::HashingEncoder enc("txblock");
      enc.PutI64(n_).PutDigest(prev_hash_).PutDigest(types::BatchDigest(txs()));
      return enc.Digest();
    });
  }

  /// Number of transactions (the batch size beta of this block).
  size_t BatchSize() const { return txs().size(); }

 private:
  types::SeqNum n_ = 0;
  crypto::Sha256Digest prev_hash_{};  ///< Address of the previous txBlock.
  types::TxList body_;
  DigestCache cache_;

  static inline const std::vector<types::Transaction> kNoTxs;
};

// A std::vector<TxBlock> (the chain) relocates by move only when this
// holds; otherwise every capacity doubling deep-copies every block.
static_assert(std::is_nothrow_move_constructible_v<TxBlock>);

/// Digest signed in the ordering phase for block (v, n, body).
crypto::Sha256Digest OrderingDigest(types::View v, types::SeqNum n,
                                    const crypto::Sha256Digest& block_digest);

/// Digest signed in the commit phase for block (v, n, body).
crypto::Sha256Digest CommitDigest(types::View v, types::SeqNum n,
                                  const crypto::Sha256Digest& block_digest);

}  // namespace ledger
}  // namespace prestige

#endif  // PRESTIGE_LEDGER_TX_BLOCK_H_
