// Client transactions as carried through consensus.
//
// A Transaction records its origin, timing, size, and the opaque command
// the application service will execute. Workloads that only measure
// consensus (no real application) leave `command` empty and rely on the
// random `fingerprint` for content identity; sizes feed the bandwidth
// model either way.

#ifndef PRESTIGE_TYPES_TRANSACTION_H_
#define PRESTIGE_TYPES_TRANSACTION_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "types/codec.h"
#include "types/ids.h"
#include "util/small_bytes.h"
#include "util/time.h"

namespace prestige {
namespace types {

/// One client request (the paper's ⟨Prop, t, d, c, σc, tx⟩).
struct Transaction {
  ClientPoolId pool = 0;          ///< Originating client pool / session.
  uint64_t client_seq = 0;        ///< Unique per-pool request number.
  /// Consensus group the client routed this request to (sharded
  /// deployments; 0 — the only group — when unsharded). Covered by the
  /// digest so a relayed proposal cannot be silently re-homed.
  GroupId group = 0;
  util::TimeMicros sent_at = 0;   ///< The client timestamp t.
  uint32_t payload_size = 32;     ///< m: modelled request payload bytes.
  uint64_t fingerprint = 0;       ///< Content stand-in when command is empty.
  /// Opaque command bytes executed by app::Service (empty for synthetic
  /// consensus-only workloads). Inline up to
  /// util::SmallBytes::kInlineCapacity bytes: a KV command allocates nothing.
  util::SmallBytes command;

  bool operator==(const Transaction& other) const {
    return pool == other.pool && client_seq == other.client_seq &&
           group == other.group && sent_at == other.sent_at &&
           payload_size == other.payload_size &&
           fingerprint == other.fingerprint && command == other.command;
  }

  /// Canonical digest d of the request (covers the command payload).
  crypto::Sha256Digest Digest() const {
    HashingEncoder enc("tx");
    enc.PutU32(pool)
        .PutU64(client_seq)
        .PutU32(group)
        .PutI64(sent_at)
        .PutU32(payload_size)
        .PutU64(fingerprint)
        .PutBytes(command);
    return enc.Digest();
  }

  /// Wire bytes of the full proposal (payload + header + client signature).
  /// Real command bytes dominate `payload_size` when both are present.
  size_t WireBytes() const {
    return std::max<size_t>(payload_size, command.size()) + 72;
  }
};

// Batches, pools and chains hold transactions in growing vectors; a
// throwing move would make every relocation deep-copy the commands.
static_assert(std::is_nothrow_move_constructible_v<Transaction>);

/// A block body: one immutable transaction list shared by every holder of
/// the block (proposal, pending block, commit message, chain). Nothing
/// writes through it; a writer copies the list out and wraps its own. A
/// null list reads as an empty body.
using TxList = std::shared_ptr<const std::vector<Transaction>>;

inline TxList MakeTxList(std::vector<Transaction> txs) {
  return std::make_shared<const std::vector<Transaction>>(std::move(txs));
}

/// Digest covering an ordered list of transactions (a batch body).
crypto::Sha256Digest BatchDigest(const std::vector<Transaction>& txs);

}  // namespace types
}  // namespace prestige

#endif  // PRESTIGE_TYPES_TRANSACTION_H_
