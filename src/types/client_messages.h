// Client <-> replica messages shared by every protocol implementation
// (PrestigeBFT and all baselines), so one ClientPool drives them all.

#ifndef PRESTIGE_TYPES_CLIENT_MESSAGES_H_
#define PRESTIGE_TYPES_CLIENT_MESSAGES_H_

#include <type_traits>
#include <vector>

#include "runtime/message.h"
#include "types/ids.h"
#include "types/transaction.h"
#include "util/small_bytes.h"

namespace prestige {
namespace types {

/// A group of independent client proposals broadcast to all replicas.
///
/// Each entry is a separate Prop in the paper; aggregation is a simulation
/// device (one event per g proposals) — the cost model still charges the
/// replica g base processing units and the full payload bytes.
struct ClientBatch : public runtime::NetMessage {
  std::vector<Transaction> txs;

  size_t WireSize() const override {
    size_t total = 0;
    for (const Transaction& tx : txs) total += tx.WireBytes();
    return total;
  }
  int CostUnits() const override { return static_cast<int>(txs.size()); }
  const char* Name() const override { return "ClientBatch"; }
};

/// One request's execution outcome inside a ClientReply.
struct ReplyEntry {
  uint64_t client_seq = 0;
  uint8_t status = 0;           ///< app::ExecStatus of the execution.
  bool duplicate = false;       ///< Served from the replica's reply cache.
  uint64_t result_digest = 0;   ///< app::ResultDigest(status, result).
  util::SmallBytes result;      ///< Opaque execution result bytes.
};

// A ClientReply's entries grow in a vector; see Transaction's assert.
static_assert(std::is_nothrow_move_constructible_v<ReplyEntry>);

/// Client reply (the successor of the paper's commit Notif): a replica
/// tells a client pool that the listed requests committed at sequence `n`
/// AND what each one's execution produced.
///
/// A client considers a request complete once f+1 distinct replicas have
/// replied with the *same result digest* (§4.3 commit rule, strengthened to
/// cover execution results).
struct ClientReply : public runtime::NetMessage {
  ReplicaId replica = 0;
  View v = 0;
  SeqNum n = 0;
  ClientPoolId pool = 0;  ///< Destination pool; entries all belong to it.
  std::vector<ReplyEntry> entries;

  size_t WireSize() const override {
    size_t total = 80;
    for (const ReplyEntry& e : entries) total += 26 + e.result.size();
    return total;
  }
  const char* Name() const override { return "ClientReply"; }
};

/// Client complaint (the paper's Compt): broadcast when a request misses its
/// deadline; carries the original proposal.
struct ClientComplaint : public runtime::NetMessage {
  Transaction tx;

  size_t WireSize() const override { return tx.WireBytes() + 80; }
  const char* Name() const override { return "ClientComplaint"; }
};

}  // namespace types
}  // namespace prestige

#endif  // PRESTIGE_TYPES_CLIENT_MESSAGES_H_
