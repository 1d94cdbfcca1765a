// The application service interface: what the replicated state machine
// executes and what clients get back.
//
// This replaces the earlier fire-and-forget ledger::StateMachine::Apply
// (which consumed whole blocks and returned nothing). An app::Service
// executes one command at a time and returns a Response — status plus
// opaque result bytes — which rides back to the client inside a
// types::ClientReply and is matched there against f+1 replicas' results by
// digest. Block and checkpoint boundaries are explicit hooks so services
// can batch side effects and the session layer can evict reply caches at
// deterministic points.
//
// Determinism contract: Execute must be a pure function of (service state,
// transaction). All honest replicas call Execute on the same transactions
// in the same commit order, so their StateDigest() streams must agree —
// the harness checks exactly that across replicas (harness/invariants.h).

#ifndef PRESTIGE_APP_SERVICE_H_
#define PRESTIGE_APP_SERVICE_H_

#include <cstdint>

#include "types/ids.h"
#include "types/transaction.h"
#include "util/small_bytes.h"

namespace prestige {
namespace app {

/// Outcome class of one command execution.
enum class ExecStatus : uint8_t {
  kOk = 0,        ///< Executed; `result` holds the command's output.
  kError = 1,     ///< Executed but the command itself failed (bad opcode…).
  kStaleDup = 2,  ///< Duplicate of a request whose cached reply was already
                  ///< evicted at a checkpoint; committed, result unavailable.
};

/// Result of executing one command.
struct Response {
  ExecStatus status = ExecStatus::kOk;
  util::SmallBytes result;  ///< Opaque result bytes (may be empty).
};

/// 64-bit digest of a response, used for client-side reply-quorum matching
/// (f+1 replicas must report the same digest before a request completes).
/// FNV-1a — replies are already authenticated per-replica by the transport
/// MAC model; this digest only needs to detect divergent results. Takes the
/// two fields by reference so a reply entry is digested without first being
/// copied into a Response.
inline uint64_t ResultDigest(ExecStatus status,
                             const util::SmallBytes& result) {
  uint64_t h = 1469598103934665603ULL;
  h = (h ^ static_cast<uint8_t>(status)) * 1099511628211ULL;
  for (uint8_t b : result) {
    h = (h ^ b) * 1099511628211ULL;
  }
  return h;
}

inline uint64_t ResultDigest(const Response& response) {
  return ResultDigest(response.status, response.result);
}

/// Deterministic application executed in commit order on every replica.
class Service {
 public:
  virtual ~Service() = default;

  /// Executes one committed command and returns its result. Called exactly
  /// once per distinct (pool, client_seq) — the session layer suppresses
  /// duplicates before they reach the service.
  virtual Response Execute(const types::Transaction& tx) = 0;

  /// Block boundary: every transaction of the block at height `n` (view
  /// `v`) has been executed.
  virtual void OnBlockCommitted(types::SeqNum n, types::View v) {
    (void)n;
    (void)v;
  }

  /// Checkpoint boundary (every checkpoint_interval blocks): a natural
  /// point for services to snapshot / compact. The session layer evicts
  /// cached replies here.
  virtual void OnCheckpoint(types::SeqNum n) { (void)n; }

  /// Order-sensitive digest of the applied history. Equal digests on two
  /// replicas mean they executed identical command sequences with
  /// identical results.
  virtual uint64_t StateDigest() const = 0;

  /// Number of commands executed (exactly-once count).
  virtual int64_t applied_count() const = 0;
};

/// No-op service for pure-throughput experiments: every command succeeds
/// with an empty result; the digest folds only execution order.
class NullService : public Service {
 public:
  Response Execute(const types::Transaction& tx) override {
    ++applied_;
    digest_ = digest_ * 1099511628211ULL ^
              (static_cast<uint64_t>(tx.pool) * 31 + tx.client_seq);
    return Response{};
  }
  uint64_t StateDigest() const override { return digest_; }
  int64_t applied_count() const override { return applied_; }

 private:
  int64_t applied_ = 0;
  uint64_t digest_ = 1469598103934665603ULL;
};

}  // namespace app
}  // namespace prestige

#endif  // PRESTIGE_APP_SERVICE_H_
