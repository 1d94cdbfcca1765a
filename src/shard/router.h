// shard::Router — deterministic hash-partitioning of the keyspace across
// parallel consensus groups.
//
// A sharded deployment runs G independent consensus groups (each its own
// replica set, leader, views, and reputation state) over one runtime
// backend. The Router is the single authority on key ownership: every
// key routes to exactly one group, the mapping is a pure function of
// (key, num_groups, salt), and every layer — workload generators picking
// keys for their group, clients stamping Transaction::group, and the
// harness's cross-group safety sweep — consults the same function. That
// is what makes "no key ever executes in two groups" checkable: the
// invariant reduces to "every committed transaction sits in the group the
// Router says owns its routing key".
//
// Routing key of a transaction: the KV key for command-encoded Put/Get
// payloads, the fingerprint otherwise (opaque consensus-only workloads and
// the legacy empty-command fingerprint-Put migration path both route on
// the fingerprint, mirroring app::KvService's key derivation).
//
// This header is deployment-layer vocabulary, like types/: protocol code
// (core/, baselines/, client/, app/) never includes it — groups reach the
// protocol only as the opaque Transaction::group tag (enforced by the
// prestige_lint layering rule).

#ifndef PRESTIGE_SHARD_ROUTER_H_
#define PRESTIGE_SHARD_ROUTER_H_

#include <cstdint>
#include <string>

#include "app/kv_service.h"
#include "types/ids.h"
#include "types/transaction.h"
#include "util/small_bytes.h"

namespace prestige {
namespace shard {

/// Hash-partitions u64 routing keys over `num_groups` consensus groups.
class Router {
 public:
  /// Default mixing salt: shared by every layer of a deployment so the
  /// generator-side and checker-side mappings agree.
  static constexpr uint64_t kDefaultSalt = 0x5ca1ab1e0ddba11ULL;

  explicit Router(uint32_t num_groups, uint64_t salt = kDefaultSalt)
      : num_groups_(num_groups == 0 ? 1 : num_groups), salt_(salt) {}

  uint32_t num_groups() const { return num_groups_; }
  uint64_t salt() const { return salt_; }

  /// Owning group of `key`. SplitMix64-style avalanche then modulo, so
  /// adjacent keys (and zipfian head ranks) spread across groups.
  types::GroupId GroupForKey(uint64_t key) const {
    return static_cast<types::GroupId>(Mix(key ^ salt_) % num_groups_);
  }

  /// The key a transaction routes on: the KV key when the command decodes
  /// as a Put/Get, the fingerprint otherwise (see header comment).
  static uint64_t RoutingKey(const types::Transaction& tx) {
    const util::SmallBytes& cmd = tx.command;
    if (!cmd.empty()) {
      if (cmd[0] == app::kv::kPut && cmd.size() == 17) {
        return app::kv::ReadU64(cmd.data() + 1);
      }
      if (cmd[0] == app::kv::kGet && cmd.size() == 9) {
        return app::kv::ReadU64(cmd.data() + 1);
      }
    }
    return tx.fingerprint;
  }

  /// Owning group of a transaction's routing key.
  types::GroupId GroupForTransaction(const types::Transaction& tx) const {
    return GroupForKey(RoutingKey(tx));
  }

 private:
  static uint64_t Mix(uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  uint32_t num_groups_;
  uint64_t salt_;
};

/// Checks one committed transaction against the router's assignment:
/// `group` is the consensus group whose chain carries it. Returns true
/// when consistent; otherwise fills `violation` with a description. Used
/// per-block by the harness's cross-group safety sweep and directly
/// unit-testable on raw transactions.
inline bool VerifyRoutingAssignment(const Router& router,
                                    types::GroupId group,
                                    const types::Transaction& tx,
                                    std::string* violation) {
  const uint64_t key = Router::RoutingKey(tx);
  const types::GroupId owner = router.GroupForKey(key);
  if (owner != group) {
    *violation = "transaction with routing key " + std::to_string(key) +
                 " committed in group " + std::to_string(group) +
                 " but the router assigns it to group " +
                 std::to_string(owner);
    return false;
  }
  if (tx.group != group) {
    *violation = "transaction with routing key " + std::to_string(key) +
                 " committed in group " + std::to_string(group) +
                 " but was stamped for group " + std::to_string(tx.group);
    return false;
  }
  return true;
}

}  // namespace shard
}  // namespace prestige

#endif  // PRESTIGE_SHARD_ROUTER_H_
