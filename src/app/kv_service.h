// KvService: the replicated key-value store, rewritten as a command-encoded
// app::Service (successor of the fingerprint-driven ledger::KvStateMachine).
//
// Commands are opaque bytes carried in Transaction::command:
//   Put  [0x01][key u64 LE][value u64 LE]  -> result: previous value (u64)
//   Get  [0x02][key u64 LE]                -> result: current value (u64)
// A transaction with an *empty* command is treated as a fingerprint-derived
// Put (key = fingerprint % key_space, value = fingerprint) — the migration
// path for workloads that predate real command payloads, and byte-for-byte
// the old KvStateMachine semantics.

#ifndef PRESTIGE_APP_KV_SERVICE_H_
#define PRESTIGE_APP_KV_SERVICE_H_

#include <cstdint>
#include <unordered_map>

#include "app/service.h"
#include "util/small_bytes.h"

namespace prestige {
namespace app {
namespace kv {

enum Op : uint8_t { kPut = 0x01, kGet = 0x02 };

inline void AppendU64(util::SmallBytes& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<uint8_t>(v >> (i * 8)));
}

inline uint64_t ReadU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (i * 8);
  return v;
}

// Commands and results fit util::SmallBytes' inline buffer: encoding one
// allocates nothing.
inline util::SmallBytes EncodePut(uint64_t key, uint64_t value) {
  util::SmallBytes cmd;
  cmd.push_back(kPut);
  AppendU64(cmd, key);
  AppendU64(cmd, value);
  return cmd;
}

inline util::SmallBytes EncodeGet(uint64_t key) {
  util::SmallBytes cmd;
  cmd.push_back(kGet);
  AppendU64(cmd, key);
  return cmd;
}

/// Encodes a u64 result (Put's previous value / Get's value).
inline util::SmallBytes EncodeValue(uint64_t v) {
  util::SmallBytes result;
  AppendU64(result, v);
  return result;
}

/// Decodes a u64 result (Put's previous value / Get's value). Returns 0 for
/// malformed results.
inline uint64_t DecodeValue(const util::SmallBytes& result) {
  return result.size() == 8 ? ReadU64(result.data()) : 0;
}

}  // namespace kv

/// Deterministic KV store over command-encoded Put/Get.
class KvService : public Service {
 public:
  explicit KvService(uint64_t key_space = 1024)
      : key_space_(key_space == 0 ? 1 : key_space) {}

  Response Execute(const types::Transaction& tx) override {
    Response response;
    uint64_t key = 0;
    uint64_t value = 0;
    uint8_t op = kv::kPut;
    const util::SmallBytes& cmd = tx.command;
    if (cmd.empty()) {
      // Legacy fingerprint-derived Put (see header comment).
      key = tx.fingerprint % key_space_;
      value = tx.fingerprint;
    } else if (cmd[0] == kv::kPut && cmd.size() == 17) {
      key = kv::ReadU64(cmd.data() + 1) % key_space_;
      value = kv::ReadU64(cmd.data() + 9);
    } else if (cmd[0] == kv::kGet && cmd.size() == 9) {
      op = kv::kGet;
      key = kv::ReadU64(cmd.data() + 1) % key_space_;
    } else {
      response.status = ExecStatus::kError;
      Fold(0xbad, 0xbad);
      ++applied_;
      return response;
    }

    if (op == kv::kPut) {
      uint64_t& slot = map_[key];
      response.result = kv::EncodeValue(slot);  // Previous value.
      slot = value;
      Fold(key, value);
    } else {
      auto it = map_.find(key);
      const uint64_t current = it == map_.end() ? 0 : it->second;
      response.result = kv::EncodeValue(current);
      Fold(key, ~current);  // Reads fold too: order-sensitive history.
    }
    ++applied_;
    return response;
  }

  uint64_t StateDigest() const override { return state_digest_; }
  int64_t applied_count() const override { return applied_; }

  /// Value for `key`, or 0 if absent (local inspection; goes through
  /// consensus only when issued as a Get command).
  uint64_t Get(uint64_t key) const {
    auto it = map_.find(key % key_space_);
    return it == map_.end() ? 0 : it->second;
  }

  size_t size() const { return map_.size(); }

 private:
  void Fold(uint64_t key, uint64_t value) {
    state_digest_ = state_digest_ * 1099511628211ULL ^ (key * 31 + value);
  }

  uint64_t key_space_;
  std::unordered_map<uint64_t, uint64_t> map_;
  int64_t applied_ = 0;
  uint64_t state_digest_ = 1469598103934665603ULL;
};

}  // namespace app
}  // namespace prestige

#endif  // PRESTIGE_APP_KV_SERVICE_H_
