// Wire codec for the socket backend: every runtime::NetMessage that can
// legitimately cross a process boundary gets a byte-exact encoding, and the
// decode path treats its input as hostile.
//
// Design rules:
//   * one field list per wire type — wire.cc lists each message's and each
//     component's fields once, in wire order, and both EncodeMessage and
//     DecodeMessage walk that list, so the two directions cannot drift;
//   * a bound lives where its field is listed: a vector's element type
//     carries its count cap (kMax... constants below) and its minimum
//     element size, and an enum or range-checked integer names its bound
//     in the field list itself;
//   * one buffer per encode — EncodeMessage first walks the field list in
//     a size pass to learn the exact size, grows the caller's buffer
//     once, then walks it again with a net::Writer: a cursor that
//     stores each fixed-width field with one store and each byte string
//     with one copy, straight into the caller's bytes (no staging buffer);
//     both walks run the same FieldWriter code, so the size and the bytes
//     cannot disagree;
//   * bounds-checked reads only — a net::Reader carries an ok() flag that
//     latches false on the first out-of-range read and poisons every
//     subsequent accessor, so decoders never branch on uninitialised data;
//     each fixed-width field is one load behind that one bounds check;
//   * every length prefix is validated against both its cap and the bytes
//     actually remaining, so a hostile count can neither overflow a vector
//     reserve nor force a multi-gigabyte allocation;
//   * DecodeMessage returns nullptr on any malformation (unknown kind,
//     truncation, oversized field, trailing bytes) — the caller counts the
//     drop; partial objects are never visible to protocol code;
//   * messages that exist only for in-process marshalling (the client's
//     SubmitRequestMsg closure carrier) have no wire form: EncodeMessage
//     returns false and the runtime falls back to local delivery.
//
// This codec is deliberately distinct from types::Encoder (codec.h): that
// family exists for domain-separated *hashing* with a globally unique tag
// registry; this one is a plain little-endian transport serializer whose
// output is never hashed or signed directly.
//
// Fixed-width fields are copied between the wire and host integers with
// std::memcpy, so the wire's byte order is the host's: a static_assert
// below refuses a big-endian build rather than letting it speak a
// byte-swapped dialect.

#ifndef PRESTIGE_NET_WIRE_H_
#define PRESTIGE_NET_WIRE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "crypto/sha256.h"
#include "runtime/message.h"

namespace prestige {
namespace net {

// Hostile-input caps. Generous relative to every real workload (batches top
// out in the low thousands), tight relative to memory exhaustion.
constexpr uint64_t kMaxWireTxs = 1 << 16;       ///< Txs per batch / block.
constexpr uint64_t kMaxWireBytes = 1 << 20;     ///< Bytes per byte string.
constexpr uint64_t kMaxWirePartials = 1 << 12;  ///< Signatures per QC.
constexpr uint64_t kMaxWireBlocks = 1 << 13;    ///< Blocks per SyncResp.
constexpr uint64_t kMaxWireEntries = 1 << 16;   ///< Entries per ClientReply.
constexpr uint64_t kMaxWireMapEntries = 1 << 12;  ///< rp/ci map entries.
constexpr uint64_t kMaxWireNoise = 1 << 20;     ///< Modelled noise bytes.

static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "net::Writer/net::Reader copy integers with memcpy, which is "
              "only the little-endian wire format on a little-endian host");

/// Little-endian cursor writer (transport serialization only — see header
/// comment for why this is not a types::Encoder). It writes into the
/// caller's bytes [pos, end), which the caller has already sized (the
/// codec with a size pass over the same Put calls), so no Put checks
/// capacity or allocates; running past `end` is a caller bug (asserted).
class Writer {
 public:
  Writer(uint8_t* pos, uint8_t* end) : pos_(pos), end_(end) {}

  void PutU8(uint8_t v) { Store(v); }
  void PutU16(uint16_t v) { Store(v); }
  void PutU32(uint32_t v) { Store(v); }
  void PutU64(uint64_t v) { Store(v); }
  void PutI64(int64_t v) { Store(static_cast<uint64_t>(v)); }
  void PutDigest(const crypto::Sha256Digest& d) { PutRaw(d.data(), d.size()); }
  /// u32 length prefix + raw bytes (a std::vector<uint8_t> or a
  /// util::SmallBytes field).
  void PutBytes(const uint8_t* data, size_t len) {
    PutU32(static_cast<uint32_t>(len));
    PutRaw(data, len);
  }
  void PutRaw(const uint8_t* data, size_t len) {
    assert(static_cast<size_t>(end_ - pos_) >= len);
    if (len > 0) std::memcpy(pos_, data, len);
    pos_ += len;
  }

  /// True once every byte of [pos, end) has been written.
  bool at_end() const { return pos_ == end_; }

 private:
  template <class T>
  void Store(T v) {
    assert(static_cast<size_t>(end_ - pos_) >= sizeof(T));
    std::memcpy(pos_, &v, sizeof(T));
    pos_ += sizeof(T);
  }

  uint8_t* pos_;
  uint8_t* end_;
};

/// Bounds-checked little-endian reader over untrusted bytes. Accessors
/// return 0 / empty once ok() is false; callers check ok() exactly once at
/// the end of a decode instead of after every field.
class Reader {
 public:
  Reader(const uint8_t* data, size_t len) : data_(data), len_(len) {}

  uint8_t U8() { return Load<uint8_t>(); }
  uint16_t U16() { return Load<uint16_t>(); }
  uint32_t U32() { return Load<uint32_t>(); }
  uint64_t U64() { return Load<uint64_t>(); }
  int64_t I64() { return static_cast<int64_t>(Load<uint64_t>()); }

  crypto::Sha256Digest Digest() {
    crypto::Sha256Digest d{};
    if (!Need(d.size())) return d;
    std::memcpy(d.data(), data_ + pos_, d.size());
    pos_ += d.size();
    return d;
  }

  /// u32 length prefix + raw bytes into `out` (a std::vector<uint8_t> or
  /// a util::SmallBytes: anything with assign(first, last)), rejecting
  /// lengths above `max_len` or beyond the remaining input; `out` is left
  /// as it was on a rejection.
  template <class ByteString>
  void Bytes(uint64_t max_len, ByteString& out) {
    const uint32_t n = U32();
    if (!ok_ || n > max_len || !Need(n)) {
      ok_ = false;
      return;
    }
    out.assign(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
  }

  /// u32 element-count prefix capped at `max_count`; also rejects counts
  /// that could not possibly fit in the remaining bytes (each element needs
  /// at least `min_element_bytes`), so a hostile count cannot drive a huge
  /// loop or allocation.
  uint64_t Count(uint64_t max_count, uint64_t min_element_bytes = 1) {
    const uint32_t n = U32();
    if (!ok_ || n > max_count ||
        static_cast<uint64_t>(n) * min_element_bytes > remaining()) {
      ok_ = false;
      return 0;
    }
    return n;
  }

  bool ok() const { return ok_; }
  size_t remaining() const { return ok_ ? len_ - pos_ : 0; }
  void Fail() { ok_ = false; }

 private:
  bool Need(size_t n) {
    if (!ok_ || len_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  template <class T>
  T Load() {
    if (!Need(sizeof(T))) return 0;
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// Wire discriminator: first byte of every encoded message. Values are
/// frozen — append, never renumber.
enum class MsgKind : uint8_t {
  // PrestigeBFT (core/messages.h).
  kOrd = 1,
  kOrdReply = 2,
  kCmt = 3,
  kCmtReply = 4,
  kTxBlock = 5,
  kComptRelay = 6,
  kConfVc = 7,
  kReVc = 8,
  kCamp = 9,
  kVoteCp = 10,
  kVcBlock = 11,
  kVcYes = 12,
  kRef = 13,
  kRefReply = 14,
  kRdone = 15,
  kSyncReq = 16,
  kSyncResp = 17,
  kHeartbeat = 18,
  kNoise = 19,
  // Client plane (types/client_messages.h).
  kClientBatch = 32,
  kClientReply = 33,
  kClientComplaint = 34,
  // HotStuff baseline.
  kHsProposal = 48,
  kHsVote = 49,
  kHsPhase = 50,
  kHsNewView = 51,
  // SBFT baseline.
  kSbPrePrepare = 64,
  kSbShare = 65,
  kSbProof = 66,
};

/// Appends the full wire form (kind byte + body) of `msg` to `out`, after
/// whatever `out` already holds, growing it once to the exact size.
/// Returns false, with `out` untouched, when the concrete type has no wire
/// encoding (in-process marshal messages) — the caller decides between
/// local delivery and drop.
bool EncodeMessage(const runtime::NetMessage& msg, std::vector<uint8_t>* out);

/// Decodes one message from untrusted bytes. Returns nullptr on ANY
/// malformation: unknown kind, truncation, field over its cap, out-of-range
/// enum value, or trailing bytes after a complete body. Never throws, never
/// reads out of range, never returns a partially initialised message.
runtime::MessagePtr DecodeMessage(const uint8_t* data, size_t len);

}  // namespace net
}  // namespace prestige

#endif  // PRESTIGE_NET_WIRE_H_
