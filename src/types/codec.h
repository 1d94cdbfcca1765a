// Canonical byte encoding for digest / signature computation.
//
// Every signed or hashed protocol structure is serialized through an
// encoder with a leading domain-separation tag, so digests of different
// message kinds can never collide.
//
// Two encoders share one canonical byte layout (EncoderBase):
//  * Encoder        — materializes the byte vector; use when the bytes
//                     themselves are needed (wire stubs, tests).
//  * HashingEncoder — streams every appended byte straight into an
//                     incremental Sha256, never building the vector. The
//                     digest hot path (one digest per protocol message)
//                     uses this: zero allocation, zero buffer copy.
// For identical Put sequences the two produce identical digests — asserted
// by tests/codec_test.cc.

#ifndef PRESTIGE_TYPES_CODEC_H_
#define PRESTIGE_TYPES_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "util/small_bytes.h"

namespace prestige {
namespace types {

/// Append-only canonical encoding (little-endian fixed-width integers)
/// over a derived-class byte sink with `Append(const uint8_t*, size_t)`.
template <typename Derived>
class EncoderBase {
 public:
  Derived& PutU8(uint8_t v) {
    self().Append(&v, 1);
    return self();
  }
  Derived& PutU32(uint32_t v) {
    uint8_t b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<uint8_t>(v >> (i * 8));
    self().Append(b, 4);
    return self();
  }
  Derived& PutU64(uint64_t v) {
    uint8_t b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<uint8_t>(v >> (i * 8));
    self().Append(b, 8);
    return self();
  }
  Derived& PutI64(int64_t v) { return PutU64(static_cast<uint64_t>(v)); }
  Derived& PutDigest(const crypto::Sha256Digest& d) {
    self().Append(d.data(), d.size());
    return self();
  }
  /// u64 length, then the bytes. A std::vector<uint8_t> converts.
  Derived& PutBytes(const util::SmallBytes& b) {
    PutU64(b.size());
    self().Append(b.data(), b.size());
    return self();
  }
  Derived& PutString(const std::string& s) {
    PutU64(s.size());
    self().Append(reinterpret_cast<const uint8_t*>(s.data()), s.size());
    return self();
  }
  /// Same layout as the std::string overload, without materializing a
  /// temporary string (domain tags are literals on the digest hot path).
  Derived& PutString(const char* s) {
    const size_t len = std::strlen(s);
    PutU64(len);
    self().Append(reinterpret_cast<const uint8_t*>(s), len);
    return self();
  }

 private:
  Derived& self() { return static_cast<Derived&>(*this); }
};

/// Encoder that materializes the canonical bytes.
class Encoder : public EncoderBase<Encoder> {
 public:
  /// Starts an encoding with a domain-separation tag. There is no tagless
  /// constructor on purpose: every digest in the system must commit to its
  /// message kind, or digests of two kinds with identical payloads could
  /// collide and a signature for one could be replayed as the other.
  explicit Encoder(const char* domain_tag) { PutString(domain_tag); }

  /// As above, pre-reserving `reserve_bytes` of buffer so large encodings
  /// (e.g. a whole transaction batch) append without reallocation.
  Encoder(const char* domain_tag, size_t reserve_bytes) {
    buf_.reserve(reserve_bytes);
    PutString(domain_tag);
  }

  /// Pre-reserves capacity for at least `total_bytes` of encoded output.
  void Reserve(size_t total_bytes) { buf_.reserve(total_bytes); }

  const std::vector<uint8_t>& bytes() const { return buf_; }

  /// SHA-256 of everything encoded so far.
  crypto::Sha256Digest Digest() const { return crypto::Sha256::Hash(buf_); }

 private:
  // Only the Put* framing layer may append: raw unframed bytes would make
  // field boundaries ambiguous and void the no-collision argument above.
  friend class EncoderBase<Encoder>;
  void Append(const uint8_t* data, size_t len) {
    // Empty PutBytes/PutString payloads hand us data() == nullptr, and a
    // (nullptr, nullptr) insert range is UB even at length zero.
    if (len == 0) return;
    buf_.insert(buf_.end(), data, data + len);
  }

  std::vector<uint8_t> buf_;
};

/// Encoder that streams into SHA-256 without materializing the bytes.
/// Digest() finalizes the hash; encode-then-digest once, then discard.
class HashingEncoder : public EncoderBase<HashingEncoder> {
 public:
  explicit HashingEncoder(const char* domain_tag) { PutString(domain_tag); }

  /// Digest of everything encoded so far. Finalizes the underlying hash:
  /// call exactly once, as the last operation.
  crypto::Sha256Digest Digest() { return sha_.Finish(); }

 private:
  friend class EncoderBase<HashingEncoder>;
  void Append(const uint8_t* data, size_t len) { sha_.Update(data, len); }

  crypto::Sha256 sha_;
};

}  // namespace types
}  // namespace prestige

#endif  // PRESTIGE_TYPES_CODEC_H_
