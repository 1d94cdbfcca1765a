// Unit tests for the canonical encoder (types/codec.h) and the memoized
// block digests (ledger/digest_cache.h): byte-level round-trips, domain
// separation, and cache invalidation on block mutation.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ledger/tx_block.h"
#include "ledger/vc_block.h"
#include "types/codec.h"
#include "types/transaction.h"
#include "util/small_bytes.h"

namespace prestige {
namespace types {
namespace {

// Minimal reader mirroring Encoder's wire format, so tests can round-trip
// encoded values instead of only comparing opaque byte strings.
class Decoder {
 public:
  explicit Decoder(const std::vector<uint8_t>& buf) : buf_(buf) {}

  uint8_t TakeU8() { return buf_[pos_++]; }
  uint32_t TakeU32() {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(TakeU8()) << (i * 8);
    return v;
  }
  uint64_t TakeU64() {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(TakeU8()) << (i * 8);
    return v;
  }
  int64_t TakeI64() { return static_cast<int64_t>(TakeU64()); }
  std::string TakeString() {
    const uint64_t len = TakeU64();
    std::string s(buf_.begin() + pos_, buf_.begin() + pos_ + len);
    pos_ += len;
    return s;
  }
  size_t remaining() const { return buf_.size() - pos_; }

 private:
  const std::vector<uint8_t>& buf_;
  size_t pos_ = 0;
};

// ----------------------------------------------------------- round-trips

TEST(EncoderTest, IntegersRoundTripLittleEndian) {
  Encoder enc("test");
  enc.PutU8(0xab).PutU32(0x01020304u).PutU64(0x1122334455667788ull).PutI64(-5);

  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.TakeString(), "test");  // Domain tag leads the encoding.
  EXPECT_EQ(dec.TakeU8(), 0xab);
  EXPECT_EQ(dec.TakeU32(), 0x01020304u);
  EXPECT_EQ(dec.TakeU64(), 0x1122334455667788ull);
  EXPECT_EQ(dec.TakeI64(), -5);
  EXPECT_EQ(dec.remaining(), 0u);
}

TEST(EncoderTest, StringsAndBytesRoundTrip) {
  const std::vector<uint8_t> blob = {0x00, 0xff, 0x7f};
  Encoder enc("test");
  enc.PutString("hello").PutBytes(blob).PutString("");

  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.TakeString(), "test");
  EXPECT_EQ(dec.TakeString(), "hello");
  EXPECT_EQ(dec.TakeU64(), blob.size());
  EXPECT_EQ(dec.TakeU8(), 0x00);
  EXPECT_EQ(dec.TakeU8(), 0xff);
  EXPECT_EQ(dec.TakeU8(), 0x7f);
  EXPECT_EQ(dec.TakeString(), "");
  EXPECT_EQ(dec.remaining(), 0u);
}

TEST(EncoderTest, DigestMatchesBytes) {
  Encoder a("test");
  a.PutU64(7);
  Encoder b("test");
  b.PutU64(7);
  EXPECT_EQ(a.bytes(), b.bytes());
  EXPECT_EQ(a.Digest(), b.Digest());
  EXPECT_EQ(a.Digest(), crypto::Sha256::Hash(a.bytes()));
}

// ------------------------------------------------------ domain separation

TEST(EncoderTest, IdenticalPayloadsHashDifferentlyAcrossDomains) {
  // Two message kinds carrying the same payload must never collide: a
  // signature over one could otherwise be replayed as the other.
  Encoder ord("ord");
  ord.PutI64(1).PutI64(1);
  Encoder cmt("cmt");
  cmt.PutI64(1).PutI64(1);
  EXPECT_NE(ord.Digest(), cmt.Digest());
}

TEST(EncoderTest, TagPayloadBoundaryIsUnambiguous) {
  // The length prefix prevents tag/payload concatenation ambiguity:
  // ("ab", "c") and ("a", "bc") serialize identical characters.
  Encoder a("ab");
  a.PutString("c");
  Encoder b("a");
  b.PutString("bc");
  EXPECT_NE(a.bytes(), b.bytes());
  EXPECT_NE(a.Digest(), b.Digest());
}

TEST(EncoderTest, ProtocolDigestHelpersAreDomainSeparated) {
  const crypto::Sha256Digest body{};
  EXPECT_NE(ledger::OrderingDigest(1, 1, body),
            ledger::CommitDigest(1, 1, body));
  EXPECT_NE(ledger::ConfDigest(1), ledger::VoteDigest(1, 0));
  EXPECT_NE(ledger::VcYesDigest(body), ledger::RefreshDigest(0, 1));
}

// ---------------------------------------- streaming-encoder equivalence

TEST(HashingEncoderTest, DigestMatchesMaterializingEncoder) {
  // The digest hot path streams bytes into SHA-256 without materializing
  // them; it must produce exactly the digest Encoder would.
  const std::vector<uint8_t> blob = {0x00, 0xff, 0x7f, 0x10};
  const crypto::Sha256Digest inner = crypto::Sha256::Hash(blob);

  Encoder enc("equiv");
  enc.PutU8(0xab)
      .PutU32(0x01020304u)
      .PutU64(0x1122334455667788ull)
      .PutI64(-5)
      .PutDigest(inner)
      .PutBytes(blob)
      .PutString("hello")
      .PutString("");

  HashingEncoder henc("equiv");
  henc.PutU8(0xab)
      .PutU32(0x01020304u)
      .PutU64(0x1122334455667788ull)
      .PutI64(-5)
      .PutDigest(inner)
      .PutBytes(blob)
      .PutString("hello")
      .PutString("");

  EXPECT_EQ(henc.Digest(), enc.Digest());
}

TEST(HashingEncoderTest, BytesMatchAcrossTheInlineLimit) {
  // A command's bytes (util::SmallBytes, inline or spilled) encode as a
  // u64 length, then the bytes, and both sinks agree on them.
  constexpr size_t kInline = util::SmallBytes::kInlineCapacity;
  for (const size_t len : {size_t{0}, size_t{1}, size_t{17}, kInline - 1,
                           kInline, kInline + 1, size_t{4096}}) {
    SCOPED_TRACE(len);
    std::vector<uint8_t> blob(len);
    for (size_t i = 0; i < len; ++i) blob[i] = static_cast<uint8_t>(i * 7);
    const util::SmallBytes bytes = blob;

    Encoder enc("bytes");
    enc.PutBytes(bytes).PutU8(1);
    HashingEncoder henc("bytes");
    henc.PutBytes(bytes).PutU8(1);

    Decoder dec(enc.bytes());
    EXPECT_EQ(dec.TakeString(), "bytes");
    ASSERT_EQ(dec.TakeU64(), len);
    for (size_t i = 0; i < len; ++i) ASSERT_EQ(dec.TakeU8(), blob[i]);
    EXPECT_EQ(dec.TakeU8(), 1);
    EXPECT_EQ(dec.remaining(), 0u);
    EXPECT_EQ(henc.Digest(), enc.Digest());
  }
}

TEST(HashingEncoderTest, EmptyPayloadMatchesToo) {
  Encoder enc("tagonly");
  HashingEncoder henc("tagonly");
  EXPECT_EQ(henc.Digest(), enc.Digest());
}

// --------------------------------------------------- zero-length payloads
//
// Empty vectors/strings legally report data() == nullptr; both encoder
// sinks (Encoder::Append, Sha256::Update) must tolerate a (nullptr, 0)
// append without invoking UB (caught by UBSan as a nonnull violation in
// memcpy-backed sinks before the len == 0 guards).

TEST(EncoderTest, EmptyBytesAndStringsRoundTripThroughBothSinks) {
  const std::vector<uint8_t> empty;
  Encoder enc("empty");
  enc.PutBytes(empty).PutString(std::string()).PutString("");

  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.TakeString(), "empty");
  EXPECT_EQ(dec.TakeU64(), 0u);  // PutBytes length prefix.
  EXPECT_EQ(dec.TakeString(), "");
  EXPECT_EQ(dec.TakeString(), "");
  EXPECT_EQ(dec.remaining(), 0u);

  HashingEncoder henc("empty");
  henc.PutBytes(empty).PutString(std::string()).PutString("");
  EXPECT_EQ(henc.Digest(), enc.Digest());
}

TEST(EncoderTest, EmptyCommandTransactionRoundTrips) {
  // A Transaction with an empty command payload is the synthetic-workload
  // default; its digest must be computable (PutBytes streams the empty
  // command into SHA-256) and distinct from a non-empty command.
  Transaction empty_cmd;
  empty_cmd.pool = 3;
  empty_cmd.client_seq = 9;
  empty_cmd.fingerprint = 0xfeed;
  ASSERT_TRUE(empty_cmd.command.empty());
  const crypto::Sha256Digest d1 = empty_cmd.Digest();
  EXPECT_EQ(d1, empty_cmd.Digest());  // Deterministic.

  Transaction with_cmd = empty_cmd;
  with_cmd.command = {0x01};
  EXPECT_NE(with_cmd.Digest(), d1);

  // Zero-length Sha256::Update calls leave the stream state untouched.
  crypto::Sha256 a;
  crypto::Sha256 b;
  a.Update(nullptr, 0);
  a.Update(std::vector<uint8_t>{});
  const uint8_t byte = 0x42;
  a.Update(&byte, 1);
  b.Update(&byte, 1);
  EXPECT_EQ(a.Finish(), b.Finish());
}

TEST(HashingEncoderTest, CharPointerTagMatchesStringTag) {
  // PutString(const char*) must serialize identically to the std::string
  // overload (it exists only to skip the temporary's allocation).
  Encoder a("t");
  a.PutString("payload");
  Encoder b("t");
  b.PutString(std::string("payload"));
  EXPECT_EQ(a.bytes(), b.bytes());
}

TEST(EncoderTest, ReserveDoesNotChangeBytes) {
  Encoder plain("test");
  plain.PutU64(7).PutString("x");
  Encoder reserved("test", /*reserve_bytes=*/256);
  reserved.PutU64(7).PutString("x");
  EXPECT_EQ(plain.bytes(), reserved.bytes());
}

// ------------------------------------------------- digest-cache behaviour

Transaction MakeTx(uint64_t seq) {
  Transaction tx;
  tx.pool = 0;
  tx.client_seq = seq;
  tx.fingerprint = seq * 7919 + 1;
  return tx;
}

TEST(DigestCacheTest, TxBlockMutationInvalidatesCache) {
  ledger::TxBlock block;
  block.set_n(1);
  block.set_txs({MakeTx(1), MakeTx(2)});
  const crypto::Sha256Digest initial = block.Digest();
  EXPECT_EQ(block.Digest(), initial);  // Stable while unmutated.

  block.set_n(2);
  const crypto::Sha256Digest after_n = block.Digest();
  EXPECT_NE(after_n, initial);

  crypto::Sha256Digest prev{};
  prev[0] = 0x5a;
  block.set_prev_hash(prev);
  const crypto::Sha256Digest after_prev = block.Digest();
  EXPECT_NE(after_prev, after_n);

  block.set_txs({MakeTx(3)});
  EXPECT_NE(block.Digest(), after_prev);

  // Every cached value must equal a from-scratch computation.
  ledger::TxBlock fresh;
  fresh.set_n(2);
  fresh.set_prev_hash(prev);
  fresh.set_txs({MakeTx(3)});
  EXPECT_EQ(block.Digest(), fresh.Digest());
}

TEST(DigestCacheTest, TxBlockNonIdentityFieldsDoNotAffectDigest) {
  ledger::TxBlock block;
  block.set_n(1);
  block.set_txs({MakeTx(1)});
  const crypto::Sha256Digest before = block.Digest();
  block.v = 9;
  block.status.assign(1, 0);
  block.ordering_qc.threshold = 3;
  EXPECT_EQ(block.Digest(), before);
}

TEST(DigestCacheTest, TxBlockReleaseTxsInvalidates) {
  ledger::TxBlock block;
  block.set_n(1);
  block.set_txs({MakeTx(1)});
  const crypto::Sha256Digest before = block.Digest();
  const std::vector<Transaction> txs = block.release_txs();
  EXPECT_EQ(txs.size(), 1u);
  EXPECT_EQ(block.BatchSize(), 0u);
  EXPECT_NE(block.Digest(), before);
}

TEST(DigestCacheTest, TxBlockCopyKeepsValidCache) {
  ledger::TxBlock block;
  block.set_n(1);
  block.set_txs({MakeTx(1)});
  const crypto::Sha256Digest before = block.Digest();  // Warm the cache.
  ledger::TxBlock copy = block;
  EXPECT_EQ(copy.Digest(), before);
  copy.set_n(2);  // Mutating the copy must not disturb the original.
  EXPECT_NE(copy.Digest(), before);
  EXPECT_EQ(block.Digest(), before);
}

TEST(DigestCacheTest, VcBlockMutationInvalidatesCache) {
  ledger::VcBlock block;
  block.set_v(2);
  block.set_leader(1);
  block.set_confirmed_view(1);
  block.SetPenalty(0, 1);
  block.SetCompensation(0, 1);
  const crypto::Sha256Digest initial = block.Digest();
  EXPECT_EQ(block.Digest(), initial);

  block.SetPenalty(0, 4);
  const crypto::Sha256Digest after_rp = block.Digest();
  EXPECT_NE(after_rp, initial);

  block.SetCompensation(0, 7);
  const crypto::Sha256Digest after_ci = block.Digest();
  EXPECT_NE(after_ci, after_rp);

  block.set_leader(3);
  const crypto::Sha256Digest after_leader = block.Digest();
  EXPECT_NE(after_leader, after_ci);

  block.set_confirmed_view(2);
  EXPECT_NE(block.Digest(), after_leader);

  // QCs are not part of the address.
  const crypto::Sha256Digest before_qc = block.Digest();
  block.vc_qc.threshold = 3;
  EXPECT_EQ(block.Digest(), before_qc);

  ledger::VcBlock fresh;
  fresh.set_v(2);
  fresh.set_leader(3);
  fresh.set_confirmed_view(2);
  fresh.SetPenalty(0, 4);
  fresh.SetCompensation(0, 7);
  EXPECT_EQ(block.Digest(), fresh.Digest());
}

}  // namespace
}  // namespace types
}  // namespace prestige
