// Wire codec + datagram framing hardening tests (src/net/).
//
// Two layers under test, both of which treat their input as hostile:
//   * net::EncodeMessage / net::DecodeMessage — byte-exact transport
//     serialization for every cross-process message type; any malformed
//     input must yield nullptr, never UB (the ASan/UBSan CI matrix runs
//     this suite, which is what makes the adversarial corpus meaningful);
//   * net::FrameWriter / net::FrameAssembler — datagram framing with
//     fragmentation, per-(src,dst) sequence tracking, and counted drops;
//   * net::Crc32c — the frame checksum: known vectors, and the SSE4.2
//     kernel against the portable one.
//
// The roundtrip strategy avoids per-field comparisons: decode(encode(m))
// must re-encode to the identical byte string, which proves full fidelity
// for every field the codec carries.

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/hotstuff/hotstuff_replica.h"
#include "baselines/sbft/sbft_replica.h"
#include "core/messages.h"
#include "crypto/sha256.h"
#include "net/address.h"
#include "net/crc32c_kernel.h"
#include "net/frame.h"
#include "net/wire.h"
#include "types/client_messages.h"
#include "util/random.h"
#include "util/small_bytes.h"

namespace prestige {
namespace net {
namespace {

types::Transaction SampleTx(uint32_t pool, uint64_t seq) {
  types::Transaction tx;
  tx.pool = pool;
  tx.client_seq = seq;
  tx.group = 3;
  tx.sent_at = 123456789;
  tx.payload_size = 64;
  tx.fingerprint = 0xfeedface00ull + seq;
  tx.command = {0x01, 0x02, 0x03, static_cast<uint8_t>(seq)};
  return tx;
}

crypto::Signature SampleSig(uint32_t signer) {
  crypto::Signature sig;
  sig.signer = signer;
  for (size_t i = 0; i < sig.mac.size(); ++i) {
    sig.mac[i] = static_cast<uint8_t>(signer + i);
  }
  return sig;
}

crypto::QuorumCert SampleQc() {
  crypto::QuorumCert qc;
  for (size_t i = 0; i < qc.digest.size(); ++i) {
    qc.digest[i] = static_cast<uint8_t>(0xa0 + i);
  }
  qc.threshold = 3;
  qc.partials = {SampleSig(0), SampleSig(1), SampleSig(2)};
  return qc;
}

ledger::TxBlock SampleBlock(int64_t n) {
  ledger::TxBlock b;
  b.v = 7;
  b.set_n(n);
  crypto::Sha256Digest prev{};
  prev[0] = static_cast<uint8_t>(n);
  b.set_prev_hash(prev);
  b.set_txs({SampleTx(0, 1), SampleTx(1, 2)});
  b.status = {0xde, 0xad};
  b.ordering_qc = SampleQc();
  b.commit_qc = SampleQc();
  return b;
}

ledger::VcBlock SampleVcBlock() {
  ledger::VcBlock b;
  b.set_v(9);
  b.set_leader(2);
  b.set_confirmed_view(8);
  crypto::Sha256Digest prev{};
  prev[1] = 0x42;
  b.set_prev_hash(prev);
  b.SetPenalty(0, 5);
  b.SetPenalty(3, -2);
  b.SetCompensation(1, 7);
  b.conf_qc = SampleQc();
  b.vc_qc = SampleQc();
  return b;
}

/// One instance of every one of the 29 message kinds the codec carries,
/// exercising every component serializer (tx, tx vector, block, vc block,
/// QC, sig, reply entries, enums), plus a NoiseMsg above its wire cap.
std::vector<runtime::MessagePtr> SampleMessages() {
  std::vector<runtime::MessagePtr> out;

  auto ord = std::make_shared<core::OrdMsg>();
  ord->v = 3;
  ord->n = 17;
  ord->prev_hash = crypto::Sha256Digest{};
  ord->txs = types::MakeTxList({SampleTx(0, 1), SampleTx(2, 9)});
  ord->sig = SampleSig(1);
  out.push_back(ord);

  auto cmt = std::make_shared<core::CmtMsg>();
  cmt->v = 3;
  cmt->n = 17;
  cmt->block_digest = SampleQc().digest;
  cmt->ordering_qc = SampleQc();
  cmt->sig = SampleSig(0);
  out.push_back(cmt);

  auto camp = std::make_shared<core::CampMsg>();
  camp->conf_qc = SampleQc();
  camp->v = 4;
  camp->v_new = 6;
  camp->rp = -12;
  camp->ci = 2;
  camp->nonce = 0x1234567890abcdefull;
  camp->hash_result = SampleQc().digest;
  camp->claimed_difficulty_bits = 18;
  camp->latest_tx_block = SampleBlock(5);
  camp->latest_n = 5;
  camp->latest_vc_view = 3;
  camp->sig = SampleSig(2);
  out.push_back(camp);

  auto conf = std::make_shared<core::ConfVcMsg>();
  conf->v = 11;
  conf->reason = core::VcReason::kPolicy;
  conf->tx = SampleTx(1, 4);
  conf->sig = SampleSig(3);
  out.push_back(conf);

  auto vcb = std::make_shared<core::VcBlockMsg>();
  vcb->block = SampleVcBlock();
  out.push_back(vcb);

  auto sync_req = std::make_shared<core::SyncReqMsg>();
  sync_req->kind = core::SyncReqMsg::Kind::kVcBlocks;
  sync_req->after = 3;
  sync_req->up_to = 40;
  out.push_back(sync_req);

  auto sync = std::make_shared<core::SyncRespMsg>();
  sync->tx_blocks = {SampleBlock(1), SampleBlock(2)};
  sync->vc_blocks = {SampleVcBlock()};
  out.push_back(sync);

  auto noise = std::make_shared<core::NoiseMsg>();
  noise->bytes = 512;
  out.push_back(noise);

  auto batch = std::make_shared<types::ClientBatch>();
  batch->txs = {SampleTx(0, 1), SampleTx(0, 2), SampleTx(0, 3)};
  out.push_back(batch);

  auto reply = std::make_shared<types::ClientReply>();
  reply->replica = 2;
  reply->v = 3;
  reply->n = 17;
  reply->pool = 4;
  types::ReplyEntry e1;
  e1.client_seq = 41;
  e1.status = 1;
  e1.duplicate = true;
  e1.result_digest = 0xabcdull;
  e1.result = {0x01};
  types::ReplyEntry e2;
  e2.client_seq = 42;
  reply->entries = {e1, e2};
  out.push_back(reply);

  auto complaint = std::make_shared<types::ClientComplaint>();
  complaint->tx = SampleTx(2, 8);
  out.push_back(complaint);

  auto hs = std::make_shared<baselines::hotstuff::HsPhaseMsg>();
  hs->v = 2;
  hs->phase = baselines::hotstuff::HsPhase::kCommit;
  hs->n = 6;
  hs->block_digest = SampleQc().digest;
  hs->justify = SampleQc();
  hs->sig = SampleSig(1);
  out.push_back(hs);

  auto sb = std::make_shared<baselines::sbft::SbPrePrepareMsg>();
  sb->v = 1;
  sb->block = SampleBlock(3);
  sb->sig = SampleSig(0);
  sb->crypto_weight = 8;
  out.push_back(sb);

  auto ord_reply = std::make_shared<core::OrdReplyMsg>();
  ord_reply->v = 3;
  ord_reply->n = 17;
  ord_reply->partial = SampleSig(2);
  out.push_back(ord_reply);

  auto cmt_reply = std::make_shared<core::CmtReplyMsg>();
  cmt_reply->v = 3;
  cmt_reply->n = 18;
  cmt_reply->partial = SampleSig(3);
  out.push_back(cmt_reply);

  auto tx_block = std::make_shared<core::TxBlockMsg>();
  tx_block->block = SampleBlock(4);
  out.push_back(tx_block);

  auto relay = std::make_shared<core::ComptRelayMsg>();
  relay->tx = SampleTx(1, 5);
  relay->sig = SampleSig(1);
  out.push_back(relay);

  auto revc = std::make_shared<core::ReVcMsg>();
  revc->v = 12;
  revc->partial = SampleSig(2);
  out.push_back(revc);

  auto vote = std::make_shared<core::VoteCpMsg>();
  vote->v_new = 6;
  vote->candidate = 2;
  vote->partial = SampleSig(0);
  out.push_back(vote);

  auto vc_yes = std::make_shared<core::VcYesMsg>();
  vc_yes->v = 9;
  vc_yes->latest_n = 21;
  vc_yes->partial = SampleSig(3);
  out.push_back(vc_yes);

  auto ref = std::make_shared<core::RefMsg>();
  ref->v = 10;
  ref->sig = SampleSig(1);
  out.push_back(ref);

  auto ref_reply = std::make_shared<core::RefReplyMsg>();
  ref_reply->target = 3;
  ref_reply->v = 10;
  ref_reply->partial = SampleSig(2);
  out.push_back(ref_reply);

  auto rdone = std::make_shared<core::RdoneMsg>();
  rdone->target = 3;
  rdone->v = 10;
  rdone->rs_qc = SampleQc();
  rdone->sig = SampleSig(0);
  out.push_back(rdone);

  auto heartbeat = std::make_shared<core::HeartbeatMsg>();
  heartbeat->v = 5;
  heartbeat->latest_n = 30;
  heartbeat->sig = SampleSig(1);
  out.push_back(heartbeat);

  // Above its cap: the encoder clamps the modelled size to kMaxWireNoise.
  auto big_noise = std::make_shared<core::NoiseMsg>();
  big_noise->bytes = kMaxWireNoise + 7;
  out.push_back(big_noise);

  auto hs_proposal = std::make_shared<baselines::hotstuff::HsProposalMsg>();
  hs_proposal->v = 2;
  hs_proposal->block = SampleBlock(6);
  hs_proposal->sig = SampleSig(0);
  out.push_back(hs_proposal);

  auto hs_vote = std::make_shared<baselines::hotstuff::HsVoteMsg>();
  hs_vote->v = 2;
  hs_vote->phase = baselines::hotstuff::HsPhase::kDecide;
  hs_vote->n = 6;
  hs_vote->block_digest = SampleQc().digest;
  hs_vote->partial = SampleSig(3);
  out.push_back(hs_vote);

  auto hs_new_view = std::make_shared<baselines::hotstuff::HsNewViewMsg>();
  hs_new_view->v = 3;
  hs_new_view->latest_n = 6;
  hs_new_view->sig = SampleSig(2);
  out.push_back(hs_new_view);

  auto sb_share = std::make_shared<baselines::sbft::SbShareMsg>();
  sb_share->stage = baselines::sbft::SbShareMsg::Stage::kExecute;
  sb_share->v = 1;
  sb_share->n = 3;
  sb_share->partial = SampleSig(1);
  out.push_back(sb_share);

  auto sb_proof = std::make_shared<baselines::sbft::SbProofMsg>();
  sb_proof->stage = baselines::sbft::SbProofMsg::Stage::kExecute;
  sb_proof->v = 1;
  sb_proof->n = 3;
  sb_proof->block_digest = SampleQc().digest;
  sb_proof->proof = SampleQc();
  sb_proof->sig = SampleSig(2);
  out.push_back(sb_proof);

  return out;
}

std::vector<uint8_t> Encode(const runtime::NetMessage& msg) {
  std::vector<uint8_t> bytes;
  EXPECT_TRUE(EncodeMessage(msg, &bytes));
  return bytes;
}

// ---------------------------------------------------------------- roundtrip

TEST(WireCodecTest, DecodeThenReencodeIsByteIdentical) {
  for (const runtime::MessagePtr& msg : SampleMessages()) {
    SCOPED_TRACE(msg->Name());
    const std::vector<uint8_t> bytes = Encode(*msg);
    ASSERT_FALSE(bytes.empty());
    const runtime::MessagePtr decoded =
        DecodeMessage(bytes.data(), bytes.size());
    ASSERT_NE(decoded, nullptr);
    EXPECT_STREQ(decoded->Name(), msg->Name());
    EXPECT_EQ(Encode(*decoded), bytes);
  }
}

TEST(WireCodecTest, EncodingIsPinned) {
  // The wire bytes of every sample are frozen: a codec refactor that
  // reorders, resizes or drops a field changes a length or a hash here.
  struct Pin {
    size_t length;
    const char* sha256;
  };
  const Pin pins[] = {
    {177, "a32398d08d91f4fd25a3c3a94a7dd72337a400d2e1ce208c2f3f48b8964cd163"},
    {233, "be876946993736c9ef1b6be575ff26fd56b0637032fb42b829280c0697c6b711"},
    {723, "b23cc905274df76b881b450bfa6aa0e9ba14efab4c1370017952ddce95b84b34"},
    {90, "919dc94c840d2a45a6e274f616b637a4e97684039e20604b0b1180e268be3651"},
    {393, "87f11c252f7de46765f8887c572a3847c3df87b0351f4c33685971f62118da08"},
    {18, "db382288ffc010628da087e5579342d4f986122e2b111dce96c2e4409f90973a"},
    {1285, "64e55440cb0c0f48084c0e0b645e8098eea0c1ef53f7f8a495bf2762f9bca102"},
    {5, "8868b005fde06eb73ea1db5de338364fcad1feeaf1cef934439a662798a6a0fd"},
    {137, "13ba6ed10217c093230e21b4121e027482976ba5736b1e82d23e818f377220ea"},
    {74, "a6fe141406609f6f5877e3a9dd93a53a314633bdf1fa9a5ce2da1f37bdcae2a7"},
    {45, "80218a28706d01f3a37abcd2987c07cc1a33bf936453b7fe794951da7526e87d"},
    {234, "9a379667eb4d04ebeccdd2d8cb1d9010dbfe31dd1132ea53b283df0dc418b8cc"},
    {495, "64a5e4d411c9563fb92c50eefcbf9ed4f406d7c51c985bbcb6063286fbb24d04"},
    {53, "48e65817957804761a40d612c889f6c4b0b08d3fbbe87601cf6073c9b0288529"},
    {53, "9a47a6b6bf23b308d5f3868017a46df87405fca00d9519f670dbe65188de3fdb"},
    {443, "887e620a1cd709c97a9ab9ef9a11758c3492b7e776969fac704e1bad17303982"},
    {81, "016f8f7ae25ebd11929d59c5d7161fb614ce95847cf8478fd23d391cd1c39387"},
    {45, "b133a7a370f8d3dec305d1c27aed2c53fbab5a74af7d46eef738734e13383eff"},
    {49, "5cfc308a839c43f9b8aaf7b6d14e73543e1440c3f8aeed21c9a7a956e1a6a5cc"},
    {53, "162d6ef3de2ce7faf2286db0f7864ae64bfc1ac1a02ff787bd5f995c5d3f3878"},
    {45, "ea6c49ae8172c771dad4ec84e06c9a5af42d1cbce38c2dba01b5bbfcf324450b"},
    {49, "01bc324e8cef459b6a3ddde64da40ad28114be7d6f387988217da358302c87ca"},
    {197, "6d1890851d4a7ae555ef33c2e6a1c2a0df2c8971fbdd532f8d7da90d62edc92e"},
    {53, "bd5abe2d2a58fac272f7c18237b2d9a083d56a021cefaadb457a07a3150baf09"},
    {5, "d14f73e1a8af483d08005d1376b1aee0612c2f48670b995acf758cb5a75fd168"},
    {487, "b158255475f9d471c05780a28bd225c7bd164e5cf20047b55d0a33d6970b02a7"},
    {86, "fbe8a367f78f7b4b9000efb7fe253f0bbea5efdda13f941b94029c30dbc6e76c"},
    {53, "0bb6a8940fb0c0f07249716a0602ba961dc76aa4e7b75ffd6dcc0621af48430e"},
    {54, "bab414cbdf2eed1816055da0e9a2041efb72fe5224e6ebe8b4388aa4a82b606f"},
    {234, "02ad020d0443b399669017160d5f891e407304c461fa11cb8d6c8859b2ac31a0"},
  };
  const std::vector<runtime::MessagePtr> samples = SampleMessages();
  ASSERT_EQ(samples.size(), sizeof(pins) / sizeof(pins[0]));
  std::set<uint8_t> kinds;
  for (size_t i = 0; i < samples.size(); ++i) {
    SCOPED_TRACE(samples[i]->Name());
    const std::vector<uint8_t> bytes = Encode(*samples[i]);
    ASSERT_FALSE(bytes.empty());
    kinds.insert(bytes[0]);
    EXPECT_EQ(bytes.size(), pins[i].length);
    EXPECT_EQ(crypto::DigestToHex(crypto::Sha256::Hash(bytes)),
              pins[i].sha256);
  }
  EXPECT_EQ(kinds.size(), 29u) << "every MsgKind has a sample";
}

// An Ord whose body handle is null is an empty batch: the same bytes and
// modelled size as an empty list, and it decodes to an empty list.
TEST(WireCodecTest, NullOrdBodyEncodesAsEmptyBatch) {
  core::OrdMsg null_body;
  null_body.v = 3;
  null_body.n = 17;
  null_body.sig = SampleSig(1);
  core::OrdMsg empty_body = null_body;
  empty_body.txs = types::MakeTxList({});
  ASSERT_EQ(null_body.txs, nullptr);
  EXPECT_EQ(null_body.WireSize(), empty_body.WireSize());
  const std::vector<uint8_t> bytes = Encode(null_body);
  EXPECT_EQ(bytes, Encode(empty_body));
  const runtime::MessagePtr decoded = DecodeMessage(bytes.data(), bytes.size());
  const auto* ord = dynamic_cast<const core::OrdMsg*>(decoded.get());
  ASSERT_NE(ord, nullptr);
  ASSERT_NE(ord->txs, nullptr);
  EXPECT_TRUE(ord->txs->empty());
}

TEST(WireCodecTest, EncodeAppendsAfterBytesAlreadyInOut) {
  // The socket backend encodes behind a frame header's room: the bytes
  // already in `out` stay as they were and the appended suffix is the
  // message's whole wire form.
  const std::vector<uint8_t> prefix(kFrameHeaderBytes, 0xab);
  for (const runtime::MessagePtr& msg : SampleMessages()) {
    SCOPED_TRACE(msg->Name());
    std::vector<uint8_t> out = prefix;
    ASSERT_TRUE(EncodeMessage(*msg, &out));
    ASSERT_GT(out.size(), prefix.size());
    EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), out.begin()));
    const std::vector<uint8_t> suffix(out.begin() + prefix.size(), out.end());
    EXPECT_EQ(suffix, Encode(*msg));
    EXPECT_NE(DecodeMessage(suffix.data(), suffix.size()), nullptr);
  }
}

struct NoWireFormMsg : public runtime::NetMessage {
  size_t WireSize() const override { return 8; }
  const char* Name() const override { return "NoWireForm"; }
};

TEST(WireCodecTest, NoWireFormLeavesOutUntouched) {
  const std::vector<uint8_t> before = {1, 2, 3, 4, 5};
  std::vector<uint8_t> out = before;
  EXPECT_FALSE(EncodeMessage(NoWireFormMsg(), &out));
  EXPECT_EQ(out, before);
  std::vector<uint8_t> empty;
  EXPECT_FALSE(EncodeMessage(NoWireFormMsg(), &empty));
  EXPECT_TRUE(empty.empty());
}

TEST(WireCodecTest, OrdRoundTripsAtEverySize) {
  // Ords of 0..600 txs and several command lengths: encoded sizes from a
  // few bytes to about 60 KB, each behind a prefix of a different length,
  // so the one resize of every encode lands on every kind of boundary.
  // decode(encode(m)) must re-encode to the same bytes.
  for (const size_t command_len : {0u, 1u, 17u, 41u}) {
    std::vector<types::Transaction> txs;
    for (uint64_t count = 0; count <= 600; ++count) {
      SCOPED_TRACE("txs=" + std::to_string(count) +
                   " command_len=" + std::to_string(command_len));
      core::OrdMsg ord;
      ord.v = 2;
      ord.n = static_cast<types::SeqNum>(count);
      ord.txs = types::MakeTxList(txs);
      ord.sig = SampleSig(3);
      std::vector<uint8_t> bytes(count % 7, 0x5c);
      ASSERT_TRUE(EncodeMessage(ord, &bytes));
      const std::vector<uint8_t> wire(bytes.begin() + (count % 7),
                                      bytes.end());
      // kind + v + n + prev_hash + count + sig, then each tx's 40 fixed
      // bytes and its command.
      ASSERT_EQ(wire.size(),
                1 + 8 + 8 + 32 + 4 + 36 + count * (40 + command_len));
      const runtime::MessagePtr decoded =
          DecodeMessage(wire.data(), wire.size());
      ASSERT_NE(decoded, nullptr);
      ASSERT_EQ(Encode(*decoded), wire);

      types::Transaction tx = SampleTx(static_cast<uint32_t>(count % 5),
                                       count + 1);
      tx.command.assign(command_len, static_cast<uint8_t>(count));
      txs.push_back(std::move(tx));
    }
  }
}

// A request's bytes live in util::SmallBytes; the vectors of transactions
// and reply entries must still relocate by move.
static_assert(std::is_nothrow_move_constructible_v<types::Transaction>);
static_assert(std::is_nothrow_move_constructible_v<types::ReplyEntry>);

/// Command / result lengths on both sides of SmallBytes' inline limit.
std::vector<size_t> ByteStringLengths() {
  constexpr size_t kInline = util::SmallBytes::kInlineCapacity;
  return {0, 1, 17, kInline - 1, kInline, kInline + 1, 4096};
}

/// A one-tx ClientBatch whose command is `len` bytes, and a one-entry
/// ClientReply whose result is `len` bytes: in both the byte string is the
/// last field of the encoding.
std::vector<runtime::MessagePtr> ByteStringCarriers(size_t len) {
  auto batch = std::make_shared<types::ClientBatch>();
  batch->txs.push_back(SampleTx(1, 2));
  batch->txs.back().command.assign(len, 0xc3);
  auto reply = std::make_shared<types::ClientReply>();
  reply->pool = 1;
  types::ReplyEntry entry;
  entry.client_seq = 2;
  entry.result.assign(len, 0x3c);
  reply->entries.push_back(entry);
  return {batch, reply};
}

const util::SmallBytes& CarriedBytes(const runtime::NetMessage& msg) {
  if (const auto* batch = dynamic_cast<const types::ClientBatch*>(&msg)) {
    return batch->txs.at(0).command;
  }
  return dynamic_cast<const types::ClientReply&>(msg).entries.at(0).result;
}

TEST(WireCodecTest, ByteStringsRoundTripInlineAndSpilled) {
  for (const size_t len : ByteStringLengths()) {
    for (const runtime::MessagePtr& msg : ByteStringCarriers(len)) {
      SCOPED_TRACE(std::string(msg->Name()) + " len=" + std::to_string(len));
      const std::vector<uint8_t> bytes = Encode(*msg);
      // u32 length, then the bytes, at the end of the encoding.
      ASSERT_GE(bytes.size(), len + 4);
      uint32_t prefix = 0;
      std::memcpy(&prefix, bytes.data() + bytes.size() - len - 4, 4);
      EXPECT_EQ(prefix, len);
      const runtime::MessagePtr decoded =
          DecodeMessage(bytes.data(), bytes.size());
      ASSERT_NE(decoded, nullptr);
      const util::SmallBytes& got = CarriedBytes(*decoded);
      EXPECT_EQ(got, CarriedBytes(*msg));
      // Decoded inline up to the limit, else into one block of the length.
      EXPECT_EQ(got.capacity(),
                std::max(len, util::SmallBytes::kInlineCapacity));
      EXPECT_EQ(Encode(*decoded), bytes);
    }
  }
}

TEST(WireCodecTest, ByteStringLengthsAreBounded) {
  // A byte string of exactly kMaxWireBytes decodes; one byte more does not.
  for (const size_t len : {static_cast<size_t>(kMaxWireBytes),
                           static_cast<size_t>(kMaxWireBytes) + 1}) {
    for (const runtime::MessagePtr& msg : ByteStringCarriers(len)) {
      SCOPED_TRACE(std::string(msg->Name()) + " len=" + std::to_string(len));
      const std::vector<uint8_t> bytes = Encode(*msg);
      const bool decodes =
          DecodeMessage(bytes.data(), bytes.size()) != nullptr;
      EXPECT_EQ(decodes, len <= kMaxWireBytes);
    }
  }
  // A length prefix that runs past the input (or stops short of its end)
  // is refused, on both sides of the inline limit.
  for (const size_t len : ByteStringLengths()) {
    for (const runtime::MessagePtr& msg : ByteStringCarriers(len)) {
      SCOPED_TRACE(std::string(msg->Name()) + " len=" + std::to_string(len));
      std::vector<uint8_t> bytes = Encode(*msg);
      const size_t prefix_at = bytes.size() - len - 4;
      for (const uint32_t lie : {static_cast<uint32_t>(len + 1),
                                 static_cast<uint32_t>(len + 4096),
                                 static_cast<uint32_t>(len) - 1}) {
        if (len == 0 && lie == static_cast<uint32_t>(len) - 1) continue;
        std::vector<uint8_t> mutant = bytes;
        std::memcpy(mutant.data() + prefix_at, &lie, 4);
        EXPECT_EQ(DecodeMessage(mutant.data(), mutant.size()), nullptr)
            << "length " << lie;
      }
    }
  }
}

// ------------------------------------------------------------- adversarial

TEST(WireCodecTest, EveryStrictPrefixIsRejected) {
  // The layout is length-prefixed, not self-terminating: a decode always
  // consumes the same byte count as the full encoding, so any strict
  // prefix must hit a bounds check and yield nullptr.
  for (const runtime::MessagePtr& msg : SampleMessages()) {
    SCOPED_TRACE(msg->Name());
    const std::vector<uint8_t> bytes = Encode(*msg);
    for (size_t len = 0; len < bytes.size(); ++len) {
      EXPECT_EQ(DecodeMessage(bytes.data(), len), nullptr)
          << "prefix of length " << len << " decoded";
    }
  }
}

TEST(WireCodecTest, TrailingBytesAreRejected) {
  for (const runtime::MessagePtr& msg : SampleMessages()) {
    SCOPED_TRACE(msg->Name());
    std::vector<uint8_t> bytes = Encode(*msg);
    bytes.push_back(0x00);
    EXPECT_EQ(DecodeMessage(bytes.data(), bytes.size()), nullptr);
  }
}

TEST(WireCodecTest, UnknownKindsAreRejected) {
  // Kind bytes that are not (and never were) assigned, with a plausible
  // body behind them.
  const uint8_t kinds[] = {0, 20, 31, 35, 47, 52, 63, 67, 128, 255};
  for (const uint8_t kind : kinds) {
    std::vector<uint8_t> bytes(64, 0);
    bytes[0] = kind;
    EXPECT_EQ(DecodeMessage(bytes.data(), bytes.size()), nullptr)
        << "kind " << static_cast<int>(kind);
  }
  EXPECT_EQ(DecodeMessage(nullptr, 0), nullptr);
  const uint8_t one = 7;
  EXPECT_EQ(DecodeMessage(&one, 0), nullptr);
}

TEST(WireCodecTest, HostileCountsAreRejectedWithoutAllocation) {
  // A ClientBatch claiming 2^32-1 transactions in a 9-byte body: the count
  // validator must reject it before any reserve/loop.
  std::vector<uint8_t> bytes = {static_cast<uint8_t>(MsgKind::kClientBatch),
                                0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00,
                                0x00};
  EXPECT_EQ(DecodeMessage(bytes.data(), bytes.size()), nullptr);

  // A CmtMsg whose QC claims 2^20 partial signatures.
  auto cmt = std::make_shared<core::CmtMsg>();
  cmt->ordering_qc = SampleQc();
  cmt->sig = SampleSig(0);
  std::vector<uint8_t> enc = Encode(*cmt);
  // QC partial count sits after kind(1) + v(8) + n(8) + digest(32) +
  // qc.digest(32) + qc.threshold(4).
  const size_t count_at = 1 + 8 + 8 + 32 + 32 + 4;
  enc[count_at + 0] = 0x00;
  enc[count_at + 1] = 0x00;
  enc[count_at + 2] = 0x10;
  enc[count_at + 3] = 0x00;
  EXPECT_EQ(DecodeMessage(enc.data(), enc.size()), nullptr);
}

TEST(WireCodecTest, OutOfRangeEnumsAreRejected) {
  // SyncReq kind byte only admits 0..1.
  std::vector<uint8_t> bytes = {static_cast<uint8_t>(MsgKind::kSyncReq), 2};
  for (int i = 0; i < 16; ++i) bytes.push_back(0);
  EXPECT_EQ(DecodeMessage(bytes.data(), bytes.size()), nullptr);
  bytes[1] = 1;
  EXPECT_NE(DecodeMessage(bytes.data(), bytes.size()), nullptr);

  // NoiseMsg size over its cap.
  std::vector<uint8_t> noise = {static_cast<uint8_t>(MsgKind::kNoise),
                                0x01, 0x00, 0x10, 0x00};  // 1<<20 + 1.
  EXPECT_EQ(DecodeMessage(noise.data(), noise.size()), nullptr);
}

TEST(WireCodecTest, SingleByteCorruptionNeverCrashes) {
  // Flip every byte of every sample encoding through every of 3 masks.
  // A flip may still decode (the frame checksum guards integrity, not this
  // layer); the wire-level guarantee is no crash / no UB / no partial
  // object, which ASan/UBSan enforce when CI runs this suite.
  for (const runtime::MessagePtr& msg : SampleMessages()) {
    std::vector<uint8_t> bytes = Encode(*msg);
    for (size_t i = 0; i < bytes.size(); ++i) {
      const uint8_t masks[] = {0x01, 0x80, 0xff};
      for (const uint8_t mask : masks) {
        bytes[i] ^= mask;
        const runtime::MessagePtr decoded =
            DecodeMessage(bytes.data(), bytes.size());
        if (decoded != nullptr) {
          // Whatever decoded must itself be encodable (fully initialised).
          std::vector<uint8_t> re;
          EXPECT_TRUE(EncodeMessage(*decoded, &re));
        }
        bytes[i] ^= mask;
      }
    }
  }
}

// ----------------------------------------------------------------- framing

std::vector<uint8_t> Payload(size_t n) {
  std::vector<uint8_t> p(n);
  for (size_t i = 0; i < n; ++i) p[i] = static_cast<uint8_t>(i * 31 + 7);
  return p;
}

std::vector<uint8_t> Bytes(const FrameAssembler::Complete& c) {
  return std::vector<uint8_t>(c.data(), c.data() + c.size());
}

TEST(FrameTest, SingleDatagramRoundtrip) {
  FrameWriter writer(/*src=*/1);
  FrameAssembler assembler(/*local_id=*/2);
  const std::vector<uint8_t> payload = Payload(100);
  const auto datagrams = writer.Split(2, payload);
  ASSERT_EQ(datagrams.size(), 1u);
  std::vector<FrameAssembler::Complete> out;
  assembler.Accept(datagrams[0].data(), datagrams[0].size(), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].src, 1u);
  // A one-datagram message is a view into the datagram, not a copy.
  EXPECT_EQ(out[0].data(), datagrams[0].data() + kFrameHeaderBytes);
  EXPECT_TRUE(out[0].payload.empty());
  EXPECT_EQ(Bytes(out[0]), payload);
  EXPECT_EQ(assembler.counters().messages_assembled, 1u);
  EXPECT_EQ(assembler.counters().seq_gaps, 0u);
}

/// `payload` laid out as SocketRuntime encodes it: behind room for a frame
/// header.
std::vector<uint8_t> WithHeaderRoom(const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> buffer(kFrameHeaderBytes + payload.size());
  std::copy(payload.begin(), payload.end(), buffer.begin() + kFrameHeaderBytes);
  return buffer;
}

TEST(FrameTest, InPlaceFramingMatchesFrameAndKeepsItsChecksum) {
  const std::vector<uint8_t> payload = Payload(kMaxFragPayload);
  FrameWriter copying(1);
  FrameWriter in_place(1);
  FrameWriter::Frames expected = copying.Frame(payload);
  FrameWriter::Frames frames = in_place.FrameInPlace(WithHeaderRoom(payload));
  ASSERT_EQ(frames.size(), 1u);
  copying.AddressTo(2, &expected);
  in_place.AddressTo(2, &frames);
  EXPECT_EQ(frames, expected);

  // One flipped payload byte is a checksum drop, and nothing completes.
  frames[0][kFrameHeaderBytes + 1000] ^= 0x10;
  FrameAssembler assembler(2);
  std::vector<FrameAssembler::Complete> out;
  assembler.Accept(frames[0].data(), frames[0].size(), &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(assembler.counters().checksum_drops, 1u);
  EXPECT_EQ(assembler.counters().messages_assembled, 0u);
  EXPECT_TRUE(in_place.FrameInPlace(WithHeaderRoom({})).empty());
}

TEST(FrameTest, MultiFragmentMessageReassemblesIntoOwnedBytes) {
  const std::vector<uint8_t> payload = Payload(kMaxFragPayload + 1);
  FrameWriter writer(1);
  FrameWriter::Frames frames = writer.FrameInPlace(WithHeaderRoom(payload));
  ASSERT_EQ(frames.size(), 2u);
  writer.AddressTo(2, &frames);
  FrameAssembler assembler(2);
  std::vector<FrameAssembler::Complete> out;
  for (const auto& datagram : frames) {
    assembler.Accept(datagram.data(), datagram.size(), &out);
  }
  // The datagrams may go away: the reassembled message owns its bytes.
  frames.clear();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].view, nullptr);
  EXPECT_EQ(out[0].data(), out[0].payload.data());
  EXPECT_EQ(out[0].payload, payload);
  EXPECT_EQ(Bytes(out[0]), payload);
}

TEST(FrameTest, FragmentedMessageReassembles) {
  FrameWriter writer(3);
  FrameAssembler assembler(4);
  const std::vector<uint8_t> payload = Payload(2 * kMaxFragPayload + 1234);
  const auto datagrams = writer.Split(4, payload);
  ASSERT_EQ(datagrams.size(), 3u);
  std::vector<FrameAssembler::Complete> out;
  // Deliver out of order: framing reassembles by frag_index, not arrival.
  assembler.Accept(datagrams[2].data(), datagrams[2].size(), &out);
  assembler.Accept(datagrams[0].data(), datagrams[0].size(), &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(assembler.pending_partials(), 1u);
  assembler.Accept(datagrams[1].data(), datagrams[1].size(), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].payload, payload);
  EXPECT_EQ(assembler.pending_partials(), 0u);
}

TEST(FrameTest, ChecksumCorruptionIsCountedDrop) {
  FrameWriter writer(1);
  FrameAssembler assembler(2);
  auto datagrams = writer.Split(2, Payload(64));
  ASSERT_EQ(datagrams.size(), 1u);
  datagrams[0].back() ^= 0xff;  // Corrupt the final payload byte.
  std::vector<FrameAssembler::Complete> out;
  assembler.Accept(datagrams[0].data(), datagrams[0].size(), &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(assembler.counters().checksum_drops, 1u);
}

TEST(FrameTest, ShortAndGarbageDatagramsAreHeaderDrops) {
  FrameAssembler assembler(2);
  std::vector<FrameAssembler::Complete> out;
  const std::vector<uint8_t> garbage(kFrameHeaderBytes + 8, 0x5a);
  assembler.Accept(garbage.data(), garbage.size(), &out);  // Bad magic.
  assembler.Accept(garbage.data(), 5, &out);               // Too short.
  assembler.Accept(garbage.data(), 0, &out);               // Empty.
  // A well-formed frame from a version-1 (FNV-1a) sender: refused at the
  // header, before its checksum is ever compared.
  FrameWriter writer(1);
  std::vector<uint8_t> old_version = writer.Split(2, Payload(64))[0];
  old_version[4] = 1;  // The version byte.
  assembler.Accept(old_version.data(), old_version.size(), &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(assembler.counters().header_drops, 4u);
  EXPECT_EQ(assembler.counters().checksum_drops, 0u);
}

TEST(FrameTest, OneFrameSetAddressedToSeveralDestinations) {
  // Frame once, address the same datagrams to two receivers in turn: each
  // reassembles the message with its own gap-free sequence, and the
  // payload checksum survives the header rewrite.
  FrameWriter writer(1);
  const std::vector<uint8_t> payload = Payload(kMaxFragPayload + 500);
  FrameWriter::Frames frames = writer.Frame(payload);
  ASSERT_EQ(frames.size(), 2u);
  for (uint32_t dst : {2u, 3u, 2u}) {
    writer.AddressTo(dst, &frames);
    FrameHeader h;
    ASSERT_TRUE(DecodeFrameHeader(frames[1].data(), frames[1].size(), &h));
    EXPECT_EQ(h.dst, dst);
  }
  // dst 2 was addressed twice: its second copy carries seqs 3 and 4.
  FrameAssembler second_copy(2);
  std::vector<FrameAssembler::Complete> out;
  for (const auto& datagram : frames) {
    second_copy.Accept(datagram.data(), datagram.size(), &out);
  }
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].payload, payload);
  EXPECT_EQ(second_copy.counters().seq_gaps, 2u);  // Seqs 1-2 never seen.
  EXPECT_EQ(second_copy.counters().checksum_drops, 0u);
  EXPECT_TRUE(writer.Frame({}).empty());
}

TEST(FrameTest, WrongDestinationIsCountedDrop) {
  FrameWriter writer(1);
  FrameAssembler assembler(2);
  const auto datagrams = writer.Split(/*dst=*/9, Payload(32));
  std::vector<FrameAssembler::Complete> out;
  assembler.Accept(datagrams[0].data(), datagrams[0].size(), &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(assembler.counters().wrong_dst_drops, 1u);
}

TEST(FrameTest, PayloadLengthLiesAreCountedDrops) {
  FrameWriter writer(1);
  FrameAssembler assembler(2);
  auto datagrams = writer.Split(2, Payload(64));
  ASSERT_EQ(datagrams.size(), 1u);
  // payload_len sits at offset 30 in the header (see net/frame.cc layout);
  // claim more bytes than the datagram carries.
  std::vector<uint8_t> lying = datagrams[0];
  lying[30] = 0xff;
  lying[31] = 0xff;
  std::vector<FrameAssembler::Complete> out;
  assembler.Accept(lying.data(), lying.size(), &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(assembler.counters().length_drops, 1u);
}

TEST(FrameTest, DuplicateAndGapSequencesAreObserved) {
  FrameWriter writer(1);
  FrameAssembler assembler(2);
  const auto d1 = writer.Split(2, Payload(16));
  const auto d2 = writer.Split(2, Payload(16));
  const auto d3 = writer.Split(2, Payload(16));
  std::vector<FrameAssembler::Complete> out;
  assembler.Accept(d1[0].data(), d1[0].size(), &out);
  // Skip d2 entirely: seq gap.
  assembler.Accept(d3[0].data(), d3[0].size(), &out);
  EXPECT_EQ(assembler.counters().seq_gaps, 1u);
  // Replay d1: duplicate / reordered.
  assembler.Accept(d1[0].data(), d1[0].size(), &out);
  EXPECT_EQ(assembler.counters().seq_out_of_order, 1u);
}

TEST(FrameTest, ReassemblyTableIsBounded) {
  FrameAssembler assembler(2);
  std::vector<FrameAssembler::Complete> out;
  // 4 * kMaxReassembly distinct two-fragment messages, never completed:
  // the partial table must stay at its cap, evicting oldest-first.
  for (uint32_t i = 0; i < 4 * kMaxReassembly; ++i) {
    FrameWriter writer(/*src=*/100 + i);
    const auto frags = writer.Split(2, Payload(kMaxFragPayload + 10));
    ASSERT_EQ(frags.size(), 2u);
    assembler.Accept(frags[0].data(), frags[0].size(), &out);
  }
  EXPECT_TRUE(out.empty());
  EXPECT_LE(assembler.pending_partials(), kMaxReassembly);
  EXPECT_GE(assembler.counters().frag_drops, 3 * kMaxReassembly);
}

TEST(FrameTest, CorruptedDatagramFuzzNeverCrashes) {
  // Byte-flip sweep over a fragmented message's datagrams: every variant
  // must be either assembled or counted as a drop — never a crash, an
  // out-of-range read (ASan), or unbounded memory.
  FrameWriter writer(1);
  const auto datagrams = writer.Split(2, Payload(kMaxFragPayload + 99));
  for (const auto& datagram : datagrams) {
    for (size_t i = 0; i < std::min<size_t>(datagram.size(), 256); ++i) {
      FrameAssembler assembler(2);
      std::vector<uint8_t> mutant = datagram;
      mutant[i] ^= 0xff;
      std::vector<FrameAssembler::Complete> out;
      assembler.Accept(mutant.data(), mutant.size(), &out);
    }
  }
}

// ------------------------------------------------------------------ CRC32C

uint32_t PortableCrc(const uint8_t* data, size_t len) {
  return ~internal::Crc32cPortable(~0u, data, len);
}

TEST(Crc32cKernelTest, KnownVectors) {
  const std::string check = "123456789";
  const auto* digits = reinterpret_cast<const uint8_t*>(check.data());
  // RFC 3720 (iSCSI) appendix B.4 vectors, 32 bytes each.
  std::vector<uint8_t> ascending(32), descending(32);
  for (size_t i = 0; i < 32; ++i) {
    ascending[i] = static_cast<uint8_t>(i);
    descending[i] = static_cast<uint8_t>(31 - i);
  }
  const std::vector<uint8_t> zeros(32, 0x00), ones(32, 0xff);
  for (auto crc : {PortableCrc, Crc32c}) {
    EXPECT_EQ(crc(digits, check.size()), 0xE3069283u);
    EXPECT_EQ(crc(nullptr, 0), 0u);
    EXPECT_EQ(crc(zeros.data(), zeros.size()), 0x8A9136AAu);
    EXPECT_EQ(crc(ones.data(), ones.size()), 0x62A8AB43u);
    EXPECT_EQ(crc(ascending.data(), ascending.size()), 0x46DD794Eu);
    EXPECT_EQ(crc(descending.data(), descending.size()), 0x113FDB5Cu);
  }
}

#if PRESTIGE_CRC32C_SSE42

TEST(Crc32cKernelTest, Sse42MatchesPortable) {
  if (!internal::Sse42Supported()) {
    GTEST_SKIP() << "this CPU lacks SSE4.2 (CPUID), so only the portable "
                    "kernel can run here";
  }
  util::Rng rng(2027);
  std::vector<uint8_t> buf(1100 + 8);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.NextUint64());
  // Every start alignment and length: heads before the first 8-byte
  // boundary, whole words, and tails.
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 1100; ++len) {
      const uint8_t* data = buf.data() + offset;
      ASSERT_EQ(internal::Crc32cSse42(~0u, data, len),
                internal::Crc32cPortable(~0u, data, len))
          << "offset=" << offset << " len=" << len;
    }
  }
}

TEST(Crc32cKernelTest, Sse42MatchesPortableAcrossChainSplits) {
  if (!internal::Sse42Supported()) {
    GTEST_SKIP() << "this CPU lacks SSE4.2 (CPUID), so only the portable "
                    "kernel can run here";
  }
  // The kernel splits a buffer into runs of three long blocks, then three
  // short ones, then one chain: check lengths around each place where the
  // number of long or short runs changes, at every start alignment.
  constexpr size_t kLong = 3 * internal::kSse42LongBlock;
  constexpr size_t kShort = 3 * internal::kSse42ShortBlock;
  const size_t splits[] = {kShort,         2 * kShort,     kLong,
                           kLong + kShort, kLong + 3 * kShort,
                           2 * kLong,      2 * kLong + kShort};
  util::Rng rng(2028);
  std::vector<uint8_t> buf(2 * kLong + kShort + 64);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.NextUint64());
  for (size_t split : splits) {
    for (size_t len = split - 17; len <= split + 17; ++len) {
      for (size_t offset = 0; offset < 8; ++offset) {
        const uint8_t* data = buf.data() + offset;
        ASSERT_EQ(internal::Crc32cSse42(~0u, data, len),
                  internal::Crc32cPortable(~0u, data, len))
            << "offset=" << offset << " len=" << len;
      }
    }
  }
}

#else

TEST(Crc32cKernelTest, Sse42MatchesPortable) {
  GTEST_SKIP() << "the SSE4.2 kernel is x86-64-only and not built for this "
                  "target";
}

#endif  // PRESTIGE_CRC32C_SSE42

// ------------------------------------------------------------ cluster config

TEST(AddressTest, ClusterConfigRoundtrips) {
  ClusterConfig config;
  config.seed = 42;
  config.protocol = "hotstuff";
  config.n = 4;
  config.batch = 700;
  config.pools = 2;
  config.clients_per_pool = 150;
  config.payload = 48;
  config.duration_us = 2500000;
  for (uint32_t i = 0; i < 6; ++i) {
    PeerEntry peer;
    peer.id = i;
    peer.kind = i < 4 ? PeerEntry::Kind::kReplica : PeerEntry::Kind::kPool;
    peer.data = {0x7f000001, static_cast<uint16_t>(9000 + i)};
    peer.control = {0x7f000001, static_cast<uint16_t>(9100 + i)};
    config.peers.push_back(peer);
  }
  ClusterConfig parsed;
  std::string error;
  ASSERT_TRUE(ParseClusterConfig(FormatClusterConfig(config), &parsed, &error))
      << error;
  EXPECT_EQ(parsed.seed, config.seed);
  EXPECT_EQ(parsed.protocol, config.protocol);
  EXPECT_EQ(parsed.n, config.n);
  EXPECT_EQ(parsed.peers.size(), config.peers.size());
  EXPECT_EQ(parsed.ReplicaIds().size(), 4u);
  EXPECT_EQ(parsed.PoolIds().size(), 2u);
  ASSERT_NE(parsed.Find(5), nullptr);
  EXPECT_EQ(parsed.Find(5)->kind, PeerEntry::Kind::kPool);
  EXPECT_EQ(parsed.Find(5)->data.ToString(), "127.0.0.1:9005");
  EXPECT_EQ(parsed.Find(99), nullptr);
}

TEST(AddressTest, MalformedConfigsAreRejected) {
  ClusterConfig parsed;
  std::string error;
  EXPECT_FALSE(ParseClusterConfig("", &parsed, &error));
  EXPECT_FALSE(ParseClusterConfig("garbage here\n", &parsed, &error));
  EXPECT_FALSE(ParseClusterConfig(
      "node 0 replica not-an-addr 127.0.0.1:1\n", &parsed, &error));
  // Duplicate node ids.
  EXPECT_FALSE(ParseClusterConfig(
      "node 0 replica 127.0.0.1:9000 127.0.0.1:9100\n"
      "node 0 replica 127.0.0.1:9001 127.0.0.1:9101\n",
      &parsed, &error));
  // Ids outside 0..N-1: a huge id must be refused before any runtime sizes
  // its node table by it.
  ClusterConfig huge;
  EXPECT_FALSE(ParseClusterConfig(
      "node 4000000000 replica 127.0.0.1:9000 127.0.0.1:9100\n", &huge,
      &error));
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
  ClusterConfig gap;
  EXPECT_FALSE(ParseClusterConfig(
      "node 0 replica 127.0.0.1:9000 127.0.0.1:9100\n"
      "node 2 pool 127.0.0.1:9002 127.0.0.1:9102\n",
      &gap, &error));
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
}

TEST(AddressTest, SockAddrParsing) {
  SockAddr addr;
  EXPECT_TRUE(ParseSockAddr("127.0.0.1:8080", &addr));
  EXPECT_EQ(addr.ip, 0x7f000001u);
  EXPECT_EQ(addr.port, 8080);
  EXPECT_EQ(addr.ToString(), "127.0.0.1:8080");
  EXPECT_FALSE(ParseSockAddr("127.0.0.1", &addr));
  EXPECT_FALSE(ParseSockAddr("300.0.0.1:80", &addr));
  EXPECT_FALSE(ParseSockAddr("1.2.3.4:99999", &addr));
  EXPECT_FALSE(ParseSockAddr("1.2.3.4:80x", &addr));
}

}  // namespace
}  // namespace net
}  // namespace prestige
