#include "net/wire.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <memory>
#include <type_traits>
#include <utility>

#include "baselines/hotstuff/hotstuff_replica.h"
#include "baselines/sbft/sbft_replica.h"
#include "core/messages.h"
#include "crypto/quorum_cert.h"
#include "ledger/tx_block.h"
#include "ledger/vc_block.h"
#include "types/client_messages.h"
#include "types/transaction.h"
#include "util/small_bytes.h"

namespace prestige {
namespace net {
namespace {

using baselines::hotstuff::HsNewViewMsg;
using baselines::hotstuff::HsPhase;
using baselines::hotstuff::HsPhaseMsg;
using baselines::hotstuff::HsProposalMsg;
using baselines::hotstuff::HsVoteMsg;
using baselines::sbft::SbPrePrepareMsg;
using baselines::sbft::SbProofMsg;
using baselines::sbft::SbShareMsg;

// Every wire type lists its fields once, in wire order, in
// Wire<T>::Fields(io, m); FieldWriter (encode: once over a ByteCounter for
// the size, once over a Writer for the bytes) and FieldReader (decode) all
// walk that list. A field's C++ type picks its primitive:
//   uint8_t, uint32_t, uint64_t, int64_t   fixed-width little-endian;
//   bool                                   one byte, 0 or 1;
//   crypto::Sha256Digest                   32 raw bytes;
//   std::vector<uint8_t>, util::SmallBytes u32 length <= kMaxWireBytes,
//                                          then the bytes;
//   std::vector<T>                         u32 count <= Elem<T>::kMaxCount
//                                          (each element at least
//                                          Elem<T>::kMinBytes), then each T;
//   types::TxList                          as its std::vector (null as
//                                          empty); decodes to a fresh list;
//   any other T                            the fields of Wire<T>.
// Enums and range-checked integers name their bound in the list itself
// (UpTo, InRange). TxBlock and VcBlock keep their identity fields behind
// digest-invalidating setters, and NoiseMsg's encoder clamps its modelled
// size, so those three have an explicit FieldWriter/FieldReader overload
// pair instead of a field list.
template <class T>
struct Wire;
/// Elem<T>::kMaxCount / kMinBytes: count cap and minimum encoded size of T
/// as a vector element.
template <class T>
struct Elem;

/// An enum travelling as one byte; decode rejects values above `max`.
template <class E>
struct UpToField {
  E& value;
  std::remove_const_t<E> max;
};
template <class E, class Max>
UpToField<E> UpTo(E& value, Max max) {
  return {value, max};
}

/// An integer accepted only in [lo, hi]. An int travels as an i64.
template <class I>
struct InRangeField {
  I& value;
  int64_t lo;
  int64_t hi;
};
template <class I>
InRangeField<I> InRange(I& value, int64_t lo, int64_t hi) {
  return {value, lo, hi};
}
template <class I>
using WireInt = std::conditional_t<std::is_same_v<std::remove_const_t<I>, int>,
                                   int64_t, std::remove_const_t<I>>;

/// Map entries in a VcBlock's reputation segment: u32 id + i64 value.
using IdMap = std::map<uint32_t, int64_t>;

/// The size pass of an encode: the Put calls FieldWriter makes on a
/// Writer, counting the bytes they would write.
class ByteCounter {
 public:
  void PutU8(uint8_t) { size_ += 1; }
  void PutU32(uint32_t) { size_ += 4; }
  void PutU64(uint64_t) { size_ += 8; }
  void PutI64(int64_t) { size_ += 8; }
  void PutDigest(const crypto::Sha256Digest& d) { size_ += d.size(); }
  void PutBytes(const uint8_t*, size_t len) { size_ += 4 + len; }

  size_t size() const { return size_; }

 private:
  size_t size_ = 0;
};

/// Walks a field list into `Sink`: a ByteCounter (size pass) or a Writer.
template <class Sink>
class FieldWriter {
 public:
  explicit FieldWriter(Sink& w) : w_(w) {}

  template <class... F>
  void operator()(const F&... fields) {
    (Field(fields), ...);
  }

 private:
  template <class T>
  void Field(const T& v) {
    if constexpr (std::is_same_v<T, uint8_t>) {
      w_.PutU8(v);
    } else if constexpr (std::is_same_v<T, bool>) {
      w_.PutU8(v ? 1 : 0);
    } else if constexpr (std::is_same_v<T, uint32_t>) {
      w_.PutU32(v);
    } else if constexpr (std::is_same_v<T, uint64_t>) {
      w_.PutU64(v);
    } else if constexpr (std::is_same_v<T, int64_t>) {
      w_.PutI64(v);
    } else if constexpr (std::is_same_v<T, crypto::Sha256Digest>) {
      w_.PutDigest(v);
    } else {
      Wire<T>::Fields(*this, v);
    }
  }
  void Field(const std::vector<uint8_t>& bytes) {
    w_.PutBytes(bytes.data(), bytes.size());
  }
  void Field(const util::SmallBytes& bytes) {
    w_.PutBytes(bytes.data(), bytes.size());
  }
  template <class T>
  void Field(const std::vector<T>& items) {
    w_.PutU32(static_cast<uint32_t>(items.size()));
    for (const T& item : items) Field(item);
  }
  void Field(const types::TxList& txs) {  // Null encodes as empty.
    if (txs != nullptr) {
      Field(*txs);
    } else {
      w_.PutU32(0);
    }
  }
  void Field(const IdMap& entries) {
    w_.PutU32(static_cast<uint32_t>(entries.size()));
    for (const auto& [id, value] : entries) (*this)(id, value);
  }
  template <class E>
  void Field(const UpToField<E>& f) {
    w_.PutU8(static_cast<uint8_t>(f.value));
  }
  template <class I>
  void Field(const InRangeField<I>& f) {
    Field(static_cast<WireInt<I>>(f.value));
  }
  void Field(const ledger::TxBlock& b) {
    (*this)(b.v, b.n(), b.prev_hash(), b.txs(), b.status, b.ordering_qc,
            b.commit_qc);
  }
  void Field(const ledger::VcBlock& b) {
    (*this)(b.v(), b.leader(), b.confirmed_view(), b.prev_hash(), b.rp(),
            b.ci(), b.conf_qc, b.vc_qc);
  }
  void Field(const core::NoiseMsg& m) {
    // Modelled size only — the junk bytes themselves are not materialised.
    w_.PutU32(static_cast<uint32_t>(std::min<size_t>(m.bytes, kMaxWireNoise)));
  }

  Sink& w_;
};

class FieldReader {
 public:
  explicit FieldReader(Reader& r) : r_(r) {}

  template <class... F>
  void operator()(F&&... fields) {
    (Field(fields), ...);
  }

 private:
  template <class T>
  void Field(T& v) {
    if constexpr (std::is_same_v<T, uint8_t>) {
      v = r_.U8();
    } else if constexpr (std::is_same_v<T, bool>) {
      const uint8_t byte = r_.U8();
      if (byte > 1) r_.Fail();
      v = byte != 0;
    } else if constexpr (std::is_same_v<T, uint32_t>) {
      v = r_.U32();
    } else if constexpr (std::is_same_v<T, uint64_t>) {
      v = r_.U64();
    } else if constexpr (std::is_same_v<T, int64_t>) {
      v = r_.I64();
    } else if constexpr (std::is_same_v<T, crypto::Sha256Digest>) {
      v = r_.Digest();
    } else {
      Wire<T>::Fields(*this, v);
    }
  }
  void Field(std::vector<uint8_t>& bytes) { r_.Bytes(kMaxWireBytes, bytes); }
  void Field(util::SmallBytes& bytes) { r_.Bytes(kMaxWireBytes, bytes); }
  template <class T>
  void Field(std::vector<T>& items) {
    const uint64_t count = r_.Count(Elem<T>::kMaxCount, Elem<T>::kMinBytes);
    items.reserve(count);
    for (uint64_t i = 0; i < count && r_.ok(); ++i) {
      items.emplace_back();
      Field(items.back());
    }
  }
  void Field(types::TxList& txs) {  // Built once, then shared read-only.
    std::vector<types::Transaction> items;
    Field(items);
    txs = types::MakeTxList(std::move(items));
  }
  void Field(IdMap& entries) {
    const uint64_t count = r_.Count(kMaxWireMapEntries, 12);
    for (uint64_t i = 0; i < count && r_.ok(); ++i) {
      uint32_t id = 0;
      int64_t value = 0;
      (*this)(id, value);
      entries[id] = value;
    }
  }
  template <class E>
  void Field(UpToField<E>& f) {
    const uint8_t v = r_.U8();
    if (v > static_cast<uint8_t>(f.max)) r_.Fail();
    f.value = static_cast<E>(v);
  }
  template <class I>
  void Field(InRangeField<I>& f) {
    WireInt<I> v{};
    Field(v);
    if (v < f.lo || v > f.hi) r_.Fail();
    f.value = static_cast<I>(v);
  }
  void Field(ledger::TxBlock& b) {
    types::SeqNum n = 0;
    crypto::Sha256Digest prev_hash{};
    std::vector<types::Transaction> txs;
    (*this)(b.v, n, prev_hash, txs, b.status, b.ordering_qc, b.commit_qc);
    b.set_n(n);
    b.set_prev_hash(prev_hash);
    b.set_txs(std::move(txs));
  }
  void Field(ledger::VcBlock& b) {
    types::View v = 0;
    types::ReplicaId leader = 0;
    types::View confirmed_view = 0;
    crypto::Sha256Digest prev_hash{};
    IdMap rp;
    IdMap ci;
    (*this)(v, leader, confirmed_view, prev_hash, rp, ci, b.conf_qc, b.vc_qc);
    b.set_v(v);
    b.set_leader(leader);
    b.set_confirmed_view(confirmed_view);
    b.set_prev_hash(prev_hash);
    for (const auto& [id, penalty] : rp) b.SetPenalty(id, penalty);
    for (const auto& [id, index] : ci) b.SetCompensation(id, index);
  }
  void Field(core::NoiseMsg& m) {
    const uint32_t bytes = r_.U32();
    if (bytes > kMaxWireNoise) r_.Fail();
    m.bytes = bytes;
  }

  Reader& r_;
};

// ------------------------------------------------------------- field lists

template <>
struct Elem<crypto::Signature> {  // Signer + MAC.
  static constexpr uint64_t kMaxCount = kMaxWirePartials, kMinBytes = 36;
};
template <>
struct Elem<types::Transaction> {  // Fixed fields + command length.
  static constexpr uint64_t kMaxCount = kMaxWireTxs, kMinBytes = 40;
};
template <>
struct Elem<types::ReplyEntry> {
  static constexpr uint64_t kMaxCount = kMaxWireEntries, kMinBytes = 22;
};
template <>
struct Elem<ledger::TxBlock> {
  static constexpr uint64_t kMaxCount = kMaxWireBlocks, kMinBytes = 80;
};
template <>
struct Elem<ledger::VcBlock> {
  static constexpr uint64_t kMaxCount = kMaxWireBlocks, kMinBytes = 60;
};

// PRESTIGE_WIRE_FIELDS(T, fields...) lists T's fields in wire order, each an
// expression over `m`: the message or component being encoded (const) or
// decoded.
#define PRESTIGE_WIRE_FIELDS(T, ...)   \
  template <>                          \
  struct Wire<T> {                     \
    template <class Io, class M>       \
    static void Fields(Io& io, M& m) { \
      io(__VA_ARGS__);                 \
    }                                  \
  }

PRESTIGE_WIRE_FIELDS(crypto::Signature, m.signer, m.mac);
PRESTIGE_WIRE_FIELDS(crypto::QuorumCert, m.digest, m.threshold, m.partials);
PRESTIGE_WIRE_FIELDS(types::Transaction, m.pool, m.client_seq, m.group,
                     m.sent_at, InRange(m.payload_size, 0, 1 << 30),
                     m.fingerprint, m.command);
PRESTIGE_WIRE_FIELDS(types::ReplyEntry, m.client_seq, m.status, m.duplicate,
                     m.result_digest, m.result);

PRESTIGE_WIRE_FIELDS(types::ClientBatch, m.txs);
PRESTIGE_WIRE_FIELDS(types::ClientReply, m.replica, m.v, m.n, m.pool,
                     m.entries);
PRESTIGE_WIRE_FIELDS(types::ClientComplaint, m.tx);
PRESTIGE_WIRE_FIELDS(core::OrdMsg, m.v, m.n, m.prev_hash, m.txs, m.sig);
PRESTIGE_WIRE_FIELDS(core::OrdReplyMsg, m.v, m.n, m.partial);
PRESTIGE_WIRE_FIELDS(core::CmtMsg, m.v, m.n, m.block_digest, m.ordering_qc,
                     m.sig);
PRESTIGE_WIRE_FIELDS(core::CmtReplyMsg, m.v, m.n, m.partial);
PRESTIGE_WIRE_FIELDS(core::TxBlockMsg, m.block);
PRESTIGE_WIRE_FIELDS(core::ComptRelayMsg, m.tx, m.sig);
PRESTIGE_WIRE_FIELDS(core::ConfVcMsg, m.v,
                     UpTo(m.reason, core::VcReason::kPolicy), m.tx, m.sig);
PRESTIGE_WIRE_FIELDS(core::ReVcMsg, m.v, m.partial);
PRESTIGE_WIRE_FIELDS(core::CampMsg, m.conf_qc, m.v, m.v_new, m.rp, m.ci,
                     m.nonce, m.hash_result,
                     InRange(m.claimed_difficulty_bits, 0, 256),
                     m.latest_tx_block, m.latest_n, m.latest_vc_view, m.sig);
PRESTIGE_WIRE_FIELDS(core::VoteCpMsg, m.v_new, m.candidate, m.partial);
PRESTIGE_WIRE_FIELDS(core::VcBlockMsg, m.block);
PRESTIGE_WIRE_FIELDS(core::VcYesMsg, m.v, m.latest_n, m.partial);
PRESTIGE_WIRE_FIELDS(core::RefMsg, m.v, m.sig);
PRESTIGE_WIRE_FIELDS(core::RefReplyMsg, m.target, m.v, m.partial);
PRESTIGE_WIRE_FIELDS(core::RdoneMsg, m.target, m.v, m.rs_qc, m.sig);
PRESTIGE_WIRE_FIELDS(core::SyncReqMsg,
                     UpTo(m.kind, core::SyncReqMsg::Kind::kVcBlocks),
                     m.after, m.up_to);
PRESTIGE_WIRE_FIELDS(core::SyncRespMsg, m.tx_blocks, m.vc_blocks);
PRESTIGE_WIRE_FIELDS(core::HeartbeatMsg, m.v, m.latest_n, m.sig);
PRESTIGE_WIRE_FIELDS(HsProposalMsg, m.v, m.block, m.sig);
PRESTIGE_WIRE_FIELDS(HsVoteMsg, m.v, UpTo(m.phase, HsPhase::kDecide), m.n,
                     m.block_digest, m.partial);
PRESTIGE_WIRE_FIELDS(HsPhaseMsg, m.v, UpTo(m.phase, HsPhase::kDecide), m.n,
                     m.block_digest, m.justify, m.sig);
PRESTIGE_WIRE_FIELDS(HsNewViewMsg, m.v, m.latest_n, m.sig);
PRESTIGE_WIRE_FIELDS(SbPrePrepareMsg, m.v, m.block, m.sig,
                     InRange(m.crypto_weight, 0, 1 << 16));
PRESTIGE_WIRE_FIELDS(SbShareMsg, UpTo(m.stage, SbShareMsg::Stage::kExecute),
                     m.v, m.n, m.partial);
PRESTIGE_WIRE_FIELDS(SbProofMsg, UpTo(m.stage, SbProofMsg::Stage::kExecute),
                     m.v, m.n, m.block_digest, m.proof, m.sig);

#undef PRESTIGE_WIRE_FIELDS

// --------------------------------------------------------------- dispatch

/// One carried message type and its kind byte.
template <MsgKind K, class M>
struct Kind {
  static constexpr uint8_t kByte = static_cast<uint8_t>(K);
  using Msg = M;
};

template <class K, class Sink>
void EncodeInto(const typename K::Msg& m, Sink& sink) {
  sink.PutU8(K::kByte);
  FieldWriter<Sink> enc(sink);
  enc(m);
}

template <class K>
bool EncodeAs(const runtime::NetMessage& msg, std::vector<uint8_t>* out) {
  const auto* m = dynamic_cast<const typename K::Msg*>(&msg);
  if (m == nullptr) return false;
  ByteCounter counter;
  EncodeInto<K>(*m, counter);
  const size_t start = out->size();
  out->resize(start + counter.size());
  Writer w(out->data() + start, out->data() + out->size());
  EncodeInto<K>(*m, w);
  assert(w.at_end());
  return true;
}

template <class K>
bool DecodeAs(uint8_t kind, Reader& r, runtime::MessagePtr* out) {
  if (kind != K::kByte) return false;
  auto m = std::make_shared<typename K::Msg>();
  FieldReader dec(r);
  dec(*m);
  *out = std::move(m);
  return true;
}

template <class... Ks>
struct KindList {
  static bool Encode(const runtime::NetMessage& msg,
                     std::vector<uint8_t>* out) {
    return (EncodeAs<Ks>(msg, out) || ...);
  }
  static runtime::MessagePtr Decode(uint8_t kind, Reader& r) {
    runtime::MessagePtr out;
    (DecodeAs<Ks>(kind, r, &out) || ...);
    return out;
  }
};

/// Every message with a wire form. Encode tries them in this order; a type
/// not listed (e.g. client::SubmitRequestMsg, which carries a closure) has
/// no wire form.
using Carried = KindList<
    Kind<MsgKind::kClientBatch, types::ClientBatch>,
    Kind<MsgKind::kClientReply, types::ClientReply>,
    Kind<MsgKind::kOrd, core::OrdMsg>,
    Kind<MsgKind::kOrdReply, core::OrdReplyMsg>,
    Kind<MsgKind::kCmt, core::CmtMsg>,
    Kind<MsgKind::kCmtReply, core::CmtReplyMsg>,
    Kind<MsgKind::kTxBlock, core::TxBlockMsg>,
    Kind<MsgKind::kComptRelay, core::ComptRelayMsg>,
    Kind<MsgKind::kConfVc, core::ConfVcMsg>,
    Kind<MsgKind::kReVc, core::ReVcMsg>,
    Kind<MsgKind::kCamp, core::CampMsg>,
    Kind<MsgKind::kVoteCp, core::VoteCpMsg>,
    Kind<MsgKind::kVcBlock, core::VcBlockMsg>,
    Kind<MsgKind::kVcYes, core::VcYesMsg>,
    Kind<MsgKind::kRef, core::RefMsg>,
    Kind<MsgKind::kRefReply, core::RefReplyMsg>,
    Kind<MsgKind::kRdone, core::RdoneMsg>,
    Kind<MsgKind::kSyncReq, core::SyncReqMsg>,
    Kind<MsgKind::kSyncResp, core::SyncRespMsg>,
    Kind<MsgKind::kHeartbeat, core::HeartbeatMsg>,
    Kind<MsgKind::kNoise, core::NoiseMsg>,
    Kind<MsgKind::kClientComplaint, types::ClientComplaint>,
    Kind<MsgKind::kHsProposal, HsProposalMsg>,
    Kind<MsgKind::kHsVote, HsVoteMsg>,
    Kind<MsgKind::kHsPhase, HsPhaseMsg>,
    Kind<MsgKind::kHsNewView, HsNewViewMsg>,
    Kind<MsgKind::kSbPrePrepare, SbPrePrepareMsg>,
    Kind<MsgKind::kSbShare, SbShareMsg>,
    Kind<MsgKind::kSbProof, SbProofMsg>>;

}  // namespace

bool EncodeMessage(const runtime::NetMessage& msg, std::vector<uint8_t>* out) {
  return Carried::Encode(msg, out);
}

runtime::MessagePtr DecodeMessage(const uint8_t* data, size_t len) {
  if (data == nullptr || len == 0) return nullptr;
  Reader r(data + 1, len - 1);
  runtime::MessagePtr msg = Carried::Decode(data[0], r);
  if (msg == nullptr || !r.ok() || r.remaining() != 0) return nullptr;
  return msg;
}

}  // namespace net
}  // namespace prestige
