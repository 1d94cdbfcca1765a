// Heap-allocation guard for the request hot path. A request's command and
// result bytes live inline in the transaction and reply entry, so decoding
// a client batch, an ordering proposal or a client reply allocates a
// constant number of times whatever its entry count, and delivering a
// committed block allocates per client pool, not per request. A counting
// global operator new measures each step; a per-request allocation shows
// as a count that grows with the entry count.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "app/kv_service.h"
#include "core/commit_delivery.h"
#include "core/messages.h"
#include "ledger/tx_block.h"
#include "net/wire.h"
#include "types/client_messages.h"
#include "types/transaction.h"

namespace {

std::atomic<int64_t> g_allocations{0};

}  // namespace

// Every replaceable form that allocates through operator new counts; the
// array and nothrow forms of the standard library forward to this one.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace prestige {
namespace {

/// Heap allocations made while running `fn`.
template <class Fn>
int64_t AllocationsDuring(Fn&& fn) {
  const int64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// `count` KV Puts from `pools` client pools, seqs from `first_seq`, keys
/// 0..count-1.
std::vector<types::Transaction> Puts(size_t count, uint64_t first_seq,
                                     uint32_t pools = 1) {
  std::vector<types::Transaction> txs;
  for (size_t i = 0; i < count; ++i) {
    types::Transaction tx;
    tx.pool = static_cast<uint32_t>(i % pools);
    tx.client_seq = first_seq + i / pools;
    tx.sent_at = 1000 + static_cast<int64_t>(i);
    tx.fingerprint = 0x9e3779b97f4a7c15ULL * (i + 1);
    tx.command = app::kv::EncodePut(i, i * 7 + 1);
    txs.push_back(std::move(tx));
  }
  return txs;
}

std::vector<uint8_t> Encode(const runtime::NetMessage& msg) {
  std::vector<uint8_t> bytes;
  EXPECT_TRUE(net::EncodeMessage(msg, &bytes));
  return bytes;
}

/// Allocations of one DecodeMessage of `bytes` (the decoded message is
/// freed outside the count).
int64_t DecodeAllocations(const std::vector<uint8_t>& bytes) {
  runtime::MessagePtr decoded;
  const int64_t n = AllocationsDuring(
      [&] { decoded = net::DecodeMessage(bytes.data(), bytes.size()); });
  EXPECT_NE(decoded, nullptr);
  return n;
}

std::vector<uint8_t> EncodedOrd(size_t txs) {
  core::OrdMsg ord;
  ord.v = 1;
  ord.n = 7;
  ord.txs = types::MakeTxList(Puts(txs, 1));
  return Encode(ord);
}

std::vector<uint8_t> EncodedClientBatch(size_t txs) {
  types::ClientBatch batch;
  batch.txs = Puts(txs, 1);
  return Encode(batch);
}

std::vector<uint8_t> EncodedClientReply(size_t entries) {
  types::ClientReply reply;
  reply.n = 7;
  for (size_t i = 0; i < entries; ++i) {
    types::ReplyEntry entry;
    entry.client_seq = i + 1;
    entry.result = app::kv::EncodeValue(i * 3);
    entry.result_digest =
        app::ResultDigest(app::ExecStatus::kOk, entry.result);
    reply.entries.push_back(std::move(entry));
  }
  return Encode(reply);
}

// Decoding allocates the message, its one entry array and (an Ord's) the
// shared body: at most 3, the same for 1 entry as for 500.
constexpr int64_t kMaxDecodeAllocations = 3;

TEST(AllocGuardTest, DecodingAnOrdDoesNotAllocatePerTransaction) {
  const int64_t one = DecodeAllocations(EncodedOrd(1));
  const int64_t many = DecodeAllocations(EncodedOrd(500));
  EXPECT_LE(many, kMaxDecodeAllocations);
  EXPECT_EQ(many, one);
}

TEST(AllocGuardTest, DecodingAClientBatchDoesNotAllocatePerTransaction) {
  const int64_t one = DecodeAllocations(EncodedClientBatch(1));
  const int64_t many = DecodeAllocations(EncodedClientBatch(500));
  EXPECT_LE(many, kMaxDecodeAllocations);
  EXPECT_EQ(many, one);
}

TEST(AllocGuardTest, DecodingAClientReplyDoesNotAllocatePerEntry) {
  const int64_t one = DecodeAllocations(EncodedClientReply(1));
  const int64_t many = DecodeAllocations(EncodedClientReply(500));
  EXPECT_LE(many, kMaxDecodeAllocations);
  EXPECT_EQ(many, one);
}

TEST(AllocGuardTest, DeliveringABlockAllocatesPerPoolNotPerRequest) {
  constexpr uint32_t kPools = 4;
  constexpr size_t kTxs = 500;
  // No checkpoint inside the run: eviction is not the step under test.
  core::CommitPipeline pipeline(/*replica_id=*/1, /*checkpoint_interval=*/1000,
                                /*reply_retain_blocks=*/64);
  pipeline.SetService(std::make_unique<app::KvService>());
  auto block_at = [&](types::SeqNum n) {
    ledger::TxBlock block;
    block.v = 1;
    block.set_n(n);
    // Fresh seqs in every block, over the same keys.
    block.set_txs(Puts(kTxs, 1 + static_cast<uint64_t>(n - 1) * kTxs / kPools,
                       kPools));
    return block;
  };
  // The first block inserts the keys and opens the pools' sessions.
  pipeline.Deliver(block_at(1));
  const ledger::TxBlock block = block_at(2);
  std::vector<std::shared_ptr<const types::ClientReply>> replies;
  const int64_t n = AllocationsDuring([&] { replies = pipeline.Deliver(block); });
  ASSERT_EQ(replies.size(), kPools);
  ASSERT_EQ(pipeline.stats().executed, 2 * static_cast<int64_t>(kTxs));
  // Per pool: the reply, its entry array and a node in each of two maps;
  // per block: the returned vector, the retained copy of it, its record
  // and, now and then, a new chunk of the retained-block deque.
  EXPECT_LE(n, 4 * static_cast<int64_t>(kPools) + 8);
}

}  // namespace
}  // namespace prestige
