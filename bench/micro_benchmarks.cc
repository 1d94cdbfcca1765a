// Micro-benchmarks (google-benchmark): crypto substrate, reputation engine,
// proof-of-work, simulator hot paths, commit delivery, and the socket
// backend's per-message stages (wire encode and decode, framing,
// reassembly). Not a paper figure — these bound the constants the cost
// model abstracts.

#include <benchmark/benchmark.h>

#include <chrono>

#include "app/kv_service.h"
#include "core/commit_delivery.h"
#include "core/messages.h"
#include "crypto/hmac.h"
#include "crypto/keys.h"
#include "crypto/pow.h"
#include "crypto/quorum_cert.h"
#include "crypto/sha256.h"
#include "ledger/block_store.h"
#include "net/frame.h"
#include "net/wire.h"
#include "reputation/reputation_engine.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "types/client_messages.h"
#include "types/transaction.h"
#include "util/random.h"

namespace prestige {
namespace {

void BM_Sha256(benchmark::State& state) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_HmacSha256(benchmark::State& state) {
  std::vector<uint8_t> key(32, 0x0b);
  std::vector<uint8_t> data(256, 0xcd);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::HmacSha256(key, data));
  }
}
BENCHMARK(BM_HmacSha256);

void BM_SignVerify(benchmark::State& state) {
  crypto::KeyStore keys(42);
  const crypto::Sha256Digest digest =
      crypto::Sha256::Hash(std::string("message"));
  const crypto::Signature sig = keys.Sign(1, digest);
  for (auto _ : state) {
    benchmark::DoNotOptimize(keys.Verify(sig, digest));
  }
}
BENCHMARK(BM_SignVerify);

void BM_QuorumCertVerify(benchmark::State& state) {
  crypto::KeyStore keys(42);
  const crypto::Sha256Digest digest =
      crypto::Sha256::Hash(std::string("block"));
  const uint32_t quorum = static_cast<uint32_t>(state.range(0));
  crypto::QuorumCertBuilder builder(digest, quorum);
  for (uint32_t i = 0; i < quorum; ++i) {
    builder.Add(keys.Sign(i, digest), digest);
  }
  const crypto::QuorumCert qc = builder.Build();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::VerifyQuorumCert(keys, qc, digest, quorum));
  }
}
BENCHMARK(BM_QuorumCertVerify)->Arg(3)->Arg(11)->Arg(67);

void BM_CalcRp(benchmark::State& state) {
  reputation::ReputationEngine engine;
  std::vector<types::Penalty> penalties;
  for (int64_t i = 0; i < state.range(0); ++i) {
    penalties.push_back(1 + i % 5);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.CalcRp(100, 99, 5, 1000, 200, penalties));
  }
}
BENCHMARK(BM_CalcRp)->Arg(8)->Arg(64)->Arg(1024);

void BM_PowSolve(benchmark::State& state) {
  util::Rng rng(7);
  crypto::RealPowSolver solver;
  const crypto::Sha256Digest payload =
      crypto::Sha256::Hash(std::string("txblock"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solver.Solve(payload, static_cast<int>(state.range(0)), &rng));
  }
}
BENCHMARK(BM_PowSolve)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

void BM_PowVerify(benchmark::State& state) {
  util::Rng rng(7);
  crypto::RealPowSolver solver;
  const crypto::Sha256Digest payload =
      crypto::Sha256::Hash(std::string("txblock"));
  const auto sol = solver.Solve(payload, 12, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::PowVerify(payload, sol->nonce, 12));
  }
}
BENCHMARK(BM_PowVerify);

void BM_EventQueue(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim(1);
    for (int i = 0; i < 1000; ++i) {
      sim.ScheduleAt(i * 10, [] {});
    }
    sim.RunUntil(100000);
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueue);

void BM_TransactionDigest(benchmark::State& state) {
  types::Transaction tx;
  tx.pool = 3;
  tx.client_seq = 12345;
  tx.fingerprint = 0xdeadbeef;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tx.Digest());
  }
}
BENCHMARK(BM_TransactionDigest);

/// One batch of 500 KV Puts, the perfbench batch size. Built at run time
/// from a seeded Rng so nothing folds to a constant.
std::vector<types::Transaction> SeededPutBatch() {
  util::Rng rng(11);
  std::vector<types::Transaction> txs(500);
  for (size_t i = 0; i < txs.size(); ++i) {
    types::Transaction& tx = txs[i];
    tx.pool = 1;
    tx.client_seq = i + 1;
    tx.sent_at = static_cast<util::TimeMicros>(rng.NextBounded(1u << 30));
    tx.fingerprint = rng.NextUint64();
    tx.command = app::kv::EncodePut(rng.NextBounded(1024), rng.NextUint64());
  }
  return txs;
}

// The block digest the replication round takes 4 times per block (leader
// Propose, followers' OnOrd).
void BM_BatchDigest(benchmark::State& state) {
  const std::vector<types::Transaction> txs = SeededPutBatch();
  for (auto _ : state) {
    benchmark::DoNotOptimize(types::BatchDigest(txs));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(txs.size()));
}
BENCHMARK(BM_BatchDigest);

// CommitPipeline::Deliver with KvService over consecutive 500-Put blocks:
// execution, the session table's dedup + reply cache, and, every 32nd
// block (a checkpoint), eviction of the replies older than the retain
// window. Each iteration relabels the block to the next height with fresh
// client seqs, so every request executes and the reply cache reaches its
// steady size, as on a replica; the relabel copies the immutable body, so
// it runs with the timer paused. Eviction is a small share of the mean,
// so `checkpoint_block_us` times the checkpoint blocks apart.
void BM_DeliverBlock(benchmark::State& state) {
  constexpr types::SeqNum kCheckpointInterval = 32;
  core::CommitPipeline pipeline(/*replica_id=*/0, kCheckpointInterval);
  pipeline.SetService(std::make_unique<app::KvService>());
  ledger::TxBlock block;
  block.v = 1;
  block.set_txs(SeededPutBatch());
  block.status.assign(block.BatchSize(), 1);
  const auto batch = static_cast<uint64_t>(block.BatchSize());
  types::SeqNum height = 0;
  std::chrono::steady_clock::duration checkpoint_time{};
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<types::Transaction> txs = block.release_txs();
    for (types::Transaction& tx : txs) tx.client_seq += batch;
    block.set_txs(std::move(txs));
    state.ResumeTiming();
    block.set_n(++height);
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(pipeline.Deliver(block));
    if (height % kCheckpointInterval == 0) {
      checkpoint_time += std::chrono::steady_clock::now() - start;
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch));
  const int64_t checkpoints = pipeline.stats().checkpoints;
  state.counters["checkpoints"] = static_cast<double>(checkpoints);
  if (checkpoints > 0) {
    state.counters["checkpoint_block_us"] =
        std::chrono::duration<double, std::micro>(checkpoint_time).count() /
        static_cast<double>(checkpoints);
  }
}
BENCHMARK(BM_DeliverBlock);

// BlockStore::AppendTxBlock of 600 distinct, chained 500-Put blocks moved
// into an empty store: the socket-saturate chain length, whose growth
// crosses ten capacity doublings. Block digests are memoized before the
// timer starts (the store reads the tip's), and building the blocks and
// freeing the store run with the timer paused, so the time is the appends
// and the relocations of the chain vector.
void BM_ChainAppend(benchmark::State& state) {
  constexpr types::SeqNum kBlocks = 600;
  std::vector<ledger::TxBlock> chain;
  chain.reserve(kBlocks);
  std::vector<types::Transaction> txs = SeededPutBatch();
  const auto batch = static_cast<uint64_t>(txs.size());
  crypto::Sha256Digest prev{};
  for (types::SeqNum n = 1; n <= kBlocks; ++n) {
    for (types::Transaction& tx : txs) tx.client_seq += batch;
    ledger::TxBlock block;
    block.v = 1;
    block.set_n(n);
    block.set_prev_hash(prev);
    block.set_txs(txs);
    block.status.assign(block.BatchSize(), 1);
    prev = block.Digest();
    chain.push_back(std::move(block));
  }
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<ledger::TxBlock> blocks = chain;
    auto store = std::make_unique<ledger::BlockStore>();
    state.ResumeTiming();
    for (ledger::TxBlock& block : blocks) {
      if (!store->AppendTxBlock(std::move(block)).ok()) {
        state.SkipWithError("chain rejected a block");
        return;
      }
    }
    state.PauseTiming();
    store.reset();
    blocks.clear();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * kBlocks);
}
BENCHMARK(BM_ChainAppend)->Unit(benchmark::kMillisecond);

// ClientSessionTable::Lookup over a full reply-retain window: 96 retained
// blocks of 500 replies from one pool (a checkpoint every 32 blocks with a
// 64-block retain window keeps up to 96). Arg 0 finds the last entry of
// the oldest retained block; arg 1 misses on a request whose block was
// evicted (a kStaleDup replay). Both read every retained reply's range;
// this is the cost of one duplicate when per-block seq ranges are disjoint.
void BM_ReplyLookup(benchmark::State& state) {
  constexpr types::SeqNum kBlocks = 128;
  constexpr types::SeqNum kRetained = 96;
  core::CommitPipeline pipeline(/*replica_id=*/0,
                                /*checkpoint_interval=*/kBlocks,
                                /*reply_retain_blocks=*/kRetained);
  pipeline.SetService(std::make_unique<app::KvService>());
  ledger::TxBlock block;
  block.v = 1;
  block.set_txs(SeededPutBatch());
  block.status.assign(block.BatchSize(), 1);
  const auto batch = static_cast<uint64_t>(block.BatchSize());
  for (types::SeqNum height = 1; height <= kBlocks; ++height) {
    if (height > 1) {
      std::vector<types::Transaction> txs = block.release_txs();
      for (types::Transaction& tx : txs) tx.client_seq += batch;
      block.set_txs(std::move(txs));
    }
    block.set_n(height);
    pipeline.Deliver(block);
  }
  const core::ClientSessionTable& sessions = pipeline.sessions();
  const types::ClientPoolId pool = block.txs().front().pool;
  const bool hit = state.range(0) == 0;
  const uint64_t oldest = static_cast<uint64_t>(kBlocks - kRetained) + 1;
  const uint64_t seq = hit ? oldest * batch : batch;
  if ((sessions.Lookup(pool, seq).entry != nullptr) != hit ||
      !sessions.IsDuplicate(pool, seq)) {
    state.SkipWithError("retain window not as expected");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sessions.Lookup(pool, seq));
  }
  state.counters["retained_replies"] =
      static_cast<double>(sessions.cached_replies());
}
BENCHMARK(BM_ReplyLookup)->ArgName("miss")->Arg(0)->Arg(1);

// The socket backend's per-message stages on the leader's Ord of one
// 500-Put batch (about 28.6 KB on the wire): wire encode and decode,
// framing (fragment headers + CRC32C), and the receiver's validation and
// reassembly (CRC32C again). Bytes processed are the encoded message's.
core::OrdMsg SeededOrd() {
  core::OrdMsg ord;
  ord.v = 3;
  ord.n = 77;
  ord.prev_hash = crypto::Sha256::Hash(std::string("prev"));
  ord.txs = types::MakeTxList(SeededPutBatch());
  ord.sig.signer = 1;
  ord.sig.mac = crypto::Sha256::Hash(std::string("sig"));
  return ord;
}

std::vector<uint8_t> EncodedOrd() {
  std::vector<uint8_t> bytes;
  net::EncodeMessage(SeededOrd(), &bytes);
  return bytes;
}

void BM_EncodeOrd(benchmark::State& state) {
  const core::OrdMsg ord = SeededOrd();
  std::vector<uint8_t> bytes;
  for (auto _ : state) {
    bytes.clear();
    benchmark::DoNotOptimize(net::EncodeMessage(ord, &bytes));
    benchmark::DoNotOptimize(bytes.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_EncodeOrd);

void BM_DecodeOrd(benchmark::State& state) {
  const std::vector<uint8_t> bytes = EncodedOrd();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::DecodeMessage(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_DecodeOrd);

// A client pool's ClientBatch of 500 Puts: every replica decodes each one
// before admitting its requests.
void BM_DecodeClientBatch(benchmark::State& state) {
  types::ClientBatch batch;
  batch.txs = SeededPutBatch();
  std::vector<uint8_t> bytes;
  net::EncodeMessage(batch, &bytes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::DecodeMessage(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_DecodeClientBatch);

// One replica's ClientReply for a 500-Put block (each entry carries the
// Put's 8-byte previous value); a replica sends one per block to every
// client pool the block serves.
types::ClientReply SeededReply() {
  types::ClientReply reply;
  reply.replica = 2;
  reply.v = 3;
  reply.n = 77;
  reply.pool = 1;
  util::Rng rng(13);
  reply.entries.resize(500);
  for (size_t i = 0; i < reply.entries.size(); ++i) {
    types::ReplyEntry& e = reply.entries[i];
    e.client_seq = i + 1;
    e.result = app::kv::EncodeValue(rng.NextUint64());
    e.result_digest = app::ResultDigest(app::ExecStatus::kOk, e.result);
  }
  return reply;
}

void BM_EncodeClientReply(benchmark::State& state) {
  const types::ClientReply reply = SeededReply();
  std::vector<uint8_t> bytes;
  for (auto _ : state) {
    bytes.clear();
    benchmark::DoNotOptimize(net::EncodeMessage(reply, &bytes));
    benchmark::DoNotOptimize(bytes.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_EncodeClientReply);

void BM_DecodeClientReply(benchmark::State& state) {
  std::vector<uint8_t> bytes;
  net::EncodeMessage(SeededReply(), &bytes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::DecodeMessage(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_DecodeClientReply);

void BM_FrameSplit(benchmark::State& state) {
  const std::vector<uint8_t> bytes = EncodedOrd();
  net::FrameWriter writer(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(writer.Split(1, bytes));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_FrameSplit);

void BM_FrameAccept(benchmark::State& state) {
  const std::vector<uint8_t> bytes = EncodedOrd();
  const net::FrameWriter::Frames frames = net::FrameWriter(0).Split(1, bytes);
  net::FrameAssembler assembler(1);
  std::vector<net::FrameAssembler::Complete> out;
  for (auto _ : state) {
    out.clear();
    for (const std::vector<uint8_t>& frame : frames) {
      assembler.Accept(frame.data(), frame.size(), &out);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_FrameAccept);

}  // namespace
}  // namespace prestige

BENCHMARK_MAIN();
