#include "client/client.h"

#include <algorithm>
// The blocking Call() below parks the *caller's* thread on a condition
// variable until the event loop delivers the reply; that wait is wall-clock
// by nature (threaded embedders only) and never runs under the simulator.
#include <chrono>  // lint:allow(determinism: blocking Call waits wall-clock)
#include <condition_variable>
#include <memory>
#include <mutex>
#include <utility>

namespace prestige {
namespace client {

Client::Client(ClientConfig config) : config_(config) {}

void Client::SetReplicas(std::vector<runtime::NodeId> replicas) {
  replicas_ = std::move(replicas);
  replica_index_.clear();
  for (size_t i = 0; i < replicas_.size(); ++i) {
    replica_index_[replicas_[i]] = i;
  }
}

void Client::OnStart() {
  SetTimer(config_.retry_scan_period, Tag(kRetryScan));
}

uint64_t Client::Submit(util::SmallBytes command, SubmitCallback done,
                        util::DurationMicros expire_after) {
  types::Transaction tx;
  tx.pool = config_.client_id;
  tx.client_seq = next_seq_++;
  tx.group = config_.group;
  tx.sent_at = Now();
  tx.payload_size = config_.payload_size;
  tx.fingerprint = rng()->NextUint64();
  tx.command = std::move(command);

  Pending pending;
  pending.tx = tx;
  pending.done = std::move(done);
  pending.last_send = tx.sent_at;
  if (expire_after > 0) pending.expire_at = tx.sent_at + expire_after;
  pending_.emplace(tx.client_seq, std::move(pending));

  pending_send_.push_back(std::move(tx));
  if (!flush_armed_) {
    flush_armed_ = true;
    SetTimer(config_.aggregation_window, Tag(kFlush));
  }
  return next_seq_ - 1;
}

void Client::SubmitAsync(util::SmallBytes command, SubmitCallback done,
                         util::DurationMicros expire_after) {
  auto msg = std::make_shared<SubmitRequestMsg>();
  msg->command = std::move(command);
  msg->done = std::move(done);
  msg->expire_after = expire_after;
  Send(id(), std::move(msg));  // Marshal onto the owning event loop.
}

SubmitResult Client::Call(util::SmallBytes command,
                          util::DurationMicros wait_limit) {
  struct SyncState {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    SubmitResult result;
  };
  auto state = std::make_shared<SyncState>();
  // The request expires loop-side at the same deadline the caller stops
  // waiting, so an abandoned Call does not retransmit/complain forever.
  SubmitAsync(
      std::move(command),
      [state](const SubmitResult& r) {
        std::lock_guard<std::mutex> lock(state->mu);
        state->result = r;
        state->done = true;
        state->cv.notify_all();
      },
      wait_limit);
  std::unique_lock<std::mutex> lock(state->mu);
  // lint:allow(determinism: caller-side wall-clock timeout, threaded only)
  if (!state->cv.wait_for(lock, std::chrono::microseconds(wait_limit),
                          [&] { return state->done; })) {
    SubmitResult timeout;
    timeout.status = app::ExecStatus::kError;
    timeout.timed_out = true;
    return timeout;
  }
  return state->result;
}

void Client::Flush() {
  if (pending_send_.empty()) return;
  auto batch = std::make_shared<types::ClientBatch>();
  batch->txs = std::move(pending_send_);
  pending_send_.clear();
  Send(replicas_, std::move(batch));
}

void Client::OnMessage(runtime::NodeId from, const runtime::MessagePtr& msg) {
  if (const auto* reply = dynamic_cast<const types::ClientReply*>(msg.get())) {
    OnReply(from, *reply);
    return;
  }
  if (const auto* submit =
          dynamic_cast<const SubmitRequestMsg*>(msg.get())) {
    // Marshalled SubmitAsync arriving on the loop; the message is only ever
    // self-addressed, so consuming its movable fields is safe.
    auto* mutable_submit = const_cast<SubmitRequestMsg*>(submit);
    Submit(std::move(mutable_submit->command),
           std::move(mutable_submit->done), submit->expire_after);
    return;
  }
}

/// Digest of the deterministic "committed, result evicted" reply shape
/// (ExecStatus::kStaleDup). A request answered partly from live caches and
/// partly post-eviction legitimately sees two digests; that split is
/// honest behaviour, not result divergence.
static uint64_t StaleDupDigest() {
  return app::ResultDigest(app::ExecStatus::kStaleDup, {});
}

void Client::OnReply(runtime::NodeId from, const types::ClientReply& reply) {
  if (reply.pool != config_.client_id) return;
  // Votes are attributed to the authenticated transport sender; the
  // message's claimed `replica` field is ignored, so one Byzantine
  // replica cannot fabricate a quorum by sending under many ids.
  auto sender = replica_index_.find(from);
  if (sender == replica_index_.end()) return;  // Not a known replica.
  const size_t voter = sender->second;

  for (const types::ReplyEntry& entry : reply.entries) {
    auto it = pending_.find(entry.client_seq);
    if (it == pending_.end()) continue;  // Already completed.
    Pending& pending = it->second;

    // Recompute the digest from the entry's own status/result bytes:
    // honest replicas always satisfy result_digest ==
    // ResultDigest(status, result), so trusting the wire field would
    // let forged result bytes ride an honest digest into the quorum.
    const uint64_t digest = app::ResultDigest(
        static_cast<app::ExecStatus>(entry.status), entry.result);

    DigestVotes& votes = pending.votes[digest];
    if (votes.replicas.capacity() == 0) {
      // First reply with this digest: remember the representative result
      // and note a divergence if another digest already has votes. The
      // matcher is bounded by the replica id space, checked explicitly —
      // out-of-range indices are dropped, never aliased.
      votes.replicas = util::SmallBitset(
          std::max<size_t>(replicas_.size(), 3 * config_.f + 1));
      votes.first = entry;
      votes.height = reply.n;
      // A stale-dup digest alongside a real one is reply-cache eviction,
      // not divergent execution; only count genuine result conflicts.
      if (pending.votes.size() > 1 && digest != StaleDupDigest() &&
          pending.votes.count(StaleDupDigest()) + 1 <
              pending.votes.size()) {
        ++stats_.result_mismatches;
      }
    }
    if (!votes.replicas.InBounds(voter)) continue;
    if (!votes.replicas.TestAndSet(voter)) {
      ++stats_.duplicate_replies;
      continue;
    }
    ++stats_.replies_received;
    if (votes.replicas.count() < config_.f + 1) continue;

    // f+1 replicas agree on the result digest: the request is complete.
    SubmitResult result;
    result.status = static_cast<app::ExecStatus>(votes.first.status);
    result.result = votes.first.result;
    result.height = votes.height;
    result.latency = Now() - pending.tx.sent_at;
    latencies_.Add(util::ToMillis(result.latency));
    ++stats_.completed;
    SubmitCallback done = std::move(pending.done);
    pending_.erase(it);
    if (done) done(result);  // Closed loops re-Submit from here; Submit
                             // arms the aggregation window itself.
  }
}

void Client::OnTimer(uint64_t tag) {
  switch (TagKind(tag)) {
    case kFlush:
      flush_armed_ = false;
      Flush();
      break;
    case kRetryScan:
      ScanRetries();
      SetTimer(config_.retry_scan_period, Tag(kRetryScan));
      break;
  }
}

void Client::ScanRetries() {
  const util::TimeMicros now = Now();
  // One aggregated batch per scan: after a leader failure whole closed
  // loops go overdue together, and per-request batches would multiply the
  // broadcast load by the outstanding count.
  std::shared_ptr<types::ClientBatch> retransmit;
  // Expiry callbacks run after the scan: one that re-Submits would
  // mutate pending_ mid-iteration.
  std::vector<SubmitCallback> expired;
  for (auto it = pending_.begin(); it != pending_.end();) {
    Pending& pending = it->second;
    // Abandon requests past their caller-supplied deadline (Call()
    // timeouts): completing them with timed_out stops the retransmit /
    // complaint churn and bounds pending_.
    if (pending.expire_at != 0 && now >= pending.expire_at) {
      ++stats_.expired;
      if (pending.done) expired.push_back(std::move(pending.done));
      it = pending_.erase(it);
      continue;
    }
    ++it;
    // Retransmit the proposal: replicas treat replays idempotently (their
    // request pools and session tables dedup by (pool, client_seq)).
    if (now - pending.last_send >= config_.retransmit_after) {
      pending.last_send = now;
      ++stats_.retransmissions;
      if (retransmit == nullptr) {
        retransmit = std::make_shared<types::ClientBatch>();
      }
      retransmit->txs.push_back(pending.tx);
    }
    // Escalate: a request past its deadline becomes a complaint (§4.2.1),
    // feeding the replicas' failure-detection path. Replicas that already
    // committed it re-serve the cached reply instead.
    const util::TimeMicros reference = pending.last_complaint == 0
                                           ? pending.tx.sent_at
                                           : pending.last_complaint;
    if (now - reference >= config_.request_timeout) {
      pending.last_complaint = now;
      ++stats_.complaints_sent;
      auto compt = std::make_shared<types::ClientComplaint>();
      compt->tx = pending.tx;
      Send(replicas_, std::move(compt));
    }
  }
  if (retransmit != nullptr) Send(replicas_, std::move(retransmit));
  // Complaint spam: broadcast complaints about transactions that were
  // never submitted. Each bogus complaint invites the replicas to start an
  // inspection — the attack the reputation engine's penalty for failed
  // view changes is meant to price out. Spam client_seqs live far above
  // the real sequence space, so replies (if the spam ever commits) fall
  // through OnReply's unknown-seq filter harmlessly.
  if (adversary_ != nullptr) {
    const uint32_t burst =
        adversary_->ComplaintSpamBurst(config_.client_id, now);
    for (uint32_t i = 0; i < burst; ++i) {
      types::Transaction bogus;
      bogus.pool = config_.client_id;
      bogus.client_seq = (1ull << 40) + ++spam_seq_;
      bogus.group = config_.group;
      bogus.sent_at = now - config_.request_timeout;  // Looks overdue.
      bogus.payload_size = config_.payload_size;
      bogus.fingerprint = bogus.client_seq * 0x9e3779b97f4a7c15ULL;
      auto compt = std::make_shared<types::ClientComplaint>();
      compt->tx = std::move(bogus);
      ++stats_.complaints_sent;
      Send(replicas_, std::move(compt));
    }
  }
  if (!expired.empty()) {
    SubmitResult timeout;
    timeout.status = app::ExecStatus::kError;
    timeout.timed_out = true;
    for (SubmitCallback& done : expired) done(timeout);
  }
}

}  // namespace client
}  // namespace prestige
