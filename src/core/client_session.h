// ClientSessionTable: per-client exactly-once bookkeeping on the replica.
//
// Tracks, per client pool (session), which client_seq values have already
// executed, and keeps the replies it sent for recent blocks, so a
// retransmitted or complaint-resubmitted request is answered from them
// instead of being executed a second time (the dsnet-style per-client
// OpNum / reply-cache discipline, at the granularity the replies were
// sent).
//
// It is the replica's one record of decided requests: the request pool and
// the complaint paths ask it too (ReplicaBase::Committed).
//
// Dedup metadata is exact: a contiguous floor ("every seq <= floor
// executed") plus a sparse set of executed seqs above it. A pool that
// issues seqs contiguously only bumps the floor and allocates nothing; the
// sparse set holds its current out-of-order window. A client sending
// sparse seqs grows the set by one entry per request.
//
// The reply cache is the ClientReply messages themselves: Retain keeps the
// shared_ptrs of one block's replies, with the range [lo, hi] of the fresh
// (executed, non-duplicate) seqs each reply carries. A cached reply is
// therefore the very entry that was sent, never a copy, and it is never
// mutated once retained (on the threaded backend the client thread reads
// the same object). Retained blocks are evicted whole at checkpoint
// boundaries once older than the retain window, after which a duplicate is
// still detected but answered with ExecStatus::kStaleDup (committed, result
// no longer available). Eviction is driven purely by committed block
// heights, so every honest replica's table evolves identically.
//
// Costs: Record is O(1) for an in-order seq; EvictUpTo pops whole blocks,
// O(evicted blocks). Lookup scans the retained blocks newest first and
// reads a reply's entries only when its pool matches and its [lo, hi]
// covers the seq; the worst case, every retained reply of the pool
// covering the seq, reads every entry in the window (retain window x block
// size), which BM_ReplyLookup measures.

#ifndef PRESTIGE_CORE_CLIENT_SESSION_H_
#define PRESTIGE_CORE_CLIENT_SESSION_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "types/client_messages.h"
#include "types/ids.h"

namespace prestige {
namespace core {

class ClientSessionTable {
 public:
  /// A cached execution result: the fresh entry that was sent for the
  /// request, and the block height it executed at. `entry` is null on a
  /// miss; it stays valid until the block is evicted.
  struct CachedReply {
    const types::ReplyEntry* entry = nullptr;
    types::SeqNum height = 0;
  };

  /// True when (pool, seq) has already executed on this replica.
  /// Session seqs are 1-based (client::Client numbers from 1); seq 0 is
  /// outside session tracking — never a duplicate, executed every time it
  /// commits — rather than silently aliasing the pre-session floor.
  bool IsDuplicate(types::ClientPoolId pool, uint64_t seq) const {
    if (seq == 0) return false;
    auto it = sessions_.find(pool);
    if (it == sessions_.end()) return false;
    const Session& s = it->second;
    return seq <= s.floor || s.executed_above.count(seq) > 0;
  }

  /// The fresh entry for (pool, seq) in a retained block, newest block
  /// first; a miss when it was evicted, never executed, or seq is 0.
  CachedReply Lookup(types::ClientPoolId pool, uint64_t seq) const {
    if (seq == 0) return {};
    for (auto block = retained_.rbegin(); block != retained_.rend();
         ++block) {
      for (const RetainedReply& r : block->replies) {
        if (r.reply->pool != pool || seq < r.lo || seq > r.hi) continue;
        if (const types::ReplyEntry* entry = FindFresh(*r.reply, seq)) {
          return {entry, block->height};
        }
      }
    }
    return {};
  }

  /// The fresh entry for `seq` in `reply`, or null.
  static const types::ReplyEntry* FindFresh(const types::ClientReply& reply,
                                            uint64_t seq) {
    for (const types::ReplyEntry& entry : reply.entries) {
      if (entry.client_seq == seq && !entry.duplicate) return &entry;
    }
    return nullptr;
  }

  /// Marks (pool, seq) executed. Seq 0 is untracked (see IsDuplicate) and
  /// recording it is a no-op.
  void Record(types::ClientPoolId pool, uint64_t seq) {
    if (seq == 0) return;
    Session& s = sessions_[pool];
    if (seq == s.floor + 1 && s.executed_above.empty()) {
      s.floor = seq;  // In-order fast path.
      return;
    }
    if (seq > s.floor) {
      s.executed_above.insert(seq);
      // Close the contiguous window.
      while (!s.executed_above.empty() &&
             *s.executed_above.begin() == s.floor + 1) {
        ++s.floor;
        s.executed_above.erase(s.executed_above.begin());
      }
    }
  }

  /// Keeps the replies sent for the block at `height` as the reply cache.
  /// Heights must be non-decreasing across calls (commit order). Replies
  /// without a fresh, session-tracked entry are not kept.
  void Retain(types::SeqNum height,
              std::vector<std::shared_ptr<const types::ClientReply>> replies) {
    assert(retained_.empty() || retained_.back().height <= height);
    RetainedBlock block;
    block.height = height;
    block.replies.reserve(replies.size());
    for (std::shared_ptr<const types::ClientReply>& reply : replies) {
      RetainedReply r;
      const size_t fresh_before = block.fresh;
      for (const types::ReplyEntry& entry : reply->entries) {
        if (entry.duplicate || entry.client_seq == 0) continue;
        r.lo = std::min(r.lo, entry.client_seq);
        r.hi = std::max(r.hi, entry.client_seq);
        ++block.fresh;
      }
      if (block.fresh == fresh_before) continue;
      r.reply = std::move(reply);
      block.replies.push_back(std::move(r));
    }
    if (block.fresh == 0) return;
    cached_ += block.fresh;
    retained_.push_back(std::move(block));
  }

  /// Evicts the blocks retained at or below `height` (dedup metadata is
  /// kept — duplicates stay detectable forever). Called at checkpoint
  /// boundaries with `checkpoint - retain_window`.
  void EvictUpTo(types::SeqNum height) {
    while (!retained_.empty() && retained_.front().height <= height) {
      cached_ -= retained_.front().fresh;
      retained_.pop_front();
    }
  }

  size_t session_count() const { return sessions_.size(); }
  /// Fresh, session-tracked entries Lookup can return.
  size_t cached_replies() const { return cached_; }

 private:
  struct Session {
    uint64_t floor = 0;                  ///< All seqs <= floor executed.
    std::set<uint64_t> executed_above;   ///< Executed seqs > floor (sparse).
  };

  /// One sent reply and the range of the fresh seqs it carries.
  struct RetainedReply {
    std::shared_ptr<const types::ClientReply> reply;
    uint64_t lo = std::numeric_limits<uint64_t>::max();
    uint64_t hi = 0;
  };

  struct RetainedBlock {
    types::SeqNum height = 0;
    size_t fresh = 0;  ///< Fresh entries over all replies.
    std::vector<RetainedReply> replies;
  };

  std::unordered_map<types::ClientPoolId, Session> sessions_;
  std::deque<RetainedBlock> retained_;  ///< Non-decreasing height.
  size_t cached_ = 0;  ///< Sum of the retained blocks' fresh.
};

}  // namespace core
}  // namespace prestige

#endif  // PRESTIGE_CORE_CLIENT_SESSION_H_
