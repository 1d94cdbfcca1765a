// ClientSessionTable: per-client exactly-once bookkeeping on the replica.
//
// Tracks, per client pool (session), which client_seq values have already
// executed and caches the last replies so a retransmitted or
// complaint-resubmitted request is answered from the cache instead of being
// executed a second time (the dsnet-style per-client OpNum / reply-cache
// discipline).
//
// It is the replica's one record of decided requests: the request pool and
// the complaint paths ask it too (ReplicaBase::Committed).
//
// Dedup metadata is exact: a contiguous floor ("every seq <= floor
// executed") plus a sparse set of executed seqs above it. A pool that
// issues seqs contiguously keeps the sparse set to its current
// out-of-order window; a client sending sparse seqs grows it by one entry
// per request. Cached reply *bodies* are the bounded part: they are evicted at
// checkpoint boundaries once older than the retain window, after which a
// duplicate is still detected but answered with ExecStatus::kStaleDup
// (committed, result no longer available). Eviction is driven purely by
// committed block heights, so every honest replica's table evolves
// identically.
//
// Eviction order: Record runs in commit order, so cached replies arrive in
// non-decreasing height. A FIFO of (height, pool, seq) mirrors that order,
// and EvictUpTo pops its front: the cost is O(evicted), not a scan of every
// cached reply.

#ifndef PRESTIGE_CORE_CLIENT_SESSION_H_
#define PRESTIGE_CORE_CLIENT_SESSION_H_

#include <cassert>
#include <cstdint>
#include <deque>
#include <set>
#include <unordered_map>

#include "app/service.h"
#include "types/ids.h"

namespace prestige {
namespace core {

class ClientSessionTable {
 public:
  /// One cached execution result.
  struct CachedReply {
    app::Response response;
    types::SeqNum height = 0;  ///< Block height the request executed at.
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

  /// Cached reply for a duplicate, or nullptr when it was evicted.
  const CachedReply* Lookup(types::ClientPoolId pool, uint64_t seq) const {
    auto it = sessions_.find(pool);
    if (it == sessions_.end()) return nullptr;
    auto r = it->second.replies.find(seq);
    return r == it->second.replies.end() ? nullptr : &r->second;
  }

  /// Records an execution: marks (pool, seq) executed and caches the reply.
  /// Seq 0 is untracked (see IsDuplicate) and recording it is a no-op.
  /// Heights must be non-decreasing across calls (commit order).
  void Record(types::ClientPoolId pool, uint64_t seq, app::Response response,
              types::SeqNum height) {
    if (seq == 0) return;
    Session& s = sessions_[pool];
    if (seq > s.floor) {
      s.executed_above.insert(seq);
      // Close the contiguous window.
      while (!s.executed_above.empty() &&
             *s.executed_above.begin() == s.floor + 1) {
        ++s.floor;
        s.executed_above.erase(s.executed_above.begin());
      }
    }
    assert(evict_order_.empty() || evict_order_.back().height <= height);
    if (s.replies.emplace(seq, CachedReply{std::move(response), height})
            .second) {
      evict_order_.push_back({height, pool, seq});
    }
  }

  /// Evicts cached replies recorded at or below block `height` (dedup
  /// metadata is kept — duplicates stay detectable forever). Called at
  /// checkpoint boundaries with `checkpoint - retain_window`.
  void EvictUpTo(types::SeqNum height) {
    while (!evict_order_.empty() && evict_order_.front().height <= height) {
      const Recorded& oldest = evict_order_.front();
      sessions_[oldest.pool].replies.erase(oldest.seq);
      evict_order_.pop_front();
    }
  }

  size_t session_count() const { return sessions_.size(); }
  size_t cached_replies() const { return evict_order_.size(); }

 private:
  struct Session {
    uint64_t floor = 0;                  ///< All seqs <= floor executed.
    std::set<uint64_t> executed_above;   ///< Executed seqs > floor (sparse).
    std::unordered_map<uint64_t, CachedReply> replies;
  };

  /// One cached reply's key, in the order it was recorded.
  struct Recorded {
    types::SeqNum height;
    types::ClientPoolId pool;
    uint64_t seq;
  };

  std::unordered_map<types::ClientPoolId, Session> sessions_;
  std::deque<Recorded> evict_order_;  ///< Non-decreasing height.
};

}  // namespace core
}  // namespace prestige

#endif  // PRESTIGE_CORE_CLIENT_SESSION_H_
