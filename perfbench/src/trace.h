// Tracing decorators for the traced benchmark run.
//
// Everything here wraps public interfaces from the outside; the program
// itself is unchanged:
//   * TracedNode  — a runtime::Node decorator registered with the backend in
//     place of a replica or the client pool. It times every callback
//     (OnStart / OnMessage / OnTimer), installs a crypto::ScopedCryptoMeter
//     around it, and records a span per callback. PreVerify is forwarded:
//     backends only call it with worker pools, which no workload uses;
//   * TracedEnv   — the runtime::Env the wrapped node actually sees. It
//     counts and stamps every Send (the receiver turns the stamp into a
//     Send -> OnMessage delivery span), records SetTimer due times (timer
//     lateness), and keeps a sample of sent messages for the offline net/
//     codec timing;
//   * TracedService — an app::Service decorator around KvService that times
//     Execute and attaches the time to the enclosing callback span.
//
// Spans live in per-node vectors touched only by that node's loop thread
// and are written out after Stop (WriteSpans). Cross-thread state is limited
// to the per-receiver send-stamp queues (mutex) and the view-change stamps
// (atomics).

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "app/service.h"
#include "crypto/sha256.h"
#include "runtime/env.h"

namespace perfbench {

namespace rt = prestige::runtime;

/// Nanoseconds on the steady clock (span time base).
int64_t NowNs();

/// One recorded interval. `parent` indexes the same node's span vector
/// (-1 = root); `count` is the number of operations folded into the span
/// (Execute calls for app spans, 1 otherwise).
struct Span {
  uint32_t name = 0;
  int32_t parent = -1;
  uint32_t node = 0;
  uint32_t count = 1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Interned span names, shared by all nodes (filled before Start, then
/// read-only except for the lock-protected Intern path).
class SpanNames {
 public:
  uint32_t Intern(const std::string& name);
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::mutex mu_;
  std::unordered_map<std::string, uint32_t> ids_;
  std::vector<std::string> names_;
};

/// Run-wide view-change stamps (runtime microseconds; -1 = not seen).
struct VcStamps {
  /// The crash instant; sends before it are ignored.
  std::atomic<int64_t> crash_at_us{-1};
  std::atomic<int64_t> first_confvc_us{-1};
  std::atomic<int64_t> first_vcblock_us{-1};
};

/// Per-message-name callback accounting.
struct NameStats {
  int64_t count = 0;
  int64_t busy_ns = 0;
};

class TracedNode;

/// The Env a wrapped node is bound to; forwards to the backend's Env.
class TracedEnv final : public rt::Env {
 public:
  TracedEnv(TracedNode* owner) : owner_(owner) {}
  void Attach(rt::Env* real) { real_ = real; }

  rt::NodeId id() const override { return real_->id(); }
  void Send(rt::NodeId to, rt::MessagePtr msg) override;
  void Send(const std::vector<rt::NodeId>& targets,
            rt::MessagePtr msg) override;
  rt::TimerId SetTimer(prestige::util::DurationMicros delay,
                       uint64_t tag) override;
  void CancelTimer(rt::TimerId timer) override;
  void CancelAllTimers() override;
  prestige::util::TimeMicros Now() const override { return real_->Now(); }
  prestige::util::Rng* rng() override { return real_->rng(); }

  /// Due time of the timer that is firing now for `tag`, or -1.
  int64_t TakeDue(uint64_t tag);

 private:
  void Note(rt::NodeId to, const rt::MessagePtr& msg, int64_t now_ns);

  TracedNode* owner_;
  rt::Env* real_ = nullptr;
  // Timer bookkeeping (owning loop thread only).
  std::unordered_map<rt::TimerId, std::pair<uint64_t, int64_t>> timers_;
  std::unordered_map<uint64_t, std::multimap<int64_t, rt::TimerId>> by_tag_;
};

/// Registry of every traced node of one deployment (so a sender can stamp
/// the receiver's queue).
struct TraceContext {
  SpanNames names;
  VcStamps vc;
  std::vector<TracedNode*> nodes;  ///< Indexed by runtime node id.
  /// Messages kept (every 16th send) for the offline net timing; 0 = none.
  size_t sample_cap = 0;
};

/// The runtime::Node decorator.
class TracedNode final : public rt::Node {
 public:
  /// `layer` prefixes span names ("core" for replicas, "client" for the
  /// pool).
  TracedNode(rt::Node* inner, std::string layer, TraceContext* ctx);

  /// Binds the wrapped node to the TracedEnv; call after the backend
  /// registered this decorator (which bound the real Env).
  void Attach();

  void OnStart() override;
  void OnMessage(rt::NodeId from, const rt::MessagePtr& msg) override;
  void OnTimer(uint64_t tag) override;
  VerdictFn PreVerify(rt::NodeId from, const rt::MessagePtr& msg) override;

  /// A sender stamps this node's queue for (from -> this).
  void NoteIncoming(rt::NodeId from, const char* name, int64_t send_ns);

  /// Called by TracedService inside a callback of this node.
  void NoteExecute(int64_t start_ns, int64_t end_ns);

  // Results (read after Stop).
  const std::vector<Span>& spans() const { return spans_; }
  const std::map<std::string, NameStats>& by_name() const { return by_name_; }
  int64_t busy_ns() const { return busy_ns_; }
  int64_t callback_max_ns() const { return callback_max_ns_; }
  int64_t execute_ns() const { return execute_ns_; }
  int64_t execute_max_ns() const { return execute_max_ns_; }
  uint64_t hashes() const { return meter_.finished; }
  int64_t msgs_sent() const { return msgs_sent_; }
  const std::vector<int64_t>& deliver_ns() const { return deliver_ns_; }
  const std::vector<int64_t>& timer_late_ns() const { return timer_late_ns_; }
  const std::vector<rt::MessagePtr>& sample() const { return sample_; }

 private:
  friend class TracedEnv;

  /// Span name id and accounting slot of one callback kind.
  struct Kind {
    uint32_t span_name = 0;
    NameStats* stats = nullptr;
  };
  /// The Kind for messages named `name` (cached per Name() literal).
  const Kind& MessageKind(const char* name);
  Kind MakeKind(const std::string& span_name, const std::string& stats_key);

  /// Opens a span; returns its index.
  int32_t Open(uint32_t span_name, int64_t start_ns);
  /// Closes a callback span and charges it to `kind`.
  void Close(int32_t span, const Kind& kind, int64_t end_ns);

  rt::Node* inner_;
  std::string layer_;
  TraceContext* ctx_;
  TracedEnv env_;
  prestige::crypto::CryptoMeter meter_;

  std::vector<Span> spans_;
  std::map<std::string, NameStats> by_name_;
  std::unordered_map<const char*, Kind> message_kinds_;
  Kind start_kind_;
  Kind timer_kind_;
  uint32_t deliver_name_ = 0;
  uint32_t execute_name_ = 0;
  int32_t current_ = -1;  ///< Open callback span (loop thread).
  int32_t exec_span_ = -1;
  int64_t busy_ns_ = 0;
  int64_t callback_max_ns_ = 0;
  int64_t execute_ns_ = 0;
  int64_t execute_max_ns_ = 0;
  int64_t msgs_sent_ = 0;
  uint64_t sends_seen_ = 0;
  std::vector<int64_t> deliver_ns_;
  std::vector<int64_t> timer_late_ns_;
  std::vector<rt::MessagePtr> sample_;

  // Send stamps addressed to this node, per sender (cross-thread).
  std::mutex in_mu_;
  std::unordered_map<rt::NodeId, std::deque<std::pair<const char*, int64_t>>>
      incoming_;
};

/// app::Service decorator timing Execute into the calling TracedNode.
class TracedService final : public prestige::app::Service {
 public:
  TracedService(std::unique_ptr<prestige::app::Service> inner,
                TracedNode* node)
      : inner_(std::move(inner)), node_(node) {}

  prestige::app::Response Execute(
      const prestige::types::Transaction& tx) override;
  void OnBlockCommitted(prestige::types::SeqNum n,
                        prestige::types::View v) override {
    inner_->OnBlockCommitted(n, v);
  }
  void OnCheckpoint(prestige::types::SeqNum n) override {
    inner_->OnCheckpoint(n);
  }
  uint64_t StateDigest() const override { return inner_->StateDigest(); }
  int64_t applied_count() const override { return inner_->applied_count(); }

 private:
  std::unique_ptr<prestige::app::Service> inner_;
  TracedNode* node_;
};

/// Writes every node's spans to `path`: one JSON header line
/// ({"names": [...], "spans": N, "record_bytes": 32}) followed by N packed
/// little-endian records (u32 name, i32 parent, u32 node, u32 count,
/// i64 start_ns, i64 end_ns). Returns false on I/O failure.
bool WriteSpans(const std::string& path, const TraceContext& ctx);

/// Offline timing of the wire layer on the captured message sample:
/// encode, decode, and frame split + reassembly, in microseconds per
/// message. Messages without a wire form are skipped.
struct NetCodecTiming {
  double encode_us = 0.0;
  double decode_us = 0.0;
  double frame_us = 0.0;
  size_t messages = 0;
};
NetCodecTiming TimeNetCodec(const std::vector<rt::MessagePtr>& sample);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
