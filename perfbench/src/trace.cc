#include "trace.h"

#include <chrono>
#include <cstdio>
#include <cstring>

#include "net/frame.h"
#include "net/wire.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t SpanNames::Intern(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

// ---------------------------------------------------------------- TracedEnv

void TracedEnv::Note(rt::NodeId to, const rt::MessagePtr& msg,
                     int64_t now_ns) {
  TraceContext* ctx = owner_->ctx_;
  const char* name = msg->Name();
  ++owner_->msgs_sent_;
  if (to < ctx->nodes.size() && ctx->nodes[to] != nullptr) {
    ctx->nodes[to]->NoteIncoming(id(), name, now_ns);
  }
  constexpr uint64_t kSampleEvery = 16;
  if (ctx->sample_cap > 0 && owner_->sends_seen_++ % kSampleEvery == 0 &&
      owner_->sample_.size() < ctx->sample_cap) {
    owner_->sample_.push_back(msg);
  }
  // View-change milestones after the injected crash: the first ConfVC is
  // the end of failure detection, the first vcBlock the end of the
  // election.
  VcStamps& vc = ctx->vc;
  const int64_t crash_at_us = vc.crash_at_us.load(std::memory_order_relaxed);
  if (crash_at_us < 0) return;
  std::atomic<int64_t>* stamp = nullptr;
  if (std::strcmp(name, "ConfVC") == 0) {
    stamp = &vc.first_confvc_us;
  } else if (std::strcmp(name, "VcBlockMsg") == 0) {
    stamp = &vc.first_vcblock_us;
  }
  if (stamp == nullptr) return;
  const int64_t now_us = real_->Now();
  if (now_us < crash_at_us) return;
  int64_t expected = -1;
  stamp->compare_exchange_strong(expected, now_us);
}

void TracedEnv::Send(rt::NodeId to, rt::MessagePtr msg) {
  Note(to, msg, NowNs());
  real_->Send(to, std::move(msg));
}

void TracedEnv::Send(const std::vector<rt::NodeId>& targets,
                     rt::MessagePtr msg) {
  const int64_t now_ns = NowNs();
  for (rt::NodeId to : targets) Note(to, msg, now_ns);
  real_->Send(targets, std::move(msg));
}

rt::TimerId TracedEnv::SetTimer(prestige::util::DurationMicros delay,
                                uint64_t tag) {
  const rt::TimerId timer = real_->SetTimer(delay, tag);
  const int64_t due = NowNs() + (delay < 0 ? 0 : delay) * 1000;
  timers_[timer] = {tag, due};
  by_tag_[tag].emplace(due, timer);
  return timer;
}

void TracedEnv::CancelTimer(rt::TimerId timer) {
  real_->CancelTimer(timer);
  const auto it = timers_.find(timer);
  if (it == timers_.end()) return;
  auto& pending = by_tag_[it->second.first];
  const auto range = pending.equal_range(it->second.second);
  for (auto p = range.first; p != range.second; ++p) {
    if (p->second == timer) {
      pending.erase(p);
      break;
    }
  }
  timers_.erase(it);
}

void TracedEnv::CancelAllTimers() {
  real_->CancelAllTimers();
  timers_.clear();
  by_tag_.clear();
}

int64_t TracedEnv::TakeDue(uint64_t tag) {
  const auto it = by_tag_.find(tag);
  if (it == by_tag_.end() || it->second.empty()) return -1;
  // Timers fire in due order, so the earliest pending timer of this tag is
  // the one firing.
  const auto first = it->second.begin();
  const int64_t due = first->first;
  timers_.erase(first->second);
  it->second.erase(first);
  return due;
}

// --------------------------------------------------------------- TracedNode

TracedNode::TracedNode(rt::Node* inner, std::string layer, TraceContext* ctx)
    : inner_(inner), layer_(std::move(layer)), ctx_(ctx), env_(this) {
  spans_.reserve(1 << 16);
  start_kind_ = MakeKind(layer_ + ".OnStart", "start");
  timer_kind_ = MakeKind(layer_ + ".OnTimer", "timer");
  deliver_name_ = ctx_->names.Intern("runtime.deliver");
  execute_name_ = ctx_->names.Intern("app.execute");
}

TracedNode::Kind TracedNode::MakeKind(const std::string& span_name,
                                      const std::string& stats_key) {
  Kind kind;
  kind.span_name = ctx_->names.Intern(span_name);
  kind.stats = &by_name_[stats_key];  // std::map nodes never move.
  return kind;
}

const TracedNode::Kind& TracedNode::MessageKind(const char* name) {
  const auto it = message_kinds_.find(name);
  if (it != message_kinds_.end()) return it->second;
  return message_kinds_
      .emplace(name, MakeKind(layer_ + ".OnMessage." + name, name))
      .first->second;
}

void TracedNode::Attach() {
  env_.Attach(env());
  inner_->BindEnv(&env_);
}

int32_t TracedNode::Open(uint32_t span_name, int64_t start_ns) {
  Span span;
  span.name = span_name;
  span.node = id();
  span.start_ns = start_ns;
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

void TracedNode::Close(int32_t span, const Kind& kind, int64_t end_ns) {
  Span& s = spans_[static_cast<size_t>(span)];
  s.end_ns = end_ns;
  const int64_t took = end_ns - s.start_ns;
  busy_ns_ += took;
  if (took > callback_max_ns_) callback_max_ns_ = took;
  ++kind.stats->count;
  kind.stats->busy_ns += took;
}

void TracedNode::OnStart() {
  prestige::crypto::ScopedCryptoMeter meter(&meter_);
  current_ = Open(start_kind_.span_name, NowNs());
  inner_->OnStart();
  Close(current_, start_kind_, NowNs());
  current_ = -1;
}

void TracedNode::OnMessage(rt::NodeId from, const rt::MessagePtr& msg) {
  const int64_t start = NowNs();
  const char* name = msg->Name();
  int32_t cause = -1;
  {
    std::lock_guard<std::mutex> lock(in_mu_);
    auto it = incoming_.find(from);
    if (it != incoming_.end()) {
      // Per-sender FIFO: stamps of datagrams lost on the way are skipped.
      auto& queue = it->second;
      while (!queue.empty() && std::strcmp(queue.front().first, name) != 0) {
        queue.pop_front();
      }
      if (!queue.empty()) {
        const int64_t sent = queue.front().second;
        queue.pop_front();
        deliver_ns_.push_back(start - sent);
        cause = Open(deliver_name_, sent);
        spans_[static_cast<size_t>(cause)].end_ns = start;
      }
    }
  }
  prestige::crypto::ScopedCryptoMeter meter(&meter_);
  const Kind& kind = MessageKind(name);
  current_ = Open(kind.span_name, start);
  spans_[static_cast<size_t>(current_)].parent = cause;
  inner_->OnMessage(from, msg);
  Close(current_, kind, NowNs());
  current_ = -1;
}

void TracedNode::OnTimer(uint64_t tag) {
  const int64_t start = NowNs();
  const int64_t due = env_.TakeDue(tag);
  if (due >= 0) timer_late_ns_.push_back(start - due);
  prestige::crypto::ScopedCryptoMeter meter(&meter_);
  current_ = Open(timer_kind_.span_name, start);
  inner_->OnTimer(tag);
  Close(current_, timer_kind_, NowNs());
  current_ = -1;
}

rt::Node::VerdictFn TracedNode::PreVerify(rt::NodeId from,
                                          const rt::MessagePtr& msg) {
  // Only worker-pool backends call this (never with workers_per_node = 0,
  // which every benchmark workload uses); forwarded untimed for
  // completeness.
  return inner_->PreVerify(from, msg);
}

void TracedNode::NoteIncoming(rt::NodeId from, const char* name,
                              int64_t send_ns) {
  std::lock_guard<std::mutex> lock(in_mu_);
  incoming_[from].emplace_back(name, send_ns);
}

void TracedNode::NoteExecute(int64_t start_ns, int64_t end_ns) {
  const int64_t took = end_ns - start_ns;
  execute_ns_ += took;
  if (took > execute_max_ns_) execute_max_ns_ = took;
  // Consecutive Execute calls inside one callback fold into one child span.
  if (exec_span_ >= 0 && spans_[static_cast<size_t>(exec_span_)].parent ==
                             current_ && current_ >= 0) {
    Span& s = spans_[static_cast<size_t>(exec_span_)];
    s.end_ns = end_ns;
    ++s.count;
    return;
  }
  exec_span_ = Open(execute_name_, start_ns);
  Span& s = spans_[static_cast<size_t>(exec_span_)];
  s.parent = current_;
  s.end_ns = end_ns;
}

// ------------------------------------------------------------ TracedService

prestige::app::Response TracedService::Execute(
    const prestige::types::Transaction& tx) {
  const int64_t start = NowNs();
  prestige::app::Response response = inner_->Execute(tx);
  node_->NoteExecute(start, NowNs());
  return response;
}

// ------------------------------------------------------------------ output

bool WriteSpans(const std::string& path, const TraceContext& ctx) {
  static_assert(sizeof(Span) == 32, "span record layout");
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) return false;
  size_t total = 0;
  for (const TracedNode* node : ctx.nodes) total += node->spans().size();
  std::string header = "{\"names\": [";
  const auto& names = ctx.names.names();
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) header += ", ";
    header += "\"" + names[i] + "\"";
  }
  header += "], \"spans\": " + std::to_string(total) +
            ", \"record_bytes\": 32}\n";
  bool ok = std::fwrite(header.data(), 1, header.size(), out) == header.size();
  for (const TracedNode* node : ctx.nodes) {
    const auto& spans = node->spans();
    if (spans.empty()) continue;
    ok = ok && std::fwrite(spans.data(), sizeof(Span), spans.size(), out) ==
                   spans.size();
  }
  return std::fclose(out) == 0 && ok;
}

NetCodecTiming TimeNetCodec(const std::vector<rt::MessagePtr>& sample) {
  NetCodecTiming timing;
  int64_t encode_ns = 0, decode_ns = 0, frame_ns = 0;
  std::vector<uint8_t> bytes;
  std::vector<prestige::net::FrameAssembler::Complete> completes;
  for (const rt::MessagePtr& msg : sample) {
    bytes.clear();
    int64_t t0 = NowNs();
    if (!prestige::net::EncodeMessage(*msg, &bytes)) continue;
    int64_t t1 = NowNs();
    const rt::MessagePtr decoded =
        prestige::net::DecodeMessage(bytes.data(), bytes.size());
    int64_t t2 = NowNs();
    if (decoded == nullptr) continue;
    prestige::net::FrameWriter writer(0);
    prestige::net::FrameAssembler assembler(1);
    completes.clear();
    for (const auto& frame : writer.Split(1, bytes)) {
      assembler.Accept(frame.data(), frame.size(), &completes);
    }
    const int64_t t3 = NowNs();
    encode_ns += t1 - t0;
    decode_ns += t2 - t1;
    frame_ns += t3 - t2;
    ++timing.messages;
  }
  if (timing.messages > 0) {
    const double n = static_cast<double>(timing.messages) * 1000.0;
    timing.encode_us = static_cast<double>(encode_ns) / n;
    timing.decode_us = static_cast<double>(decode_ns) / n;
    timing.frame_us = static_cast<double>(frame_ns) / n;
  }
  return timing;
}

}  // namespace perfbench
