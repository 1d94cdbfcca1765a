// The runtime abstraction layer: protocol code's only window onto its
// execution substrate.
//
// A protocol node (PrestigeReplica, the baselines, client pools) is a
// runtime::Node driven entirely through callbacks and a narrow
// runtime::Env it is bound to. Env bundles the four substrate services:
//
//   * Transport     — Send(to, msg) / Send(targets, msg);
//   * TimerService  — SetTimer(delay, tag) / CancelTimer / CancelAllTimers,
//                     tags packed per util/timer_tag.h;
//   * Clock         — Now(), microseconds since the run began;
//   * RNG           — rng(), a per-node deterministic stream forked from
//                     the run seed.
//
// Two Env implementations back three backends:
//   * runtime::SimEnv (sim_env.h) hosts nodes on the deterministic
//     discrete-event simulator — virtual time, modelled network costs,
//     bit-for-bit reproducible runs;
//   * runtime::EventLoop (event_loop.h) hosts each node on its own OS
//     thread — wall-clock time, true concurrency — over one of two
//     transports:
//     runtime::ThreadedRuntime (threaded_env.h), in-process mailboxes with
//     real queues; or runtime::SocketRuntime (socket_env.h), one UDP socket
//     per node, every message framed and carried by the kernel, in one
//     process or many.
//
// The contract every backend upholds (and protocol code relies on):
//   * callbacks of one node never run concurrently with each other — a
//     node is single-threaded from its own point of view;
//   * SetTimer/CancelTimer are only called from the owning node's
//     callbacks; timer ids are never reused within a run, so cancelling an
//     already-fired id is a harmless no-op;
//   * messages handed to Send are immutable from that point on — a
//     broadcast may deliver the same shared object to many receivers,
//     concurrently under the wall-clock backends;
//   * delivery is not reliable or ordered unless the backend says so.

#ifndef PRESTIGE_RUNTIME_ENV_H_
#define PRESTIGE_RUNTIME_ENV_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "runtime/message.h"
#include "util/random.h"
#include "util/time.h"
#include "util/timer_tag.h"

namespace prestige {
namespace runtime {

/// Index of a node within one deployment. Replicas and client pools share
/// the id space; the harness assigns ids in registration order.
using NodeId = uint32_t;

/// Handle to a pending timer; cancellable, never reused within a run.
using TimerId = uint64_t;

/// The environment interface a node speaks to. One Env instance per node;
/// it outlives every callback of the node it serves.
class Env {
 public:
  virtual ~Env() = default;

  /// This node's id in the deployment.
  virtual NodeId id() const = 0;

  // ------------------------------------------------------------ Transport

  /// Sends `msg` to a single node (self-sends allowed).
  virtual void Send(NodeId to, MessagePtr msg) = 0;

  /// Sends one copy of `msg` to every id in `targets` (may include self).
  /// Cost-modelling backends serialize the copies back-to-back — the
  /// leader's O(n) fan-out cost.
  virtual void Send(const std::vector<NodeId>& targets, MessagePtr msg) = 0;

  // --------------------------------------------------------- TimerService

  /// Arms a one-shot timer: OnTimer(tag) fires after `delay` unless the
  /// returned id is cancelled first. Tags follow the util/timer_tag.h
  /// packing (16-bit kind, 48-bit payload).
  virtual TimerId SetTimer(util::DurationMicros delay, uint64_t tag) = 0;

  /// Cancels a pending timer; firing is suppressed if it has not fired
  /// yet. Stale (already-fired) ids are ignored.
  virtual void CancelTimer(TimerId timer) = 0;

  /// Cancels every pending timer of this node.
  virtual void CancelAllTimers() = 0;

  // ---------------------------------------------------------------- Clock

  /// Microseconds since the run began — virtual under SimEnv, monotonic
  /// wall clock under the EventLoop backends.
  virtual util::TimeMicros Now() const = 0;

  // ------------------------------------------------------------------ RNG

  /// This node's deterministic random stream (forked from the run seed in
  /// node-registration order).
  virtual util::Rng* rng() = 0;
};

/// Base class for protocol nodes (replicas, client pools).
///
/// Lifecycle: construct → harness registers the node with a backend (which
/// calls BindEnv) → OnStart once the run begins → OnMessage / OnTimer
/// callbacks until the run ends. The protected helpers mirror Env so
/// subclasses read exactly as they did when they were simulator actors.
class Node {
 public:
  virtual ~Node() = default;

  /// Called once when the run starts.
  virtual void OnStart() {}

  /// Called for every delivered message.
  virtual void OnMessage(NodeId from, const MessagePtr& msg) = 0;

  /// Called by no backend; kept only for perfbench/src/trace.h's override.
  using VerdictFn = std::function<void()>;
  virtual VerdictFn PreVerify(NodeId, const MessagePtr&) { return nullptr; }

  /// Called when a timer set via SetTimer fires (and was not cancelled).
  virtual void OnTimer(uint64_t tag) { (void)tag; }

  /// Wires the environment; invoked by the backend at registration.
  void BindEnv(Env* env) { env_ = env; }

  Env* env() const { return env_; }
  NodeId id() const { return env_->id(); }

 protected:
  util::TimeMicros Now() const { return env_->Now(); }
  util::Rng* rng() { return env_->rng(); }

  void Send(NodeId to, MessagePtr msg) { env_->Send(to, std::move(msg)); }
  void Send(const std::vector<NodeId>& targets, MessagePtr msg) {
    env_->Send(targets, std::move(msg));
  }

  TimerId SetTimer(util::DurationMicros delay, uint64_t tag) {
    return env_->SetTimer(delay, tag);
  }
  void CancelTimer(TimerId timer) { env_->CancelTimer(timer); }
  void CancelAllTimers() { env_->CancelAllTimers(); }

 private:
  Env* env_ = nullptr;
};

}  // namespace runtime
}  // namespace prestige

#endif  // PRESTIGE_RUNTIME_ENV_H_
