// ClientPool: a population of closed-loop clients, reimplemented as N
// closed-loop sessions of the embeddable client::Client library.
//
// Each virtual client keeps one request outstanding (the paper's workload:
// "clients generated random requests ... and waited for one request to
// complete before sending the next one") by re-Submitting from its
// completion callback. Everything protocol-side — batching within the
// aggregation window, retransmission, complaint escalation (§4.2.1), and
// the f+1 reply-quorum matching on result digests (§4.3) — is the client
// library's; this class only drives the closed loop and generates
// commands.
//
// Aggregation: proposals from many virtual clients ride one ClientBatch
// event whose cost model still charges per-proposal work (DESIGN.md §4) —
// a simulation device, not a protocol change.

#ifndef PRESTIGE_WORKLOAD_CLIENT_POOL_H_
#define PRESTIGE_WORKLOAD_CLIENT_POOL_H_

#include "client/client.h"
#include "shard/router.h"
#include "types/ids.h"
#include "util/small_bytes.h"
#include "util/stats.h"

namespace prestige {
namespace workload {

/// What the virtual clients ask the application to do.
enum class CommandKind {
  kOpaque,  ///< Empty command + random fingerprint (consensus-only load).
  kKvPut,   ///< Random app::KvService Put commands (real payload bytes).
};

/// Client population parameters.
struct ClientPoolConfig {
  types::ClientPoolId pool_id = 0;
  uint32_t num_clients = 100;       ///< Virtual closed-loop clients.
  uint32_t payload_size = 32;       ///< m: request payload bytes.
  uint32_t f = 1;                   ///< Reply quorum threshold is f+1.
  util::DurationMicros request_timeout = util::Seconds(1);
  util::DurationMicros aggregation_window = util::Millis(1);
  util::DurationMicros complaint_scan_period = util::Millis(200);
  /// Stop issuing new requests after this time (0 = never); lets benches
  /// drain cleanly.
  util::TimeMicros stop_at = 0;
  /// Workload shape (see CommandKind).
  CommandKind command_kind = CommandKind::kOpaque;
  uint64_t kv_key_space = 1024;  ///< Key range for kKvPut commands.
  /// Sharded deployments: the consensus group this pool drives and the
  /// shard::Router geometry (must match the harness's checker-side
  /// Router). With num_groups > 1, kKvPut keys are rejection-sampled
  /// until the router assigns them to `group`; defaults describe the
  /// unsharded single-group world.
  types::GroupId group = 0;
  uint32_t num_groups = 1;
  uint64_t router_salt = 0;  ///< 0 = shard::Router::kDefaultSalt.
};

/// The pool node: one client::Client session shared by num_clients
/// closed-loop drivers.
class ClientPool : public client::Client {
 public:
  explicit ClientPool(ClientPoolConfig config);

  void OnStart() override;

  /// Pauses / resumes request issuance (scenario workload-intensity
  /// phases). While inactive, completed closed-loop clients defer their
  /// next request instead of issuing it; resuming issues every deferred
  /// request immediately. Safe to call between simulation runs.
  void SetActive(bool active);
  bool active() const { return active_; }

  int64_t committed() const { return stats().completed; }
  int64_t complaints_sent() const { return stats().complaints_sent; }

 private:
  static client::ClientConfig ToClientConfig(const ClientPoolConfig& config);

  /// One closed-loop step: submit the next command; its completion
  /// callback calls back here.
  void IssueNext();
  util::SmallBytes MakeCommand();

  ClientPoolConfig pool_config_;
  shard::Router router_;
  bool active_ = true;
  uint32_t deferred_requests_ = 0;  ///< Clients idled while inactive.
};

}  // namespace workload
}  // namespace prestige

#endif  // PRESTIGE_WORKLOAD_CLIENT_POOL_H_
