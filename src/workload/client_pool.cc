#include "workload/client_pool.h"

#include "app/kv_service.h"

namespace prestige {
namespace workload {

client::ClientConfig ClientPool::ToClientConfig(
    const ClientPoolConfig& config) {
  client::ClientConfig cc;
  cc.client_id = config.pool_id;
  cc.f = config.f;
  cc.payload_size = config.payload_size;
  // Retransmit at half the complaint deadline: one cheap re-send gets a
  // lost proposal back in flight before the heavyweight complaint path.
  cc.retransmit_after = config.request_timeout / 2;
  cc.request_timeout = config.request_timeout;
  cc.aggregation_window = config.aggregation_window;
  cc.retry_scan_period = config.complaint_scan_period;
  cc.group = config.group;
  return cc;
}

ClientPool::ClientPool(ClientPoolConfig config)
    : client::Client(ToClientConfig(config)),
      pool_config_(config),
      router_(config.num_groups == 0 ? 1 : config.num_groups,
              config.router_salt == 0 ? shard::Router::kDefaultSalt
                                      : config.router_salt) {
  // Same clamp app::KvService applies: key space 0 means one key, not a
  // divide-by-zero in the command generator.
  if (pool_config_.kv_key_space == 0) pool_config_.kv_key_space = 1;
}

void ClientPool::OnStart() {
  client::Client::OnStart();
  for (uint32_t i = 0; i < pool_config_.num_clients; ++i) {
    IssueNext();
  }
  Flush();  // The initial burst goes out immediately.
}

void ClientPool::SetActive(bool active) {
  if (active == active_) return;
  active_ = active;
  if (!active_) return;
  // Wake the clients that completed while the pool was paused.
  const uint32_t deferred = deferred_requests_;
  deferred_requests_ = 0;
  for (uint32_t i = 0; i < deferred; ++i) IssueNext();
  Flush();
}

util::SmallBytes ClientPool::MakeCommand() {
  switch (pool_config_.command_kind) {
    case CommandKind::kKvPut: {
      uint64_t key = rng()->NextUint64() % pool_config_.kv_key_space;
      if (pool_config_.num_groups > 1) {
        // Sharded pool: only generate keys the router assigns to this
        // pool's group. Rejection sampling terminates in num_groups
        // expected draws; the linear probe only exists for degenerate
        // geometries where this group owns almost no keys.
        int attempt = 0;
        while (router_.GroupForKey(key) != pool_config_.group &&
               attempt < 64) {
          key = rng()->NextUint64() % pool_config_.kv_key_space;
          ++attempt;
        }
        if (router_.GroupForKey(key) != pool_config_.group) {
          for (uint64_t probe = 0; probe < pool_config_.kv_key_space;
               ++probe) {
            if (router_.GroupForKey(probe) == pool_config_.group) {
              key = probe;
              break;
            }
          }
        }
      }
      // Unsharded pools draw (key, value) exactly as before this field
      // existed, keeping per-seed simulation runs byte-identical.
      return app::kv::EncodePut(key, rng()->NextUint64());
    }
    case CommandKind::kOpaque:
      break;
  }
  return {};
}

void ClientPool::IssueNext() {
  if (pool_config_.stop_at != 0 && Now() >= pool_config_.stop_at) return;
  if (!active_) {
    ++deferred_requests_;
    return;
  }
  Submit(MakeCommand(), [this](const client::SubmitResult& result) {
    (void)result;
    IssueNext();  // Closed loop: next request for this virtual client.
  });
}

}  // namespace workload
}  // namespace prestige
