#pragma once
// PolicyServer: the networked policy-decision service. Exposes a trained
// (frozen) RlGovernor's greedy policy over Unix-domain sockets, TCP, and
// a shared-memory ring transport, using the CRC-32-framed wire protocol
// in serve/wire.hpp.
//
// Architecture (one process, sharded — no global queue, and the hot path
// takes one uncontended lock per batch):
//
//   shard thread 0..W-1 (one poll loop each)     shm worker 0..S-1
//   -----------------------------------------    -------------------------
//   own TCP listener (SO_REUSEPORT: the          polls its subset of shm
//     kernel spreads connections over shards)      lanes (adaptive spin/
//   shared UDS listener (accept-raced,             sleep backoff)
//     non-blocking; EAGAIN losers move on)       same decide path
//   receive pass per readable connection:
//     read -> one clock read -> frame-decode
//     -> validate -> stamp and enqueue on the
//     shard's fixed request ring
//     (shed on full: safe default, never a drop)
//   process inline: micro-batches, each a
//     contiguous slice of the ring decided in
//     place with one action table read per
//     request; answers to one connection
//     coalesce across the batches of a pass
//     (one send per connection per pass)
//
// Queue bookkeeping is per pass, not per request: a receive pass reads the
// clock once and moves the request counter and queue-depth gauge once, and
// a batch moves them once more. The ring holds raw connection pointers, so
// a shard parks a connection that closes until its ring no longer refers
// to it.
//
// A frozen tabular policy has exactly one greedy action per (agent,
// state), so every answer the service can give is fixed when a policy is
// loaded. The server's only policy state is an immutable ActionSnapshot:
// one flat action table for the incumbent and, while a canary is staged,
// one for the candidate with its registry version. A governor lives only
// while its table is built (the constructor, start(), request_reload(),
// stage_candidate()). Those, a rollback and a promotion each publish a new
// snapshot under one mutex; a batch copies the snapshot pointer under that
// mutex once and then answers from the copy, so a batch never mixes two
// policies and never serves a decision from a policy that was replaced
// before it began.
//
// Robustness semantics mirror the watchdog's graceful-degradation stance:
// once started, the service degrades instead of failing (start() itself
// fails closed on a configured policy that does not load). A full request
// ring (queue_capacity slots per shard) or an expired deadline answers
// with the safe-default action (all-hold) and the kRespSafeDefault flag —
// the client always gets a usable decision and the connection never
// drops.
// Corrupt frames (bad magic/version/length/CRC) close only the offending
// connection — or poison only the offending shm lane: a stream that lost
// framing cannot be resynchronized safely.
//
// Hot reload: request_reload() (wired to SIGHUP by `pmrl_cli serve`) or a
// Reload control frame re-runs try_load_policy on the configured
// checkpoint path into a fresh governor; only a fully validated
// checkpoint's action table is published, so no decision of the replaced
// policy is served after the swap.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "policy/rollout.hpp"
#include "rl/rl_governor.hpp"
#include "serve/shm_ring.hpp"
#include "serve/wire.hpp"

namespace pmrl::policy {
class PolicyRegistry;
}  // namespace pmrl::policy

namespace pmrl::obs {
class TraceSink;
class MetricsRegistry;
class Counter;
class Gauge;
class Histogram;
}  // namespace pmrl::obs

namespace pmrl::serve {

struct ServerConfig {
  /// Unix-domain socket path (empty = no UDS listener). An existing socket
  /// file at the path is replaced.
  std::string uds_path;
  /// Enables the TCP listeners on 127.0.0.1 (one SO_REUSEPORT socket per
  /// shard). Port 0 binds an ephemeral port (read it back with
  /// PolicyServer::tcp_port()).
  bool tcp_enable = false;
  std::uint16_t tcp_port = 0;

  /// Shared-memory transport: path of a mappable file (empty = disabled;
  /// put it on /dev/shm for a memory-only segment). Created at start(),
  /// unlinked at stop().
  std::string shm_path;
  /// Client lanes in the shm segment.
  std::size_t shm_lanes = 4;
  /// Ring capacity per direction per lane (power of two, >= 128 KiB).
  std::size_t shm_ring_bytes = 1 << 20;
  /// Threads polling the shm lanes (each owns lane_index % shm_workers).
  std::size_t shm_workers = 1;

  /// Shard threads: each runs its own accept/read/decide poll loop.
  std::size_t workers = 4;
  /// Max requests decided per snapshot read. A shard batches whatever its
  /// sockets had in flight, capped at this and at the end of its ring; the
  /// answers of consecutive batches to one connection still go out in one
  /// send.
  std::size_t batch_max = 32;
  /// Slots in each shard's (and shm worker's) request ring, allocated once
  /// at start(); a Query arriving on a full ring is shed (answered
  /// immediately with the safe-default action).
  std::size_t queue_capacity = 1024;
  /// Requests older than this when decided are answered with the
  /// safe-default action instead of a stale decision. A request's age
  /// counts from the clock read of the receive pass that decoded it.
  std::chrono::milliseconds request_timeout{50};

  /// Policy checkpoint path; loaded at start() and on every reload. Empty
  /// serves the incumbent handed to the PolicyServer constructor (a
  /// fresh-init policy when none was) and makes reload a no-op failure. A
  /// checkpoint that does not load makes start() throw; a reload that
  /// fails keeps the serving policy.
  std::string policy_path;
  /// Governor shape served; must match the checkpoint's.
  rl::RlGovernorConfig governor;
  std::size_t cluster_count = 2;

  // ---- canary rollout -----------------------------------------------------
  /// Policy registry directory (empty = no registry). With a registry and
  /// an empty policy_path, the incumbent loads from the registry's CURRENT
  /// pointer (start() throws when that entry does not load); with
  /// rollout.canary_pct > 0 a candidate is staged from the registry at
  /// start() and on every reload (SIGHUP); a reload never stages an older
  /// entry over the staged canary.
  std::string registry_dir;
  /// Registry version to canary; 0 picks the latest candidate entry.
  std::uint64_t candidate_version = 0;
  /// Canary evaluation knobs. canary_pct is the share of connections
  /// routed to the candidate via the deterministic per-connection hash.
  policy::RolloutConfig rollout;
};

/// start() refused to serve: the configured checkpoint cannot be opened or
/// fails to load, or the registry's CURRENT entry fails to load.
class PolicyRejectedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class PolicyServer {
 public:
  /// Serves `incumbent`'s action table (a fresh-init policy's when null)
  /// until start() loads a configured policy; keeps nothing else of it.
  explicit PolicyServer(ServerConfig config,
                        const rl::RlGovernor* incumbent = nullptr);
  ~PolicyServer();
  PolicyServer(const PolicyServer&) = delete;
  PolicyServer& operator=(const PolicyServer&) = delete;

  /// Binds the listeners, loads the checkpoint (when configured), maps the
  /// shm segment (when configured), and starts the shard and shm worker
  /// threads. Throws PolicyRejectedError, before binding anything, when
  /// the configured policy_path or the registry's CURRENT does not load,
  /// and std::runtime_error on bind/listen/map failure.
  void start();

  /// Stops accepting, wakes every shard, joins everything. Idempotent.
  void stop();

  bool running() const { return running_; }

  /// Bound TCP port (after start(), when tcp_enable).
  std::uint16_t tcp_port() const { return bound_tcp_port_; }
  const ServerConfig& config() const { return config_; }

  /// Re-runs try_load_policy(policy_path) into a fresh governor and, on
  /// success, publishes its action table as the incumbent's (batches that
  /// start afterwards serve it). Thread-safe; returns false (with the
  /// parse error in `error` when non-null) on any rejection — the serving
  /// policy is untouched.
  bool request_reload(std::string* error = nullptr);

  /// Drain control for tests and maintenance: paused workers keep
  /// reading and shedding but stop deciding (arrivals still enqueue,
  /// then shed once a shard's ring fills).
  void pause_workers();
  void resume_workers();

  /// Stages `candidate`'s action table for canary serving as registry
  /// version `version` (>= 1) and starts the rollout evaluator. Works
  /// before start(); thread-safe; replaces any candidate already staged,
  /// and a registry canary replaced before its verdict goes back to
  /// candidate status.
  /// Throws std::invalid_argument on a null or misshapen candidate or
  /// version 0. Used by tests and the registry path.
  void stage_candidate(std::unique_ptr<rl::RlGovernor> candidate,
                       std::uint64_t version);

  /// Canary state (all readable while serving). candidate_version() is 0
  /// while no candidate is staged.
  bool candidate_active() const { return candidate_version() != 0; }
  std::uint64_t candidate_version() const;
  policy::RolloutState rollout_state() const {
    return static_cast<policy::RolloutState>(
        rollout_state_.load(std::memory_order_acquire));
  }
  std::uint64_t rollbacks() const {
    return rollbacks_.load(std::memory_order_relaxed);
  }
  std::uint64_t promotions() const {
    return promotions_.load(std::memory_order_relaxed);
  }

  /// Attach observability before start(). The trace sink receives one
  /// HwInvoke-style event per processed batch (server-side latency and
  /// batch size); access is serialized internally.
  void set_metrics(obs::MetricsRegistry* metrics);
  void set_trace_sink(obs::TraceSink* sink) { trace_ = sink; }

  /// Decisions served since start (responses of any kind).
  std::uint64_t responses() const {
    return responses_.load(std::memory_order_relaxed);
  }

 private:
  struct ActionSnapshot;
  struct Connection;
  struct Pending;
  struct Worker;
  struct Shard;
  struct ShmWorker;
  friend struct PolicyServerTestPeer;
  static constexpr std::uint32_t kNoLane = 0xFFFFFFFFu;

  std::unique_ptr<rl::RlGovernor> make_governor() const;
  /// Throws std::invalid_argument unless `governor` has the served shape.
  std::vector<std::uint32_t> action_table(
      const rl::RlGovernor& governor) const;
  /// Publishes `governor`'s table as the incumbent's; keeps the candidate.
  void publish_incumbent(const rl::RlGovernor& governor);
  /// Swaps in a new snapshot; call with snapshot_mutex_ held.
  void publish_locked(ActionSnapshot next);
  std::shared_ptr<const ActionSnapshot> snapshot() const;
  void shard_loop(Shard& shard);
  bool stage_candidate_from_registry(std::string* error);
  void handle_report(Worker& worker, Connection* conn, std::uint32_t lane,
                     const util::Frame& frame);
  /// Applies a verdict on candidate `version`; dropped once another is staged.
  void finish_rollout(policy::RolloutDecision decision,
                      std::uint64_t version);
  void emit_rollout_trace(const char* what, std::uint64_t version);
  void shm_loop(ShmWorker& worker);
  void handle_readable(Worker& worker, Connection* conn);
  void handle_frame(Worker& worker, Connection* conn, std::uint32_t lane,
                    const util::Frame& frame);
  void enqueue_or_shed(Worker& worker, Connection* conn, std::uint32_t lane,
                       const QueryMsg& query);
  /// Counts a receive pass once: its decoded queries and its queue growth
  /// since the ring held `queued_before` requests.
  void end_pass(Worker& worker, std::size_t queued_before);
  void process_pending(Worker& worker);
  /// Decides the `take` requests at the ring's head in place.
  void process_batch(Worker& worker, std::size_t take);
  /// Sends the worker's outgoing buffer to its target and empties it.
  void flush_tx(Worker& worker);
  void send_to(Connection* conn, std::uint32_t lane,
               const std::string& bytes);
  void send_bytes(Connection* conn, const std::string& bytes);
  void send_lane(std::uint32_t lane, const std::string& bytes);
  std::uint32_t safe_default_action() const { return safe_action_; }
  void emit_batch_trace(std::size_t batch_size, double latency_s,
                        std::uint64_t first_state, std::uint32_t first_action);
  void note_queue_depth(std::ptrdiff_t delta);

  ServerConfig config_;
  std::unique_ptr<policy::PolicyRegistry> registry_;
  /// Canary evaluator; guarded by rollout_mutex_, state mirrored in the
  /// atomic below for lock-free reads.
  policy::RolloutController rollout_;
  std::mutex rollout_mutex_;
  std::atomic<std::uint8_t> rollout_state_{0};
  std::atomic<std::uint64_t> rollbacks_{0};
  std::atomic<std::uint64_t> promotions_{0};
  /// Accept-order sequence: the deterministic per-connection route key.
  std::atomic<std::uint64_t> conn_seq_{0};
  /// Guards snapshot_. Writers hold it to publish a snapshot; readers
  /// hold it only to copy the pointer. (std::atomic<std::shared_ptr>
  /// would also do, but GCC 12's TSan reports a race inside its libstdc++
  /// implementation.)
  mutable std::mutex snapshot_mutex_;
  std::shared_ptr<const ActionSnapshot> snapshot_;
  std::mutex reload_mutex_;
  /// The served shape and safe default, fixed at construction.
  std::size_t agent_count_ = 0;
  std::size_t states_per_agent_ = 0;
  std::uint32_t safe_action_ = 0;

  std::atomic<bool> paused_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<std::int64_t> queued_total_{0};

  // Listeners. The UDS listen fd is shared by every shard (accept-raced);
  // TCP listeners are per shard (SO_REUSEPORT) and live in the Shard.
  int uds_listen_fd_ = -1;
  std::uint16_t bound_tcp_port_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<ShmWorker>> shm_workers_;
  std::unique_ptr<ShmSegment> shm_;
  std::atomic<bool> running_{false};

  // Observability.
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::TraceSink* trace_ = nullptr;
  std::mutex trace_mutex_;
  std::atomic<std::uint64_t> responses_{0};
  std::atomic<std::uint64_t> batch_seq_{0};
  obs::Counter* requests_counter_ = nullptr;
  obs::Counter* shed_counter_ = nullptr;
  obs::Counter* timeout_counter_ = nullptr;
  obs::Counter* wire_error_counter_ = nullptr;
  obs::Counter* reload_counter_ = nullptr;
  obs::Counter* connection_counter_ = nullptr;
  obs::Counter* report_counter_[2] = {nullptr, nullptr};
  obs::Counter* rollback_counter_ = nullptr;
  obs::Counter* promote_counter_ = nullptr;
  obs::Gauge* arm_epq_gauge_[2] = {nullptr, nullptr};
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Histogram* batch_size_hist_ = nullptr;
  obs::Histogram* latency_hist_ = nullptr;
};

}  // namespace pmrl::serve
