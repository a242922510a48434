#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <numeric>
#include <span>
#include <stdexcept>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "policy/registry.hpp"
#include "rl/policy_io.hpp"
#include "util/log.hpp"

namespace pmrl::serve {

namespace {

/// Blocks in poll(POLLOUT) this long before declaring a peer stuck and
/// abandoning the write (the connection is then marked closed).
constexpr int kWriteStallTimeoutMs = 1000;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

[[noreturn]] void fail_errno(const std::string& what) {
  throw std::runtime_error("serve: " + what + ": " + std::strerror(errno));
}

/// Route-key domain for shm lanes (kept apart from the accept-sequence
/// keys socket connections use).
constexpr std::uint64_t kLaneRouteBase = 0x73686d0000000000ull;

/// Spin a little, then sleep: used where there is no fd to block on
/// (shm rings).
void ring_backoff(unsigned& spins) {
  if (spins < 64) {
    ++spins;
    return;
  }
  std::this_thread::sleep_for(std::chrono::microseconds(50));
}

}  // namespace

/// Every answer the served policies can give. Immutable once published:
/// a batch that copied the pointer keeps a consistent view however many
/// reloads or verdicts land while it runs.
struct PolicyServer::ActionSnapshot {
  std::vector<std::uint32_t> incumbent;
  /// Empty unless a canary candidate is staged.
  std::vector<std::uint32_t> candidate;
  /// Registry version of `candidate`; 0 while none is staged.
  std::uint64_t candidate_version = 0;
};

/// One client connection, owned by exactly one shard thread (reads,
/// decides, and writes all happen on that thread, so no per-connection
/// lock is needed). The shard frees a closed connection, and with it the
/// fd, only once its request ring no longer refers to it, so an answer to
/// a request that outlived its connection is dropped instead of written to
/// a recycled fd.
struct PolicyServer::Connection {
  explicit Connection(int fd_in) : fd(fd_in) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  const int fd;
  bool open = true;
  /// This connection belongs to the canary cohort (deterministic hash of
  /// its accept-order key); decisions go to the candidate arm while a
  /// candidate is staged.
  bool canary = false;
  /// Version of the candidate that decided this connection's last answer;
  /// 0 when the incumbent did or it was a safe default (report credit).
  std::uint64_t decided_by = 0;
  std::string rx;
  std::size_t rx_off = 0;
};

/// A request awaiting a decision. Exactly one of `conn` (socket
/// transports) or `lane != kNoLane` (shm transport) identifies where the
/// response goes.
struct PolicyServer::Pending {
  Connection* conn = nullptr;
  std::uint32_t lane = kNoLane;
  /// Canary-cohort flag of the originating connection/lane.
  bool canary = false;
  QueryMsg query;
  /// Clock read of the receive pass that decoded the request.
  std::chrono::steady_clock::time_point received;
};

/// Per-worker state: the request ring and the outgoing buffer. One Worker
/// per shard thread and one per shm worker thread; nothing in here is
/// shared.
struct PolicyServer::Worker {
  /// queue_capacity slots, allocated at start(); the `count` pending
  /// requests run from `head`, wrapping at the end.
  std::vector<Pending> ring;
  std::size_t head = 0;
  std::size_t count = 0;
  /// The receive pass in progress: its one clock read stamps every query
  /// it decodes, and `decoded` counts them, queued or shed.
  std::chrono::steady_clock::time_point received;
  std::size_t decoded = 0;
  /// Connection::decided_by of each shm lane (shm workers only).
  std::vector<std::uint64_t> lane_decided_by;
  /// Answers not yet sent, all for the target of `tx_to` (a ring slot,
  /// stable until the decide pass ends).
  std::string tx;
  const Pending* tx_to = nullptr;
};

struct PolicyServer::Shard {
  ~Shard() {
    auto close_fd = [](int& fd) {
      if (fd >= 0) {
        ::close(fd);
        fd = -1;
      }
    };
    close_fd(tcp_listen_fd);
    close_fd(wake_rx);
    close_fd(wake_tx);
  }

  Worker worker;
  int wake_rx = -1;
  int wake_tx = -1;
  int tcp_listen_fd = -1;
  std::thread thread;
};

struct PolicyServer::ShmWorker {
  explicit ShmWorker(std::size_t index_in) : index(index_in) {}

  std::size_t index;
  Worker worker;
  std::thread thread;
};

PolicyServer::PolicyServer(ServerConfig config,
                           const rl::RlGovernor* incumbent)
    : config_(std::move(config)), rollout_(config_.rollout) {
  if (config_.workers == 0) {
    throw std::invalid_argument("serve: workers must be >= 1");
  }
  if (config_.batch_max == 0) {
    throw std::invalid_argument("serve: batch_max must be >= 1");
  }
  if (config_.queue_capacity == 0) {
    throw std::invalid_argument("serve: queue_capacity must be >= 1");
  }
  if (config_.uds_path.empty() && !config_.tcp_enable &&
      config_.shm_path.empty()) {
    throw std::invalid_argument("serve: no listener configured");
  }
  if (!config_.shm_path.empty() && config_.shm_workers == 0) {
    throw std::invalid_argument("serve: shm_workers must be >= 1");
  }
  const auto fresh = make_governor();
  agent_count_ = fresh->agent_count();
  states_per_agent_ = fresh->agent(0).state_count();
  // The safe default is the all-hold action: move/action 0 by the action
  // space's construction (and the value Q-ties resolve to), i.e. "keep the
  // current OPP" — the same stance the watchdog's conservative fallback
  // opens with.
  if (config_.governor.structure == rl::PolicyStructure::Joint) {
    safe_action_ =
        static_cast<std::uint32_t>(fresh->actions().hold_action());
  } else {
    for (std::size_t m = 0; m < fresh->actions().moves_per_cluster(); ++m) {
      if (fresh->actions().move_value(m) == 0) {
        safe_action_ = static_cast<std::uint32_t>(m);
        break;
      }
    }
  }
  snapshot_ = std::make_shared<const ActionSnapshot>();
  publish_incumbent(incumbent ? *incumbent : *fresh);
}

PolicyServer::~PolicyServer() { stop(); }

std::unique_ptr<rl::RlGovernor> PolicyServer::make_governor() const {
  return std::make_unique<rl::RlGovernor>(config_.governor,
                                          config_.cluster_count);
}

/// Indexed agent * states_per_agent + state: one batched call per agent.
std::vector<std::uint32_t> PolicyServer::action_table(
    const rl::RlGovernor& governor) const {
  if (governor.agent_count() != agent_count_ ||
      governor.agent(0).state_count() != states_per_agent_) {
    throw std::invalid_argument("serve: policy shape mismatch");
  }
  std::vector<std::uint64_t> all(states_per_agent_);
  std::iota(all.begin(), all.end(), std::uint64_t{0});
  std::vector<std::uint32_t> table(agent_count_ * states_per_agent_);
  for (std::size_t a = 0; a < agent_count_; ++a) {
    governor.agent(a).greedy_actions(all.data(), states_per_agent_,
                                     table.data() + a * states_per_agent_);
  }
  return table;
}

void PolicyServer::publish_incumbent(const rl::RlGovernor& governor) {
  auto table = action_table(governor);
  const std::lock_guard<std::mutex> lock(snapshot_mutex_);
  publish_locked({std::move(table), snapshot_->candidate,
                  snapshot_->candidate_version});
}

void PolicyServer::publish_locked(ActionSnapshot next) {
  snapshot_ = std::make_shared<const ActionSnapshot>(std::move(next));
}

std::shared_ptr<const PolicyServer::ActionSnapshot> PolicyServer::snapshot()
    const {
  const std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_;
}

std::uint64_t PolicyServer::candidate_version() const {
  return snapshot()->candidate_version;
}

void PolicyServer::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  requests_counter_ = metrics ? &metrics->counter("serve.requests") : nullptr;
  shed_counter_ = metrics ? &metrics->counter("serve.shed") : nullptr;
  timeout_counter_ = metrics ? &metrics->counter("serve.timeouts") : nullptr;
  wire_error_counter_ =
      metrics ? &metrics->counter("serve.wire_errors") : nullptr;
  reload_counter_ = metrics ? &metrics->counter("serve.reloads") : nullptr;
  connection_counter_ =
      metrics ? &metrics->counter("serve.connections") : nullptr;
  report_counter_[0] =
      metrics ? &metrics->counter("serve.rollout.incumbent_reports")
              : nullptr;
  report_counter_[1] =
      metrics ? &metrics->counter("serve.rollout.candidate_reports")
              : nullptr;
  rollback_counter_ =
      metrics ? &metrics->counter("serve.rollout.rollbacks") : nullptr;
  promote_counter_ =
      metrics ? &metrics->counter("serve.rollout.promotions") : nullptr;
  arm_epq_gauge_[0] =
      metrics ? &metrics->gauge("serve.rollout.incumbent_energy_per_qos")
              : nullptr;
  arm_epq_gauge_[1] =
      metrics ? &metrics->gauge("serve.rollout.candidate_energy_per_qos")
              : nullptr;
  queue_depth_gauge_ =
      metrics ? &metrics->gauge("serve.queue_depth") : nullptr;
  batch_size_hist_ =
      metrics ? &metrics->histogram("serve.batch_size",
                                    {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0,
                                     128.0})
              : nullptr;
  latency_hist_ =
      metrics ? &metrics->histogram(
                    "serve.latency_s",
                    {1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4,
                     1e-3, 2e-3, 5e-3, 1e-2, 5e-2, 0.1, 1.0})
              : nullptr;
}

void PolicyServer::start() {
  if (running_) return;
  if (!config_.registry_dir.empty()) {
    registry_ = std::make_unique<policy::PolicyRegistry>(config_.registry_dir);
  }
  // A configured policy that does not load stops start(): serving a
  // fresh-init table in its place would answer every query wrongly.
  if (!config_.policy_path.empty()) {
    std::ifstream in(config_.policy_path);
    std::string error = "cannot open";
    const auto governor = make_governor();
    if (!in || !rl::try_load_policy(*governor, in, &error)) {
      throw PolicyRejectedError("serve: checkpoint '" + config_.policy_path +
                                "' rejected: " + error);
    }
    publish_incumbent(*governor);
  } else if (registry_) {
    std::string entry = "CURRENT";
    try {
      if (const auto current = registry_->current()) {
        entry += " v" + std::to_string(*current);
        const auto governor = make_governor();
        registry_->load(*current, *governor);
        publish_incumbent(*governor);
      }
    } catch (const std::exception& ex) {
      throw PolicyRejectedError("serve: registry " + entry + " rejected: " +
                                ex.what());
    }
  }

  if (registry_ && config_.rollout.canary_pct > 0.0) {
    std::string stage_error;
    if (!stage_candidate_from_registry(&stage_error)) {
      PMRL_WARN("serve") << "canary not staged: " << stage_error;
    }
  }

  if (!config_.uds_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.uds_path.size() >= sizeof(addr.sun_path)) {
      throw std::invalid_argument("serve: uds path too long");
    }
    std::strncpy(addr.sun_path, config_.uds_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    uds_listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (uds_listen_fd_ < 0) fail_errno("uds socket");
    ::unlink(config_.uds_path.c_str());
    if (::bind(uds_listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) < 0) {
      fail_errno("uds bind " + config_.uds_path);
    }
    if (::listen(uds_listen_fd_, 128) < 0) fail_errno("uds listen");
    set_nonblocking(uds_listen_fd_);
  }

  shards_.clear();
  for (std::size_t i = 0; i < config_.workers; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->worker.ring.resize(config_.queue_capacity);
  }
  if (config_.tcp_enable) {
    // One listener per shard, all bound to the same port with
    // SO_REUSEPORT: the kernel hashes each new connection to one shard's
    // accept queue, so no shard ever touches another's connections.
    bound_tcp_port_ = config_.tcp_port;
    for (auto& shard : shards_) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) fail_errno("tcp socket");
      shard->tcp_listen_fd = fd;
      const int one = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      if (::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) < 0) {
        fail_errno("tcp SO_REUSEPORT");
      }
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(bound_tcp_port_);
      if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
        fail_errno("tcp bind port " + std::to_string(bound_tcp_port_));
      }
      if (::listen(fd, 128) < 0) fail_errno("tcp listen");
      if (bound_tcp_port_ == 0) {
        socklen_t len = sizeof(addr);
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
        bound_tcp_port_ = ntohs(addr.sin_port);
      }
      set_nonblocking(fd);
    }
  }
  for (auto& shard : shards_) {
    int pipe_fds[2];
    if (::pipe(pipe_fds) < 0) fail_errno("wake pipe");
    shard->wake_rx = pipe_fds[0];
    shard->wake_tx = pipe_fds[1];
    set_nonblocking(shard->wake_rx);
    set_nonblocking(shard->wake_tx);
  }

  shm_workers_.clear();
  if (!config_.shm_path.empty()) {
    shm_ = std::make_unique<ShmSegment>(ShmSegment::create(
        config_.shm_path, config_.shm_lanes, config_.shm_ring_bytes));
    const std::size_t count =
        std::min(config_.shm_workers, config_.shm_lanes);
    for (std::size_t i = 0; i < count; ++i) {
      shm_workers_.push_back(std::make_unique<ShmWorker>(i));
      shm_workers_.back()->worker.ring.resize(config_.queue_capacity);
    }
  }

  stopping_.store(false, std::memory_order_release);
  for (auto& shard : shards_) {
    shard->thread = std::thread([this, s = shard.get()] { shard_loop(*s); });
  }
  for (auto& worker : shm_workers_) {
    worker->thread =
        std::thread([this, w = worker.get()] { shm_loop(*w); });
  }
  running_ = true;
}

void PolicyServer::stop() {
  if (!running_) return;
  stopping_.store(true, std::memory_order_release);
  const char byte = 'x';
  for (auto& shard : shards_) {
    [[maybe_unused]] const auto n = ::write(shard->wake_tx, &byte, 1);
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  for (auto& worker : shm_workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  shards_.clear();       // closes listener fds and drops pending requests
  shm_workers_.clear();
  if (uds_listen_fd_ >= 0) {
    ::close(uds_listen_fd_);
    uds_listen_fd_ = -1;
  }
  if (!config_.uds_path.empty()) ::unlink(config_.uds_path.c_str());
  shm_.reset();  // clears server_alive, unmaps, unlinks
  queued_total_.store(0, std::memory_order_relaxed);
  running_ = false;
}

bool PolicyServer::request_reload(std::string* error) {
  const std::lock_guard<std::mutex> serial(reload_mutex_);
  if (config_.policy_path.empty() && !registry_) {
    if (error) *error = "no policy path configured";
    return false;
  }
  if (!config_.policy_path.empty()) {
    std::ifstream in(config_.policy_path);
    if (!in) {
      if (error) *error = "cannot open '" + config_.policy_path + "'";
      return false;
    }
    // Load into a fresh governor; the serving table is untouched until
    // the whole checkpoint has validated (same transactional stance as
    // load_policy itself).
    const auto staged = make_governor();
    std::string load_error;
    if (!rl::try_load_policy(*staged, in, &load_error)) {
      if (error) *error = load_error;
      return false;
    }
    publish_incumbent(*staged);
  }
  // SIGHUP-staged canary: with a registry configured, every reload also
  // re-stages the candidate (a new registry entry becomes the canary
  // without restarting the service).
  if (registry_ && config_.rollout.canary_pct > 0.0) {
    std::string stage_error;
    if (!stage_candidate_from_registry(&stage_error)) {
      if (config_.policy_path.empty()) {
        if (error) *error = stage_error;
        return false;
      }
      PMRL_WARN("serve") << "canary not staged on reload: " << stage_error;
    }
  }
  if (reload_counter_) reload_counter_->inc();
  return true;
}

void PolicyServer::stage_candidate(std::unique_ptr<rl::RlGovernor> candidate,
                                   std::uint64_t version) {
  if (!candidate) {
    throw std::invalid_argument("serve: null candidate");
  }
  // Version 0 is the report-credit tag of the incumbent's answers.
  if (version == 0) {
    throw std::invalid_argument("serve: candidate version must be >= 1");
  }
  auto table = action_table(*candidate);
  std::uint64_t replaced = 0;
  {
    const std::lock_guard<std::mutex> lock(snapshot_mutex_);
    // A verdict that landed first has already cleared its candidate
    // (version 0); one that lands later finds `version` staged and is
    // dropped. Either way exactly one of the two records the replaced one.
    replaced = snapshot_->candidate_version;
    publish_locked({snapshot_->incumbent, std::move(table), version});
  }
  {
    const std::lock_guard<std::mutex> lock(rollout_mutex_);
    rollout_.start(version);
    rollout_state_.store(
        static_cast<std::uint8_t>(policy::RolloutState::Canary),
        std::memory_order_release);
  }
  // A canary staged away before its verdict goes back to the candidates.
  if (registry_ && replaced != 0 && replaced != version) {
    try {
      const auto meta = registry_->meta(replaced);
      if (meta && meta->status == policy::PolicyStatus::Canary) {
        registry_->set_status(replaced, policy::PolicyStatus::Candidate);
      }
    } catch (const std::exception& ex) {
      PMRL_WARN("serve") << "registry status update failed: " << ex.what();
    }
  }
  emit_rollout_trace("canary_start", version);
}

bool PolicyServer::stage_candidate_from_registry(std::string* error) {
  if (!registry_) {
    if (error) *error = "no registry configured";
    return false;
  }
  std::uint64_t version = config_.candidate_version;
  if (version == 0) {
    const auto latest = registry_->latest_candidate();
    if (!latest) {
      if (error) *error = "registry has no candidate entry";
      return false;
    }
    version = *latest;
  }
  // An older entry never replaces the staged canary: the canary it would
  // displace goes back to the candidates, and the next reload would swap
  // the two again.
  if (version < candidate_version()) return true;
  auto staged = make_governor();
  try {
    registry_->load(version, *staged);
  } catch (const std::exception& ex) {
    if (error) *error = ex.what();
    return false;
  }
  try {
    registry_->set_status(version, policy::PolicyStatus::Canary);
  } catch (const std::exception& ex) {
    PMRL_WARN("serve") << "registry status update failed: " << ex.what();
  }
  stage_candidate(std::move(staged), version);
  return true;
}

void PolicyServer::finish_rollout(policy::RolloutDecision decision,
                                  std::uint64_t version) {
  const bool promote = decision == policy::RolloutDecision::Promote;
  {
    const std::lock_guard<std::mutex> lock(snapshot_mutex_);
    // The verdict measured `version`'s windows. A candidate staged since
    // then keeps serving with its fresh windows, and the registry records
    // nothing about it.
    if (snapshot_->candidate_version != version) return;
    // Neither verdict touches a connection: the canary cohort is served by
    // the new incumbent from the very next batch.
    publish_locked(
        {promote ? snapshot_->candidate : snapshot_->incumbent, {}, 0});
  }
  (promote ? promotions_ : rollbacks_).fetch_add(1, std::memory_order_relaxed);
  if (obs::Counter* counter = promote ? promote_counter_ : rollback_counter_) {
    counter->inc();
  }
  if (registry_) {
    try {
      promote ? registry_->promote(version) : registry_->rollback(version);
    } catch (const std::exception& ex) {
      PMRL_WARN("serve") << "registry " << (promote ? "promote" : "rollback")
                         << " failed: " << ex.what();
    }
  }
  emit_rollout_trace(promote ? "promote" : "rollback", version);
}

void PolicyServer::emit_rollout_trace(const char* what,
                                      std::uint64_t version) {
  if (!trace_) return;
  obs::TraceEvent event;
  event.kind = obs::EventKind::Rollout;
  event.value = static_cast<double>(version);
  event.detail = what;
  const std::lock_guard<std::mutex> lock(trace_mutex_);
  trace_->record(event);
}

void PolicyServer::pause_workers() {
  paused_.store(true, std::memory_order_release);
}

void PolicyServer::resume_workers() {
  paused_.store(false, std::memory_order_release);
  const char byte = 'x';
  for (auto& shard : shards_) {
    [[maybe_unused]] const auto n = ::write(shard->wake_tx, &byte, 1);
  }
}

void PolicyServer::note_queue_depth(std::ptrdiff_t delta) {
  const auto depth =
      queued_total_.fetch_add(delta, std::memory_order_relaxed) + delta;
  if (queue_depth_gauge_) {
    queue_depth_gauge_->set(static_cast<double>(depth));
  }
}

void PolicyServer::shard_loop(Shard& shard) {
  Worker& worker = shard.worker;
  std::unordered_map<int, std::unique_ptr<Connection>> conns;
  // Closed connections the ring may still refer to; freed once it drains.
  std::vector<std::unique_ptr<Connection>> closed;
  std::vector<pollfd> fds;
  std::vector<int> ready;
  while (!stopping_.load(std::memory_order_acquire)) {
    fds.clear();
    fds.push_back({shard.wake_rx, POLLIN, 0});
    if (uds_listen_fd_ >= 0) fds.push_back({uds_listen_fd_, POLLIN, 0});
    if (shard.tcp_listen_fd >= 0) {
      fds.push_back({shard.tcp_listen_fd, POLLIN, 0});
    }
    for (const auto& [fd, conn] : conns) fds.push_back({fd, POLLIN, 0});
    const bool work_ready =
        worker.count != 0 && !paused_.load(std::memory_order_acquire);
    const int n = ::poll(fds.data(), fds.size(), work_ready ? 0 : -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (stopping_.load(std::memory_order_acquire)) break;
    ready.clear();
    for (const auto& pfd : fds) {
      if (pfd.revents == 0) continue;
      if (pfd.fd == shard.wake_rx) {
        char buf[16];
        while (::read(shard.wake_rx, buf, sizeof buf) > 0) {
        }
      } else if (pfd.fd == uds_listen_fd_ ||
                 pfd.fd == shard.tcp_listen_fd) {
        // The UDS listener is shared: every shard polls it and races
        // accept; losers get EAGAIN and move on. TCP listeners are per
        // shard, so there accept never races.
        for (;;) {
          const int client = ::accept(pfd.fd, nullptr, nullptr);
          if (client < 0) break;
          set_nonblocking(client);
          if (pfd.fd == shard.tcp_listen_fd) {
            const int one = 1;
            ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one,
                         sizeof(one));
          }
          auto conn = std::make_unique<Connection>(client);
          conn->canary = policy::RolloutController::routes_to_candidate(
              conn_seq_.fetch_add(1, std::memory_order_relaxed),
              config_.rollout.canary_pct, config_.rollout.route_salt);
          conns.emplace(client, std::move(conn));
          if (connection_counter_) connection_counter_->inc();
        }
      } else {
        ready.push_back(pfd.fd);
      }
    }
    for (const int fd : ready) {
      const auto it = conns.find(fd);
      if (it == conns.end()) continue;
      handle_readable(worker, it->second.get());
      if (!it->second->open) {
        closed.push_back(std::move(it->second));
        conns.erase(it);
      }
    }
    if (!paused_.load(std::memory_order_acquire)) process_pending(worker);
    if (worker.count == 0) closed.clear();
  }
}

void PolicyServer::shm_loop(ShmWorker& shm_worker) {
  Worker& worker = shm_worker.worker;
  const std::size_t lanes = shm_->lane_count();
  const std::size_t stride = shm_workers_.size();
  std::vector<std::string> rx(lanes);
  std::vector<std::size_t> rx_off(lanes, 0);
  worker.lane_decided_by.assign(lanes, 0);
  unsigned idle = 0;
  while (!stopping_.load(std::memory_order_acquire)) {
    bool did_work = false;
    for (std::size_t l = shm_worker.index; l < lanes; l += stride) {
      const auto state =
          shm_->lane_state(l).load(std::memory_order_acquire);
      if (state == kLaneClosed) {
        // Client detached: recycle the lane for the next claimant.
        shm_->request_ring(l).reset();
        shm_->response_ring(l).reset();
        rx[l].clear();
        rx_off[l] = 0;
        worker.lane_decided_by[l] = 0;
        shm_->lane_state(l).store(kLaneFree, std::memory_order_release);
        did_work = true;
        continue;
      }
      if (state != kLaneClaimed) continue;
      ShmRing ring = shm_->request_ring(l);
      char buf[4096];
      std::size_t got;
      const std::size_t before = rx[l].size();
      while ((got = ring.read_some(buf, sizeof buf)) > 0) {
        rx[l].append(buf, got);
      }
      // Every frame is decoded in the pass that completes it, so a lane
      // that read nothing has nothing to decode.
      if (rx[l].size() == before) continue;
      did_work = true;
      const std::size_t queued = worker.count;
      worker.received = std::chrono::steady_clock::now();
      for (;;) {
        util::Frame frame;
        const auto status = util::decode_frame(rx[l], rx_off[l], frame);
        if (status == util::FrameStatus::NeedMore) break;
        if (status != util::FrameStatus::Ok) {
          // The lane's byte stream lost framing — the shm analog of the
          // socket case, except there is no connection to drop: report,
          // poison the lane, and stop servicing it until the client
          // detaches.
          if (wire_error_counter_) wire_error_counter_->inc();
          std::string out;
          append_error(out, ErrorMsg{0,
                                     static_cast<std::uint32_t>(
                                         WireErrorCode::BadMessage),
                                     std::string("frame error: ") +
                                         util::frame_status_name(status)});
          send_lane(static_cast<std::uint32_t>(l), out);
          // CAS: a client that raced to Closed must not be overwritten,
          // or the lane would never recycle.
          std::uint32_t expected = kLaneClaimed;
          shm_->lane_state(l).compare_exchange_strong(
              expected, kLanePoisoned, std::memory_order_acq_rel);
          rx[l].clear();
          rx_off[l] = 0;
          break;
        }
        handle_frame(worker, nullptr, static_cast<std::uint32_t>(l), frame);
      }
      end_pass(worker, queued);
      if (rx_off[l] > 4096 && rx_off[l] * 2 > rx[l].size()) {
        rx[l].erase(0, rx_off[l]);
        rx_off[l] = 0;
      }
    }
    if (!paused_.load(std::memory_order_acquire) && worker.count != 0) {
      process_pending(worker);
      did_work = true;
    }
    if (did_work) {
      idle = 0;
    } else if (++idle >= 64) {
      // No fd to block on: adaptive backoff keeps an idle segment cheap
      // while a busy one is serviced at memory speed.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
}

void PolicyServer::handle_readable(Worker& worker, Connection* conn) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof buf, 0);
    if (n > 0) {
      conn->rx.append(buf, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof buf) break;
      continue;
    }
    if (n == 0) {  // orderly shutdown by the peer
      conn->open = false;
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    conn->open = false;
    return;
  }
  const std::size_t queued = worker.count;
  worker.received = std::chrono::steady_clock::now();
  while (conn->open) {
    util::Frame frame;
    const auto status = util::decode_frame(conn->rx, conn->rx_off, frame);
    if (status == util::FrameStatus::NeedMore) break;
    if (status != util::FrameStatus::Ok) {
      // Framing is lost; there is no safe way to find the next frame
      // boundary in a corrupted byte stream. Tell the peer, then drop
      // only this connection.
      if (wire_error_counter_) wire_error_counter_->inc();
      std::string out;
      append_error(out, ErrorMsg{0,
                                 static_cast<std::uint32_t>(
                                     WireErrorCode::BadMessage),
                                 std::string("frame error: ") +
                                     util::frame_status_name(status)});
      send_bytes(conn, out);
      conn->open = false;
      break;
    }
    handle_frame(worker, conn, kNoLane, frame);
  }
  end_pass(worker, queued);
  // Reclaim the parsed prefix once it dominates the buffer.
  if (conn->rx_off > 4096 && conn->rx_off * 2 > conn->rx.size()) {
    conn->rx.erase(0, conn->rx_off);
    conn->rx_off = 0;
  }
}

void PolicyServer::handle_frame(Worker& worker, Connection* conn,
                                std::uint32_t lane, const util::Frame& frame) {
  std::string out;
  switch (static_cast<MsgType>(frame.type)) {
    case MsgType::Query: {
      QueryMsg query;
      if (!parse_query(frame, query)) {
        if (wire_error_counter_) wire_error_counter_->inc();
        append_error(out, ErrorMsg{0,
                                   static_cast<std::uint32_t>(
                                       WireErrorCode::BadMessage),
                                   "malformed query payload"});
        send_to(conn, lane, out);
        return;
      }
      if (query.agent >= agent_count_) {
        append_error(
            out, ErrorMsg{query.request_id,
                          static_cast<std::uint32_t>(WireErrorCode::BadAgent),
                          "agent index out of range"});
        send_to(conn, lane, out);
        return;
      }
      if (query.state >= states_per_agent_) {
        append_error(
            out, ErrorMsg{query.request_id,
                          static_cast<std::uint32_t>(WireErrorCode::BadState),
                          "state index out of range"});
        send_to(conn, lane, out);
        return;
      }
      enqueue_or_shed(worker, conn, lane, query);
      return;
    }
    case MsgType::Ping: {
      std::uint64_t token = 0;
      parse_ping(frame, token);
      append_pong(out, token);
      send_to(conn, lane, out);
      return;
    }
    case MsgType::Reload: {
      std::string error;
      const bool ok = request_reload(&error);
      append_reload_ack(out, ReloadAckMsg{ok, error});
      send_to(conn, lane, out);
      return;
    }
    case MsgType::Report: {
      handle_report(worker, conn, lane, frame);
      return;
    }
    default: {
      if (wire_error_counter_) wire_error_counter_->inc();
      append_error(out, ErrorMsg{0,
                                 static_cast<std::uint32_t>(
                                     WireErrorCode::BadMessage),
                                 std::string("unexpected message type ") +
                                     std::to_string(frame.type)});
      send_to(conn, lane, out);
      return;
    }
  }
}

void PolicyServer::handle_report(Worker& worker, Connection* conn,
                                 std::uint32_t lane,
                                 const util::Frame& frame) {
  std::string out;
  ReportMsg report;
  if (!parse_report(frame, report)) {
    if (wire_error_counter_) wire_error_counter_->inc();
    append_error(out, ErrorMsg{0,
                               static_cast<std::uint32_t>(
                                   WireErrorCode::BadMessage),
                               "malformed report payload"});
    send_to(conn, lane, out);
    return;
  }
  const bool canary_cohort =
      conn ? conn->canary
           : policy::RolloutController::routes_to_candidate(
                 kLaneRouteBase + lane, config_.rollout.canary_pct,
                 config_.rollout.route_salt);
  const std::uint64_t decided_by =
      conn ? conn->decided_by : worker.lane_decided_by[lane];
  bool credited = false;
  bool counted = false;
  policy::RolloutDecision decision = policy::RolloutDecision::None;
  std::uint64_t version = 0;
  std::uint8_t state_now = 0;
  {
    const std::lock_guard<std::mutex> lock(rollout_mutex_);
    version = rollout_.candidate_version();
    // The incumbent cohort's outcomes are the incumbent's. A canary-cohort
    // report is the candidate's only when the candidate under evaluation
    // decided the connection's last answer; one about the incumbent's, a
    // safe default or an earlier candidate's answer counts for neither.
    credited = canary_cohort &&
               rollout_.state() == policy::RolloutState::Canary &&
               decided_by == version;
    counted = credited || !canary_cohort;
    if (counted) {
      decision = rollout_.report(credited, report.energy_j, report.qos);
      if (arm_epq_gauge_[credited ? 1 : 0]) {
        arm_epq_gauge_[credited ? 1 : 0]->set(
            rollout_.arm_energy_per_qos(credited));
      }
    }
    state_now = static_cast<std::uint8_t>(rollout_.state());
    rollout_state_.store(state_now, std::memory_order_release);
  }
  if (counted && report_counter_[credited ? 1 : 0]) {
    report_counter_[credited ? 1 : 0]->inc();
  }
  if (decision != policy::RolloutDecision::None) {
    finish_rollout(decision, version);
    state_now = rollout_state_.load(std::memory_order_acquire);
  }
  append_report_ack(out,
                    ReportAckMsg{report.request_id, credited, state_now});
  send_to(conn, lane, out);
}

void PolicyServer::enqueue_or_shed(Worker& worker, Connection* conn,
                                   std::uint32_t lane,
                                   const QueryMsg& query) {
  ++worker.decoded;
  if (!stopping_.load(std::memory_order_relaxed) &&
      worker.count < worker.ring.size()) {
    const bool canary =
        conn ? conn->canary
             : policy::RolloutController::routes_to_candidate(
                   kLaneRouteBase + lane, config_.rollout.canary_pct,
                   config_.rollout.route_salt);
    std::size_t slot = worker.head + worker.count;
    if (slot >= worker.ring.size()) slot -= worker.ring.size();
    worker.ring[slot] = Pending{conn, lane, canary, query, worker.received};
    ++worker.count;
    return;
  }
  // Overload: degrade, don't drop. The client gets an immediate
  // safe-default decision (all-hold) instead of a queue slot.
  if (shed_counter_) shed_counter_->inc();
  (conn ? conn->decided_by : worker.lane_decided_by[lane]) = 0;
  std::string out;
  append_response(out, ResponseMsg{query.request_id, safe_default_action(),
                                   kRespSafeDefault});
  send_to(conn, lane, out);
  responses_.fetch_add(1, std::memory_order_relaxed);
}

void PolicyServer::end_pass(Worker& worker, std::size_t queued_before) {
  if (worker.decoded == 0) return;
  if (requests_counter_) requests_counter_->inc(worker.decoded);
  worker.decoded = 0;
  note_queue_depth(static_cast<std::ptrdiff_t>(worker.count - queued_before));
}

void PolicyServer::process_pending(Worker& worker) {
  // Each batch is a contiguous slice of the ring, so one that reaches the
  // ring's end stops there and the next starts at slot 0.
  while (worker.count != 0 && !stopping_.load(std::memory_order_relaxed)) {
    const std::size_t take = std::min(
        {worker.count, config_.batch_max, worker.ring.size() - worker.head});
    process_batch(worker, take);
    worker.head += take;
    if (worker.head == worker.ring.size()) worker.head = 0;
    worker.count -= take;
    note_queue_depth(-static_cast<std::ptrdiff_t>(take));
  }
  flush_tx(worker);
}

void PolicyServer::process_batch(Worker& worker, std::size_t take) {
  const std::span<const Pending> batch(worker.ring.data() + worker.head,
                                       take);
  const auto t0 = std::chrono::steady_clock::now();
  const auto snapshot = this->snapshot();
  const bool canary_on = snapshot->candidate_version != 0;
  const auto now = std::chrono::steady_clock::now();
  // Respond in arrival order, coalescing consecutive responses to the
  // same target into one send, across the batches of the pass: a
  // pipelined client's whole pass costs a single syscall (or one ring
  // reservation) instead of one per decision or per batch.
  std::uint32_t first_action = 0;
  for (const Pending& pending : batch) {
    if (worker.tx_to && (pending.conn != worker.tx_to->conn ||
                         pending.lane != worker.tx_to->lane)) {
      flush_tx(worker);
    }
    worker.tx_to = &pending;
    const bool use_candidate = canary_on && pending.canary;
    ResponseMsg msg{pending.query.request_id, 0,
                    use_candidate ? kRespCanary : std::uint16_t{0}};
    if (now - pending.received > config_.request_timeout) {
      // Stale decision = wrong decision: a DVFS answer for a 50 ms old
      // state is worthless, so degrade to the safe default instead.
      msg.action = safe_default_action();
      msg.flags = kRespSafeDefault;
      if (timeout_counter_) timeout_counter_->inc();
    } else {
      const auto& table =
          use_candidate ? snapshot->candidate : snapshot->incumbent;
      msg.action = table[pending.query.agent * states_per_agent_ +
                         pending.query.state];
    }
    (pending.conn ? pending.conn->decided_by
                  : worker.lane_decided_by[pending.lane]) =
        msg.flags == kRespCanary ? snapshot->candidate_version : 0;
    if (&pending == &batch.front()) first_action = msg.action;
    append_response(worker.tx, msg);
  }
  responses_.fetch_add(batch.size(), std::memory_order_relaxed);
  const auto t1 = std::chrono::steady_clock::now();
  if (latency_hist_) {
    for (const Pending& pending : batch) {
      latency_hist_->observe(
          std::chrono::duration<double>(t1 - pending.received).count());
    }
  }
  if (batch_size_hist_) {
    batch_size_hist_->observe(static_cast<double>(batch.size()));
  }
  emit_batch_trace(batch.size(),
                   std::chrono::duration<double>(t1 - t0).count(),
                   batch.front().query.state, first_action);
}

void PolicyServer::flush_tx(Worker& worker) {
  if (worker.tx_to) send_to(worker.tx_to->conn, worker.tx_to->lane, worker.tx);
  worker.tx.clear();
  worker.tx_to = nullptr;
}

void PolicyServer::send_to(Connection* conn, std::uint32_t lane,
                           const std::string& bytes) {
  if (conn) {
    send_bytes(conn, bytes);
  } else if (lane != kNoLane) {
    send_lane(lane, bytes);
  }
}

void PolicyServer::send_bytes(Connection* conn, const std::string& bytes) {
  if (!conn || !conn->open) return;
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(conn->fd, bytes.data() + off,
                             bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{conn->fd, POLLOUT, 0};
      if (::poll(&pfd, 1, kWriteStallTimeoutMs) <= 0) {
        conn->open = false;
        return;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    conn->open = false;
    return;
  }
}

void PolicyServer::send_lane(std::uint32_t lane, const std::string& bytes) {
  if (!shm_) return;
  ShmRing ring = shm_->response_ring(lane);
  std::size_t off = 0;
  unsigned spins = 0;
  while (off < bytes.size()) {
    if (stopping_.load(std::memory_order_relaxed)) return;
    const auto state =
        shm_->lane_state(lane).load(std::memory_order_acquire);
    if (state != kLaneClaimed && state != kLanePoisoned) return;
    const std::size_t n =
        ring.write_some(bytes.data() + off, bytes.size() - off);
    if (n > 0) {
      off += n;
      spins = 0;
      continue;
    }
    ring_backoff(spins);
  }
}

void PolicyServer::emit_batch_trace(std::size_t batch_size, double latency_s,
                                    std::uint64_t first_state,
                                    std::uint32_t first_action) {
  if (!trace_) return;
  obs::TraceEvent event;
  event.kind = obs::EventKind::HwInvoke;
  event.epoch = batch_seq_.fetch_add(1, std::memory_order_relaxed);
  event.state = first_state;
  event.action = first_action;
  event.latency_s = latency_s;
  event.value = static_cast<double>(batch_size);
  event.detail = "serve.batch";
  const std::lock_guard<std::mutex> lock(trace_mutex_);
  trace_->record(event);
}

}  // namespace pmrl::serve
