// serve: a PolicyServer over a Unix-domain socket serving a seeded
// incumbent policy and a staged canary candidate. One generator thread
// drives two connections: first an open loop at a fixed absolute rate,
// then a closed loop with a fixed number of requests in flight. A second
// thread hot-reloads the incumbent at a fixed interval throughout, so the
// decision caches are invalidated while requests are being decided.

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/engine.hpp"
#include "loadgen.hpp"
#include "obs/trace_event.hpp"
#include "obs/trace_sink.hpp"
#include "policy/rollout.hpp"
#include "rl/policy_io.hpp"
#include "rl/rl_governor.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/shm_ring.hpp"
#include "serve/wire.hpp"
#include "soc/soc.hpp"
#include "stats.hpp"
#include "util/framing.hpp"
#include "workload/scenarios.hpp"
#include "workloads.hpp"

namespace ledger {
namespace {

using namespace pmrl;

/// Shard threads. One shard: with two, the UDS accept race puts both
/// connections on one shard about half the time, which makes throughput
/// bimodal from process to process.
constexpr std::size_t kShards = 1;
constexpr std::size_t kClusters = 2;
/// Open-loop rate, decisions per second over both connections, fixed once
/// from measurements on a 4-vCPU VM (closed-loop capacity there was
/// 1.0-1.8M decisions/s). At 200-400k/s a request sometimes finds the shard
/// awake and sometimes asleep, and the median moved 10-25% between
/// processes; at 600k/s the shard stays awake and p50 held within 2%, but
/// small batches cut capacity so far that a slow stretch of the VM tipped
/// the loop into backlog. At 50k/s every request pays the shard's wake-up,
/// which is the steadiest regime found. Never derived from capacity
/// measured at run time.
constexpr double kOpenRate = 50000.0;
/// Open-loop requests in flight at most. A generator stall makes many
/// requests due at once; sending them all in one burst would overflow the
/// shard's pending queue (an artefact of the one-process generator, not of
/// independent clients), so the catch-up goes out as answers return. Their
/// latency still counts from when they were due.
constexpr std::uint64_t kOpenMaxInFlight = 512;
/// Open-loop warm-up left out of the timing.
constexpr double kOpenWarmupS = 0.25;
/// Closed loop: requests in flight per connection, requests per write.
constexpr std::size_t kDepth = 256;
constexpr std::size_t kChunk = 32;
/// Closed-loop rate windows; the first few are warm-up.
constexpr double kWindowS = 0.05;
constexpr std::size_t kWarmupWindows = 4;
/// Hot-reload interval: the cadence at which the repository's own training
/// pipeline can produce tables. One DistributedTrainer round of the handset
/// workload's size (48 episodes, 4 actors) took 0.46-0.51 s on a 4-vCPU VM
/// (train.actors_s), so a trainer that publishes every merged table
/// reloads the server about every half second.
constexpr auto kReloadInterval = std::chrono::milliseconds(500);
constexpr int kSetupCycles = 201;
constexpr std::uint64_t kCandidateVersion = 2;
constexpr double kCanaryPct = 50.0;
/// Requests still unanswered this long after a loop's last request was due
/// or sent count as unanswered.
constexpr double kGraceS = 2.0;
/// Request stream length (cycled).
constexpr std::size_t kStreamLength = 1 << 16;
/// One open-loop request in this many is recorded as a span when traced.
constexpr std::uint64_t kSampleEvery = 1024;

struct Request {
  std::uint32_t agent = 0;
  std::uint64_t state = 0;
};

/// Generated inputs: the two checkpoints on disk and the request stream.
struct Inputs {
  std::string incumbent_path;
  std::string candidate_path;
  std::string socket_path;
  std::string shm_path;
  std::vector<Request> stream;
  /// The stream as Query frames back to back, request i with id i + 1.
  /// The generator copies frames instead of encoding each request, so it
  /// stays cheaper per request than the server and the closed loop
  /// measures the server, not the load generator.
  std::string frames;
  std::size_t frame_bytes = 0;
  std::uint64_t route_salt = 0;
};

rl::RlGovernorConfig governor_config() { return rl::RlGovernorConfig{}; }

/// A policy whose Q-values are seeded uniform draws in [-1, 1).
void write_seeded_policy(const std::string& path, std::uint64_t seed) {
  rl::RlGovernor governor(governor_config(), kClusters);
  std::uint64_t n = 0;
  for (std::size_t a = 0; a < governor.agent_count(); ++a) {
    rl::QAgent& agent = governor.agent(a);
    for (std::size_t s = 0; s < agent.state_count(); ++s) {
      for (std::size_t act = 0; act < agent.action_count(); ++act) {
        const double u =
            static_cast<double>(derive_seed(seed, n++) >> 11) * 0x1.0p-53;
        agent.set_q_value(s, act, 2.0 * u - 1.0);
      }
    }
  }
  std::ofstream out(path);
  rl::save_policy(governor, out);
  if (!out) throw std::runtime_error("serve: cannot write " + path);
}

std::unique_ptr<rl::RlGovernor> load_frozen(const std::string& path) {
  auto governor = std::make_unique<rl::RlGovernor>(governor_config(), kClusters);
  std::ifstream in(path);
  rl::load_policy(*governor, in);
  governor->set_frozen(true);
  return governor;
}

/// Counts the states each agent decides on.
class VisitSink : public obs::TraceSink {
 public:
  explicit VisitSink(const rl::RlGovernor& governor) {
    for (std::size_t a = 0; a < governor.agent_count(); ++a) {
      visits.emplace_back(governor.agent(a).state_count(), 0);
    }
  }
  void record(const obs::TraceEvent& event) override {
    if (event.kind == obs::EventKind::Decision) ++visits[event.index][event.state];
  }
  std::vector<std::vector<std::uint64_t>> visits;
};

/// How often each agent of the served incumbent decides on each state when
/// it runs the six scenarios on SimEngine: the states a device running
/// that policy would ask about, and how often.
std::vector<std::vector<std::uint64_t>> state_visits(const std::string& policy_path,
                                                     std::uint64_t seed) {
  const soc::SocConfig soc_config = soc::default_mobile_soc_config();
  if (soc_config.clusters.size() != kClusters) {
    throw std::runtime_error("serve: the default SoC does not have two clusters");
  }
  const auto governor = load_frozen(policy_path);
  VisitSink sink(*governor);
  governor->set_trace_sink(&sink);
  for (const auto kind : workload::all_scenario_kinds()) {
    core::SimEngine engine(soc_config, core::EngineConfig{});
    const auto scenario = workload::make_scenario(kind, seed);
    engine.run(*scenario, *governor);
  }
  governor->set_trace_sink(nullptr);
  return std::move(sink.visits);
}

Inputs make_inputs(const Options& opts) {
  Inputs in;
  in.incumbent_path = opts.run_dir + "/incumbent.pmrl";
  in.candidate_path = opts.run_dir + "/candidate.pmrl";
  in.socket_path = opts.run_dir + "/serve.sock";
  in.shm_path = opts.run_dir + "/serve.shm";
  write_seeded_policy(in.incumbent_path, derive_seed(opts.seed, 20));
  write_seeded_policy(in.candidate_path, derive_seed(opts.seed, 21));
  // Request states follow the incumbent's own state visits on the six
  // scenarios, plus one per state so that every state of both agents can
  // be asked for: a draw of (agent, state) with weight visits + 1.
  const auto visits = state_visits(in.incumbent_path, derive_seed(opts.seed, 23));
  std::vector<Request> keys;
  std::vector<std::uint64_t> cumulative;
  std::uint64_t total = 0, visited = 0;
  for (std::size_t a = 0; a < visits.size(); ++a) {
    for (std::size_t s = 0; s < visits[a].size(); ++s) {
      keys.push_back(Request{static_cast<std::uint32_t>(a), s});
      total += visits[a][s] + 1;
      cumulative.push_back(total);
      visited += visits[a][s] ? 1 : 0;
    }
  }
  in.stream.resize(kStreamLength);
  std::size_t on_unvisited = 0;
  for (std::size_t i = 0; i < kStreamLength; ++i) {
    const std::uint64_t pick = derive_seed(opts.seed, 5000000 + i) % total;
    const auto k = static_cast<std::size_t>(
        std::upper_bound(cumulative.begin(), cumulative.end(), pick) -
        cumulative.begin());
    in.stream[i] = keys[k];
    on_unvisited += visits[keys[k].agent][keys[k].state] ? 0 : 1;
    serve::append_query(in.frames, serve::QueryMsg{i + 1, in.stream[i].agent,
                                                   in.stream[i].state});
    if (i == 0) in.frame_bytes = in.frames.size();
  }
  std::fprintf(stderr, "serve: request states from %llu incumbent decisions; "
               "%llu of %zu states visited, %.2f%% of requests on unvisited "
               "states\n",
               static_cast<unsigned long long>(total - keys.size()),
               static_cast<unsigned long long>(visited), keys.size(),
               100.0 * static_cast<double>(on_unvisited) /
                   static_cast<double>(kStreamLength));
  // A salt that puts exactly one of the two generator connections (route
  // keys 0 and 1, in accept order) on the canary arm.
  for (in.route_salt = derive_seed(opts.seed, 22);;
       ++in.route_salt) {
    if (policy::RolloutController::routes_to_candidate(0, kCanaryPct,
                                                       in.route_salt) !=
        policy::RolloutController::routes_to_candidate(1, kCanaryPct,
                                                       in.route_salt)) {
      break;
    }
  }
  return in;
}

/// Greedy action of each arm for every (agent, state), computed in-process
/// from the same checkpoints the server loads.
class Reference {
 public:
  explicit Reference(const Inputs& in) {
    const auto incumbent = load_frozen(in.incumbent_path);
    const auto candidate = load_frozen(in.candidate_path);
    for (int arm = 0; arm < 2; ++arm) {
      const rl::RlGovernor& g = arm == 0 ? *incumbent : *candidate;
      actions_[arm].resize(g.agent_count());
      for (std::size_t a = 0; a < g.agent_count(); ++a) {
        std::vector<std::uint64_t> states(g.agent(a).state_count());
        for (std::size_t s = 0; s < states.size(); ++s) states[s] = s;
        actions_[arm][a].resize(states.size());
        g.agent(a).greedy_actions(states.data(), states.size(),
                                  actions_[arm][a].data());
      }
    }
  }
  std::uint32_t action(bool canary, const Request& r) const {
    return actions_[canary ? 1 : 0][r.agent][r.state];
  }

 private:
  std::array<std::vector<std::vector<std::uint32_t>>, 2> actions_;
};

serve::ServerConfig server_config(const Inputs& in, bool all_transports) {
  serve::ServerConfig config;
  config.uds_path = in.socket_path;
  config.workers = kShards;
  config.policy_path = in.incumbent_path;
  config.governor = governor_config();
  config.cluster_count = kClusters;
  config.rollout.canary_pct = kCanaryPct;
  config.rollout.route_salt = in.route_salt;
  if (all_transports) {
    config.tcp_enable = true;
    config.shm_path = in.shm_path;
    config.shm_lanes = 1;
  }
  return config;
}

/// A non-blocking UDS connection with its own send and receive buffers.
class Conn {
 public:
  explicit Conn(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("serve: socket failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) {
      throw std::runtime_error("serve: socket path too long");
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      throw std::runtime_error("serve: connect failed");
    }
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  std::string tx;

  /// Writes as much of tx as the socket takes now; never blocks.
  void flush() {
    while (tx_off_ < tx.size() && open_) {
      const ssize_t n = ::send(fd_, tx.data() + tx_off_, tx.size() - tx_off_,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        tx_off_ += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) open_ = false;
        break;
      }
    }
    if (tx_off_ == tx.size()) {
      tx.clear();
      tx_off_ = 0;
    }
  }

  /// Reads what is available now and hands each complete frame to
  /// `on_frame`; never blocks. A closed or corrupt stream marks the
  /// connection dropped.
  template <typename F>
  void drain(F&& on_frame) {
    char buf[65536];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
      if (n > 0) {
        rx_.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) open_ = false;
      break;
    }
    util::Frame frame;
    for (;;) {
      const auto status = util::decode_frame(rx_, rx_off_, frame);
      if (status == util::FrameStatus::NeedMore) break;
      if (status != util::FrameStatus::Ok) {
        open_ = false;
        break;
      }
      on_frame(frame);
    }
    if (rx_off_ == rx_.size()) {
      rx_.clear();
      rx_off_ = 0;
    } else if (rx_off_ > (1u << 20)) {
      rx_.erase(0, rx_off_);
      rx_off_ = 0;
    }
  }

  bool open() const { return open_; }
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  bool open_ = true;
  std::size_t tx_off_ = 0;
  std::string rx_;
  std::size_t rx_off_ = 0;
};

/// Collects the server's per-batch trace events (size, server-side time).
class BatchSink : public obs::TraceSink {
 public:
  void record(const obs::TraceEvent& event) override {
    if (event.kind != obs::EventKind::HwInvoke) return;
    sizes.push_back(event.value);
    latency_us.push_back(event.latency_s * 1e6);
  }
  std::vector<double> sizes;
  std::vector<double> latency_us;
};

/// Sends requests and checks every answer against the reference.
class Generator {
 public:
  Generator(const Inputs& in, const Reference& ref, Conn& a, Conn& b)
      : in_(in), ref_(ref), conns_{&a, &b} {}

  /// Queues the next request of the stream on connection `c`. Request n
  /// goes out as stream frame n % length, whose wire id is that index + 1.
  /// A request still unanswered when its slot comes round again is lost:
  /// it is counted as unanswered here and the run goes on.
  void send(int c) {
    const std::uint64_t n = sent_++;
    if (in_flight_.add(n)) {
      ++settled_;
      tally.add(Outcome::Unanswered);
    }
    conns_[c]->tx.append(in_.frames, (n % in_.stream.size()) * in_.frame_bytes,
                         in_.frame_bytes);
  }
  void flush() {
    for (Conn* c : conns_) c->flush();
  }
  /// Drains both connections; calls on_answer(id, conn) for each response.
  template <typename F>
  void drain(F&& on_answer) {
    for (int c = 0; c < 2; ++c) {
      conns_[c]->drain([&](const util::Frame& frame) {
        handle(frame, c, on_answer);
      });
    }
  }
  bool connected() const { return conns_[0]->open() && conns_[1]->open(); }
  std::uint64_t sent() const { return sent_; }
  /// Requests answered, or counted as lost because their slot came round.
  std::uint64_t settled() const { return settled_; }

  OutcomeTally tally;
  std::uint64_t cache_hits = 0;
  std::uint64_t canary = 0;
  std::uint64_t decided = 0;

 private:
  template <typename F>
  void handle(const util::Frame& frame, int c, F& on_answer) {
    std::optional<std::uint64_t> n;
    Outcome outcome = Outcome::Error;
    if (frame.type == static_cast<std::uint8_t>(serve::MsgType::Response)) {
      serve::ResponseMsg msg;
      if (!serve::parse_response(frame, msg)) return tally.add(Outcome::Error);
      n = in_flight_.take(msg.request_id);
      if (!n) return tally.add(Outcome::Wrong);
      const bool degraded = msg.flags & serve::kRespSafeDefault;
      const bool on_canary = msg.flags & serve::kRespCanary;
      const Request& r = in_.stream[msg.request_id - 1];
      outcome = classify_response(false, degraded, msg.action,
                                  ref_.action(on_canary, r));
      if (!degraded) {
        ++decided;
        cache_hits += (msg.flags & serve::kRespCacheHit) ? 1 : 0;
        canary += on_canary ? 1 : 0;
      }
    } else if (frame.type == static_cast<std::uint8_t>(serve::MsgType::Error)) {
      serve::ErrorMsg msg;
      serve::parse_error(frame, msg);
      n = in_flight_.take(msg.request_id);
      if (!n) return tally.add(Outcome::Error);
    } else {
      return tally.add(Outcome::Error);
    }
    ++settled_;
    tally.add(outcome);
    on_answer(*n, c);
  }

  /// Slots for requests in flight: more than either loop keeps in flight.
  static constexpr std::size_t kInFlightSlots = 4096;

  const Inputs& in_;
  const Reference& ref_;
  std::array<Conn*, 2> conns_;
  InFlightTable in_flight_{kInFlightSlots, kStreamLength};
  std::uint64_t sent_ = 0;
  std::uint64_t settled_ = 0;
};

/// A started server with its two generator connections, after the first
/// answered query.
struct Session {
  std::unique_ptr<serve::PolicyServer> server;
  std::unique_ptr<Conn> conns[2];
  std::unique_ptr<Generator> gen;
  double stage_ms = 0.0;

  ~Session() {
    gen.reset();
    conns[0].reset();
    conns[1].reset();
    if (server) server->stop();
  }
};

/// One full set-up cycle: candidate load, server start (which loads the
/// incumbent), candidate staging, both connections, first answered query.
std::unique_ptr<Session> set_up(const Inputs& in, const Reference& ref,
                                obs::TraceSink* sink) {
  auto session = std::make_unique<Session>();
  auto candidate = load_frozen(in.candidate_path);
  session->server =
      std::make_unique<serve::PolicyServer>(server_config(in, false));
  if (sink) session->server->set_trace_sink(sink);
  session->server->start();
  const std::int64_t t0 = now_ns();
  session->server->stage_candidate(std::move(candidate), kCandidateVersion);
  session->stage_ms = ns_between(t0, now_ns()) * 1e-6;
  session->conns[0] = std::make_unique<Conn>(in.socket_path);
  session->conns[1] = std::make_unique<Conn>(in.socket_path);
  session->gen = std::make_unique<Generator>(in, ref, *session->conns[0],
                                             *session->conns[1]);
  Generator& gen = *session->gen;
  gen.send(0);
  gen.flush();
  const std::int64_t sent = now_ns();
  while (gen.settled() < 1) {
    if (!gen.connected() || ns_between(sent, now_ns()) > kGraceS * 1e9) {
      throw std::runtime_error("serve: first query not answered");
    }
    pollfd pfd{session->conns[0]->fd(), POLLIN, 0};
    ::poll(&pfd, 1, 100);
    gen.drain([](std::uint64_t, int) {});
  }
  return session;
}

/// Hot-reloads the incumbent every kReloadInterval until stopped.
class Reloader {
 public:
  explicit Reloader(serve::PolicyServer& server)
      : thread_([this, &server](std::stop_token stop) {
          auto next = Clock::now() + kReloadInterval;
          while (!stop.stop_requested()) {
            std::this_thread::sleep_until(next);
            next += kReloadInterval;
            if (stop.stop_requested()) break;
            const std::int64_t t0 = now_ns();
            const bool ok = server.request_reload();
            const std::int64_t t1 = now_ns();
            intervals_.push_back({t0, t1});
            failures_ += ok ? 0 : 1;
          }
        }) {}
  /// Stops and joins; the interval list is stable afterwards.
  void stop() {
    thread_.request_stop();
    if (thread_.joinable()) thread_.join();
  }
  const std::vector<std::pair<std::int64_t, std::int64_t>>& intervals() const {
    return intervals_;
  }
  std::uint64_t failures() const { return failures_; }

 private:
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals_;
  std::uint64_t failures_ = 0;
  std::jthread thread_;  // last: joins before the members it uses go away
};

struct OpenLoopStats {
  /// Due-time latency and generator lag of the timed requests, ascending.
  std::vector<double> latency_us;
  std::vector<double> lag_us;
  /// Sampled requests (traced runs): index, due, sent, answered.
  std::vector<std::array<std::int64_t, 4>> samples;
};

/// Open loop at kOpenRate for `seconds`. Due requests go out as one write
/// per connection; both connections are drained between writes.
OpenLoopStats open_loop(Generator& gen, double seconds, bool traced,
                        std::uint64_t seed) {
  const std::uint64_t first_id = gen.sent();
  const auto total = static_cast<std::uint64_t>(kOpenRate * seconds);
  const auto warmup = static_cast<std::uint64_t>(kOpenRate * kOpenWarmupS);
  const OpenLoopSchedule schedule(now_ns() + 100000, kOpenRate);
  DueTimeBook book(schedule, warmup, total > warmup ? total - warmup : 0);
  std::vector<std::int64_t> sent_at;
  if (traced) sent_at.reserve(total);
  OpenLoopStats stats;
  auto on_answer = [&](std::uint64_t id, int) {
    if (id < first_id) return;
    const std::uint64_t i = id - first_id;
    const std::int64_t t = now_ns();
    book.answered(i, t);
    if (traced && derive_seed(seed, 9000000 + i) % kSampleEvery == 0) {
      stats.samples.push_back({static_cast<std::int64_t>(i), schedule.due_ns(i),
                               sent_at[i], t});
    }
  };
  // A server that keeps the connections open but stops answering would
  // hold the in-flight cap forever, so the loop ends kGraceS after the last
  // request was due; what is unanswered then counts as unanswered.
  const std::int64_t deadline =
      schedule.due_ns(total) + static_cast<std::int64_t>(kGraceS * 1e9);
  std::uint64_t next = 0;
  while (gen.connected() && now_ns() < deadline) {
    const std::int64_t now = now_ns();
    const std::uint64_t due = std::min(schedule.due_by(now), total);
    for (; next < due && gen.sent() - gen.settled() < kOpenMaxInFlight;
         ++next) {
      gen.send(static_cast<int>(next % 2));
      book.sent(next, now);
      if (traced) sent_at.push_back(now);
    }
    gen.flush();
    gen.drain(on_answer);
    if (next == total && gen.settled() == gen.sent()) break;
  }
  book.take(stats.latency_us, stats.lag_us);
  // Sorted once here: only order statistics are taken from them.
  std::sort(stats.latency_us.begin(), stats.latency_us.end());
  std::sort(stats.lag_us.begin(), stats.lag_us.end());
  return stats;
}

/// Closed loop for `seconds`: kDepth requests in flight per connection,
/// refilled kChunk at a time. Returns the decision rate of each window
/// after the warm-up windows.
std::vector<double> closed_loop(Generator& gen, double seconds) {
  const std::uint64_t first_id = gen.sent();
  std::array<std::size_t, 2> in_flight{0, 0};
  std::vector<double> rates;
  std::uint64_t window_count = 0;
  std::int64_t window_start = now_ns();
  const std::int64_t end = window_start + static_cast<std::int64_t>(seconds * 1e9);
  std::size_t windows = 0;
  auto on_answer = [&](std::uint64_t id, int c) {
    if (id < first_id) return;  // a late open-loop answer
    --in_flight[static_cast<std::size_t>(c)];
    ++window_count;
  };
  std::int64_t now = window_start;
  while (gen.connected() && now < end) {
    for (int c = 0; c < 2; ++c) {
      while (in_flight[static_cast<std::size_t>(c)] + kChunk <= kDepth) {
        for (std::size_t k = 0; k < kChunk; ++k) gen.send(c);
        in_flight[static_cast<std::size_t>(c)] += kChunk;
      }
    }
    gen.flush();
    gen.drain(on_answer);
    now = now_ns();
    if (ns_between(window_start, now) >= kWindowS * 1e9) {
      if (windows++ >= kWarmupWindows) {
        rates.push_back(static_cast<double>(window_count) /
                        (ns_between(window_start, now) * 1e-9));
      }
      window_count = 0;
      window_start = now;
    }
  }
  const std::int64_t stop = now_ns();
  while (gen.connected() && gen.settled() < gen.sent() &&
         ns_between(stop, now_ns()) < kGraceS * 1e9) {
    gen.flush();
    gen.drain(on_answer);
  }
  return rates;
}

struct LoadStats {
  double setup_s = 0.0;
  OpenLoopStats open;
  std::vector<double> closed_rates;
  std::vector<double> reload_ms;
  double stage_ms = 0.0;
  OutcomeTally tally;
  std::uint64_t reload_failures = 0;
  bool dropped = false;
  double cache_hit_frac = 0.0;
  double canary_frac = 0.0;
};

/// Set-up cycles, then the open and closed loops with reloads throughout.
LoadStats run_load(const Inputs& in, const Reference& ref, double seconds,
                   int setup_cycles, obs::TraceSink* sink,
                   TraceContext* trace, int parent, std::uint64_t seed) {
  LoadStats stats;
  SpanRecorder* spans = trace ? &trace->spans : nullptr;
  std::unique_ptr<Session> session;
  {
    ScopedSpan span(spans, "serve.setup", parent, 0);
    std::vector<double> setup_s;
    for (int i = 0; i < setup_cycles; ++i) {
      session.reset();
      const std::int64_t t0 = now_ns();
      session = set_up(in, ref, sink);
      setup_s.push_back(ns_between(t0, now_ns()) * 1e-9);
    }
    stats.setup_s = median(setup_s);
    stats.stage_ms = session->stage_ms;
  }
  Generator& gen = *session->gen;
  Reloader reloader(*session->server);
  {
    ScopedSpan span(spans, "serve.open_loop", parent, 0);
    stats.open = open_loop(gen, seconds / 2, trace != nullptr, seed);
    if (spans) {
      for (const auto& s : stats.open.samples) {
        const auto id = static_cast<std::uint64_t>(s[0]);
        const int request = spans->add("serve.request", s[1], s[3], span.index(), id);
        spans->add("loadgen.lag", s[1], s[2], request, id);
      }
    }
  }
  {
    ScopedSpan span(spans, "serve.closed_loop", parent, 0);
    stats.closed_rates = closed_loop(gen, seconds / 2);
  }
  std::fprintf(stderr, "serve: open loop p50 %.2f us p99 %.2f us; closed loop "
               "window median %.4g/s, spread %.3f\n",
               percentile_sorted(stats.open.latency_us, 50),
               percentile_sorted(stats.open.latency_us, 99), median(stats.closed_rates),
               quartile_spread(stats.closed_rates));
  reloader.stop();
  for (const auto& [a, b] : reloader.intervals()) {
    stats.reload_ms.push_back(ns_between(a, b) * 1e-6);
    if (spans) spans->add("policy.reload", a, b, parent, 0);
  }
  stats.reload_failures = reloader.failures();
  stats.dropped = !gen.connected();
  gen.tally.close(gen.sent(), gen.settled());
  stats.tally = gen.tally;
  stats.cache_hit_frac = gen.decided ? static_cast<double>(gen.cache_hits) /
                                           static_cast<double>(gen.decided)
                                     : 0.0;
  stats.canary_frac = gen.decided ? static_cast<double>(gen.canary) /
                                        static_cast<double>(gen.decided)
                                  : 0.0;
  return stats;
}

void tally_load(const LoadStats& stats, Result& result) {
  result.tally(stats.tally.attempted, stats.tally.failed());
  // A failed reload or a dropped connection fails the run outright.
  result.tally(2, (stats.reload_failures > 0 ? 1 : 0) + (stats.dropped ? 1 : 0));
  std::fprintf(stderr,
               "serve: %llu requests: %llu ok, %llu error, %llu safe-default, "
               "%llu wrong, %llu unanswered; %zu reloads; %zu closed windows\n",
               static_cast<unsigned long long>(stats.tally.attempted),
               static_cast<unsigned long long>(stats.tally.ok),
               static_cast<unsigned long long>(stats.tally.error),
               static_cast<unsigned long long>(stats.tally.safe_default),
               static_cast<unsigned long long>(stats.tally.wrong),
               static_cast<unsigned long long>(stats.tally.unanswered),
               stats.reload_ms.size(), stats.closed_rates.size());
}

template <typename F>
double median_rtt_us(F&& round_trip, int iterations) {
  for (int i = 0; i < iterations / 10; ++i) round_trip();
  std::vector<double> us;
  for (int i = 0; i < iterations; ++i) {
    const std::int64_t t0 = now_ns();
    round_trip();
    us.push_back(ns_between(t0, now_ns()) * 1e-3);
  }
  return median(us);
}

}  // namespace

void serve_run(const Options& opts, Result& result) {
  const Inputs in = make_inputs(opts);
  const Reference ref(in);
  LoadStats stats =
      run_load(in, ref, opts.seconds, kSetupCycles, nullptr, nullptr, -1, opts.seed);
  tally_load(stats, result);
  result.add("setup_s", stats.setup_s, "s");
  result.add("throughput_per_s", median(stats.closed_rates), "1/s");
  result.add("p50_us", median(std::move(stats.open.latency_us)), "us");
  result.add("peak_rss_mb", peak_rss_mb(), "MiB");
}

void serve_layers(const Options& opts, Result& result, TraceContext& trace,
                  bool own) {
  ScopedSpan phase(&trace.spans, "serve.layers", trace.root, 0);
  const Inputs in = make_inputs(opts);
  const Reference ref(in);

  // Load with the server's batch trace attached: the full measuring time
  // for the traced workload, a short probe otherwise.
  BatchSink sink;
  const double seconds = own ? opts.seconds / 2 : 1.0;
  const LoadStats traced =
      run_load(in, ref, seconds, own ? kSetupCycles : 5, &sink, &trace,
               phase.index(), opts.seed);
  tally_load(traced, result);
  if (own) {
    // Untraced load of the same length, for the tracing overhead. Its one
    // span keeps the phase's parts summing to the whole.
    ScopedSpan span(&trace.spans, "serve.load.untraced", phase.index(), 0);
    const LoadStats plain = run_load(in, ref, seconds, kSetupCycles, nullptr,
                                     nullptr, -1, opts.seed);
    tally_load(plain, result);
    result.add("trace.overhead_ratio",
               median(plain.closed_rates) / median(traced.closed_rates), "x");
  }
  const std::vector<double>& latency = traced.open.latency_us;
  const std::vector<double>& lag = traced.open.lag_us;
  // Tails only where at least ten samples lie beyond them.
  const double tail = highest_supported_percentile(latency.size());
  result.add("serve.p99_us",
             percentile_sorted(latency, std::min(tail, 99.0)), "us");
  result.add("serve.p999_us",
             percentile_sorted(latency, std::min(tail, 99.9)), "us");
  result.add("loadgen.lag_p99_us",
             percentile_sorted(lag, std::min(highest_supported_percentile(lag.size()), 99.0)),
             "us");
  result.add("loadgen.lag_max_us", lag.empty() ? 0.0 : lag.back(), "us");
  result.add("serve.cache_hit_frac", traced.cache_hit_frac, "fraction");
  result.add("serve.canary_frac", traced.canary_frac, "fraction");
  double batched = 0.0;
  for (const double s : sink.sizes) batched += s;
  result.add("serve.batch_size_mean",
             sink.sizes.empty() ? 0.0 : batched / static_cast<double>(sink.sizes.size()),
             "count");
  result.add("serve.batch_us_p50", median(sink.latency_us), "us");
  result.add("policy.reload_ms", median(traced.reload_ms), "ms");

  // Depth-1 round trips on every transport, on a server that listens on
  // all three; stage and reload timed on it while idle.
  {
    ScopedSpan span(&trace.spans, "serve.transports", phase.index(), 0);
    serve::PolicyServer server(server_config(in, true));
    server.start();
    std::vector<double> stage_ms;
    for (int i = 0; i < 21; ++i) {
      auto candidate = load_frozen(in.candidate_path);
      const std::int64_t t0 = now_ns();
      server.stage_candidate(std::move(candidate), kCandidateVersion);
      stage_ms.push_back(ns_between(t0, now_ns()) * 1e-6);
    }
    result.add("policy.stage_ms", median(stage_ms), "ms");
    auto uds = serve::Client::connect_uds(in.socket_path);
    auto tcp = serve::Client::connect_tcp("127.0.0.1", server.tcp_port());
    serve::ShmClient shm(in.shm_path);
    constexpr int kRtts = 2000;
    result.add("serve.ping_rtt_us.uds", median_rtt_us([&] { uds.ping(); }, kRtts), "us");
    result.add("serve.ping_rtt_us.tcp", median_rtt_us([&] { tcp.ping(); }, kRtts), "us");
    result.add("serve.ping_rtt_us.shm", median_rtt_us([&] { shm.ping(); }, kRtts), "us");
    std::size_t next = 0;
    std::uint64_t wrong = 0;
    result.add("serve.query_rtt_us.uds", median_rtt_us([&] {
      const Request& r = in.stream[next++ % in.stream.size()];
      const auto answer = uds.query(r.state, r.agent);
      if (!answer.safe_default && answer.action != ref.action(answer.canary, r)) ++wrong;
    }, kRtts), "us");
    result.tally(1, wrong ? 1 : 0);
    server.stop();
  }

  // Frame encode/decode and the batched greedy argmax, per item.
  {
    ScopedSpan span(&trace.spans, "serve.codec", phase.index(), 0);
    constexpr std::size_t kFrames = 1 << 14;
    std::vector<double> encode_ns, decode_ns, greedy_ns;
    std::string out;
    std::string responses;
    for (std::size_t i = 0; i < kFrames; ++i) {
      serve::append_response(responses, serve::ResponseMsg{i + 1, 1, 0});
    }
    const auto governor = load_frozen(in.incumbent_path);
    std::vector<std::uint64_t> states(32);
    std::vector<std::uint32_t> actions(32);
    for (int rep = 0; rep < 7; ++rep) {
      std::int64_t t0 = now_ns();
      for (std::size_t i = 0; i < kFrames; ++i) {
        if (i % 1024 == 0) out.clear();
        const Request& r = in.stream[i % in.stream.size()];
        serve::append_query(out, serve::QueryMsg{i + 1, r.agent, r.state});
      }
      encode_ns.push_back(ns_between(t0, now_ns()) / kFrames);
      t0 = now_ns();
      std::size_t offset = 0;
      util::Frame frame;
      serve::ResponseMsg msg;
      std::uint64_t ids = 0;
      while (util::decode_frame(responses, offset, frame) == util::FrameStatus::Ok &&
             serve::parse_response(frame, msg)) {
        ids += msg.request_id;
      }
      decode_ns.push_back(ns_between(t0, now_ns()) / kFrames);
      result.tally(1, ids == kFrames * (kFrames + 1) / 2 ? 0 : 1);
      t0 = now_ns();
      std::size_t greedy = 0;
      for (std::size_t i = 0; i + 32 <= in.stream.size(); i += 32) {
        for (std::uint32_t agent = 0; agent < governor->agent_count(); ++agent) {
          std::size_t n = 0;
          for (std::size_t k = i; k < i + 32; ++k) {
            if (in.stream[k].agent == agent) states[n++] = in.stream[k].state;
          }
          governor->agent(agent).greedy_actions(states.data(), n, actions.data());
          greedy += n;
        }
      }
      greedy_ns.push_back(ns_between(t0, now_ns()) / static_cast<double>(greedy));
    }
    result.add("serve.encode_ns", median(encode_ns), "ns");
    result.add("serve.decode_ns", median(decode_ns), "ns");
    result.add("rl.greedy_ns", median(greedy_ns), "ns");
  }
}

}  // namespace ledger
