// SERVE — performance baseline of the policy-decision service. Phases:
//
//  1. Headline throughput: pipelined clients with client-side frame
//     batching (many Query frames per write) against the sharded server
//     over loopback UDS; reports decisions/sec and exact p50/p95/p99
//     chunk-round-trip latency, plus the in-process batched-argmax cost
//     (the kernel that builds the served action table on each load).
//  2. Scaling curve: 1/2/4/8 clients x {uds, tcp, shm} transports, same
//     pipelined load, one row each; the max-client cell per transport is
//     the saturation point whose p99 is reported.
//  3. Overload: a server whose service rate is pinned far below the
//     offered load (batch_process_delay) must shed with safe-default
//     responses — every request answered, zero connection drops.
//
// Emits BENCH_serve.json for CI artifact upload and perf-regression
// gating: `--check BASELINE.json [--check-tolerance X]` exits nonzero when
// headline throughput regresses more than X (default 0.30) below the
// baseline file's value.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_common.hpp"
#include "core/runfarm/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "rl/batch_argmax.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/shm_ring.hpp"
#include "util/table.hpp"

using namespace pmrl;
using Clock = std::chrono::steady_clock;

namespace {

struct ClientStats {
  std::vector<double> latencies_s;
  std::uint64_t responses = 0;
  std::uint64_t safe_defaults = 0;
  bool dropped = false;  ///< connection died mid-run
};

/// Closed-loop pipelined load with client-side frame batching: `chunk`
/// Query frames are encoded into one buffer and written with a single
/// send_raw (one syscall / ring reservation), keeping ~`depth` requests in
/// flight until `until`, then draining. The latency sample is the
/// round-trip of each chunk's first request — send-of-chunk to
/// receive-of-that-id — so it includes the queueing of its chunk peers
/// (honest pipelined latency, not an unloaded ping).
template <typename ClientT>
ClientStats run_pipelined_client(ClientT& client, std::size_t depth,
                                 std::size_t chunk, Clock::time_point until,
                                 std::uint64_t state_count,
                                 std::uint64_t state_offset) {
  ClientStats stats;
  try {
    std::unordered_map<std::uint64_t, Clock::time_point> samples;
    samples.reserve(64);
    std::string buf;
    std::uint64_t seq = state_offset;
    std::uint64_t id = 1;
    std::size_t inflight = 0;
    auto send_chunk = [&] {
      buf.clear();
      const auto now = Clock::now();
      for (std::size_t i = 0; i < chunk; ++i) {
        if (i == 0) samples.emplace(id, now);
        serve::append_query(buf, serve::QueryMsg{id++, 0, seq++ % state_count});
      }
      client.send_raw(buf.data(), buf.size());
      inflight += chunk;
    };
    auto recv_one = [&] {
      const auto msg = client.recv_response();
      --inflight;
      ++stats.responses;
      if (msg.flags & serve::kRespSafeDefault) ++stats.safe_defaults;
      const auto it = samples.find(msg.request_id);
      if (it != samples.end()) {
        stats.latencies_s.push_back(
            std::chrono::duration<double>(Clock::now() - it->second).count());
        samples.erase(it);
      }
    };
    while (inflight + chunk <= depth) send_chunk();
    while (Clock::now() < until) {
      for (std::size_t i = 0; i < chunk && inflight > 0; ++i) recv_one();
      send_chunk();
    }
    while (inflight > 0) recv_one();
  } catch (const serve::ClientError&) {
    stats.dropped = true;
  }
  return stats;
}

double percentile_exact(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

std::string bench_path(const char* phase, const char* suffix) {
  return "/tmp/pmrl_bench_serve_" + std::to_string(::getpid()) + "_" + phase +
         suffix;
}

struct RunResult {
  double decisions_per_sec = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t responses = 0;
  std::uint64_t safe_defaults = 0;
  bool drops = false;
};

RunResult summarize(std::vector<ClientStats>& per_client, double wall_s) {
  RunResult result;
  std::vector<double> latencies;
  for (auto& stats : per_client) {
    result.responses += stats.responses;
    result.safe_defaults += stats.safe_defaults;
    result.drops = result.drops || stats.dropped;
    latencies.insert(latencies.end(), stats.latencies_s.begin(),
                     stats.latencies_s.end());
  }
  std::sort(latencies.begin(), latencies.end());
  result.decisions_per_sec =
      wall_s > 0.0 ? static_cast<double>(result.responses) / wall_s : 0.0;
  result.p50_us = percentile_exact(latencies, 0.50) * 1e6;
  result.p95_us = percentile_exact(latencies, 0.95) * 1e6;
  result.p99_us = percentile_exact(latencies, 0.99) * 1e6;
  return result;
}

/// One load cell: a fresh server configured for `transport` ("uds", "tcp",
/// or "shm"), `clients` pipelined connections for `duration_s`.
RunResult run_cell(const std::string& transport, std::size_t clients,
                   std::size_t workers, std::size_t depth, std::size_t chunk,
                   double duration_s) {
  serve::ServerConfig config;
  config.workers = workers;
  if (transport == "uds") {
    config.uds_path = bench_path("cell", ".sock");
  } else if (transport == "tcp") {
    config.uds_path.clear();
    config.tcp_enable = true;
  } else {
    config.uds_path.clear();
    config.shm_path = bench_path("cell", ".shm");
    config.shm_lanes = clients + 1;
    config.shm_workers = std::min<std::size_t>(workers, clients);
  }
  serve::PolicyServer server(config);
  server.start();
  const auto state_count = static_cast<std::uint64_t>(
      server.governor().agent(0).state_count());
  const auto until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(duration_s));
  const auto wall0 = Clock::now();
  std::vector<ClientStats> per_client(clients);
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        try {
          if (transport == "shm") {
            serve::ShmClient client(config.shm_path);
            per_client[c] = run_pipelined_client(client, depth, chunk, until,
                                                 state_count, c * 37);
          } else if (transport == "tcp") {
            auto client =
                serve::Client::connect_tcp("127.0.0.1", server.tcp_port());
            per_client[c] = run_pipelined_client(client, depth, chunk, until,
                                                 state_count, c * 37);
          } else {
            auto client = serve::Client::connect_uds(config.uds_path);
            per_client[c] = run_pipelined_client(client, depth, chunk, until,
                                                 state_count, c * 37);
          }
        } catch (const serve::ClientError&) {
          per_client[c].dropped = true;
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - wall0).count();
  server.stop();
  return summarize(per_client, wall_s);
}

}  // namespace

int main(int argc, char** argv) {
  double duration_s = 3.0;
  std::string out_path = "BENCH_serve.json";
  std::string check_path;
  double check_tolerance = 0.30;
  std::size_t conns = 4;
  std::size_t depth = 256;
  std::size_t chunk = 32;
  std::size_t workers = 4;
  bool run_curve = true;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&](const char* flag, int len) -> const char* {
      if (std::strncmp(arg, flag, static_cast<std::size_t>(len)) == 0 &&
          arg[len] == '=') {
        return arg + len + 1;
      }
      if (std::strcmp(arg, flag) == 0 && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    if (const char* dur = value("--duration", 10)) {
      duration_s = std::atof(dur);
    } else if (const char* path = value("--out", 5)) {
      out_path = path;
    } else if (const char* baseline = value("--check", 7)) {
      check_path = baseline;
    } else if (const char* tol = value("--check-tolerance", 17)) {
      check_tolerance = std::atof(tol);
    } else if (const char* n_conns = value("--conns", 7)) {
      conns = static_cast<std::size_t>(std::atoi(n_conns));
    } else if (const char* n_depth = value("--depth", 7)) {
      depth = static_cast<std::size_t>(std::atoi(n_depth));
    } else if (const char* n_chunk = value("--chunk", 7)) {
      chunk = static_cast<std::size_t>(std::atoi(n_chunk));
    } else if (const char* n_workers = value("--workers", 9)) {
      workers = static_cast<std::size_t>(std::atoi(n_workers));
    } else if (std::strcmp(arg, "--no-curve") == 0) {
      run_curve = false;
    }
  }
  if (duration_s <= 0.0 || conns == 0 || depth == 0 || chunk == 0 ||
      workers == 0 || depth < chunk) {
    std::fprintf(stderr,
                 "--duration/--conns/--depth/--chunk/--workers need positive "
                 "values with depth >= chunk\n");
    return 2;
  }

  bench::print_banner("SERVE",
                      "policy-decision service throughput + scaling + "
                      "overload",
                      "serving baseline (BENCH_serve.json), not a paper "
                      "figure");
  const unsigned hw_threads = std::thread::hardware_concurrency();
  const std::size_t effective_jobs = core::runfarm::default_jobs();
  std::printf("hardware_concurrency %u, effective jobs %zu, simd %s\n\n",
              hw_threads, effective_jobs, rl::batch_argmax_backend());

  // ---- phase 1: headline throughput (loopback UDS) -----------------------
  const RunResult headline =
      run_cell("uds", conns, workers, depth, chunk, duration_s);

  // In-process batched argmax, the kernel that builds the service's action
  // table on every policy load.
  double direct_ns = 0.0;
  {
    serve::ServerConfig probe_config;
    probe_config.uds_path = bench_path("probe", ".sock");
    serve::PolicyServer probe(probe_config);
    const auto& agent = probe.governor().agent(0);
    const auto state_count =
        static_cast<std::uint64_t>(agent.state_count());
    constexpr std::size_t kCalls = 2'000'000;
    constexpr std::size_t kBatch = 32;
    std::vector<std::uint64_t> states(kBatch);
    std::vector<std::uint32_t> actions(kBatch);
    std::size_t sink = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kCalls; i += kBatch) {
      for (std::size_t j = 0; j < kBatch; ++j) {
        states[j] = (i + j * 7) % state_count;
      }
      agent.greedy_actions(states.data(), kBatch, actions.data());
      sink += actions[0];
    }
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - t0).count();
    direct_ns = elapsed / static_cast<double>(kCalls) * 1e9;
    if (sink == static_cast<std::size_t>(-1)) std::printf("?");  // keep sink
  }

  TextTable table({"metric", "value"});
  table.add_row({"decisions/sec",
                 TextTable::num(headline.decisions_per_sec, 0)});
  table.add_row({"p50 chunk latency [us]", TextTable::num(headline.p50_us, 1)});
  table.add_row({"p95 chunk latency [us]", TextTable::num(headline.p95_us, 1)});
  table.add_row({"p99 chunk latency [us]", TextTable::num(headline.p99_us, 1)});
  table.add_row({"batched argmax [ns/decision]", TextTable::num(direct_ns, 1)});
  table.print();
  const bool meets_100k = headline.decisions_per_sec >= 100'000.0;
  const bool meets_750k = headline.decisions_per_sec >= 750'000.0;
  std::printf("throughput targets over loopback UDS (%zu workers): "
              ">=100k/s %s, >=750k/s %s\n",
              workers, meets_100k ? "met" : "MISSED",
              meets_750k ? "met" : "missed");

  // ---- phase 2: scaling curve --------------------------------------------
  struct CurveRow {
    std::string transport;
    std::size_t clients;
    RunResult result;
  };
  std::vector<CurveRow> curve;
  if (run_curve) {
    const double cell_s = std::max(0.25, duration_s / 3.0);
    const std::size_t client_counts[] = {1, 2, 4, 8};
    std::printf("\nscaling curve (%.2f s per cell, %zu workers):\n", cell_s,
                workers);
    TextTable curve_table(
        {"transport", "clients", "decisions/sec", "p50 [us]", "p99 [us]"});
    for (const char* transport : {"uds", "tcp", "shm"}) {
      for (const std::size_t clients : client_counts) {
        CurveRow row{transport, clients,
                     run_cell(transport, clients, workers, depth, chunk,
                              cell_s)};
        curve_table.add_row(
            {row.transport, TextTable::num(static_cast<double>(clients), 0),
             TextTable::num(row.result.decisions_per_sec, 0),
             TextTable::num(row.result.p50_us, 1),
             TextTable::num(row.result.p99_us, 1)});
        curve.push_back(std::move(row));
      }
    }
    curve_table.print();
  }

  // ---- phase 3: overload shedding ----------------------------------------
  // Pin the service rate: one worker, small batches, 2 ms of forced work
  // per batch => capacity ~ batch_max / delay. The unpaced pipelined
  // clients offer far more; the contract under test is "every request
  // answered, degraded not dropped".
  serve::ServerConfig overload_config;
  overload_config.uds_path = bench_path("ov", ".sock");
  overload_config.workers = 1;
  overload_config.batch_max = 16;
  overload_config.queue_capacity = 64;
  overload_config.request_timeout = std::chrono::milliseconds(1000);
  overload_config.batch_process_delay = std::chrono::microseconds(2000);
  serve::PolicyServer overload_server(overload_config);
  overload_server.start();
  const auto overload_states = static_cast<std::uint64_t>(
      overload_server.governor().agent(0).state_count());
  const double overload_duration_s = std::min(duration_s, 2.0);
  const auto overload_until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(overload_duration_s));
  const auto overload_wall0 = Clock::now();
  std::vector<ClientStats> overload_clients(2);
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < overload_clients.size(); ++c) {
      threads.emplace_back([&, c] {
        try {
          auto client = serve::Client::connect_uds(overload_config.uds_path);
          overload_clients[c] = run_pipelined_client(
              client, depth, chunk, overload_until, overload_states, c * 41);
        } catch (const serve::ClientError&) {
          overload_clients[c].dropped = true;
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  const double overload_wall_s =
      std::chrono::duration<double>(Clock::now() - overload_wall0).count();
  overload_server.stop();
  const RunResult overload = summarize(overload_clients, overload_wall_s);
  const double capacity_per_sec =
      static_cast<double>(overload_config.batch_max) /
      (static_cast<double>(overload_config.batch_process_delay.count()) *
       1e-6);
  const double shed_fraction =
      overload.responses > 0
          ? static_cast<double>(overload.safe_defaults) /
                static_cast<double>(overload.responses)
          : 0.0;
  std::printf("\noverload: offered %.0f/s vs ~%.0f/s capacity, "
              "%.1f%% shed to safe-default, drops: %s\n",
              overload.decisions_per_sec, capacity_per_sec,
              100.0 * shed_fraction, overload.drops ? "YES (bug)" : "none");

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"serve\",\n");
  std::fprintf(out, "  \"duration_s\": %g,\n", duration_s);
  std::fprintf(out, "  \"hardware_concurrency\": %u,\n", hw_threads);
  std::fprintf(out, "  \"effective_jobs\": %zu,\n", effective_jobs);
  std::fprintf(out, "  \"simd_backend\": \"%s\",\n",
               rl::batch_argmax_backend());
  std::fprintf(out, "  \"workers\": %zu,\n", workers);
  std::fprintf(out, "  \"conns\": %zu,\n", conns);
  std::fprintf(out, "  \"depth\": %zu,\n", depth);
  std::fprintf(out, "  \"chunk\": %zu,\n", chunk);
  std::fprintf(out, "  \"throughput\": {\n");
  std::fprintf(out, "    \"decisions_per_sec\": %.1f,\n",
               headline.decisions_per_sec);
  std::fprintf(out, "    \"responses\": %llu,\n",
               static_cast<unsigned long long>(headline.responses));
  std::fprintf(out, "    \"p50_us\": %.2f,\n", headline.p50_us);
  std::fprintf(out, "    \"p95_us\": %.2f,\n", headline.p95_us);
  std::fprintf(out, "    \"p99_us\": %.2f,\n", headline.p99_us);
  std::fprintf(out, "    \"connection_drops\": %s,\n",
               headline.drops ? "true" : "false");
  std::fprintf(out, "    \"meets_100k_target\": %s,\n",
               meets_100k ? "true" : "false");
  std::fprintf(out, "    \"meets_750k_target\": %s,\n",
               meets_750k ? "true" : "false");
  std::fprintf(out, "    \"direct_argmax_ns\": %.2f\n", direct_ns);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"scaling\": [");
  for (std::size_t i = 0; i < curve.size(); ++i) {
    const auto& row = curve[i];
    std::fprintf(out,
                 "%s\n    {\"transport\": \"%s\", \"clients\": %zu, "
                 "\"decisions_per_sec\": %.1f, \"p50_us\": %.2f, "
                 "\"p95_us\": %.2f, \"p99_us\": %.2f, "
                 "\"connection_drops\": %s}",
                 i == 0 ? "" : ",", row.transport.c_str(), row.clients,
                 row.result.decisions_per_sec, row.result.p50_us,
                 row.result.p95_us, row.result.p99_us,
                 row.result.drops ? "true" : "false");
  }
  std::fprintf(out, "\n  ],\n");
  std::fprintf(out, "  \"saturation\": {");
  {
    bool first = true;
    for (const char* transport : {"uds", "tcp", "shm"}) {
      const CurveRow* best = nullptr;
      for (const auto& row : curve) {
        if (row.transport == transport &&
            (!best || row.clients > best->clients)) {
          best = &row;
        }
      }
      if (!best) continue;
      std::fprintf(out,
                   "%s\n    \"%s\": {\"clients\": %zu, "
                   "\"decisions_per_sec\": %.1f, \"p99_us\": %.2f}",
                   first ? "" : ",", transport, best->clients,
                   best->result.decisions_per_sec, best->result.p99_us);
      first = false;
    }
  }
  std::fprintf(out, "\n  },\n");
  std::fprintf(out, "  \"overload\": {\n");
  std::fprintf(out, "    \"offered_per_sec\": %.1f,\n",
               overload.decisions_per_sec);
  std::fprintf(out, "    \"capacity_per_sec\": %.1f,\n", capacity_per_sec);
  std::fprintf(out, "    \"responses\": %llu,\n",
               static_cast<unsigned long long>(overload.responses));
  std::fprintf(out, "    \"safe_default_responses\": %llu,\n",
               static_cast<unsigned long long>(overload.safe_defaults));
  std::fprintf(out, "    \"shed_fraction\": %.4f,\n", shed_fraction);
  std::fprintf(out, "    \"connection_drops\": %s\n",
               overload.drops ? "true" : "false");
  std::fprintf(out, "  }\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  bool curve_drops = false;
  for (const auto& row : curve) curve_drops = curve_drops || row.result.drops;
  int exit_code = (headline.drops || overload.drops || curve_drops) ? 1 : 0;

  // ---- optional perf-regression gate (shared with bench_perf) ------------
  if (!check_path.empty()) {
    const int rc = bench::check_against_baseline(
        check_path, "decisions_per_sec", headline.decisions_per_sec,
        check_tolerance);
    if (rc == 2) return 2;
    if (rc != 0) exit_code = rc;
  }
  return exit_code;
}
