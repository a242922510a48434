// pmrl_cli — command-line driver over the library, for using the system
// without writing C++:
//
//   pmrl_cli list
//       Registered governors and available scenarios.
//   pmrl_cli train [--episodes N] [--seed S] [--actors N] [--jobs N]
//                  [--merge-seed S] [--out policy.pmrl] [--registry DIR]
//       Train the RL policy across the scenario rotation with N parallel
//       actors on the run farm, merge the per-actor Q-table deltas with the
//       seeded order-independent reducer, and checkpoint the merged policy.
//       The merged table is bit-identical at any --jobs count and any actor
//       completion order. --registry registers the result as a versioned
//       candidate (with lineage metadata) instead of just a loose file.
//   pmrl_cli eval <governor|policy.pmrl> [--scenario NAME] [--seed S]
//                 [--duration SEC] [--fault-intensity X] [--fault-seed S]
//                 [--watchdog] [--jobs N] [--trace PATH]
//                 [--trace-format csv|jsonl] [--metrics PATH]
//       Evaluate a baseline governor by name, or a trained RL checkpoint,
//       on one scenario (or all six when omitted). A nonzero fault
//       intensity runs each scenario under its fault profile (telemetry
//       degradation + thermal emergencies); --watchdog wraps an RL policy
//       in the safe-governor fallback machinery. A missing, truncated or
//       corrupt checkpoint (CRC32 + strict parsing) exits 1 without
//       evaluating anything.
//       --trace records every structured event (epochs, decisions, faults,
//       watchdog trips) to PATH; traces are deterministic and independent
//       of --jobs. --metrics dumps the metrics registry as JSON to PATH
//       ('-' for stdout).
//   pmrl_cli latency [--invocations N]
//       Run the HW-vs-SW decision-latency comparison.
//   pmrl_cli serve [--policy policy.pmrl] [--registry DIR] [--uds PATH]
//                  [--tcp-port N] [--shm PATH [--shm-lanes N]] [--workers N]
//                  [--batch N] [--queue-capacity N] [--metrics PATH|-]
//                  [--canary PCT] [--candidate VERSION]
//                  [--canary-threshold X] [--canary-window N]
//                  [--canary-settle N]
//       Expose a trained policy as a decision service over a Unix-domain
//       socket, TCP, and/or a shared-memory segment (for co-located
//       clients). SIGHUP hot-reloads the checkpoint (transactional: a
//       corrupt file keeps the old policy); SIGINT/SIGTERM shut down.
//       With --registry, the incumbent loads from the promoted CURRENT
//       version and --canary PCT stages a candidate (--candidate VERSION,
//       else the latest candidate) serving PCT%% of connections; client
//       outcome reports drive automatic promote/rollback (the canary
//       evaluator compares per-arm energy-per-QoS over settle windows).
//       SIGHUP also re-stages the next candidate after a verdict.
//   pmrl_cli query <state> [--agent N]
//                  (--uds PATH | --tcp-port N [--host H] | --shm PATH)
//       Ask a running server for the greedy action of one quantized state.
//   pmrl_cli policy <list|show V|promote V|rollback V> --registry DIR
//       Inspect and drive the policy lifecycle: list versions with lineage
//       and status, show one entry, promote a version to CURRENT, or mark
//       a version rolled back.
//   pmrl_cli fuzz [--seed S] [--runs N] [--jobs N] [--governor NAME]
//                 [--max-energy J] [--max-violation-rate X]
//                 [--max-peak-temp C] [--shrink] [--corpus-dir DIR]
//                 [--metrics PATH|-]
//       Generate and run N randomized scenarios from seeds [S, S+N) under
//       the RL policy + watchdog (or any registered governor), checking the
//       engine/watchdog/policy invariants after every run. The batch is
//       bit-identical at any --jobs count. --shrink delta-debugs each
//       failing scenario to a minimal reproducer; --corpus-dir writes the
//       minimized .scenario files there (with provenance comments) for
//       check-in under tests/data/scenarios/. Exits 1 when any scenario
//       fails, so CI sweeps turn findings into red builds + artifacts.
//   pmrl_cli fleet [--devices N] [--seed S] [--duration SEC] [--jobs N]
//                  [--block N] [--trace PATH] [--trace-format csv|jsonl]
//                  [--metrics PATH|-]
//       Simulate a fleet of N seeded heterogeneous devices with the SoA
//       batch engine and print the aggregate energy/QoS summary. Results
//       are bit-identical at any --jobs count. --trace writes the
//       fleet-wide epoch series (time, energy, served, demand, violations)
//       as CSV or JSONL; --metrics dumps the fleet.* metrics registry.
//   pmrl_cli replay <file> [--format scenario|jsonl|util] [--governor NAME]
//       Re-run a recorded artifact as a first-class scenario: a minimized
//       .scenario corpus entry (exits 1 if its invariants still fail), a
//       structured --trace jsonl recording, or an external utilization
//       trace ("time util0 [util1 ...]" rows; percent scales are
//       auto-normalized). Malformed inputs are rejected with the offending
//       line number.
//
// Unknown flags or subcommands, and numbers that are not plain non-negative
// decimals in range for their flag, print usage and exit 2. --version
// prints the library version and the subcommand roster.

#include <atomic>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/engine.hpp"
#include "core/fuzz_driver.hpp"
#include "core/metrics.hpp"
#include "core/runfarm/runfarm.hpp"
#include "fault/fault_injector.hpp"
#include "fleet/fleet_engine.hpp"
#include "fault/scenario_faults.hpp"
#include "governors/registry.hpp"
#include "hw/latency.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "policy/registry.hpp"
#include "rl/policy_io.hpp"
#include "rl/trainer.hpp"
#include "rl/watchdog.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/shm_ring.hpp"
#include "train/distributed_trainer.hpp"
#include "util/atomic_write.hpp"
#include "util/table.hpp"
#include "workload/fuzz.hpp"
#include "workload/replay.hpp"
#include "workload/scenarios.hpp"

#ifndef PMRL_VERSION
#define PMRL_VERSION "dev"
#endif

using namespace pmrl;

namespace {

/// Command-line misuse (unknown flag/command, bad value): usage + exit 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The one parser for every numeric flag value and positional: a leading
/// digit, the whole token consumed, the value in range for T, and finite
/// for floating point. So "-1", "12abc", "1x", "inf" and out-of-range
/// values are usage errors instead of wrapped or truncated numbers.
template <typename T>
T parse_number(const std::string& what, const std::string& text) {
  T value{};
  bool ok = !text.empty() && std::isdigit(static_cast<unsigned char>(text[0]));
  if (ok) {
    const char* const end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    ok = ec == std::errc{} && ptr == end;
  }
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) throw UsageError("invalid number '" + text + "' for " + what);
  return value;
}

struct Args {
  std::vector<std::string> positional;
  std::size_t episodes = 60;
  std::uint64_t seed = 42;
  double duration_s = 60.0;
  std::string out = "policy.pmrl";
  std::optional<std::string> scenario;
  double fault_intensity = 0.0;
  std::uint64_t fault_seed = 777;
  bool watchdog = false;
  /// Worker threads for farmable work (0 = PMRL_JOBS env, else hardware
  /// concurrency; 1 = serial).
  std::size_t jobs = 0;
  /// Structured trace output path (empty = tracing disabled).
  std::optional<std::string> trace_path;
  std::string trace_format = "csv";
  /// Metrics JSON output path ('-' = stdout; empty = metrics disabled).
  std::optional<std::string> metrics_path;
  // serve / query
  std::string uds;
  std::string host = "127.0.0.1";
  int tcp_port = -1;  // -1 = TCP listener disabled
  std::string shm;   // shared-memory segment path (empty = disabled)
  std::size_t shm_lanes = 4;
  std::size_t workers = 4;
  std::size_t batch = 32;
  std::size_t queue_capacity = 1024;
  std::uint32_t agent = 0;
  std::string policy_path;
  bool show_version = false;
  // train / policy lifecycle
  std::size_t actors = 4;
  std::uint64_t merge_seed = 1;
  std::string registry;
  double canary_pct = 0.0;
  std::uint64_t candidate = 0;  // 0 = latest candidate in the registry
  double canary_threshold = 0.05;
  std::size_t canary_window = 32;
  std::size_t canary_settle = 2;
  // fuzz / replay
  std::size_t runs = 64;
  std::string governor = "rl";
  double max_energy_j = std::numeric_limits<double>::infinity();
  double max_violation_rate = 1.0;
  double max_peak_temp_c = std::numeric_limits<double>::infinity();
  bool shrink = false;
  std::optional<std::string> corpus_dir;
  /// Replay input format (empty = infer from the file extension).
  std::string format;
  // fleet
  std::size_t devices = 100000;
  std::size_t block = 4096;
  double budget_w = 0.0;  // global cap, watts (0 = unbudgeted)
  std::string budget_policy = "demand";
  std::size_t budget_groups = 8;
  double budget_floor = 0.05;
  std::vector<budget::CapStep> budget_steps;
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw UsageError("missing value for " + arg);
      return argv[++i];
    };
    auto parse_into = [&](auto& field) {
      using T = std::remove_reference_t<decltype(field)>;
      field = parse_number<T>(arg, next());
    };
    if (arg == "--episodes") {
      parse_into(args.episodes);
    } else if (arg == "--seed") {
      parse_into(args.seed);
    } else if (arg == "--duration") {
      parse_into(args.duration_s);
      if (args.duration_s <= 0.0) throw UsageError("--duration must be > 0");
    } else if (arg == "--out") {
      args.out = next();
    } else if (arg == "--scenario") {
      args.scenario = next();
    } else if (arg == "--fault-intensity") {
      parse_into(args.fault_intensity);
    } else if (arg == "--fault-seed") {
      parse_into(args.fault_seed);
    } else if (arg == "--watchdog") {
      args.watchdog = true;
    } else if (arg == "--jobs") {
      parse_into(args.jobs);
      if (args.jobs == 0) throw UsageError("--jobs must be >= 1");
    } else if (arg == "--trace") {
      args.trace_path = next();
    } else if (arg == "--trace-format") {
      args.trace_format = next();
      if (args.trace_format != "csv" && args.trace_format != "jsonl") {
        throw UsageError("--trace-format must be csv or jsonl");
      }
    } else if (arg == "--metrics") {
      args.metrics_path = next();
    } else if (arg == "--uds") {
      args.uds = next();
    } else if (arg == "--host") {
      args.host = next();
    } else if (arg == "--tcp-port") {
      parse_into(args.tcp_port);
      if (args.tcp_port < 0 || args.tcp_port > 65535) {
        throw UsageError("--tcp-port must be in [0, 65535]");
      }
    } else if (arg == "--shm") {
      args.shm = next();
    } else if (arg == "--shm-lanes") {
      parse_into(args.shm_lanes);
      if (args.shm_lanes == 0) throw UsageError("--shm-lanes must be >= 1");
    } else if (arg == "--workers") {
      parse_into(args.workers);
      if (args.workers == 0) throw UsageError("--workers must be >= 1");
    } else if (arg == "--batch") {
      parse_into(args.batch);
      if (args.batch == 0) throw UsageError("--batch must be >= 1");
    } else if (arg == "--queue-capacity") {
      parse_into(args.queue_capacity);
      if (args.queue_capacity == 0) {
        throw UsageError("--queue-capacity must be >= 1");
      }
    } else if (arg == "--agent") {
      parse_into(args.agent);
    } else if (arg == "--policy") {
      args.policy_path = next();
    } else if (arg == "--actors") {
      parse_into(args.actors);
      if (args.actors == 0) throw UsageError("--actors must be >= 1");
    } else if (arg == "--merge-seed") {
      parse_into(args.merge_seed);
    } else if (arg == "--registry") {
      args.registry = next();
    } else if (arg == "--canary") {
      parse_into(args.canary_pct);
      if (args.canary_pct < 0.0 || args.canary_pct > 100.0) {
        throw UsageError("--canary must be in [0, 100]");
      }
    } else if (arg == "--candidate") {
      parse_into(args.candidate);
    } else if (arg == "--canary-threshold") {
      parse_into(args.canary_threshold);
      if (args.canary_threshold < 0.0) {
        throw UsageError("--canary-threshold must be >= 0");
      }
    } else if (arg == "--canary-window") {
      parse_into(args.canary_window);
      if (args.canary_window == 0) {
        throw UsageError("--canary-window must be >= 1");
      }
    } else if (arg == "--canary-settle") {
      parse_into(args.canary_settle);
      if (args.canary_settle == 0) {
        throw UsageError("--canary-settle must be >= 1");
      }
    } else if (arg == "--runs") {
      parse_into(args.runs);
      if (args.runs == 0) throw UsageError("--runs must be >= 1");
    } else if (arg == "--governor") {
      args.governor = next();
    } else if (arg == "--max-energy") {
      parse_into(args.max_energy_j);
    } else if (arg == "--max-violation-rate") {
      parse_into(args.max_violation_rate);
    } else if (arg == "--max-peak-temp") {
      parse_into(args.max_peak_temp_c);
    } else if (arg == "--shrink") {
      args.shrink = true;
    } else if (arg == "--corpus-dir") {
      args.corpus_dir = next();
      args.shrink = true;  // writing the corpus implies minimizing first
    } else if (arg == "--devices") {
      parse_into(args.devices);
      if (args.devices == 0) throw UsageError("--devices must be >= 1");
    } else if (arg == "--block") {
      parse_into(args.block);
      if (args.block == 0) throw UsageError("--block must be >= 1");
    } else if (arg == "--budget") {
      parse_into(args.budget_w);
      if (!(args.budget_w > 0.0)) throw UsageError("--budget must be > 0 W");
    } else if (arg == "--budget-policy") {
      args.budget_policy = next();
      if (!budget::is_policy_name(args.budget_policy)) {
        throw UsageError("--budget-policy must be uniform, demand, or rl");
      }
    } else if (arg == "--budget-groups") {
      parse_into(args.budget_groups);
      if (args.budget_groups == 0) {
        throw UsageError("--budget-groups must be >= 1");
      }
    } else if (arg == "--budget-floor") {
      parse_into(args.budget_floor);
      if (args.budget_floor < 0.0) {
        throw UsageError("--budget-floor must be >= 0");
      }
    } else if (arg == "--budget-step") {
      const std::string v = next();
      const auto colon = v.find(':');
      if (colon == std::string::npos || colon == 0 || colon + 1 >= v.size()) {
        throw UsageError("--budget-step expects TIME:WATTS");
      }
      budget::CapStep step;
      step.time_s = parse_number<double>(arg, v.substr(0, colon));
      step.cap_w = parse_number<double>(arg, v.substr(colon + 1));
      if (step.time_s < 0.0 || !(step.cap_w > 0.0)) {
        throw UsageError("--budget-step expects TIME >= 0 and WATTS > 0");
      }
      args.budget_steps.push_back(step);
    } else if (arg == "--format") {
      args.format = next();
      if (args.format != "scenario" && args.format != "jsonl" &&
          args.format != "util") {
        throw UsageError("--format must be scenario, jsonl, or util");
      }
    } else if (arg == "--version") {
      args.show_version = true;
    } else if (arg == "--help" || arg == "-h") {
      args.positional.insert(args.positional.begin(), "help");
    } else if (arg.rfind("--", 0) == 0) {
      throw UsageError("unknown flag '" + arg + "'");
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

std::optional<workload::ScenarioKind> kind_by_name(const std::string& name) {
  for (const auto kind : workload::all_scenario_kinds()) {
    if (name == workload::scenario_kind_name(kind)) return kind;
  }
  return std::nullopt;
}

int cmd_list() {
  std::printf("governors:\n");
  for (const auto& name : governors::registered_governor_names()) {
    std::printf("  %s\n", name.c_str());
  }
  std::printf("scenarios:\n");
  for (const auto kind : workload::all_scenario_kinds()) {
    std::printf("  %s\n", workload::scenario_kind_name(kind));
  }
  return 0;
}

int cmd_train(const Args& args) {
  core::runfarm::RunFarm farm(soc::default_mobile_soc_config(),
                              core::EngineConfig{}, args.jobs);
  rl::RlGovernorConfig policy_config;
  policy_config.learning.seed = args.seed;
  const std::size_t clusters = farm.soc_config().clusters.size();

  train::DistributedTrainerConfig config;
  config.schedule.episodes = args.episodes;
  config.schedule.workload_seed = args.seed;
  config.actors = args.actors;
  config.merge_seed = args.merge_seed;
  train::DistributedTrainer trainer(farm, policy_config, clusters, config);
  // Read the registry's CURRENT pointer (the new entry's parent) before
  // training: a corrupt pointer stops the command instead of recording v0.
  std::optional<policy::PolicyRegistry> registry;
  std::uint64_t parent_version = 0;
  if (!args.registry.empty()) {
    registry.emplace(args.registry);
    parent_version = registry->current().value_or(0);
  }

  std::printf(
      "training %zu episodes across %zu actor(s) "
      "(seed %llu, merge seed %llu, %zu job(s))...\n",
      args.episodes, trainer.config().actors,
      static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(args.merge_seed), farm.jobs());
  rl::RlGovernor merged(policy_config, clusters);
  const auto result = trainer.train(merged);
  if (!result.curve.empty()) {
    const auto& last = result.curve.back();
    std::printf("final episode: %s, E/QoS %.5f J, violations %.2f%%\n",
                last.scenario.c_str(), last.energy_per_qos,
                100.0 * last.violation_rate);
  }

  if (registry) {
    policy::PolicyMeta meta;
    meta.parent_version = parent_version;
    meta.train_seed = args.seed;
    meta.merge_seed = args.merge_seed;
    meta.episodes = args.episodes;
    meta.actors = result.actors;
    const std::uint64_t version = registry->add(merged, meta);
    std::printf("registered candidate v%llu in %s (parent v%llu)\n",
                static_cast<unsigned long long>(version),
                args.registry.c_str(),
                static_cast<unsigned long long>(meta.parent_version));
  }

  std::ostringstream checkpoint;
  rl::save_policy(merged, checkpoint);
  util::atomic_write(args.out, checkpoint.str());
  std::printf("checkpoint written to %s\n", args.out.c_str());
  return 0;
}

int cmd_policy(const Args& args) {
  if (args.positional.size() < 2) {
    throw UsageError("policy needs a verb: list, show, promote, rollback");
  }
  if (args.registry.empty()) throw UsageError("policy needs --registry DIR");
  policy::PolicyRegistry registry(args.registry);
  const std::string& verb = args.positional[1];
  const auto version_arg = [&]() -> std::uint64_t {
    if (args.positional.size() < 3) {
      throw UsageError("policy " + verb + " needs a version number");
    }
    return parse_number<std::uint64_t>("policy " + verb, args.positional[2]);
  };

  if (verb == "list") {
    // A corrupt CURRENT still lists the entries (to pick one to promote),
    // then fails the command.
    std::optional<std::uint64_t> current;
    std::string corrupt;
    try {
      current = registry.current();
    } catch (const policy::CorruptCurrentError& ex) {
      corrupt = ex.what();
    }
    TextTable table({"version", "status", "parent", "episodes", "actors",
                     "train seed", ""});
    for (const auto& meta : registry.list()) {
      table.add_row({std::to_string(meta.version),
                     policy_status_name(meta.status),
                     meta.parent_version ? std::to_string(meta.parent_version)
                                         : "-",
                     std::to_string(meta.episodes),
                     std::to_string(meta.actors),
                     std::to_string(meta.train_seed),
                     current && *current == meta.version ? "<- CURRENT" : ""});
    }
    table.print();
    if (!corrupt.empty()) {
      std::fprintf(stderr, "error: %s\n", corrupt.c_str());
      return 1;
    }
    return 0;
  }
  if (verb == "show") {
    const std::uint64_t version = version_arg();
    const auto meta = registry.meta(version);
    if (!meta) {
      std::fprintf(stderr, "no such version %llu in %s\n",
                   static_cast<unsigned long long>(version),
                   args.registry.c_str());
      return 1;
    }
    std::printf("version:    %llu\n",
                static_cast<unsigned long long>(meta->version));
    std::printf("status:     %s\n", policy_status_name(meta->status));
    std::printf("parent:     %llu\n",
                static_cast<unsigned long long>(meta->parent_version));
    std::printf("train seed: %llu\n",
                static_cast<unsigned long long>(meta->train_seed));
    std::printf("merge seed: %llu\n",
                static_cast<unsigned long long>(meta->merge_seed));
    std::printf("episodes:   %llu\n",
                static_cast<unsigned long long>(meta->episodes));
    std::printf("actors:     %llu\n",
                static_cast<unsigned long long>(meta->actors));
    if (!meta->note.empty()) std::printf("note:       %s\n",
                                         meta->note.c_str());
    std::printf("checkpoint: %s\n",
                registry.policy_path(version).string().c_str());
    return 0;
  }
  if (verb == "promote") {
    const std::uint64_t version = version_arg();
    registry.promote(version);
    std::printf("promoted v%llu (CURRENT)\n",
                static_cast<unsigned long long>(version));
    return 0;
  }
  if (verb == "rollback") {
    const std::uint64_t version = version_arg();
    registry.rollback(version);
    std::printf("rolled back v%llu\n",
                static_cast<unsigned long long>(version));
    return 0;
  }
  throw UsageError("unknown policy verb '" + verb + "'");
}

/// Writes `events` to `path` in the requested format; returns false (with
/// a message) when the file cannot be opened.
bool write_trace_file(const std::string& path, const std::string& format,
                      const std::vector<obs::TraceEvent>& events) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write trace to %s\n", path.c_str());
    return false;
  }
  if (format == "jsonl") {
    obs::write_jsonl_trace(out, events);
  } else {
    obs::write_csv_trace(out, events, obs::trace_cluster_count(events));
  }
  return true;
}

bool write_metrics(const std::string& path,
                   const obs::MetricsRegistry& metrics) {
  if (path == "-") {
    std::printf("%s\n", metrics.to_json().c_str());
    return true;
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write metrics to %s\n", path.c_str());
    return false;
  }
  metrics.write_json(out);
  out << "\n";
  return true;
}

int cmd_eval(const Args& args) {
  if (args.positional.size() < 2) {
    throw UsageError("eval needs a governor name or checkpoint path");
  }
  const std::string& target = args.positional[1];

  core::EngineConfig engine_config;
  engine_config.duration_s = args.duration_s;
  core::SimEngine engine(soc::default_mobile_soc_config(), engine_config);

  // Resolve the policy: a registered governor name, else an RL checkpoint.
  governors::GovernorPtr baseline;
  std::optional<rl::RlGovernor> rl_policy;
  std::optional<rl::PolicyWatchdog> watchdog;
  governors::Governor* policy = nullptr;
  if (governors::has_governor(target)) {
    baseline = governors::make_governor(target);
    policy = baseline.get();
  } else {
    std::ifstream in(target);
    if (!in) {
      std::fprintf(stderr, "no governor or readable checkpoint '%s'\n",
                   target.c_str());
      return 1;
    }
    rl_policy.emplace(rl::RlGovernorConfig{},
                      engine.soc_config().clusters.size());
    std::string load_error;
    if (!rl::try_load_policy(*rl_policy, in, &load_error)) {
      std::fprintf(stderr, "checkpoint '%s' rejected: %s\n", target.c_str(),
                   load_error.c_str());
      return 1;
    }
    std::printf("loaded RL checkpoint %s\n", target.c_str());
    policy = &*rl_policy;
  }
  if (args.watchdog) {
    if (!rl_policy) {
      std::fprintf(stderr, "--watchdog requires an RL checkpoint target\n");
      return 1;
    }
    watchdog.emplace(*rl_policy, governors::make_governor("conservative"));
    policy = &*watchdog;
  }

  std::vector<workload::ScenarioKind> kinds;
  if (args.scenario) {
    const auto kind = kind_by_name(*args.scenario);
    if (!kind) {
      std::fprintf(stderr, "unknown scenario '%s'\n",
                   args.scenario->c_str());
      return 1;
    }
    kinds.push_back(*kind);
  } else {
    kinds = workload::all_scenario_kinds();
  }

  // Observability: one metrics registry for the whole eval (atomic
  // instruments aggregate across farm threads); tracing uses one
  // VectorTraceSink per scenario so the farmed trace, concatenated in
  // scenario order, is byte-identical to the serial one.
  obs::MetricsRegistry metrics;
  obs::MetricsRegistry* metrics_ptr =
      args.metrics_path ? &metrics : nullptr;
  const bool tracing = args.trace_path.has_value();
  std::vector<std::unique_ptr<obs::VectorTraceSink>> sinks;
  if (tracing) {
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      sinks.push_back(std::make_unique<obs::VectorTraceSink>());
    }
  }

  std::vector<core::RunResult> runs;
  if (baseline && !args.watchdog) {
    // Baseline governors are stateless across runs, so each scenario is an
    // independent farm task: task-local engine, fresh governor instance,
    // and (when faults are on) a task-local injector. Results are
    // bit-identical to the serial loop at any --jobs count.
    core::runfarm::RunFarm farm(soc::default_mobile_soc_config(),
                                engine_config, args.jobs);
    farm.set_metrics(metrics_ptr);
    std::vector<std::function<core::RunResult()>> tasks;
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      const auto kind = kinds[i];
      obs::VectorTraceSink* sink = tracing ? sinks[i].get() : nullptr;
      tasks.push_back([&farm, &args, &target, kind, sink, metrics_ptr] {
        core::SimEngine run_engine(farm.soc_config(), farm.engine_config());
        run_engine.set_trace_sink(sink);
        run_engine.set_metrics(metrics_ptr);
        std::optional<fault::FaultInjector> injector;
        if (args.fault_intensity > 0.0) {
          injector.emplace(fault::scenario_fault_profile(
              kind, args.fault_intensity,
              args.fault_seed + static_cast<std::uint64_t>(kind)));
          injector->set_trace_sink(sink);
          injector->set_metrics(metrics_ptr);
          run_engine.set_fault_injector(&*injector);
        }
        auto governor = governors::make_governor(target);
        auto scenario = workload::make_scenario(kind, args.seed);
        return run_engine.run(*scenario, *governor);
      });
    }
    runs = farm.map<core::RunResult>(tasks);
  } else {
    // An RL checkpoint (or its watchdog wrapper) carries learned state
    // across runs, so its scenarios stay serial on the shared instance.
    engine.set_metrics(metrics_ptr);
    if (rl_policy) rl_policy->set_metrics(metrics_ptr);
    if (watchdog) watchdog->set_metrics(metrics_ptr);
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      const auto kind = kinds[i];
      obs::VectorTraceSink* sink = tracing ? sinks[i].get() : nullptr;
      engine.set_trace_sink(sink);
      if (rl_policy) rl_policy->set_trace_sink(sink);
      if (watchdog) watchdog->set_trace_sink(sink);
      std::optional<fault::FaultInjector> injector;
      if (args.fault_intensity > 0.0) {
        injector.emplace(fault::scenario_fault_profile(
            kind, args.fault_intensity,
            args.fault_seed + static_cast<std::uint64_t>(kind)));
        injector->set_trace_sink(sink);
        injector->set_metrics(metrics_ptr);
        engine.set_fault_injector(&*injector);
      }
      auto scenario = workload::make_scenario(kind, args.seed);
      runs.push_back(engine.run(*scenario, *policy));
      engine.set_fault_injector(nullptr);
    }
    engine.set_trace_sink(nullptr);
  }

  if (tracing) {
    std::vector<obs::TraceEvent> events;
    for (auto& sink : sinks) {
      auto part = sink->take();
      events.insert(events.end(), std::make_move_iterator(part.begin()),
                    std::make_move_iterator(part.end()));
    }
    if (!write_trace_file(*args.trace_path, args.trace_format, events)) {
      return 1;
    }
    std::printf("trace: %zu events -> %s (%s)\n", events.size(),
                args.trace_path->c_str(), args.trace_format.c_str());
  }
  if (args.metrics_path && !write_metrics(*args.metrics_path, metrics)) {
    return 1;
  }

  TextTable table({"scenario", "energy [J]", "E/QoS [J]", "viol rate",
                   "f_little [MHz]", "f_big [MHz]"});
  for (const auto& run : runs) {
    table.add_row({run.scenario, TextTable::num(run.energy_j, 1),
                   TextTable::num(run.energy_per_qos, 5),
                   TextTable::percent(run.violation_rate),
                   TextTable::num(run.mean_freq_hz.front() / 1e6, 0),
                   TextTable::num(run.mean_freq_hz.back() / 1e6, 0)});
  }
  std::printf("policy: %s\n", policy->name().c_str());
  if (args.fault_intensity > 0.0) {
    std::printf("fault intensity: %.2f (seed %llu)\n", args.fault_intensity,
                static_cast<unsigned long long>(args.fault_seed));
  }
  table.print();
  if (watchdog) {
    std::printf(
        "watchdog: %zu engagement(s), %zu/%zu epochs on fallback\n",
        watchdog->engagements(), watchdog->fallback_epochs(),
        watchdog->total_epochs());
  }
  return 0;
}

int cmd_latency(const Args& args) {
  const std::size_t invocations =
      args.positional.size() > 1
          ? parse_number<std::size_t>("latency", args.positional[1])
          : 10000;
  hw::LatencyExperimentConfig config;
  const auto stream = hw::synthetic_stream(1024, invocations, args.seed);
  const auto result = hw::run_latency_experiment(config, 1024, 9, stream);
  std::printf("software  %.3f us mean\n", result.sw_latency_s.mean() * 1e6);
  std::printf("hw e2e    %.3f us mean  (%.2fx)\n",
              result.hw_end_to_end_s.mean() * 1e6,
              result.mean_speedup_end_to_end());
  std::printf("hw raw    %.3f us mean  (%.2fx)\n",
              result.hw_raw_s.mean() * 1e6, result.mean_speedup_raw());
  return 0;
}

// Signal flags for the serve loop. Plain handlers may only touch
// lock-free atomics; the main loop polls them.
std::atomic<bool> g_serve_stop{false};
std::atomic<bool> g_serve_reload{false};

void serve_signal_handler(int sig) {
  if (sig == SIGHUP) {
    g_serve_reload.store(true);
  } else {
    g_serve_stop.store(true);
  }
}

int cmd_serve(const Args& args) {
  if (args.uds.empty() && args.tcp_port < 0 && args.shm.empty()) {
    throw UsageError("serve needs --uds PATH, --tcp-port N, and/or --shm PATH");
  }
  serve::ServerConfig config;
  config.uds_path = args.uds;
  config.tcp_enable = args.tcp_port >= 0;
  config.tcp_port =
      static_cast<std::uint16_t>(args.tcp_port >= 0 ? args.tcp_port : 0);
  config.shm_path = args.shm;
  config.shm_lanes = args.shm_lanes;
  config.workers = args.workers;
  config.batch_max = args.batch;
  config.queue_capacity = args.queue_capacity;
  config.policy_path = args.policy_path;
  config.cluster_count = soc::default_mobile_soc_config().clusters.size();
  config.registry_dir = args.registry;
  config.candidate_version = args.candidate;
  config.rollout.canary_pct = args.canary_pct;
  config.rollout.regression_threshold = args.canary_threshold;
  config.rollout.window_reports = args.canary_window;
  config.rollout.settle_windows = args.canary_settle;

  obs::MetricsRegistry metrics;
  serve::PolicyServer server(config);
  if (args.metrics_path) server.set_metrics(&metrics);
  server.start();
  if (!config.uds_path.empty()) {
    std::printf("listening on uds %s\n", config.uds_path.c_str());
  }
  if (config.tcp_enable) {
    std::printf("listening on tcp %s:%d\n", args.host.c_str(),
                server.tcp_port());
  }
  if (!config.shm_path.empty()) {
    std::printf("listening on shm %s (%zu lanes)\n", config.shm_path.c_str(),
                config.shm_lanes);
  }
  if (!args.policy_path.empty()) {
    std::printf("policy checkpoint: %s (SIGHUP reloads)\n",
                args.policy_path.c_str());
  }
  if (!args.registry.empty()) {
    std::printf("policy registry: %s\n", args.registry.c_str());
  }
  if (server.candidate_active()) {
    std::printf("canary: v%llu serving %.1f%% of connections\n",
                static_cast<unsigned long long>(server.candidate_version()),
                args.canary_pct);
  }

  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  std::signal(SIGHUP, serve_signal_handler);
  while (!g_serve_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (g_serve_reload.exchange(false)) {
      std::string error;
      if (server.request_reload(&error)) {
        std::printf("policy reloaded%s%s\n",
                    args.policy_path.empty() ? "" : " from ",
                    args.policy_path.c_str());
        if (server.candidate_active()) {
          std::printf("canary: v%llu staged\n",
                      static_cast<unsigned long long>(
                          server.candidate_version()));
        }
      } else {
        std::fprintf(stderr, "reload rejected: %s\n", error.c_str());
      }
    }
  }
  std::printf("shutting down after %llu responses\n",
              static_cast<unsigned long long>(server.responses()));
  if (server.rollbacks() + server.promotions() > 0) {
    std::printf("rollout verdicts: %llu rollback(s), %llu promotion(s)\n",
                static_cast<unsigned long long>(server.rollbacks()),
                static_cast<unsigned long long>(server.promotions()));
  }
  server.stop();
  if (args.metrics_path && !write_metrics(*args.metrics_path, metrics)) {
    return 1;
  }
  return 0;
}

int cmd_query(const Args& args) {
  if (args.positional.size() < 2) {
    throw UsageError("query needs a quantized state index");
  }
  const std::uint64_t state =
      parse_number<std::uint64_t>("query", args.positional[1]);
  const auto show = [](const serve::Client::Result& result) {
    std::printf("action %u%s%s\n", result.action,
                result.safe_default ? " (safe-default)" : "",
                result.canary ? " (canary)" : "");
  };
  if (!args.shm.empty()) {
    serve::ShmClient client(args.shm);
    show(client.query(state, args.agent));
    return 0;
  }
  serve::Client client =
      !args.uds.empty()
          ? serve::Client::connect_uds(args.uds)
          : [&] {
              if (args.tcp_port < 0) {
                throw UsageError(
                    "query needs --uds PATH, --tcp-port N, or --shm PATH");
              }
              return serve::Client::connect_tcp(
                  args.host, static_cast<std::uint16_t>(args.tcp_port));
            }();
  show(client.query(state, args.agent));
  return 0;
}

core::FuzzDriverConfig fuzz_config_from(const Args& args) {
  core::FuzzDriverConfig config;
  config.governor = args.governor;
  config.jobs = args.jobs;
  config.invariants.max_energy_j = args.max_energy_j;
  config.invariants.max_violation_rate = args.max_violation_rate;
  config.invariants.max_peak_temp_c = args.max_peak_temp_c;
  return config;
}

void print_violations(const core::FuzzOutcome& outcome) {
  for (const auto& violation : outcome.violations) {
    std::printf("  %-20s %s\n", violation.invariant.c_str(),
                violation.detail.c_str());
  }
}

int cmd_fuzz(const Args& args) {
  if (args.governor != "rl" && !governors::has_governor(args.governor)) {
    std::fprintf(stderr, "unknown governor '%s'\n", args.governor.c_str());
    return 1;
  }
  obs::MetricsRegistry metrics;
  core::FuzzDriver driver(fuzz_config_from(args));
  if (args.metrics_path) driver.set_metrics(&metrics);

  std::printf("fuzzing %zu scenario(s) from seed %llu under %s...\n",
              args.runs, static_cast<unsigned long long>(args.seed),
              args.governor.c_str());
  const auto outcomes =
      driver.run_batch(args.seed, args.runs, /*show_progress=*/true);

  std::vector<const core::FuzzOutcome*> failures;
  for (const auto& outcome : outcomes) {
    if (!outcome.ok()) failures.push_back(&outcome);
  }
  std::printf("%zu/%zu scenario(s) passed every invariant\n",
              outcomes.size() - failures.size(), outcomes.size());

  for (const auto* failure : failures) {
    std::printf("FAIL seed %llu (%zu phase(s), %zu source(s), %.2f s):\n",
                static_cast<unsigned long long>(failure->spec.seed),
                failure->spec.phases.size(), failure->spec.source_count(),
                failure->spec.total_duration_s());
    print_violations(*failure);
    if (!args.shrink) continue;
    const auto shrunk = driver.shrink(*failure);
    std::printf(
        "  shrunk to %zu phase(s), %zu source(s), %.2f s "
        "(%zu/%zu reductions accepted)\n",
        shrunk.outcome.spec.phases.size(),
        shrunk.outcome.spec.source_count(),
        shrunk.outcome.spec.total_duration_s(), shrunk.accepted,
        shrunk.attempts);
    if (!args.corpus_dir) continue;
    std::filesystem::create_directories(*args.corpus_dir);
    const std::string invariant = failure->violations.front().invariant;
    const std::string path =
        *args.corpus_dir + "/seed" + std::to_string(failure->spec.seed) +
        "-" + invariant + ".scenario";
    std::string command = "pmrl_cli fuzz --seed " +
                          std::to_string(failure->spec.seed) + " --runs 1";
    if (args.governor != "rl") command += " --governor " + args.governor;
    char bound[64];
    if (std::isfinite(args.max_energy_j)) {
      std::snprintf(bound, sizeof bound, " --max-energy %g",
                    args.max_energy_j);
      command += bound;
    }
    if (args.max_violation_rate < 1.0) {
      std::snprintf(bound, sizeof bound, " --max-violation-rate %g",
                    args.max_violation_rate);
      command += bound;
    }
    if (std::isfinite(args.max_peak_temp_c)) {
      std::snprintf(bound, sizeof bound, " --max-peak-temp %g",
                    args.max_peak_temp_c);
      command += bound;
    }
    std::ostringstream out;
    shrunk.outcome.spec.save(
        out, {"minimized from: " + command,
              "violated invariant: " + invariant + " (" +
                  failure->violations.front().detail + ")",
              "shrink: " + std::to_string(shrunk.accepted) + "/" +
                  std::to_string(shrunk.attempts) +
                  " reductions accepted"});
    util::atomic_write(path, out.str());
    std::printf("  wrote %s\n", path.c_str());
  }
  if (args.metrics_path && !write_metrics(*args.metrics_path, metrics)) {
    return 1;
  }
  return failures.empty() ? 0 : 1;
}

/// Replay format from --format or, when absent, the file extension.
std::string resolve_replay_format(const Args& args,
                                  const std::string& path) {
  if (!args.format.empty()) return args.format;
  const auto extension = std::filesystem::path(path).extension().string();
  if (extension == ".scenario") return "scenario";
  if (extension == ".jsonl") return "jsonl";
  return "util";
}

int cmd_replay(const Args& args) {
  if (args.positional.size() < 2) throw UsageError("replay needs a file path");
  const std::string& path = args.positional[1];
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 1;
  }
  const std::string format = resolve_replay_format(args, path);

  if (format == "scenario") {
    const auto spec = workload::FuzzSpec::load(in);
    core::FuzzDriver driver(fuzz_config_from(args));
    const auto outcome = driver.run_spec(spec);
    std::printf(
        "%s: seed %llu, %.2f s, energy %.2f J, E/QoS %.5f J, "
        "viol rate %.2f%%\n",
        spec.name.c_str(), static_cast<unsigned long long>(spec.seed),
        outcome.result.duration_s, outcome.result.energy_j,
        outcome.result.energy_per_qos,
        100.0 * outcome.result.violation_rate);
    if (!outcome.ok()) {
      std::printf("invariant violations:\n");
      print_violations(outcome);
      return 1;
    }
    std::printf("all invariants hold\n");
    return 0;
  }

  // A recorded utilization trace replayed as a workload.
  const auto trace = format == "jsonl"
                         ? workload::util_trace_from_jsonl(in)
                         : workload::util_trace_from_text(in);
  const std::string name =
      std::filesystem::path(path).stem().string() + "-replay";
  workload::UtilReplayScenario scenario(trace, workload::UtilReplayConfig{},
                                        name);
  core::EngineConfig engine_config;
  engine_config.duration_s =
      std::max(trace.duration_s(), engine_config.decision_period_s);
  core::SimEngine engine(soc::default_mobile_soc_config(), engine_config);
  std::optional<rl::RlGovernor> rl_policy;
  governors::GovernorPtr baseline;
  governors::Governor* policy = nullptr;
  if (args.governor == "rl") {
    rl_policy.emplace(rl::RlGovernorConfig{},
                      engine.soc_config().clusters.size());
    policy = &*rl_policy;
  } else if (governors::has_governor(args.governor)) {
    baseline = governors::make_governor(args.governor);
    policy = baseline.get();
  } else {
    std::fprintf(stderr, "unknown governor '%s'\n", args.governor.c_str());
    return 1;
  }
  const auto result = engine.run(scenario, *policy);
  std::printf(
      "%s: %zu sample(s) over %.2f s (%zu domain(s)), %zu job(s) "
      "submitted\n",
      name.c_str(), trace.samples.size(), trace.duration_s(),
      trace.domain_count(), scenario.submitted());
  std::printf(
      "%s: energy %.2f J, E/QoS %.5f J, viol rate %.2f%%, "
      "f_little %.0f MHz, f_big %.0f MHz\n",
      policy->name().c_str(), result.energy_j, result.energy_per_qos,
      100.0 * result.violation_rate, result.mean_freq_hz.front() / 1e6,
      result.mean_freq_hz.back() / 1e6);
  return 0;
}

int cmd_fleet(const Args& args) {
  fleet::FleetConfig config;
  config.devices = args.devices;
  config.seed = args.seed;
  config.duration_s = args.duration_s;
  config.jobs = args.jobs;
  config.block_size = args.block;
  config.record_epochs = args.trace_path.has_value();
  if (!args.budget_steps.empty() && args.budget_w <= 0.0) {
    throw UsageError("--budget-step requires --budget");
  }
  if (args.budget_w > 0.0) {
    config.budget.global_cap_w = args.budget_w;
    config.budget.policy = args.budget_policy;
    config.budget.groups = args.budget_groups;
    config.budget.floor_w = args.budget_floor;
    config.budget.seed = args.seed;
    config.budget.schedule = args.budget_steps;
  }

  fleet::FleetEngine engine{config};
  obs::MetricsRegistry metrics;
  if (args.metrics_path) engine.set_metrics(&metrics);

  const auto t0 = std::chrono::steady_clock::now();
  const fleet::FleetResult result = engine.run();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const double ticks_per_sec =
      wall_s > 0.0 ? static_cast<double>(result.device_ticks) / wall_s : 0.0;

  std::printf("fleet: %zu device(s), %zu epoch(s) x %zu tick(s), %zu job(s)\n",
              result.devices, result.epochs, result.ticks_per_epoch,
              engine.jobs());
  TextTable table({"metric", "value"});
  table.add_row({"wall [s]", TextTable::num(wall_s, 2)});
  table.add_row({"device-ticks/sec", TextTable::num(ticks_per_sec, 0)});
  table.add_row({"energy [J]", TextTable::num(result.energy_j, 1)});
  table.add_row({"violation rate", TextTable::num(result.violation_rate, 4)});
  table.add_row(
      {"batteries depleted", std::to_string(result.battery_depleted)});
  table.add_row(
      {"E/QoS p50 [J/cap-s]", TextTable::num(result.energy_per_served_p50, 3)});
  table.add_row(
      {"E/QoS p95 [J/cap-s]", TextTable::num(result.energy_per_served_p95, 3)});
  table.add_row(
      {"E/QoS p99 [J/cap-s]", TextTable::num(result.energy_per_served_p99, 3)});
  if (result.budget.enabled) {
    table.add_row({"budget cap [W]",
                   TextTable::num(result.budget.effective_cap_w, 1)});
    table.add_row({"cap steps fired", std::to_string(result.budget.cap_steps)});
    table.add_row({"over-cap device-epochs",
                   std::to_string(result.budget.over_cap_device_epochs)});
    table.add_row(
        {"settle epochs", std::to_string(result.budget.settle_epochs)});
    table.add_row({"budget audit", result.budget.audit_error.empty()
                                       ? "ok"
                                       : result.budget.audit_error});
  }
  table.print();

  if (args.trace_path) {
    std::ofstream out(*args.trace_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write trace to %s\n",
                   args.trace_path->c_str());
      return 1;
    }
    const bool budgeted = result.budget.enabled;
    if (args.trace_format == "jsonl") {
      for (const auto& p : result.epoch_series) {
        out << "{\"time_s\": " << p.time_s << ", \"energy_j\": " << p.energy_j
            << ", \"served\": " << p.served << ", \"demand\": " << p.demand
            << ", \"violations\": " << p.violations;
        if (budgeted) {
          out << ", \"cap_w\": " << p.cap_w << ", \"over_cap\": " << p.over_cap;
        }
        out << "}\n";
      }
    } else {
      out << (budgeted ? "time_s,energy_j,served,demand,violations,cap_w,over_cap\n"
                       : "time_s,energy_j,served,demand,violations\n");
      for (const auto& p : result.epoch_series) {
        out << p.time_s << ',' << p.energy_j << ',' << p.served << ','
            << p.demand << ',' << p.violations;
        if (budgeted) out << ',' << p.cap_w << ',' << p.over_cap;
        out << '\n';
      }
    }
    std::printf("epoch series (%zu rows) written to %s\n",
                result.epoch_series.size(), args.trace_path->c_str());
  }
  if (args.metrics_path && !write_metrics(*args.metrics_path, metrics)) {
    return 1;
  }
  return 0;
}

}  // namespace

void print_usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: pmrl_cli <list|train|eval|latency|serve|query|policy|fuzz|"
      "replay|fleet> [options]\n"
      "  list\n"
      "  train  [--episodes N] [--seed S] [--actors N] [--jobs N]\n"
      "         [--merge-seed S] [--out policy.pmrl] [--registry DIR]\n"
      "  eval   <governor|policy.pmrl> [--scenario NAME] [--seed S]\n"
      "         [--duration SEC] [--fault-intensity X] [--fault-seed S]\n"
      "         [--watchdog] [--jobs N] [--trace PATH]\n"
      "         [--trace-format csv|jsonl] [--metrics PATH|-]\n"
      "  latency [N] [--seed S]\n"
      "  serve  [--policy policy.pmrl] [--registry DIR] [--uds PATH]\n"
      "         [--tcp-port N] [--shm PATH [--shm-lanes N]] [--workers N]\n"
      "         [--batch N] [--queue-capacity N] [--metrics PATH|-]\n"
      "         [--canary PCT] [--candidate VERSION] [--canary-threshold X]\n"
      "         [--canary-window N] [--canary-settle N]\n"
      "  query  <state> [--agent N]\n"
      "         (--uds PATH | --tcp-port N [--host H] | --shm PATH)\n"
      "  policy <list|show V|promote V|rollback V> --registry DIR\n"
      "  fuzz   [--seed S] [--runs N] [--jobs N] [--governor NAME]\n"
      "         [--max-energy J] [--max-violation-rate X]\n"
      "         [--max-peak-temp C] [--shrink] [--corpus-dir DIR]\n"
      "         [--metrics PATH|-]\n"
      "  replay <file> [--format scenario|jsonl|util] [--governor NAME]\n"
      "  fleet  [--devices N] [--seed S] [--duration SEC] [--jobs N]\n"
      "         [--block N] [--trace PATH] [--trace-format csv|jsonl]\n"
      "         [--metrics PATH|-] [--budget WATTS]\n"
      "         [--budget-policy uniform|demand|rl] [--budget-groups N]\n"
      "         [--budget-floor WATTS] [--budget-step TIME:WATTS]...\n"
      "  --version\n");
}

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    if (args.show_version) {
      std::printf("pmrl %s\n", PMRL_VERSION);
      std::printf(
          "subcommands: list train eval latency serve query policy fuzz "
          "replay fleet\n");
      return 0;
    }
    if (args.positional.empty() || args.positional[0] == "help") {
      print_usage(args.positional.empty() ? stderr : stdout);
      return args.positional.empty() ? 2 : 0;
    }
    const std::string& cmd = args.positional[0];
    if (cmd == "list") return cmd_list();
    if (cmd == "train") return cmd_train(args);
    if (cmd == "eval") return cmd_eval(args);
    if (cmd == "latency") return cmd_latency(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "query") return cmd_query(args);
    if (cmd == "policy") return cmd_policy(args);
    if (cmd == "fuzz") return cmd_fuzz(args);
    if (cmd == "replay") return cmd_replay(args);
    if (cmd == "fleet") return cmd_fleet(args);
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
    print_usage(stderr);
    return 2;
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    print_usage(stderr);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
