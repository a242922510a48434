#include "bench_common.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "governors/registry.hpp"

namespace pmrl::bench {

namespace {

using Clock = std::chrono::steady_clock;
Clock::time_point g_bench_start;

void print_total_wall_clock() {
  const double s =
      std::chrono::duration<double>(Clock::now() - g_bench_start).count();
  std::fprintf(stderr, "[bench] total wall-clock: %.2f s\n", s);
}

}  // namespace

core::SimEngine make_default_engine() {
  return core::SimEngine(soc::default_mobile_soc_config(),
                         core::EngineConfig{});
}

std::size_t jobs_from_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (std::strcmp(arg, "--jobs") == 0) {
      if (i + 1 < argc) value = argv[i + 1];
    } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
      value = arg + 7;
    } else {
      continue;
    }
    char* end = nullptr;
    const long jobs = value ? std::strtol(value, &end, 10) : -1;
    if (value == nullptr || end == value || *end != '\0' || jobs <= 0) {
      std::fprintf(stderr, "--jobs needs a positive integer\n");
      std::exit(2);
    }
    return static_cast<std::size_t>(jobs);
  }
  return 0;  // absent: RunFarm resolves PMRL_JOBS / hardware concurrency
}

core::runfarm::RunFarm make_default_farm(std::size_t jobs) {
  return core::runfarm::RunFarm(soc::default_mobile_soc_config(),
                                core::EngineConfig{}, jobs);
}

TrainedPolicy train_default_policy(core::SimEngine& engine,
                                   std::size_t episodes, std::uint64_t seed,
                                   rl::RlGovernorConfig config) {
  TrainedPolicy result;
  result.governor = std::make_unique<rl::RlGovernor>(
      config, engine.soc_config().clusters.size());
  rl::TrainerConfig train_cfg;
  train_cfg.episodes = episodes;
  train_cfg.workload_seed = seed;
  rl::Trainer trainer(engine, *result.governor, train_cfg);
  result.curve = trainer.train();
  return result;
}

core::PolicySummary evaluate_policy(
    core::SimEngine& engine, governors::Governor& governor,
    std::uint64_t seed, const std::vector<workload::ScenarioKind>& kinds) {
  core::PolicySummary summary;
  summary.governor = governor.name();
  const auto t0 = Clock::now();
  for (const auto kind : kinds) {
    auto scenario = workload::make_scenario(kind, seed);
    summary.runs.push_back(engine.run(*scenario, governor));
  }
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  std::fprintf(stderr, "[time] %s: %zu runs in %.2f s (%.0f ms/run)\n",
               summary.governor.c_str(), kinds.size(), s,
               kinds.empty() ? 0.0 : s * 1e3 / kinds.size());
  return summary;
}

std::vector<core::PolicySummary> evaluate_baselines(core::SimEngine& engine,
                                                    std::uint64_t seed) {
  std::vector<core::PolicySummary> summaries;
  for (const auto& name : governors::baseline_governor_names()) {
    auto governor = governors::make_governor(name);
    summaries.push_back(evaluate_policy(engine, *governor, seed));
  }
  return summaries;
}

std::vector<core::PolicySummary> evaluate_baselines(
    core::runfarm::RunFarm& farm, std::uint64_t seed) {
  const auto names = governors::baseline_governor_names();
  std::vector<std::function<core::PolicySummary()>> tasks;
  tasks.reserve(names.size());
  for (const auto& name : names) {
    tasks.push_back([&farm, name, seed] {
      core::SimEngine engine(farm.soc_config(), farm.engine_config());
      auto governor = governors::make_governor(name);
      return evaluate_policy(engine, *governor, seed);
    });
  }
  return farm_map_timed<core::PolicySummary>(farm, "baselines", tasks);
}

TrainEval train_and_evaluate(const core::runfarm::RunFarm& farm,
                             rl::RlGovernorConfig config,
                             std::size_t episodes, std::uint64_t train_seed,
                             std::uint64_t eval_seed) {
  core::SimEngine engine(farm.soc_config(), farm.engine_config());
  TrainEval result;
  result.trained = train_default_policy(engine, episodes, train_seed, config);
  result.summary = evaluate_policy(engine, *result.trained.governor, eval_seed);
  return result;
}

void print_banner(const char* exp_id, const char* title,
                  const char* paper_ref) {
  g_bench_start = Clock::now();
  std::atexit(print_total_wall_clock);
  std::printf("=== %s: %s ===\n", exp_id, title);
  std::printf("reproduces: %s\n\n", paper_ref);
}

void print_farm_timing(const std::string& label, std::size_t tasks,
                       double wall_s, double run_s_total, std::size_t jobs) {
  const double speedup = wall_s > 0.0 ? run_s_total / wall_s : 1.0;
  std::fprintf(
      stderr,
      "[farm:%s] %zu tasks, %.2f s wall, %.2f s serial-equivalent "
      "(%.2fx, jobs=%zu)\n",
      label.c_str(), tasks, wall_s, run_s_total, speedup, jobs);
}

}  // namespace pmrl::bench
