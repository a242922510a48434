#pragma once
// Shared harness pieces for the reproduction benches: default engine
// construction, policy training, multi-scenario evaluation, run-farm
// helpers (--jobs parsing, timed parallel maps), and uniform headers so
// every bench's output is self-describing.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/metrics.hpp"
#include "core/runfarm/runfarm.hpp"
#include "rl/trainer.hpp"
#include "workload/scenarios.hpp"

namespace pmrl::bench {

/// Workload seed used for all held-out evaluations (training uses a
/// different base seed, so evaluation job sequences are unseen).
inline constexpr std::uint64_t kEvalSeed = 9001;
/// Base seed for training workloads.
inline constexpr std::uint64_t kTrainSeed = 42;
/// Default training length (episodes); the learning curve flattens by ~40.
inline constexpr std::size_t kDefaultEpisodes = 60;

/// Engine over the default big.LITTLE mobile SoC.
core::SimEngine make_default_engine();

/// Parses `--jobs N` / `--jobs=N` from the bench's argv. Returns 0 when the
/// flag is absent, which lets RunFarm fall back to PMRL_JOBS / hardware
/// concurrency (see runfarm::default_jobs). Exits with a message on a
/// malformed value.
std::size_t jobs_from_args(int argc, char** argv);

/// Run farm over the default big.LITTLE SoC (jobs as in RunFarm: 0 =
/// default_jobs(), 1 = inline serial execution).
core::runfarm::RunFarm make_default_farm(std::size_t jobs = 0);

/// A trained RL policy plus its learning curve.
struct TrainedPolicy {
  std::unique_ptr<rl::RlGovernor> governor;
  std::vector<rl::EpisodeResult> curve;
};

/// Trains the default (factored, float) policy across all six scenarios.
TrainedPolicy train_default_policy(core::SimEngine& engine,
                                   std::size_t episodes = kDefaultEpisodes,
                                   std::uint64_t seed = kTrainSeed,
                                   rl::RlGovernorConfig config = {});

/// Evaluates a policy on the given scenarios (default: all six) with the
/// held-out seed. Scenarios run serially in order on the caller's engine,
/// sharing the governor instance (learning governors keep their state).
core::PolicySummary evaluate_policy(
    core::SimEngine& engine, governors::Governor& governor,
    std::uint64_t seed = kEvalSeed,
    const std::vector<workload::ScenarioKind>& kinds =
        workload::all_scenario_kinds());

/// Evaluates all six baseline governors serially.
std::vector<core::PolicySummary> evaluate_baselines(
    core::SimEngine& engine, std::uint64_t seed = kEvalSeed);

/// Farm-parallel evaluate_baselines: one farm task per baseline governor.
/// Inside a task the six scenarios still run serially on a task-local
/// engine with a task-local governor instance, so per-policy semantics
/// (governor reuse across scenarios) — and therefore the numbers — are
/// bit-identical to the serial variant above.
std::vector<core::PolicySummary> evaluate_baselines(
    core::runfarm::RunFarm& farm, std::uint64_t seed = kEvalSeed);

/// One ablation unit: a policy trained with `config` and evaluated on all
/// six scenarios, everything on a task-local engine built from the farm's
/// SoC/engine configs. This is the standard per-config farm task of the
/// ablation benches.
struct TrainEval {
  TrainedPolicy trained;
  core::PolicySummary summary;
};
TrainEval train_and_evaluate(const core::runfarm::RunFarm& farm,
                             rl::RlGovernorConfig config,
                             std::size_t episodes = kDefaultEpisodes,
                             std::uint64_t train_seed = kTrainSeed,
                             std::uint64_t eval_seed = kEvalSeed);

/// Prints the bench banner: experiment id, title, and which paper artifact
/// it regenerates. Also starts the bench wall-clock; at process exit the
/// total elapsed time is printed to stderr.
void print_banner(const char* exp_id, const char* title,
                  const char* paper_ref);

/// Prints a one-line timing summary for a farmed batch to stderr:
/// "[farm:label] N tasks, X s wall, Y s serial-equivalent (Z.ZZx, jobs=J)".
void print_farm_timing(const std::string& label, std::size_t tasks,
                       double wall_s, double run_s_total, std::size_t jobs);

/// Ordered parallel map over the farm's pool with per-task and wall-clock
/// timing; prints the timing summary line when done. Use for coarse units
/// (a whole training, a config's train+eval) that are independent of each
/// other but inherently sequential inside.
template <typename T>
std::vector<T> farm_map_timed(core::runfarm::RunFarm& farm,
                              const std::string& label,
                              const std::vector<std::function<T()>>& tasks) {
  using Clock = std::chrono::steady_clock;
  std::atomic<std::int64_t> run_ns{0};
  std::vector<std::function<T()>> timed;
  timed.reserve(tasks.size());
  for (const auto& task : tasks) {
    timed.push_back([&run_ns, &task]() -> T {
      const auto t0 = Clock::now();
      T result = task();
      run_ns.fetch_add(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               t0)
              .count(),
          std::memory_order_relaxed);
      return result;
    });
  }
  const auto wall0 = Clock::now();
  auto results = farm.map<T>(timed);
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - wall0).count();
  print_farm_timing(label, tasks.size(), wall_s,
                    static_cast<double>(run_ns.load()) * 1e-9, farm.jobs());
  return results;
}

}  // namespace pmrl::bench
