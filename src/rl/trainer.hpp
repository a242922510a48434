#pragma once
// Training loop for the RL policy: repeated simulated episodes across the
// mobile scenarios with a decaying exploration schedule. Produces the
// per-episode learning curve (energy/QoS, violation rate, reward) that
// bench_learning_curve reports.

#include <vector>

#include "core/engine.hpp"
#include "rl/rl_governor.hpp"
#include "workload/scenarios.hpp"

namespace pmrl::rl {

/// Training schedule. The per-episode scenario and workload seed are pure
/// functions of the episode index (episode_kind/episode_seed below), so a
/// distributed trainer that shards episodes across actors reproduces the
/// serial trainer's exact global schedule chunk by chunk.
struct TrainerConfig {
  std::size_t episodes = 60;
  /// Scenarios rotated round-robin across episodes; empty means "all six".
  std::vector<workload::ScenarioKind> scenarios{};
  /// Base seed for workload generation.
  std::uint64_t workload_seed = 42;
  /// If true each episode uses a different workload seed (base + episode),
  /// preventing the agent from memorizing one job sequence.
  bool vary_seed_per_episode = true;

  /// Scenario list with the empty-means-all-six default applied.
  std::vector<workload::ScenarioKind> resolved_scenarios() const;
  /// Scenario of episode `episode` under the round-robin rotation.
  workload::ScenarioKind episode_kind(std::size_t episode) const;
  /// Workload seed of episode `episode` (base + episode when varying).
  std::uint64_t episode_seed(std::size_t episode) const;
};

/// Outcome of one training episode.
struct EpisodeResult {
  std::size_t episode = 0;
  std::string scenario;
  double energy_per_qos = 0.0;
  double violation_rate = 0.0;
  double energy_j = 0.0;
  double mean_reward = 0.0;
  double epsilon = 0.0;
};

/// Runs training episodes; the governor's Q-table accumulates across them.
class Trainer {
 public:
  Trainer(core::SimEngine& engine, RlGovernor& governor,
          TrainerConfig config = {});

  /// Runs all configured episodes and returns the learning curve.
  std::vector<EpisodeResult> train();

  /// Runs a single episode on the given scenario kind; exposed for
  /// fine-grained harnesses (adaptation bench).
  EpisodeResult train_episode(std::size_t episode_index,
                              workload::ScenarioKind kind);

 private:
  core::SimEngine& engine_;
  RlGovernor& governor_;
  TrainerConfig config_;
};

}  // namespace pmrl::rl
