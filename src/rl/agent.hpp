#pragma once
// Q-learning agents. Two implementations share one interface: the
// double-precision software agent (the paper's software policy) and a
// fixed-point agent that is bit-exact with the hardware datapath model in
// src/hw (the paper's FPGA policy).

#include <cstddef>
#include <memory>
#include <vector>

#include "rl/q_table.hpp"
#include "util/lfsr.hpp"
#include "util/rng.hpp"

namespace pmrl::rl {

/// TD-control algorithm of the float agent. The fixed-point/hardware agent
/// always runs plain Q-learning (one Q memory, one update path — the
/// datapath the paper builds); the variants exist for the algorithm
/// ablation (bench_ablation_algorithm).
enum class TdAlgorithm {
  QLearning,      ///< max-target TD(0) (default; matches the hardware)
  DoubleQ,        ///< two tables, decoupled selection/evaluation
  ExpectedSarsa,  ///< expectation over the epsilon-greedy policy
};

const char* td_algorithm_name(TdAlgorithm algorithm);

/// Learning hyperparameters shared by both agents.
struct QLearningConfig {
  double alpha = 0.15;  ///< learning rate
  /// Discount factor. Deliberately low: the QoS penalty of a too-low OPP
  /// lands in the *same* epoch the action was in force, so the reward is
  /// nearly immediate and a mildly myopic agent both learns faster and
  /// avoids the slow 18-step value backup along the OPP chain.
  double gamma = 0.50;
  double epsilon_start = 0.60;
  double epsilon_end = 0.02;
  /// Episodes over which epsilon decays linearly from start to end.
  std::size_t epsilon_decay_episodes = 40;
  /// Optimistic initial Q value (0 = neutral).
  double initial_q = 0.0;
  std::uint64_t seed = 1;
  /// TD-control variant (float agent only; see TdAlgorithm).
  TdAlgorithm algorithm = TdAlgorithm::QLearning;
};

/// Common agent interface used by the RL governor and the hardware model.
class QAgent {
 public:
  virtual ~QAgent() = default;

  /// Epsilon-greedy action selection (pure greedy when frozen).
  virtual std::size_t select_action(std::size_t state) = 0;

  /// One TD(0) Q-learning update; no-op when frozen.
  virtual void learn(std::size_t state, std::size_t action, double reward,
                     std::size_t next_state) = 0;

  /// Advances the epsilon schedule (call at episode boundaries).
  virtual void begin_episode() = 0;

  virtual std::size_t state_count() const = 0;
  virtual std::size_t action_count() const = 0;

  /// Frozen agents neither explore nor update.
  virtual void set_frozen(bool frozen) = 0;
  virtual bool frozen() const = 0;

  /// Current Q estimate (exact for the float agent, dequantized for the
  /// fixed-point agent).
  virtual double q_value(std::size_t state, std::size_t action) const = 0;
  virtual std::size_t greedy_action(std::size_t state) const = 0;

  /// Greedy actions for a micro-batch of states; equivalent to calling
  /// greedy_action() per state (same bias, same lowest-index tie-break).
  /// States must be in range. Overridden with a SIMD kernel where the
  /// storage layout allows it; the default is the scalar loop.
  virtual void greedy_actions(const std::uint64_t* states, std::size_t count,
                              std::uint32_t* actions) const {
    for (std::size_t i = 0; i < count; ++i) {
      actions[i] = static_cast<std::uint32_t>(
          greedy_action(static_cast<std::size_t>(states[i])));
    }
  }

  /// Current exploration rate.
  virtual double epsilon() const = 0;

  /// Overwrites one Q entry (checkpoint restore; quantized on the
  /// fixed-point agent).
  virtual void set_q_value(std::size_t state, std::size_t action,
                           double value) = 0;

  /// Per-action selection prior: greedy selection maximizes Q(s,a)+bias[a]
  /// (TD targets still use the unbiased max). Used to encode the known
  /// energy ordering of DVFS actions — "when indifferent, step down". In
  /// the hardware datapath this is a constant added before the comparator
  /// tree. An empty vector disables the prior.
  virtual void set_action_bias(std::vector<double> bias) = 0;
};

/// Double-precision tabular Q-learning (the software policy).
class QLearningAgent : public QAgent {
 public:
  QLearningAgent(QLearningConfig config, std::size_t states,
                 std::size_t actions);

  std::size_t select_action(std::size_t state) override;
  void learn(std::size_t state, std::size_t action, double reward,
             std::size_t next_state) override;
  void begin_episode() override;

  std::size_t state_count() const override { return table_.states(); }
  std::size_t action_count() const override { return table_.actions(); }
  void set_frozen(bool frozen) override { frozen_ = frozen; }
  bool frozen() const override { return frozen_; }
  /// Mean of both tables under Double Q-learning; the single table
  /// otherwise.
  double q_value(std::size_t state, std::size_t action) const override;
  std::size_t greedy_action(std::size_t state) const override;
  /// Single-table algorithms use the AVX2/scalar dense-store kernel,
  /// bit-exact with the per-state scan; Double Q keeps the per-state loop.
  void greedy_actions(const std::uint64_t* states, std::size_t count,
                      std::uint32_t* actions) const override;
  double epsilon() const override { return epsilon_; }
  void set_action_bias(std::vector<double> bias) override;
  /// Sets both tables under Double Q-learning.
  void set_q_value(std::size_t state, std::size_t action,
                   double value) override;

  QTable& table() { return table_; }
  const QTable& table() const { return table_; }
  /// Second table (Double Q-learning only; nullptr otherwise).
  const QTable* table_b() const { return table_b_.get(); }
  const QLearningConfig& config() const { return config_; }
  std::size_t episodes_started() const { return episodes_; }

 private:
  double combined_q(std::size_t state, std::size_t action) const;
  void learn_q(std::size_t state, std::size_t action, double reward,
               std::size_t next_state);
  void learn_double_q(std::size_t state, std::size_t action, double reward,
                      std::size_t next_state);
  void learn_expected_sarsa(std::size_t state, std::size_t action,
                            double reward, std::size_t next_state);

  QLearningConfig config_;
  QTable table_;
  std::unique_ptr<QTable> table_b_;
  Rng rng_;
  double epsilon_;
  std::size_t episodes_ = 0;
  bool frozen_ = false;
  std::vector<double> action_bias_;
};

}  // namespace pmrl::rl
