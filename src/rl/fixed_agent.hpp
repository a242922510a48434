#pragma once
// Fixed-point Q-learning agent: the bit-exact software model of the paper's
// FPGA policy. All Q storage and TD arithmetic use a runtime-configurable
// signed Q-format (default Q5.10 in 16 bits); exploration uses a 16-bit
// LFSR with a threshold comparator. The cycle-level datapath in src/hw
// wraps this agent, so "hardware" and "software" decisions match exactly.

#include <cstdint>
#include <vector>

#include "rl/agent.hpp"
#include "util/fixed_point.hpp"
#include "util/lfsr.hpp"

namespace pmrl::rl {

/// Hardware number-format and schedule configuration.
struct FixedAgentConfig {
  unsigned total_bits = 16;
  unsigned frac_bits = 10;
  QLearningConfig learning;  ///< alpha/gamma/epsilon quantized on ingest
};

/// Tabular Q-learning in saturating fixed-point arithmetic.
class FixedPointQAgent : public QAgent {
 public:
  FixedPointQAgent(FixedAgentConfig config, std::size_t states,
                   std::size_t actions);

  std::size_t select_action(std::size_t state) override;
  void learn(std::size_t state, std::size_t action, double reward,
             std::size_t next_state) override;
  void begin_episode() override;

  std::size_t state_count() const override { return states_; }
  std::size_t action_count() const override { return actions_; }
  void set_frozen(bool frozen) override { frozen_ = frozen; }
  bool frozen() const override { return frozen_; }
  double q_value(std::size_t state, std::size_t action) const override;
  std::size_t greedy_action(std::size_t state) const override;
  double epsilon() const override;
  void set_action_bias(std::vector<double> bias) override;
  /// Quantizes into the agent's Q format.
  void set_q_value(std::size_t state, std::size_t action,
                   double value) override;

  const FixedFormat& format() const { return format_; }
  const FixedAgentConfig& config() const { return config_; }

  /// Raw Q word as stored in the (modeled) BRAM.
  std::int64_t q_raw(std::size_t state, std::size_t action) const;
  /// Quantized selection prior (empty = disabled).
  const std::vector<std::int64_t>& bias_raw() const { return bias_raw_; }

  /// 16-bit epsilon comparator threshold currently in effect.
  std::uint32_t epsilon_threshold() const { return epsilon_threshold_; }

  /// Fixed-point constants as quantized (exposed for the hardware model and
  /// the precision ablation).
  std::int64_t alpha_raw() const { return alpha_raw_; }
  std::int64_t gamma_raw() const { return gamma_raw_; }

 private:
  std::size_t index(std::size_t state, std::size_t action) const;

  FixedAgentConfig config_;
  FixedFormat format_;
  std::size_t states_;
  std::size_t actions_;
  std::vector<std::int64_t> q_raw_;
  /// Quantized per-action selection prior (empty = disabled).
  std::vector<std::int64_t> bias_raw_;
  Lfsr16 lfsr_;
  std::int64_t alpha_raw_;
  std::int64_t gamma_raw_;
  std::uint32_t epsilon_threshold_;
  std::size_t episodes_ = 0;
  bool frozen_ = false;
};

}  // namespace pmrl::rl
