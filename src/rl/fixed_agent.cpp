#include "rl/fixed_agent.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>


namespace pmrl::rl {

namespace {
std::uint32_t epsilon_to_threshold(double epsilon) {
  const double clamped = std::clamp(epsilon, 0.0, 1.0);
  return static_cast<std::uint32_t>(std::lround(clamped * 65536.0));
}
}  // namespace

FixedPointQAgent::FixedPointQAgent(FixedAgentConfig config, std::size_t states,
                                   std::size_t actions)
    : config_(config),
      format_(config.total_bits, config.frac_bits),
      states_(states),
      actions_(actions),
      q_raw_(states * actions,
             FixedFormat(config.total_bits, config.frac_bits)
                 .from_double(config.learning.initial_q)),
      lfsr_(static_cast<std::uint16_t>(config.learning.seed)),
      alpha_raw_(format_.from_double(config.learning.alpha)),
      gamma_raw_(format_.from_double(config.learning.gamma)),
      epsilon_threshold_(epsilon_to_threshold(config.learning.epsilon_start)) {
  if (states == 0 || actions == 0) {
    throw std::invalid_argument("fixed agent dimensions must be positive");
  }
  if (alpha_raw_ == 0) {
    throw std::invalid_argument(
        "alpha quantizes to zero in the chosen format; add fractional bits");
  }
}

std::size_t FixedPointQAgent::index(std::size_t state,
                                    std::size_t action) const {
  if (state >= states_ || action >= actions_) {
    throw std::out_of_range("fixed agent index");
  }
  return state * actions_ + action;
}

std::int64_t FixedPointQAgent::q_raw(std::size_t state,
                                     std::size_t action) const {
  return q_raw_[index(state, action)];
}

double FixedPointQAgent::q_value(std::size_t state, std::size_t action) const {
  return format_.to_double(q_raw(state, action));
}

std::size_t FixedPointQAgent::greedy_action(std::size_t state) const {
  const std::size_t base = index(state, 0);
  std::size_t best = 0;
  std::int64_t best_raw =
      bias_raw_.empty() ? q_raw_[base]
                        : format_.add(q_raw_[base], bias_raw_[0]);
  for (std::size_t a = 1; a < actions_; ++a) {
    const std::int64_t v =
        bias_raw_.empty() ? q_raw_[base + a]
                          : format_.add(q_raw_[base + a], bias_raw_[a]);
    if (v > best_raw) {
      best_raw = v;
      best = a;
    }
  }
  return best;
}

void FixedPointQAgent::set_q_value(std::size_t state, std::size_t action,
                                   double value) {
  q_raw_[index(state, action)] = format_.from_double(value);
}

void FixedPointQAgent::set_action_bias(std::vector<double> bias) {
  if (!bias.empty() && bias.size() != actions_) {
    throw std::invalid_argument("action bias size mismatch");
  }
  bias_raw_.clear();
  bias_raw_.reserve(bias.size());
  for (double b : bias) bias_raw_.push_back(format_.from_double(b));
}

std::size_t FixedPointQAgent::select_action(std::size_t state) {
  if (!frozen_ && lfsr_.below(epsilon_threshold_)) {
    return lfsr_.next_mod(static_cast<std::uint32_t>(actions_));
  }
  return greedy_action(state);
}

void FixedPointQAgent::learn(std::size_t state, std::size_t action,
                             double reward, std::size_t next_state) {
  if (frozen_) return;
  const std::int64_t reward_raw = format_.from_double(reward);
  // TD target uses the unbiased max (the selection prior only steers the
  // behaviour policy, not the value estimates).
  std::int64_t max_next = q_raw_[index(next_state, 0)];
  for (std::size_t a = 1; a < actions_; ++a) {
    max_next = std::max(max_next, q_raw_[index(next_state, a)]);
  }
  // target = r + gamma * max_a' Q(s', a')
  const std::int64_t target =
      format_.add(reward_raw, format_.mul(gamma_raw_, max_next));
  const std::int64_t old_q = q_raw_[index(state, action)];
  // Q += alpha * (target - Q), exactly as the RTL update stage computes it.
  const std::int64_t delta =
      format_.mul(alpha_raw_, format_.sub(target, old_q));
  q_raw_[index(state, action)] = format_.add(old_q, delta);
}

void FixedPointQAgent::begin_episode() {
  ++episodes_;
  const auto& lc = config_.learning;
  double eps;
  if (lc.epsilon_decay_episodes == 0) {
    eps = lc.epsilon_end;
  } else {
    const double progress =
        std::min(1.0, static_cast<double>(episodes_) /
                          static_cast<double>(lc.epsilon_decay_episodes));
    eps = lc.epsilon_start + (lc.epsilon_end - lc.epsilon_start) * progress;
  }
  epsilon_threshold_ = epsilon_to_threshold(eps);
}

double FixedPointQAgent::epsilon() const {
  return static_cast<double>(epsilon_threshold_) / 65536.0;
}

}  // namespace pmrl::rl
