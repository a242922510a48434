#include "rl/agent.hpp"

#include <algorithm>
#include <stdexcept>

#include "rl/batch_argmax.hpp"

namespace pmrl::rl {

const char* td_algorithm_name(TdAlgorithm algorithm) {
  switch (algorithm) {
    case TdAlgorithm::QLearning: return "q-learning";
    case TdAlgorithm::DoubleQ: return "double-q";
    case TdAlgorithm::ExpectedSarsa: return "expected-sarsa";
  }
  return "?";
}

QLearningAgent::QLearningAgent(QLearningConfig config, std::size_t states,
                               std::size_t actions)
    : config_(config),
      table_(states, actions, config.initial_q),
      rng_(config.seed),
      epsilon_(config.epsilon_start) {
  if (config_.algorithm == TdAlgorithm::DoubleQ) {
    table_b_ =
        std::make_unique<QTable>(states, actions, config.initial_q);
  }
  if (config_.alpha <= 0.0 || config_.alpha > 1.0) {
    throw std::invalid_argument("alpha must be in (0,1]");
  }
  if (config_.gamma < 0.0 || config_.gamma >= 1.0) {
    throw std::invalid_argument("gamma must be in [0,1)");
  }
  if (config_.epsilon_start < 0.0 || config_.epsilon_start > 1.0 ||
      config_.epsilon_end < 0.0 ||
      config_.epsilon_end > config_.epsilon_start) {
    throw std::invalid_argument("invalid epsilon schedule");
  }
}

std::size_t QLearningAgent::select_action(std::size_t state) {
  if (!frozen_ && rng_.bernoulli(epsilon_)) {
    return static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(table_.actions()) - 1));
  }
  return greedy_action(state);
}

double QLearningAgent::combined_q(std::size_t state,
                                  std::size_t action) const {
  if (table_b_) {
    return 0.5 * (table_.get(state, action) + table_b_->get(state, action));
  }
  return table_.get(state, action);
}

double QLearningAgent::q_value(std::size_t state, std::size_t action) const {
  return combined_q(state, action);
}

std::size_t QLearningAgent::greedy_action(std::size_t state) const {
  std::size_t best = 0;
  double best_value =
      combined_q(state, 0) + (action_bias_.empty() ? 0.0 : action_bias_[0]);
  for (std::size_t a = 1; a < table_.actions(); ++a) {
    const double v = combined_q(state, a) +
                     (action_bias_.empty() ? 0.0 : action_bias_[a]);
    if (v > best_value) {
      best_value = v;
      best = a;
    }
  }
  return best;
}

void QLearningAgent::greedy_actions(const std::uint64_t* states,
                                    std::size_t count,
                                    std::uint32_t* actions) const {
  if (table_b_) {
    QAgent::greedy_actions(states, count, actions);
    return;
  }
  batch_argmax_f64(table_.data(), table_.actions(),
                   action_bias_.empty() ? nullptr : action_bias_.data(),
                   states, count, actions);
}

void QLearningAgent::set_q_value(std::size_t state, std::size_t action,
                                 double value) {
  table_.set(state, action, value);
  if (table_b_) table_b_->set(state, action, value);
}

void QLearningAgent::set_action_bias(std::vector<double> bias) {
  if (!bias.empty() && bias.size() != table_.actions()) {
    throw std::invalid_argument("action bias size mismatch");
  }
  action_bias_ = std::move(bias);
}

void QLearningAgent::learn(std::size_t state, std::size_t action,
                           double reward, std::size_t next_state) {
  if (frozen_) return;
  switch (config_.algorithm) {
    case TdAlgorithm::QLearning:
      learn_q(state, action, reward, next_state);
      break;
    case TdAlgorithm::DoubleQ:
      learn_double_q(state, action, reward, next_state);
      break;
    case TdAlgorithm::ExpectedSarsa:
      learn_expected_sarsa(state, action, reward, next_state);
      break;
  }
  table_.record_visit(state, action);
}

void QLearningAgent::learn_q(std::size_t state, std::size_t action,
                             double reward, std::size_t next_state) {
  const double target = reward + config_.gamma * table_.max_value(next_state);
  const double old_q = table_.get(state, action);
  table_.set(state, action, old_q + config_.alpha * (target - old_q));
}

void QLearningAgent::learn_double_q(std::size_t state, std::size_t action,
                                    double reward, std::size_t next_state) {
  // Hasselt's Double Q-learning: a fair coin picks which table to update;
  // the updated table selects the next action, the other evaluates it.
  QTable& updated = rng_.bernoulli(0.5) ? table_ : *table_b_;
  QTable& other = &updated == &table_ ? *table_b_ : table_;
  const std::size_t best_next = updated.argmax(next_state);
  const double target =
      reward + config_.gamma * other.get(next_state, best_next);
  const double old_q = updated.get(state, action);
  updated.set(state, action, old_q + config_.alpha * (target - old_q));
}

void QLearningAgent::learn_expected_sarsa(std::size_t state,
                                          std::size_t action, double reward,
                                          std::size_t next_state) {
  // Expectation under the epsilon-greedy behaviour policy:
  // (1 - eps) * max + eps * mean. One scan collects both the max and the
  // sum (same ascending accumulation order, so results are bit-identical
  // to the former two-pass version).
  double max_q = table_.get(next_state, 0);
  double mean_q = 0.0 + max_q;
  for (std::size_t a = 1; a < table_.actions(); ++a) {
    const double q = table_.get(next_state, a);
    if (q > max_q) max_q = q;
    mean_q += q;
  }
  mean_q /= static_cast<double>(table_.actions());
  const double eps = frozen_ ? 0.0 : epsilon_;
  const double expectation = (1.0 - eps) * max_q + eps * mean_q;
  const double target = reward + config_.gamma * expectation;
  const double old_q = table_.get(state, action);
  table_.set(state, action, old_q + config_.alpha * (target - old_q));
}

void QLearningAgent::begin_episode() {
  ++episodes_;
  if (config_.epsilon_decay_episodes == 0) {
    epsilon_ = config_.epsilon_end;
    return;
  }
  const double progress =
      std::min(1.0, static_cast<double>(episodes_) /
                        static_cast<double>(config_.epsilon_decay_episodes));
  epsilon_ = config_.epsilon_start +
             (config_.epsilon_end - config_.epsilon_start) * progress;
}

}  // namespace pmrl::rl
