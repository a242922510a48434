// rl/batch_argmax.hpp: the SIMD micro-batch argmax must be bit-identical
// to the scalar per-state scan (QTable::argmax / the agents'
// greedy_action) on every input — exhaustive ties, negative and extreme
// values, and every batch remainder the 4-lane kernel can see. The
// agent-level tests pin greedy_actions == greedy_action for every agent
// family, whichever path each one takes.

#include "rl/batch_argmax.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "rl/agent.hpp"
#include "rl/fixed_agent.hpp"
#include "rl/q_table.hpp"

namespace pmrl {
namespace {

std::vector<std::uint64_t> all_states(std::size_t states) {
  std::vector<std::uint64_t> out(states);
  for (std::size_t s = 0; s < states; ++s) out[s] = s;
  return out;
}

TEST(BatchArgmaxF64, MatchesQTableArgmaxOnRandomTables) {
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> dist(-5.0, 5.0);
  for (const std::size_t actions : {2u, 3u, 5u, 7u, 8u}) {
    rl::QTable table(64, actions);
    for (std::size_t s = 0; s < 64; ++s) {
      for (std::size_t a = 0; a < actions; ++a) {
        table.set(s, a, dist(rng));
      }
    }
    const auto states = all_states(64);
    std::vector<std::uint32_t> got(states.size());
    rl::batch_argmax_f64(table.data(), actions, nullptr, states.data(),
                         states.size(), got.data());
    for (std::size_t s = 0; s < 64; ++s) {
      EXPECT_EQ(got[s], static_cast<std::uint32_t>(table.argmax(s)))
          << "actions=" << actions << " state=" << s;
    }
  }
}

// Quantizing values to a handful of levels makes ties the common case;
// the kernel must resolve every one to the lowest action index, exactly
// like the scalar strictly-greater scan.
TEST(BatchArgmaxF64, TieBreaksToLowestIndexExhaustively) {
  constexpr std::size_t kActions = 4;
  // All 3^4 rows over the value set {-1, 0, 1}: every tie pattern.
  std::vector<double> values;
  std::size_t rows = 1;
  for (std::size_t a = 0; a < kActions; ++a) rows *= 3;
  for (std::size_t r = 0; r < rows; ++r) {
    std::size_t x = r;
    for (std::size_t a = 0; a < kActions; ++a) {
      values.push_back(static_cast<double>(static_cast<int>(x % 3) - 1));
      x /= 3;
    }
  }
  const auto states = all_states(rows);
  std::vector<std::uint32_t> simd(rows);
  std::vector<std::uint32_t> scalar(rows);
  rl::batch_argmax_f64(values.data(), kActions, nullptr, states.data(), rows,
                       simd.data());
  rl::batch_argmax_f64_scalar(values.data(), kActions, nullptr, states.data(),
                              rows, scalar.data());
  for (std::size_t r = 0; r < rows; ++r) {
    EXPECT_EQ(simd[r], scalar[r]) << "row=" << r;
    // Independent check of the tie rule itself.
    const double* row = values.data() + r * kActions;
    std::uint32_t expect = 0;
    for (std::uint32_t a = 1; a < kActions; ++a) {
      if (row[a] > row[expect]) expect = a;
    }
    EXPECT_EQ(simd[r], expect) << "row=" << r;
  }
}

TEST(BatchArgmaxF64, SignedZeroAndExtremesMatchScalar) {
  constexpr std::size_t kActions = 3;
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> values = {
      -0.0, 0.0,  -0.0,                // all compare equal -> index 0
      0.0,  -0.0, 0.0,                 //
      -inf, -1e300, 1e300,             //
      1e300, inf,  inf,                //
      -inf, -inf, -inf,                //
      5e-324, 0.0, -5e-324,            // subnormals
  };
  const std::size_t rows = values.size() / kActions;
  const auto states = all_states(rows);
  std::vector<std::uint32_t> simd(rows);
  std::vector<std::uint32_t> scalar(rows);
  const double bias[kActions] = {0.05, 0.0, 0.0};
  for (const double* b : {static_cast<const double*>(nullptr), bias}) {
    rl::batch_argmax_f64(values.data(), kActions, b, states.data(), rows,
                         simd.data());
    rl::batch_argmax_f64_scalar(values.data(), kActions, b, states.data(),
                                rows, scalar.data());
    for (std::size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(simd[r], scalar[r]) << "row=" << r << " bias=" << (b != nullptr);
    }
  }
}

// The 4-lane kernel has a scalar tail; every remainder (and the
// empty batch) must agree with the all-scalar reference.
TEST(BatchArgmaxF64, EveryBatchRemainderMatchesScalar) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  constexpr std::size_t kActions = 3;
  constexpr std::size_t kStates = 240;
  std::vector<double> values(kStates * kActions);
  for (auto& v : values) v = dist(rng);
  const double bias[kActions] = {0.05, 0.0, 0.0};
  std::vector<std::uint64_t> states;
  std::uniform_int_distribution<std::uint64_t> pick(0, kStates - 1);
  for (std::size_t n = 0; n <= 19; ++n) {
    states.resize(n);
    for (auto& s : states) s = pick(rng);
    std::vector<std::uint32_t> simd(n, 0xAAu);
    std::vector<std::uint32_t> scalar(n, 0xBBu);
    rl::batch_argmax_f64(values.data(), kActions, bias, states.data(), n,
                         simd.data());
    rl::batch_argmax_f64_scalar(values.data(), kActions, bias, states.data(),
                                n, scalar.data());
    EXPECT_EQ(simd, scalar) << "count=" << n;
  }
}

// Agent-level contract: greedy_actions must equal greedy_action per state,
// bias and tie-break included, for both agent families.
TEST(BatchArgmax, FloatAgentBatchedMatchesPerState) {
  rl::QLearningConfig config;
  config.seed = 3;
  rl::QLearningAgent agent(config, 240, 3);
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  std::uniform_int_distribution<int> level(0, 3);
  for (std::size_t s = 0; s < 240; ++s) {
    for (std::size_t a = 0; a < 3; ++a) {
      // Mix continuous values and coarse levels so ties occur.
      agent.set_q_value(s, a, (s % 2) ? dist(rng) : 0.5 * level(rng));
    }
  }
  agent.set_action_bias({0.05, 0.0, 0.0});
  const auto states = all_states(240);
  std::vector<std::uint32_t> batched(states.size());
  agent.greedy_actions(states.data(), states.size(), batched.data());
  for (std::size_t s = 0; s < 240; ++s) {
    EXPECT_EQ(batched[s], static_cast<std::uint32_t>(agent.greedy_action(s)))
        << "state=" << s;
  }
}

TEST(BatchArgmax, FixedAgentBatchedMatchesPerState) {
  rl::FixedAgentConfig config;
  rl::FixedPointQAgent agent(config, 240, 3);
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> dist(-30.0, 30.0);  // saturates some
  for (std::size_t s = 0; s < 240; ++s) {
    for (std::size_t a = 0; a < 3; ++a) {
      agent.set_q_value(s, a, dist(rng));
    }
  }
  agent.set_action_bias({0.05, 0.0, 0.0});
  const auto states = all_states(240);
  std::vector<std::uint32_t> batched(states.size());
  agent.greedy_actions(states.data(), states.size(), batched.data());
  for (std::size_t s = 0; s < 240; ++s) {
    EXPECT_EQ(batched[s], static_cast<std::uint32_t>(agent.greedy_action(s)))
        << "state=" << s;
  }
}

// Agent-level: the Double Q branch of greedy_actions must equal
// greedy_action per state even when the two tables diverge.
TEST(BatchArgmax, DoubleQBatchedMatchesPerState) {
  rl::QLearningConfig config;
  config.algorithm = rl::TdAlgorithm::DoubleQ;
  rl::QLearningAgent agent(config, 120, 3);
  std::mt19937_64 rng(19);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::uniform_int_distribution<int> level(0, 2);
  for (std::size_t s = 0; s < 120; ++s) {
    for (std::size_t a = 0; a < 3; ++a) {
      agent.set_q_value(s, a, (s % 2) ? dist(rng) : 0.5 * level(rng));
      // Desynchronize table A from table B so the mean really matters.
      agent.table().set(s, a, (s % 3) ? dist(rng) : 0.5 * level(rng));
    }
  }
  for (const std::vector<double>& bias :
       {std::vector<double>{}, std::vector<double>{0.05, 0.0, 0.0}}) {
    agent.set_action_bias(bias);
    const auto states = all_states(120);
    std::vector<std::uint32_t> batched(states.size());
    agent.greedy_actions(states.data(), states.size(), batched.data());
    for (std::size_t s = 0; s < 120; ++s) {
      EXPECT_EQ(batched[s], static_cast<std::uint32_t>(agent.greedy_action(s)))
          << "state=" << s << " bias=" << !bias.empty();
    }
  }
}

TEST(BatchArgmax, BackendNameIsKnown) {
  const std::string backend = rl::batch_argmax_backend();
  EXPECT_TRUE(backend == "avx2" || backend == "scalar") << backend;
}

}  // namespace
}  // namespace pmrl
