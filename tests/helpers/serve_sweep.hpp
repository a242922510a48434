#pragma once
// Test helper: asks a running PolicyServer for every (agent, state) over
// one client connection and checks each answer against the greedy action
// of the governor that should be serving that connection's arm.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "rl/rl_governor.hpp"

namespace pmrl::test {

/// `client` is a serve::Client or serve::ShmClient. `canary` is the arm
/// flag every answer must carry.
template <typename ClientT>
void expect_serves_greedy(ClientT& client, const rl::RlGovernor& governor,
                          bool canary) {
  const std::size_t states = governor.agent(0).state_count();
  std::size_t wrong = 0;
  std::string first;
  for (std::uint32_t agent = 0; agent < governor.agent_count(); ++agent) {
    for (std::uint64_t state = 0; state < states; ++state) {
      const auto result = client.query(state, agent);
      const auto expected = governor.agent(agent).greedy_action(state);
      if (result.action != expected || result.canary != canary ||
          result.safe_default) {
        if (wrong++ == 0) {
          first = "agent " + std::to_string(agent) + " state " +
                  std::to_string(state) + ": action " +
                  std::to_string(result.action) + " (want " +
                  std::to_string(expected) + "), canary " +
                  std::to_string(result.canary) + ", safe_default " +
                  std::to_string(result.safe_default);
        }
      }
    }
  }
  EXPECT_EQ(wrong, 0u) << "first mismatch: " << first;
}

}  // namespace pmrl::test
