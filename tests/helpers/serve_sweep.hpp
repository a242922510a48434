#pragma once
// Test helpers: ask a running PolicyServer for every (agent, state) over
// one client connection, or for a pipelined burst of states, and check
// each answer against the greedy action of the governor that should be
// serving that connection's arm.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>

#include "rl/rl_governor.hpp"
#include "serve/wire.hpp"

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

/// Gives every state of agent 0 a greedy action that varies with the
/// state, so an answer parsed from the wrong bytes shows.
inline void seed_varied_actions(rl::RlGovernor& governor) {
  auto& agent = governor.agent(0);
  for (std::size_t s = 0; s < agent.state_count(); ++s) {
    agent.set_q_value(s, s % agent.action_count(), 5.0);
  }
}

/// Sends `count` queries on agent 0 before reading any answer, so answers
/// pile up unread in the client's receive buffer past its compaction
/// threshold, then checks every answer by request id against `governor`.
template <typename ClientT>
void expect_pipelined_greedy(ClientT& client, const rl::RlGovernor& governor,
                             std::size_t count) {
  const std::size_t states = governor.agent(0).state_count();
  std::unordered_map<std::uint64_t, std::uint64_t> state_of;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t state = (i * 7) % states;
    state_of.emplace(client.send_query(state), state);
  }
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const serve::ResponseMsg msg = client.recv_response();
    const auto it = state_of.find(msg.request_id);
    if (it == state_of.end() || msg.flags != 0 ||
        msg.action != governor.agent(0).greedy_action(it->second)) {
      ++wrong;
      continue;
    }
    state_of.erase(it);
  }
  EXPECT_EQ(wrong, 0u);
  EXPECT_TRUE(state_of.empty());
}

}  // namespace pmrl::test
