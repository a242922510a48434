// Canary rollout loopback integration: a PolicyServer backed by a policy
// registry stages a candidate at 50%, routes connections deterministically,
// and the client outcome reports drive the verdict — a worse candidate
// must auto-rollback within the settle window with zero connection drops,
// a better one must promote. After every transition both cohorts are swept
// over every (agent, state) against the governor their arm should serve.
// Credit and verdicts bind to the candidate that decided: a report on an
// earlier candidate's answer or on a safe default earns no credit, a
// verdict on a candidate that was staged away is dropped, and that
// candidate goes back to candidate status in the registry.
// Runs whole under TSan with the rest of test_serve
// (acceptor/worker/report/verdict thread choreography).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "../helpers/serve_sweep.hpp"
#include "policy/registry.hpp"
#include "policy/rollout.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace pmrl::serve {

/// Test-only seam into the verdict path.
struct PolicyServerTestPeer {
  /// Applies `decision` as if a report had just closed the deciding
  /// window of candidate `version`.
  static void finish_rollout(PolicyServer& server,
                             policy::RolloutDecision decision,
                             std::uint64_t version) {
    server.finish_rollout(decision, version);
  }
  /// The rollout evaluator; read it only while no report is in flight.
  static const policy::RolloutController& rollout(
      const PolicyServer& server) {
    return server.rollout_;
  }
};

}  // namespace pmrl::serve

namespace pmrl {
namespace {

using namespace std::chrono_literals;

std::string test_socket_path() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "pmrl_cn_" + std::to_string(::getpid()) +
         "_" + info->name() + ".sock";
}

std::filesystem::path test_registry_dir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("pmrl_canary_" + std::to_string(::getpid()) + "_" + info->name());
  std::filesystem::remove_all(dir);
  return dir;
}

/// Governor whose greedy move at state 7 on every agent is `action`.
rl::RlGovernor marked_governor(std::size_t action) {
  rl::RlGovernor governor(rl::RlGovernorConfig{}, 2);
  for (std::size_t agent = 0; agent < governor.agent_count(); ++agent) {
    governor.agent(agent).set_q_value(7, action, 5.0);
  }
  return governor;
}

/// Registry with v1 = incumbent (promoted, action 1 at state 7) and
/// v2 = candidate (action 2 at state 7).
void seed_registry(const std::filesystem::path& dir) {
  policy::PolicyRegistry registry(dir);
  policy::PolicyMeta meta;
  meta.train_seed = 1;
  ASSERT_EQ(registry.add(marked_governor(1), meta), 1u);
  registry.promote(1);
  meta.parent_version = 1;
  ASSERT_EQ(registry.add(marked_governor(2), meta), 2u);
}

serve::ServerConfig canary_config(const std::filesystem::path& dir) {
  serve::ServerConfig config;
  config.uds_path = test_socket_path();
  config.workers = 2;
  config.batch_max = 16;
  config.queue_capacity = 64;
  config.request_timeout = 5s;
  config.registry_dir = dir.string();
  config.rollout.canary_pct = 50.0;
  config.rollout.regression_threshold = 0.05;
  config.rollout.window_reports = 8;
  config.rollout.settle_windows = 2;
  return config;
}

constexpr int kClients = 8;

/// Registry entry `version`, loaded the way the server loads it.
rl::RlGovernor registry_governor(const std::filesystem::path& dir,
                                 std::uint64_t version) {
  rl::RlGovernor governor(rl::RlGovernorConfig{}, 2);
  policy::PolicyRegistry(dir).load(version, governor);
  return governor;
}

/// Sweeps the first connection of each cohort: incumbent-cohort answers
/// come from `incumbent`; canary-cohort answers from `candidate` when one
/// serves, else from `incumbent` without the canary flag.
void expect_cohorts_serve(std::vector<serve::Client>& clients,
                          const std::vector<bool>& canary,
                          const rl::RlGovernor& incumbent,
                          const rl::RlGovernor* candidate) {
  for (const bool cohort : {false, true}) {
    for (std::size_t i = 0; i < clients.size(); ++i) {
      if (canary[i] != cohort) continue;
      const bool on_candidate = cohort && candidate != nullptr;
      test::expect_serves_greedy(clients[i],
                                 on_candidate ? *candidate : incumbent,
                                 on_candidate);
      break;
    }
  }
}

/// Connects kClients, learns each connection's arm from the response flag,
/// and asserts the incumbent/candidate actions are served as staged.
void connect_and_split(const serve::ServerConfig& config,
                       std::vector<serve::Client>& clients,
                       std::vector<bool>& canary) {
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(serve::Client::connect_uds(config.uds_path));
  }
  int candidates = 0;
  for (auto& client : clients) {
    const auto result = client.query(7);
    canary.push_back(result.canary);
    EXPECT_EQ(result.action, result.canary ? 2u : 1u);
    candidates += result.canary ? 1 : 0;
  }
  // The 50% hash over accept sequences 0..7 must split the cohort; both
  // arms are required for windows to close (deterministic per salt).
  ASSERT_GT(candidates, 0);
  ASSERT_LT(candidates, kClients);
}

/// Sends one report per connection per round until the rollout reaches
/// `target` or the round budget runs out. Candidate-arm connections report
/// `candidate_energy` per unit QoS; incumbent connections report 1.0.
void drive_reports(std::vector<serve::Client>& clients,
                   const std::vector<bool>& canary, double candidate_energy,
                   policy::RolloutState target) {
  const auto want = static_cast<std::uint8_t>(target);
  for (int round = 0; round < 32; ++round) {
    for (int i = 0; i < kClients; ++i) {
      const auto ack =
          clients[i].report(canary[i] ? candidate_energy : 1.0, 1.0);
      if (ack.rollout_state == want) return;
    }
  }
  FAIL() << "no verdict after 32 report rounds";
}

TEST(CanaryRollout, WorseCandidateAutoRollsBackWithZeroDrops) {
  const auto dir = test_registry_dir();
  seed_registry(dir);
  auto config = canary_config(dir);
  serve::PolicyServer server(config);
  server.start();
  ASSERT_TRUE(server.candidate_active());
  EXPECT_EQ(server.candidate_version(), 2u);
  EXPECT_EQ(server.rollout_state(), policy::RolloutState::Canary);

  std::vector<serve::Client> clients;
  std::vector<bool> canary;
  connect_and_split(config, clients, canary);
  // The incumbent came from the registry's CURRENT pointer.
  const auto incumbent = registry_governor(dir, 1);
  const auto candidate = registry_governor(dir, 2);
  expect_cohorts_serve(clients, canary, incumbent, &candidate);

  // Candidate spends 2x the energy per QoS: regression beyond the 5%
  // threshold in every window -> rollback after 2 settle windows.
  drive_reports(clients, canary, 2.0, policy::RolloutState::RolledBack);

  EXPECT_EQ(server.rollout_state(), policy::RolloutState::RolledBack);
  EXPECT_FALSE(server.candidate_active());
  EXPECT_EQ(server.rollbacks(), 1u);
  EXPECT_EQ(server.promotions(), 0u);

  // Zero connection drops: every connection — including the canary
  // cohort — keeps serving on the same socket, now from the incumbent.
  for (auto& client : clients) {
    const auto result = client.query(7);
    EXPECT_EQ(result.action, 1u);
    EXPECT_FALSE(result.canary);
  }
  expect_cohorts_serve(clients, canary, incumbent, nullptr);

  // The registry recorded the verdict; CURRENT still names the incumbent.
  policy::PolicyRegistry registry(dir);
  EXPECT_EQ(registry.meta(2)->status, policy::PolicyStatus::RolledBack);
  EXPECT_EQ(*registry.current(), 1u);

  // SIGHUP (request_reload) stages the next candidate from the registry.
  policy::PolicyMeta meta;
  meta.parent_version = 1;
  ASSERT_EQ(registry.add(marked_governor(0), meta), 3u);
  EXPECT_TRUE(server.request_reload());
  EXPECT_TRUE(server.candidate_active());
  EXPECT_EQ(server.candidate_version(), 3u);
  EXPECT_EQ(server.rollout_state(), policy::RolloutState::Canary);
  const auto next = registry_governor(dir, 3);
  expect_cohorts_serve(clients, canary, incumbent, &next);
  server.stop();
}

TEST(CanaryRollout, BetterCandidatePromotes) {
  const auto dir = test_registry_dir();
  seed_registry(dir);
  auto config = canary_config(dir);
  serve::PolicyServer server(config);
  server.start();
  ASSERT_TRUE(server.candidate_active());

  std::vector<serve::Client> clients;
  std::vector<bool> canary;
  connect_and_split(config, clients, canary);
  const auto candidate = registry_governor(dir, 2);
  expect_cohorts_serve(clients, canary, registry_governor(dir, 1),
                       &candidate);

  // Candidate spends 10% less energy per QoS: healthy windows -> promote.
  drive_reports(clients, canary, 0.9, policy::RolloutState::Promoted);

  EXPECT_EQ(server.rollout_state(), policy::RolloutState::Promoted);
  EXPECT_FALSE(server.candidate_active());
  EXPECT_EQ(server.promotions(), 1u);
  EXPECT_EQ(server.rollbacks(), 0u);

  // The candidate is the incumbent now: every connection gets its action,
  // with no canary flag.
  for (auto& client : clients) {
    const auto result = client.query(7);
    EXPECT_EQ(result.action, 2u);
    EXPECT_FALSE(result.canary);
  }
  expect_cohorts_serve(clients, canary, candidate, nullptr);
  policy::PolicyRegistry registry(dir);
  EXPECT_EQ(registry.meta(2)->status, policy::PolicyStatus::Promoted);
  EXPECT_EQ(*registry.current(), 2u);
  server.stop();
}

// The incumbent named by CURRENT must load; a damaged one stops start()
// instead of serving a fresh-init policy to every connection.
TEST(CanaryRollout, StartRejectsUnloadableCurrent) {
  const auto dir = test_registry_dir();
  seed_registry(dir);
  {
    std::ofstream out(policy::PolicyRegistry(dir).policy_path(1));
    out << "truncated";
  }
  serve::PolicyServer server(canary_config(dir));
  EXPECT_THROW(server.start(), serve::PolicyRejectedError);
  EXPECT_FALSE(server.running());
}

/// Registers v3 (action 0 at state 7) and stages it the way SIGHUP does.
void stage_v3(const std::filesystem::path& dir, serve::PolicyServer& server) {
  policy::PolicyRegistry registry(dir);
  policy::PolicyMeta meta;
  meta.parent_version = 1;
  ASSERT_EQ(registry.add(marked_governor(0), meta), 3u);
  ASSERT_TRUE(server.request_reload());
  ASSERT_EQ(server.candidate_version(), 3u);
}

// A report about an answer candidate v2 made, arriving after v3 was staged,
// counts for neither arm; once v3 has answered, the reports are v3's.
TEST(CanaryRollout, ReportOnAnEarlierCandidatesAnswerIsNotCredited) {
  const auto dir = test_registry_dir();
  seed_registry(dir);
  auto config = canary_config(dir);
  config.rollout.canary_pct = 100.0;
  serve::PolicyServer server(config);
  server.start();
  auto client = serve::Client::connect_uds(config.uds_path);
  const auto answer = client.query(7);
  ASSERT_EQ(answer.action, 2u);
  ASSERT_TRUE(answer.canary);
  ASSERT_NO_FATAL_FAILURE(stage_v3(dir, server));
  EXPECT_FALSE(client.report(1.0, 1.0).candidate_arm);
  const auto next = client.query(7);
  EXPECT_EQ(next.action, 0u);
  EXPECT_TRUE(next.canary);
  EXPECT_TRUE(client.report(1.0, 1.0).candidate_arm);
  server.stop();
}

// A shed query gets the safe default, which no policy decided: a report
// about it counts for neither arm, and the next candidate answer earns
// credit again.
TEST(CanaryRollout, ReportOnASafeDefaultIsNotCredited) {
  const auto dir = test_registry_dir();
  seed_registry(dir);
  auto config = canary_config(dir);
  config.rollout.canary_pct = 100.0;
  config.workers = 1;
  config.queue_capacity = 1;
  serve::PolicyServer server(config);
  server.start();
  auto client = serve::Client::connect_uds(config.uds_path);
  ASSERT_TRUE(client.query(7).canary);
  server.pause_workers();
  const std::uint64_t queued = client.send_query(7);
  (void)client.send_query(7);  // the queue is full: shed
  ASSERT_TRUE(client.recv_response().flags & serve::kRespSafeDefault);
  EXPECT_FALSE(client.report(1.0, 1.0).candidate_arm);
  server.resume_workers();
  const auto answer = client.recv_response();
  EXPECT_EQ(answer.request_id, queued);
  EXPECT_EQ(answer.flags, serve::kRespCanary);
  EXPECT_TRUE(client.report(1.0, 1.0).candidate_arm);
  server.stop();
}

// A verdict reached on v2's windows lands after v3 was staged: v3 keeps
// serving with fresh windows, the registry records no verdict for it, and
// CURRENT still names the incumbent.
TEST(CanaryRollout, VerdictOnAnEarlierCandidateIsDropped) {
  const auto dir = test_registry_dir();
  seed_registry(dir);
  auto config = canary_config(dir);
  config.rollout.canary_pct = 100.0;
  serve::PolicyServer server(config);
  server.start();
  auto client = serve::Client::connect_uds(config.uds_path);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.query(7).canary);
    ASSERT_TRUE(client.report(1.0, 1.0).candidate_arm);
  }
  ASSERT_NO_FATAL_FAILURE(stage_v3(dir, server));
  for (const auto decision :
       {policy::RolloutDecision::Promote, policy::RolloutDecision::Rollback}) {
    serve::PolicyServerTestPeer::finish_rollout(server, decision, 2);
  }

  EXPECT_EQ(server.candidate_version(), 3u);
  EXPECT_EQ(server.rollout_state(), policy::RolloutState::Canary);
  EXPECT_EQ(server.promotions(), 0u);
  EXPECT_EQ(server.rollbacks(), 0u);
  test::expect_serves_greedy(client, registry_governor(dir, 3), true);
  const auto& rollout = serve::PolicyServerTestPeer::rollout(server);
  EXPECT_EQ(rollout.candidate_version(), 3u);
  EXPECT_EQ(rollout.arm_reports(true) + rollout.arm_reports(false), 0u);
  EXPECT_EQ(rollout.windows_evaluated(), 0u);
  policy::PolicyRegistry registry(dir);
  EXPECT_EQ(registry.meta(3)->status, policy::PolicyStatus::Canary);
  EXPECT_EQ(registry.current(), 1u);
  server.stop();
}

// A canary staged away before its verdict goes back to the candidates, and
// a later reload does not stage that older entry over the newer canary: the
// registry keeps exactly one canary, the one being served.
TEST(CanaryRollout, CanaryStagedAwayBeforeItsVerdictReturnsToCandidate) {
  const auto dir = test_registry_dir();
  seed_registry(dir);
  serve::PolicyServer server(canary_config(dir));
  server.start();
  ASSERT_EQ(server.candidate_version(), 2u);
  ASSERT_NO_FATAL_FAILURE(stage_v3(dir, server));
  policy::PolicyRegistry registry(dir);
  EXPECT_EQ(registry.meta(2)->status, policy::PolicyStatus::Candidate);
  EXPECT_EQ(registry.meta(3)->status, policy::PolicyStatus::Canary);

  EXPECT_TRUE(server.request_reload());
  EXPECT_EQ(server.candidate_version(), 3u);
  EXPECT_EQ(server.rollout_state(), policy::RolloutState::Canary);
  std::vector<std::uint64_t> canaries;
  for (const auto& entry : registry.list()) {
    if (entry.status == policy::PolicyStatus::Canary) {
      canaries.push_back(entry.version);
    }
  }
  EXPECT_EQ(canaries, std::vector<std::uint64_t>{3});
  server.stop();
}

TEST(CanaryRollout, ZeroPctStagesNothing) {
  const auto dir = test_registry_dir();
  seed_registry(dir);
  auto config = canary_config(dir);
  config.rollout.canary_pct = 0.0;
  serve::PolicyServer server(config);
  server.start();
  EXPECT_FALSE(server.candidate_active());
  // Reports are still acknowledged (and ignored — no canary running).
  auto client = serve::Client::connect_uds(config.uds_path);
  const auto ack = client.report(1.0, 1.0);
  EXPECT_FALSE(ack.candidate_arm);
  EXPECT_EQ(ack.rollout_state,
            static_cast<std::uint8_t>(policy::RolloutState::Idle));
  server.stop();
}

TEST(CanaryRollout, StagedCandidateServesItsSliceOverTcp) {
  const auto dir = test_registry_dir();
  seed_registry(dir);
  auto config = canary_config(dir);
  config.uds_path.clear();
  config.tcp_enable = true;
  config.tcp_port = 0;
  config.rollout.canary_pct = 100.0;  // every connection is a canary
  serve::PolicyServer server(config);
  server.start();
  ASSERT_GT(server.tcp_port(), 0);
  auto client = serve::Client::connect_tcp("127.0.0.1", server.tcp_port());
  const auto result = client.query(7);
  EXPECT_EQ(result.action, 2u);
  EXPECT_TRUE(result.canary);
  server.stop();
}

}  // namespace
}  // namespace pmrl
