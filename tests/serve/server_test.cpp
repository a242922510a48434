// PolicyServer loopback integration: request/response over UDS and TCP,
// corruption handling, hot reload (every (agent, state) swept after the
// swap), overload shedding, per-request timeout degradation, and the
// request ring (wrap-around order, connections closed with queries queued).
// Everything runs in one process over loopback sockets, so these tests
// double as the TSan gate for the acceptor/worker/reload thread
// choreography.

#include "serve/server.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "../helpers/serve_sweep.hpp"
#include "rl/policy_io.hpp"
#include "serve/client.hpp"

namespace pmrl {
namespace {

using namespace std::chrono_literals;

/// Short unique UDS path for the current test (sun_path is ~108 bytes).
std::string test_socket_path() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "pmrl_" + std::to_string(::getpid()) + "_" +
         info->name() + ".sock";
}

serve::ServerConfig base_config() {
  serve::ServerConfig config;
  config.uds_path = test_socket_path();
  config.workers = 2;
  config.batch_max = 16;
  config.queue_capacity = 64;
  config.request_timeout = 5s;  // tests that need timeouts shrink this
  return config;
}

/// Default-shape governor whose greedy move for `state` on every agent is
/// `action`, with margin far above the down-bias selection prior.
rl::RlGovernor marked_governor(std::size_t state, std::size_t action) {
  rl::RlGovernor governor(rl::RlGovernorConfig{}, 2);
  for (std::size_t agent = 0; agent < governor.agent_count(); ++agent) {
    governor.agent(agent).set_q_value(state, action, 5.0);
  }
  return governor;
}

/// Writes marked_governor(state, action) as a checkpoint.
void write_policy_file(const std::string& path, std::size_t state,
                       std::size_t action) {
  std::ofstream out(path);
  ASSERT_TRUE(out);
  rl::save_policy(marked_governor(state, action), out);
}

TEST(PolicyServer, UdsQueryReturnsGreedyAction) {
  auto config = base_config();
  const auto governor = marked_governor(7, 2);
  serve::PolicyServer server(config, &governor);
  server.start();
  auto client = serve::Client::connect_uds(config.uds_path);
  const auto result = client.query(7);
  EXPECT_EQ(result.action, 2u);
  EXPECT_FALSE(result.safe_default);
  server.stop();
}

TEST(PolicyServer, TcpQueryWorks) {
  auto config = base_config();
  config.uds_path.clear();
  config.tcp_enable = true;
  config.tcp_port = 0;  // ephemeral
  const auto governor = marked_governor(3, 2);
  serve::PolicyServer server(config, &governor);
  server.start();
  ASSERT_GT(server.tcp_port(), 0);
  auto client = serve::Client::connect_tcp("127.0.0.1", server.tcp_port());
  EXPECT_TRUE(client.ping(99));
  const auto result = client.query(3, /*agent=*/1);
  EXPECT_EQ(result.action, 2u);
  server.stop();
}

TEST(PolicyServer, BadStateAndAgentGetErrorAndConnectionSurvives) {
  auto config = base_config();
  const auto governor = marked_governor(1, 2);
  const auto states = governor.agent(0).state_count();
  serve::PolicyServer server(config, &governor);
  server.start();
  auto client = serve::Client::connect_uds(config.uds_path);
  EXPECT_THROW(client.query(states + 10), serve::ClientError);
  EXPECT_THROW(client.query(0, /*agent=*/99), serve::ClientError);
  // The frames were valid, only the payloads were out of range: the same
  // connection keeps serving.
  EXPECT_EQ(client.query(1).action, 2u);
  server.stop();
}

TEST(PolicyServer, GarbageBytesDropOnlyThatConnection) {
  auto config = base_config();
  obs::MetricsRegistry metrics;
  const auto governor = marked_governor(1, 2);
  serve::PolicyServer server(config, &governor);
  server.set_metrics(&metrics);
  server.start();
  {
    auto vandal = serve::Client::connect_uds(config.uds_path);
    const std::string garbage = "this is definitely not a PMRF frame....";
    vandal.send_raw(garbage.data(), garbage.size());
    // The server answers with an Error frame and closes; either surfaces
    // as a ClientError here.
    EXPECT_THROW(
        {
          for (;;) (void)vandal.recv_response();
        },
        serve::ClientError);
  }
  // A fresh connection is unaffected.
  auto client = serve::Client::connect_uds(config.uds_path);
  EXPECT_EQ(client.query(1).action, 2u);
  EXPECT_GE(metrics.counter("serve.wire_errors").value(), 1u);
  server.stop();
}

TEST(PolicyServer, TruncatedFrameCompletesAcrossWrites) {
  auto config = base_config();
  const auto governor = marked_governor(4, 2);
  serve::PolicyServer server(config, &governor);
  server.start();
  auto client = serve::Client::connect_uds(config.uds_path);
  std::string frame;
  serve::append_query(frame, serve::QueryMsg{123, 0, 4});
  client.send_raw(frame.data(), 10);  // mid-header
  std::this_thread::sleep_for(20ms);
  client.send_raw(frame.data() + 10, frame.size() - 10);
  const auto msg = client.recv_response();
  EXPECT_EQ(msg.request_id, 123u);
  EXPECT_EQ(msg.action, 2u);
  server.stop();
}

// 300 answers of 32 bytes pile up past the client's 4 KiB receive
// compaction threshold, so the buffer compacts while unread frames remain
// in it; every answer must still arrive whole and in its own frame.
TEST(PolicyServer, PipelinedAnswersSurviveReceiveCompaction) {
  auto config = base_config();
  config.queue_capacity = 1024;  // all 300 in flight, none shed
  rl::RlGovernor governor(config.governor, config.cluster_count);
  test::seed_varied_actions(governor);
  serve::PolicyServer server(config, &governor);
  server.start();
  auto client = serve::Client::connect_uds(config.uds_path);
  test::expect_pipelined_greedy(client, governor, 300);
  server.stop();
}

TEST(PolicyServer, ReloadSwapsPolicy) {
  auto config = base_config();
  config.policy_path = test_socket_path() + ".pmrl";
  write_policy_file(config.policy_path, 9, 2);
  serve::PolicyServer server(config);
  server.start();
  auto client = serve::Client::connect_uds(config.uds_path);
  EXPECT_EQ(client.query(9).action, 2u);
  test::expect_serves_greedy(client, marked_governor(9, 2), false);

  write_policy_file(config.policy_path, 9, 1);
  std::string error;
  ASSERT_TRUE(client.reload(&error)) << error;
  EXPECT_EQ(client.query(9).action, 1u);  // the reloaded policy answers
  test::expect_serves_greedy(client, marked_governor(9, 1), false);
  server.stop();
  ::unlink(config.policy_path.c_str());
}

// A configured checkpoint that does not load stops start(): the server
// binds nothing and serves no fresh-init policy in its place.
TEST(PolicyServer, StartRejectsMissingOrCorruptCheckpoint) {
  auto config = base_config();
  config.policy_path = test_socket_path() + ".pmrl";
  ::unlink(config.policy_path.c_str());
  {
    serve::PolicyServer server(config);
    EXPECT_THROW(server.start(), serve::PolicyRejectedError);
    EXPECT_FALSE(server.running());
  }
  {
    std::ofstream out(config.policy_path);
    out << "pmrl-policy,2,2,240,3\nnot,numbers,at,all\n";
  }
  serve::PolicyServer server(config);
  EXPECT_THROW(server.start(), serve::PolicyRejectedError);
  EXPECT_FALSE(server.running());
  EXPECT_NE(::access(config.uds_path.c_str(), F_OK), 0);
  ::unlink(config.policy_path.c_str());
}

TEST(PolicyServer, ReloadRejectsCorruptCheckpointAndKeepsServing) {
  auto config = base_config();
  config.policy_path = test_socket_path() + ".pmrl";
  write_policy_file(config.policy_path, 6, 2);
  serve::PolicyServer server(config);
  server.start();
  auto client = serve::Client::connect_uds(config.uds_path);
  EXPECT_EQ(client.query(6).action, 2u);

  // Corrupt the checkpoint on disk; the reload must reject it (CRC) and
  // keep the in-memory policy serving.
  {
    std::ofstream out(config.policy_path);
    out << "pmrl-policy,2,2,240,3\nnot,numbers,at,all\n";
  }
  std::string error;
  EXPECT_FALSE(client.reload(&error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(client.query(6).action, 2u);
  server.stop();
  ::unlink(config.policy_path.c_str());
}

TEST(PolicyServer, OverloadShedsSafeDefaultsWithoutDrops) {
  auto config = base_config();
  config.workers = 1;
  config.queue_capacity = 4;
  const auto governor = marked_governor(2, 2);
  serve::PolicyServer server(config, &governor);
  server.start();
  server.pause_workers();  // stall the drain so the queue fills

  auto client = serve::Client::connect_uds(config.uds_path);
  constexpr std::size_t kBurst = 12;
  for (std::size_t i = 0; i < kBurst; ++i) (void)client.send_query(2);

  // The overflow (burst - capacity) is shed immediately with the
  // safe-default all-hold action; the queued remainder is served for real
  // once the workers resume. No request goes unanswered, the connection
  // never drops.
  std::size_t shed = 0;
  std::vector<serve::ResponseMsg> real;
  for (std::size_t i = 0; i < kBurst - config.queue_capacity; ++i) {
    const auto msg = client.recv_response();
    EXPECT_TRUE(msg.flags & serve::kRespSafeDefault);
    EXPECT_EQ(msg.action, 0u);  // all-hold
    ++shed;
  }
  server.resume_workers();
  for (std::size_t i = 0; i < config.queue_capacity; ++i) {
    real.push_back(client.recv_response());
  }
  EXPECT_EQ(shed, kBurst - config.queue_capacity);
  for (const auto& msg : real) {
    EXPECT_FALSE(msg.flags & serve::kRespSafeDefault);
    EXPECT_EQ(msg.action, 2u);
  }
  server.stop();
}

// The request ring holds raw connection pointers. A connection that closes
// with queries still queued is parked until the ring drains, so deciding
// them after the close reads no freed connection (the ASan and TSan gate),
// and the shard goes on serving.
TEST(PolicyServer, ClosedConnectionOutlivesItsQueuedQueries) {
  auto config = base_config();
  config.workers = 1;
  const auto governor = marked_governor(3, 2);
  serve::PolicyServer server(config, &governor);
  server.start();
  server.pause_workers();
  constexpr std::size_t kQueued = 10;
  {
    auto leaver = serve::Client::connect_uds(config.uds_path);
    for (std::size_t i = 0; i < kQueued; ++i) (void)leaver.send_query(3);
  }
  // Pings are answered while paused. The shard reads the leaver's queries
  // no later than the first ping, and its close no later than the second.
  auto client = serve::Client::connect_uds(config.uds_path);
  ASSERT_TRUE(client.ping(1));
  ASSERT_TRUE(client.ping(2));
  server.resume_workers();
  const auto result = client.query(3);
  EXPECT_EQ(result.action, 2u);
  EXPECT_FALSE(result.safe_default);
  // The leaver's queries were decided after it closed, then dropped unsent.
  EXPECT_EQ(server.responses(), kQueued + 1);
  server.stop();
}

// A ring of 7 slots decided 3 at a time: a batch stops at the ring's end,
// and rounds of pipelined queries walk the head around the ring, some
// rounds over capacity. While workers are paused the first 7 of a round
// queue and the rest are shed at once; after resume_workers() the queued
// ones are answered in request order with their greedy action. Then an
// unpaused burst: every request gets exactly one answer, greedy or shed,
// and each kind arrives in request order.
TEST(PolicyServer, RequestRingWrapsInRequestOrder) {
  auto config = base_config();
  config.workers = 1;
  config.queue_capacity = 7;
  config.batch_max = 3;
  rl::RlGovernor governor(config.governor, config.cluster_count);
  test::seed_varied_actions(governor);
  const auto greedy = [&](std::uint64_t state) {
    return static_cast<std::uint32_t>(governor.agent(0).greedy_action(state));
  };
  serve::PolicyServer server(config, &governor);
  server.start();
  auto client = serve::Client::connect_uds(config.uds_path);
  const std::size_t states = governor.agent(0).state_count();
  std::uint64_t next_state = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sent;  // id, state
  const auto send_burst = [&](std::size_t count) {
    sent.clear();
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t state = (next_state++ * 7) % states;
      sent.emplace_back(client.send_query(state), state);
    }
  };
  for (const std::size_t round : {5, 12, 3, 11, 6, 10, 4, 9}) {
    server.pause_workers();
    send_burst(round);
    const std::size_t queued = std::min(round, config.queue_capacity);
    for (std::size_t i = queued; i < round; ++i) {
      const auto msg = client.recv_response();
      EXPECT_EQ(msg.request_id, sent[i].first) << "round " << round;
      EXPECT_EQ(msg.flags, serve::kRespSafeDefault);
      EXPECT_EQ(msg.action, 0u);
    }
    server.resume_workers();
    for (std::size_t i = 0; i < queued; ++i) {
      const auto msg = client.recv_response();
      EXPECT_EQ(msg.request_id, sent[i].first) << "round " << round;
      EXPECT_EQ(msg.flags, 0u);
      EXPECT_EQ(msg.action, greedy(sent[i].second));
    }
  }

  constexpr std::size_t kBurst = 200;
  send_burst(kBurst);
  std::size_t next_greedy = 0;
  std::size_t next_shed = 0;
  std::vector<int> answers(kBurst, 0);
  for (std::size_t i = 0; i < kBurst; ++i) {
    const auto msg = client.recv_response();
    const std::size_t index = msg.request_id - sent.front().first;
    ASSERT_LT(index, kBurst);
    ++answers[index];
    if (msg.flags == serve::kRespSafeDefault) {
      EXPECT_GE(index, next_shed);
      next_shed = index + 1;
      EXPECT_EQ(msg.action, 0u);
    } else {
      EXPECT_GE(index, next_greedy);
      next_greedy = index + 1;
      EXPECT_EQ(msg.flags, 0u);
      EXPECT_EQ(msg.action, greedy(sent[index].second));
    }
  }
  EXPECT_EQ(std::count(answers.begin(), answers.end(), 1),
            static_cast<std::ptrdiff_t>(kBurst));
  server.stop();
}

TEST(PolicyServer, StaleRequestsDegradeToSafeDefault) {
  auto config = base_config();
  config.workers = 1;
  config.request_timeout = 1ms;
  const auto governor = marked_governor(8, 2);
  serve::PolicyServer server(config, &governor);
  server.start();
  server.pause_workers();
  auto client = serve::Client::connect_uds(config.uds_path);
  (void)client.send_query(8);
  (void)client.send_query(8);
  std::this_thread::sleep_for(50ms);  // let both requests go stale
  server.resume_workers();
  for (int i = 0; i < 2; ++i) {
    const auto msg = client.recv_response();
    EXPECT_TRUE(msg.flags & serve::kRespSafeDefault);
    EXPECT_EQ(msg.action, 0u);
  }
  server.stop();
}

TEST(PolicyServer, MetricsAndTraceAreWired) {
  auto config = base_config();
  obs::MetricsRegistry metrics;
  obs::VectorTraceSink trace;
  const auto governor = marked_governor(5, 2);
  serve::PolicyServer server(config, &governor);
  server.set_metrics(&metrics);
  server.set_trace_sink(&trace);
  server.start();
  auto client = serve::Client::connect_uds(config.uds_path);
  for (int i = 0; i < 10; ++i) (void)client.query(5);
  server.stop();

  EXPECT_GE(metrics.counter("serve.requests").value(), 10u);
  EXPECT_GE(metrics.histogram("serve.batch_size").count(), 1u);
  EXPECT_GE(metrics.histogram("serve.latency_s").count(), 10u);
  const std::string json = metrics.to_json();
  EXPECT_NE(json.find("\"serve.latency_s\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);

  ASSERT_FALSE(trace.events().empty());
  for (const auto& event : trace.events()) {
    EXPECT_EQ(event.kind, obs::EventKind::HwInvoke);
    EXPECT_EQ(event.detail, "serve.batch");
    EXPECT_GE(event.value, 1.0);
  }
  EXPECT_GE(server.responses(), 10u);
}

// Reload hammer: clients query nonstop on every shard while the policy
// file flips between two greedy actions and reloads fire. Every answer
// must be one of the two valid actions (never a torn read), and after the
// final reload every shard must serve the final policy. This is the TSan
// gate for the snapshot publish protocol.
TEST(PolicyServer, ReloadInvalidationUnderConcurrentQueries) {
  auto config = base_config();
  config.workers = 3;
  config.policy_path = test_socket_path() + ".pmrl";
  write_policy_file(config.policy_path, 9, 1);
  serve::PolicyServer server(config);
  server.start();

  std::atomic<bool> done{false};
  std::atomic<int> bad_actions{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      try {
        auto client = serve::Client::connect_uds(config.uds_path);
        while (!done.load(std::memory_order_relaxed)) {
          const auto result = client.query(9);
          if (result.action != 1u && result.action != 2u) ++bad_actions;
        }
      } catch (const serve::ClientError&) {
        ++failures;
      }
    });
  }
  auto admin = serve::Client::connect_uds(config.uds_path);
  for (int round = 0; round < 20; ++round) {
    write_policy_file(config.policy_path, 9, (round % 2) ? 1 : 2);
    std::string error;
    ASSERT_TRUE(admin.reload(&error)) << error;
  }
  done.store(true, std::memory_order_relaxed);
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(bad_actions.load(), 0);
  EXPECT_EQ(failures.load(), 0);

  // After the last reload (odd round 19 -> action 1) no shard may still
  // answer action 2: fresh connections land on whichever shard accepts
  // first and must all see the final policy.
  for (int i = 0; i < 6; ++i) {
    auto probe = serve::Client::connect_uds(config.uds_path);
    EXPECT_EQ(probe.query(9).action, 1u);
  }
  server.stop();
  ::unlink(config.policy_path.c_str());
}

// The canary accessors are read from another thread while the test thread
// alternates reloads and stages and a client queries. Each read comes from
// one published snapshot (the TSan gate for the accessors), and only staged
// versions are ever read.
TEST(PolicyServer, CanaryAccessorsReadSafelyUnderConcurrentStages) {
  auto config = base_config();
  config.policy_path = test_socket_path() + ".pmrl";
  config.rollout.canary_pct = 50.0;
  write_policy_file(config.policy_path, 9, 1);
  serve::PolicyServer server(config);
  server.start();

  std::atomic<bool> done{false};
  std::atomic<int> bad_reads{0};
  std::atomic<int> bad_actions{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      (void)server.candidate_active();
      (void)server.responses();
      const auto state = server.rollout_state();
      if (server.candidate_version() > 10 ||
          (state != policy::RolloutState::Idle &&
           state != policy::RolloutState::Canary)) {
        ++bad_reads;
      }
    }
  });
  std::thread querier([&] {
    auto client = serve::Client::connect_uds(config.uds_path);
    while (!done.load(std::memory_order_relaxed)) {
      const auto action = client.query(9).action;
      if (action != 1u && action != 2u) ++bad_actions;
    }
  });
  for (std::uint64_t round = 0; round < 20; ++round) {
    if (round % 2 == 0) {
      server.stage_candidate(
          std::make_unique<rl::RlGovernor>(marked_governor(9, 2)),
          round / 2 + 1);
    } else {
      EXPECT_TRUE(server.request_reload());
    }
  }
  done.store(true, std::memory_order_relaxed);
  reader.join();
  querier.join();
  EXPECT_EQ(bad_reads.load(), 0);
  EXPECT_EQ(bad_actions.load(), 0);
  EXPECT_TRUE(server.candidate_active());
  EXPECT_EQ(server.candidate_version(), 10u);
  EXPECT_EQ(server.rollout_state(), policy::RolloutState::Canary);
  server.stop();
  ::unlink(config.policy_path.c_str());
}

TEST(PolicyServer, ManyConnectionsConcurrently) {
  auto config = base_config();
  config.workers = 4;
  auto governor = marked_governor(1, 2);
  governor.agent(1).set_q_value(2, 2, 5.0);
  serve::PolicyServer server(config, &governor);
  server.start();
  constexpr int kClients = 6;
  constexpr int kQueriesEach = 200;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      try {
        auto client = serve::Client::connect_uds(config.uds_path);
        for (int i = 0; i < kQueriesEach; ++i) {
          const std::uint32_t agent = t % 2;
          const std::uint64_t state = agent == 0 ? 1 : 2;
          if (client.query(state, agent).action != 2u) ++failures;
        }
      } catch (const serve::ClientError&) {
        ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  server.stop();
}

}  // namespace
}  // namespace pmrl
