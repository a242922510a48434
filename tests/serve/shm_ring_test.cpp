// serve/shm_ring.hpp: SPSC ring mechanics (wraparound, geometry
// validation), the shared-memory transport end to end against
// PolicyServer, lane lifecycle (claim/exhaust/recycle, poisoning on
// corrupt frames), and byte-for-byte decision parity across the UDS, TCP,
// and shm transports.

#include "serve/shm_ring.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "../helpers/serve_sweep.hpp"
#include "obs/metrics.hpp"
#include "rl/policy_io.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace pmrl {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kRingBytes = 1 << 17;  // minimum legal ring

std::string test_path(const std::string& suffix) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "pmrl_" + std::to_string(::getpid()) + "_" +
         info->name() + suffix;
}

serve::ServerConfig shm_config() {
  serve::ServerConfig config;
  config.shm_path = test_path(".shm");
  config.shm_lanes = 4;
  config.shm_ring_bytes = kRingBytes;
  config.shm_workers = 2;
  config.workers = 1;  // no socket listeners needed
  config.uds_path.clear();
  return config;
}

TEST(ShmRing, WrapAroundRoundTripsBytes) {
  const auto path = test_path(".shm");
  auto segment = serve::ShmSegment::create(path, 1, kRingBytes);
  serve::ShmRing ring = segment.request_ring(0);
  EXPECT_EQ(ring.capacity(), kRingBytes);
  EXPECT_EQ(ring.readable(), 0u);
  EXPECT_EQ(ring.writable(), kRingBytes);

  // Chunked writes/reads several times the capacity force the head/tail
  // indices through multiple wraps; every byte must survive in order.
  std::uint8_t write_value = 0;
  std::uint8_t read_value = 0;
  std::vector<char> chunk(40000);
  std::vector<char> got(chunk.size());
  for (int round = 0; round < 12; ++round) {
    for (auto& b : chunk) b = static_cast<char>(write_value++);
    std::size_t written = 0;
    while (written < chunk.size()) {
      written += ring.write_some(chunk.data() + written,
                                 chunk.size() - written);
      std::size_t read = 0;
      while ((read = ring.read_some(got.data(), got.size())) > 0) {
        for (std::size_t i = 0; i < read; ++i) {
          ASSERT_EQ(static_cast<std::uint8_t>(got[i]), read_value++)
              << "round=" << round;
        }
      }
    }
  }
  EXPECT_EQ(ring.readable(), 0u);
}

TEST(ShmRing, WriterStopsAtCapacity) {
  const auto path = test_path(".shm");
  auto segment = serve::ShmSegment::create(path, 1, kRingBytes);
  serve::ShmRing ring = segment.request_ring(0);
  const std::string block(kRingBytes, 'x');
  EXPECT_EQ(ring.write_some(block.data(), block.size()), kRingBytes);
  EXPECT_EQ(ring.write_some(block.data(), block.size()), 0u);  // full
  char buf[512];
  EXPECT_EQ(ring.read_some(buf, sizeof buf), sizeof buf);
  EXPECT_EQ(ring.write_some(block.data(), block.size()), sizeof buf);
}

TEST(ShmSegment, CreateRejectsBadGeometry) {
  const auto path = test_path(".shm");
  EXPECT_THROW(serve::ShmSegment::create(path, 0, kRingBytes),
               std::invalid_argument);
  EXPECT_THROW(serve::ShmSegment::create(path, 1, kRingBytes + 64),
               std::invalid_argument);  // not a power of two
  EXPECT_THROW(serve::ShmSegment::create(path, 1, kRingBytes / 2),
               std::invalid_argument);  // cannot hold a max frame
}

TEST(ShmSegment, OpenRejectsMissingOrMalformed) {
  EXPECT_THROW(serve::ShmSegment::open(test_path(".nope")),
               serve::ClientError);
  const auto path = test_path(".junk");
  {
    std::ofstream out(path);
    out << std::string(4096, 'z');
  }
  EXPECT_THROW(serve::ShmSegment::open(path), serve::ClientError);
  ::unlink(path.c_str());
}

TEST(ShmServe, QueryPingReloadAndCacheWork) {
  auto config = shm_config();
  config.policy_path = test_path(".pmrl");
  rl::RlGovernor governor(config.governor, config.cluster_count);
  for (std::size_t agent = 0; agent < governor.agent_count(); ++agent) {
    governor.agent(agent).set_q_value(9, 2, 5.0);
  }
  {
    std::ofstream out(config.policy_path);
    ASSERT_TRUE(out);
    rl::save_policy(governor, out);
  }
  serve::PolicyServer server(config);
  server.start();
  {
    serve::ShmClient client(config.shm_path);
    EXPECT_TRUE(client.ping(1234));
    EXPECT_EQ(client.query(9).action, 2u);
    test::expect_serves_greedy(client, governor, false);

    // Hot reload over the shm control path swaps the served policy.
    rl::RlGovernor reloaded(config.governor, config.cluster_count);
    for (std::size_t agent = 0; agent < reloaded.agent_count(); ++agent) {
      reloaded.agent(agent).set_q_value(9, 1, 5.0);
    }
    {
      std::ofstream out(config.policy_path);
      rl::save_policy(reloaded, out);
    }
    std::string error;
    ASSERT_TRUE(client.reload(&error)) << error;
    EXPECT_EQ(client.query(9).action, 1u);
    test::expect_serves_greedy(client, reloaded, false);
  }
  server.stop();
  ::unlink(config.policy_path.c_str());
}

// The shm client's receive buffer compacts like the socket client's; see
// PolicyServer.PipelinedAnswersSurviveReceiveCompaction.
TEST(ShmServe, PipelinedAnswersSurviveReceiveCompaction) {
  auto config = shm_config();
  rl::RlGovernor governor(config.governor, config.cluster_count);
  test::seed_varied_actions(governor);
  serve::PolicyServer server(config, &governor);
  server.start();
  {
    serve::ShmClient client(config.shm_path);
    test::expect_pipelined_greedy(client, governor, 300);
  }
  server.stop();
}

TEST(ShmServe, LanesExhaustThenRecycle) {
  auto config = shm_config();
  config.shm_lanes = 2;
  rl::RlGovernor governor(config.governor, config.cluster_count);
  governor.agent(0).set_q_value(1, 2, 5.0);
  serve::PolicyServer server(config, &governor);
  server.start();
  auto a = std::make_unique<serve::ShmClient>(config.shm_path);
  auto b = std::make_unique<serve::ShmClient>(config.shm_path);
  EXPECT_NE(a->lane(), b->lane());
  EXPECT_THROW(serve::ShmClient{config.shm_path}, serve::ClientError);
  EXPECT_EQ(a->query(1).action, 2u);
  a.reset();  // lane goes Closed; a worker recycles it to Free
  std::optional<serve::ShmClient> again;
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!again) {
    try {
      again.emplace(config.shm_path);
    } catch (const serve::ClientError&) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "lane was never recycled";
      std::this_thread::sleep_for(1ms);
    }
  }
  EXPECT_EQ(again->query(1).action, 2u);
  EXPECT_EQ(b->query(1).action, 2u);  // untouched neighbour lane
  server.stop();
}

// Bit flips across the frame (magic, version/type, length, CRC, payload)
// must poison only the offending lane: the client on it gets an Error and
// no further service; fresh lanes keep working. Mirrors the socket-side
// GarbageBytesDropOnlyThatConnection semantics.
TEST(ShmServe, CorruptFramePoisonsOnlyThatLane) {
  auto config = shm_config();
  obs::MetricsRegistry metrics;
  rl::RlGovernor governor(config.governor, config.cluster_count);
  governor.agent(0).set_q_value(1, 2, 5.0);
  serve::PolicyServer server(config, &governor);
  server.set_metrics(&metrics);
  server.start();
  std::string frame;
  serve::append_query(frame, serve::QueryMsg{77, 0, 1});
  const std::size_t flip_bytes[] = {0, 5, 8, 12, frame.size() - 1};
  for (const std::size_t byte : flip_bytes) {
    std::string corrupt = frame;
    corrupt[byte] = static_cast<char>(corrupt[byte] ^ 0x10);
    std::optional<serve::ShmClient> vandal;
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (!vandal) {  // poisoned lanes free up once the vandal detaches
      try {
        vandal.emplace(config.shm_path);
      } catch (const serve::ClientError&) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline);
        std::this_thread::sleep_for(1ms);
      }
    }
    vandal->send_raw(corrupt.data(), corrupt.size());
    EXPECT_THROW((void)vandal->recv_response(), serve::ClientError)
        << "flip at byte " << byte;
  }
  serve::ShmClient client(config.shm_path);
  EXPECT_EQ(client.query(1).action, 2u);
  EXPECT_GE(metrics.counter("serve.wire_errors").value(),
            std::size(flip_bytes));
  server.stop();
}

TEST(ShmServe, ServerStopSurfacesAsClientError) {
  auto config = shm_config();
  serve::PolicyServer server(config);
  server.start();
  serve::ShmClient client(config.shm_path);
  EXPECT_TRUE(client.ping(7));
  server.stop();
  EXPECT_THROW((void)client.query(0), serve::ClientError);
}

// The same policy must produce byte-identical decision streams (action,
// safe-default flag, canary flag) over UDS, TCP, and shm: the transport
// moves frames, it never changes a decision.
TEST(ShmServe, TransportsAreDecisionIdentical) {
  struct Step {
    std::uint64_t state;
    std::uint32_t agent;
  };
  std::vector<Step> steps;
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t s = 0; s < 24; ++s) {
      steps.push_back({s * 7 % 240, static_cast<std::uint32_t>(s % 2)});
    }
  }

  rl::RlGovernor governor(rl::RlGovernorConfig{}, 2);
  for (std::size_t agent = 0; agent < 2; ++agent) {
    for (std::size_t s = 0; s < 240; ++s) {
      governor.agent(agent).set_q_value(s, (s * 13 + agent) % 3, 2.0);
    }
  }
  auto run = [&](auto& client) {
    std::vector<std::tuple<std::uint32_t, bool, bool>> out;
    for (const Step& step : steps) {
      const auto result = client.query(step.state, step.agent);
      out.emplace_back(result.action, result.safe_default, result.canary);
    }
    return out;
  };

  serve::ServerConfig uds_config;
  uds_config.uds_path = test_path(".sock");
  uds_config.workers = 2;
  serve::PolicyServer uds_server(uds_config, &governor);
  uds_server.start();
  auto uds_client = serve::Client::connect_uds(uds_config.uds_path);
  const auto uds_out = run(uds_client);
  uds_server.stop();

  serve::ServerConfig tcp_config;
  tcp_config.uds_path.clear();
  tcp_config.tcp_enable = true;
  tcp_config.workers = 2;
  serve::PolicyServer tcp_server(tcp_config, &governor);
  tcp_server.start();
  auto tcp_client =
      serve::Client::connect_tcp("127.0.0.1", tcp_server.tcp_port());
  const auto tcp_out = run(tcp_client);
  tcp_server.stop();

  auto shm_cfg = shm_config();
  serve::PolicyServer shm_server(shm_cfg, &governor);
  shm_server.start();
  serve::ShmClient shm_client(shm_cfg.shm_path);
  const auto shm_out = run(shm_client);
  shm_server.stop();

  EXPECT_EQ(uds_out, tcp_out);
  EXPECT_EQ(uds_out, shm_out);
}

}  // namespace
}  // namespace pmrl
