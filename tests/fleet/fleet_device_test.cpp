// Device-model construction and single-device AoS engine behaviour.

#include <gtest/gtest.h>

#include <cmath>

#include "fleet/device_engine.hpp"
#include "fleet/device_model.hpp"
#include "fleet/policy.hpp"

namespace pmrl::fleet {
namespace {

FleetConfig small_config() {
  FleetConfig c;
  c.devices = 64;
  c.seed = 42;
  c.archetypes = 8;
  c.duration_s = 2.0;
  return c;
}

TEST(FleetDeviceModel, ArchetypesAreWellFormed) {
  const auto archs = make_archetypes(16, 7);
  ASSERT_EQ(archs.size(), 16u);
  for (const auto& a : archs) {
    ASSERT_GE(a.cluster_count, 1u);
    ASSERT_LE(a.cluster_count, kMaxClusters);
    for (std::size_t c = 0; c < a.cluster_count; ++c) {
      const auto& cl = a.clusters[c];
      EXPECT_TRUE(cl.active);
      ASSERT_GE(cl.opp_count, 2u);
      ASSERT_EQ(cl.opp_freq_hz.size(), cl.opp_count);
      ASSERT_EQ(cl.opp_cap.size(), cl.opp_count);
      ASSERT_EQ(cl.opp_dyn_w.size(), cl.opp_count);
      ASSERT_EQ(cl.opp_leak_w.size(), cl.opp_count);
      ASSERT_EQ(cl.opp_freq_bin.size(), cl.opp_count);
      // Ascending frequency; capacity tops out at exactly 1.0.
      for (std::size_t i = 1; i < cl.opp_count; ++i) {
        EXPECT_GT(cl.opp_freq_hz[i], cl.opp_freq_hz[i - 1]);
        EXPECT_GT(cl.opp_cap[i], cl.opp_cap[i - 1]);
        EXPECT_GT(cl.opp_dyn_w[i], cl.opp_dyn_w[i - 1]);
      }
      EXPECT_DOUBLE_EQ(cl.opp_cap.back(), 1.0);
      EXPECT_LT(cl.throttle_cap_index, cl.opp_count);
      for (const auto b : cl.opp_freq_bin) EXPECT_LT(b, kFreqBins);
    }
    // Inert trailing slots contribute exactly zero power.
    for (std::size_t c = a.cluster_count; c < kMaxClusters; ++c) {
      const auto& cl = a.clusters[c];
      EXPECT_FALSE(cl.active);
      const ClusterEpochDerived d =
          derive_cluster_epoch(cl, 0, 0.0, 1.0, 25.0, 4.0);
      EXPECT_EQ(d.power_w, 0.0);
      EXPECT_EQ(d.served_rate, 0.0);
      EXPECT_EQ(d.busy, 0.0);
    }
  }
}

TEST(FleetDeviceModel, ArchetypeBuildIsDeterministic) {
  const auto a = make_archetypes(8, 99);
  const auto b = make_archetypes(8, 99);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cluster_count, b[i].cluster_count);
    EXPECT_EQ(a[i].clusters[0].opp_freq_hz, b[i].clusters[0].opp_freq_hz);
    EXPECT_EQ(a[i].clusters[0].opp_dyn_w, b[i].clusters[0].opp_dyn_w);
    EXPECT_EQ(a[i].uncore_static_w, b[i].uncore_static_w);
  }
}

TEST(FleetDeviceModel, SpecOfDeviceDependsOnlyOnSeedAndIndex) {
  const auto archs = make_archetypes(8, 5);
  const auto all = make_device_specs(archs, 100, 5);
  const auto prefix = make_device_specs(archs, 10, 5);
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    EXPECT_EQ(all[i].seed, prefix[i].seed);
    EXPECT_EQ(all[i].archetype, prefix[i].archetype);
    EXPECT_EQ(all[i].battery_initial_j, prefix[i].battery_initial_j);
    EXPECT_EQ(all[i].clusters[0].demand_base, prefix[i].clusters[0].demand_base);
  }
}

TEST(FleetDeviceModel, EpochDemandIsStatelessAndBounded) {
  const auto archs = make_archetypes(4, 3);
  const auto specs = make_device_specs(archs, 4, 3);
  const DeviceClusterSpec& cs = specs[2].clusters[0];
  for (std::uint64_t e = 0; e < 200; ++e) {
    const double d1 = epoch_demand(cs, specs[2].seed, e, 0);
    const double d2 = epoch_demand(cs, specs[2].seed, e, 0);
    EXPECT_EQ(d1, d2);  // pure function: no hidden stream state
    EXPECT_GE(d1, 0.0);
    EXPECT_LE(d1, kDemandMax);
  }
}

TEST(FleetDeviceModel, LeakTempFactorMatchesSocModel) {
  // Same exponential as soc::CorePowerModel::temp_factor.
  for (double t = 25.0; t <= 105.0; t += 5.0) {
    EXPECT_DOUBLE_EQ(leak_temp_factor(0.03, t, 25.0),
                     std::exp(0.03 * (t - 25.0)))
        << "at " << t << " C";
  }
}

TEST(FleetDeviceModel, ThrottleHysteresis) {
  EXPECT_TRUE(update_throttle(false, 96.0, 95.0, 85.0));
  EXPECT_TRUE(update_throttle(true, 90.0, 95.0, 85.0));   // holds between
  EXPECT_FALSE(update_throttle(false, 90.0, 95.0, 85.0));  // stays clear
  EXPECT_FALSE(update_throttle(true, 84.0, 95.0, 85.0));
}

TEST(FleetDeviceModel, StateBinningCoversSpace) {
  for (std::uint32_t s = 0; s < kStateCount; ++s) {
    // nothing to assert per state; just bound-check a sweep of inputs
  }
  EXPECT_EQ(cluster_state(0.0, 25.0, 0), 0u);
  EXPECT_LT(cluster_state(1.0, 25.0, kFreqBins - 1), kUtilBins * kFreqBins);
  EXPECT_GE(cluster_state(0.0, 80.0, 0), kUtilBins * kFreqBins);  // hot half
  EXPECT_LT(cluster_state(1.0, 80.0, kFreqBins - 1), kStateCount);
  // Utilization slightly above 1 (EWMA overshoot is impossible, but the
  // clamp must hold anyway).
  EXPECT_LT(cluster_state(1.2, 80.0, kFreqBins - 1), kStateCount);
}

TEST(FleetDeviceEngine, RunsAndProducesSaneOutcome) {
  const FleetConfig cfg = small_config();
  const FleetTiming timing = resolve_timing(cfg);
  const auto archs = make_archetypes(cfg.archetypes, cfg.seed);
  const auto specs = make_device_specs(archs, cfg.devices, cfg.seed);
  const FleetPolicy policy = FleetPolicy::default_policy();
  for (std::size_t d = 0; d < 8; ++d) {
    DeviceEngine eng(archs[specs[d].archetype], specs[d], policy, timing);
    eng.run();
    const DeviceOutcome o = eng.outcome();
    EXPECT_GT(o.energy_j, 0.0);
    EXPECT_GT(o.served, 0.0);
    EXPECT_LE(o.served, o.demand + 1e-9);
    EXPECT_LE(o.violations, timing.epochs);
    EXPECT_GE(o.battery_j, 0.0);
    EXPECT_LE(o.battery_j, specs[d].battery_initial_j);
    const auto& arch = archs[specs[d].archetype];
    for (std::size_t c = 0; c < arch.cluster_count; ++c) {
      EXPECT_GE(o.util[c], 0.0);
      EXPECT_LE(o.util[c], 1.0 + 1e-12);
      EXPECT_GT(o.temp_c[c], 0.0);
      EXPECT_LT(o.temp_c[c], 150.0);
      EXPECT_LT(o.opp[c], arch.clusters[c].opp_count);
    }
  }
}

TEST(FleetDeviceEngine, ReplayIsBitIdentical) {
  const FleetConfig cfg = small_config();
  const FleetTiming timing = resolve_timing(cfg);
  const auto archs = make_archetypes(cfg.archetypes, cfg.seed);
  const auto specs = make_device_specs(archs, cfg.devices, cfg.seed);
  const FleetPolicy policy = FleetPolicy::default_policy();
  DeviceEngine a(archs[specs[0].archetype], specs[0], policy, timing);
  DeviceEngine b(archs[specs[0].archetype], specs[0], policy, timing);
  a.run();
  b.run();
  EXPECT_EQ(a.outcome(), b.outcome());
}

TEST(FleetDeviceModel, TimingResolution) {
  FleetConfig c;
  c.tick_s = 0.01;
  c.decision_period_s = 0.1;
  c.duration_s = 10.0;
  const FleetTiming t = resolve_timing(c);
  EXPECT_EQ(t.ticks_per_epoch, 10u);
  EXPECT_EQ(t.epochs, 100u);
  EXPECT_DOUBLE_EQ(t.epoch_s, 0.1);

  c.decision_period_s = 0.001;  // below tick
  EXPECT_THROW(resolve_timing(c), std::invalid_argument);
}

// apply_action against its rule written out here: Down stops at 0, Up
// stops at the top OPP, Hold keeps the OPP, and a throttled cluster is
// capped at throttle_cap_index. Every table length an archetype can draw
// (1..19), every OPP below it, every cap up to one past the top, every
// action, throttled and not.
TEST(FleetDeviceModel, ApplyActionMatchesTheRuleExhaustively) {
  for (std::uint32_t n = 1; n <= 19; ++n) {
    for (std::uint32_t cap = 0; cap <= n; ++cap) {
      ArchetypeCluster ac;
      ac.opp_count = n;
      ac.throttle_cap_index = cap;
      for (std::uint32_t opp = 0; opp < n; ++opp) {
        for (std::uint32_t action = 0; action < kActionCount; ++action) {
          for (const bool throttled : {false, true}) {
            std::uint32_t want = opp;
            if (action == kActionDown && opp > 0) want = opp - 1;
            if (action == kActionUp && opp + 1 < n) want = opp + 1;
            if (throttled && want > cap) want = cap;
            EXPECT_EQ(apply_action(opp, action, ac, throttled), want)
                << "opp_count " << n << " cap " << cap << " opp " << opp
                << " action " << action << " throttled " << throttled;
          }
        }
      }
    }
  }
}

// Both action tables against independent scans for every state: the greedy
// table against the greedy() scan, the {down, hold} table against a
// two-action scan of q + bias written out here.
void expect_tables_match_scans(const FleetPolicy& p) {
  const auto& bias = p.bias();
  for (std::uint32_t s = 0; s < kStateCount; ++s) {
    EXPECT_EQ(p.greedy_table()[s], p.greedy(s)) << "state " << s;
    const double down = p.q(s, kActionDown) + bias[kActionDown];
    const double hold = p.q(s, kActionHold) + bias[kActionHold];
    const std::uint32_t want = hold > down ? kActionHold : kActionDown;
    EXPECT_EQ(p.down_hold_table()[s], want) << "state " << s;
  }
}

TEST(FleetPolicyTest, GreedyMatchesBatch) {
  const FleetPolicy p = FleetPolicy::default_policy();
  std::vector<std::uint64_t> states;
  for (std::uint32_t s = 0; s < kStateCount; ++s) states.push_back(s);
  std::vector<std::uint32_t> batch(states.size());
  p.greedy_batch(states.data(), states.size(), batch.data());
  for (std::uint32_t s = 0; s < kStateCount; ++s) {
    EXPECT_EQ(batch[s], p.greedy(s)) << "state " << s;
  }
  expect_tables_match_scans(p);
  expect_tables_match_scans(FleetPolicy());
}

TEST(FleetPolicyTest, SetQRefreshesBothActionTables) {
  const FleetPolicy base = FleetPolicy::default_policy();
  FleetPolicy p = base;
  // State 5 (cool, idle, top OPP) greedily steps down; make Up the greedy
  // choice and Hold the best of {down, hold}.
  p.set_q(5, kActionUp, 5.0);
  p.set_q(5, kActionHold, 1.0);
  // State 40 (cool, busy) holds; make Down win both scans.
  p.set_q(40, kActionDown, 1.0);
  // State 70 (hot): an exact tie between down and hold after the bias
  // (0.0 + 0.02 == 0.01 + 0.01) breaks toward down.
  p.set_q(70, kActionDown, 0.0);
  p.set_q(70, kActionHold, 0.01);
  p.set_q(70, kActionUp, -1.0);
  expect_tables_match_scans(p);

  EXPECT_EQ(base.greedy_table()[5], kActionDown);
  EXPECT_EQ(p.greedy_table()[5], kActionUp);
  EXPECT_EQ(base.down_hold_table()[5], kActionDown);
  EXPECT_EQ(p.down_hold_table()[5], kActionHold);
  EXPECT_EQ(base.greedy_table()[40], kActionHold);
  EXPECT_EQ(p.greedy_table()[40], kActionDown);
  EXPECT_EQ(base.down_hold_table()[40], kActionHold);
  EXPECT_EQ(p.down_hold_table()[40], kActionDown);
  EXPECT_EQ(p.down_hold_table()[70], kActionDown);
  // The copy is independent of the policy it came from.
  expect_tables_match_scans(base);
}

TEST(FleetPolicyTest, DefaultPolicyShedsWhenHotAndIdle) {
  const FleetPolicy p = FleetPolicy::default_policy();
  // Idle, cool, fastest OPP: step down.
  EXPECT_EQ(p.greedy(cluster_state(0.05, 40.0, kFreqBins - 1)), kActionDown);
  // Saturated, cool, slowest OPP: step up.
  EXPECT_EQ(p.greedy(cluster_state(0.99, 40.0, 0)), kActionUp);
  // Saturated but hot: never step up.
  EXPECT_NE(p.greedy(cluster_state(0.99, 90.0, 2)), kActionUp);
}

}  // namespace
}  // namespace pmrl::fleet
