// Budgeted-fleet behavior: determinism of the caps and aggregates across
// --jobs and --block (matching the unbudgeted identity-test pattern),
// cap-step propagation through a 10^5-device fleet within a bounded epoch
// count, the in-place cap veto actually holding the fleet under the cap,
// and a cap with headroom changing nothing.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "fleet/fleet_engine.hpp"

namespace fleet = pmrl::fleet;

namespace {

fleet::FleetConfig small_budgeted_config() {
  fleet::FleetConfig config;
  config.devices = 512;
  config.seed = 17;
  config.archetypes = 8;
  config.duration_s = 2.0;
  config.block_size = 64;
  config.jobs = 1;
  config.record_devices = true;
  config.record_epochs = true;
  config.budget.global_cap_w = 4000.0;  // unconstraining at t = 0
  config.budget.policy = "demand";
  config.budget.groups = 8;
  config.budget.schedule = {{1.0, 400.0}};  // 10x step mid-run
  return config;
}

void expect_identical(const fleet::FleetResult& a,
                      const fleet::FleetResult& b,
                      const std::string& what) {
  SCOPED_TRACE(what);
  // Bitwise: these are fixed-order reductions, not approximations.
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.demand, b.demand);
  EXPECT_EQ(a.violation_epochs, b.violation_epochs);
  EXPECT_EQ(a.battery_depleted, b.battery_depleted);
  EXPECT_EQ(a.budget.over_cap_device_epochs, b.budget.over_cap_device_epochs);
  EXPECT_EQ(a.budget.settle_epochs, b.budget.settle_epochs);
  EXPECT_EQ(a.device_caps_w, b.device_caps_w);
  ASSERT_EQ(a.epoch_series.size(), b.epoch_series.size());
  for (std::size_t e = 0; e < a.epoch_series.size(); ++e) {
    EXPECT_EQ(a.epoch_series[e].energy_j, b.epoch_series[e].energy_j)
        << "epoch " << e;
    EXPECT_EQ(a.epoch_series[e].served, b.epoch_series[e].served);
    EXPECT_EQ(a.epoch_series[e].violations, b.epoch_series[e].violations);
    EXPECT_EQ(a.epoch_series[e].cap_w, b.epoch_series[e].cap_w);
    EXPECT_EQ(a.epoch_series[e].over_cap, b.epoch_series[e].over_cap);
  }
}

TEST(BudgetFleet, AggregatesAndCapsAreBitIdenticalAcrossJobs) {
  fleet::FleetConfig serial = small_budgeted_config();
  fleet::FleetConfig farmed = small_budgeted_config();
  farmed.jobs = 4;
  const fleet::FleetResult a = fleet::FleetEngine(serial).run();
  const fleet::FleetResult b = fleet::FleetEngine(farmed).run();
  expect_identical(a, b, "jobs 1 vs 4");
  EXPECT_TRUE(a.budget.audit_error.empty()) << a.budget.audit_error;
}

TEST(BudgetFleet, RlPolicyCapsAreBitIdenticalAcrossJobs) {
  fleet::FleetConfig serial = small_budgeted_config();
  serial.budget.policy = "rl";
  fleet::FleetConfig farmed = serial;
  farmed.jobs = 4;
  const fleet::FleetResult a = fleet::FleetEngine(serial).run();
  const fleet::FleetResult b = fleet::FleetEngine(farmed).run();
  expect_identical(a, b, "rl policy, jobs 1 vs 4");
}

TEST(BudgetFleet, CapsAndDeviceOutcomesAreBitIdenticalAcrossBlockSizes) {
  fleet::FleetConfig small_blocks = small_budgeted_config();
  fleet::FleetConfig big_blocks = small_budgeted_config();
  big_blocks.block_size = 512;
  const fleet::FleetResult a = fleet::FleetEngine(small_blocks).run();
  const fleet::FleetResult b = fleet::FleetEngine(big_blocks).run();
  // Per-device state is partition-independent: the demand column is written
  // per device and the apportionment is a serial pass over it.
  ASSERT_EQ(a.device_caps_w.size(), b.device_caps_w.size());
  EXPECT_EQ(a.device_caps_w, b.device_caps_w);
  ASSERT_EQ(a.device_outcomes.size(), b.device_outcomes.size());
  for (std::size_t d = 0; d < a.device_outcomes.size(); ++d) {
    EXPECT_EQ(a.device_outcomes[d].energy_j, b.device_outcomes[d].energy_j)
        << "device " << d;
    EXPECT_EQ(a.device_outcomes[d].served, b.device_outcomes[d].served);
    EXPECT_EQ(a.device_outcomes[d].violations,
              b.device_outcomes[d].violations);
  }
  // Counting aggregates are exact; fp sums regroup across block partials.
  EXPECT_EQ(a.violation_epochs, b.violation_epochs);
  EXPECT_EQ(a.budget.over_cap_device_epochs, b.budget.over_cap_device_epochs);
  EXPECT_EQ(a.budget.settle_epochs, b.budget.settle_epochs);
  EXPECT_NEAR(a.energy_j, b.energy_j, 1e-9 * a.energy_j);
  EXPECT_NEAR(a.served, b.served, 1e-9 * a.served);
}

TEST(BudgetFleet, RepeatedRunsAreIdentical) {
  fleet::FleetEngine engine(small_budgeted_config());
  const fleet::FleetResult a = engine.run();
  const fleet::FleetResult b = engine.run();
  expect_identical(a, b, "run twice on one engine");
}

TEST(BudgetFleet, EpochSeriesTracksTheCapSchedule) {
  fleet::FleetConfig config = small_budgeted_config();
  const fleet::FleetResult r = fleet::FleetEngine(config).run();
  ASSERT_EQ(r.epoch_series.size(), 20u);
  // Step at t = 1.0 s lands on epoch 10 (epochs start at e * 0.1 s).
  for (std::size_t e = 0; e < 10; ++e) {
    EXPECT_DOUBLE_EQ(r.epoch_series[e].cap_w, 4000.0) << "epoch " << e;
  }
  for (std::size_t e = 10; e < 20; ++e) {
    EXPECT_DOUBLE_EQ(r.epoch_series[e].cap_w, 400.0) << "epoch " << e;
  }
  EXPECT_EQ(r.budget.cap_steps, 1u);
  EXPECT_EQ(r.budget.last_step_epoch, 10u);
  EXPECT_DOUBLE_EQ(r.budget.requested_cap_w, 400.0);
}

TEST(BudgetFleet, FleetSettlesUnderTheSteppedCap) {
  for (const char* policy : {"uniform", "demand", "rl"}) {
    SCOPED_TRACE(policy);
    fleet::FleetConfig config = small_budgeted_config();
    config.duration_s = 4.0;
    config.budget.policy = policy;
    const fleet::FleetResult r = fleet::FleetEngine(config).run();
    ASSERT_GE(r.budget.settle_epochs, 0);
    // The governor can only descend one OPP per epoch, so the bound is the
    // OPP table depth plus slack — not a tuning constant.
    EXPECT_LE(r.budget.settle_epochs, 25);
    // Once settled, epoch power stays at or under the effective cap.
    const std::size_t settled =
        r.budget.last_step_epoch +
        static_cast<std::size_t>(r.budget.settle_epochs);
    for (std::size_t e = settled; e < r.epoch_series.size(); ++e) {
      const double power_w = r.epoch_series[e].energy_j / 0.1;
      EXPECT_LE(power_w, r.epoch_series[e].cap_w * 1.02) << "epoch " << e;
    }
    EXPECT_TRUE(r.budget.audit_error.empty()) << r.budget.audit_error;
  }
}

// The acceptance-scale scenario: a 10x global-cap step-change propagating
// through a 10^5-device fleet must settle within a bounded number of
// epochs and must not collapse QoS.
TEST(BudgetFleet, CapStepPropagatesThroughAHundredThousandDevices) {
  fleet::FleetConfig config;
  config.devices = 100000;
  config.seed = 1;
  config.duration_s = 3.0;
  config.jobs = 4;
  config.record_epochs = true;
  config.budget.global_cap_w = 800000.0;  // 8 W/device: unconstraining
  config.budget.policy = "demand";
  config.budget.groups = 8;
  config.budget.schedule = {{1.0, 80000.0}};  // 10x step at t = 1 s
  const fleet::FleetResult r = fleet::FleetEngine(config).run();

  EXPECT_TRUE(r.budget.audit_error.empty()) << r.budget.audit_error;
  EXPECT_EQ(r.budget.cap_steps, 1u);
  ASSERT_GE(r.budget.settle_epochs, 0) << "fleet never got under the cap";
  EXPECT_LE(r.budget.settle_epochs, 25);
  // No QoS collapse: the capped fleet still serves a substantial fraction
  // of demand (the free fleet serves ~0.94; a hard 10x clamp costs real
  // throughput but must not zero it out).
  EXPECT_GT(r.served / r.demand, 0.4);
  EXPECT_LT(r.violation_rate, 0.9);
}

// A cap with headroom vetoes nothing: no device is over its cap and no
// step-up crosses it, so the budgeted run — per-epoch apportion, epoch-major
// rounds and the in-place veto — matches the same fleet run unbudgeted, bit
// for bit.
TEST(BudgetFleet, CapWithHeadroomMatchesTheUnbudgetedRun) {
  fleet::FleetConfig budgeted = small_budgeted_config();
  budgeted.budget.global_cap_w = 1e12;
  budgeted.budget.schedule.clear();
  fleet::FleetConfig free = budgeted;
  free.budget = pmrl::budget::BudgetSpec{};
  const fleet::FleetResult a = fleet::FleetEngine(budgeted).run();
  const fleet::FleetResult b = fleet::FleetEngine(free).run();
  ASSERT_TRUE(a.budget.enabled);
  ASSERT_EQ(a.device_outcomes.size(), b.device_outcomes.size());
  for (std::size_t d = 0; d < a.device_outcomes.size(); ++d) {
    EXPECT_EQ(a.device_outcomes[d], b.device_outcomes[d]) << "device " << d;
  }
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.demand, b.demand);
  EXPECT_EQ(a.violation_epochs, b.violation_epochs);
  EXPECT_EQ(a.budget.over_cap_device_epochs, 0u);
}

TEST(BudgetFleet, UnbudgetedRunsAreUntouchedByTheBudgetPlumbing) {
  fleet::FleetConfig config = small_budgeted_config();
  config.budget = pmrl::budget::BudgetSpec{};  // disabled
  const fleet::FleetResult r = fleet::FleetEngine(config).run();
  EXPECT_FALSE(r.budget.enabled);
  EXPECT_EQ(r.budget.settle_epochs, -1);
  EXPECT_TRUE(r.device_caps_w.empty());
  for (const auto& p : r.epoch_series) {
    EXPECT_EQ(p.cap_w, 0.0);
    EXPECT_EQ(p.over_cap, 0u);
  }
}

}  // namespace
