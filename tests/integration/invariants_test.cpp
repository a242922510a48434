// Property sweep across every (governor, scenario) pair: physical and
// accounting invariants that must hold for any policy on any workload.

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "core/engine.hpp"
#include "governors/registry.hpp"
#include "rl/rl_governor.hpp"
#include "workload/scenarios.hpp"

namespace pmrl {
namespace {

struct SweepCase {
  std::string governor;
  workload::ScenarioKind kind;
};

// Without a printer gtest lists the parameter as raw bytes, and the bytes of
// a std::string include a heap address, so every process (and every ctest
// discovery) would name these tests differently.
void PrintTo(const SweepCase& sweep_case, std::ostream* os) {
  *os << sweep_case.governor << "/"
      << workload::scenario_kind_name(sweep_case.kind);
}

std::vector<SweepCase> all_cases() {
  std::vector<SweepCase> cases;
  auto names = governors::baseline_governor_names();
  names.push_back("schedutil");
  for (const auto& name : names) {
    for (const auto kind : workload::all_scenario_kinds()) {
      cases.push_back({name, kind});
    }
  }
  return cases;
}

class RunInvariants : public ::testing::TestWithParam<SweepCase> {};

TEST_P(RunInvariants, Hold) {
  core::EngineConfig config;
  config.duration_s = 4.0;
  core::SimEngine engine(soc::default_mobile_soc_config(), config);
  auto scenario = workload::make_scenario(GetParam().kind, 777);
  auto governor = governors::make_governor(GetParam().governor);
  const core::RunResult run = engine.run(*scenario, *governor);

  // Energy/power accounting.
  EXPECT_GT(run.energy_j, 0.0);
  EXPECT_NEAR(run.avg_power_w, run.energy_j / run.duration_s, 1e-9);
  EXPECT_GT(run.avg_power_w, 0.2);   // at least uncore static power
  EXPECT_LT(run.avg_power_w, 15.0);  // below the physical envelope

  // QoS accounting.
  EXPECT_GE(run.released, run.released_deadline);
  EXPECT_LE(run.violations, run.released_deadline);
  EXPECT_GE(run.violation_rate, 0.0);
  EXPECT_LE(run.violation_rate, 1.0);
  EXPECT_GE(run.mean_quality, 0.0);
  EXPECT_LE(run.mean_quality, 1.0);
  EXPECT_GE(run.quality, 0.0);
  EXPECT_LE(run.quality, static_cast<double>(run.completed) + 1e-9);
  EXPECT_TRUE(run.energy_per_qos > 0.0 || std::isinf(run.energy_per_qos));

  // Frequencies stay within the tables.
  ASSERT_EQ(run.mean_freq_hz.size(), 2u);
  EXPECT_GE(run.mean_freq_hz[0], 200e6 - 1.0);
  EXPECT_LE(run.mean_freq_hz[0], 1.4e9 + 1.0);
  EXPECT_GE(run.mean_freq_hz[1], 200e6 - 1.0);
  EXPECT_LE(run.mean_freq_hz[1], 2.0e9 + 1.0);

  // Thermal sanity.
  for (const double t : run.peak_temp_c) {
    EXPECT_GE(t, 25.0);
    EXPECT_LT(t, 120.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    GovernorScenarioSweep, RunInvariants, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<SweepCase>& param_info) {
      return param_info.param.governor + "_" +
             workload::scenario_kind_name(param_info.param.kind);
    });

TEST(RlInvariantsTest, ThreeDomainRunHoldsInvariants) {
  soc::SocConfig soc_config = soc::default_mobile_soc_config();
  soc_config.memory.enabled = true;
  core::EngineConfig config;
  config.duration_s = 5.0;
  core::SimEngine engine(soc_config, config);
  rl::RlGovernor governor(rl::RlGovernorConfig{}, 3);
  auto scenario =
      workload::make_scenario(workload::ScenarioKind::Gaming, 11);
  const auto run = engine.run(*scenario, governor);
  ASSERT_EQ(run.mean_freq_hz.size(), 3u);
  EXPECT_GE(run.mean_freq_hz[2], 400e6 - 1.0);
  EXPECT_LE(run.mean_freq_hz[2], 1866e6 + 1.0);
  ASSERT_EQ(run.throttled_s.size(), 3u);
  EXPECT_EQ(run.throttled_s[2], 0.0);  // memory is never thermally throttled
  EXPECT_GT(run.quality, 0.0);
}

TEST(RlInvariantsTest, EnergyOrderingUnderWorkScaling) {
  // More released work at a fixed policy must not reduce energy (monotone
  // load -> energy, a basic sanity of the execution/power coupling).
  auto energy_for = [](double rate_scale) {
    core::EngineConfig config;
    config.duration_s = 4.0;
    core::SimEngine engine(soc::default_mobile_soc_config(), config);
    class ScaledLoad : public workload::Scenario {
     public:
      explicit ScaledLoad(double scale) : scale_(scale) {}
      std::string name() const override { return "scaled"; }
      void setup(workload::WorkloadHost& host) override {
        task_ = host.create_task("t", soc::Affinity::Any, 1.0);
      }
      void tick(workload::WorkloadHost& host, double now_s,
                double dt_s) override {
        (void)dt_s;
        if (now_s >= next_) {
          host.submit(task_, 1e6 * scale_, now_s + 0.1);
          next_ += 0.01;
        }
      }

     private:
      double scale_;
      soc::TaskId task_ = 0;
      double next_ = 0.0;
    };
    ScaledLoad scenario(rate_scale);
    auto governor = governors::make_governor("ondemand");
    return engine.run(scenario, *governor).energy_j;
  };
  // Scales chosen so even the heaviest rate (0.4e9 ref-cycles/s) fits a
  // single little core at its top OPP — otherwise the runs saturate and
  // become identical.
  const double light = energy_for(1.0);
  const double medium = energy_for(2.0);
  const double heavy = energy_for(4.0);
  EXPECT_LT(light, medium);
  EXPECT_LT(medium, heavy);
}

}  // namespace
}  // namespace pmrl
