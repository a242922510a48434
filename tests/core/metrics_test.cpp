#include "core/metrics.hpp"

#include <gtest/gtest.h>

namespace pmrl::core {
namespace {

RunResult run_with(const std::string& scenario, double energy_per_qos,
                   double violation_rate = 0.0, double energy = 10.0) {
  RunResult run;
  run.scenario = scenario;
  run.energy_per_qos = energy_per_qos;
  run.violation_rate = violation_rate;
  run.energy_j = energy;
  run.quality = energy / energy_per_qos;
  return run;
}

PolicySummary summary_of(const std::string& name,
                         std::vector<double> epqos) {
  PolicySummary summary;
  summary.governor = name;
  int i = 0;
  for (double v : epqos) {
    summary.runs.push_back(
        run_with(std::string("s").append(std::to_string(i++)), v));
  }
  return summary;
}

TEST(PolicySummaryTest, MeansOverRuns) {
  const auto s = summary_of("x", {0.01, 0.02, 0.03});
  EXPECT_NEAR(s.mean_energy_per_qos(), 0.02, 1e-12);
  EXPECT_DOUBLE_EQ(s.mean_energy_j(), 10.0);
  EXPECT_GT(s.total_quality(), 0.0);
}

TEST(PolicySummaryTest, EmptySummaryIsZero) {
  const PolicySummary empty;
  EXPECT_EQ(empty.mean_energy_per_qos(), 0.0);
  EXPECT_EQ(empty.mean_violation_rate(), 0.0);
  EXPECT_EQ(empty.mean_energy_j(), 0.0);
  EXPECT_EQ(empty.total_quality(), 0.0);
}

TEST(ImprovementTest, RelativeToOneBaseline) {
  const auto candidate = summary_of("rl", {0.008});
  const auto baseline = summary_of("ondemand", {0.010});
  EXPECT_NEAR(energy_per_qos_improvement(candidate, baseline), 0.20, 1e-12);
  // Worse candidate -> negative improvement.
  const auto worse = summary_of("bad", {0.012});
  EXPECT_NEAR(energy_per_qos_improvement(worse, baseline), -0.20, 1e-12);
}

TEST(ImprovementTest, ZeroBaselineIsSafe) {
  const auto candidate = summary_of("rl", {0.008});
  const auto degenerate = summary_of("zero", {0.0});
  EXPECT_EQ(energy_per_qos_improvement(candidate, degenerate), 0.0);
}

TEST(ImprovementTest, MeanOfImprovements) {
  const auto candidate = summary_of("rl", {0.008});
  const std::vector<PolicySummary> baselines = {
      summary_of("a", {0.010}),  // 20%
      summary_of("b", {0.016}),  // 50%
  };
  EXPECT_NEAR(mean_improvement_vs_baselines(candidate, baselines), 0.35,
              1e-12);
  EXPECT_EQ(mean_improvement_vs_baselines(candidate, {}), 0.0);
}

TEST(ImprovementTest, ImprovementVsMeanBaseline) {
  const auto candidate = summary_of("rl", {0.008});
  const std::vector<PolicySummary> baselines = {
      summary_of("a", {0.010}),
      summary_of("b", {0.016}),
  };
  // Mean baseline = 0.013 -> (0.013-0.008)/0.013.
  EXPECT_NEAR(improvement_vs_mean_baseline(candidate, baselines),
              5.0 / 13.0, 1e-12);
  EXPECT_EQ(improvement_vs_mean_baseline(candidate, {}), 0.0);
}

TEST(ImprovementTest, AggregationsDifferWhenBaselinesSkewed) {
  // The two aggregations answer different questions; with one outlier
  // baseline they diverge — documented behaviour, both reported by E1.
  const auto candidate = summary_of("rl", {0.008});
  const std::vector<PolicySummary> baselines = {
      summary_of("a", {0.009}),
      summary_of("b", {0.100}),  // outlier
  };
  const double mean_of_imps =
      mean_improvement_vs_baselines(candidate, baselines);
  const double imp_of_mean =
      improvement_vs_mean_baseline(candidate, baselines);
  EXPECT_GT(imp_of_mean, mean_of_imps);
}

TEST(RunLookupTest, FindsByScenarioName) {
  auto summary = summary_of("x", {0.01, 0.02});
  EXPECT_DOUBLE_EQ(run_for_scenario(summary, "s1").energy_per_qos, 0.02);
  EXPECT_THROW(run_for_scenario(summary, "nope"), std::invalid_argument);
}

}  // namespace
}  // namespace pmrl::core
