// Tests of the benchmark's own measurement code: percentile ranks and the
// tail rule, due-time latency and generator lag under an injected stall,
// the in-flight table, failure counting, and metric/workload name
// validation.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <optional>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "loadgen.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace ledger {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRankOnOneToHundred) {
  const auto v = one_to(100);
  EXPECT_EQ(percentile(v, 50), 50);
  EXPECT_EQ(percentile(v, 90), 90);
  EXPECT_EQ(percentile(v, 99), 99);
  EXPECT_EQ(percentile(v, 100), 100);
  EXPECT_EQ(percentile(v, 0.5), 1);
}

TEST(Percentile, SmallSamplesRoundTheRankUp) {
  EXPECT_EQ(percentile({7}, 99.9), 7);
  EXPECT_EQ(percentile({1, 2, 3}, 50), 2);
  EXPECT_EQ(percentile({1, 2, 3, 4}, 50), 2);
  EXPECT_EQ(percentile({1, 2, 3, 4}, 51), 3);
  EXPECT_TRUE(std::isnan(percentile({}, 50)));
}

TEST(Median, AveragesTheMiddlePair) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_TRUE(std::isnan(median({})));
}

TEST(QuartileSpread, MatchesPythonExclusiveQuantiles) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  EXPECT_DOUBLE_EQ(quartile_spread(one_to(10)), (8.25 - 2.75) / 5.5);
  EXPECT_EQ(quartile_spread({5}), 0.0);
}

TEST(TailRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(highest_supported_percentile(1000), 99.0);    // p99.9 leaves 1
  EXPECT_EQ(highest_supported_percentile(1009), 99.0);
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);   // 10 beyond p99.9
  EXPECT_EQ(highest_supported_percentile(9999), 99.0);    // 9 beyond p99.9
  EXPECT_EQ(highest_supported_percentile(100), 90.0);
  EXPECT_EQ(highest_supported_percentile(20), 50.0);
  EXPECT_EQ(highest_supported_percentile(19), 0.0);
  EXPECT_EQ(highest_supported_percentile(1000000), 99.999);
  EXPECT_EQ(highest_supported_percentile(999999), 99.99);
}

TEST(OpenLoop, ScheduleIsAbsolute) {
  const OpenLoopSchedule s(1000, 100000.0);  // one request every 10 us
  EXPECT_EQ(s.due_ns(0), 1000);
  EXPECT_EQ(s.due_ns(3), 31000);
  EXPECT_EQ(s.due_by(999), 0u);
  EXPECT_EQ(s.due_by(1000), 1u);
  EXPECT_EQ(s.due_by(30999), 3u);
  EXPECT_EQ(s.due_by(31000), 4u);
}

// A generator that polls every 2 us, stalls for 3 ms once, and a server
// that answers every request 20 us after it was sent. Requests due during
// the stall are sent late in one batch; their latency is timed from when
// they were due, so the stall shows in the latency tail and in the lag.
TEST(OpenLoop, StallIsChargedFromDueTime) {
  const double rate = 100000.0;
  const OpenLoopSchedule schedule(0, rate);
  DueTimeBook book(schedule, 0);
  const std::int64_t stall_at = 1000000, stall_ns = 3000000;
  const std::int64_t service_ns = 20000;
  std::uint64_t next = 0;
  std::size_t largest_batch = 0;
  for (std::int64_t now = 0; now < 10000000;) {
    const std::uint64_t due = schedule.due_by(now);
    largest_batch = std::max<std::size_t>(largest_batch, due - next);
    for (; next < due; ++next) {
      book.sent(next, now);
      book.answered(next, now + service_ns);
    }
    now += (now >= stall_at && now < stall_at + 2) ? stall_ns : 2;
  }
  ASSERT_EQ(book.latency_us().size(), next);
  // Requests due during the stall all went out in one batch.
  EXPECT_GE(largest_batch, 299u);
  EXPECT_LE(largest_batch, 301u);
  const double max_lag = *std::max_element(book.lag_us().begin(), book.lag_us().end());
  EXPECT_NEAR(max_lag, 3000.0, 10.0);
  const double max_latency =
      *std::max_element(book.latency_us().begin(), book.latency_us().end());
  EXPECT_NEAR(max_latency, 3000.0 + 20.0, 10.0);
  // Outside the stall, latency is the service time plus poll jitter.
  EXPECT_NEAR(median(book.latency_us()), 20.0, 2.5);
  // About 3% of requests waited behind the stall: p99 sees it, p50 not.
  EXPECT_GT(percentile(book.latency_us(), 99), 1000.0);
  // With the latency timed from the send instead, the stall would vanish.
  EXPECT_LT(median(book.lag_us()), 2.5);
}

TEST(OpenLoop, WarmupIsNotTimed) {
  const OpenLoopSchedule schedule(0, 1000.0);
  DueTimeBook book(schedule, 5);
  for (std::uint64_t i = 0; i < 8; ++i) {
    book.sent(i, schedule.due_ns(i) + 7000);
    book.answered(i, schedule.due_ns(i) + 9000);
  }
  ASSERT_EQ(book.latency_us().size(), 3u);
  EXPECT_DOUBLE_EQ(book.latency_us()[0], 9.0);
  EXPECT_DOUBLE_EQ(book.lag_us()[0], 7.0);
}

TEST(Failures, EveryKindOfBadAnswerCountsAsFailed) {
  OutcomeTally tally;
  tally.add(classify_response(false, false, 3, 3));  // correct
  tally.add(classify_response(false, false, 3, 3));  // correct
  tally.add(classify_response(false, false, 2, 3));  // wrong action
  tally.add(classify_response(false, true, 0, 3));   // shed or timed out
  tally.add(classify_response(true, false, 0, 3));   // error frame
  tally.close(/*sent=*/8, /*answered=*/5);           // three never answered
  EXPECT_EQ(tally.attempted, 8u);
  EXPECT_EQ(tally.ok, 2u);
  EXPECT_EQ(tally.wrong, 1u);
  EXPECT_EQ(tally.safe_default, 1u);
  EXPECT_EQ(tally.error, 1u);
  EXPECT_EQ(tally.unanswered, 3u);
  EXPECT_EQ(tally.failed(), 6u);
  EXPECT_DOUBLE_EQ(tally.failed_frac(), 6.0 / 8.0);
}

TEST(InFlight, AnswerFindsItsRequestOnce) {
  InFlightTable table(4, 8);
  EXPECT_FALSE(table.add(0));
  EXPECT_FALSE(table.add(1));
  EXPECT_EQ(table.take(2), std::optional<std::uint64_t>(1));
  EXPECT_EQ(table.take(2), std::nullopt);  // answered twice
  EXPECT_EQ(table.take(3), std::nullopt);  // never sent
  EXPECT_EQ(table.take(0), std::nullopt);
  EXPECT_EQ(table.take(9), std::nullopt);  // beyond the stream
  // Request 9 is the stream's second frame again, with wire id 2.
  for (std::uint64_t n = 2; n <= 9; ++n) table.add(n);
  EXPECT_EQ(table.take(2), std::optional<std::uint64_t>(9));
}

// A server that drops one response, or answers it with a wrong id, leaves
// that request's slot taken. When the slot comes round, the request counts
// as unanswered and the run goes on; the stray answer counts as wrong.
TEST(InFlight, LostResponseCountsAsUnansweredAndTheRunGoesOn) {
  constexpr std::size_t kSlots = 16;
  InFlightTable table(kSlots, 64);
  OutcomeTally tally;
  std::uint64_t settled = 0;
  for (std::uint64_t n = 0; n < 200; ++n) {
    if (table.add(n)) {
      ++settled;
      tally.add(Outcome::Unanswered);
    }
    const std::uint64_t wire_id = n % 64 + 1;
    if (n == 5) continue;  // dropped
    // Request 7's answer carries request 6's id after 6 was answered.
    const auto found = table.take(n == 7 ? 6 + 1 : wire_id);
    if (!found) {
      tally.add(Outcome::Wrong);
      continue;
    }
    ++settled;
    tally.add(classify_response(false, false, 1, 1));
  }
  EXPECT_EQ(settled, 200u);  // nothing is left in flight at the end
  tally.close(200, settled);
  EXPECT_EQ(tally.unanswered, 2u);  // requests 5 and 7, at their slots' turn
  EXPECT_EQ(tally.wrong, 1u);       // the stray answer
  EXPECT_EQ(tally.ok, 198u);
  EXPECT_EQ(tally.attempted, 201u);  // every request, plus the stray answer
  EXPECT_EQ(tally.failed(), 3u);
}

TEST(InFlight, PeriodMustBeAMultipleOfTheSlots) {
  EXPECT_THROW(InFlightTable(3, 8), std::invalid_argument);
  EXPECT_THROW(InFlightTable(0, 8), std::invalid_argument);
}

TEST(Failures, DegradedAnswerIsFailedEvenWhenTheActionMatches) {
  EXPECT_EQ(classify_response(false, true, 3, 3), Outcome::SafeDefault);
  EXPECT_EQ(classify_response(true, false, 3, 3), Outcome::Error);
}

TEST(Failures, WrongOutputMakesTheResultIncorrect) {
  Result result;
  result.tally(10, 0);
  EXPECT_TRUE(result.correct);
  result.tally(5, 1);
  EXPECT_FALSE(result.correct);
  EXPECT_EQ(result.attempted, 15u);
  EXPECT_DOUBLE_EQ(result.failed_frac(), 1.0 / 15.0);
  EXPECT_NE(result_json(result).find("\"correct\": false"), std::string::npos);
}

TEST(ResultJson, HasExactlyTheContractKeys) {
  Result result;
  result.tally(4, 0);
  result.add("setup_s", 0.00012345678901234567, "s");
  const std::string json = result_json(result);
  EXPECT_EQ(json.rfind("{\"correct\": true, \"attempted\": 4, \"failed\": 0, "
                       "\"metrics\": {\"setup_s\": {\"value\": ", 0), 0u);
  EXPECT_NE(json.find("0.00012345678901234567"), std::string::npos);
  result.add("p50_us", std::nan(""), "us");
  EXPECT_NE(result_json(result).find("\"correct\": false"), std::string::npos);
}

TEST(Names, MetricAndWorkloadNamesMatchTheAllowedSet) {
  for (const char* ok : {"handset", "fleet", "fleet_budget", "serve", "setup_s",
                         "serve.ping_rtt_us.uds", "runfarm.busy_frac.eval",
                         "p50_us", "9lives", "a-b"}) {
    EXPECT_TRUE(valid_name(ok)) << ok;
  }
  for (const char* bad : {"", ".hidden", "_x", "has space", "slash/name", "p50µs",
                          "x\"y"}) {
    EXPECT_FALSE(valid_name(bad)) << bad;
  }
  EXPECT_FALSE(valid_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_name(std::string(64, 'a')));
}

// Every name the benchmark declares, checked against [A-Za-z0-9_.-]+.
TEST(Names, BenchmarkJsonNamesAreValid) {
  std::ifstream in(LEDGER_BENCHMARK_JSON);
  ASSERT_TRUE(in) << LEDGER_BENCHMARK_JSON;
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  const std::regex name_re("\"name\":\\s*\"([^\"]*)\"");
  std::size_t names = 0;
  for (auto it = std::sregex_iterator(json.begin(), json.end(), name_re);
       it != std::sregex_iterator(); ++it) {
    EXPECT_TRUE(valid_name((*it)[1].str())) << (*it)[1].str();
    ++names;
  }
  EXPECT_GT(names, 10u);
}

TEST(Spans, SelfTimeSubtractsMergedChildren) {
  SpanRecorder r;
  const int root = r.add("root", 0, 100);
  r.add("a", 10, 40, root);
  r.add("b", 30, 50, root);  // overlaps a: covered 10..50
  r.add("c", 80, 120, root); // clipped to the parent: 80..100
  r.add("grandchild", 12, 14, 1);
  EXPECT_DOUBLE_EQ(r.duration_ns(root), 100);
  EXPECT_DOUBLE_EQ(r.self_ns(root), 100 - 40 - 20);
  EXPECT_DOUBLE_EQ(r.self_ns(1), 30 - 2);
  std::ostringstream out;
  r.write_json(out);
  EXPECT_NE(out.str().find("\"name\": \"grandchild\""), std::string::npos);
}

TEST(Digest, DistinguishesBitPatterns) {
  Digest a, b, c;
  a.add(0.0);
  b.add(-0.0);
  c.add(0.0);
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(a.value(), c.value());
}

}  // namespace
}  // namespace ledger
