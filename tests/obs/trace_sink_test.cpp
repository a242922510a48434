// Round-trip tests for every trace serialization (CSV, JSONL, binary) plus
// sink behaviour. The escaping edge cases (commas, quotes, newlines,
// backslashes, control bytes in `detail`) must survive a full
// write-then-parse cycle bit-identically, and the CSV output must stay
// readable by the stock pmrl::CsvReader.

#include "obs/trace_sink.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/csv.hpp"

namespace obs = pmrl::obs;

namespace {

obs::TraceEvent make_event(obs::EventKind kind, std::uint64_t epoch,
                           std::size_t clusters) {
  obs::TraceEvent event;
  event.kind = kind;
  event.epoch = epoch;
  event.time_s = 0.02 * static_cast<double>(epoch + 1);
  event.index = static_cast<std::uint32_t>(epoch % 3);
  event.state = 12345 + epoch;
  event.action = static_cast<std::uint32_t>(epoch % 5);
  event.reward = -0.125 + 0.001 * static_cast<double>(epoch);
  event.energy_j = 0.0123456789012345678;
  event.total_energy_j = 1.1 * static_cast<double>(epoch + 1);
  event.quality = 0.75;
  event.violations = epoch;
  event.releases = epoch * 2;
  event.power_w = 1.5;
  event.latency_s = 3.2e-6;
  event.value = 0.5;
  event.detail = "scenario/governor";
  for (std::size_t c = 0; c < clusters; ++c) {
    obs::ClusterSample sample;
    sample.opp_index = static_cast<std::uint32_t>(c + epoch);
    sample.freq_hz = 1.8e9 + 1e6 * static_cast<double>(c);
    sample.util_avg = 0.333333333333333315;
    sample.energy_j = 0.001 * static_cast<double>(c + 1);
    sample.temp_c = 45.5;
    event.clusters.push_back(sample);
  }
  return event;
}

std::vector<obs::TraceEvent> sample_trace() {
  std::vector<obs::TraceEvent> events;
  events.push_back(make_event(obs::EventKind::RunBegin, 0, 2));
  events.push_back(make_event(obs::EventKind::Epoch, 0, 2));
  events.push_back(make_event(obs::EventKind::Decision, 0, 0));
  events.push_back(make_event(obs::EventKind::Fault, 1, 0));
  events.push_back(make_event(obs::EventKind::Watchdog, 1, 0));
  events.push_back(make_event(obs::EventKind::HwInvoke, 2, 0));
  events.push_back(make_event(obs::EventKind::RunEnd, 3, 2));
  return events;
}

// Strings that stress both the RFC 4180 CSV quoting and the JSON string
// escaper.
const char* kNastyDetails[] = {
    "plain",
    "comma,separated,value",
    "double\"quote",
    "line\nbreak",
    "carriage\rreturn",
    "tab\there",
    "back\\slash",
    "quote\"and,comma\nand newline",
    "trailing space ",
    "\x01control\x1f bytes",
    "",
};

}  // namespace

TEST(TraceEventKind, NamesRoundTrip) {
  for (auto kind :
       {obs::EventKind::RunBegin, obs::EventKind::Epoch,
        obs::EventKind::Decision, obs::EventKind::Fault,
        obs::EventKind::Watchdog, obs::EventKind::HwInvoke,
        obs::EventKind::RunEnd}) {
    const auto parsed = obs::event_kind_from_name(obs::event_kind_name(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(obs::event_kind_from_name("bogus").has_value());
}

TEST(TraceCsv, RoundTripsBitIdentically) {
  const auto events = sample_trace();
  std::ostringstream out;
  obs::write_csv_trace(out, events, obs::trace_cluster_count(events));
  std::istringstream in(out.str());
  const auto parsed = obs::read_csv_trace(in);
  EXPECT_EQ(parsed, events);
}

TEST(TraceCsv, EscapingEdgeCasesSurvive) {
  std::vector<obs::TraceEvent> events;
  for (const char* detail : kNastyDetails) {
    auto event = make_event(obs::EventKind::Fault, events.size(), 1);
    event.detail = detail;
    events.push_back(event);
  }
  std::ostringstream out;
  obs::write_csv_trace(out, events, 1);
  std::istringstream in(out.str());
  const auto parsed = obs::read_csv_trace(in);
  EXPECT_EQ(parsed, events);
}

TEST(TraceCsv, ReadableByStockCsvReader) {
  const auto events = sample_trace();
  const std::size_t clusters = obs::trace_cluster_count(events);
  std::ostringstream out;
  obs::write_csv_trace(out, events, clusters);
  const auto rows = pmrl::CsvReader::parse_string(out.str());
  ASSERT_EQ(rows.size(), events.size() + 1);  // header + one row per event
  const auto header = obs::trace_csv_header(clusters);
  EXPECT_EQ(rows.front(), header);
  for (const auto& row : rows) EXPECT_EQ(row.size(), header.size());
}

TEST(TraceCsv, StreamingSinkMatchesBufferedWriter) {
  const auto events = sample_trace();
  const std::size_t clusters = obs::trace_cluster_count(events);
  std::ostringstream buffered;
  obs::write_csv_trace(buffered, events, clusters);

  std::ostringstream streamed;
  obs::CsvTraceSink sink(streamed, clusters);
  for (const auto& event : events) sink.record(event);
  sink.flush();
  EXPECT_EQ(streamed.str(), buffered.str());
}

TEST(TraceCsv, RejectsMalformedWidth) {
  std::istringstream in("kind,epoch\nepoch,0\n");
  EXPECT_THROW(obs::read_csv_trace(in), std::runtime_error);
}

TEST(TraceJsonl, RoundTripsBitIdentically) {
  for (const auto& event : sample_trace()) {
    const std::string line = obs::trace_jsonl_line(event);
    EXPECT_EQ(obs::trace_from_jsonl_line(line), event) << line;
  }
}

TEST(TraceJsonl, EscapingEdgeCasesSurvive) {
  for (const char* detail : kNastyDetails) {
    auto event = make_event(obs::EventKind::Watchdog, 7, 0);
    event.detail = detail;
    const std::string line = obs::trace_jsonl_line(event);
    // One event == one line: escaping must keep newlines out of the payload.
    EXPECT_EQ(line.find('\n'), std::string::npos);
    EXPECT_EQ(obs::trace_from_jsonl_line(line), event) << line;
  }
}

TEST(TraceJsonl, SinkWritesOneLinePerEvent) {
  const auto events = sample_trace();
  std::ostringstream out;
  obs::JsonlTraceSink sink(out);
  for (const auto& event : events) sink.record(event);
  sink.flush();

  std::istringstream in(out.str());
  std::string line;
  std::size_t i = 0;
  while (std::getline(in, line)) {
    ASSERT_LT(i, events.size());
    EXPECT_EQ(obs::trace_from_jsonl_line(line), events[i]);
    ++i;
  }
  EXPECT_EQ(i, events.size());
}

TEST(TraceJsonl, RejectsMalformedLine) {
  EXPECT_THROW(obs::trace_from_jsonl_line("{\"kind\":"), std::runtime_error);
  EXPECT_THROW(obs::trace_from_jsonl_line("not json"), std::runtime_error);
}

TEST(VectorTraceSink, KeepsEventsInOrder) {
  obs::VectorTraceSink sink;
  const auto events = sample_trace();
  for (const auto& event : events) sink.record(event);
  EXPECT_EQ(sink.events(), events);
  const auto taken = sink.take();
  EXPECT_EQ(taken, events);
  EXPECT_TRUE(sink.events().empty());
}

TEST(TraceDouble, Exact17gFormatting) {
  const double values[] = {0.1, 1.0 / 3.0, 1e-300, -2.5e17,
                           0.0123456789012345678};
  for (double v : values) {
    const std::string text = obs::format_trace_double(v);
    EXPECT_EQ(std::stod(text), v) << text;
  }
}
