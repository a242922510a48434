#include "obs/trace_sink.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>

namespace pmrl::obs {

CsvTraceSink::CsvTraceSink(std::ostream& out, std::size_t cluster_count)
    : out_(out),
      cluster_count_(cluster_count),
      writer_(out, trace_csv_header(cluster_count)) {}

void CsvTraceSink::record(const TraceEvent& event) {
  trace_csv_fields(event, cluster_count_, fields_);
  writer_.write_row(fields_);
}

void CsvTraceSink::flush() { out_.flush(); }

void JsonlTraceSink::record(const TraceEvent& event) {
  out_ << trace_jsonl_line(event) << '\n';
}

void JsonlTraceSink::flush() { out_.flush(); }

std::size_t trace_cluster_count(const std::vector<TraceEvent>& events) {
  std::size_t n = 0;
  for (const TraceEvent& event : events) {
    n = std::max(n, event.clusters.size());
  }
  return n;
}

void write_csv_trace(std::ostream& out, const std::vector<TraceEvent>& events,
                     std::size_t cluster_count) {
  CsvTraceSink sink(out, cluster_count);
  for (const TraceEvent& event : events) sink.record(event);
  // A trace with zero events still gets its header so readers can tell an
  // empty trace from a missing one.
  if (events.empty()) {
    CsvWriter writer(out);
    writer.write_row(trace_csv_header(cluster_count));
  }
}

std::vector<TraceEvent> read_csv_trace(std::istream& in) {
  const auto rows = CsvReader::parse(in);
  if (rows.empty()) throw std::runtime_error("trace: empty CSV document");
  const std::size_t width = rows.front().size();
  if (width < 16 || (width - 16) % 5 != 0) {
    throw std::runtime_error("trace: CSV header width " +
                             std::to_string(width) +
                             " is not a trace schema");
  }
  const std::size_t cluster_count = (width - 16) / 5;
  std::vector<TraceEvent> events;
  events.reserve(rows.size() - 1);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    events.push_back(trace_from_csv_fields(rows[i], cluster_count));
  }
  return events;
}

void write_jsonl_trace(std::ostream& out,
                       const std::vector<TraceEvent>& events) {
  JsonlTraceSink sink(out);
  for (const TraceEvent& event : events) sink.record(event);
}

}  // namespace pmrl::obs
