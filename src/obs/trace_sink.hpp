#pragma once
// Trace sinks: where structured TraceEvents go. The observability contract
// is "zero overhead when disabled" — producers hold a nullable TraceSink*
// and skip everything behind one pointer check — and "deterministic when
// enabled": sinks only see simulation-derived data, so a farmed run's
// per-task trace is byte-identical to the serial run's.
//
// Sinks:
//   VectorTraceSink  unbounded in-memory buffer (tests, CLI, farm tasks)
//   CsvTraceSink     streaming CSV rows over any std::ostream
//   JsonlTraceSink   streaming JSON-object lines over any std::ostream

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/trace_event.hpp"
#include "util/csv.hpp"

namespace pmrl::obs {

/// Receiver of structured trace events. Implementations need not be
/// thread-safe: the farm gives every task its own sink.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void record(const TraceEvent& event) = 0;
  virtual void flush() {}
};

/// Keeps every event, in order.
class VectorTraceSink : public TraceSink {
 public:
  void record(const TraceEvent& event) override { events_.push_back(event); }

  const std::vector<TraceEvent>& events() const { return events_; }
  std::vector<TraceEvent> take() { return std::move(events_); }

 private:
  std::vector<TraceEvent> events_;
};

/// Streams events as CSV rows (header emitted with the first event). The
/// column layout is fixed by `cluster_count` (see trace_csv_header).
class CsvTraceSink : public TraceSink {
 public:
  CsvTraceSink(std::ostream& out, std::size_t cluster_count);

  void record(const TraceEvent& event) override;
  void flush() override;

 private:
  std::ostream& out_;
  std::size_t cluster_count_;
  CsvWriter writer_;
  std::vector<std::string> fields_;  // reused per record
};

/// Streams events as JSONL (one JSON object per line).
class JsonlTraceSink : public TraceSink {
 public:
  explicit JsonlTraceSink(std::ostream& out) : out_(out) {}

  void record(const TraceEvent& event) override;
  void flush() override;

 private:
  std::ostream& out_;
};

/// Serializes buffered events as a complete CSV document (header + rows).
void write_csv_trace(std::ostream& out, const std::vector<TraceEvent>& events,
                     std::size_t cluster_count);

/// Parses a complete CSV trace document (header + rows) back into events.
std::vector<TraceEvent> read_csv_trace(std::istream& in);

/// Serializes buffered events as JSONL.
void write_jsonl_trace(std::ostream& out,
                       const std::vector<TraceEvent>& events);

/// Largest cluster-sample count across `events` (the CSV column layout).
std::size_t trace_cluster_count(const std::vector<TraceEvent>& events);

}  // namespace pmrl::obs
