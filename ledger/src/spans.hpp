#pragma once
// In-memory spans for the traced run. The benchmark records spans around
// its own calls into each layer (phase, run, run() pass, reload, stage, and
// a sample of requests) and writes them out once the run has ended. Calls
// too frequent for a span each (ticks, decides) are summed into
// per-run time and count totals instead.
//
// Not thread-safe: spans are recorded from the benchmark's driving thread.

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace ledger {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;        ///< index of the parent span, -1 for a root
  std::uint64_t id = 0;   ///< run, pass or request id
};

class SpanRecorder {
 public:
  /// Opens a span starting now; returns its index.
  int begin(std::string name, int parent = -1, std::uint64_t id = 0);
  /// Closes span `index` now.
  void end(int index);
  /// Records a span whose interval is already known.
  int add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
          int parent = -1, std::uint64_t id = 0);

  const std::vector<Span>& spans() const { return spans_; }
  std::size_t size() const { return spans_.size(); }

  double duration_ns(int index) const;
  /// Duration minus the part of the span's interval its children cover
  /// (overlapping children are merged, so parallel children count once).
  double self_ns(int index) const;

  /// One JSON object per span, as a JSON array; times relative to the
  /// first span's start.
  void write_json(std::ostream& out) const;

 private:
  std::vector<Span> spans_;
};

/// Opens a span for the lifetime of a scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, int parent = -1,
             std::uint64_t id = 0)
      : recorder_(recorder),
        index_(recorder ? recorder->begin(std::move(name), parent, id) : -1) {}
  ~ScopedSpan() {
    if (recorder_) recorder_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return index_; }

 private:
  SpanRecorder* recorder_;
  int index_;
};

}  // namespace ledger
