#pragma once
// The ledger's workloads. Each one builds its inputs from the workload
// seed, measures for the requested time, checks the program's outputs, and
// fills a Result:
//
//  * *_run    — the untraced run: the five end-to-end metrics;
//  * *_layers — the workload's per-layer metrics, measured from outside by
//               timing calls into each layer's public functions. A traced
//               run calls every workload's *_layers so its table is
//               complete; `own` is true for the workload being traced,
//               which then also runs its traced loop for the full time
//               (spans, tracing overhead, unattributed remainder);
//  * *_golden — the fields recorded for a seed in golden/<workload>.txt.

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"
#include "spans.hpp"

namespace ledger {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for checkpoints, sockets and span dumps (relative,
  /// which keeps the socket path short).
  std::string run_dir;
  /// Directory of the recorded golden files.
  std::string golden_dir;
  /// Worker threads a workload may use: its fixed width, capped at nproc.
  std::size_t nproc = 4;
};

/// Trace-mode context: the span recorder and the root span of the run.
struct TraceContext {
  SpanRecorder spans;
  int root = -1;
};

void handset_run(const Options& opts, Result& result);
void handset_layers(const Options& opts, Result& result, TraceContext& trace,
                    bool own);
std::vector<std::string> handset_golden(const Options& opts);

/// `budgeted` selects the fleet_budget workload.
void fleet_run(const Options& opts, bool budgeted, Result& result);
void fleet_layers(const Options& opts, Result& result, TraceContext& trace,
                  bool own_fleet, bool own_budget);
std::vector<std::string> fleet_golden(const Options& opts, bool budgeted);
/// fleet.build_ms: FleetEngine construction timed as fleet_run times its
/// set-up, in child processes. Run it before anything else in the process.
void fleet_build_layer(const Options& opts, Result& result, TraceContext& trace);

void serve_run(const Options& opts, Result& result);
void serve_layers(const Options& opts, Result& result, TraceContext& trace,
                  bool own);

/// Worker count a workload asks for, capped at the machine's.
inline std::size_t workers(const Options& opts, std::size_t wanted) {
  return wanted < opts.nproc ? wanted : opts.nproc;
}

inline double ns_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a);
}

}  // namespace ledger
