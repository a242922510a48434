#pragma once
// The structured trace event: one record per observable step of a run.
// Every producer (the engine's epoch loop, the RL governor's decision
// chain, the fault injector, the watchdog, the hardware policy interface)
// emits these into a TraceSink, so the whole state -> action -> reward ->
// energy chain of a run can be inspected and pinned down offline.
//
// Determinism rule: events carry ONLY simulation-derived values (sim time,
// energies, indices) — never wall-clock time, thread ids, or pointers — so
// the trace of a run is a pure function of its inputs and a farmed run's
// per-task trace is byte-identical to the serial run's.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pmrl::obs {

/// What a TraceEvent describes.
enum class EventKind : std::uint8_t {
  RunBegin = 0,  ///< start of a run: initial telemetry, scenario/governor
  Epoch,         ///< one decision epoch's telemetry + energy/QoS deltas
  Decision,      ///< one agent's state/action/reward at a decision point
  Fault,         ///< an injected fault fired (detail names the kind)
  Watchdog,      ///< fallback engaged (value=1) or primary re-engaged (0)
  HwInvoke,      ///< one hardware policy invocation (latency, retries)
  RunEnd,        ///< end of a run: aggregate totals
  Budget,        ///< one budget-tree epoch: cap, fleet power, over-cap count
  Rollout,       ///< policy lifecycle transition (canary start/rollback/
                 ///< promote); value = candidate version, detail names it
};

const char* event_kind_name(EventKind kind);
std::optional<EventKind> event_kind_from_name(std::string_view name);

/// Per-DVFS-domain sample embedded in RunBegin/Epoch events.
struct ClusterSample {
  std::uint32_t opp_index = 0;
  double freq_hz = 0.0;
  double util_avg = 0.0;
  /// Energy this domain consumed during the epoch (J); 0 in RunBegin.
  double energy_j = 0.0;
  double temp_c = 0.0;

  bool operator==(const ClusterSample&) const = default;
};

/// One trace record. Unused fields stay zero/empty for a given kind; the
/// serialized schema is identical for all kinds so a trace is one flat,
/// rectangular table.
struct TraceEvent {
  EventKind kind = EventKind::Epoch;
  /// Decision-epoch index within the run (Decision events: decision index).
  std::uint64_t epoch = 0;
  /// Simulated time (s), never wall-clock.
  double time_s = 0.0;
  /// Which agent/cluster/domain the event refers to.
  std::uint32_t index = 0;
  /// RL state index (Decision/HwInvoke).
  std::uint64_t state = 0;
  /// RL action / move index (Decision/HwInvoke).
  std::uint32_t action = 0;
  /// Reward credited for the previous transition (Decision/HwInvoke).
  double reward = 0.0;
  /// Epoch energy delta (Epoch) or run total (RunEnd), J.
  double energy_j = 0.0;
  /// Cumulative energy at the event (J) — must be monotone within a run.
  double total_energy_j = 0.0;
  /// QoS quality units (epoch delta or run total).
  double quality = 0.0;
  std::uint64_t violations = 0;
  std::uint64_t releases = 0;
  double power_w = 0.0;
  /// End-to-end invocation latency (HwInvoke), s.
  double latency_s = 0.0;
  /// Generic payload: thermal delta (Fault), engaged flag (Watchdog),
  /// retries (HwInvoke), violation rate (RunEnd).
  double value = 0.0;
  /// Names: "scenario/governor", watchdog trip, fault kind.
  std::string detail;
  std::vector<ClusterSample> clusters;

  bool operator==(const TraceEvent&) const = default;
};

// ---- CSV schema -----------------------------------------------------------
// Fixed columns followed by cluster_count groups of per-domain columns
// (c<k>_opp, c<k>_freq_hz, c<k>_util, c<k>_energy_j, c<k>_temp_c). Events
// without samples leave the groups empty. Doubles are printed with %.17g so
// a parsed trace is bit-identical to the recorded one.

std::vector<std::string> trace_csv_header(std::size_t cluster_count);

/// Serializes one event into `out` (resized to the header width).
void trace_csv_fields(const TraceEvent& event, std::size_t cluster_count,
                      std::vector<std::string>& out);

/// Parses one CSV row (no header) back into an event; throws
/// std::runtime_error on malformed rows.
TraceEvent trace_from_csv_fields(const std::vector<std::string>& fields,
                                 std::size_t cluster_count);

// ---- JSONL schema ---------------------------------------------------------

/// One event as a single JSON object line (no trailing newline).
std::string trace_jsonl_line(const TraceEvent& event);

/// Parses a line produced by trace_jsonl_line; throws std::runtime_error on
/// malformed input.
TraceEvent trace_from_jsonl_line(const std::string& line);

/// %.17g formatting used by every text serialization (round-trips exactly).
std::string format_trace_double(double value);

}  // namespace pmrl::obs
