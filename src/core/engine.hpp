#pragma once
// The simulation engine: advances the SoC tick by tick, feeds the scenario's
// jobs in, scores QoS, and invokes the governor at every decision epoch with
// the observation + reward feedback. One `run` = one policy evaluated on one
// scenario for a fixed duration — the unit both the paper's comparison table
// and the RL training episodes are made of.

#include <functional>
#include <string>
#include <vector>

#include "fault/fault_injector.hpp"
#include "governors/governor.hpp"
#include "soc/soc.hpp"
#include "workload/qos.hpp"
#include "workload/scenario.hpp"

namespace pmrl::obs {
class TraceSink;
class MetricsRegistry;
class Counter;
}  // namespace pmrl::obs

namespace pmrl::core {

/// Engine timing parameters.
struct EngineConfig {
  /// Simulation tick (s). 1 ms matches the kernel-timer granularity mobile
  /// governors sample at.
  double tick_s = 0.001;
  /// Governor decision epoch (s). 20 ms sits in the range mobile governors
  /// sample at (10-100 ms) and lets step-based policies track frame-rate
  /// workload phases.
  double decision_period_s = 0.020;
  /// Simulated run length (s).
  double duration_s = 60.0;
  /// QoS credit granted per best-effort job (see workload::job_quality).
  double qos_best_effort_credit = 0.25;
};

/// Aggregate outcome of one run.
struct RunResult {
  std::string scenario;
  std::string governor;
  double duration_s = 0.0;
  double energy_j = 0.0;
  /// Total delivered QoS quality units.
  double quality = 0.0;
  /// The paper's headline metric: J per delivered quality unit.
  double energy_per_qos = 0.0;
  double avg_power_w = 0.0;
  std::size_t released = 0;
  std::size_t released_deadline = 0;
  std::size_t completed = 0;
  std::size_t violations = 0;
  double violation_rate = 0.0;
  double mean_quality = 0.0;
  std::size_t dvfs_transitions = 0;
  /// Time-weighted mean frequency per cluster (Hz).
  std::vector<double> mean_freq_hz;
  /// Peak die temperature seen per cluster (C).
  std::vector<double> peak_temp_c;
  /// Seconds each cluster spent thermally throttled.
  std::vector<double> throttled_s;
  /// Per-cluster idle-state residency as a fraction of total core-time
  /// (rows: clusters; columns: idle states in table order, then active
  /// time as the final column). Empty when cpuidle is disabled.
  std::vector<std::vector<double>> idle_residency_fraction;
};

/// One row of the optional per-epoch time series.
struct EpochRecord {
  double time_s = 0.0;
  double epoch_energy_j = 0.0;
  double epoch_quality = 0.0;
  std::size_t epoch_violations = 0;
  double total_power_w = 0.0;
  std::vector<std::size_t> opp_index;
  std::vector<double> util_avg;
};

using EpochCallback = std::function<void(const EpochRecord&)>;

/// Runs scenarios against governors on a freshly-built SoC per run.
class SimEngine {
 public:
  SimEngine(soc::SocConfig soc_config, EngineConfig engine_config);

  /// Runs `scenario` under `governor` for the configured duration on a
  /// fresh SoC. The governor's reset() is called first; its learned state
  /// (if any) persists across runs by design.
  RunResult run(workload::Scenario& scenario, governors::Governor& governor,
                const EpochCallback& on_epoch = nullptr);

  /// Installs a fault injector (nullptr disengages). While installed,
  /// every run perturbs the governor's observations and injects epoch
  /// faults into the SoC through it. The engine does not reset the
  /// injector between runs — callers that want a run replayed call
  /// FaultInjector::reset() themselves.
  void set_fault_injector(fault::FaultInjector* injector) {
    fault_ = injector;
  }
  fault::FaultInjector* fault_injector() const { return fault_; }

  /// Installs a trace sink (nullptr disengages). While installed, every
  /// run emits structured RunBegin/Epoch/RunEnd events. Events carry only
  /// simulation-derived values, so a run's trace is deterministic. The
  /// sink need not be thread-safe — the farm gives each task its own.
  void set_trace_sink(obs::TraceSink* sink) { trace_ = sink; }
  obs::TraceSink* trace_sink() const { return trace_; }

  /// Attaches a metrics registry (nullptr detaches). Run/epoch/tick
  /// counters are bumped once per run (no per-tick cost); the registry's
  /// atomic instruments aggregate safely across farm threads.
  void set_metrics(obs::MetricsRegistry* metrics);
  obs::MetricsRegistry* metrics() const { return metrics_; }

  const EngineConfig& config() const { return engine_config_; }
  const soc::SocConfig& soc_config() const { return soc_config_; }

 private:
  soc::SocConfig soc_config_;
  EngineConfig engine_config_;
  fault::FaultInjector* fault_ = nullptr;
  obs::TraceSink* trace_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  // Instruments resolved once at attach time (registry lookups lock).
  obs::Counter* runs_counter_ = nullptr;
  obs::Counter* epochs_counter_ = nullptr;
  obs::Counter* ticks_counter_ = nullptr;
};

}  // namespace pmrl::core
