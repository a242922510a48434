#pragma once
// SoA fleet executor: advances 10^5..10^6 devices with struct-of-arrays
// state, one fused pass per chunk of four devices, table-read decisions,
// and run-farm sharding. Produces results bit-identical to running one AoS
// DeviceEngine per device (see device_engine.hpp) at any --jobs count and
// any block size — the layout/scheduling is the optimization, never the
// arithmetic:
//
//  * State is flat arrays indexed [device * kMaxClusters + cluster] (fixed
//    stride; single-cluster devices carry an inert zero-power slot), so the
//    sweep streams contiguously instead of chasing one heap object per
//    device.
//  * Devices are swept in blocks of config.block_size, and blocks are the
//    unit of parallelism — each block is one run-farm task (run_ordered),
//    owning all of its mutable state per the farm's RNG-stream isolation
//    rule. Workload draws are stateless hashes of (device seed, epoch,
//    cluster), so any partition of devices into blocks and any thread
//    schedule replays identical draws.
//  * Within a block, each chunk of four devices (then the tail one by one)
//    runs derive, tick sweep, QoS accounting and decision in one pass, with
//    every per-epoch value in locals: nothing per-epoch goes back to memory
//    except the SoA state itself.
//  * Everything epoch-constant (demand, leakage temp factor, cluster power,
//    thermal target, served rate) is derived once per epoch; the AoS
//    baseline re-derives it every tick like the full SimEngine does. Same
//    inputs, same expressions, same bits — roughly 10x less arithmetic.
//  * A decision is one read of the frozen policy's action table
//    (FleetPolicy::greedy_table), equal to the scalar policy scan, and the
//    OPP moves by the branch-free apply_action.
//  * Aggregates (fleet energy, QoS, per-device energy-per-QoS histogram for
//    percentiles) are accumulated per block and merged in fixed block
//    order, so serial and parallel runs produce bit-identical totals.
//
// Budgeted execution (config.budget.enabled(); DESIGN.md §12): the run
// switches from block-major (each task sweeps all epochs) to epoch-major —
// every epoch, a serial budget::BudgetTree pass apportions the global cap
// into per-device caps from the previous epoch's measured per-device power
// (the demand column each block wrote into its disjoint slice), then the
// blocks advance one epoch in parallel. The cap vetoes in place: a device
// already over its cap steps every cluster down, and an Up whose projected
// step-up power would cross the cap takes the policy's {down, hold} table
// entry (FleetPolicy::down_hold_table) instead. Caps are bit-identical at
// any --jobs and any --block because the apportionment is a serial pure
// function of the demand column.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "budget/budget_tree.hpp"
#include "fleet/device_engine.hpp"
#include "fleet/device_model.hpp"
#include "fleet/policy.hpp"

namespace pmrl::obs {
class MetricsRegistry;
class TraceSink;
}

namespace pmrl::fleet {

/// Fleet-wide aggregate for one decision epoch (--trace series).
struct FleetEpochPoint {
  double time_s = 0.0;
  double energy_j = 0.0;  ///< joules spent by the fleet during this epoch
  double served = 0.0;    ///< capacity-seconds delivered this epoch
  double demand = 0.0;    ///< capacity-seconds demanded this epoch
  std::uint64_t violations = 0;  ///< devices violating QoS this epoch
  /// Effective global cap in force this epoch (0 when unbudgeted).
  double cap_w = 0.0;
  /// Devices drawing above their cap and not pinned at the bottom OPP.
  std::uint64_t over_cap = 0;
};

/// End-of-run budget aggregates (FleetResult::budget; all zero/-1 when
/// config.budget is disabled).
struct FleetBudgetSummary {
  bool enabled = false;
  double requested_cap_w = 0.0;  ///< schedule cap at end of run
  double effective_cap_w = 0.0;  ///< max(requested, devices * floor)
  std::size_t cap_steps = 0;     ///< schedule steps that fired
  std::size_t last_step_epoch = 0;
  /// Epochs from the last cap step until fleet epoch power first held
  /// within the effective cap; -1 if it never settled.
  long settle_epochs = -1;
  std::uint64_t over_cap_device_epochs = 0;
  /// First budget-tree audit failure ("" = conservation and floor held on
  /// every epoch).
  std::string audit_error;
};

/// End-of-run fleet aggregates. Scalar totals are bit-identical across
/// --jobs values and block sizes.
struct FleetResult {
  std::size_t devices = 0;
  std::size_t epochs = 0;
  std::size_t ticks_per_epoch = 0;
  std::uint64_t device_ticks = 0;
  double energy_j = 0.0;
  double served = 0.0;
  double demand = 0.0;
  std::uint64_t violation_epochs = 0;  ///< device-epochs below QoS
  double violation_rate = 0.0;         ///< violation_epochs / device-epochs
  std::size_t battery_depleted = 0;    ///< devices that hit 0 J
  /// Distribution of per-device energy per delivered capacity-second.
  double energy_per_served_mean = 0.0;
  double energy_per_served_p50 = 0.0;
  double energy_per_served_p95 = 0.0;
  double energy_per_served_p99 = 0.0;
  /// Populated when config.record_devices / config.record_epochs.
  std::vector<DeviceOutcome> device_outcomes;
  std::vector<FleetEpochPoint> epoch_series;
  /// Budget aggregates (budget.enabled only).
  FleetBudgetSummary budget;
  /// Final per-device caps (budget.enabled && record_devices).
  std::vector<double> device_caps_w;
};

/// Histogram bounds used for the energy-per-served distribution (geometric;
/// shared by every block so shard histograms merge).
std::vector<double> energy_per_served_bounds();

class FleetEngine {
 public:
  /// Builds archetypes, device specs, and the SoA state from the config.
  /// Throws std::invalid_argument on a zero-device or zero-block config,
  /// or an invalid budget spec.
  explicit FleetEngine(FleetConfig config,
                       FleetPolicy policy = FleetPolicy::default_policy());

  /// Runs the whole simulation. Re-runnable: state is re-seeded from the
  /// specs on every call, so repeated runs return identical results.
  FleetResult run();

  const FleetConfig& config() const { return config_; }
  const FleetTiming& timing() const { return timing_; }
  const std::vector<Archetype>& archetypes() const { return archetypes_; }
  const std::vector<DeviceSpec>& specs() const { return specs_; }
  const FleetPolicy& policy() const { return policy_; }
  /// Resolved worker count (config.jobs through runfarm::resolve_jobs).
  std::size_t jobs() const { return jobs_; }
  /// The budget tree (nullptr when config.budget is disabled).
  const budget::BudgetTree* budget_tree() const { return tree_.get(); }

  /// Optional instrumentation (fleet.* counters/gauges/histogram, plus
  /// budget.* when budgeted), filled at the end of run(). Pass nullptr to
  /// detach.
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Optional structured trace: one EventKind::Budget record per epoch
  /// (cap, fleet power, over-cap devices), emitted serially after the run
  /// so farmed runs stay byte-identical to serial ones. Budgeted runs
  /// only; pass nullptr to detach.
  void set_trace_sink(obs::TraceSink* sink) { trace_ = sink; }

 private:
  struct BlockResult;
  /// Per-epoch per-block partial aggregate (budget path merges these in
  /// block order every epoch).
  struct EpochStats {
    double power_w = 0.0;  ///< sum of device power over the block
    double served = 0.0;
    double demand = 0.0;
    std::uint64_t violations = 0;
    std::uint64_t over_cap = 0;
  };
  void reset_state();
  /// Advances the block [first, last) through epoch e, one device chunk at
  /// a time. caps_w == nullptr is the free (unbudgeted) path; non-null
  /// enables the demand-column write and cap enforcement.
  EpochStats epoch_pass(std::size_t first, std::size_t last, std::size_t e,
                        const double* caps_w);
  /// Advances devices [d0, d0 + K) through epoch e in one pass — derive,
  /// tick sweep, QoS accounting, decision — holding every per-epoch value
  /// in locals, and adds their partials to st in device order.
  template <std::size_t K>
  void advance_chunk(std::size_t d0, std::size_t e, const double* caps_w,
                     EpochStats& st);
  /// Per-device outcome/energy-percentile reduction over [first, last).
  BlockResult finalize_block(std::size_t first, std::size_t last,
                             std::vector<DeviceOutcome>* outcomes) const;
  void reduce_blocks(const std::vector<BlockResult>& blocks,
                     FleetResult& result) const;
  FleetResult run_unbudgeted();
  FleetResult run_budgeted();

  FleetConfig config_;
  FleetTiming timing_;
  FleetPolicy policy_;
  std::vector<Archetype> archetypes_;
  std::vector<DeviceSpec> specs_;
  std::size_t jobs_ = 1;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::TraceSink* trace_ = nullptr;
  std::unique_ptr<budget::BudgetTree> tree_;

  // SoA state, stride kMaxClusters per device.
  std::vector<double> util_;
  std::vector<double> temp_c_;
  std::vector<double> temp_decay_;
  std::vector<std::uint32_t> opp_;
  std::vector<std::uint8_t> throttled_;
  // Demand phase position, maintained incrementally so the per-epoch sweep
  // skips the 64-bit modulo in epoch_demand(). Always equals
  // (epoch + demand_phase) % demand_period_epochs for the *next* epoch the
  // slot will derive.
  std::vector<std::uint32_t> demand_pos_;
  // Dense copies of the spec fields the epoch sweep reads, so the hot loop
  // streams a few contiguous arrays instead of striding through the ~200-byte
  // DeviceSpec structs (which spill out of L2 at fleet scale). Filled once in
  // the constructor; values are identical to the spec fields by construction.
  std::vector<std::uint32_t> arch_;     ///< per device: archetype index
  std::vector<std::uint64_t> seed_;     ///< per device: spec.seed
  std::vector<double> ambient_c_;       ///< per device: spec.ambient_c
  std::vector<double> r_th_;            ///< per slot: cluster r_th_k_per_w
  std::vector<DeviceClusterSpec> cluster_spec_;  ///< per slot: dense copy
  // Per-device state.
  std::vector<double> energy_j_;
  std::vector<double> battery_j_;
  std::vector<double> served_;
  std::vector<double> demand_;
  std::vector<std::uint32_t> violations_;
  // Budget columns (budget mode only): blocks write demand_w_ into their
  // disjoint device slices during the epoch derive; the serial tree pass
  // between epochs reads demand_w_ and writes caps_w_.
  std::vector<double> demand_w_;
  std::vector<double> caps_w_;
};

}  // namespace pmrl::fleet
