#pragma once
// Fleet device model: the lightweight per-phone simulation the fleet layer
// advances by the hundred thousand. A device is a 1-2 cluster DVFS phone —
// OPP tables, switching + leakage power, first-order RC thermal node with a
// throttle, battery drain, and a utilization-demand workload — whose
// parameters are seeded variations over the same `soc/` config types the
// full SimEngine uses (opp tables, CorePowerParams, ThermalNodeParams,
// UncorePowerParams, ThrottleConfig).
//
// Every piece of per-tick and per-epoch arithmetic lives here as inline
// functions over scalars. Both executors — the AoS per-device DeviceEngine
// (one engine object per device, the SimEngine-shaped baseline) and the SoA
// FleetEngine block sweep — call exactly these functions in exactly this
// order, which is what makes their outputs bit-identical: the SoA engine is
// a *layout and scheduling* optimization, never a numerical one.
//
// Time model (mirrors core::EngineConfig at coarser defaults): fixed tick
// dt; a decision epoch every K ticks. Workload demand, the leakage
// temperature factor, and therefore cluster power are sampled-and-held at
// epoch boundaries; within an epoch only the utilization EWMA, the thermal
// RC node, energy, and battery integrate per tick.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "budget/budget_tree.hpp"

namespace pmrl::fleet {

/// Device cluster-slot ceiling. Single-cluster devices carry an inert
/// second slot (zero demand, zero power terms) so every sweep is uniform
/// and branch-free; the inert slot contributes exactly 0 to every result.
inline constexpr std::size_t kMaxClusters = 2;

// ---- Fleet policy state space ---------------------------------------------
// state = (hot? , utilization bin, relative-OPP bin); 3 actions (step the
// OPP down / hold / step up) shared by every device regardless of its
// table length — the per-archetype opp_freq_bin[] maps a table index onto
// the common kFreqBins axis.
inline constexpr std::size_t kUtilBins = 8;
inline constexpr std::size_t kFreqBins = 6;
inline constexpr std::size_t kTempBins = 2;
inline constexpr std::size_t kStateCount = kTempBins * kUtilBins * kFreqBins;
inline constexpr std::size_t kActionCount = 3;
inline constexpr std::uint32_t kActionDown = 0;
inline constexpr std::uint32_t kActionHold = 1;
inline constexpr std::uint32_t kActionUp = 2;
/// Die temperature (C) above which the policy sees the "hot" state half.
inline constexpr double kHotTempC = 70.0;

// ---- Stateless hashing -----------------------------------------------------
// Per-(device, epoch, cluster) draws use a SplitMix64 finalizer over a pure
// function of the identifiers, never a mutable stream. This is the fleet
// application of the farm's RNG-stream isolation rule: a device's draws
// depend only on (fleet seed, device index, epoch, cluster), so any block
// partition and any --jobs count replays the identical sequence.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from a hash word (53 mantissa bits).
inline double unit_from(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// ---- Configuration types ---------------------------------------------------

/// One cluster of a device archetype (a phone *model*, shared read-only by
/// every device instance of that model): the OPP-indexed power/frequency
/// tables plus the scalar electrical/throttle constants. Derived from
/// soc::OppTable x soc::CorePowerParams x soc::ThrottleConfig.
struct ArchetypeCluster {
  /// Per-OPP frequency (Hz).
  std::vector<double> opp_freq_hz;
  /// Per-OPP capacity: freq / max freq of this table, in (0, 1].
  std::vector<double> opp_cap;
  /// Per-OPP cluster-level dynamic watts at activity 1.0
  /// (cores * c_eff * V^2 * f, via soc::CorePowerModel::opp_terms).
  std::vector<double> opp_dyn_w;
  /// Per-OPP cluster-level leakage watts at temperature factor 1.0.
  std::vector<double> opp_leak_w;
  /// Per-OPP bin on the policy's common kFreqBins axis.
  std::vector<std::uint8_t> opp_freq_bin;
  double idle_activity = 0.05;
  /// Quadratic leakage-vs-temperature coefficient (see leak_temp_factor).
  double leak_temp_coeff = 0.03;
  double leak_ref_temp_c = 25.0;
  double trip_temp_c = 95.0;
  double clear_temp_c = 85.0;
  std::uint32_t throttle_cap_index = 0;
  std::uint32_t opp_count = 1;
  /// False for the inert slot of single-cluster devices.
  bool active = false;
};

/// A phone model. Fleets instantiate many devices per archetype (like real
/// fleets: dozens of SKUs, millions of handsets), so the OPP-indexed tables
/// are shared and the per-device state stays a few flat scalars.
struct Archetype {
  std::array<ArchetypeCluster, kMaxClusters> clusters;
  std::size_t cluster_count = 1;
  double uncore_static_w = 0.25;
  /// Extra watts per unit of served capacity (DRAM traffic proxy).
  double uncore_dyn_w = 0.35;
};

/// Per-device, per-cluster seeded variation.
struct DeviceClusterSpec {
  /// First-order RC thermal node to ambient (soc::ThermalNodeParams shape).
  /// The per-tick decay exp(-dt / (r_th * c_th)) is derived by each engine
  /// from the configured tick — the same expression on the same inputs, so
  /// both engines hold bit-identical decay factors.
  double r_th_k_per_w = 4.0;
  double c_th_j_per_k = 1.0;
  double initial_temp_c = 25.0;
  /// Workload demand process: base + amp * triangle(period, phase) +
  /// jitter * noise, clamped to [0, kDemandMax].
  double demand_base = 0.0;
  double demand_amp = 0.0;
  double demand_jitter = 0.0;
  std::uint32_t demand_period_epochs = 16;
  std::uint32_t demand_phase = 0;
  std::uint32_t initial_opp = 0;
  double initial_util = 0.0;
};

/// One device instance: archetype reference + seeded scalar variation.
struct DeviceSpec {
  std::uint32_t archetype = 0;
  /// Stateless-draw key (see mix64 note above).
  std::uint64_t seed = 0;
  double ambient_c = 25.0;
  /// Battery capacity and initial charge, joules.
  double battery_capacity_j = 0.0;
  double battery_initial_j = 0.0;
  std::array<DeviceClusterSpec, kMaxClusters> clusters;
};

/// Demand ceiling: devices can ask for slightly more than the cluster's
/// max-frequency capacity (1.0), which is what makes QoS violations and the
/// up-shift pressure real.
inline constexpr double kDemandMax = 1.05;
/// An epoch violates QoS when served capacity falls below this fraction of
/// demanded capacity.
inline constexpr double kQosSlack = 0.95;
/// Utilization EWMA time constant (s) — PELT-ish smoothing of the busy
/// fraction.
inline constexpr double kUtilTauS = 0.1;

// ---- Shared arithmetic (the bit-identity contract) ------------------------

/// Leakage temperature factor exp(k * (T - Tref)), identical to
/// soc::CorePowerModel::temp_factor. The full SoC model pays this exp once
/// per cluster per *tick*; the fleet model samples-and-holds it at decision
/// epochs, so the transcendental runs an order of magnitude less often.
inline double leak_temp_factor(double coeff, double temp_c, double ref_c) {
  return std::exp(coeff * (temp_c - ref_c));
}

/// Workload demand for `epoch` on one cluster: deterministic triangle wave
/// plus hash noise, a pure function of (spec, device seed, epoch, cluster).
/// Demand for a known phase position `pos` = (epoch + demand_phase) %
/// demand_period_epochs. Callers that sweep epochs sequentially (the SoA
/// engine) maintain `pos` incrementally and skip the 64-bit modulo;
/// epoch_demand() below computes it directly. Both paths see the same
/// integer, hence the same double.
inline double epoch_demand_at(const DeviceClusterSpec& spec,
                              std::uint64_t device_seed, std::uint64_t epoch,
                              std::size_t cluster, std::uint64_t pos) {
  const std::uint64_t period = spec.demand_period_epochs;
  const double tri =
      1.0 - 2.0 * std::abs(2.0 * (static_cast<double>(pos) /
                                  static_cast<double>(period)) -
                           1.0);  // triangle in [-1, 1]
  const double noise =
      2.0 * unit_from(mix64(device_seed ^ (epoch * 0x9e3779b97f4a7c15ULL) ^
                            (cluster * 0xbf58476d1ce4e5b9ULL))) -
      1.0;
  const double d =
      spec.demand_base + spec.demand_amp * tri + spec.demand_jitter * noise;
  return std::clamp(d, 0.0, kDemandMax);
}

inline double epoch_demand(const DeviceClusterSpec& spec,
                           std::uint64_t device_seed, std::uint64_t epoch,
                           std::size_t cluster) {
  const std::uint64_t pos =
      (epoch + spec.demand_phase) % spec.demand_period_epochs;
  return epoch_demand_at(spec, device_seed, epoch, cluster, pos);
}

/// Epoch-rate quantities of one cluster, derived once per epoch (SoA) or
/// re-derived per tick (the engine-faithful AoS baseline, which evaluates
/// its power model every tick exactly like soc::Soc::step does). Both
/// produce identical values because every input is epoch-constant.
struct ClusterEpochDerived {
  double busy = 0.0;         ///< busy fraction of the interval, [0, 1]
  double served_rate = 0.0;  ///< delivered capacity units per second
  double power_w = 0.0;      ///< cluster power at the held temp factor
  double t_target_c = 0.0;   ///< RC steady-state temperature
};

inline ClusterEpochDerived derive_cluster_epoch(const ArchetypeCluster& arch,
                                                std::uint32_t opp,
                                                double demand,
                                                double held_temp_factor,
                                                double ambient_c,
                                                double r_th_k_per_w) {
  ClusterEpochDerived d;
  const double cap = arch.opp_cap[opp];
  d.busy = std::min(1.0, demand / cap);
  d.served_rate = std::min(demand, cap);
  const double activity =
      arch.idle_activity + (1.0 - arch.idle_activity) * d.busy;
  d.power_w = arch.opp_dyn_w[opp] * activity +
              arch.opp_leak_w[opp] * held_temp_factor;
  d.t_target_c = ambient_c + d.power_w * r_th_k_per_w;
  return d;
}

/// One tick of the cluster integrators: utilization EWMA toward the busy
/// fraction, exact-exponential RC step toward the thermal target.
inline void tick_cluster(double& util, double& temp_c, double busy,
                         double t_target_c, double util_decay,
                         double temp_decay) {
  util = busy + (util - busy) * util_decay;
  temp_c = t_target_c + (temp_c - t_target_c) * temp_decay;
}

/// One tick of the device-level energy/battery integrators.
inline void tick_device_energy(double& energy_j, double& battery_j,
                               double power_w, double dt_s) {
  const double e = power_w * dt_s;
  energy_j += e;
  battery_j = std::max(0.0, battery_j - e);
}

/// Policy state index from the cluster observation.
inline std::uint32_t cluster_state(double util, double temp_c,
                                   std::uint8_t freq_bin) {
  const auto util_bin = std::min<std::uint32_t>(
      kUtilBins - 1,
      static_cast<std::uint32_t>(util * static_cast<double>(kUtilBins)));
  const std::uint32_t hot = temp_c >= kHotTempC ? 1 : 0;
  return (hot * kUtilBins + util_bin) * kFreqBins + freq_bin;
}

/// Throttle hysteresis (soc::ThrottleConfig semantics).
inline bool update_throttle(bool throttled, double temp_c, double trip_c,
                            double clear_c) {
  if (temp_c >= trip_c) return true;
  if (temp_c <= clear_c) return false;
  return throttled;
}

/// Applies a policy action to the OPP index, then the throttle cap. The
/// actions are ordered down < hold < up, so `action - 1` is the step; the
/// stepped index is clamped to the table, and to the throttle cap when
/// throttled, with integer min/max instead of data-dependent branches.
inline std::uint32_t apply_action(std::uint32_t opp, std::uint32_t action,
                                  const ArchetypeCluster& arch,
                                  bool throttled) {
  const std::int32_t stepped = static_cast<std::int32_t>(opp + action) - 1;
  const std::uint32_t top = arch.opp_count - 1;
  const std::uint32_t ceiling =
      throttled ? std::min(top, arch.throttle_cap_index) : top;
  return std::min(static_cast<std::uint32_t>(std::max(stepped, 0)), ceiling);
}

// ---- Fleet-level configuration --------------------------------------------

struct FleetConfig {
  /// Devices to instantiate.
  std::size_t devices = 100000;
  /// Master seed: archetypes, device specs, and every runtime draw derive
  /// from it.
  std::uint64_t seed = 1;
  /// Distinct phone models the fleet is drawn from.
  std::size_t archetypes = 32;
  /// Simulation tick (s). Coarser than the single-SoC engine's 1 ms — the
  /// fleet layer studies population dynamics, not scheduler microstructure.
  double tick_s = 0.01;
  /// Decision epoch (s); must be >= tick_s.
  double decision_period_s = 0.1;
  /// Simulated duration (s).
  double duration_s = 10.0;
  /// Devices per SoA block (= per farm task). Blocks are the unit of
  /// sharding and of cache-friendly sweeping.
  std::size_t block_size = 4096;
  /// Worker threads (0 = runfarm default_jobs(), 1 = serial inline).
  std::size_t jobs = 1;
  /// Capture per-device outcomes (golden-equivalence tests; sized
  /// devices * ~100 B).
  bool record_devices = false;
  /// Capture the per-epoch fleet aggregate series (CLI --trace).
  bool record_epochs = false;
  /// Hierarchical power budget (budget.enabled() turns on the budgeted,
  /// epoch-major execution path; see src/budget and DESIGN.md §12).
  budget::BudgetSpec budget;
};

/// Derived timing: tick count per epoch and epoch count, resolved the same
/// way for both executors.
struct FleetTiming {
  double tick_s = 0.01;
  std::size_t ticks_per_epoch = 10;
  std::size_t epochs = 100;
  double util_decay = 0.0;  ///< exp(-tick / kUtilTauS)
  double epoch_s = 0.1;     ///< ticks_per_epoch * tick_s
};

FleetTiming resolve_timing(const FleetConfig& config);

/// Builds `n` archetypes by seeded variation over the soc/ config types
/// (big/LITTLE OPP tables via soc::scaled_opps, core power params, throttle
/// and uncore defaults).
std::vector<Archetype> make_archetypes(std::size_t n, std::uint64_t seed);

/// Builds per-device specs: archetype assignment plus thermal / battery /
/// workload variation. Device i's spec depends only on (seed, i).
std::vector<DeviceSpec> make_device_specs(const std::vector<Archetype>& archs,
                                          std::size_t devices,
                                          std::uint64_t seed);

}  // namespace pmrl::fleet
