#pragma once
// AoS per-device reference executor: one engine object per phone, advanced
// tick by tick exactly like the single-SoC SimEngine advances its Soc — the
// power model is evaluated every tick, state lives in a heap-allocated
// per-object cluster vector, decisions are taken one state at a time. This
// is the golden reference the SoA FleetEngine must match bit-for-bit.

#include <cstdint>
#include <vector>

#include "fleet/device_model.hpp"
#include "fleet/policy.hpp"

namespace pmrl::fleet {

/// End-of-run observables of one device. Equality across executors is the
/// golden-equivalence contract: every field must match bit-for-bit.
struct DeviceOutcome {
  double energy_j = 0.0;
  /// Integrated served / demanded capacity (capacity-seconds).
  double served = 0.0;
  double demand = 0.0;
  /// Epochs where served < demand * kQosSlack.
  std::uint32_t violations = 0;
  double battery_j = 0.0;
  std::array<double, kMaxClusters> util{};
  std::array<double, kMaxClusters> temp_c{};
  std::array<std::uint32_t, kMaxClusters> opp{};

  bool operator==(const DeviceOutcome&) const = default;

  /// Joules per delivered capacity-second — the fleet's energy-per-QoS
  /// figure of merit (histogrammed across devices).
  double energy_per_served() const {
    return energy_j / (served > 1e-9 ? served : 1e-9);
  }
};

/// One simulated phone, advanced epoch by epoch.
class DeviceEngine {
 public:
  DeviceEngine(const Archetype& archetype, const DeviceSpec& spec,
               const FleetPolicy& policy, const FleetTiming& timing);

  /// Advances one decision epoch (ticks, QoS accounting, policy decision).
  void step_epoch();

  /// Runs epochs up to timing.epochs.
  void run();

  DeviceOutcome outcome() const;
  std::size_t epoch() const { return epoch_; }

 private:
  struct ClusterState {
    double util = 0.0;
    double temp_c = 25.0;
    double demand = 0.0;
    /// Leakage-temperature input, sampled at epoch start. The factor itself
    /// (an exp of this) is re-evaluated every tick, like soc::Cluster does.
    double held_temp_c = 25.0;
    std::uint32_t opp = 0;
    bool throttled = false;
  };

  const Archetype& archetype_;
  const DeviceSpec& spec_;
  const FleetPolicy& policy_;
  FleetTiming timing_;
  std::vector<ClusterState> clusters_;
  double energy_j_ = 0.0;
  double served_ = 0.0;
  double demand_ = 0.0;
  double battery_j_ = 0.0;
  std::uint32_t violations_ = 0;
  std::size_t epoch_ = 0;
};

}  // namespace pmrl::fleet
