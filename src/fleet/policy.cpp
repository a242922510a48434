#include "fleet/policy.hpp"

namespace pmrl::fleet {

FleetPolicy::FleetPolicy()
    : table_(kStateCount * kActionCount, 0.0),
      // Energy-order prior, same shape as the RL governor's DVFS bias:
      // when indifferent prefer down, then hold, then up.
      bias_{0.02, 0.01, 0.0} {
  for (std::uint32_t s = 0; s < kStateCount; ++s) refresh(s);
}

FleetPolicy FleetPolicy::default_policy() {
  FleetPolicy p;
  for (std::uint32_t hot = 0; hot < kTempBins; ++hot) {
    for (std::uint32_t u = 0; u < kUtilBins; ++u) {
      for (std::uint32_t f = 0; f < kFreqBins; ++f) {
        const std::uint32_t s = (hot * kUtilBins + u) * kFreqBins + f;
        const double util_mid =
            (static_cast<double>(u) + 0.5) / static_cast<double>(kUtilBins);
        // Headroom pressure: positive when the cluster runs hotter than
        // ~80% busy at its current relative OPP, negative when there is
        // slack to shed.
        const double pressure = util_mid - 0.8;
        const double freq_frac =
            static_cast<double>(f) / static_cast<double>(kFreqBins - 1);
        // A hot die discounts the value of going faster and rewards
        // backing off (the throttle would claw the speed back anyway).
        const double hot_penalty = hot ? 0.6 : 0.0;
        p.set_q(s, kActionUp, pressure - 0.1 * freq_frac - hot_penalty);
        p.set_q(s, kActionHold, 0.0);
        p.set_q(s, kActionDown, -pressure - 0.05 + 0.2 * hot_penalty);
      }
    }
  }
  return p;
}

void FleetPolicy::set_q(std::uint32_t state, std::uint32_t action,
                        double value) {
  table_[state * kActionCount + action] = value;
  refresh(state);
}

std::uint32_t FleetPolicy::greedy(std::uint32_t state) const {
  const double* row = table_.data() + state * kActionCount;
  std::uint32_t best = 0;
  double best_value = row[0] + bias_[0];
  for (std::uint32_t a = 1; a < kActionCount; ++a) {
    const double v = row[a] + bias_[a];
    if (v > best_value) {
      best_value = v;
      best = a;
    }
  }
  return best;
}

void FleetPolicy::refresh(std::uint32_t state) {
  const double* row = table_.data() + state * kActionCount;
  greedy_[state] = static_cast<std::uint8_t>(greedy(state));
  // The same strict > scan, over the {down, hold} prefix only.
  const double down = row[kActionDown] + bias_[kActionDown];
  const double hold = row[kActionHold] + bias_[kActionHold];
  down_hold_[state] =
      static_cast<std::uint8_t>(hold > down ? kActionHold : kActionDown);
}

void FleetPolicy::greedy_batch(const std::uint64_t* states, std::size_t count,
                               std::uint32_t* actions) const {
  for (std::size_t i = 0; i < count; ++i) actions[i] = greedy_[states[i]];
}

}  // namespace pmrl::fleet
