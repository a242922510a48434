#pragma once
// Shared fleet power-management policy: one frozen tabular Q function over
// the compact (hot, util-bin, freq-bin) state space every device observes,
// evaluated greedily for the whole fleet each decision epoch. This is the
// deployment-side counterpart of the single-SoC RL governor — the fleet
// layer studies a *trained* policy at population scale, so the table is
// fixed for a run (loaded from a trained agent or the built-in heuristic
// initialization).
//
// Because the values are frozen, each state's greedy answer is a constant:
// the policy keeps it in a 96-byte action table (the fleet engine decides
// with one table read per cluster slot, as the paper's hardware decides
// with one BRAM row read), plus a second table with the greedy action among
// {down, hold} for a device whose power cap vetoes a step up. Both tables
// are filled on construction and refreshed by set_q, so they always agree
// with the greedy() scan.

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "fleet/device_model.hpp"

namespace pmrl::fleet {

/// Frozen per-state action-value table, row-major [state][action], with the
/// same "when indifferent, step down" action bias the RL governor uses.
class FleetPolicy {
 public:
  using ActionTable = std::array<std::uint8_t, kStateCount>;

  /// Zero-initialized table (greedy picks kActionDown everywhere until the
  /// values are filled in).
  FleetPolicy();

  /// Heuristic race-to-idle-flavored policy: step up when utilization is
  /// high for the current relative OPP (harder when hot is false), step
  /// down when utilization is low or the die is hot. Seeded so fleets can
  /// run meaningful population studies without a training phase.
  static FleetPolicy default_policy();

  double q(std::uint32_t state, std::uint32_t action) const {
    return table_[state * kActionCount + action];
  }
  /// Sets one value and refreshes that state's entries in both action
  /// tables.
  void set_q(std::uint32_t state, std::uint32_t action, double value);

  /// Greedy action for one state: argmax over q(s,a) + bias[a], strict >
  /// so ties break toward the lowest action index (matches rl::QTable).
  /// The scan itself, independent of the action tables.
  std::uint32_t greedy(std::uint32_t state) const;

  /// Greedy actions for a batch of states, one greedy_table() read each;
  /// identical to calling greedy() per state.
  void greedy_batch(const std::uint64_t* states, std::size_t count,
                    std::uint32_t* actions) const;

  /// greedy(s) for every state s.
  const ActionTable& greedy_table() const { return greedy_; }
  /// The greedy action among {down, hold} for every state: the DVFS actions
  /// are power-ordered down < hold < up, so this is the choice a power cap
  /// leaves when it vetoes a step up.
  const ActionTable& down_hold_table() const { return down_hold_; }

  const std::vector<double>& bias() const { return bias_; }

 private:
  void refresh(std::uint32_t state);

  std::vector<double> table_;  ///< kStateCount x kActionCount
  std::vector<double> bias_;   ///< kActionCount
  ActionTable greedy_{};
  ActionTable down_hold_{};
};

}  // namespace pmrl::fleet
