#include "fleet/fleet_engine.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/runfarm/runfarm.hpp"
#include "core/runfarm/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"

namespace pmrl::fleet {

std::vector<double> energy_per_served_bounds() {
  // Geometric ladder over the plausible J-per-capacity-second range of the
  // device model (idle LITTLE phone ~0.3, throttling big cluster ~60).
  std::vector<double> bounds;
  const int n = 96;
  const double lo = 0.125;
  const double hi = 128.0;
  const double ratio = std::pow(hi / lo, 1.0 / static_cast<double>(n - 1));
  double b = lo;
  for (int i = 0; i < n; ++i) {
    bounds.push_back(b);
    b *= ratio;
  }
  return bounds;
}

/// Per-block partial aggregate; merged across blocks in block order.
struct FleetEngine::BlockResult {
  double energy_j = 0.0;
  double served = 0.0;
  double demand = 0.0;
  double energy_per_served_sum = 0.0;
  std::uint64_t violations = 0;
  std::size_t battery_depleted = 0;
  std::unique_ptr<obs::Histogram> eps_hist;
  std::vector<FleetEpochPoint> epoch_series;
};

FleetEngine::FleetEngine(FleetConfig config, FleetPolicy policy)
    : config_(config),
      timing_(resolve_timing(config)),
      policy_(std::move(policy)) {
  if (config_.devices == 0) throw std::invalid_argument("fleet of 0 devices");
  if (config_.block_size == 0) throw std::invalid_argument("block_size == 0");
  archetypes_ = make_archetypes(config_.archetypes, config_.seed);
  specs_ = make_device_specs(archetypes_, config_.devices, config_.seed);
  jobs_ = core::runfarm::resolve_jobs(config_.jobs);
  if (config_.budget.enabled()) {
    tree_ = std::make_unique<budget::BudgetTree>(config_.budget,
                                                 config_.devices);
    demand_w_.resize(config_.devices);
    caps_w_.resize(config_.devices);
  }

  const std::size_t slots = config_.devices * kMaxClusters;
  util_.resize(slots);
  temp_c_.resize(slots);
  temp_decay_.resize(slots);
  opp_.resize(slots);
  throttled_.resize(slots);
  demand_pos_.resize(slots);
  energy_j_.resize(config_.devices);
  battery_j_.resize(config_.devices);
  served_.resize(config_.devices);
  demand_.resize(config_.devices);
  violations_.resize(config_.devices);

  arch_.resize(config_.devices);
  seed_.resize(config_.devices);
  ambient_c_.resize(config_.devices);
  r_th_.resize(slots);
  cluster_spec_.resize(slots);
  for (std::size_t d = 0; d < config_.devices; ++d) {
    const DeviceSpec& sp = specs_[d];
    arch_[d] = static_cast<std::uint32_t>(sp.archetype);
    seed_[d] = sp.seed;
    ambient_c_[d] = sp.ambient_c;
    for (std::size_t c = 0; c < kMaxClusters; ++c) {
      r_th_[d * kMaxClusters + c] = sp.clusters[c].r_th_k_per_w;
      cluster_spec_[d * kMaxClusters + c] = sp.clusters[c];
    }
  }
}

void FleetEngine::reset_state() {
  for (std::size_t d = 0; d < config_.devices; ++d) {
    const DeviceSpec& sp = specs_[d];
    for (std::size_t c = 0; c < kMaxClusters; ++c) {
      const std::size_t i = d * kMaxClusters + c;
      const DeviceClusterSpec& cs = sp.clusters[c];
      util_[i] = cs.initial_util;
      temp_c_[i] = cs.initial_temp_c;
      // Same expression on the same inputs that DeviceEngine evaluates on
      // every tick, hence bit-identical decay factors — hoisted here to
      // construction time because it never changes.
      temp_decay_[i] =
          std::exp(-timing_.tick_s / (cs.r_th_k_per_w * cs.c_th_j_per_k));
      opp_[i] = cs.initial_opp;
      throttled_[i] = 0;
      demand_pos_[i] = static_cast<std::uint32_t>(cs.demand_phase %
                                                  cs.demand_period_epochs);
    }
    energy_j_[d] = 0.0;
    battery_j_[d] = sp.battery_initial_j;
    served_[d] = 0.0;
    demand_[d] = 0.0;
    violations_[d] = 0;
  }
}

FleetEngine::EpochStats FleetEngine::epoch_pass(std::size_t first,
                                                std::size_t last,
                                                std::size_t e,
                                                const double* caps_w) {
  // Chunks of four devices keep ~6*4 independent FMA dependency chains in
  // flight in the tick sweep, hiding the multiply-add latency that a
  // one-device-at-a-time loop serializes on; the tail goes one by one.
  EpochStats st;
  std::size_t d = first;
  for (; d + 4 <= last; d += 4) advance_chunk<4>(d, e, caps_w, st);
  for (; d < last; ++d) advance_chunk<1>(d, e, caps_w, st);
  return st;
}

template <std::size_t K>
void FleetEngine::advance_chunk(std::size_t d0, std::size_t e,
                                const double* caps_w, EpochStats& st) {
  constexpr std::size_t kSlots = K * kMaxClusters;
  const std::size_t i0 = d0 * kMaxClusters;
  const Archetype* ar[K];
  // Per-slot epoch values: demand, held leakage temp factor, busy fraction,
  // thermal target, power and served rate.
  double dem[kSlots], tf[kSlots], bz[kSlots], tt[kSlots], pw[kSlots],
      sr[kSlots];
  // Per-device epoch values: total power, served and demanded rate.
  double p_total[K], srs[K], drs[K];

  // Epoch start: hash demand, hold the leakage temp factor, derive every
  // epoch-constant quantity once. The AoS baseline re-derives these on
  // every tick; the values are identical because every input is
  // epoch-constant.
  for (std::size_t k = 0; k < K; ++k) {
    const std::size_t d = d0 + k;
    ar[k] = &archetypes_[arch_[d]];
    const std::uint64_t dev_seed = seed_[d];
    const double ambient = ambient_c_[d];
    double pt = ar[k]->uncore_static_w;
    double srs_k = 0.0;
    double drs_k = 0.0;
    for (std::size_t c = 0; c < kMaxClusters; ++c) {
      const std::size_t j = k * kMaxClusters + c;
      const std::size_t i = i0 + j;
      const ArchetypeCluster& ac = ar[k]->clusters[c];
      const DeviceClusterSpec& cs = cluster_spec_[i];
      const std::uint32_t pos = demand_pos_[i];
      dem[j] = epoch_demand_at(cs, dev_seed, e, c, pos);
      const std::uint32_t next = pos + 1;
      demand_pos_[i] = next == cs.demand_period_epochs ? 0u : next;
      tf[j] = leak_temp_factor(ac.leak_temp_coeff, temp_c_[i],
                               ac.leak_ref_temp_c);
      const ClusterEpochDerived der =
          derive_cluster_epoch(ac, opp_[i], dem[j], tf[j], ambient, r_th_[i]);
      bz[j] = der.busy;
      tt[j] = der.t_target_c;
      pw[j] = der.power_w;
      sr[j] = der.served_rate;
      pt += der.power_w;
      srs_k += der.served_rate;
      drs_k += dem[j];
    }
    p_total[k] = pt + ar[k]->uncore_dyn_w * srs_k;
    srs[k] = srs_k;
    drs[k] = drs_k;
    // Measured device power is next epoch's apportionment demand.
    if (caps_w) demand_w_[d] = p_total[k];
  }

  // Tick sweep: only the integrators run per tick — two FMA pairs per
  // cluster slot plus the energy/battery update, with the chunk's state in
  // registers for the whole epoch. The per-device operation sequence is
  // exactly the AoS engine's, so the bits are unchanged.
  const double util_decay = timing_.util_decay;
  const double dt = timing_.tick_s;
  double u[kSlots], tc[kSlots], dec[kSlots];
  double en[K], bat[K];
  for (std::size_t j = 0; j < kSlots; ++j) {
    u[j] = util_[i0 + j];
    tc[j] = temp_c_[i0 + j];
    dec[j] = temp_decay_[i0 + j];
  }
  for (std::size_t k = 0; k < K; ++k) {
    en[k] = energy_j_[d0 + k];
    bat[k] = battery_j_[d0 + k];
  }
  for (std::size_t t = 0; t < timing_.ticks_per_epoch; ++t) {
    for (std::size_t j = 0; j < kSlots; ++j) {
      tick_cluster(u[j], tc[j], bz[j], tt[j], util_decay, dec[j]);
    }
    for (std::size_t k = 0; k < K; ++k) {
      tick_device_energy(en[k], bat[k], p_total[k], dt);
    }
  }
  for (std::size_t j = 0; j < kSlots; ++j) {
    util_[i0 + j] = u[j];
    temp_c_[i0 + j] = tc[j];
  }
  for (std::size_t k = 0; k < K; ++k) {
    energy_j_[d0 + k] = en[k];
    battery_j_[d0 + k] = bat[k];
  }

  // QoS accounting (identical closed forms to DeviceEngine::step_epoch),
  // then the decision: bin the observation, read the action table, latch
  // the throttle, and on a budgeted epoch veto in place — a device already
  // over its cap sheds everywhere, and an Up whose projected step-up power
  // would cross the cap takes the {down, hold} entry instead.
  const FleetPolicy::ActionTable& greedy = policy_.greedy_table();
  const FleetPolicy::ActionTable& down_hold = policy_.down_hold_table();
  for (std::size_t k = 0; k < K; ++k) {
    const std::size_t d = d0 + k;
    const double epoch_served = srs[k] * timing_.epoch_s;
    const double epoch_demand_cap = drs[k] * timing_.epoch_s;
    served_[d] += epoch_served;
    demand_[d] += epoch_demand_cap;
    const bool violated = epoch_served < epoch_demand_cap * kQosSlack;
    if (violated) ++violations_[d];
    st.power_w += p_total[k];
    st.served += epoch_served;
    st.demand += epoch_demand_cap;
    if (violated) ++st.violations;
    const double cap = caps_w ? caps_w[d] : 0.0;
    const bool over_cap = caps_w && p_total[k] > cap;
    if (over_cap) {
      // Over cap but already pinned at the bottom OPP everywhere: the
      // governor has nothing left to shed, so don't count it as pressure.
      bool pinned = true;
      for (std::size_t c = 0; c < ar[k]->cluster_count; ++c) {
        if (opp_[i0 + k * kMaxClusters + c] != 0) pinned = false;
      }
      if (!pinned) ++st.over_cap;
    }

    double proj = p_total[k];
    for (std::size_t c = 0; c < kMaxClusters; ++c) {
      const std::size_t j = k * kMaxClusters + c;
      const std::size_t i = i0 + j;
      const ArchetypeCluster& ac = ar[k]->clusters[c];
      const std::uint32_t opp = opp_[i];
      const std::uint32_t state =
          cluster_state(u[j], tc[j], ac.opp_freq_bin[opp]);
      const bool throttled = update_throttle(throttled_[i] != 0, tc[j],
                                             ac.trip_temp_c, ac.clear_temp_c);
      throttled_[i] = throttled ? 1 : 0;
      std::uint32_t action = greedy[state];
      if (over_cap) {
        action = kActionDown;
      } else if (caps_w && action == kActionUp && opp + 1 < ac.opp_count) {
        // Project this epoch's demand at the stepped-up OPP.
        const ClusterEpochDerived up = derive_cluster_epoch(
            ac, opp + 1, dem[j], tf[j], ambient_c_[d], r_th_[i]);
        const double delta =
            (up.power_w + ar[k]->uncore_dyn_w * up.served_rate) -
            (pw[j] + ar[k]->uncore_dyn_w * sr[j]);
        if (proj + delta > cap) {
          action = down_hold[state];
        } else {
          proj += delta;
        }
      }
      opp_[i] = apply_action(opp, action, ac, throttled);
    }
  }
}

FleetEngine::BlockResult FleetEngine::finalize_block(
    std::size_t first, std::size_t last,
    std::vector<DeviceOutcome>* outcomes) const {
  BlockResult r;
  r.eps_hist = std::make_unique<obs::Histogram>(energy_per_served_bounds());
  // Block totals, accumulated in device order.
  for (std::size_t d = first; d < last; ++d) {
    r.energy_j += energy_j_[d];
    r.served += served_[d];
    r.demand += demand_[d];
    r.violations += violations_[d];
    if (battery_j_[d] <= 0.0) ++r.battery_depleted;
    DeviceOutcome o;
    o.energy_j = energy_j_[d];
    o.served = served_[d];
    o.demand = demand_[d];
    o.violations = violations_[d];
    o.battery_j = battery_j_[d];
    const std::size_t active = archetypes_[arch_[d]].cluster_count;
    for (std::size_t c = 0; c < active; ++c) {
      const std::size_t i = d * kMaxClusters + c;
      o.util[c] = util_[i];
      o.temp_c[c] = temp_c_[i];
      o.opp[c] = opp_[i];
    }
    const double eps = o.energy_per_served();
    r.energy_per_served_sum += eps;
    r.eps_hist->observe(eps);
    if (outcomes) (*outcomes)[d] = o;
  }
  return r;
}

void FleetEngine::reduce_blocks(const std::vector<BlockResult>& blocks,
                                FleetResult& result) const {
  obs::Histogram eps_hist(energy_per_served_bounds());
  double eps_sum = 0.0;
  for (const BlockResult& b : blocks) {
    result.energy_j += b.energy_j;
    result.served += b.served;
    result.demand += b.demand;
    result.violation_epochs += b.violations;
    result.battery_depleted += b.battery_depleted;
    eps_sum += b.energy_per_served_sum;
    eps_hist.merge(*b.eps_hist);
    for (std::size_t e = 0; e < b.epoch_series.size(); ++e) {
      FleetEpochPoint& p = result.epoch_series[e];
      p.time_s = b.epoch_series[e].time_s;
      p.energy_j += b.epoch_series[e].energy_j;
      p.served += b.epoch_series[e].served;
      p.demand += b.epoch_series[e].demand;
      p.violations += b.epoch_series[e].violations;
    }
  }
  const double device_epochs = static_cast<double>(config_.devices) *
                               static_cast<double>(timing_.epochs);
  result.violation_rate =
      static_cast<double>(result.violation_epochs) / device_epochs;
  result.energy_per_served_mean =
      eps_sum / static_cast<double>(config_.devices);
  result.energy_per_served_p50 = eps_hist.percentile(0.50);
  result.energy_per_served_p95 = eps_hist.percentile(0.95);
  result.energy_per_served_p99 = eps_hist.percentile(0.99);

  if (metrics_) {
    metrics_->counter("fleet.devices").inc(config_.devices);
    metrics_->counter("fleet.device_ticks").inc(result.device_ticks);
    metrics_->counter("fleet.violation_epochs").inc(result.violation_epochs);
    metrics_->counter("fleet.battery_depleted").inc(result.battery_depleted);
    metrics_->gauge("fleet.energy_j").set(result.energy_j);
    metrics_->gauge("fleet.violation_rate").set(result.violation_rate);
    metrics_->histogram("fleet.energy_per_served", energy_per_served_bounds())
        .merge(eps_hist);
  }
}

FleetResult FleetEngine::run() {
  return config_.budget.enabled() ? run_budgeted() : run_unbudgeted();
}

FleetResult FleetEngine::run_unbudgeted() {
  reset_state();

  FleetResult result;
  result.devices = config_.devices;
  result.epochs = timing_.epochs;
  result.ticks_per_epoch = timing_.ticks_per_epoch;
  result.device_ticks = static_cast<std::uint64_t>(config_.devices) *
                        timing_.epochs * timing_.ticks_per_epoch;
  if (config_.record_devices) result.device_outcomes.resize(config_.devices);
  std::vector<DeviceOutcome>* outcomes =
      config_.record_devices ? &result.device_outcomes : nullptr;

  // One farm task per block. Tasks write disjoint SoA slices; partial
  // aggregates come back through run_ordered in block order, so the merge
  // below is the same fp reduction at any --jobs.
  std::vector<std::function<BlockResult()>> tasks;
  for (std::size_t first = 0; first < config_.devices;
       first += config_.block_size) {
    const std::size_t last =
        std::min(config_.devices, first + config_.block_size);
    tasks.push_back([this, first, last, outcomes] {
      std::vector<FleetEpochPoint> series;
      if (config_.record_epochs) series.resize(timing_.epochs);
      for (std::size_t e = 0; e < timing_.epochs; ++e) {
        const EpochStats st = epoch_pass(first, last, e, nullptr);
        if (config_.record_epochs) {
          FleetEpochPoint& ep = series[e];
          ep.time_s = static_cast<double>(e + 1) * timing_.epoch_s;
          ep.energy_j = st.power_w * timing_.epoch_s;
          ep.served = st.served;
          ep.demand = st.demand;
          ep.violations = st.violations;
        }
      }
      BlockResult r = finalize_block(first, last, outcomes);
      r.epoch_series = std::move(series);
      return r;
    });
  }
  std::unique_ptr<core::runfarm::ThreadPool> pool;
  if (jobs_ > 1) pool = std::make_unique<core::runfarm::ThreadPool>(jobs_);
  std::vector<BlockResult> blocks = core::runfarm::run_ordered<BlockResult>(
      pool ? pool.get() : nullptr, tasks);

  if (config_.record_epochs) result.epoch_series.resize(timing_.epochs);
  reduce_blocks(blocks, result);
  return result;
}

FleetResult FleetEngine::run_budgeted() {
  reset_state();
  tree_->reset();
  // Epoch 0 apportions from an all-zero demand column (no measurement
  // exists yet), which every policy resolves to a uniform split.
  std::fill(demand_w_.begin(), demand_w_.end(), 0.0);
  std::fill(caps_w_.begin(), caps_w_.end(), 0.0);

  FleetResult result;
  result.devices = config_.devices;
  result.epochs = timing_.epochs;
  result.ticks_per_epoch = timing_.ticks_per_epoch;
  result.device_ticks = static_cast<std::uint64_t>(config_.devices) *
                        timing_.epochs * timing_.ticks_per_epoch;
  if (config_.record_devices) result.device_outcomes.resize(config_.devices);
  std::vector<DeviceOutcome>* outcomes =
      config_.record_devices ? &result.device_outcomes : nullptr;
  if (config_.record_epochs) result.epoch_series.resize(timing_.epochs);

  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  for (std::size_t first = 0; first < config_.devices;
       first += config_.block_size) {
    ranges.emplace_back(first,
                        std::min(config_.devices, first + config_.block_size));
  }
  std::unique_ptr<core::runfarm::ThreadPool> pool;
  if (jobs_ > 1) pool = std::make_unique<core::runfarm::ThreadPool>(jobs_);

  // Epoch-major loop: a serial apportionment pass between parallel epoch
  // rounds. Caps are a pure function of the strictly device-ordered demand
  // column, so they are bit-identical at any --jobs and any --block.
  std::size_t last_step_epoch = 0;
  std::vector<EpochStats> totals(timing_.epochs);
  std::vector<double> eff_caps(timing_.epochs);
  std::uint64_t over_cap_total = 0;
  // One task per block, built once: each closure reads the shared epoch
  // counter, which only the serial loop below mutates (between rounds).
  std::size_t current_epoch = 0;
  std::vector<std::function<EpochStats()>> tasks;
  tasks.reserve(ranges.size());
  for (const auto& [first, last] : ranges) {
    tasks.push_back([this, first = first, last = last, &current_epoch] {
      return epoch_pass(first, last, current_epoch, caps_w_.data());
    });
  }
  for (std::size_t e = 0; e < timing_.epochs; ++e) {
    const double t = static_cast<double>(e) * timing_.epoch_s;
    if (tree_->begin_epoch(t)) last_step_epoch = e;
    tree_->apportion(demand_w_, caps_w_);
    eff_caps[e] = tree_->effective_cap_w();

    current_epoch = e;
    const std::vector<EpochStats> parts =
        core::runfarm::run_ordered<EpochStats>(pool ? pool.get() : nullptr,
                                               tasks);
    EpochStats tot;
    for (const EpochStats& p : parts) {
      tot.power_w += p.power_w;
      tot.served += p.served;
      tot.demand += p.demand;
      tot.violations += p.violations;
      tot.over_cap += p.over_cap;
    }
    totals[e] = tot;
    over_cap_total += tot.over_cap;
    if (config_.record_epochs) {
      FleetEpochPoint& ep = result.epoch_series[e];
      ep.time_s = static_cast<double>(e + 1) * timing_.epoch_s;
      ep.energy_j = tot.power_w * timing_.epoch_s;
      ep.served = tot.served;
      ep.demand = tot.demand;
      ep.violations = tot.violations;
      ep.cap_w = eff_caps[e];
      ep.over_cap = tot.over_cap;
    }
  }

  // Settle: epochs from the last cap step until fleet epoch power first
  // held within the effective cap (with an ulp-scale audit tolerance).
  long settle = -1;
  for (std::size_t e = last_step_epoch; e < timing_.epochs; ++e) {
    const double tol = 1e-9 * std::max(1.0, eff_caps[e]);
    if (totals[e].power_w <= eff_caps[e] + tol) {
      settle = static_cast<long>(e - last_step_epoch);
      break;
    }
  }

  std::vector<std::function<BlockResult()>> ftasks;
  ftasks.reserve(ranges.size());
  for (const auto& [first, last] : ranges) {
    ftasks.push_back([this, first = first, last = last, outcomes] {
      return finalize_block(first, last, outcomes);
    });
  }
  const std::vector<BlockResult> blocks =
      core::runfarm::run_ordered<BlockResult>(pool ? pool.get() : nullptr,
                                              ftasks);
  reduce_blocks(blocks, result);

  result.budget.enabled = true;
  result.budget.requested_cap_w = tree_->requested_cap_w();
  result.budget.effective_cap_w = tree_->effective_cap_w();
  result.budget.cap_steps = tree_->steps_fired();
  result.budget.last_step_epoch = last_step_epoch;
  result.budget.settle_epochs = settle;
  result.budget.over_cap_device_epochs = over_cap_total;
  result.budget.audit_error = tree_->audit_error();
  if (config_.record_devices) result.device_caps_w = caps_w_;

  if (metrics_) {
    metrics_->counter("budget.over_cap_device_epochs").inc(over_cap_total);
    metrics_->counter("budget.cap_steps").inc(tree_->steps_fired());
    metrics_->gauge("budget.effective_cap_w").set(tree_->effective_cap_w());
    metrics_->gauge("budget.settle_epochs").set(static_cast<double>(settle));
  }
  if (trace_) {
    // Emitted serially after the run (determinism rule: a farmed run's
    // trace is byte-identical to the serial run's).
    for (std::size_t e = 0; e < timing_.epochs; ++e) {
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::Budget;
      ev.epoch = e;
      ev.time_s = static_cast<double>(e + 1) * timing_.epoch_s;
      ev.power_w = totals[e].power_w;
      ev.energy_j = totals[e].power_w * timing_.epoch_s;
      ev.value = eff_caps[e];
      ev.violations = totals[e].over_cap;
      trace_->record(ev);
    }
  }
  return result;
}

}  // namespace pmrl::fleet
