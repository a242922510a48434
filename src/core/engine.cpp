#include "core/engine.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"

namespace pmrl::core {

namespace {

/// WorkloadHost implementation bridging a scenario to the SoC + QoS tracker.
class EngineHost : public workload::WorkloadHost {
 public:
  EngineHost(soc::Soc& soc, workload::QosTracker& qos)
      : soc_(soc), qos_(qos) {}

  soc::TaskId create_task(std::string name, soc::Affinity affinity,
                          double weight) override {
    return soc_.create_task(std::move(name), affinity, weight);
  }

  void submit(soc::TaskId task, double work_cycles,
              double deadline_s) override {
    soc::Job job;
    job.id = next_job_id_++;
    job.work_cycles = work_cycles;
    job.deadline_s = deadline_s;
    job.release_s = soc_.now_s();
    soc_.submit(task, job);
    qos_.on_release(job);
    if (job.has_deadline()) ++epoch_releases_;
  }

  std::size_t take_epoch_releases() {
    const std::size_t n = epoch_releases_;
    epoch_releases_ = 0;
    return n;
  }

 private:
  soc::Soc& soc_;
  workload::QosTracker& qos_;
  soc::JobId next_job_id_ = 1;
  std::size_t epoch_releases_ = 0;
};

}  // namespace

SimEngine::SimEngine(soc::SocConfig soc_config, EngineConfig engine_config)
    : soc_config_(std::move(soc_config)), engine_config_(engine_config) {
  if (engine_config_.tick_s <= 0.0 ||
      engine_config_.decision_period_s < engine_config_.tick_s ||
      engine_config_.duration_s <= 0.0) {
    throw std::invalid_argument("invalid engine timing configuration");
  }
}

void SimEngine::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  runs_counter_ = metrics ? &metrics->counter("engine.runs") : nullptr;
  epochs_counter_ = metrics ? &metrics->counter("engine.epochs") : nullptr;
  ticks_counter_ = metrics ? &metrics->counter("engine.ticks") : nullptr;
}

RunResult SimEngine::run(workload::Scenario& scenario,
                         governors::Governor& governor,
                         const EpochCallback& on_epoch) {
  soc::Soc soc(soc_config_);
  workload::QosTracker qos(engine_config_.qos_best_effort_credit);
  EngineHost host(soc, qos);
  scenario.setup(host);

  const double dt = engine_config_.tick_s;
  const auto total_ticks = static_cast<std::int64_t>(
      engine_config_.duration_s / dt + 0.5);
  const auto ticks_per_epoch = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(engine_config_.decision_period_s / dt +
                                   0.5));

  // Per-epoch deltas for the observation/reward. "Domains" = CPU clusters
  // plus the optional memory domain; telemetry exposes one entry per
  // domain and the QoS tracker returns zeros for domains that never
  // complete jobs.
  const std::size_t n_clusters = soc.domain_count();
  double epoch_start_energy = 0.0;
  double epoch_start_quality = 0.0;
  std::size_t epoch_start_violations = 0;
  std::vector<double> cl_start_energy(n_clusters, 0.0);
  std::vector<double> cl_start_quality(n_clusters, 0.0);
  std::vector<std::size_t> cl_start_completed(n_clusters, 0);
  std::vector<std::size_t> cl_start_violations(n_clusters, 0);

  // The observation buffer persists across epochs; fill_observation rewrites
  // every field in place (telemetry_into reuses the cluster vector), so the
  // steady-state epoch path allocates nothing. `cl_true_energy` keeps the
  // unperturbed per-cluster energies so mark_epoch_start does not need a
  // second telemetry pass (fault injection may skew the observation copy).
  governors::PolicyObservation obs;
  std::vector<double> cl_true_energy(n_clusters, 0.0);
  auto fill_observation = [&](double epoch_s) {
    soc.telemetry_into(obs.soc);
    obs.epoch_duration_s = epoch_s;
    obs.epoch_energy_j = soc.total_energy_j() - epoch_start_energy;
    obs.epoch_quality = qos.total_quality() - epoch_start_quality;
    obs.epoch_violations = qos.violations() - epoch_start_violations;
    obs.epoch_releases = host.take_epoch_releases();
    obs.cluster_feedback.resize(n_clusters);
    for (std::size_t c = 0; c < n_clusters; ++c) {
      auto& fb = obs.cluster_feedback[c];
      cl_true_energy[c] = obs.soc.clusters[c].energy_j;
      fb.epoch_energy_j = obs.soc.clusters[c].energy_j - cl_start_energy[c];
      fb.epoch_deadline_quality =
          qos.cluster_deadline_quality(c) - cl_start_quality[c];
      fb.epoch_deadline_completed =
          qos.cluster_deadline_completed(c) - cl_start_completed[c];
      fb.epoch_violations = qos.cluster_violations(c) - cl_start_violations[c];
    }
  };
  // No SoC tick happens between fill_observation and mark_epoch_start (only
  // the governor decision and OPP requests), so the captured energies are
  // still current here.
  auto mark_epoch_start = [&] {
    epoch_start_energy = soc.total_energy_j();
    epoch_start_quality = qos.total_quality();
    epoch_start_violations = qos.violations();
    for (std::size_t c = 0; c < n_clusters; ++c) {
      cl_start_energy[c] = cl_true_energy[c];
      cl_start_quality[c] = qos.cluster_deadline_quality(c);
      cl_start_completed[c] = qos.cluster_deadline_completed(c);
      cl_start_violations[c] = qos.cluster_violations(c);
    }
  };

  // Trace emission: a local event buffer reused per epoch (only touched
  // when a sink is installed — the disabled path costs one pointer check
  // per epoch).
  obs::TraceEvent trace_event;
  auto fill_cluster_samples = [&](obs::TraceEvent& event) {
    event.clusters.clear();
    for (std::size_t c = 0; c < obs.soc.clusters.size(); ++c) {
      const auto& ct = obs.soc.clusters[c];
      obs::ClusterSample sample;
      sample.opp_index = static_cast<std::uint32_t>(ct.opp_index);
      sample.freq_hz = ct.freq_hz;
      sample.util_avg = ct.util_avg;
      sample.energy_j = c < obs.cluster_feedback.size()
                            ? obs.cluster_feedback[c].epoch_energy_j
                            : 0.0;
      sample.temp_c = ct.temp_c;
      event.clusters.push_back(sample);
    }
  };

  governors::OppRequest request(soc.domain_count());
  fill_observation(0.0);
  if (fault_) fault_->perturb_observation(obs);
  if (trace_) {
    trace_event = obs::TraceEvent{};
    trace_event.kind = obs::EventKind::RunBegin;
    trace_event.time_s = obs.soc.time_s;
    trace_event.detail = scenario.name() + "/" + governor.name();
    fill_cluster_samples(trace_event);
    trace_->record(trace_event);
  }
  governor.reset(obs);
  governor.decide(obs, request);
  for (std::size_t c = 0; c < request.size(); ++c) {
    soc.set_cluster_opp(c, request[c]);
  }
  mark_epoch_start();
  host.take_epoch_releases();

  // Accumulators for the result.
  std::vector<double> freq_time_product(soc.domain_count(), 0.0);
  std::vector<double> peak_temp(soc.domain_count(), 0.0);
  std::size_t epochs = 0;

  std::vector<soc::CompletedJob> completed;
  EpochRecord record;  // reused per epoch; vectors keep their capacity
  for (std::int64_t tick = 0; tick < total_ticks; ++tick) {
    scenario.tick(host, soc.now_s(), dt);
    completed.clear();
    soc.step(dt, completed);
    for (const auto& job : completed) qos.on_complete(job);

    for (std::size_t c = 0; c < soc.domain_count(); ++c) {
      freq_time_product[c] += soc.domain_freq_hz(c) * dt;
    }

    if ((tick + 1) % ticks_per_epoch == 0) {
      const double epoch_s = ticks_per_epoch * dt;
      // Thermal emergencies land before the observation is taken so the
      // governor sees (and the throttle reacts to) the spiked state.
      if (fault_) fault_->inject_epoch_faults(soc, soc.now_s());
      fill_observation(epoch_s);
      if (fault_) fault_->perturb_observation(obs);
      for (std::size_t c = 0; c < obs.soc.clusters.size(); ++c) {
        peak_temp[c] = std::max(peak_temp[c], obs.soc.clusters[c].temp_c);
      }
      if (trace_) {
        trace_event = obs::TraceEvent{};
        trace_event.kind = obs::EventKind::Epoch;
        trace_event.epoch = epochs;
        trace_event.time_s = obs.soc.time_s;
        trace_event.energy_j = obs.epoch_energy_j;
        trace_event.total_energy_j = obs.soc.total_energy_j;
        trace_event.quality = obs.epoch_quality;
        trace_event.violations = obs.epoch_violations;
        trace_event.releases = obs.epoch_releases;
        trace_event.power_w = obs.soc.total_power_w;
        fill_cluster_samples(trace_event);
        trace_->record(trace_event);
      }
      if (on_epoch) {
        record.time_s = obs.soc.time_s;
        record.epoch_energy_j = obs.epoch_energy_j;
        record.epoch_quality = obs.epoch_quality;
        record.epoch_violations = obs.epoch_violations;
        record.total_power_w = obs.soc.total_power_w;
        record.opp_index.clear();
        record.util_avg.clear();
        for (const auto& c : obs.soc.clusters) {
          record.opp_index.push_back(c.opp_index);
          record.util_avg.push_back(c.util_avg);
        }
        on_epoch(record);
      }
      governor.decide(obs, request);
      for (std::size_t c = 0; c < request.size(); ++c) {
        soc.set_cluster_opp(c, request[c]);
      }
      mark_epoch_start();
      ++epochs;
    }
  }

  qos.finalize(soc.now_s());

  RunResult result;
  result.scenario = scenario.name();
  result.governor = governor.name();
  result.duration_s = soc.now_s();
  result.energy_j = soc.total_energy_j();
  result.quality = qos.total_quality();
  result.energy_per_qos =
      qos.total_quality() > 0.0
          ? result.energy_j / qos.total_quality()
          : std::numeric_limits<double>::infinity();
  result.avg_power_w = result.energy_j / result.duration_s;
  result.released = qos.released();
  result.released_deadline = qos.released_with_deadline();
  result.completed = qos.completed();
  result.violations = qos.violations();
  result.violation_rate = qos.violation_rate();
  result.mean_quality = qos.mean_quality();
  std::size_t transitions = 0;
  for (std::size_t c = 0; c < soc.domain_count(); ++c) {
    transitions += soc.domain_dvfs_transitions(c);
    result.mean_freq_hz.push_back(freq_time_product[c] / result.duration_s);
    result.throttled_s.push_back(c < soc.cluster_count()
                                     ? soc.throttled_s(c)
                                     : 0.0);
  }
  result.dvfs_transitions = transitions;
  result.peak_temp_c = peak_temp;
  for (std::size_t c = 0; c < soc.cluster_count(); ++c) {
    const auto& cluster = soc.cluster(c);
    if (cluster.idle_states().empty()) continue;
    auto residency = cluster.idle_residency_s();
    const double active = cluster.active_core_s();
    double total = active;
    for (double r : residency) total += r;
    std::vector<double> fractions;
    fractions.reserve(residency.size() + 1);
    for (double r : residency) {
      fractions.push_back(total > 0.0 ? r / total : 0.0);
    }
    fractions.push_back(total > 0.0 ? active / total : 0.0);
    result.idle_residency_fraction.push_back(std::move(fractions));
  }

  if (trace_) {
    trace_event = obs::TraceEvent{};
    trace_event.kind = obs::EventKind::RunEnd;
    trace_event.epoch = epochs;
    trace_event.time_s = result.duration_s;
    trace_event.energy_j = result.energy_j;
    trace_event.total_energy_j = result.energy_j;
    trace_event.quality = result.quality;
    trace_event.violations = result.violations;
    trace_event.releases = result.released;
    trace_event.power_w = result.avg_power_w;
    trace_event.value = result.violation_rate;
    trace_event.detail = scenario.name() + "/" + governor.name();
    trace_->record(trace_event);
    trace_->flush();
  }
  if (runs_counter_) {
    runs_counter_->inc();
    epochs_counter_->inc(epochs);
    ticks_counter_->inc(static_cast<std::uint64_t>(total_ticks));
  }
  return result;
}

}  // namespace pmrl::core
