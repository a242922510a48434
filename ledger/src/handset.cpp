// handset: the paper's pipeline on one simulated phone. DistributedTrainer
// trains the RL governor, the merged table round-trips through
// save_policy/load_policy, and the frozen policy plus the seven baseline
// governors run all six scenarios on the run farm. One pass does all of
// that; the workload repeats passes for the measuring time.

#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>

#include "core/engine.hpp"
#include "core/metrics.hpp"
#include "core/runfarm/runfarm.hpp"
#include "governors/registry.hpp"
#include "rl/policy_io.hpp"
#include "rl/rl_governor.hpp"
#include "soc/soc.hpp"
#include "stats.hpp"
#include "train/distributed_trainer.hpp"
#include "train/qmerge.hpp"
#include "workloads.hpp"

namespace ledger {
namespace {

using namespace pmrl;

constexpr std::size_t kWorkers = 4;
constexpr std::size_t kEpisodes = 48;
constexpr std::size_t kActors = 4;
constexpr int kSetupCycles = 1001;

/// The frozen RL policy first, then the seven baseline governors.
const std::vector<std::string>& eval_governors() {
  static const std::vector<std::string> names = {
      "rl",          "performance", "powersave", "userspace",
      "ondemand",    "conservative", "interactive", "schedutil"};
  return names;
}

struct Inputs {
  rl::RlGovernorConfig policy;
  train::DistributedTrainerConfig train;
  std::uint64_t eval_seed = 0;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.policy.learning.seed = derive_seed(seed, 3);
  in.train.schedule.episodes = kEpisodes;
  in.train.schedule.workload_seed = derive_seed(seed, 1);
  in.train.actors = kActors;
  in.train.merge_seed = derive_seed(seed, 2);
  in.eval_seed = derive_seed(seed, 4);
  return in;
}

struct LayerAcc {
  std::int64_t ns = 0;
  std::uint64_t count = 0;
  void add(std::int64_t t0, std::int64_t t1) {
    ns += t1 - t0;
    ++count;
  }
  void operator+=(const LayerAcc& o) {
    ns += o.ns;
    count += o.count;
  }
  double per_call() const {
    return count ? static_cast<double>(ns) / static_cast<double>(count) : 0.0;
  }
};

/// Forwards to the engine's host and counts released jobs.
class CountingHost : public workload::WorkloadHost {
 public:
  explicit CountingHost(std::uint64_t& submits) : submits_(submits) {}
  void target(workload::WorkloadHost& inner) { inner_ = &inner; }
  soc::TaskId create_task(std::string name, soc::Affinity affinity,
                          double weight) override {
    return inner_->create_task(std::move(name), affinity, weight);
  }
  void submit(soc::TaskId task, double work_cycles,
              double deadline_s) override {
    ++submits_;
    inner_->submit(task, work_cycles, deadline_s);
  }

 private:
  workload::WorkloadHost* inner_ = nullptr;
  std::uint64_t& submits_;
};

/// Times every tick() of the wrapped scenario.
class TimedScenario : public workload::Scenario {
 public:
  TimedScenario(workload::Scenario& inner, LayerAcc& ticks,
                std::uint64_t& submits)
      : inner_(inner), ticks_(ticks), host_(submits) {}
  std::string name() const override { return inner_.name(); }
  void setup(workload::WorkloadHost& host) override {
    host_.target(host);
    inner_.setup(host_);
  }
  void tick(workload::WorkloadHost& host, double now_s,
            double dt_s) override {
    const std::int64_t t0 = now_ns();
    host_.target(host);
    inner_.tick(host_, now_s, dt_s);
    ticks_.add(t0, now_ns());
  }

 private:
  workload::Scenario& inner_;
  LayerAcc& ticks_;
  CountingHost host_;
};

/// Times every decide() of the wrapped governor.
class TimedGovernor : public governors::Governor {
 public:
  TimedGovernor(governors::Governor& inner, LayerAcc& decides)
      : inner_(inner), decides_(decides) {}
  std::string name() const override { return inner_.name(); }
  void reset(const governors::PolicyObservation& initial) override {
    inner_.reset(initial);
  }
  void decide(const governors::PolicyObservation& obs,
              governors::OppRequest& request) override {
    const std::int64_t t0 = now_ns();
    inner_.decide(obs, request);
    decides_.add(t0, now_ns());
  }

 private:
  governors::Governor& inner_;
  LayerAcc& decides_;
};

struct EvalRun {
  core::RunResult result;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  bool failed = false;
  // Traced passes only.
  LayerAcc ticks;
  LayerAcc decides;
  LayerAcc run;
  std::uint64_t submits = 0;
};

std::unique_ptr<rl::RlGovernor> load_frozen(const Inputs& in,
                                            std::size_t clusters,
                                            const std::string& image) {
  auto governor = std::make_unique<rl::RlGovernor>(in.policy, clusters);
  std::istringstream stream(image);
  rl::load_policy(*governor, stream);
  governor->set_frozen(true);
  return governor;
}

/// The workload's long-lived state: the farm, the trainer and the eval
/// task list, built once by the set-up and reused by every pass.
class Handset {
 public:
  Handset(const Inputs& in, std::size_t jobs)
      : in_(in),
        farm_(soc::default_mobile_soc_config(), core::EngineConfig{}, jobs),
        clusters_(farm_.soc_config().clusters.size()),
        trainer_(farm_, in.policy, clusters_, in.train) {
    for (std::size_t g = 0; g < eval_governors().size(); ++g) {
      for (const auto kind : workload::all_scenario_kinds()) {
        tasks_.push_back([this, g, kind] { return eval(g, kind); });
      }
    }
  }
  Handset(const Handset&) = delete;
  Handset& operator=(const Handset&) = delete;

  core::runfarm::RunFarm& farm() { return farm_; }
  train::DistributedTrainer& trainer() { return trainer_; }
  std::size_t clusters() const { return clusters_; }
  const Inputs& inputs() const { return in_; }

  /// Runs the 48 evaluation runs of `image` on the farm.
  std::vector<EvalRun> evaluate(std::string image, bool traced) {
    image_ = std::move(image);
    traced_ = traced;
    return farm_.map<EvalRun>(tasks_);
  }

 private:
  EvalRun eval(std::size_t g, workload::ScenarioKind kind) const {
    EvalRun out;
    out.start_ns = now_ns();
    try {
      core::SimEngine engine(farm_.soc_config(), farm_.engine_config());
      auto scenario = workload::make_scenario(kind, in_.eval_seed);
      governors::GovernorPtr governor =
          g == 0 ? load_frozen(in_, clusters_, image_)
                 : governors::make_governor(eval_governors()[g]);
      if (traced_) {
        TimedScenario timed_scenario(*scenario, out.ticks, out.submits);
        TimedGovernor timed_governor(*governor, out.decides);
        const std::int64_t t0 = now_ns();
        out.result = engine.run(timed_scenario, timed_governor);
        out.run.add(t0, now_ns());
      } else {
        out.result = engine.run(*scenario, *governor);
      }
    } catch (...) {
      out.failed = true;
    }
    out.end_ns = now_ns();
    return out;
  }

  Inputs in_;
  core::runfarm::RunFarm farm_;
  std::size_t clusters_;
  train::DistributedTrainer trainer_;
  std::vector<std::function<EvalRun()>> tasks_;
  std::string image_;
  bool traced_ = false;
};

/// One full set-up cycle: farm start, trainer and run-spec construction,
/// up to the point where the farm runs its first task.
std::unique_ptr<Handset> set_up(const Inputs& in, std::size_t jobs) {
  auto handset = std::make_unique<Handset>(in, jobs);
  handset->farm().map<int>({[] { return 0; }});
  return handset;
}

std::uint64_t table_digest(const rl::RlGovernor& governor) {
  Digest d;
  for (std::size_t a = 0; a < governor.agent_count(); ++a) {
    const rl::QAgent& agent = governor.agent(a);
    for (std::size_t s = 0; s < agent.state_count(); ++s) {
      for (std::size_t act = 0; act < agent.action_count(); ++act) {
        d.add(agent.q_value(s, act));
      }
    }
  }
  return d.value();
}

void digest_run(Digest& d, const core::RunResult& r) {
  d.add(r.scenario);
  d.add(r.governor);
  for (const double v : {r.duration_s, r.energy_j, r.quality, r.energy_per_qos,
                         r.avg_power_w, r.violation_rate, r.mean_quality}) {
    d.add(v);
  }
  for (const std::size_t v : {r.released, r.released_deadline, r.completed,
                              r.violations, r.dvfs_transitions}) {
    d.add(static_cast<std::uint64_t>(v));
  }
  for (const auto* series : {&r.mean_freq_hz, &r.peak_temp_c, &r.throttled_s}) {
    d.add(static_cast<std::uint64_t>(series->size()));
    for (const double v : *series) d.add(v);
  }
  for (const auto& row : r.idle_residency_fraction) {
    d.add(static_cast<std::uint64_t>(row.size()));
    for (const double v : row) d.add(v);
  }
}

/// RL below the six-governor average E/QoS, over the six scenarios.
bool rl_beats_average(const std::vector<core::RunResult>& results) {
  const std::size_t kinds = workload::all_scenario_kinds().size();
  core::PolicySummary rl_summary;
  std::vector<core::PolicySummary> baselines;
  const auto six = governors::baseline_governor_names();
  for (std::size_t g = 0; g < eval_governors().size(); ++g) {
    core::PolicySummary summary;
    summary.governor = eval_governors()[g];
    for (std::size_t k = 0; k < kinds; ++k) {
      summary.runs.push_back(results[g * kinds + k]);
    }
    if (g == 0) {
      rl_summary = std::move(summary);
    } else if (std::find(six.begin(), six.end(), summary.governor) !=
               six.end()) {
      baselines.push_back(std::move(summary));
    }
  }
  return core::improvement_vs_mean_baseline(rl_summary, baselines) > 0.0;
}

struct Pass {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double train_s = 0.0;
  double save_s = 0.0;
  double load_s = 0.0;
  double eval_s = 0.0;
  double merge_s = 0.0;  // traced passes only
  std::uint64_t ticks = 0;
  std::uint64_t table = 0;
  std::uint64_t eval = 0;
  bool round_trip_ok = true;
  bool merge_ok = true;
  bool rl_better = false;
  std::vector<EvalRun> runs;

  double wall_s() const { return ns_between(start_ns, end_ns) * 1e-9; }
  double ticks_per_s() const { return static_cast<double>(ticks) / wall_s(); }
};

std::uint64_t ticks_per_run(const core::EngineConfig& config) {
  return static_cast<std::uint64_t>(config.duration_s / config.tick_s + 0.5);
}

/// One pass: train, save/load round trip, evaluate. With a trace context
/// the pass records spans, wraps scenarios and governors in the timing
/// wrappers, and re-runs the merge on the returned deltas.
Pass run_pass(Handset& h, TraceContext* trace, int parent, std::uint64_t id) {
  const Inputs& in = h.inputs();
  SpanRecorder* spans = trace ? &trace->spans : nullptr;
  Pass p;
  p.start_ns = now_ns();
  ScopedSpan pass_span(spans, "handset.pass", parent, id);
  rl::RlGovernor merged(in.policy, h.clusters());
  train::DistributedTrainResult trained;
  {
    ScopedSpan span(spans, "train", pass_span.index(), id);
    const std::int64_t t0 = now_ns();
    trained = h.trainer().train(merged);
    p.train_s = ns_between(t0, now_ns()) * 1e-9;
  }
  std::string image;
  {
    ScopedSpan span(spans, "rl.save", pass_span.index(), id);
    const std::int64_t t0 = now_ns();
    std::ostringstream out;
    rl::save_policy(merged, out);
    image = out.str();
    p.save_s = ns_between(t0, now_ns()) * 1e-9;
  }
  rl::RlGovernor loaded(in.policy, h.clusters());
  {
    ScopedSpan span(spans, "rl.load", pass_span.index(), id);
    const std::int64_t t0 = now_ns();
    std::istringstream stream(image);
    rl::load_policy(loaded, stream);
    p.load_s = ns_between(t0, now_ns()) * 1e-9;
  }
  p.table = table_digest(loaded);
  p.round_trip_ok = p.table == table_digest(merged);
  {
    ScopedSpan span(spans, "eval", pass_span.index(), id);
    const std::int64_t t0 = now_ns();
    p.runs = h.evaluate(image, trace != nullptr);
    p.eval_s = ns_between(t0, now_ns()) * 1e-9;
    if (spans) {
      for (std::size_t i = 0; i < p.runs.size(); ++i) {
        spans->add("eval.run", p.runs[i].start_ns, p.runs[i].end_ns,
                   span.index(), id * 1000 + i);
      }
    }
  }
  p.end_ns = now_ns();
  if (trace) {
    ScopedSpan span(spans, "train.merge", pass_span.index(), id);
    rl::RlGovernor remerged(in.policy, h.clusters());
    const std::int64_t t0 = now_ns();
    train::merge_into(remerged, trained.deltas, in.train.merge_seed);
    p.merge_s = ns_between(t0, now_ns()) * 1e-9;
    p.merge_ok = table_digest(remerged) == table_digest(merged);
  }
  Digest eval_digest;
  std::vector<core::RunResult> results;
  for (const EvalRun& run : p.runs) {
    digest_run(eval_digest, run.result);
    results.push_back(run.result);
  }
  p.eval = eval_digest.value();
  p.rl_better = rl_beats_average(results);
  const std::uint64_t per_run = ticks_per_run(h.farm().engine_config());
  p.ticks = per_run * (in.train.schedule.episodes + p.runs.size());
  return p;
}

/// Expected digests for the seed: the recorded ones, or for a seed the
/// golden file does not cover, a single-worker reference pass (outputs are
/// bit-identical at any worker count).
std::pair<std::uint64_t, std::uint64_t> expected_digests(const Options& opts,
                                                         const Inputs& in) {
  if (const auto fields =
          golden_fields(opts.golden_dir + "/handset.txt", opts.seed);
      fields && fields->size() >= 2) {
    return {std::stoull((*fields)[0], nullptr, 16),
            std::stoull((*fields)[1], nullptr, 16)};
  }
  std::fprintf(stderr, "handset: seed %llu not recorded; checking against a "
               "single-worker reference pass\n",
               static_cast<unsigned long long>(opts.seed));
  auto reference = set_up(in, 1);
  const Pass p = run_pass(*reference, nullptr, -1, 0);
  return {p.table, p.eval};
}

/// Adds one pass's outcome to the tally: episodes fail with a wrong table,
/// evaluation runs fail when they throw or their results differ, and the
/// RL runs fail when the policy does not beat the six-governor average.
void check_pass(const Pass& p, const Inputs& in,
                std::pair<std::uint64_t, std::uint64_t> expected,
                Result& result) {
  const std::uint64_t episodes = in.train.schedule.episodes;
  const std::uint64_t runs = p.runs.size();
  const std::uint64_t kinds = workload::all_scenario_kinds().size();
  std::uint64_t failed = 0;
  if (p.table != expected.first || !p.round_trip_ok || !p.merge_ok) {
    failed += episodes;
  }
  if (p.eval != expected.second) {
    failed += runs;
  } else {
    for (const EvalRun& run : p.runs) failed += run.failed ? 1 : 0;
    if (!p.rl_better) failed += kinds;
  }
  result.tally(episodes + runs, std::min(failed, episodes + runs));
}

}  // namespace

void handset_run(const Options& opts, Result& result) {
  const Inputs in = make_inputs(opts.seed);
  const std::size_t jobs = workers(opts, kWorkers);
  const auto expected = expected_digests(opts, in);

  std::vector<double> setup_s;
  std::unique_ptr<Handset> h;
  for (int i = 0; i < kSetupCycles; ++i) {
    h.reset();
    const std::int64_t t0 = now_ns();
    h = set_up(in, jobs);
    setup_s.push_back(ns_between(t0, now_ns()) * 1e-9);
  }

  // Warm-up pass: checked, not timed.
  check_pass(run_pass(*h, nullptr, -1, 0), in, expected, result);
  std::vector<double> rates;
  std::vector<double> run_us;
  const std::int64_t start = now_ns();
  for (std::uint64_t pass = 1;
       rates.size() < 3 || ns_between(start, now_ns()) < opts.seconds * 1e9;
       ++pass) {
    const Pass p = run_pass(*h, nullptr, -1, pass);
    check_pass(p, in, expected, result);
    rates.push_back(p.ticks_per_s());
    for (const EvalRun& run : p.runs) {
      run_us.push_back(ns_between(run.start_ns, run.end_ns) * 1e-3);
    }
  }
  result.add("setup_s", median(setup_s), "s");
  result.add("throughput_per_s", median(rates), "1/s");
  result.add("p50_us", median(run_us), "us");
  result.add("peak_rss_mb", peak_rss_mb(), "MiB");
  std::fprintf(stderr, "handset: %zu timed passes, %zu eval runs, %zu workers, "
               "rate median %.4g spread %.3f, run p50 %.4g; set-up p10 %.3g "
               "p50 %.3g p90 %.3g s\n",
               rates.size(), run_us.size(), jobs, median(rates),
               quartile_spread(rates), median(run_us), percentile(setup_s, 10),
               percentile(setup_s, 50), percentile(setup_s, 90));
}

void handset_layers(const Options& opts, Result& result, TraceContext& trace,
                    bool own) {
  const Inputs in = make_inputs(opts.seed);
  const std::size_t jobs = workers(opts, kWorkers);
  ScopedSpan phase(&trace.spans, "handset.layers", trace.root, 0);
  auto h = set_up(in, jobs);
  // Outputs are checked in the traced workload's own run only.
  const auto expected =
      own ? expected_digests(opts, in) : std::pair<std::uint64_t, std::uint64_t>{};

  // Untraced and traced passes alternate, so the tracing overhead compares
  // passes taken under the same conditions. A probe of another workload's
  // trace runs one pass of each.
  std::vector<double> plain_rates;
  std::vector<double> traced_rates;
  std::vector<Pass> traced;
  const std::int64_t start = now_ns();
  for (std::uint64_t pass = 0;
       traced.size() < 1 ||
       (own && (traced.size() < 3 ||
                ns_between(start, now_ns()) < opts.seconds * 1e9));
       ++pass) {
    // The untraced pass gets one span of its own so the phase's parts sum
    // to the whole; nothing inside it is wrapped.
    const int plain_span = trace.spans.begin("handset.pass.untraced", phase.index(), pass);
    const Pass plain = run_pass(*h, nullptr, -1, pass);
    trace.spans.end(plain_span);
    if (own) check_pass(plain, in, expected, result);
    if (pass > 0) plain_rates.push_back(plain.ticks_per_s());
    traced.push_back(run_pass(*h, &trace, phase.index(), pass));
    if (own) check_pass(traced.back(), in, expected, result);
    traced_rates.push_back(traced.back().ticks_per_s());
  }

  LayerAcc ticks, base_decides, rl_decides, runs;
  std::uint64_t submits = 0;
  std::vector<double> train_s, merge_ms, save_ms, load_ms, busy_frac;
  for (const Pass& p : traced) {
    std::int64_t run_ns = 0;
    for (std::size_t i = 0; i < p.runs.size(); ++i) {
      const EvalRun& run = p.runs[i];
      ticks += run.ticks;
      runs += run.run;
      submits += run.submits;
      (i < workload::all_scenario_kinds().size() ? rl_decides : base_decides) +=
          run.decides;
      run_ns += run.end_ns - run.start_ns;
    }
    // The farm's share of worker time spent in evaluation runs.
    busy_frac.push_back(static_cast<double>(run_ns) * 1e-9 /
                        (p.eval_s * static_cast<double>(h->farm().jobs())));
    train_s.push_back(p.train_s);
    merge_ms.push_back(p.merge_s * 1e3);
    save_ms.push_back(p.save_s * 1e3);
    load_ms.push_back(p.load_s * 1e3);
  }
  const double soc_ns =
      static_cast<double>(runs.ns - ticks.ns - base_decides.ns - rl_decides.ns) /
      static_cast<double>(ticks.count);
  result.add("workload.tick_ns", ticks.per_call(), "ns");
  result.add("workload.jobs_released",
             static_cast<double>(submits) / static_cast<double>(traced.size()),
             "count");
  result.add("governors.decide_ns", base_decides.per_call(), "ns");
  result.add("rl.decide_ns", rl_decides.per_call(), "ns");
  result.add("soc.step_ns", soc_ns, "ns");
  result.add("train.actors_s", median(train_s), "s");
  result.add("train.merge_ms", median(merge_ms), "ms");
  result.add("rl.save_ms", median(save_ms), "ms");
  result.add("rl.load_ms", median(load_ms), "ms");
  result.add("runfarm.busy_frac.eval", median(busy_frac), "fraction");

  if (own) {
    result.add("trace.overhead_ratio", median(plain_rates) / median(traced_rates),
               "x");
  }
}

std::vector<std::string> handset_golden(const Options& opts) {
  const Inputs in = make_inputs(opts.seed);
  auto h = set_up(in, workers(opts, kWorkers));
  const Pass p = run_pass(*h, nullptr, -1, 0);
  return {hex64(p.table), hex64(p.eval), p.rl_better ? "rl-better" : "rl-worse"};
}

}  // namespace ledger
