// fleet and fleet_budget: 100k seeded heterogeneous devices on FleetEngine.
// `fleet` runs without a budget (the block-major path); `fleet_budget` runs
// the same population under a demand-response cap schedule with the
// default `demand` policy: a cap far above demand for most of the run, a
// window at a cap that binds but can settle, then the loose cap again.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>

#include "budget/budget_tree.hpp"
#include "fleet/device_engine.hpp"
#include "fleet/fleet_engine.hpp"
#include "fleet/policy.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace ledger {
namespace {

using namespace pmrl;

constexpr std::size_t kDevices = 100000;
/// Three of the four vCPUs: at four workers every pass waits for the
/// slowest worker, and with no core left for anything else the median
/// pass rate moved 9% between processes against 3.5% at three.
constexpr std::size_t kWorkers = 3;
constexpr int kSetupCycles = 15;
constexpr int kBuildProbeCycles = 5;
constexpr double kDurationS = 10.0;
/// Demand-response schedule, watts per device: loose (far above demand),
/// a binding window from kStepDownS to kStepUpS, loose again.
constexpr double kLooseCapW = 8.0;
constexpr double kTightCapW = 0.8;
constexpr double kStepDownS = 6.0;
constexpr double kStepUpS = 8.0;
/// Devices compared against the AoS reference engine.
constexpr std::size_t kAosSample = 64;

fleet::FleetConfig make_config(std::uint64_t seed, std::size_t jobs) {
  fleet::FleetConfig config;
  config.devices = kDevices;
  config.seed = derive_seed(seed, 10);
  config.duration_s = kDurationS;
  config.jobs = jobs;
  return config;
}

budget::BudgetSpec cap_spec(std::uint64_t seed, double cap_w) {
  budget::BudgetSpec spec;
  spec.global_cap_w = cap_w;
  spec.policy = "demand";
  spec.seed = derive_seed(seed, 11);
  return spec;
}

budget::BudgetSpec demand_response(std::uint64_t seed) {
  const double devices = static_cast<double>(kDevices);
  budget::BudgetSpec spec = cap_spec(seed, kLooseCapW * devices);
  spec.schedule = {{kStepDownS, kTightCapW * devices},
                   {kStepUpS, kLooseCapW * devices}};
  return spec;
}

fleet::FleetConfig workload_config(std::uint64_t seed, bool budgeted,
                                   std::size_t jobs) {
  fleet::FleetConfig config = make_config(seed, jobs);
  if (budgeted) config.budget = demand_response(seed);
  return config;
}

std::uint64_t fleet_digest(const fleet::FleetResult& r) {
  Digest d;
  for (const std::uint64_t v :
       {static_cast<std::uint64_t>(r.devices), static_cast<std::uint64_t>(r.epochs),
        static_cast<std::uint64_t>(r.ticks_per_epoch), r.device_ticks,
        r.violation_epochs, static_cast<std::uint64_t>(r.battery_depleted)}) {
    d.add(v);
  }
  for (const double v : {r.energy_j, r.served, r.demand, r.violation_rate,
                         r.energy_per_served_mean, r.energy_per_served_p50,
                         r.energy_per_served_p95, r.energy_per_served_p99}) {
    d.add(v);
  }
  const fleet::FleetBudgetSummary& b = r.budget;
  d.add(static_cast<std::uint64_t>(b.enabled));
  d.add(b.requested_cap_w);
  d.add(b.effective_cap_w);
  d.add(static_cast<std::uint64_t>(b.cap_steps));
  d.add(static_cast<std::uint64_t>(b.last_step_epoch));
  d.add(static_cast<std::uint64_t>(b.settle_epochs));
  d.add(b.over_cap_device_epochs);
  d.add(b.audit_error);
  return d.value();
}

std::string golden_path(const Options& opts, bool budgeted) {
  return opts.golden_dir + (budgeted ? "/fleet_budget.txt" : "/fleet.txt");
}

/// The recorded aggregate digest for the seed, or for a seed the golden
/// file does not cover, that of a single-worker reference run (aggregates
/// are bit-identical at any worker count).
std::uint64_t expected_digest(const Options& opts, bool budgeted) {
  if (const auto fields = golden_fields(golden_path(opts, budgeted), opts.seed);
      fields && !fields->empty()) {
    return std::stoull(fields->front(), nullptr, 16);
  }
  std::fprintf(stderr, "%s: seed %llu not recorded; checking against a "
               "single-worker reference run\n",
               budgeted ? "fleet_budget" : "fleet",
               static_cast<unsigned long long>(opts.seed));
  fleet::FleetEngine reference(workload_config(opts.seed, budgeted, 1));
  return fleet_digest(reference.run());
}

bool pass_ok(const fleet::FleetResult& r, std::uint64_t expected) {
  return fleet_digest(r) == expected && r.budget.audit_error.empty();
}

/// A seeded sample of devices from an unbudgeted SoA run, each re-run on
/// the AoS DeviceEngine reference; every field must match bit for bit.
bool aos_sample_matches(const Options& opts, std::size_t jobs) {
  fleet::FleetConfig config = make_config(opts.seed, jobs);
  config.record_devices = true;
  fleet::FleetEngine engine(config);
  const fleet::FleetResult soa = engine.run();
  for (std::size_t i = 0; i < kAosSample; ++i) {
    const std::size_t d = derive_seed(opts.seed, 100 + i) % kDevices;
    const fleet::DeviceSpec& spec = engine.specs()[d];
    fleet::DeviceEngine aos(engine.archetypes()[spec.archetype], spec,
                            engine.policy(), engine.timing());
    aos.run();
    if (!(aos.outcome() == soa.device_outcomes[d])) return false;
  }
  return true;
}

/// Seconds one FleetEngine construction takes in a child process forked
/// from this one. A child starts from this process's heap, which has held
/// no engine yet, so every cycle maps its columns fresh, as the first
/// engine of a process does. Repeated in one process, a cycle took 20 or
/// 50 ms by chance, depending on whether glibc handed back the previous
/// engine's freed memory or mapped new pages. Call it before this process
/// builds an engine and while no other thread runs.
double build_seconds_in_child(const fleet::FleetConfig& config) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("fleet: pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("fleet: fork failed");
  }
  if (pid == 0) {
    ::close(fds[0]);
    bool ok = false;
    try {
      const std::int64_t t0 = now_ns();
      const fleet::FleetEngine engine(config);
      const double s = ns_between(t0, now_ns()) * 1e-9;
      ok = ::write(fds[1], &s, sizeof s) == static_cast<ssize_t>(sizeof s);
    } catch (...) {
    }
    ::_exit(ok ? 0 : 1);
  }
  ::close(fds[1]);
  double s = 0.0;
  ssize_t got = 0;
  while ((got = ::read(fds[0], &s, sizeof s)) < 0 && errno == EINTR) {
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != static_cast<ssize_t>(sizeof s) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("fleet: set-up child failed");
  }
  return s;
}

double median_build_s(const fleet::FleetConfig& config, int cycles) {
  std::vector<double> s;
  for (int i = 0; i < cycles; ++i) s.push_back(build_seconds_in_child(config));
  return median(s);
}

double run_seconds(fleet::FleetEngine& engine, fleet::FleetResult* out = nullptr) {
  const std::int64_t t0 = now_ns();
  fleet::FleetResult r = engine.run();
  const double s = ns_between(t0, now_ns()) * 1e-9;
  if (out) *out = std::move(r);
  return s;
}

/// Median run() time over `passes` passes after one warm-up pass (the
/// warm-up time itself when `passes` is 0).
double median_run_s(fleet::FleetEngine& engine, int passes,
                    fleet::FleetResult* last = nullptr) {
  const double warm_up = run_seconds(engine, last);
  if (passes == 0) return warm_up;
  std::vector<double> times;
  for (int i = 0; i < passes; ++i) times.push_back(run_seconds(engine, last));
  return median(times);
}

}  // namespace

void fleet_run(const Options& opts, bool budgeted, Result& result) {
  const std::size_t jobs = workers(opts, kWorkers);
  const fleet::FleetConfig config = workload_config(opts.seed, budgeted, jobs);
  // Set-up first, while no engine has been built in this process.
  const double setup_s = median_build_s(config, kSetupCycles);
  const std::uint64_t expected = expected_digest(opts, budgeted);
  fleet::FleetEngine engine(config);

  // Warm-up pass: checked, not timed (the first pass in a process runs at
  // a fraction of the steady rate).
  fleet::FleetResult r;
  run_seconds(engine, &r);
  result.tally(1, pass_ok(r, expected) ? 0 : 1);
  std::vector<double> rates;
  std::vector<double> pass_us;
  const std::int64_t start = now_ns();
  while (rates.size() < 3 || ns_between(start, now_ns()) < opts.seconds * 1e9) {
    const double s = run_seconds(engine, &r);
    result.tally(1, pass_ok(r, expected) ? 0 : 1);
    rates.push_back(static_cast<double>(r.device_ticks) / s);
    pass_us.push_back(s * 1e6);
  }
  // The high-water mark of the workload itself, before the AoS check
  // builds a second engine.
  const double rss_mb = peak_rss_mb();
  result.tally(1, aos_sample_matches(opts, jobs) ? 0 : 1);

  result.add("setup_s", setup_s, "s");
  result.add("throughput_per_s", median(rates), "1/s");
  result.add("p50_us", median(pass_us), "us");
  result.add("peak_rss_mb", rss_mb, "MiB");
  std::fprintf(stderr, "%s: %zu timed passes, %zu workers, rate min %.4g "
               "median %.4g max %.4g, spread %.3f\n",
               budgeted ? "fleet_budget" : "fleet", rates.size(), jobs,
               *std::min_element(rates.begin(), rates.end()), median(rates),
               *std::max_element(rates.begin(), rates.end()),
               quartile_spread(rates));
}

void fleet_build_layer(const Options& opts, Result& result, TraceContext& trace) {
  ScopedSpan span(&trace.spans, "fleet.build", trace.root, 0);
  result.add("fleet.build_ms",
             median_build_s(make_config(opts.seed, workers(opts, kWorkers)),
                            kBuildProbeCycles) * 1e3,
             "ms");
}

void fleet_layers(const Options& opts, Result& result, TraceContext& trace,
                  bool own_fleet, bool own_budget) {
  const std::size_t jobs = workers(opts, kWorkers);
  const double devices = static_cast<double>(kDevices);
  ScopedSpan phase(&trace.spans, "fleet.layers", trace.root, 0);

  if (own_fleet || own_budget) {
    // The traced loop: untraced and traced passes alternate; a traced pass
    // records a span around run().
    const fleet::FleetConfig config =
        workload_config(opts.seed, own_budget, jobs);
    const std::uint64_t expected = expected_digest(opts, own_budget);
    fleet::FleetEngine engine(config);
    fleet::FleetResult r;
    run_seconds(engine, &r);
    result.tally(1, pass_ok(r, expected) ? 0 : 1);
    std::vector<double> plain, traced;
    const std::int64_t start = now_ns();
    for (std::uint64_t pass = 0;
         traced.size() < 3 || ns_between(start, now_ns()) < opts.seconds * 1e9;
         ++pass) {
      {
        ScopedSpan span(&trace.spans, "fleet.run.untraced", phase.index(), pass);
        plain.push_back(run_seconds(engine, &r));
      }
      result.tally(1, pass_ok(r, expected) ? 0 : 1);
      ScopedSpan span(&trace.spans, "fleet.run", phase.index(), pass);
      traced.push_back(run_seconds(engine, &r));
      result.tally(1, pass_ok(r, expected) ? 0 : 1);
    }
    result.add("trace.overhead_ratio", median(traced) / median(plain), "x");
  }

  {
    ScopedSpan span(&trace.spans, "rl.argmax", phase.index(), 0);
    const fleet::FleetPolicy policy = fleet::FleetPolicy::default_policy();
    constexpr std::size_t kBatch = 4096;
    std::vector<std::uint64_t> states(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      states[i] = derive_seed(opts.seed, 200 + i) % fleet::kStateCount;
    }
    std::vector<std::uint32_t> actions(kBatch);
    std::vector<double> ns_per_state;
    for (int rep = 0; rep < 7; ++rep) {
      const std::int64_t t0 = now_ns();
      for (int b = 0; b < 64; ++b) {
        policy.greedy_batch(states.data(), kBatch, actions.data());
      }
      ns_per_state.push_back(ns_between(t0, now_ns()) / (64.0 * kBatch));
    }
    result.add("rl.argmax_ns", median(ns_per_state), "ns");
  }

  // Worker scaling, budget overheads and binding share, all on engines that
  // record the per-epoch series.
  auto probe = [&](const budget::BudgetSpec* spec, std::size_t probe_jobs,
                   int passes, fleet::FleetResult* last) {
    fleet::FleetConfig config = make_config(opts.seed, probe_jobs);
    config.record_epochs = true;
    if (spec) config.budget = *spec;
    fleet::FleetEngine engine(config);
    return median_run_s(engine, passes, last);
  };
  const budget::BudgetSpec schedule = demand_response(opts.seed);
  // The workload's step down alone: its settle count is the one after a
  // binding step (the workload's last step is the one back up).
  budget::BudgetSpec step_down = schedule;
  step_down.schedule.pop_back();
  const budget::BudgetSpec loose = cap_spec(opts.seed, 1e12);
  const budget::BudgetSpec binding = cap_spec(opts.seed, kTightCapW * devices);
  fleet::FleetResult free_result, budget_result;
  double free_s = 0, free_1 = 0, budget_s = 0, budget_1 = 0, loose_s = 0,
         binding_s = 0;
  {
    ScopedSpan span(&trace.spans, "fleet.scaling", phase.index(), 0);
    free_s = probe(nullptr, jobs, 3, &free_result);
    free_1 = probe(nullptr, 1, 2, nullptr);
    budget_s = probe(&schedule, jobs, 3, &budget_result);
    budget_1 = probe(&schedule, 1, 2, nullptr);
  }
  fleet::FleetResult settle_result;
  {
    ScopedSpan span(&trace.spans, "budget.overhead", phase.index(), 0);
    loose_s = probe(&loose, jobs, 3, nullptr);
    binding_s = probe(&binding, jobs, 3, nullptr);
    probe(&step_down, jobs, 0, &settle_result);
  }
  result.add("runfarm.scaling.fleet", free_1 / free_s, "x");
  result.add("runfarm.scaling.fleet_budget", budget_1 / budget_s, "x");
  result.add("budget.loose_run_ratio", loose_s / free_s, "x");
  result.add("budget.binding_run_ratio", binding_s / free_s, "x");

  const double epoch_s =
      static_cast<double>(free_result.ticks_per_epoch) *
      make_config(opts.seed, jobs).tick_s;
  std::size_t binding_epochs = 0;
  const std::size_t epochs = std::min(free_result.epoch_series.size(),
                                      budget_result.epoch_series.size());
  for (std::size_t e = 0; e < epochs; ++e) {
    const double demand_w = free_result.epoch_series[e].energy_j / epoch_s;
    if (demand_w > budget_result.epoch_series[e].cap_w) ++binding_epochs;
  }
  result.add("budget.binding_epoch_frac",
             epochs ? static_cast<double>(binding_epochs) /
                          static_cast<double>(epochs)
                    : 0.0,
             "fraction");
  result.add("budget.over_cap_device_epochs",
             static_cast<double>(budget_result.budget.over_cap_device_epochs),
             "count");
  result.add("budget.settle_epochs",
             static_cast<double>(settle_result.budget.settle_epochs), "count");

  {
    ScopedSpan span(&trace.spans, "budget.apportion", phase.index(), 0);
    budget::BudgetTree tree(binding, kDevices);
    std::vector<double> demand_w(kDevices);
    for (std::size_t d = 0; d < kDevices; ++d) {
      demand_w[d] = 0.2 + 2.8 * static_cast<double>(
                                    derive_seed(opts.seed, 300 + d) % 1000) /
                              1000.0;
    }
    std::vector<double> caps_w;
    std::vector<double> apportion_ms;
    for (int i = 0; i < 25; ++i) {
      const std::int64_t t0 = now_ns();
      tree.apportion(demand_w, caps_w);
      if (i >= 4) apportion_ms.push_back(ns_between(t0, now_ns()) * 1e-6);
    }
    if (!tree.audit_error().empty()) result.tally(1, 1);
    result.add("budget.apportion_ms", median(apportion_ms), "ms");
  }
}

std::vector<std::string> fleet_golden(const Options& opts, bool budgeted) {
  fleet::FleetEngine engine(
      workload_config(opts.seed, budgeted, workers(opts, kWorkers)));
  const fleet::FleetResult r = engine.run();
  return {hex64(fleet_digest(r)), r.budget.audit_error.empty() ? "audit-ok" : "audit-failed"};
}

}  // namespace ledger
