#include "workload/fuzz.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>

namespace pmrl::workload {

namespace {

constexpr const char* kHeader = "pmrl-scenario v1";

std::string fmt(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

const char* source_kind_name(FuzzSource::Kind kind) {
  return kind == FuzzSource::Kind::Periodic ? "periodic" : "burst";
}

FuzzSource::Kind source_kind_from(const std::string& name,
                                  std::size_t line_no) {
  if (name == "periodic") return FuzzSource::Kind::Periodic;
  if (name == "burst") return FuzzSource::Kind::Burst;
  throw TraceParseError(line_no, "unknown source kind '" + name + "'");
}

soc::Affinity affinity_from(const std::string& name, std::size_t line_no) {
  if (name == "any") return soc::Affinity::Any;
  if (name == "little") return soc::Affinity::PreferLittle;
  if (name == "big") return soc::Affinity::PreferBig;
  throw TraceParseError(line_no, "unknown affinity '" + name + "'");
}

double parse_double(const std::string& token, const char* field,
                    std::size_t line_no) {
  std::size_t consumed = 0;
  double value = 0.0;
  try {
    value = std::stod(token, &consumed);
  } catch (const std::exception&) {
    throw TraceParseError(line_no, std::string("unparseable ") + field +
                                       " '" + token + "'");
  }
  if (consumed != token.size()) {
    throw TraceParseError(line_no, std::string("trailing junk in ") + field +
                                       " '" + token + "'");
  }
  if (!std::isfinite(value)) {
    throw TraceParseError(line_no, std::string("non-finite ") + field);
  }
  return value;
}

double parse_positive(const std::string& token, const char* field,
                      std::size_t line_no) {
  const double value = parse_double(token, field, line_no);
  if (value <= 0.0) {
    throw TraceParseError(line_no,
                          std::string(field) + " must be positive");
  }
  return value;
}

double parse_probability(const std::string& token, const char* field,
                         std::size_t line_no) {
  const double value = parse_double(token, field, line_no);
  if (value < 0.0 || value > 1.0) {
    throw TraceParseError(line_no,
                          std::string(field) + " must be in [0, 1]");
  }
  return value;
}

// Burst counts beyond this are corrupt files, not scenarios: the generator
// tops out at 16, and replay submits burst_jobs host jobs per period.
constexpr std::uint64_t kMaxBurstJobs = 100000;

std::uint64_t parse_uint(const std::string& token, const char* field,
                         std::size_t line_no) {
  // stoull accepts a leading '-' (wrapping) and '+'/whitespace; require a
  // digit up front so those are rejected outright.
  if (token.empty() ||
      !std::isdigit(static_cast<unsigned char>(token[0]))) {
    throw TraceParseError(line_no, std::string("unparseable ") + field +
                                       " '" + token + "'");
  }
  std::size_t consumed = 0;
  std::uint64_t value = 0;
  try {
    value = std::stoull(token, &consumed);
  } catch (const std::exception&) {
    throw TraceParseError(line_no, std::string("unparseable ") + field +
                                       " '" + token + "'");
  }
  if (consumed != token.size()) {
    throw TraceParseError(line_no, std::string("trailing junk in ") + field +
                                       " '" + token + "'");
  }
  return value;
}

std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> fields;
  std::istringstream in(line);
  std::string token;
  while (in >> token) fields.push_back(token);
  return fields;
}

}  // namespace

double FuzzSpec::total_duration_s() const {
  double total = 0.0;
  for (const auto& phase : phases) total += phase.duration_s;
  return total;
}

std::size_t FuzzSpec::source_count() const {
  std::size_t count = 0;
  for (const auto& phase : phases) count += phase.sources.size();
  return count;
}

void FuzzSpec::save(std::ostream& out,
                    const std::vector<std::string>& comments) const {
  out << kHeader << "\n";
  for (const auto& comment : comments) out << "# " << comment << "\n";
  out << "name " << name << "\n";
  out << "seed " << seed << "\n";
  out << "stress " << fmt(stress.telemetry_noise_sigma) << " "
      << fmt(stress.telemetry_dropout_rate) << " "
      << fmt(stress.telemetry_stuck_rate) << " "
      << fmt(stress.thermal_event_rate) << " "
      << fmt(stress.thermal_max_delta_c) << "\n";
  // Optional line: specs without a budget arm round-trip through the
  // original v1 grammar unchanged.
  if (stress.budget_cap_w > 0.0) {
    out << "capsched " << fmt(stress.budget_cap_w) << " "
        << fmt(stress.budget_step_cap_w) << " "
        << fmt(stress.budget_step_frac) << "\n";
  }
  for (const auto& phase : phases) {
    out << "phase " << fmt(phase.duration_s) << "\n";
    for (const auto& source : phase.sources) {
      out << "source " << source_kind_name(source.kind) << " "
          << soc::affinity_name(source.affinity) << " "
          << fmt(source.period_s) << " " << fmt(source.work_mean_cycles)
          << " " << fmt(source.work_cv) << " "
          << fmt(source.spike_probability) << " "
          << fmt(source.spike_factor) << " "
          << fmt(source.deadline_factor) << " " << fmt(source.deadline_s)
          << " " << source.burst_jobs << "\n";
    }
  }
}

FuzzSpec FuzzSpec::load(std::istream& in) {
  FuzzSpec spec;
  spec.phases.clear();
  std::string line;
  std::size_t line_no = 0;
  bool saw_header = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const auto fields = split_fields(line);
    if (fields.empty() || fields[0][0] == '#') continue;
    if (!saw_header) {
      // Exact match (modulo surrounding whitespace): a prefix check would
      // accept e.g. "pmrl-scenario v12" and misparse a future format.
      if (fields.size() != 2 || fields[0] + " " + fields[1] != kHeader) {
        throw TraceParseError(line_no, "missing '" + std::string(kHeader) +
                                           "' header");
      }
      saw_header = true;
      continue;
    }
    const std::string& tag = fields[0];
    if (tag == "name") {
      if (fields.size() != 2) {
        throw TraceParseError(line_no, "name needs exactly one value");
      }
      spec.name = fields[1];
    } else if (tag == "seed") {
      if (fields.size() != 2) {
        throw TraceParseError(line_no, "seed needs exactly one value");
      }
      spec.seed = parse_uint(fields[1], "seed", line_no);
    } else if (tag == "stress") {
      if (fields.size() != 6) {
        throw TraceParseError(line_no, "stress needs 5 values");
      }
      spec.stress.telemetry_noise_sigma =
          parse_double(fields[1], "noise sigma", line_no);
      spec.stress.telemetry_dropout_rate =
          parse_probability(fields[2], "dropout rate", line_no);
      spec.stress.telemetry_stuck_rate =
          parse_probability(fields[3], "stuck rate", line_no);
      spec.stress.thermal_event_rate =
          parse_probability(fields[4], "thermal rate", line_no);
      spec.stress.thermal_max_delta_c =
          parse_double(fields[5], "thermal delta", line_no);
      if (spec.stress.telemetry_noise_sigma < 0.0 ||
          spec.stress.thermal_max_delta_c < 0.0) {
        throw TraceParseError(line_no, "stress values must be >= 0");
      }
    } else if (tag == "capsched") {
      if (fields.size() != 4) {
        throw TraceParseError(line_no, "capsched needs 3 values");
      }
      spec.stress.budget_cap_w =
          parse_positive(fields[1], "budget cap", line_no);
      spec.stress.budget_step_cap_w =
          parse_double(fields[2], "budget step cap", line_no);
      if (spec.stress.budget_step_cap_w < 0.0) {
        throw TraceParseError(line_no, "budget step cap must be >= 0");
      }
      spec.stress.budget_step_frac =
          parse_probability(fields[3], "budget step fraction", line_no);
    } else if (tag == "phase") {
      if (fields.size() != 2) {
        throw TraceParseError(line_no, "phase needs a duration");
      }
      FuzzPhase phase;
      phase.duration_s = parse_positive(fields[1], "duration", line_no);
      spec.phases.push_back(std::move(phase));
    } else if (tag == "source") {
      if (spec.phases.empty()) {
        throw TraceParseError(line_no, "source before any phase");
      }
      if (fields.size() != 11) {
        throw TraceParseError(line_no,
                              "source needs 10 values (truncated row?)");
      }
      FuzzSource source;
      source.kind = source_kind_from(fields[1], line_no);
      source.affinity = affinity_from(fields[2], line_no);
      source.period_s = parse_positive(fields[3], "period", line_no);
      source.work_mean_cycles =
          parse_positive(fields[4], "work mean", line_no);
      source.work_cv = parse_double(fields[5], "work cv", line_no);
      if (source.work_cv < 0.0) {
        throw TraceParseError(line_no, "work cv must be >= 0");
      }
      source.spike_probability =
          parse_probability(fields[6], "spike probability", line_no);
      source.spike_factor =
          parse_positive(fields[7], "spike factor", line_no);
      source.deadline_factor =
          parse_positive(fields[8], "deadline factor", line_no);
      source.deadline_s = parse_positive(fields[9], "deadline", line_no);
      const std::uint64_t burst =
          parse_uint(fields[10], "burst jobs", line_no);
      if (burst == 0 || burst > kMaxBurstJobs) {
        throw TraceParseError(line_no, "burst jobs must be in [1, " +
                                           std::to_string(kMaxBurstJobs) +
                                           "]");
      }
      source.burst_jobs = static_cast<std::size_t>(burst);
      spec.phases.back().sources.push_back(source);
    } else {
      throw TraceParseError(line_no, "unknown tag '" + tag + "'");
    }
  }
  if (!saw_header) throw TraceParseError(0, "empty scenario file");
  if (spec.phases.empty()) {
    throw TraceParseError(0, "scenario has no phases");
  }
  return spec;
}

FuzzSpec generate_fuzz_spec(std::uint64_t seed) {
  // Generation draws from its own stream; job sampling at run time uses
  // the spec's seed. Mixing in a constant keeps the two streams unrelated.
  Rng rng(seed ^ 0xF0221E57A5C3B19DULL);
  FuzzSpec spec;
  spec.seed = seed;
  spec.name = "fuzz-" + std::to_string(seed);

  const std::size_t phase_count =
      static_cast<std::size_t>(rng.uniform_int(1, 4));
  for (std::size_t p = 0; p < phase_count; ++p) {
    FuzzPhase phase;
    phase.duration_s = rng.uniform(0.5, 3.0);
    const std::size_t source_count =
        static_cast<std::size_t>(rng.uniform_int(0, 3));
    for (std::size_t s = 0; s < source_count; ++s) {
      FuzzSource source;
      source.kind = rng.uniform() < 0.7 ? FuzzSource::Kind::Periodic
                                        : FuzzSource::Kind::Burst;
      const auto affinity_draw = rng.uniform_int(0, 2);
      source.affinity = affinity_draw == 0   ? soc::Affinity::Any
                        : affinity_draw == 1 ? soc::Affinity::PreferLittle
                                             : soc::Affinity::PreferBig;
      source.work_cv = rng.uniform(0.0, 0.6);
      if (rng.uniform() < 0.3) {
        source.spike_probability = rng.uniform(0.02, 0.15);
        source.spike_factor = rng.uniform(1.5, 4.0);
      }
      if (source.kind == FuzzSource::Kind::Periodic) {
        // Log-uniform period: 4 ms (240 Hz physics) .. 100 ms (10 Hz UI).
        source.period_s = std::exp(rng.uniform(std::log(0.004),
                                               std::log(0.100)));
        source.work_mean_cycles = std::exp(
            rng.uniform(std::log(2e5), std::log(2e7)));
        source.deadline_factor = rng.uniform(0.8, 2.0);
      } else {
        source.period_s = rng.uniform(0.2, 1.5);
        source.work_mean_cycles = std::exp(
            rng.uniform(std::log(5e6), std::log(5e7)));
        source.deadline_s = rng.uniform(0.1, 1.0);
        source.burst_jobs =
            static_cast<std::size_t>(rng.uniform_int(2, 16));
      }
      phase.sources.push_back(source);
    }
    spec.phases.push_back(std::move(phase));
  }

  if (rng.uniform() < 0.5) {
    if (rng.uniform() < 0.5) {
      spec.stress.telemetry_noise_sigma = rng.uniform(0.02, 0.15);
    }
    if (rng.uniform() < 0.4) {
      spec.stress.telemetry_dropout_rate = rng.uniform(0.01, 0.08);
    }
    if (rng.uniform() < 0.3) {
      spec.stress.telemetry_stuck_rate = rng.uniform(0.005, 0.03);
    }
    if (rng.uniform() < 0.4) {
      spec.stress.thermal_event_rate = rng.uniform(0.005, 0.04);
      spec.stress.thermal_max_delta_c = rng.uniform(10.0, 35.0);
    }
  }

  // Budget arm (appended after every pre-existing draw so older seeds keep
  // generating byte-identical specs). Per-device watts: the initial cap is
  // unconstraining, the step cap lands above the fleet's pinned-OPP floor
  // (~0.6 W/device) so the driver's settle invariant is achievable.
  if (rng.uniform() < 0.25) {
    spec.stress.budget_cap_w = rng.uniform(4.0, 8.0);
    if (rng.uniform() < 0.7) {
      spec.stress.budget_step_cap_w = rng.uniform(0.7, 1.5);
      spec.stress.budget_step_frac = rng.uniform(0.3, 0.7);
    }
  }
  return spec;
}

FuzzScenario::FuzzScenario(FuzzSpec spec)
    : spec_(std::move(spec)), rng_(spec_.seed) {
  if (spec_.phases.empty()) {
    throw std::invalid_argument("fuzz spec has no phases");
  }
}

void FuzzScenario::setup(WorkloadHost& host) {
  sources_.clear();
  rng_ = Rng(spec_.seed);
  double phase_start = 0.0;
  for (std::size_t p = 0; p < spec_.phases.size(); ++p) {
    const FuzzPhase& phase = spec_.phases[p];
    const double phase_end = phase_start + phase.duration_s;
    for (std::size_t s = 0; s < phase.sources.size(); ++s) {
      const FuzzSource& source = phase.sources[s];
      ActiveSource active;
      active.source = &source;
      active.task = host.create_task(
          std::string("p")
              .append(std::to_string(p))
              .append("s")
              .append(std::to_string(s)),
          source.affinity, 1.0);
      active.phase_start_s = phase_start;
      active.phase_end_s = phase_end;
      active.next_fire_s = phase_start;
      sources_.push_back(active);
    }
    phase_start = phase_end;
  }
}

void FuzzScenario::tick(WorkloadHost& host, double now_s, double dt_s) {
  const double window_end = now_s + dt_s;
  for (ActiveSource& active : sources_) {
    const FuzzSource& src = *active.source;
    // Releases are clipped to the source's phase window; the iteration
    // order over sources_ is fixed, so the shared RNG stream's draw order
    // (and therefore the job stream) is deterministic.
    const double end = std::min(window_end, active.phase_end_s);
    if (src.kind == FuzzSource::Kind::Periodic) {
      WorkDistribution work;
      work.mean_cycles = src.work_mean_cycles;
      work.cv = src.work_cv;
      work.spike_probability = src.spike_probability;
      work.spike_factor = src.spike_factor;
      while (true) {
        const double release =
            active.phase_start_s +
            src.period_s * static_cast<double>(active.release_index);
        if (release >= end) break;
        if (release >= now_s) {
          const double deadline =
              release + src.period_s * src.deadline_factor;
          host.submit(active.task, work.sample(rng_), deadline);
        }
        ++active.release_index;
      }
    } else {
      WorkDistribution work;
      work.mean_cycles = src.work_mean_cycles;
      work.cv = src.work_cv;
      work.spike_probability = src.spike_probability;
      work.spike_factor = src.spike_factor;
      while (active.next_fire_s < end) {
        if (active.next_fire_s >= now_s) {
          for (std::size_t j = 0; j < src.burst_jobs; ++j) {
            host.submit(active.task, work.sample(rng_),
                        active.next_fire_s + src.deadline_s);
          }
        }
        active.next_fire_s += src.period_s;
      }
    }
  }
}

}  // namespace pmrl::workload
