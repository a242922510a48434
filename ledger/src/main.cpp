// ledger_bench: runs one named workload and prints its metrics.
//
//   ledger_bench --workload <handset|fleet|fleet_budget|serve> --seed <n>
//                --seconds <s> --trace <0|1>
//   ledger_bench --workload <name> --record <first-seed> <last-seed>
//
// Run from the repository root: golden files are read from ledger/golden
// and scratch files go to .bench_build/ledger-run. --trace 0 prints the
// end-to-end metrics; --trace 1 prints the per-layer metrics of every layer
// (the traced workload's own loop plus a probe of every other workload's
// layers) and writes the spans to the scratch directory. The last line of
// standard output is the result as one JSON object; the line before it is
// the environment block. --record prints the golden fields for a range of
// seeds.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include "report.hpp"
#include "rl/batch_argmax.hpp"
#include "workloads.hpp"

#ifndef LEDGER_BUILD_TYPE
#define LEDGER_BUILD_TYPE "unknown"
#endif

namespace {

using namespace ledger;

const char* const kWorkloads[] = {"handset", "fleet", "fleet_budget", "serve"};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ledger_bench: %s\n"
               "usage: ledger_bench --workload <handset|fleet|fleet_budget|serve>"
               " --seed <n> --seconds <s> --trace <0|1>\n"
               "       ledger_bench --workload <name> --record <first> <last>\n",
               why);
  std::exit(2);
}

std::uint64_t parse_uint(const char* text, const char* flag) {
  if (!text || *text < '0' || *text > '9') usage(flag);
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno != 0) usage(flag);
  return v;
}

void make_dirs(const std::string& path) {
  for (std::size_t i = 1; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      ::mkdir(path.substr(0, i).c_str(), 0755);
    }
  }
}

void run_traced(const Options& opts, Result& result) {
  const std::string& w = opts.workload;
  TraceContext trace;
  trace.root = trace.spans.begin("ledger.trace");
  // FleetEngine construction first, while the heap its child processes
  // inherit is still that of a fresh process, as in the untraced run.
  fleet_build_layer(opts, result, trace);
  // The traced workload, then a probe of every other workload's layers, so
  // every traced run reports the whole per-layer table.
  const bool handset = w == "handset";
  const bool fleet = w == "fleet" || w == "fleet_budget";
  if (handset) handset_layers(opts, result, trace, true);
  if (fleet) fleet_layers(opts, result, trace, w == "fleet", w == "fleet_budget");
  if (w == "serve") serve_layers(opts, result, trace, true);
  if (!handset) handset_layers(opts, result, trace, false);
  if (!fleet) fleet_layers(opts, result, trace, false, false);
  if (w != "serve") serve_layers(opts, result, trace, false);
  trace.spans.end(trace.root);

  // The traced workload's unattributed remainder: the part of its phase
  // that none of its child spans cover.
  const std::string phase = fleet ? "fleet.layers" : w + ".layers";
  for (std::size_t i = 0; i < trace.spans.size(); ++i) {
    if (trace.spans.spans()[i].name == phase) {
      const int index = static_cast<int>(i);
      result.add("trace.unattributed_frac",
                 trace.spans.self_ns(index) / trace.spans.duration_ns(index),
                 "fraction");
      break;
    }
  }
  result.add("trace.spans", static_cast<double>(trace.spans.size()), "count");
  const std::string path = opts.run_dir + "/spans-" + w + "-" +
                           std::to_string(opts.seed) + ".json";
  std::ofstream out(path);
  trace.spans.write_json(out);
  std::fprintf(stderr, "ledger: %zu spans written to %s\n", trace.spans.size(),
               path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  opts.run_dir = ".bench_build/ledger-run";
  opts.golden_dir = "ledger/golden";
  bool have_seed = false, have_seconds = false, have_trace = false;
  long long record_first = -1, record_last = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--workload" && value) {
      opts.workload = value;
    } else if (arg == "--seed" && value) {
      opts.seed = parse_uint(value, "--seed needs a whole number");
      have_seed = true;
    } else if (arg == "--seconds" && value) {
      opts.seconds = static_cast<double>(
          parse_uint(value, "--seconds needs a whole number"));
      have_seconds = opts.seconds >= 1;
    } else if (arg == "--trace" && value) {
      const std::string t = value;
      if (t != "0" && t != "1") usage("--trace takes 0 or 1");
      opts.trace = t == "1";
      have_trace = true;
    } else if (arg == "--record" && value && i + 2 < argc) {
      record_first = static_cast<long long>(parse_uint(value, "--record"));
      record_last = static_cast<long long>(parse_uint(argv[i + 2], "--record"));
      ++i;
    } else {
      usage(("unknown or incomplete argument " + arg).c_str());
    }
    ++i;
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || opts.workload == w;
  if (!known) usage("unknown workload");
  opts.nproc = static_cast<std::size_t>(::sysconf(_SC_NPROCESSORS_ONLN));
  make_dirs(opts.run_dir);

  try {
    if (record_first >= 0) {
      for (long long s = record_first; s <= record_last; ++s) {
        opts.seed = static_cast<std::uint64_t>(s);
        const std::string& w = opts.workload;
        if (w == "serve") usage("serve checks against in-process references");
        const auto fields = w == "handset" ? handset_golden(opts)
                                           : fleet_golden(opts, w == "fleet_budget");
        std::printf("%lld", s);
        for (const auto& f : fields) std::printf(" %s", f.c_str());
        std::printf("\n");
        std::fflush(stdout);
      }
      return 0;
    }
    if (!have_seed || !have_seconds || !have_trace) {
      usage("--seed, --seconds and --trace are required");
    }
    Result result;
    if (opts.trace) {
      run_traced(opts, result);
    } else if (opts.workload == "handset") {
      handset_run(opts, result);
    } else if (opts.workload == "serve") {
      serve_run(opts, result);
    } else {
      fleet_run(opts, opts.workload == "fleet_budget", result);
    }
    if (!opts.trace) {
      result.add("success_frac", 1.0 - result.failed_frac(), "fraction");
    }
    for (const Metric& m : result.metrics) {
      if (!valid_name(m.name)) {
        std::fprintf(stderr, "ledger: invalid metric name %s\n", m.name.c_str());
        return 1;
      }
    }
    std::printf("%s %s seed=%llu seconds=%g trace=%d\n", "ledger",
                opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
                opts.seconds, opts.trace ? 1 : 0);
    print_table(stdout, result);
    std::printf("env %s\n",
                env_json(pmrl::rl::batch_argmax_backend(), LEDGER_BUILD_TYPE).c_str());
    std::printf("%s\n", result_json(result).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ledger: %s failed: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }
  return 0;
}
