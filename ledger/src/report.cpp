#include "report.hpp"

#include <sys/utsname.h>
#include <unistd.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

namespace ledger {

bool valid_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  for (const char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

namespace {

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string result_json(const Result& result) {
  bool correct = result.correct;
  std::string metrics;
  for (const Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) correct = false;
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " +
               number(std::isfinite(m.value) ? m.value : 0.0) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(result.attempted) +
         ", \"failed\": " + std::to_string(result.failed) +
         ", \"metrics\": {" + metrics + "}}";
}

void print_table(std::FILE* out, const Result& result) {
  for (const Metric& m : result.metrics) {
    std::fprintf(out, "  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::fprintf(out, "  %-34s %16.6g fraction (%llu of %llu failed)\n",
               "failed_frac", result.failed_frac(),
               static_cast<unsigned long long>(result.failed),
               static_cast<unsigned long long>(result.attempted));
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::string env_json(const char* simd_backend, const char* build_type) {
  utsname uts{};
  ::uname(&uts);
  std::ostringstream out;
  out << "{\"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ", \"simd_backend\": \"" << simd_backend << "\""
#if defined(__clang__)
      << ", \"compiler\": \"clang " << __clang_version__ << "\""
#elif defined(__GNUC__)
      << ", \"compiler\": \"gcc " << __VERSION__ << "\""
#endif
      << ", \"build_type\": \"" << build_type << "\""
      << ", \"kernel\": \"" << uts.sysname << " " << uts.release << "\"}";
  return out.str();
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::optional<std::vector<std::string>> golden_fields(const std::string& path,
                                                      std::uint64_t seed) {
  std::ifstream in(path);
  std::string line;
  const std::string key = std::to_string(seed);
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string first;
    if (!(fields >> first) || first != key) continue;
    std::vector<std::string> rest;
    for (std::string f; fields >> f;) rest.push_back(f);
    return rest;
  }
  return std::nullopt;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace ledger
