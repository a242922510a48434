#pragma once
// Results of one benchmark invocation: named metrics with units, the
// correctness tally, the environment block, and the helpers the output
// checks share (bit-exact digests, recorded golden values).

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

namespace ledger {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// Counts `attempted` units of work of which `failed` failed; any
  /// failure marks the result incorrect.
  void tally(std::uint64_t attempted_units, std::uint64_t failed_units) {
    attempted += attempted_units;
    failed += failed_units;
    if (failed_units > 0) correct = false;
  }
  double failed_frac() const {
    return attempted == 0 ? 1.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// True for names made of [A-Za-z0-9_.-], starting with a letter or digit,
/// at most 64 characters.
bool valid_name(const std::string& name);

/// The last line the benchmark prints: exactly the keys correct, attempted,
/// failed and metrics. A non-finite metric value makes the result
/// incorrect (and is written as 0 so the line stays valid JSON).
std::string result_json(const Result& result);

/// Human-readable table of the metrics, one per line.
void print_table(std::FILE* out, const Result& result);

/// Process high-water resident set size (VmHWM), MiB.
double peak_rss_mb();

/// Environment block recorded with every result: nproc, SIMD backend,
/// compiler and version, build type, kernel.
std::string env_json(const char* simd_backend, const char* build_type);

/// 64-bit FNV-1a over the exact bit patterns of the values fed in, so two
/// digests agree only if every value is bit-identical.
class Digest {
 public:
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFFu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(const std::string& s) {
    for (const unsigned char c : s) {
      hash_ ^= c;
      hash_ *= 0x100000001b3ULL;
    }
    add(static_cast<std::uint64_t>(s.size()));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string hex64(std::uint64_t v);

/// Recorded outputs for one seed: the fields after the seed on the line
/// "<seed> <field> <field> ..." of a golden file, or nullopt when the file
/// has no line for the seed.
std::optional<std::vector<std::string>> golden_fields(const std::string& path,
                                                      std::uint64_t seed);

/// SplitMix64 step: derives independent input seeds from the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace ledger
