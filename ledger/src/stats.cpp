#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ledger {

double median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  const double n = static_cast<double>(sorted.size());
  // Rank 1..n; the epsilon keeps p99 of 100 samples at rank 99 despite
  // 0.99 * 100 rounding to 99.00000000000001.
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, p);
}

double quartile_spread(std::vector<double> values) {
  if (values.size() < 2) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  auto quantile = [&](double k) {
    // statistics.quantiles(method="exclusive"): position k*(n+1)/4, 1-based.
    double pos = k * (n + 1.0) / 4.0;
    pos = std::clamp(pos, 1.0, n);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const double frac = pos - static_cast<double>(lo);
    const double a = values[lo - 1];
    const double b = values[std::min(lo, values.size() - 1)];
    return a + (b - a) * frac;
  };
  const double mid = median(values);
  if (mid == 0.0) return 0.0;
  return (quantile(3.0) - quantile(1.0)) / std::fabs(mid);
}

double highest_supported_percentile(std::size_t n, std::size_t beyond) {
  static constexpr double kLadder[] = {99.999, 99.99, 99.9, 99.0, 90.0, 50.0};
  for (const double p : kLadder) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    if (rank >= 1 && rank <= n && n - rank >= beyond) return p;
  }
  return 0.0;
}

}  // namespace ledger
