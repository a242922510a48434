#pragma once
// Order statistics for the ledger: medians, nearest-rank percentiles,
// quartile spreads, and the tail-percentile rule "report the highest
// percentile that still has at least ten samples beyond it".

#include <cstddef>
#include <vector>

namespace ledger {

/// Median; the mean of the two middle values for an even count. NaN when
/// empty.
double median(std::vector<double> values);

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it (p in (0, 100]). NaN when empty.
double percentile(std::vector<double> values, double p);

/// Same on samples that are already sorted ascending.
double percentile_sorted(const std::vector<double>& sorted, double p);

/// Interquartile distance over the median, the run-to-run spread measure
/// (quartiles by the "exclusive" method, as Python's statistics.quantiles
/// computes them). 0 for fewer than two samples.
double quartile_spread(std::vector<double> values);

/// Highest percentile of {50, 90, 99, 99.9, 99.99, 99.999} that leaves at
/// least `beyond` samples above its rank among `n`; 0 when even the median
/// does not.
double highest_supported_percentile(std::size_t n, std::size_t beyond = 10);

}  // namespace ledger
