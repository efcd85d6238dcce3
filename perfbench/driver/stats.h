#ifndef PERFBENCH_DRIVER_STATS_H_
#define PERFBENCH_DRIVER_STATS_H_

/// \file stats.h
/// Order statistics for the benchmark: nearest-rank percentiles with their
/// sample counts, and the start-up check that keeps every reported
/// percentile inside one latency tier.

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// One percentile of a sample, with the counts that say how far to trust it.
struct Percentile {
  double value = 0;    ///< The sample at the nearest rank (0 when empty).
  size_t samples = 0;  ///< Sample size.
  size_t beyond = 0;   ///< Samples strictly above the rank.
};

/// Nearest-rank percentile: the smallest sample with at least `p` percent of
/// the sample at or below it. `p` is in (0, 100].
Percentile NearestRank(std::vector<double> values, double p);

/// Median (mean of the two middle values for an even count; 0 when empty).
double Median(std::vector<double> values);

/// Checks where percentiles `ps` of one statement kind fall, given the
/// latency tier of every statement of that kind (tier 0 fastest). Tiers are
/// laid out in ascending order; a tier boundary is the cumulative share, in
/// percent, at which one tier ends and the next begins. Each percentile must
/// lie at least `min_gap` points from every boundary and have at least
/// `min_beyond` samples above its rank. Returns one message per violation;
/// empty means the placement is sound.
std::vector<std::string> CheckPercentilePlacement(
    const std::string& label, const std::vector<int>& tiers,
    const std::vector<double>& ps, double min_gap = 10,
    size_t min_beyond = 10);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_STATS_H_
