#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace perfbench {

namespace {

/// 1-based nearest rank of percentile `p` in a sample of `n`.
size_t Rank(size_t n, double p) {
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

Percentile NearestRank(std::vector<double> values, double p) {
  Percentile out;
  out.samples = values.size();
  if (values.empty()) return out;
  const size_t rank = Rank(values.size(), p);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  out.value = values[rank - 1];
  out.beyond = values.size() - rank;
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::vector<std::string> CheckPercentilePlacement(
    const std::string& label, const std::vector<int>& tiers,
    const std::vector<double>& ps, double min_gap, size_t min_beyond) {
  std::vector<std::string> errors;
  std::map<int, size_t> counts;
  for (int t : tiers) ++counts[t];
  std::vector<double> boundaries;  // internal boundaries only
  size_t cumulative = 0;
  for (auto it = counts.begin(); it != counts.end(); ++it) {
    cumulative += it->second;
    if (std::next(it) != counts.end()) {
      boundaries.push_back(100.0 * cumulative / tiers.size());
    }
  }
  char buf[256];
  for (double p : ps) {
    const size_t n = tiers.size();
    const size_t beyond = n == 0 ? 0 : n - Rank(n, p);
    if (beyond < min_beyond) {
      std::snprintf(buf, sizeof(buf),
                    "%s p%g: %zu samples beyond it of %zu, need %zu",
                    label.c_str(), p, beyond, n, min_beyond);
      errors.emplace_back(buf);
    }
    for (double b : boundaries) {
      if (std::fabs(p - b) < min_gap) {
        std::snprintf(buf, sizeof(buf),
                      "%s p%g: %.1f points from the tier boundary at %.1f, "
                      "need %g",
                      label.c_str(), p, std::fabs(p - b), b, min_gap);
        errors.emplace_back(buf);
      }
    }
  }
  return errors;
}

}  // namespace perfbench
