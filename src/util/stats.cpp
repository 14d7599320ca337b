#include "drbw/util/stats.hpp"

#include <numeric>

namespace drbw {

double quantile_sorted(const std::vector<double>& sorted, double q) {
  DRBW_CHECK_MSG(!sorted.empty(), "quantile of empty vector");
  DRBW_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile q=" << q << " out of [0,1]");
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, q);
}

double lower_median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[(values.size() - 1) / 2];
}

double geomean(const std::vector<double>& values) {
  DRBW_CHECK_MSG(!values.empty(), "geomean of empty vector");
  double log_sum = 0.0;
  for (double v : values) {
    DRBW_CHECK_MSG(v > 0.0, "geomean requires positive values, got " << v);
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace drbw
