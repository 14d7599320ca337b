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

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(buckets)),
      counts_(buckets, 0) {
  DRBW_CHECK_MSG(hi > lo, "histogram range must be nonempty");
  DRBW_CHECK_MSG(buckets > 0, "histogram needs at least one bucket");
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  auto idx = static_cast<std::size_t>((x - lo_) / width_);
  if (idx >= counts_.size()) idx = counts_.size() - 1;  // fp edge at hi
  ++counts_[idx];
}

double Histogram::bucket_lo(std::size_t i) const {
  return lo_ + width_ * static_cast<double>(i);
}

double Histogram::bucket_hi(std::size_t i) const {
  return lo_ + width_ * static_cast<double>(i + 1);
}

double Histogram::fraction_at_least(double threshold) const {
  if (total_ == 0) return 0.0;
  std::size_t n = overflow_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (bucket_lo(i) >= threshold) n += counts_[i];
  }
  return static_cast<double>(n) / static_cast<double>(total_);
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
