// Streaming summary statistics and quantiles.
//
// Feature extraction (drbw::features) and the experiment harnesses summarize
// large sample populations; OnlineStats implements Welford's numerically
// stable one-pass algorithm so features never require buffering raw samples
// beyond what the profiler already retains.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "drbw/util/error.hpp"

namespace drbw {

/// One-pass mean/variance/min/max accumulator (Welford).
class OnlineStats {
 public:
  void add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  /// Merges another accumulator (parallel Welford / Chan et al.).
  void merge(const OnlineStats& other) {
    if (other.count_ == 0) return;
    if (count_ == 0) {
      *this = other;
      return;
    }
    const double delta = other.mean_ - mean_;
    const auto n1 = static_cast<double>(count_);
    const auto n2 = static_cast<double>(other.count_);
    const double n = n1 + n2;
    mean_ += delta * n2 / n;
    m2_ += other.m2_ + delta * delta * n1 * n2 / n;
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double variance() const {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Returns the q-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation.
/// The input vector is copied; callers in hot paths should pre-sort and use
/// quantile_sorted instead.
double quantile(std::vector<double> values, double q);

/// Quantile over an already ascending-sorted vector.
double quantile_sorted(const std::vector<double>& sorted, double q);

/// Lower median (nearest rank, element (n-1)/2 of the sorted copy); 0 for
/// an empty input.  Always one of the inputs, so it is deterministic.
double lower_median(std::vector<double> values);

/// Geometric mean of strictly positive values; used for speedup summaries.
double geomean(const std::vector<double>& values);

}  // namespace drbw
