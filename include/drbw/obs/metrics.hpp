// drbw::obs metrics registry — named monotonic counters, gauges, and
// fixed-bucket histograms, exported as Prometheus text exposition or JSON.
//
// Determinism contract: the default ("golden") export must be byte-identical
// for identical workload + seed at any --jobs value.  Counters are commutative
// atomic sums, histograms observe integers only (no floating-point
// accumulation-order drift), and gauges offer a commutative set_max() for
// values written from parallel tasks.  Instruments whose value legitimately
// depends on scheduling (worker counts, enqueue totals) register as
// Visibility::kDiagnostic and are excluded from the golden export.
//
// Layering: obs sits *below* util (util::TaskPool is instrumented), so this
// header depends only on the standard library and the header-only
// drbw/util/error.hpp.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "drbw/util/error.hpp"

namespace drbw::obs {

/// Whether an instrument participates in the golden (deterministic) export.
enum class Visibility {
  kGolden,      ///< jobs-independent; included in default exports
  kDiagnostic,  ///< scheduling-dependent; excluded unless explicitly requested
};

/// Monotonic counter.  add() is a relaxed atomic increment: sums are
/// commutative, so the final value is independent of task scheduling.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time value.  set() is last-writer-wins and only deterministic from
/// single-threaded contexts; set_max() is commutative and safe from parallel
/// tasks (used e.g. for peak live heap bytes).
class Gauge {
 public:
  void set(double v) {
    bits_.store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed);
  }
  void set_max(double v) {
    std::uint64_t cur = bits_.load(std::memory_order_relaxed);
    while (v > std::bit_cast<double>(cur) &&
           !bits_.compare_exchange_weak(cur, std::bit_cast<std::uint64_t>(v),
                                        std::memory_order_relaxed)) {
    }
  }
  double value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }
  void reset() { bits_.store(std::bit_cast<std::uint64_t>(0.0), std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> bits_{std::bit_cast<std::uint64_t>(0.0)};
};

/// Fixed-bucket histogram over integer observations.  Bucket `i` counts
/// observations with `v <= bounds[i]` and `v > bounds[i-1]` (Prometheus `le`
/// semantics); one implicit +Inf bucket follows the last bound.  Integer-only
/// observations keep the sum exact and order-independent.
class Histogram {
 public:
  explicit Histogram(std::vector<std::uint64_t> bounds);

  void observe(std::uint64_t v);
  /// Record `n` observations of the same value with one round of atomics.
  /// Equivalent to calling observe(v) n times; lets hot loops accumulate into
  /// plain locals and flush once without changing the exported values.
  void observe_n(std::uint64_t v, std::uint64_t n);

  const std::vector<std::uint64_t>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) count; i in [0, bounds().size()] where the
  /// last index is the +Inf bucket.
  std::uint64_t bucket_count(std::size_t i) const;
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  void reset();

 private:
  std::vector<std::uint64_t> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> count_{0};
};

/// Named instrument registry.  Registration is idempotent: re-registering an
/// existing name with the same kind (and, for histograms, the same bounds)
/// returns the existing instrument; a kind or bounds mismatch throws
/// drbw::Error.  Exports iterate a sorted map, so output order is stable.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name, const std::string& help,
                   Visibility visibility = Visibility::kGolden);
  Gauge& gauge(const std::string& name, const std::string& help,
               Visibility visibility = Visibility::kGolden);
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<std::uint64_t> bounds,
                       Visibility visibility = Visibility::kGolden);

  /// Prometheus text exposition format (# HELP / # TYPE / samples).
  std::string prometheus_text(bool include_diagnostic = false) const;
  /// JSON export: {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string json_text(bool include_diagnostic = false) const;

  /// Flat name/kind/value rows for human-readable rendering (report tables).
  struct Row {
    std::string name;
    std::string kind;  // "counter" | "gauge" | "histogram"
    std::string help;
    std::string value;  // rendered scalar or histogram summary
  };
  std::vector<Row> rows(bool include_diagnostic = false) const;

  /// Zeroes every instrument value (registrations stay).  Test-only.
  void reset_values();

  std::size_t size() const;

  /// The process-wide registry all built-in instrumentation reports to.
  static Registry& global();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    Visibility visibility;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& find_or_insert(const std::string& name, Kind kind,
                        const std::string& help, Visibility visibility);

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

}  // namespace drbw::obs
