// The 13 selected features of Table I.
//
// Feature semantics (indices match the paper's Table I, 1-based there):
//   [0]  Ratio of latency above 1000 cycles among all samples
//   [1]  Ratio of latency above 500
//   [2]  Ratio of latency above 200
//   [3]  Ratio of latency above 100
//   [4]  Ratio of latency above 50
//   [5]  # of remote-DRAM access samples
//   [6]  Average remote-DRAM access latency
//   [7]  # of local-DRAM access samples
//   [8]  Average local-DRAM access latency
//   [9]  Total # of memory access samples
//   [10] Average memory access latency
//   [11] Total # of line-fill-buffer access samples
//   [12] Average line-fill-buffer access latency
//
// The analysis scope is one directed remote channel — the detection unit
// (§IV-B), and the unit a training instance (Table II row) is taken from.
// For the channel (i -> j) the scope is all samples issued from node i,
// with the remote-DRAM statistics (features 6-7) restricted to samples
// whose data lives on node j — the traffic actually on that channel.
// core::SourceTallies (core/tallies.hpp) holds the running sums behind
// them; channel_features reads every remote channel's scope off one.
// Profiler::profile fills the tallies of a whole run, and
// features::ChannelWindow (window.hpp) those of a window.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "drbw/core/profiler.hpp"
#include "drbw/core/tallies.hpp"
#include "drbw/topology/machine.hpp"

namespace drbw::features {

inline constexpr int kNumSelected = 13;

using core::kLatencyThresholds;

/// Table I descriptions, index-aligned with FeatureVector::values.
const std::array<std::string, kNumSelected>& selected_feature_names();

/// Short machine-readable names ("lat_ratio_1000", "remote_dram_count", ...).
const std::array<std::string, kNumSelected>& selected_feature_keys();

struct FeatureVector {
  std::array<double, kNumSelected> values{};
  /// Number of samples in the scope (diagnostic; equals values[9]).
  std::size_t scope_samples = 0;

  std::vector<double> as_row() const {
    return std::vector<double>(values.begin(), values.end());
  }
};

/// Sparse-channel guard: a scope with fewer than `min_scope_samples`
/// samples, or fewer than `min_remote_samples` remote-DRAM samples, carries
/// too little signal to classify.  The caller decides what a sparse channel
/// becomes (kAnalysisGuard keeps it as good, kWindowGuard drops it).
struct SparseGuard {
  std::size_t min_scope_samples = 0;
  std::size_t min_remote_samples = 0;

  bool sparse(const FeatureVector& f) const {
    return f.scope_samples < min_scope_samples ||
           f.values[5] < static_cast<double>(min_remote_samples);
  }
};

/// Whole-run analysis: a sparse channel is reported "good (sparse)" without
/// consulting the model.  §V-D: hardware sampling "does not monitor every
/// memory access", so a starved source batch carries no signal.  §IV-B:
/// bandwidth issues on a channel are identified by the accesses *on that
/// channel*, and one with (almost) no observed remote traffic cannot be
/// diagnosed as contended.
inline constexpr SparseGuard kAnalysisGuard{50, 8};

/// Windowed scopes (explain, serve): a window holds a slice of the run's
/// samples, so the bar is lower, and a sparse channel is dropped rather
/// than reported — its near-empty features explain nothing.
inline constexpr SparseGuard kWindowGuard{8, 2};

/// Features of one remote channel, ready for classification.
struct ChannelFeatures {
  topology::ChannelId channel;
  FeatureVector features;
};

/// Features of every remote channel the tallies cover, in channel index
/// order (src-major, the local channel skipped).  The one place
/// FeatureVector::values is assembled.
std::vector<ChannelFeatures> channel_features(
    const core::SourceTallies& tallies);

/// Per-channel scope for every remote channel of the machine, in channel
/// index order, read off the tallies Profiler::profile filled in its read
/// pass; the samples are not walked again.  A default-constructed profile
/// holds no samples, and every one of its scopes reads zero.
std::vector<ChannelFeatures> extract_channels(const core::ProfileResult& profile,
                                              const topology::Machine& machine);

}  // namespace drbw::features
