// Incremental per-channel featurization for windowed scopes.
//
// extract_channels() featurizes a finished ProfileResult; a sliding window
// (serve) would have to re-profile its whole buffer every time it moves.
// ChannelWindow keeps the Table I statistics of every directed channel as
// running sums instead, so adding or evicting one sample costs O(1) and
// reading the features costs O(nodes^2), whatever the window holds.
//
// State: one record per source node (sample count, the five latency
// threshold counters, and count + latency sum for all, local-DRAM and LFB
// samples) plus a remote-DRAM count + latency sum per (src, home) pair.
// Each mean is sum / count, or 0 when the count is 0.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "drbw/core/profiler.hpp"
#include "drbw/features/selected.hpp"
#include "drbw/pebs/sample.hpp"
#include "drbw/topology/machine.hpp"

namespace drbw::features {

/// Running Table I statistics of every remote channel over a multiset of
/// samples.  channels() matches extract_channels() on a profile of the same
/// samples: the same channels in the same order, identical counts and ratios,
/// and means within rounding (sum / count here, Welford there).
///
/// Exactness bound: latencies are floats (24-bit significands) and the sums
/// are doubles (53-bit), so every partial sum is exact — and evict() undoes
/// add() bit for bit — while each latency is 0 or at least 1 cycle and a
/// sum stays below 2^30 cycles (e.g. 4096 samples averaging 262k cycles).
/// Inside the bound the features are a pure function of the multiset, never
/// of the add/evict history.
///
/// Precondition for evict(): the window recomputes the evicted sample's home
/// node with the locator, so the locator must be stateless (the same answer
/// at eviction as at admission).  core::ReplayLocator is; add-only windows
/// may use any locator.
class ChannelWindow {
 public:
  /// `machine` and `locator` must outlive the window.
  ChannelWindow(const topology::Machine& machine, core::PageLocator& locator);

  void add(const pebs::MemorySample& sample);
  /// Removes one sample previously passed to add().
  void evict(const pebs::MemorySample& sample);
  void clear();

  /// Per-channel features for every remote channel, in extract_channels()
  /// order.
  std::vector<ChannelFeatures> channels() const;

 private:
  /// Latency sum over a counted subset of the source node's samples.
  struct Tally {
    std::uint64_t count = 0;
    double sum = 0.0;
    double mean() const {
      return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }
  };
  struct SourceStats {
    Tally all;
    Tally local;
    Tally lfb;
    std::array<std::uint64_t, kLatencyThresholds.size()> above{};
  };

  template <int kSign>
  void apply(const pebs::MemorySample& sample);

  const topology::Machine& machine_;
  core::PageLocator& locator_;
  std::vector<SourceStats> sources_;  ///< indexed by source node
  std::vector<Tally> remote_;         ///< remote DRAM, src * nodes + home
};

}  // namespace drbw::features
