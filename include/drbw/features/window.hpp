// The one Table I featurizer.
//
// ChannelWindow keeps the Table I statistics of every directed channel as
// running sums, so adding or evicting one sample costs O(1) and reading the
// features costs O(nodes^2), whatever the window holds.  A sliding window
// (serve) adds and evicts; a windowed scope (analyze --windows, explain)
// adds one bucket; a whole profile (extract_channels) adds every sample
// once, in profile order.
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
/// samples.
///
/// Exactness bound: latencies are floats (24-bit significands) and the sums
/// are doubles (53-bit), so every partial sum is exact — and evict() undoes
/// add() bit for bit — while each latency is 0 or at least 1 cycle and a
/// sum stays below 2^30 cycles (e.g. 4096 samples averaging 262k cycles).
/// Inside the bound the features are a pure function of the multiset, never
/// of the add/evict history.  Whole-run sums (extract_channels) run in
/// profile order, so they are deterministic at any size, and order-free
/// within the bound.
///
/// Precondition for evict(): the window recomputes the evicted sample's home
/// node with the locator, so the locator must be stateless (the same answer
/// at eviction as at admission).  core::ReplayLocator is; add-only windows
/// may use any locator.
class ChannelWindow {
 public:
  /// `machine` and `locator` must outlive the window.
  ChannelWindow(const topology::Machine& machine, core::PageLocator& locator);

  /// Adds a raw sample: its source node comes from the machine, its home
  /// node from the locator.
  void add(const pebs::MemorySample& sample);
  /// Adds a profiled sample with the source and home node the profiler
  /// recorded (both nodes of the machine); the locator is not consulted.
  void add(const core::AttributedSample& sample);
  /// Removes one sample previously passed to add(const MemorySample&).
  void evict(const pebs::MemorySample& sample);
  void clear();

  /// Per-channel features for every remote channel, in channel index order
  /// (src-major, the local channel skipped).
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
  void apply(const pebs::MemorySample& sample, topology::NodeId src,
             topology::NodeId home);

  const topology::Machine& machine_;
  core::PageLocator& locator_;
  std::vector<SourceStats> sources_;  ///< indexed by source node
  std::vector<Tally> remote_;         ///< remote DRAM, src * nodes + home
};

}  // namespace drbw::features
