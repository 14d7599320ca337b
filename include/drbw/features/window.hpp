// The one Table I featurizer.
//
// ChannelWindow keeps the Table I statistics of every directed channel as
// running sums, so adding or evicting one sample costs O(1) and reading the
// features costs O(nodes^2), whatever the window holds.  A sliding window
// (serve) adds and evicts; a windowed scope (DrBw::analyze_window, behind
// analyze --windows and explain) adds one cycle window's samples; a whole
// profile (extract_channels) adds every sample once, in profile order.
//
// Every add resolves its sample to a WindowSample — the 8 bytes Table I
// reads: latency, memory level, source node and home node — and returns
// it.  A sliding window keeps those records and evicts them, so eviction
// never consults the locator or the machine again: what leaves the window
// is exactly what entered it, whatever locator filled it.
//
// State: one record per source node (sample count, the five latency
// threshold counters, and count + latency sum for all samples) plus a
// row of level tallies per source node: local DRAM, LFB, a sink for the
// levels Table I does not read, and remote DRAM per home node.  Each mean
// is sum / count, or 0 when the count is 0.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "drbw/core/profiler.hpp"
#include "drbw/features/selected.hpp"
#include "drbw/pebs/sample.hpp"
#include "drbw/topology/machine.hpp"

namespace drbw::features {

/// One sample as a ChannelWindow holds it: what Table I reads of a
/// pebs::MemorySample plus the nodes the window resolved it to.
struct WindowSample {
  float latency = 0.0f;  ///< MemorySample::latency_cycles
  pebs::MemLevel level = pebs::MemLevel::kL1;
  std::uint8_t src = 0;   ///< node of the CPU that issued the access
  std::uint8_t home = 0;  ///< node where the data resides
};
static_assert(sizeof(WindowSample) == 8, "WindowSample must pack to 8 bytes");

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
class ChannelWindow {
 public:
  /// `machine` and `locator` must outlive the window.  The machine has at
  /// most 256 nodes (a WindowSample names them in one byte each).
  ChannelWindow(const topology::Machine& machine, core::PageLocator& locator);

  /// Adds a raw sample: its source node comes from the machine, its home
  /// node from the locator.  Returns the record it applied, for evict().
  WindowSample add(const pebs::MemorySample& sample);
  /// Adds a profiled sample with the source and home node the profiler
  /// recorded (both nodes of the machine); the locator is not consulted.
  void add(const core::AttributedSample& sample);
  /// Adds a record an add() returned.
  void add(const WindowSample& sample);
  /// Removes one record an add() returned (or passed to add()).  Reads
  /// nothing but the record: no locator, no machine lookup.
  void evict(const WindowSample& sample);
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
    std::array<std::uint64_t, kLatencyThresholds.size()> above{};
  };
  /// The one update: kSign = 1 adds `sample`, -1 evicts it.
  template <int kSign>
  void apply(const WindowSample& sample);

  const topology::Machine& machine_;
  core::PageLocator& locator_;
  std::size_t row_;                   ///< level tallies per source node
  std::vector<SourceStats> sources_;  ///< indexed by source node
  /// Level tallies, src * row_ + slot (slots in window.cpp).
  std::vector<Tally> levels_;
};

}  // namespace drbw::features
