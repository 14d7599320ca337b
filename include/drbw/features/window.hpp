// The one Table I featurizer over a changing set of samples.
//
// ChannelWindow keeps the Table I statistics of every directed channel as
// running sums in a core::SourceTallies (core/tallies.hpp), so adding or
// evicting one sample costs O(1) and reading the features costs
// O(nodes^2), whatever the window holds.  A sliding window (serve) adds and
// evicts; a windowed scope (DrBw::analyze_window, behind analyze --windows
// and explain) adds one cycle window's samples.  A whole profile needs no
// window: Profiler::profile fills the same tallies in its read pass, and
// extract_channels reads them off the profile.
//
// Every add resolves its sample to a WindowSample — the 8 bytes Table I
// reads: latency, memory level, source node and home node — and returns
// it.  A sliding window keeps those records and evicts them, so eviction
// never consults the machine again: what leaves the window is exactly
// what entered it.
#pragma once

#include <cstdint>
#include <vector>

#include "drbw/core/tallies.hpp"
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
/// of the add/evict history.  Whole-run sums (Profiler::profile's tallies,
/// read by extract_channels) run in stream order, so they are deterministic
/// at any size.  When all of a source's samples share one home node (a
/// trace recorded before v5 loads every sample homed on node 0), they sit
/// in one channel, so stream order is also the order a window fed the
/// profile channel by channel would see, and the sums match it bit for bit
/// at any latency.  Otherwise only the order across one source's channels
/// differs, which the bound makes order-free.
class ChannelWindow {
 public:
  /// `machine` must outlive the window.
  explicit ChannelWindow(const topology::Machine& machine);

  /// Adds a raw sample: its source node comes from the machine, its home
  /// node from the sample, which must name one of the machine's nodes.
  /// Returns the record it applied, for evict().
  WindowSample add(const pebs::MemorySample& sample);
  /// Adds a record an add() returned.
  void add(const WindowSample& sample);
  /// Removes one record an add() returned (or passed to add()).  Reads
  /// nothing but the record: no machine lookup.
  void evict(const WindowSample& sample);
  void clear();

  /// Per-channel features for every remote channel, in channel index order
  /// (src-major, the local channel skipped).
  std::vector<ChannelFeatures> channels() const;

 private:
  const topology::Machine& machine_;
  core::SourceTallies tallies_;
};

}  // namespace drbw::features
