// Table I's running sums (features/selected.hpp), per source node.
//
// SourceTallies holds, for every source node, the sample count and latency
// sum over all its samples, the five latency-threshold counters, and a row
// of level tallies: local DRAM, LFB, a sink for the levels Table I does not
// read (L1, L2, L3), then remote DRAM per home node.  Each mean is
// sum / count, or 0 when the count is 0.  Adding or evicting one sample
// costs O(1), and features::channel_features turns the tallies into every
// remote channel's FeatureVector in O(nodes^2).
//
// Two owners fill one: Profiler::profile's read pass adds every sample of
// a run, in stream order, to ProfileResult::tallies; features::ChannelWindow
// adds and evicts a window's samples.  See window.hpp for the exactness
// bound of the latency sums.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "drbw/pebs/sample.hpp"

namespace drbw::core {

/// Latency thresholds (cycles) of Table I's ratio features [0]-[4], in
/// order.
inline constexpr std::array<double, 5> kLatencyThresholds = {
    1000.0, 500.0, 200.0, 100.0, 50.0};

/// Sample count and latency sum over a counted subset of one source node's
/// samples.
struct LatencyTally {
  std::uint64_t count = 0;
  double sum = 0.0;
  double mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
};

class SourceTallies {
 public:
  /// No nodes: what a default-constructed ProfileResult holds.
  SourceTallies() = default;
  explicit SourceTallies(int nodes)
      : row_(kRemoteSlot + static_cast<std::size_t>(nodes)),
        sources_(static_cast<std::size_t>(nodes)),
        levels_(static_cast<std::size_t>(nodes) * row_) {}

  int nodes() const { return static_cast<int>(sources_.size()); }

  /// The one update: kSign = 1 adds a sample, -1 evicts one that was added.
  /// `src` and `home` are nodes below nodes(); `home` is read only for
  /// remote DRAM.
  template <int kSign>
  void apply(float latency, pebs::MemLevel level, std::size_t src,
             std::size_t home) {
    const auto step = [](auto& count, auto hit) {
      if constexpr (kSign > 0) {
        count += hit;
      } else {
        count -= hit;
      }
    };
    const auto tally = [&](LatencyTally& t, double lat) {
      step(t.count, std::uint64_t{1});
      if constexpr (kSign > 0) {
        t.sum += lat;
      } else {
        // An emptied tally restarts from exactly zero, even outside the
        // exactness bound.
        t.sum = t.count == 0 ? 0.0 : t.sum - lat;
      }
    };
    const double lat = latency;
    Source& source = sources_[src];
    tally(source.all, lat);
    for (std::size_t i = 0; i < kLatencyThresholds.size(); ++i) {
      step(source.above[i],
           static_cast<std::uint64_t>(lat > kLatencyThresholds[i]));
    }
    // Branch-free: the level is data, and a branch on it mispredicts.
    const std::size_t remote = level == pebs::MemLevel::kRemoteDram;
    const std::size_t slot =
        kLevelSlot[static_cast<std::uint8_t>(level)] + (home & (0 - remote));
    tally(levels_[src * row_ + slot], lat);
  }

  void clear() {
    std::fill(sources_.begin(), sources_.end(), Source{});
    std::fill(levels_.begin(), levels_.end(), LatencyTally{});
  }

  /// Every sample of `src`.
  const LatencyTally& all(std::size_t src) const { return sources_[src].all; }
  /// Samples of `src` above kLatencyThresholds[threshold].
  std::uint64_t above(std::size_t src, std::size_t threshold) const {
    return sources_[src].above[threshold];
  }
  const LatencyTally& local(std::size_t src) const {
    return levels_[src * row_ + kLocalSlot];
  }
  const LatencyTally& lfb(std::size_t src) const {
    return levels_[src * row_ + kLfbSlot];
  }
  /// Remote-DRAM samples of `src` whose data lives on `home`.
  const LatencyTally& remote(std::size_t src, std::size_t home) const {
    return levels_[src * row_ + kRemoteSlot + home];
  }

 private:
  struct Source {
    LatencyTally all;
    std::array<std::uint64_t, kLatencyThresholds.size()> above{};
  };

  static constexpr std::size_t kLocalSlot = 0;
  static constexpr std::size_t kLfbSlot = 1;
  static constexpr std::size_t kSinkSlot = 2;
  static constexpr std::size_t kRemoteSlot = 3;
  /// Row slot of each memory level's tally; remote DRAM adds the home node.
  /// Indexed by the raw level byte, so a level the decoders reject would
  /// still land in the sink (a viewed trace whose file is rewritten after
  /// its load's checks can hand one in).
  static constexpr std::array<std::uint8_t, 256> kLevelSlot = [] {
    std::array<std::uint8_t, 256> slots{};
    slots.fill(kSinkSlot);
    slots[static_cast<std::size_t>(pebs::MemLevel::kLocalDram)] = kLocalSlot;
    slots[static_cast<std::size_t>(pebs::MemLevel::kLfb)] = kLfbSlot;
    slots[static_cast<std::size_t>(pebs::MemLevel::kRemoteDram)] = kRemoteSlot;
    return slots;
  }();

  std::size_t row_ = 0;           ///< level tallies per source node
  std::vector<Source> sources_;   ///< indexed by source node
  /// Level tallies, src * row_ + slot.
  std::vector<LatencyTally> levels_;
};

}  // namespace drbw::core
