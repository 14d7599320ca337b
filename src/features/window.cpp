#include "drbw/features/window.hpp"

#include <algorithm>

namespace drbw::features {

namespace {

// A source node's row of level tallies: local DRAM, LFB, a sink for the
// levels Table I does not read (L1, L2, L3), then remote DRAM per home node.
constexpr std::size_t kLocalSlot = 0;
constexpr std::size_t kLfbSlot = 1;
constexpr std::size_t kSinkSlot = 2;
constexpr std::size_t kRemoteSlot = 3;

/// Row slot of each memory level's tally; remote DRAM adds the home node.
/// Indexed by the raw level byte, so a level the decoders reject would
/// still land in the sink.
constexpr std::array<std::uint8_t, 256> kLevelSlot = [] {
  std::array<std::uint8_t, 256> slots{};
  slots.fill(kSinkSlot);
  slots[static_cast<std::size_t>(pebs::MemLevel::kLocalDram)] = kLocalSlot;
  slots[static_cast<std::size_t>(pebs::MemLevel::kLfb)] = kLfbSlot;
  slots[static_cast<std::size_t>(pebs::MemLevel::kRemoteDram)] = kRemoteSlot;
  return slots;
}();

}  // namespace

ChannelWindow::ChannelWindow(const topology::Machine& machine,
                             core::PageLocator& locator)
    : machine_(machine),
      locator_(locator),
      row_(kRemoteSlot + static_cast<std::size_t>(machine.num_nodes())),
      sources_(static_cast<std::size_t>(machine.num_nodes())),
      levels_(static_cast<std::size_t>(machine.num_nodes()) * row_) {
  DRBW_CHECK_MSG(machine.num_nodes() <= 256,
                 "a channel window names nodes in one byte; the machine has "
                     << machine.num_nodes() << " nodes");
}

template <int kSign>
void ChannelWindow::apply(const WindowSample& sample) {
  const auto step = [](auto& count, auto hit) {
    if constexpr (kSign > 0) {
      count += hit;
    } else {
      count -= hit;
    }
  };
  const auto tally = [&](Tally& t, double lat) {
    step(t.count, std::uint64_t{1});
    if constexpr (kSign > 0) {
      t.sum += lat;
    } else {
      // An emptied tally restarts from exactly zero, even outside the
      // exactness bound.
      t.sum = t.count == 0 ? 0.0 : t.sum - lat;
    }
  };
  const double lat = sample.latency;
  SourceStats& stats = sources_[sample.src];
  tally(stats.all, lat);
  for (std::size_t i = 0; i < kLatencyThresholds.size(); ++i) {
    step(stats.above[i],
         static_cast<std::uint64_t>(lat > kLatencyThresholds[i]));
  }
  const std::size_t slot =
      kLevelSlot[static_cast<std::uint8_t>(sample.level)] +
      (sample.level == pebs::MemLevel::kRemoteDram ? sample.home : 0u);
  tally(levels_[sample.src * row_ + slot], lat);
}

WindowSample ChannelWindow::add(const pebs::MemorySample& sample) {
  const topology::NodeId src = machine_.node_of_cpu(sample.cpu);
  const WindowSample record{
      sample.latency_cycles, sample.level, static_cast<std::uint8_t>(src),
      static_cast<std::uint8_t>(locator_.locate(sample.address, src))};
  apply<1>(record);
  return record;
}

void ChannelWindow::add(const core::AttributedSample& sample) {
  apply<1>(WindowSample{sample.sample.latency_cycles, sample.sample.level,
                        static_cast<std::uint8_t>(sample.src_node),
                        static_cast<std::uint8_t>(sample.home_node)});
}

void ChannelWindow::add(const WindowSample& sample) { apply<1>(sample); }

void ChannelWindow::evict(const WindowSample& sample) { apply<-1>(sample); }

void ChannelWindow::clear() {
  std::fill(sources_.begin(), sources_.end(), SourceStats{});
  std::fill(levels_.begin(), levels_.end(), Tally{});
}

std::vector<ChannelFeatures> ChannelWindow::channels() const {
  const int nodes = machine_.num_nodes();
  std::vector<ChannelFeatures> out;
  out.reserve(static_cast<std::size_t>(nodes * (nodes - 1)));
  for (int src = 0; src < nodes; ++src) {
    const auto s = static_cast<std::size_t>(src);
    const SourceStats& stats = sources_[s];
    const Tally* row = &levels_[s * row_];
    const Tally& local = row[kLocalSlot];
    const Tally& lfb = row[kLfbSlot];
    FeatureVector base;
    const auto n = static_cast<double>(stats.all.count);
    for (std::size_t i = 0; i < stats.above.size(); ++i) {
      base.values[i] =
          n > 0.0 ? static_cast<double>(stats.above[i]) / n : 0.0;
    }
    base.values[7] = static_cast<double>(local.count);
    base.values[8] = local.mean();
    base.values[9] = n;
    base.values[10] = stats.all.mean();
    base.values[11] = static_cast<double>(lfb.count);
    base.values[12] = lfb.mean();
    base.scope_samples = stats.all.count;
    for (int dst = 0; dst < nodes; ++dst) {
      if (dst == src) continue;  // detection targets remote channels only
      const Tally& remote = row[kRemoteSlot + static_cast<std::size_t>(dst)];
      ChannelFeatures cf;
      cf.channel = topology::ChannelId{src, dst};
      cf.features = base;
      cf.features.values[5] = static_cast<double>(remote.count);
      cf.features.values[6] = remote.mean();
      out.push_back(cf);
    }
  }
  return out;
}

}  // namespace drbw::features
