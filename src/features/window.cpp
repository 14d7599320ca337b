#include "drbw/features/window.hpp"

#include <algorithm>

namespace drbw::features {

ChannelWindow::ChannelWindow(const topology::Machine& machine,
                             core::PageLocator& locator)
    : machine_(machine),
      locator_(locator),
      sources_(static_cast<std::size_t>(machine.num_nodes())),
      remote_(static_cast<std::size_t>(machine.num_nodes()) *
              static_cast<std::size_t>(machine.num_nodes())) {}

template <int kSign>
void ChannelWindow::apply(const pebs::MemorySample& sample,
                          topology::NodeId src, topology::NodeId home) {
  const auto bump = [](std::uint64_t& count) {
    if constexpr (kSign > 0) {
      ++count;
    } else {
      --count;
    }
  };
  const auto step = [&](Tally& tally, double lat) {
    bump(tally.count);
    if constexpr (kSign > 0) {
      tally.sum += lat;
    } else {
      // An emptied tally restarts from exactly zero, even outside the
      // exactness bound.
      tally.sum = tally.count == 0 ? 0.0 : tally.sum - lat;
    }
  };
  const double lat = sample.latency_cycles;
  SourceStats& stats = sources_[static_cast<std::size_t>(src)];
  step(stats.all, lat);
  for (std::size_t i = 0; i < kLatencyThresholds.size(); ++i) {
    if (lat > kLatencyThresholds[i]) bump(stats.above[i]);
  }
  switch (sample.level) {
    case pebs::MemLevel::kRemoteDram: {
      const int pair = src * machine_.num_nodes() + home;
      step(remote_[static_cast<std::size_t>(pair)], lat);
      break;
    }
    case pebs::MemLevel::kLocalDram:
      step(stats.local, lat);
      break;
    case pebs::MemLevel::kLfb:
      step(stats.lfb, lat);
      break;
    default:
      break;
  }
}

void ChannelWindow::add(const pebs::MemorySample& sample) {
  const topology::NodeId src = machine_.node_of_cpu(sample.cpu);
  apply<1>(sample, src, locator_.locate(sample.address, src));
}

void ChannelWindow::add(const core::AttributedSample& sample) {
  apply<1>(sample.sample, sample.src_node, sample.home_node);
}

void ChannelWindow::evict(const pebs::MemorySample& sample) {
  const topology::NodeId src = machine_.node_of_cpu(sample.cpu);
  apply<-1>(sample, src, locator_.locate(sample.address, src));
}

void ChannelWindow::clear() {
  std::fill(sources_.begin(), sources_.end(), SourceStats{});
  std::fill(remote_.begin(), remote_.end(), Tally{});
}

std::vector<ChannelFeatures> ChannelWindow::channels() const {
  const int nodes = machine_.num_nodes();
  std::vector<ChannelFeatures> out;
  out.reserve(static_cast<std::size_t>(nodes * (nodes - 1)));
  for (int src = 0; src < nodes; ++src) {
    const SourceStats& stats = sources_[static_cast<std::size_t>(src)];
    FeatureVector base;
    const auto n = static_cast<double>(stats.all.count);
    for (std::size_t i = 0; i < stats.above.size(); ++i) {
      base.values[i] =
          n > 0.0 ? static_cast<double>(stats.above[i]) / n : 0.0;
    }
    base.values[7] = static_cast<double>(stats.local.count);
    base.values[8] = stats.local.mean();
    base.values[9] = n;
    base.values[10] = stats.all.mean();
    base.values[11] = static_cast<double>(stats.lfb.count);
    base.values[12] = stats.lfb.mean();
    base.scope_samples = stats.all.count;
    for (int dst = 0; dst < nodes; ++dst) {
      if (dst == src) continue;  // detection targets remote channels only
      const Tally& remote =
          remote_[static_cast<std::size_t>(src * nodes + dst)];
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
