#include "drbw/features/selected.hpp"

#include "drbw/util/stats.hpp"

namespace drbw::features {

const std::array<std::string, kNumSelected>& selected_feature_names() {
  static const std::array<std::string, kNumSelected> names = {
      "Ratio of latency above 1000 among all samples",
      "Ratio of latency above 500 among all samples",
      "Ratio of latency above 200 among all samples",
      "Ratio of latency above 100 among all samples",
      "Ratio of latency above 50 among all samples",
      "# of remote dram access sample",
      "Average remote dram access latency",
      "# of local dram access sample",
      "Average local dram access latency",
      "Total # of memory access sample",
      "Average memory access latency",
      "Total # of line fill buffer access sample",
      "Line fill buffer access latency",
  };
  return names;
}

const std::array<std::string, kNumSelected>& selected_feature_keys() {
  static const std::array<std::string, kNumSelected> keys = {
      "lat_ratio_1000", "lat_ratio_500", "lat_ratio_200", "lat_ratio_100",
      "lat_ratio_50",   "remote_dram_count", "remote_dram_avg_lat",
      "local_dram_count", "local_dram_avg_lat", "total_samples",
      "avg_latency",    "lfb_count",       "lfb_avg_lat",
  };
  return keys;
}

namespace {

/// Accumulates Table I statistics over one scope.  The remote-DRAM
/// statistics (features 6-7) are kept outside, in the caller's remote
/// stats, so that one source's per-channel scopes share everything else.
class Accumulator {
 public:
  /// Adds `s`; returns true for a remote-DRAM sample, which the caller
  /// charges to its remote stats.
  bool add(const core::AttributedSample& s) {
    const double lat = s.sample.latency_cycles;
    all_.add(lat);
    for (std::size_t i = 0; i < kLatencyThresholds.size(); ++i) {
      if (lat > kLatencyThresholds[i]) ++above_[i];
    }

    switch (s.sample.level) {
      case pebs::MemLevel::kRemoteDram:
        return true;
      case pebs::MemLevel::kLocalDram:
        local_.add(lat);
        break;
      case pebs::MemLevel::kLfb:
        lfb_.add(lat);
        break;
      default:
        break;
    }
    return false;
  }

  FeatureVector finish(const OnlineStats& remote) const {
    FeatureVector v;
    const auto n = static_cast<double>(all_.count());
    for (int i = 0; i < 5; ++i) {
      v.values[static_cast<std::size_t>(i)] =
          n > 0.0 ? static_cast<double>(above_[static_cast<std::size_t>(i)]) / n
                  : 0.0;
    }
    v.values[5] = static_cast<double>(remote.count());
    v.values[6] = remote.mean();
    v.values[7] = static_cast<double>(local_.count());
    v.values[8] = local_.mean();
    v.values[9] = n;
    v.values[10] = all_.mean();
    v.values[11] = static_cast<double>(lfb_.count());
    v.values[12] = lfb_.mean();
    v.scope_samples = all_.count();
    return v;
  }

 private:
  OnlineStats all_;
  OnlineStats local_;
  OnlineStats lfb_;
  std::array<std::uint64_t, kLatencyThresholds.size()> above_{};
};

}  // namespace

FeatureVector extract_run(const core::ProfileResult& profile) {
  Accumulator acc;
  OnlineStats remote;
  for (const core::ChannelProfile& channel : profile.channels) {
    for (const core::AttributedSample& s : channel.samples) {
      if (acc.add(s)) remote.add(s.sample.latency_cycles);
    }
  }
  return acc.finish(remote);
}

std::vector<ChannelFeatures> extract_channels(const core::ProfileResult& profile,
                                              const topology::Machine& machine) {
  const int num_nodes = machine.num_nodes();
  std::vector<ChannelFeatures> out;
  for (int src = 0; src < num_nodes; ++src) {
    // One pass over the source node's samples fills all of its channels:
    // they share the source scope and differ only in the home node of the
    // remote-DRAM samples, so each home node gets its own remote stats.
    Accumulator acc;
    std::vector<OnlineStats> remote(static_cast<std::size_t>(num_nodes));
    for (const core::ChannelProfile& channel : profile.channels) {
      if (channel.channel.src != src) continue;
      for (const core::AttributedSample& s : channel.samples) {
        if (acc.add(s) && s.home_node >= 0 && s.home_node < num_nodes) {
          remote[static_cast<std::size_t>(s.home_node)].add(
              s.sample.latency_cycles);
        }
      }
    }
    for (int dst = 0; dst < num_nodes; ++dst) {
      if (dst == src) continue;  // detection targets remote channels only
      ChannelFeatures cf;
      cf.channel = topology::ChannelId{src, dst};
      cf.features = acc.finish(remote[static_cast<std::size_t>(dst)]);
      out.push_back(std::move(cf));
    }
  }
  return out;
}

}  // namespace drbw::features
