#include "drbw/features/selected.hpp"

#include "drbw/util/error.hpp"

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

std::vector<ChannelFeatures> channel_features(
    const core::SourceTallies& tallies) {
  const int nodes = tallies.nodes();
  std::vector<ChannelFeatures> out;
  out.reserve(static_cast<std::size_t>(nodes * (nodes - 1)));
  for (int src = 0; src < nodes; ++src) {
    const auto s = static_cast<std::size_t>(src);
    const core::LatencyTally& all = tallies.all(s);
    const core::LatencyTally& local = tallies.local(s);
    const core::LatencyTally& lfb = tallies.lfb(s);
    FeatureVector base;
    const auto n = static_cast<double>(all.count);
    for (std::size_t i = 0; i < kLatencyThresholds.size(); ++i) {
      base.values[i] =
          n > 0.0 ? static_cast<double>(tallies.above(s, i)) / n : 0.0;
    }
    base.values[7] = static_cast<double>(local.count);
    base.values[8] = local.mean();
    base.values[9] = n;
    base.values[10] = all.mean();
    base.values[11] = static_cast<double>(lfb.count);
    base.values[12] = lfb.mean();
    base.scope_samples = all.count;
    for (int dst = 0; dst < nodes; ++dst) {
      if (dst == src) continue;  // detection targets remote channels only
      const core::LatencyTally& remote =
          tallies.remote(s, static_cast<std::size_t>(dst));
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

std::vector<ChannelFeatures> extract_channels(const core::ProfileResult& profile,
                                              const topology::Machine& machine) {
  if (profile.tallies.nodes() == 0) {
    return channel_features(core::SourceTallies(machine.num_nodes()));
  }
  DRBW_CHECK_MSG(profile.tallies.nodes() == machine.num_nodes(),
                 "a profile of " << profile.tallies.nodes()
                                 << " nodes featurized for a machine of "
                                 << machine.num_nodes());
  return channel_features(profile.tallies);
}

}  // namespace drbw::features
