#include "drbw/features/selected.hpp"

#include "drbw/features/window.hpp"

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

std::vector<ChannelFeatures> extract_channels(const core::ProfileResult& profile,
                                              const topology::Machine& machine) {
  // Every profiled sample carries its source and home node, so the window
  // never consults its locator.
  core::ReplayLocator unused;
  ChannelWindow window(machine, unused);
  for (const core::ChannelProfile& channel : profile.channels) {
    for (const core::AttributedSample& s : channel.samples) window.add(s);
  }
  return window.channels();
}

}  // namespace drbw::features
