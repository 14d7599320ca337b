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

/// Accumulates Table I statistics over one scope.
class Accumulator {
 public:
  /// `remote_home_filter` < 0 accepts every remote sample; otherwise only
  /// remote samples homed on that node count toward features 6-7 (the
  /// per-channel scope).
  explicit Accumulator(int remote_home_filter = -1)
      : remote_home_filter_(remote_home_filter) {}

  void add(const core::AttributedSample& s) {
    const double lat = s.sample.latency_cycles;
    all_.add(lat);
    for (std::size_t i = 0; i < kLatencyThresholds.size(); ++i) {
      if (lat > kLatencyThresholds[i]) ++above_[i];
    }

    switch (s.sample.level) {
      case pebs::MemLevel::kRemoteDram:
        if (remote_home_filter_ < 0 || s.home_node == remote_home_filter_) {
          remote_.add(lat);
        }
        break;
      case pebs::MemLevel::kLocalDram:
        local_.add(lat);
        break;
      case pebs::MemLevel::kLfb:
        lfb_.add(lat);
        break;
      default:
        break;
    }
  }

  FeatureVector finish() const {
    FeatureVector v;
    const auto n = static_cast<double>(all_.count());
    for (int i = 0; i < 5; ++i) {
      v.values[static_cast<std::size_t>(i)] =
          n > 0.0 ? static_cast<double>(above_[static_cast<std::size_t>(i)]) / n
                  : 0.0;
    }
    v.values[5] = static_cast<double>(remote_.count());
    v.values[6] = remote_.mean();
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
  int remote_home_filter_;
  OnlineStats all_;
  OnlineStats remote_;
  OnlineStats local_;
  OnlineStats lfb_;
  std::array<std::uint64_t, kLatencyThresholds.size()> above_{};
};

}  // namespace

FeatureVector extract_run(const core::ProfileResult& profile) {
  Accumulator acc;
  for (const core::ChannelProfile& channel : profile.channels) {
    for (const core::AttributedSample& s : channel.samples) acc.add(s);
  }
  return acc.finish();
}

std::vector<ChannelFeatures> extract_channels(const core::ProfileResult& profile,
                                              const topology::Machine& machine) {
  std::vector<ChannelFeatures> out;
  for (int src = 0; src < machine.num_nodes(); ++src) {
    // One pass over the source node's samples fills all of its channels.
    std::vector<Accumulator> accs;
    accs.reserve(static_cast<std::size_t>(machine.num_nodes()));
    for (int dst = 0; dst < machine.num_nodes(); ++dst) {
      accs.emplace_back(/*remote_home_filter=*/dst);
    }
    for (const core::ChannelProfile& channel : profile.channels) {
      if (channel.channel.src != src) continue;
      for (const core::AttributedSample& s : channel.samples) {
        for (auto& acc : accs) acc.add(s);
      }
    }
    for (int dst = 0; dst < machine.num_nodes(); ++dst) {
      if (dst == src) continue;  // detection targets remote channels only
      ChannelFeatures cf;
      cf.channel = topology::ChannelId{src, dst};
      cf.features = accs[static_cast<std::size_t>(dst)].finish();
      out.push_back(std::move(cf));
    }
  }
  return out;
}

}  // namespace drbw::features
