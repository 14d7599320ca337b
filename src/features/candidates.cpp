#include "drbw/features/candidates.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "drbw/util/stats.hpp"

namespace drbw::features {

namespace {

constexpr double kThresholds[] = {50.0, 100.0, 200.0, 500.0, 1000.0};

void push(std::vector<CandidateValue>& out, std::string name,
          std::string category, double value) {
  out.push_back(CandidateValue{std::move(name), std::move(category), value});
}

}  // namespace

std::vector<CandidateValue> extract_candidates(
    const core::ProfileResult& profile) {
  OnlineStats all;
  std::map<pebs::MemLevel, OnlineStats> per_level;
  std::map<topology::CpuId, std::uint64_t> per_cpu;
  std::map<std::uint32_t, std::uint64_t> per_tid;
  std::map<topology::NodeId, std::uint64_t> per_node;
  std::array<std::uint64_t, 5> above{};
  std::uint64_t writes = 0;

  // Channel by channel, as the OnlineStats sums round in visiting order.
  for (std::size_t c = 0; c < profile.channels.size(); ++c) {
    core::for_each_in_channel(profile, c, [&](const core::AttributedSample& s) {
      const double lat = s.sample.latency_cycles;
      all.add(lat);
      per_level[s.sample.level].add(lat);
      ++per_cpu[s.sample.cpu];
      ++per_tid[s.sample.tid];
      ++per_node[s.src_node];
      if (s.sample.is_write) ++writes;
      for (std::size_t t = 0; t < 5; ++t) {
        if (lat > kThresholds[t]) ++above[t];
      }
    });
  }

  const auto n = static_cast<double>(all.count());
  std::vector<CandidateValue> out;

  // --- Statistics Identification ---
  auto imbalance = [](const auto& counts) {
    if (counts.empty()) return 0.0;
    std::uint64_t max = 0, min = ~0ull;
    for (const auto& [key, c] : counts) {
      max = std::max(max, c);
      min = std::min(min, c);
    }
    return min > 0 ? static_cast<double>(max) / static_cast<double>(min)
                   : static_cast<double>(max);
  };
  push(out, "num_samples_per_cpu_max", "identification",
       per_cpu.empty() ? 0.0
                       : static_cast<double>(std::max_element(
                             per_cpu.begin(), per_cpu.end(),
                             [](auto& a, auto& b) { return a.second < b.second; })
                                                 ->second));
  push(out, "num_distinct_cpus", "identification",
       static_cast<double>(per_cpu.size()));
  push(out, "num_distinct_threads", "identification",
       static_cast<double>(per_tid.size()));
  push(out, "num_distinct_nodes", "identification",
       static_cast<double>(per_node.size()));
  push(out, "cpu_sample_imbalance", "identification", imbalance(per_cpu));
  push(out, "node_sample_imbalance", "identification", imbalance(per_node));
  push(out, "write_sample_fraction", "identification",
       n > 0.0 ? static_cast<double>(writes) / n : 0.0);

  // --- Statistics Location ---
  const struct {
    pebs::MemLevel level;
    const char* name;
  } kLevels[] = {
      {pebs::MemLevel::kL1, "L1"},   {pebs::MemLevel::kL2, "L2"},
      {pebs::MemLevel::kL3, "L3"},   {pebs::MemLevel::kLfb, "LFB"},
      {pebs::MemLevel::kLocalDram, "LocalDRAM"},
      {pebs::MemLevel::kRemoteDram, "RemoteDRAM"},
  };
  for (const auto& lv : kLevels) {
    const auto it = per_level.find(lv.level);
    const double count = it == per_level.end()
                             ? 0.0
                             : static_cast<double>(it->second.count());
    push(out, std::string("num_") + lv.name + "_access", "location", count);
  }
  {
    const auto l3 = per_level.find(pebs::MemLevel::kL3);
    const auto ld = per_level.find(pebs::MemLevel::kLocalDram);
    const auto rd = per_level.find(pebs::MemLevel::kRemoteDram);
    const double dram =
        (ld != per_level.end() ? static_cast<double>(ld->second.count()) : 0.0) +
        (rd != per_level.end() ? static_cast<double>(rd->second.count()) : 0.0);
    push(out, "num_L3_miss", "location", dram);
    push(out, "num_dram_access", "location", dram);
    // The paper's red-herring event: LLC-miss-retired-to-remote-DRAM counts
    // rise with footprint whether or not the channel is contended, which is
    // why it failed selection (§V-B).  We model it as the remote-access
    // count scaled by total misses (footprint proxy), decoupling it from
    // latency inflation.
    const double llc_miss =
        (l3 != per_level.end() ? static_cast<double>(l3->second.count()) : 0.0) +
        dram;
    push(out, "llc_miss_retired_remote_dram_rate", "location",
         n > 0.0 ? llc_miss / n : 0.0);
  }
  push(out, "total_samples", "location", n);

  // --- Statistics Latency ---
  for (std::size_t t = 0; t < 5; ++t) {
    push(out,
         "lat_ratio_above_" + std::to_string(static_cast<int>(kThresholds[t])),
         "latency", n > 0.0 ? static_cast<double>(above[t]) / n : 0.0);
  }
  push(out, "avg_latency", "latency", all.mean());
  push(out, "max_latency", "latency", all.max());
  for (const auto& lv : kLevels) {
    const auto it = per_level.find(lv.level);
    push(out, std::string("avg_") + lv.name + "_latency", "latency",
         it == per_level.end() ? 0.0 : it->second.mean());
  }
  return out;
}

std::vector<std::string> candidate_names() {
  const core::ProfileResult empty;
  std::vector<std::string> names;
  for (const auto& c : extract_candidates(empty)) names.push_back(c.name);
  return names;
}

std::vector<SelectionResult> select_features(
    const std::vector<LabelledRun>& runs, double min_separation) {
  DRBW_CHECK_MSG(!runs.empty(), "selection needs labelled runs");
  const std::size_t num_features = runs.front().values.size();
  for (const auto& run : runs) {
    DRBW_CHECK_MSG(run.values.size() == num_features,
                   "inconsistent candidate vector length");
  }

  std::set<std::string> programs;
  for (const auto& run : runs) programs.insert(run.program);

  std::vector<SelectionResult> results;
  results.reserve(num_features);
  for (std::size_t f = 0; f < num_features; ++f) {
    SelectionResult r;
    r.name = runs.front().values[f].name;
    r.category = runs.front().values[f].category;

    double separation_sum = 0.0;
    int programs_with_both = 0;
    for (const std::string& program : programs) {
      OnlineStats good, rmc;
      for (const auto& run : runs) {
        if (run.program != program) continue;
        (run.rmc ? rmc : good).add(run.values[f].value);
      }
      if (good.count() == 0 || rmc.count() == 0) continue;  // single-class
      ++programs_with_both;
      const double spread = good.stddev() + rmc.stddev();
      const double sep = spread > 1e-12
                             ? std::abs(good.mean() - rmc.mean()) / spread
                             : (std::abs(good.mean() - rmc.mean()) > 1e-12
                                    ? 1e9
                                    : 0.0);
      separation_sum += sep;
      if (sep >= min_separation) ++r.programs_separated;
    }
    r.programs_total = programs_with_both;
    r.separation =
        programs_with_both > 0 ? separation_sum / programs_with_both : 0.0;
    r.selected = programs_with_both > 0 &&
                 r.programs_separated * 2 > programs_with_both;
    results.push_back(std::move(r));
  }
  // Highest separation first, for reporting.
  std::sort(results.begin(), results.end(),
            [](const SelectionResult& a, const SelectionResult& b) {
              return a.separation > b.separation;
            });
  return results;
}

}  // namespace drbw::features
