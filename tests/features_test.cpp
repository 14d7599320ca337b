// Tests for feature extraction: Table I semantics per channel, and the
// candidate catalogue + selection study.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "drbw/features/candidates.hpp"
#include "drbw/features/selected.hpp"
#include "drbw/features/window.hpp"
#include "drbw/util/rng.hpp"

namespace drbw::features {
namespace {

using mem::AddressSpace;
using mem::PlacementSpec;
using topology::Machine;

class FeaturesTest : public ::testing::Test {
 protected:
  Machine machine_ = Machine::xeon_e5_4650();
  AddressSpace space_{machine_};
  core::Profiler profiler_{machine_};

  /// A sample homed where the sampler would have homed it.
  pebs::MemorySample sample(mem::Addr addr, topology::CpuId cpu,
                            pebs::MemLevel level, float lat) {
    pebs::MemorySample s;
    s.address = addr;
    s.cpu = cpu;
    s.level = level;
    s.latency_cycles = lat;
    s.home = static_cast<std::uint8_t>(
        space_.resolve_home(addr, machine_.node_of_cpu(cpu)));
    return s;
  }
};

TEST_F(FeaturesTest, ChannelScopeComputesTableOne) {
  const auto far = space_.allocate("x.c:1 d", 1 << 20, PlacementSpec::bind(1));
  const auto near = space_.allocate("x.c:2 e", 1 << 20, PlacementSpec::bind(0));
  const mem::Addr f = space_.object(far).base;
  const mem::Addr n = space_.object(near).base;
  // cpu 0 (node 0) issues every sample of the N0->N1 scope; cpu 8 (node 1)
  // issues one sample that belongs to another source's scope.
  const std::vector<pebs::MemorySample> samples = {
      sample(f, 0, pebs::MemLevel::kRemoteDram, 1200.0f),
      sample(f + 64, 0, pebs::MemLevel::kRemoteDram, 400.0f),
      sample(n, 0, pebs::MemLevel::kLocalDram, 210.0f),
      sample(n + 64, 0, pebs::MemLevel::kLfb, 60.0f),
      sample(n + 128, 0, pebs::MemLevel::kL1, 4.0f),
      sample(f + 128, 8, pebs::MemLevel::kLocalDram, 3000.0f)};
  const auto profile = profiler_.profile(space_.drain_events(), samples);

  const auto channels = extract_channels(profile, machine_);
  ASSERT_EQ(channels[0].channel, (topology::ChannelId{0, 1}));
  const FeatureVector& v = channels[0].features;
  EXPECT_DOUBLE_EQ(v.values[9], 5.0);             // total samples
  EXPECT_DOUBLE_EQ(v.values[5], 2.0);             // remote count
  EXPECT_DOUBLE_EQ(v.values[6], 800.0);           // avg remote latency
  EXPECT_DOUBLE_EQ(v.values[7], 1.0);             // local count
  EXPECT_DOUBLE_EQ(v.values[8], 210.0);           // avg local latency
  EXPECT_DOUBLE_EQ(v.values[11], 1.0);            // lfb count
  EXPECT_DOUBLE_EQ(v.values[12], 60.0);           // lfb latency
  EXPECT_DOUBLE_EQ(v.values[0], 1.0 / 5.0);       // > 1000
  EXPECT_DOUBLE_EQ(v.values[1], 1.0 / 5.0);       // > 500
  EXPECT_DOUBLE_EQ(v.values[2], 3.0 / 5.0);       // > 200
  EXPECT_DOUBLE_EQ(v.values[3], 3.0 / 5.0);       // > 100
  EXPECT_DOUBLE_EQ(v.values[4], 4.0 / 5.0);       // > 50
  EXPECT_DOUBLE_EQ(v.values[10], (1200.0 + 400 + 210 + 60 + 4) / 5.0);
  EXPECT_EQ(v.scope_samples, 5u);
}

TEST_F(FeaturesTest, EmptyProfileYieldsZeros) {
  const core::ProfileResult empty;
  const auto channels = extract_channels(empty, machine_);
  ASSERT_EQ(channels.size(), 12u);
  for (const ChannelFeatures& cf : channels) {
    EXPECT_EQ(cf.features.scope_samples, 0u);
    for (const double x : cf.features.values) EXPECT_DOUBLE_EQ(x, 0.0);
  }
}

TEST_F(FeaturesTest, ChannelScopeFiltersRemoteByHomeNode) {
  const auto d1 = space_.allocate("x.c:1 a", 1 << 20, PlacementSpec::bind(1));
  const auto d2 = space_.allocate("x.c:2 b", 1 << 20, PlacementSpec::bind(2));
  const mem::Addr b1 = space_.object(d1).base;
  const mem::Addr b2 = space_.object(d2).base;
  // Node-0 cpu accesses data on node 1 (twice, slow) and node 2 (once, fast).
  const std::vector<pebs::MemorySample> samples = {
      sample(b1, 0, pebs::MemLevel::kRemoteDram, 900.0f),
      sample(b1 + 64, 0, pebs::MemLevel::kRemoteDram, 1100.0f),
      sample(b2, 0, pebs::MemLevel::kRemoteDram, 320.0f),
      sample(b2 + 64, 0, pebs::MemLevel::kL2, 12.0f)};
  const auto profile = profiler_.profile(space_.drain_events(), samples);

  const auto channels = extract_channels(profile, machine_);
  // 4 nodes -> 12 remote channels, in (src, dst) order.
  ASSERT_EQ(channels.size(), 12u);

  const auto* ch01 = &channels[0];  // N0->N1
  ASSERT_EQ(ch01->channel, (topology::ChannelId{0, 1}));
  EXPECT_DOUBLE_EQ(ch01->features.values[5], 2.0);
  EXPECT_DOUBLE_EQ(ch01->features.values[6], 1000.0);
  // Context features span ALL node-0 samples.
  EXPECT_DOUBLE_EQ(ch01->features.values[9], 4.0);

  const auto* ch02 = &channels[1];  // N0->N2
  ASSERT_EQ(ch02->channel, (topology::ChannelId{0, 2}));
  EXPECT_DOUBLE_EQ(ch02->features.values[5], 1.0);
  EXPECT_DOUBLE_EQ(ch02->features.values[6], 320.0);

  // A channel from a silent node has an all-zero vector.
  for (const auto& cf : channels) {
    if (cf.channel.src == 3) {
      EXPECT_EQ(cf.features.scope_samples, 0u);
      EXPECT_DOUBLE_EQ(cf.features.values[5], 0.0);
    }
  }
}

TEST_F(FeaturesTest, SparseGuardBoundaries) {
  for (const SparseGuard& guard : {kAnalysisGuard, kWindowGuard}) {
    FeatureVector v;
    v.scope_samples = guard.min_scope_samples;
    v.values[5] = static_cast<double>(guard.min_remote_samples);
    EXPECT_FALSE(guard.sparse(v));  // exactly at both minimums passes
    v.scope_samples -= 1;
    EXPECT_TRUE(guard.sparse(v));  // one scope sample short
    v.scope_samples += 1;
    v.values[5] -= 1.0;
    EXPECT_TRUE(guard.sparse(v));  // one remote sample short
  }
  EXPECT_EQ(kAnalysisGuard.min_scope_samples, 50u);
  EXPECT_EQ(kAnalysisGuard.min_remote_samples, 8u);
  EXPECT_EQ(kWindowGuard.min_scope_samples, 8u);
  EXPECT_EQ(kWindowGuard.min_remote_samples, 2u);
}

TEST_F(FeaturesTest, NamesAndKeysAligned) {
  EXPECT_EQ(selected_feature_names().size(), 13u);
  EXPECT_EQ(selected_feature_keys().size(), 13u);
  EXPECT_EQ(selected_feature_keys()[5], "remote_dram_count");
  EXPECT_EQ(selected_feature_keys()[6], "remote_dram_avg_lat");
  EXPECT_EQ(selected_feature_names()[0],
            "Ratio of latency above 1000 among all samples");
}

TEST_F(FeaturesTest, CandidateCatalogueIsStableAndCategorized) {
  const auto names = candidate_names();
  EXPECT_GE(names.size(), 25u);
  const core::ProfileResult empty;
  const auto values = extract_candidates(empty);
  ASSERT_EQ(values.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(values[i].name, names[i]);
    EXPECT_TRUE(values[i].category == "identification" ||
                values[i].category == "location" ||
                values[i].category == "latency");
  }
}

TEST_F(FeaturesTest, CandidatesCountLevels) {
  const auto obj = space_.allocate("x.c:1 d", 1 << 20, PlacementSpec::bind(1));
  const mem::Addr base = space_.object(obj).base;
  const std::vector<pebs::MemorySample> samples = {
      sample(base, 0, pebs::MemLevel::kRemoteDram, 900.0f),
      sample(base + 64, 8, pebs::MemLevel::kLocalDram, 210.0f),
      sample(base + 128, 8, pebs::MemLevel::kL3, 41.0f)};
  const auto profile = profiler_.profile(space_.drain_events(), samples);
  const auto values = extract_candidates(profile);
  auto find = [&](const std::string& name) {
    for (const auto& v : values) {
      if (v.name == name) return v.value;
    }
    ADD_FAILURE() << "missing candidate " << name;
    return -1.0;
  };
  EXPECT_DOUBLE_EQ(find("num_RemoteDRAM_access"), 1.0);
  EXPECT_DOUBLE_EQ(find("num_LocalDRAM_access"), 1.0);
  EXPECT_DOUBLE_EQ(find("num_L3_access"), 1.0);
  EXPECT_DOUBLE_EQ(find("num_dram_access"), 2.0);
  EXPECT_DOUBLE_EQ(find("num_L3_miss"), 2.0);
  EXPECT_DOUBLE_EQ(find("total_samples"), 3.0);
  EXPECT_DOUBLE_EQ(find("num_distinct_nodes"), 2.0);
  EXPECT_DOUBLE_EQ(find("avg_RemoteDRAM_latency"), 900.0);
}

TEST(ChannelWindowTest, EvictsEveryCpuAndLevelRecordInAnyOrder) {
  const Machine machine = Machine::xeon_e5_4650();
  const pebs::MemLevel levels[] = {
      pebs::MemLevel::kL1,  pebs::MemLevel::kL2,        pebs::MemLevel::kL3,
      pebs::MemLevel::kLfb, pebs::MemLevel::kLocalDram,
      pebs::MemLevel::kRemoteDram};
  for (const bool shuffled : {false, true}) {
    ChannelWindow window(machine);
    // One sample per (cpu, level), the hyperthread bank included, each
    // homed on the next node in turn; integer latencies keep every sum
    // inside the window's exactness bound.
    std::vector<WindowSample> records;
    for (topology::CpuId cpu = 0; cpu < machine.num_hw_threads(); ++cpu) {
      for (const pebs::MemLevel level : levels) {
        pebs::MemorySample s;
        s.cpu = cpu;
        s.level = level;
        s.latency_cycles =
            static_cast<float>(40 + 23 * cpu + 190 * static_cast<int>(level));
        s.home = static_cast<std::uint8_t>(records.size() %
                                           static_cast<std::size_t>(
                                               machine.num_nodes()));
        const WindowSample r = window.add(s);
        EXPECT_EQ(r.src, machine.node_of_cpu(cpu));
        EXPECT_EQ(r.home, s.home);
        EXPECT_EQ(r.level, level);
        EXPECT_EQ(r.latency, s.latency_cycles);
        records.push_back(r);
      }
    }
    if (shuffled) {
      Rng rng(7);
      for (std::size_t i = records.size(); i > 1; --i) {
        std::swap(records[i - 1], records[rng.bounded(i)]);
      }
    } else {
      std::reverse(records.begin(), records.end());
    }
    const std::size_t half = records.size() / 2;
    for (std::size_t i = 0; i < half; ++i) window.evict(records[i]);
    // Halfway: the window equals a fresh one built from what is left.
    ChannelWindow fresh(machine);
    for (std::size_t i = half; i < records.size(); ++i) fresh.add(records[i]);
    const std::vector<ChannelFeatures> got = window.channels();
    const std::vector<ChannelFeatures> want = fresh.channels();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t c = 0; c < got.size(); ++c) {
      EXPECT_EQ(got[c].channel, want[c].channel);
      EXPECT_EQ(got[c].features.values, want[c].features.values)
          << "channel " << c << (shuffled ? " shuffled" : " reversed");
      EXPECT_EQ(got[c].features.scope_samples, want[c].features.scope_samples);
    }
    for (std::size_t i = half; i < records.size(); ++i) {
      window.evict(records[i]);
    }
    for (const ChannelFeatures& cf : window.channels()) {
      EXPECT_EQ(cf.features.scope_samples, 0u);
      for (const double v : cf.features.values) EXPECT_EQ(v, 0.0);
    }
  }
}

TEST(FeatureSelection, SeparablesSelectedInseparablesRejected) {
  // Synthetic study: candidate "sep" differs strongly between classes in
  // both programs; "noise" does not.
  std::vector<LabelledRun> runs;
  Rng rng(3);
  for (const char* program : {"sumv", "dotv"}) {
    for (int i = 0; i < 12; ++i) {
      for (const bool rmc : {false, true}) {
        LabelledRun run;
        run.program = program;
        run.rmc = rmc;
        run.values.push_back(
            {"sep", "latency", (rmc ? 100.0 : 10.0) + rng.normal(0, 2.0)});
        run.values.push_back({"noise", "location", rng.normal(50.0, 10.0)});
        runs.push_back(std::move(run));
      }
    }
  }
  const auto results = select_features(runs);
  ASSERT_EQ(results.size(), 2u);
  // Sorted by separation descending: "sep" first.
  EXPECT_EQ(results[0].name, "sep");
  EXPECT_TRUE(results[0].selected);
  EXPECT_EQ(results[0].programs_separated, 2);
  EXPECT_EQ(results[1].name, "noise");
  EXPECT_FALSE(results[1].selected);
}

TEST(FeatureSelection, SingleClassProgramsAreIgnored) {
  // The bandit contributes only "good" runs (Table II) and must not veto
  // selection.
  std::vector<LabelledRun> runs;
  for (int i = 0; i < 6; ++i) {
    LabelledRun bandit;
    bandit.program = "bandit";
    bandit.rmc = false;
    bandit.values.push_back({"sep", "latency", 5.0 + i});
    runs.push_back(bandit);
    for (const bool rmc : {false, true}) {
      LabelledRun run;
      run.program = "sumv";
      run.rmc = rmc;
      run.values.push_back({"sep", "latency", rmc ? 100.0 + i : 10.0 + i});
      runs.push_back(std::move(run));
    }
  }
  const auto results = select_features(runs);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].programs_total, 1);  // only sumv counted
  EXPECT_TRUE(results[0].selected);
}

TEST(FeatureSelection, RejectsEmptyAndMismatched) {
  EXPECT_THROW(select_features({}), Error);
  std::vector<LabelledRun> runs(2);
  runs[0].program = "a";
  runs[0].values.push_back({"x", "latency", 1.0});
  runs[1].program = "a";
  EXPECT_THROW(select_features(runs), Error);
}

}  // namespace
}  // namespace drbw::features
