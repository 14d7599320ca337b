// Tests for the optimization-advice engine: evidence collection and the
// remedy decision rules.
#include <gtest/gtest.h>

#include "drbw/diagnoser/advice.hpp"
#include "drbw/util/rng.hpp"

namespace drbw::diagnoser {
namespace {

using mem::AddressSpace;
using mem::PlacementSpec;
using topology::ChannelId;
using topology::Machine;

class AdviceTest : public ::testing::Test {
 protected:
  Machine machine_ = Machine::xeon_e5_4650();
  AddressSpace space_{machine_};
  core::Profiler profiler_{machine_};

  /// A sample homed where the sampler would have homed it.
  pebs::MemorySample sample(mem::Addr addr, topology::CpuId cpu,
                            std::uint32_t tid, bool write = false) {
    pebs::MemorySample s;
    s.address = addr;
    s.cpu = cpu;
    s.tid = tid;
    s.level = pebs::MemLevel::kRemoteDram;
    s.latency_cycles = 800.0f;
    s.is_write = write;
    s.home = static_cast<std::uint8_t>(
        space_.resolve_home(addr, machine_.node_of_cpu(cpu)));
    return s;
  }

  /// All remote channels into node 0.
  std::vector<ChannelId> into_node0() {
    return {ChannelId{1, 0}, ChannelId{2, 0}, ChannelId{3, 0}};
  }
};

TEST_F(AdviceTest, ReadSharedDataGetsReplicate) {
  const auto obj = space_.allocate("sc.c:1 block", 8 << 20, PlacementSpec::bind(0));
  const mem::Addr base = space_.object(obj).base;
  std::vector<pebs::MemorySample> samples;
  Rng rng(3);
  // Threads from nodes 1..3 read random addresses — regions interleave.
  for (int i = 0; i < 300; ++i) {
    const auto node = 1 + static_cast<int>(rng.bounded(3));
    samples.push_back(sample(base + rng.bounded(8 << 20),
                             machine_.cpus_of_node(node)[0],
                             static_cast<std::uint32_t>(node)));
  }
  const auto profile = profiler_.profile(space_.drain_events(), samples);
  const auto advice = advise(profile, into_node0());
  ASSERT_EQ(advice.size(), 1u);
  EXPECT_EQ(advice[0].remedy, Remedy::kReplicate);
  EXPECT_EQ(advice[0].evidence.accessing_nodes, 3);
  EXPECT_GT(advice[0].evidence.shared_line_fraction, 0.25);
  EXPECT_DOUBLE_EQ(advice[0].evidence.write_fraction, 0.0);
}

TEST_F(AdviceTest, SharedWrittenDataGetsInterleave) {
  const auto obj = space_.allocate("app.c:2 table", 8 << 20, PlacementSpec::bind(0));
  const mem::Addr base = space_.object(obj).base;
  std::vector<pebs::MemorySample> samples;
  Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    const auto node = 1 + static_cast<int>(rng.bounded(3));
    samples.push_back(sample(base + rng.bounded(8 << 20),
                             machine_.cpus_of_node(node)[0],
                             static_cast<std::uint32_t>(node),
                             /*write=*/rng.bernoulli(0.3)));
  }
  const auto profile = profiler_.profile(space_.drain_events(), samples);
  const auto advice = advise(profile, into_node0());
  ASSERT_EQ(advice.size(), 1u);
  EXPECT_EQ(advice[0].remedy, Remedy::kInterleave);
  EXPECT_GT(advice[0].evidence.write_fraction, 0.1);
}

TEST_F(AdviceTest, PartitionedDataGetsColocate) {
  const auto obj = space_.allocate("irsmk.c:3 b", 24 << 20, PlacementSpec::bind(0));
  const mem::Addr base = space_.object(obj).base;
  std::vector<pebs::MemorySample> samples;
  Rng rng(7);
  // Threads 1..3 (nodes 1..3) each touch a disjoint 8 MiB third.
  for (int i = 0; i < 300; ++i) {
    const auto t = 1 + static_cast<int>(rng.bounded(3));
    const mem::Addr share = base + static_cast<mem::Addr>(t - 1) * (8 << 20);
    samples.push_back(sample(share + rng.bounded(8 << 20),
                             machine_.cpus_of_node(t)[0],
                             static_cast<std::uint32_t>(t)));
  }
  const auto profile = profiler_.profile(space_.drain_events(), samples);
  const auto advice = advise(profile, into_node0());
  ASSERT_EQ(advice.size(), 1u);
  EXPECT_EQ(advice[0].remedy, Remedy::kColocate);
  EXPECT_LT(advice[0].evidence.shared_line_fraction, 0.25);
}

TEST_F(AdviceTest, SingleConsumerGetsMigrate) {
  const auto obj = space_.allocate("app.c:4 buf", 4 << 20, PlacementSpec::bind(0));
  const mem::Addr base = space_.object(obj).base;
  std::vector<pebs::MemorySample> samples;
  Rng rng(9);
  for (int i = 0; i < 120; ++i) {
    samples.push_back(sample(base + rng.bounded(4 << 20),
                             machine_.cpus_of_node(2)[0], 5));
  }
  const auto profile = profiler_.profile(space_.drain_events(), samples);
  const auto advice = advise(profile, {ChannelId{2, 0}});
  ASSERT_EQ(advice.size(), 1u);
  EXPECT_EQ(advice[0].remedy, Remedy::kMigrate);
  EXPECT_EQ(advice[0].evidence.accessing_nodes, 1);
}

TEST_F(AdviceTest, LowCfObjectsAreFilteredOut) {
  const auto hot = space_.allocate("a.c:5 hot", 4 << 20, PlacementSpec::bind(0));
  const auto cold = space_.allocate("a.c:6 cold", 4 << 20, PlacementSpec::bind(0));
  std::vector<pebs::MemorySample> samples;
  Rng rng(11);
  for (int i = 0; i < 97; ++i) {
    samples.push_back(sample(space_.object(hot).base + rng.bounded(4 << 20),
                             machine_.cpus_of_node(1)[0], 1));
  }
  for (int i = 0; i < 3; ++i) {  // 3% CF < default 5% floor
    samples.push_back(sample(space_.object(cold).base + rng.bounded(4 << 20),
                             machine_.cpus_of_node(1)[0], 1));
  }
  const auto profile = profiler_.profile(space_.drain_events(), samples);
  const auto advice = advise(profile, {ChannelId{1, 0}});
  ASSERT_EQ(advice.size(), 1u);
  EXPECT_EQ(advice[0].evidence.site, "a.c:5 hot");
}

TEST_F(AdviceTest, EvidenceSortedBySamples) {
  const auto a = space_.allocate("a.c:7 big", 4 << 20, PlacementSpec::bind(0));
  const auto b = space_.allocate("a.c:8 small", 4 << 20, PlacementSpec::bind(0));
  std::vector<pebs::MemorySample> samples;
  for (std::uint64_t i = 0; i < 10; ++i) {
    samples.push_back(sample(space_.object(a).base + 64 * i,
                             machine_.cpus_of_node(1)[0], 1));
  }
  samples.push_back(sample(space_.object(b).base, machine_.cpus_of_node(1)[0], 1));
  const auto profile = profiler_.profile(space_.drain_events(), samples);
  const auto evidence = diagnose(profile, {ChannelId{1, 0}}).ranking;
  ASSERT_EQ(evidence.size(), 2u);
  EXPECT_EQ(evidence[0].site, "a.c:7 big");
  EXPECT_GT(evidence[0].cf, evidence[1].cf);
}

TEST_F(AdviceTest, RenderedAdviceMentionsRemedy) {
  const auto obj = space_.allocate("sc.c:9 block", 8 << 20, PlacementSpec::bind(0));
  std::vector<pebs::MemorySample> samples;
  Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    const auto node = 1 + static_cast<int>(rng.bounded(3));
    samples.push_back(sample(space_.object(obj).base + rng.bounded(8 << 20),
                             machine_.cpus_of_node(node)[0],
                             static_cast<std::uint32_t>(node)));
  }
  const auto profile = profiler_.profile(space_.drain_events(), samples);
  const std::string text = render_advice(advise(profile, into_node0()));
  EXPECT_NE(text.find("replicate"), std::string::npos);
  EXPECT_NE(text.find("sc.c:9 block"), std::string::npos);
  EXPECT_NE(render_advice({}).find("interleave"), std::string::npos);
}

TEST(RemedyName, AllNamed) {
  EXPECT_STREQ(remedy_name(Remedy::kColocate), "co-locate");
  EXPECT_STREQ(remedy_name(Remedy::kReplicate), "replicate");
  EXPECT_STREQ(remedy_name(Remedy::kMigrate), "migrate");
  EXPECT_STREQ(remedy_name(Remedy::kInterleave), "interleave");
}

}  // namespace
}  // namespace drbw::diagnoser
