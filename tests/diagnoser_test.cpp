// Tests for the diagnoser: per-channel and cross-channel Contribution
// Fractions and root-cause ranking (§VI).
#include <gtest/gtest.h>

#include "drbw/diagnoser/advice.hpp"
#include "drbw/diagnoser/diagnoser.hpp"

namespace drbw::diagnoser {
namespace {

using mem::AddressSpace;
using mem::PlacementSpec;
using topology::ChannelId;
using topology::Machine;

class DiagnoserTest : public ::testing::Test {
 protected:
  Machine machine_ = Machine::xeon_e5_4650();
  AddressSpace space_{machine_};
  core::AddressSpaceLocator locator_{space_};
  core::Profiler profiler_{machine_, locator_};

  static pebs::MemorySample sample(mem::Addr addr, topology::CpuId cpu,
                                   float lat = 600.0f) {
    pebs::MemorySample s;
    s.address = addr;
    s.cpu = cpu;
    s.level = pebs::MemLevel::kRemoteDram;
    s.latency_cycles = lat;
    return s;
  }
};

TEST_F(DiagnoserTest, CfSumsToOneAndRanks) {
  const auto hot = space_.allocate("sc.c:10 block", 1 << 20,
                                   PlacementSpec::bind(1));
  const auto warm = space_.allocate("sc.c:20 point.p", 1 << 20,
                                    PlacementSpec::bind(1));
  const mem::Addr bh = space_.object(hot).base;
  const mem::Addr bw = space_.object(warm).base;

  std::vector<pebs::MemorySample> samples;
  for (std::uint64_t i = 0; i < 9; ++i) {
    samples.push_back(sample(bh + 64 * i, 0));
  }
  for (std::uint64_t i = 0; i < 3; ++i) {
    samples.push_back(sample(bw + 64 * i, 0));
  }
  const auto profile = profiler_.profile(space_.drain_events(), samples);

  const auto d = diagnose(profile, {ChannelId{0, 1}});
  ASSERT_EQ(d.ranking.size(), 2u);
  EXPECT_EQ(d.ranking[0].site, "sc.c:10 block");
  EXPECT_DOUBLE_EQ(d.ranking[0].cf, 0.75);
  EXPECT_EQ(d.ranking[1].site, "sc.c:20 point.p");
  EXPECT_DOUBLE_EQ(d.ranking[1].cf, 0.25);
  EXPECT_EQ(d.total_samples, 12u);
  double sum = d.untracked_cf;
  for (const auto& c : d.ranking) sum += c.cf;
  EXPECT_DOUBLE_EQ(sum, 1.0);
}

TEST_F(DiagnoserTest, CrossChannelAggregationIgnoresCleanChannels) {
  const auto obj = space_.allocate("x.c:1 d", 1 << 22,
                                   PlacementSpec::interleave({1, 2}));
  const mem::Addr base = space_.object(obj).base;
  std::vector<pebs::MemorySample> samples;
  // Node-0 threads touch pages on node 1 (even pages) and node 2 (odd).
  for (std::uint64_t i = 0; i < 8; ++i) {
    samples.push_back(sample(base + 4096 * i, 0));
  }
  const auto profile = profiler_.profile(space_.drain_events(), samples);

  // Only channel N0->N1 flagged: denominator restricted to its samples.
  const auto d1 = diagnose(profile, {ChannelId{0, 1}});
  EXPECT_EQ(d1.total_samples, 4u);
  ASSERT_EQ(d1.ranking.size(), 1u);
  EXPECT_DOUBLE_EQ(d1.ranking[0].cf, 1.0);

  // Both contended: all 8 samples pooled.
  const auto d2 = diagnose(profile, {ChannelId{0, 1}, ChannelId{0, 2}});
  EXPECT_EQ(d2.total_samples, 8u);
}

TEST_F(DiagnoserTest, UntrackedStaticDataReported) {
  const auto st = space_.allocate_static("sp.f:3 fields", 1 << 20,
                                         PlacementSpec::bind(1));
  const auto heap = space_.allocate("sp.c:5 tmp", 1 << 20,
                                    PlacementSpec::bind(1));
  const mem::Addr bs = space_.object(st).base;
  const mem::Addr bh = space_.object(heap).base;
  const std::vector<pebs::MemorySample> samples = {
      sample(bs, 0), sample(bs + 64, 0), sample(bs + 128, 0), sample(bh, 0)};
  const auto profile = profiler_.profile(space_.drain_events(), samples);

  const auto d = diagnose(profile, {ChannelId{0, 1}});
  EXPECT_EQ(d.untracked_samples, 3u);
  EXPECT_DOUBLE_EQ(d.untracked_cf, 0.75);
  ASSERT_EQ(d.ranking.size(), 1u);
  EXPECT_DOUBLE_EQ(d.ranking[0].cf, 0.25);
  const std::string rendered = render(d);
  EXPECT_NE(rendered.find("untracked"), std::string::npos);
}

TEST_F(DiagnoserTest, PerChannelHelperMatchesSingleChannelDiagnosis) {
  const auto obj = space_.allocate("x.c:1 d", 1 << 20, PlacementSpec::bind(2));
  const mem::Addr base = space_.object(obj).base;
  const std::vector<pebs::MemorySample> samples = {sample(base, 0),
                                                    sample(base + 64, 0)};
  const auto profile = profiler_.profile(space_.drain_events(), samples);
  const auto per_channel = contributions_in_channel(profile, ChannelId{0, 2});
  ASSERT_EQ(per_channel.size(), 1u);
  EXPECT_DOUBLE_EQ(per_channel[0].cf, 1.0);
  EXPECT_EQ(per_channel[0].samples, 2u);
}

TEST_F(DiagnoserTest, EmptyDiagnosisRendersAdvice) {
  const std::vector<pebs::MemorySample> samples;
  const core::ProfileResult profile = profiler_.profile({}, samples);
  const auto d = diagnose(profile, {ChannelId{0, 1}});
  EXPECT_TRUE(d.ranking.empty());
  EXPECT_EQ(d.total_samples, 0u);
  EXPECT_FALSE(render(d).empty());
}

TEST_F(DiagnoserTest, UnknownChannelThrows) {
  core::ProfileResult profile;  // empty: no channels at all
  EXPECT_THROW(diagnose(profile, {ChannelId{0, 1}}), Error);
  EXPECT_THROW(contributions_in_channel(profile, ChannelId{0, 1}), Error);
  // The advice engine resolves its channels the same way.
  EXPECT_THROW(collect_evidence(profile, {ChannelId{0, 1}}), Error);
  EXPECT_THROW(advise(profile, {ChannelId{0, 1}}), Error);
}

TEST_F(DiagnoserTest, DeterministicTieBreakBySite) {
  const auto a = space_.allocate("a.c:1 aa", 1 << 16, PlacementSpec::bind(1));
  const auto b = space_.allocate("a.c:2 bb", 1 << 16, PlacementSpec::bind(1));
  const std::vector<pebs::MemorySample> samples = {
      sample(space_.object(a).base, 0), sample(space_.object(b).base, 0)};
  const auto profile = profiler_.profile(space_.drain_events(), samples);
  const auto d = diagnose(profile, {ChannelId{0, 1}});
  ASSERT_EQ(d.ranking.size(), 2u);
  EXPECT_EQ(d.ranking[0].site, "a.c:1 aa");  // equal counts: lexicographic
}

}  // namespace
}  // namespace drbw::diagnoser
