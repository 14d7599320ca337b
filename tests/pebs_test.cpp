// Unit tests for the PEBS-style period sampler and sample records.
#include <gtest/gtest.h>

#include <vector>

#include "drbw/pebs/sample.hpp"
#include "drbw/util/error.hpp"

namespace drbw::pebs {
namespace {

// The firing offsets of one batch, spelled out in increasing order.
std::vector<std::uint64_t> offsets_of(const SampleFires& fires) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t i = 0; i < fires.count; ++i) out.push_back(fires.at(i));
  return out;
}

TEST(PeriodSampler, ExactRateOverLongStream) {
  PeriodSampler s(2000, 7);
  std::uint64_t samples = 0;
  const std::uint64_t total = 10'000'000;
  for (int batch = 0; batch < 100; ++batch) {
    samples += offsets_of(s.consume(total / 100)).size();
  }
  EXPECT_NEAR(static_cast<double>(samples), total / 2000.0, 1.0);
}

TEST(PeriodSampler, OffsetsSpacedByPeriod) {
  PeriodSampler s(100, 3);
  const auto offsets = offsets_of(s.consume(1000));
  ASSERT_GE(offsets.size(), 9u);
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    EXPECT_EQ(offsets[i] - offsets[i - 1], 100u);
  }
  EXPECT_LT(offsets.front(), 100u);  // randomized phase within one period
}

TEST(PeriodSampler, SmallBatchesEquivalentToOneBig) {
  PeriodSampler a(50, 9), b(50, 9);
  std::vector<std::uint64_t> from_small;
  std::uint64_t base = 0;
  for (int i = 0; i < 40; ++i) {
    for (const auto off : offsets_of(a.consume(13))) from_small.push_back(base + off);
    base += 13;
  }
  const auto from_big = offsets_of(b.consume(40 * 13));
  EXPECT_EQ(from_small, from_big);
}

TEST(PeriodSampler, CountOnlyMatchesConsume) {
  PeriodSampler a(77, 4), b(77, 4);
  for (const std::uint64_t n : {5ull, 100ull, 76ull, 77ull, 78ull, 1000ull}) {
    EXPECT_EQ(a.count_only(n), offsets_of(b.consume(n)).size()) << "batch " << n;
  }
}

TEST(PeriodSampler, ZeroAccessesNoSamples) {
  PeriodSampler s(10, 1);
  EXPECT_TRUE(offsets_of(s.consume(0)).empty());
  EXPECT_EQ(s.count_only(0), 0u);
}

TEST(PeriodSampler, PeriodOneSamplesEverything) {
  PeriodSampler s(1, 5);
  EXPECT_EQ(offsets_of(s.consume(7)).size(), 7u);
}

TEST(PeriodSampler, DifferentSeedsDifferentPhase) {
  PeriodSampler a(2000, 1), b(2000, 2);
  const auto oa = offsets_of(a.consume(4000));
  const auto ob = offsets_of(b.consume(4000));
  ASSERT_FALSE(oa.empty());
  ASSERT_FALSE(ob.empty());
  EXPECT_NE(oa.front(), ob.front());
}

TEST(PeriodSampler, RejectsZeroPeriod) {
  EXPECT_THROW(PeriodSampler(0, 1), Error);
}

TEST(MemLevel, NamesAndDramPredicate) {
  EXPECT_STREQ(level_name(MemLevel::kL1), "L1");
  EXPECT_STREQ(level_name(MemLevel::kLfb), "LFB");
  EXPECT_STREQ(level_name(MemLevel::kLocalDram), "LocalDRAM");
  EXPECT_STREQ(level_name(MemLevel::kRemoteDram), "RemoteDRAM");
  EXPECT_TRUE(is_dram(MemLevel::kLocalDram));
  EXPECT_TRUE(is_dram(MemLevel::kRemoteDram));
  EXPECT_FALSE(is_dram(MemLevel::kL3));
  EXPECT_FALSE(is_dram(MemLevel::kLfb));
}

}  // namespace
}  // namespace drbw::pebs
