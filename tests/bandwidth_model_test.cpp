// Unit tests for the bandwidth/queueing model and per-channel load tracking.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "drbw/sim/bandwidth_model.hpp"
#include "drbw/util/error.hpp"

namespace drbw::sim {
namespace {

using topology::ChannelId;
using topology::Machine;

TEST(LatencyMultiplier, OneAtZeroLoad) {
  EXPECT_DOUBLE_EQ(latency_multiplier(0.0), 1.0);
}

TEST(LatencyMultiplier, NearOneInFriendlyRegime) {
  // High consumption without saturation must NOT look like contention —
  // the paper's core point (§I): consumption alone is not contention.
  EXPECT_LT(latency_multiplier(0.3), 1.05);
  EXPECT_LT(latency_multiplier(0.5), 1.15);
  EXPECT_LT(latency_multiplier(0.7), 1.65);
}

TEST(LatencyMultiplier, SteepNearSaturation) {
  EXPECT_GT(latency_multiplier(0.9), 4.0);
  EXPECT_GT(latency_multiplier(0.96), 10.0);
}

TEST(LatencyMultiplier, MonotoneNondecreasing) {
  double prev = 0.0;
  for (double u = 0.0; u <= 1.5; u += 0.01) {
    const double m = latency_multiplier(u);
    EXPECT_GE(m, prev);
    prev = m;
  }
}

TEST(LatencyMultiplier, ClampsAboveUmax) {
  const BandwidthModelConfig cfg;
  EXPECT_DOUBLE_EQ(latency_multiplier(1.0, cfg),
                   latency_multiplier(cfg.u_max, cfg));
  EXPECT_DOUBLE_EQ(latency_multiplier(5.0, cfg), latency_multiplier(1.0, cfg));
}

TEST(LatencyMultiplier, RejectsNegativeUtilization) {
  EXPECT_THROW(latency_multiplier(-0.1), Error);
}

class ChannelLoadTest : public ::testing::Test {
 protected:
  Machine machine_ = Machine::dual_socket_test();
  ChannelLoad load_{machine_};
};

TEST_F(ChannelLoadTest, UtilizationFromDemand) {
  const ChannelId ch{0, 1};
  const double cap = machine_.channel_capacity(ch);
  load_.reset_round();
  load_.add_demand(ch, cap * 1000.0 * 0.5);  // 50% of a 1000-cycle epoch
  load_.finalize_round(1000.0);
  EXPECT_NEAR(load_.utilization(ch), 0.5, 1e-12);
  EXPECT_GT(load_.multiplier(ch), 1.0);
  EXPECT_DOUBLE_EQ(load_.utilization(ChannelId{1, 0}), 0.0);
  EXPECT_DOUBLE_EQ(load_.multiplier(ChannelId{1, 0}), 1.0);
}

TEST_F(ChannelLoadTest, DemandAccumulatesWithinRound) {
  const ChannelId ch{0, 0};
  const double cap = machine_.channel_capacity(ch);
  load_.reset_round();
  load_.add_demand(ch, cap * 100.0 * 0.25);
  load_.add_demand(ch, cap * 100.0 * 0.25);
  load_.finalize_round(100.0);
  EXPECT_NEAR(load_.utilization(ch), 0.5, 1e-12);
}

TEST_F(ChannelLoadTest, ResetClearsDemand) {
  const ChannelId ch{0, 1};
  load_.reset_round();
  load_.add_demand(ch, 1e6);
  load_.reset_round();
  load_.finalize_round(100.0);
  EXPECT_DOUBLE_EQ(load_.utilization(ch), 0.0);
}

TEST_F(ChannelLoadTest, ServiceFractionRationsOverload) {
  const ChannelId ch{1, 0};
  const double cap = machine_.channel_capacity(ch);
  load_.reset_round();
  load_.add_demand(ch, cap * 100.0 * 2.0);  // 2x oversubscribed
  load_.finalize_round(100.0);
  EXPECT_NEAR(load_.service_fraction_index(machine_.channel_index(ch)), 0.5,
              1e-12);
  // An unsaturated channel serves everything.
  EXPECT_DOUBLE_EQ(load_.service_fraction_index(machine_.channel_index({0, 1})),
                   1.0);
}

TEST_F(ChannelLoadTest, RejectsNegativeDemandAndBadEpoch) {
  load_.reset_round();
  EXPECT_THROW(load_.add_demand(ChannelId{0, 0}, -1.0), Error);
  EXPECT_THROW(load_.finalize_round(0.0), Error);
}

/// Offers one fixed contended load: both remote channels and node 0's local
/// channel, with outstanding requests so the Little's-law bound applies.
void offer(ChannelLoad& load, double scale) {
  load.reset_round();
  load.add_demand(ChannelId{0, 0}, 30'000.0 * scale, 4.0);
  load.add_demand(ChannelId{1, 0}, 45'000.0 * scale, 9.0);
  load.add_demand(ChannelId{0, 1}, 8'000.0 * scale, 2.0);
}

std::vector<std::uint64_t> multiplier_bits(const ChannelLoad& load,
                                           const Machine& machine) {
  std::vector<std::uint64_t> bits;
  for (int i = 0; i < machine.num_channels(); ++i) {
    bits.push_back(std::bit_cast<std::uint64_t>(load.multiplier_index(i)));
  }
  return bits;
}

TEST_F(ChannelLoadTest, UnchangedDemandReportsNoChange) {
  offer(load_, 1.0);
  EXPECT_TRUE(load_.finalize_round(10'000.0));
  const std::vector<std::uint64_t> before = multiplier_bits(load_, machine_);
  offer(load_, 1.0);
  EXPECT_FALSE(load_.finalize_round(10'000.0));
  EXPECT_EQ(multiplier_bits(load_, machine_), before);
  // A different load moves some multiplier again.
  offer(load_, 1.5);
  EXPECT_TRUE(load_.finalize_round(10'000.0));
  EXPECT_NE(multiplier_bits(load_, machine_), before);
}

TEST_F(ChannelLoadTest, ReusedLoadMatchesAFreshOne) {
  // Rounds of differing demand through one instance must leave exactly what
  // a fresh instance computes from the last round alone.
  for (const double scale : {2.0, 0.25, 1.0, 3.0, 0.5}) {
    offer(load_, scale);
    load_.finalize_round(10'000.0);
    ChannelLoad fresh(machine_);
    offer(fresh, scale);
    fresh.finalize_round(10'000.0);
    EXPECT_EQ(multiplier_bits(load_, machine_), multiplier_bits(fresh, machine_));
    for (int i = 0; i < machine_.num_channels(); ++i) {
      const ChannelId ch = machine_.channel_at(i);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(load_.utilization(ch)),
                std::bit_cast<std::uint64_t>(fresh.utilization(ch)));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(load_.service_fraction_index(i)),
                std::bit_cast<std::uint64_t>(fresh.service_fraction_index(i)));
    }
  }
}

}  // namespace
}  // namespace drbw::sim
