// Tests for the 8-node Opteron machine and multi-hop channel routing —
// the paper's named future-work platform (§IV-A).
#include <gtest/gtest.h>

#include "drbw/drbw.hpp"
#include "drbw/topology/machine.hpp"
#include "drbw/workloads/mini.hpp"

namespace drbw {
namespace {

using topology::ChannelId;
using topology::Machine;

TEST(Opteron, GeometryMatchesMagnyCours) {
  const Machine m = Machine::opteron_6174();
  EXPECT_EQ(m.num_nodes(), 8);
  EXPECT_EQ(m.num_cores(), 48);
  EXPECT_EQ(m.num_hw_threads(), 48);
  EXPECT_EQ(m.num_channels(), 64);
}

TEST(Opteron, IntraPackagePathsAreOneHop) {
  const Machine m = Machine::opteron_6174();
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      if (a == b) continue;
      EXPECT_EQ(m.hops(ChannelId{a, b}), 1) << a << "->" << b;
      EXPECT_EQ(m.hops(ChannelId{a + 4, b + 4}), 1);
    }
  }
}

TEST(Opteron, CrossPackageNonCounterpartIsTwoHops) {
  const Machine m = Machine::opteron_6174();
  // Die 0 links only to die 4 across packages; 0 -> 5 must route via 4
  // or 1 (both shortest), i.e. exactly two hops.
  EXPECT_EQ(m.hops(ChannelId{0, 4}), 1);  // counterpart: direct
  EXPECT_EQ(m.hops(ChannelId{0, 5}), 2);
  EXPECT_EQ(m.hops(ChannelId{0, 7}), 2);
  EXPECT_EQ(m.hops(ChannelId{6, 1}), 2);
  // The path's hops are contiguous and start/end correctly.
  const auto& path = m.path_links(ChannelId{0, 5});
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path.front().src, 0);
  EXPECT_EQ(path.back().dst, 5);
  EXPECT_EQ(path.front().dst, path.back().src);
}

TEST(Opteron, TwoHopChannelsAreSlowerAndNarrower) {
  const Machine m = Machine::opteron_6174();
  // Two-hop latency exceeds one-hop latency.
  EXPECT_GT(m.idle_dram_latency(ChannelId{0, 5}),
            m.idle_dram_latency(ChannelId{0, 1}));
  // The cross-package half-width link bounds the two-hop capacity.
  EXPECT_LE(m.channel_capacity(ChannelId{0, 5}),
            m.channel_capacity(ChannelId{0, 1}));
  EXPECT_GT(m.channel_capacity(ChannelId{0, 0}),
            m.channel_capacity(ChannelId{0, 4}));
}

TEST(Opteron, FullyConnectedMachinesStayOneHop) {
  const Machine m = Machine::xeon_e5_4650();
  for (int s = 0; s < 4; ++s) {
    for (int d = 0; d < 4; ++d) {
      if (s == d) continue;
      EXPECT_EQ(m.hops(ChannelId{s, d}), 1);
      ASSERT_EQ(m.path_links(ChannelId{s, d}).size(), 1u);
      EXPECT_EQ(m.path_links(ChannelId{s, d})[0], (ChannelId{s, d}));
    }
  }
  EXPECT_TRUE(m.path_links(ChannelId{2, 2}).empty());
  EXPECT_THROW(m.link_capacity(ChannelId{1, 1}), Error);
}

TEST(Opteron, DisconnectedTopologyRejected) {
  topology::MachineSpec spec = Machine::dual_socket_test().spec();
  spec.link_bandwidth = {{0.0, 0.0}, {0.0, 0.0}};  // no links at all
  EXPECT_THROW(Machine{spec}, Error);
}

TEST(Opteron, SharedLinkAggregatesTraffic) {
  // Channel 0->5 routes via the intra-package hop (0->1, 1->5), so its
  // traffic shares the physical 0->1 link with channel 0->1's own traffic:
  // loading 0->5 must raise the multiplier seen by 0->1.
  const Machine m = Machine::opteron_6174();
  const auto& path = m.path_links(ChannelId{0, 5});
  ASSERT_EQ(path.size(), 2u);
  ASSERT_EQ(path[0], (ChannelId{0, 1}));

  sim::ChannelLoad load(m);
  const double cap = m.link_capacity(ChannelId{0, 1});

  load.reset_round();
  load.add_demand(ChannelId{0, 1}, cap * 1000.0 * 0.4);
  load.finalize_round(1000.0);
  const double alone = load.multiplier(ChannelId{0, 1});

  load.reset_round();
  load.add_demand(ChannelId{0, 1}, cap * 1000.0 * 0.4);
  load.add_demand(ChannelId{0, 5}, cap * 1000.0 * 0.5);
  load.finalize_round(1000.0);
  const double shared = load.multiplier(ChannelId{0, 1});
  EXPECT_GT(shared, alone);
  // And the two-hop channel itself sees at least the shared utilization.
  EXPECT_GE(load.utilization(ChannelId{0, 5}), 0.89);
}

TEST(Opteron, EndToEndDetectionWorksOnEightNodes) {
  // The whole pipeline — train on THIS machine's mini-programs, run a
  // master-allocated workload over all 8 dies, detect and diagnose — must
  // work unchanged on the partially connected topology.
  const Machine m = Machine::opteron_6174();

  // Small bespoke training set (the full Table II generator targets the
  // Xeon's Tt-Nn grid; here a compact grid suffices).
  ml::Dataset data(std::vector<std::string>(
      features::selected_feature_names().begin(),
      features::selected_feature_names().end()));
  std::uint64_t seed = 50;
  auto add_run = [&](bool master, int threads, int nodes, bool rmc) {
    mem::AddressSpace space(m);
    const workloads::ProxyBenchmark bench(
        workloads::sumv_spec(256ull << 20, master));
    sim::EngineConfig engine;
    engine.seed = ++seed;
    const auto built =
        bench.build(space, m, workloads::RunConfig{threads, nodes},
                    workloads::PlacementMode::kOriginal, 0);
    const auto run = workloads::execute(m, space, built, engine);
    core::Profiler profiler(m);
    const auto profile = profiler.profile(run);
    const auto channels = features::extract_channels(profile, m);
    const features::ChannelFeatures* best = &channels.front();
    for (const auto& cf : channels) {
      if (cf.features.values[5] > best->features.values[5]) best = &cf;
    }
    data.add(best->features.as_row(),
             rmc ? ml::Label::kRmc : ml::Label::kGood);
  };
  for (int rep = 0; rep < 2; ++rep) {
    add_run(false, 6, 1, false);
    add_run(false, 24, 8, false);
    add_run(false, 48, 8, false);
    add_run(true, 4, 2, false);
    add_run(true, 24, 8, true);
    add_run(true, 48, 8, true);
    add_run(true, 12, 2, true);
  }
  const DrBw tool(m, ml::Classifier::train(data));

  mem::AddressSpace space(m);
  const workloads::ProxyBenchmark bench(workloads::sumv_spec(512ull << 20, true));
  sim::EngineConfig engine;
  engine.seed = 999;
  const auto built = bench.build(space, m, workloads::RunConfig{48, 8},
                                 workloads::PlacementMode::kOriginal, 0);
  const auto run = workloads::execute(m, space, built, engine);
  const Report report = tool.analyze(run);
  EXPECT_TRUE(report.rmc);
  for (const auto& ch : report.contended) EXPECT_EQ(ch.dst, 0);
  ASSERT_FALSE(report.diagnosis.ranking.empty());
  EXPECT_EQ(report.diagnosis.ranking[0].site, "sumv.c:20 vec0");
}

}  // namespace
}  // namespace drbw
