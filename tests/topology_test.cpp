// Unit tests for drbw::topology — machine geometry, CPU/node mapping, and
// channel enumeration/capacity.
#include <gtest/gtest.h>

#include "drbw/topology/machine.hpp"
#include "drbw/util/error.hpp"

namespace drbw::topology {
namespace {

TEST(Machine, XeonGeometryMatchesPaperPlatform) {
  const Machine m = Machine::xeon_e5_4650();
  EXPECT_EQ(m.num_nodes(), 4);
  EXPECT_EQ(m.num_cores(), 32);
  EXPECT_EQ(m.num_hw_threads(), 64);
  EXPECT_EQ(m.spec().l1.size_bytes, 32u * 1024);
  EXPECT_EQ(m.spec().l2.size_bytes, 256u * 1024);
  EXPECT_EQ(m.spec().l3.size_bytes, 20u * 1024 * 1024);
  EXPECT_EQ(m.spec().dram_bytes_per_node, 64ull << 30);
  EXPECT_DOUBLE_EQ(m.spec().ghz, 2.7);
}

TEST(Machine, CpuToNodeMappingBlocksOfCores) {
  const Machine m = Machine::xeon_e5_4650();
  // Primary contexts: cores 0-7 on node 0, 8-15 on node 1, ...
  EXPECT_EQ(m.node_of_cpu(0), 0);
  EXPECT_EQ(m.node_of_cpu(7), 0);
  EXPECT_EQ(m.node_of_cpu(8), 1);
  EXPECT_EQ(m.node_of_cpu(31), 3);
  // Hyperthread contexts occupy the upper id bank and map to the same node.
  EXPECT_EQ(m.node_of_cpu(32), 0);
  EXPECT_EQ(m.node_of_cpu(39), 0);
  EXPECT_EQ(m.node_of_cpu(63), 3);
}

TEST(Machine, CpuNodeTableMatchesTheNumberingRuleOnEveryPreset) {
  for (const Machine& m : {Machine::xeon_e5_4650(), Machine::dual_socket_test(),
                           Machine::opteron_6174()}) {
    const int cores = m.num_cores();
    for (CpuId cpu = 0; cpu < m.num_hw_threads(); ++cpu) {
      EXPECT_EQ(m.node_of_cpu(cpu), (cpu % cores) / m.spec().cores_per_socket)
          << m.spec().name << " cpu " << cpu;
    }
    EXPECT_THROW(m.node_of_cpu(m.num_hw_threads()), Error) << m.spec().name;
  }
}

TEST(Machine, CpusOfNodePartitionTheMachine) {
  const Machine m = Machine::xeon_e5_4650();
  std::size_t total = 0;
  std::vector<bool> seen(static_cast<std::size_t>(m.num_hw_threads()), false);
  for (int n = 0; n < m.num_nodes(); ++n) {
    const auto& cpus = m.cpus_of_node(n);
    EXPECT_EQ(cpus.size(), 16u);  // 8 cores x 2 HT
    for (CpuId c : cpus) {
      EXPECT_EQ(m.node_of_cpu(c), n);
      EXPECT_FALSE(seen[static_cast<std::size_t>(c)]);
      seen[static_cast<std::size_t>(c)] = true;
    }
    total += cpus.size();
  }
  EXPECT_EQ(total, 64u);
}

TEST(Machine, ChannelIndexRoundTrips) {
  const Machine m = Machine::xeon_e5_4650();
  EXPECT_EQ(m.num_channels(), 16);
  for (int i = 0; i < m.num_channels(); ++i) {
    const ChannelId ch = m.channel_at(i);
    EXPECT_EQ(m.channel_index(ch), i);
  }
  EXPECT_EQ(m.channel_index(ChannelId{1, 2}), 6);
  EXPECT_TRUE((ChannelId{2, 2}).is_local());
  EXPECT_FALSE((ChannelId{2, 3}).is_local());
}

TEST(Machine, LocalChannelUsesMemoryControllerCapacity) {
  const Machine m = Machine::xeon_e5_4650();
  const double local = m.channel_capacity(ChannelId{0, 0});
  const double remote = m.channel_capacity(ChannelId{0, 1});
  EXPECT_GT(local, remote);  // QPI link is the bottleneck
  // 40 GB/s at 2.7 GHz ≈ 14.8 bytes/cycle.
  EXPECT_NEAR(local, 40.0 / 2.7, 1e-9);
  EXPECT_NEAR(remote, 16.0 / 2.7, 1e-9);
}

TEST(Machine, LinkAsymmetryIsDirectional) {
  const Machine m = Machine::xeon_e5_4650();
  // Forward (low -> high node) is provisioned faster than reverse.
  EXPECT_GT(m.channel_capacity(ChannelId{0, 3}), m.channel_capacity(ChannelId{3, 0}));
}

TEST(Machine, IdleLatencyLocalVsRemote) {
  const Machine m = Machine::xeon_e5_4650();
  EXPECT_LT(m.idle_dram_latency(ChannelId{1, 1}), m.idle_dram_latency(ChannelId{1, 2}));
}

TEST(Machine, ChannelNames) {
  const Machine m = Machine::dual_socket_test();
  EXPECT_EQ(m.channel_name(ChannelId{0, 0}), "N0 (local)");
  EXPECT_EQ(m.channel_name(ChannelId{0, 1}), "N0->N1");
}

TEST(Machine, BoundsChecking) {
  const Machine m = Machine::dual_socket_test();
  EXPECT_THROW(m.node_of_cpu(-1), Error);
  EXPECT_THROW(m.node_of_cpu(m.num_hw_threads()), Error);
  EXPECT_THROW(m.cpus_of_node(2), Error);
  EXPECT_THROW(m.channel_at(-1), Error);
  EXPECT_THROW(m.channel_at(4), Error);
  EXPECT_THROW(m.channel_capacity(ChannelId{0, 5}), Error);
}

TEST(Machine, SpecValidation) {
  MachineSpec bad;  // everything zero
  EXPECT_THROW(Machine{bad}, Error);

  MachineSpec s = Machine::dual_socket_test().spec();
  s.link_bandwidth.pop_back();
  EXPECT_THROW(Machine{s}, Error);

  s = Machine::dual_socket_test().spec();
  s.page_bytes = 3000;  // not a power of two
  EXPECT_THROW(Machine{s}, Error);
}

TEST(Machine, GbpsConversion) {
  const MachineSpec s = Machine::xeon_e5_4650().spec();
  // At 2.7 GHz, 27 GB/s is exactly 10 bytes/cycle.
  EXPECT_NEAR(s.gbps_to_bytes_per_cycle(27.0), 10.0, 1e-12);
}

}  // namespace
}  // namespace drbw::topology
