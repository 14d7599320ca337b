#include "drbw/topology/machine.hpp"

#include <algorithm>
#include <deque>
#include <sstream>

namespace drbw::topology {

Machine::Machine(MachineSpec spec) : spec_(std::move(spec)) {
  // A sample and a window record name a node in one byte.
  DRBW_CHECK_MSG(spec_.sockets >= 1 && spec_.sockets <= 256,
                 "machine needs 1 to 256 sockets");
  DRBW_CHECK_MSG(spec_.cores_per_socket >= 1, "socket needs at least one core");
  DRBW_CHECK_MSG(spec_.threads_per_core >= 1, "core needs at least one thread");
  DRBW_CHECK_MSG(spec_.mc_bandwidth > 0.0, "memory-controller bandwidth unset");
  DRBW_CHECK_MSG(
      spec_.link_bandwidth.size() == static_cast<std::size_t>(spec_.sockets),
      "link bandwidth matrix must be sockets x sockets");
  for (const auto& row : spec_.link_bandwidth) {
    DRBW_CHECK(row.size() == static_cast<std::size_t>(spec_.sockets));
  }
  DRBW_CHECK(spec_.page_bytes > 0 && (spec_.page_bytes & (spec_.page_bytes - 1)) == 0);

  node_cpus_.resize(static_cast<std::size_t>(spec_.sockets));
  cpu_node_.resize(static_cast<std::size_t>(num_hw_threads()));
  for (CpuId cpu = 0; cpu < num_hw_threads(); ++cpu) {
    const int core = cpu % num_cores();  // strip the hyperthread context bank
    const NodeId node = core / spec_.cores_per_socket;
    cpu_node_[static_cast<std::size_t>(cpu)] = node;
    node_cpus_[static_cast<std::size_t>(node)].push_back(cpu);
  }
  build_paths();
}

void Machine::build_paths() {
  // BFS shortest path from every source over the directed link graph;
  // ties broken toward lower node ids for determinism.
  const int n = num_nodes();
  paths_.assign(static_cast<std::size_t>(n * n), {});
  for (int src = 0; src < n; ++src) {
    std::vector<int> prev(static_cast<std::size_t>(n), -1);
    std::vector<bool> seen(static_cast<std::size_t>(n), false);
    std::deque<int> queue{src};
    seen[static_cast<std::size_t>(src)] = true;
    while (!queue.empty()) {
      const int at = queue.front();
      queue.pop_front();
      for (int next = 0; next < n; ++next) {
        if (seen[static_cast<std::size_t>(next)] || next == at) continue;
        if (spec_.link_bandwidth[static_cast<std::size_t>(at)]
                                [static_cast<std::size_t>(next)] <= 0.0) {
          continue;
        }
        seen[static_cast<std::size_t>(next)] = true;
        prev[static_cast<std::size_t>(next)] = at;
        queue.push_back(next);
      }
    }
    for (int dst = 0; dst < n; ++dst) {
      if (dst == src) continue;  // local channel: no hops
      DRBW_CHECK_MSG(seen[static_cast<std::size_t>(dst)],
                     "node " << dst << " unreachable from node " << src);
      std::vector<ChannelId> hops;
      for (int at = dst; at != src; at = prev[static_cast<std::size_t>(at)]) {
        hops.push_back(ChannelId{prev[static_cast<std::size_t>(at)], at});
      }
      std::reverse(hops.begin(), hops.end());
      paths_[static_cast<std::size_t>(src * n + dst)] = std::move(hops);
    }
  }
}

const std::vector<ChannelId>& Machine::path_links(ChannelId ch) const {
  return paths_[static_cast<std::size_t>(channel_index(ch))];
}

double Machine::link_capacity(ChannelId link) const {
  (void)channel_index(link);  // validates
  DRBW_CHECK_MSG(!link.is_local(), "local channels have no physical link");
  const double cap = spec_.link_bandwidth[static_cast<std::size_t>(link.src)]
                                         [static_cast<std::size_t>(link.dst)];
  DRBW_CHECK_MSG(cap > 0.0,
                 "no physical link " << link.src << "->" << link.dst);
  return cap;
}

int Machine::hops(ChannelId ch) const {
  return static_cast<int>(path_links(ch).size());
}

void Machine::cpu_out_of_range(CpuId cpu) const {
  std::ostringstream msg;
  msg << "cpu " << cpu << " out of range [0," << num_hw_threads() << ")";
  detail::throw_check_failure("cpu >= 0 && cpu < num_hw_threads()", __FILE__,
                              __LINE__, msg.str());
}

const std::vector<CpuId>& Machine::cpus_of_node(NodeId node) const {
  DRBW_CHECK_MSG(node >= 0 && node < num_nodes(), "node " << node << " out of range");
  return node_cpus_[static_cast<std::size_t>(node)];
}

void Machine::channel_out_of_range(ChannelId ch) const {
  std::ostringstream msg;
  msg << "channel N" << ch.src << "->N" << ch.dst << " outside the machine's "
      << num_nodes() << " nodes";
  detail::throw_check_failure("ch.src and ch.dst in [0, num_nodes())",
                              __FILE__, __LINE__, msg.str());
}

ChannelId Machine::channel_at(int index) const {
  DRBW_CHECK_MSG(index >= 0 && index < num_channels(),
                 "channel index " << index << " out of range");
  return ChannelId{index / num_nodes(), index % num_nodes()};
}

double Machine::channel_capacity(ChannelId ch) const {
  (void)channel_index(ch);  // validates
  if (ch.is_local()) return spec_.mc_bandwidth;
  double cap = spec_.mc_bandwidth;
  for (const ChannelId link : path_links(ch)) {
    cap = std::min(cap, link_capacity(link));
  }
  return cap;
}

double Machine::idle_dram_latency(ChannelId ch) const {
  (void)channel_index(ch);  // validates
  if (ch.is_local()) return spec_.local_dram_latency_cycles;
  // The spec's remote latency is the one-hop figure; each additional hop
  // adds the same interconnect transit again.
  const double hop_cost =
      spec_.remote_dram_latency_cycles - spec_.local_dram_latency_cycles;
  return spec_.remote_dram_latency_cycles +
         hop_cost * static_cast<double>(hops(ch) - 1);
}

std::string Machine::channel_name(ChannelId ch) const {
  if (ch.is_local()) return "N" + std::to_string(ch.src) + " (local)";
  return "N" + std::to_string(ch.src) + "->N" + std::to_string(ch.dst);
}

Machine Machine::xeon_e5_4650() {
  MachineSpec spec;
  spec.name = "Intel Xeon E5-4650 (4-socket SandyBridge-EP)";
  spec.sockets = 4;
  spec.cores_per_socket = 8;
  spec.threads_per_core = 2;
  spec.ghz = 2.7;
  spec.l1 = CacheSpec{32ull * 1024, 64, 4.0};
  spec.l2 = CacheSpec{256ull * 1024, 64, 12.0};
  spec.l3 = CacheSpec{20ull * 1024 * 1024, 64, 40.0};
  spec.dram_bytes_per_node = 64ull * 1024 * 1024 * 1024;
  spec.page_bytes = 4096;
  spec.local_dram_latency_cycles = 200.0;
  spec.remote_dram_latency_cycles = 310.0;
  spec.lfb_latency_cycles = 55.0;
  // ~40 GB/s per socket from four DDR3-1600 channels; QPI 8 GT/s gives
  // ~16 GB/s per direction.  A mild per-direction asymmetry mirrors the
  // measurements of Lepers et al. cited in the paper (§III-a).
  spec.mc_bandwidth = spec.gbps_to_bytes_per_cycle(40.0);
  const double fwd = spec.gbps_to_bytes_per_cycle(16.0);
  const double rev = spec.gbps_to_bytes_per_cycle(14.0);
  spec.link_bandwidth.assign(4, std::vector<double>(4, 0.0));
  for (int s = 0; s < 4; ++s) {
    for (int d = 0; d < 4; ++d) {
      if (s == d) continue;
      spec.link_bandwidth[static_cast<std::size_t>(s)]
                         [static_cast<std::size_t>(d)] = s < d ? fwd : rev;
    }
  }
  return Machine(std::move(spec));
}

Machine Machine::dual_socket_test() {
  MachineSpec spec;
  spec.name = "dual-socket test machine";
  spec.sockets = 2;
  spec.cores_per_socket = 4;
  spec.threads_per_core = 1;
  spec.ghz = 2.0;
  spec.l1 = CacheSpec{32ull * 1024, 64, 4.0};
  spec.l2 = CacheSpec{256ull * 1024, 64, 12.0};
  spec.l3 = CacheSpec{8ull * 1024 * 1024, 64, 36.0};
  spec.dram_bytes_per_node = 4ull * 1024 * 1024 * 1024;
  spec.page_bytes = 4096;
  spec.local_dram_latency_cycles = 180.0;
  spec.remote_dram_latency_cycles = 300.0;
  spec.lfb_latency_cycles = 50.0;
  spec.mc_bandwidth = spec.gbps_to_bytes_per_cycle(20.0);
  const double link = spec.gbps_to_bytes_per_cycle(8.0);
  spec.link_bandwidth = {{0.0, link}, {link, 0.0}};
  return Machine(std::move(spec));
}

Machine Machine::opteron_6174() {
  MachineSpec spec;
  spec.name = "AMD Opteron 6174 (2x G34, 8 NUMA dies, Magny-Cours)";
  spec.sockets = 8;
  spec.cores_per_socket = 6;
  spec.threads_per_core = 1;
  spec.ghz = 2.2;
  spec.l1 = CacheSpec{64ull * 1024, 64, 3.0};
  spec.l2 = CacheSpec{512ull * 1024, 64, 15.0};
  spec.l3 = CacheSpec{5ull * 1024 * 1024, 64, 45.0};
  spec.dram_bytes_per_node = 16ull * 1024 * 1024 * 1024;
  spec.page_bytes = 4096;
  spec.local_dram_latency_cycles = 180.0;
  spec.remote_dram_latency_cycles = 300.0;
  spec.lfb_latency_cycles = 50.0;
  // Two DDR3-1333 channels per die; HyperTransport 3 half/full links.
  spec.mc_bandwidth = spec.gbps_to_bytes_per_cycle(17.0);
  const double full = spec.gbps_to_bytes_per_cycle(12.0);
  const double half = spec.gbps_to_bytes_per_cycle(6.0);
  spec.link_bandwidth.assign(8, std::vector<double>(8, 0.0));
  auto connect = [&spec](int a, int b, double bw) {
    spec.link_bandwidth[static_cast<std::size_t>(a)]
                       [static_cast<std::size_t>(b)] = bw;
    spec.link_bandwidth[static_cast<std::size_t>(b)]
                       [static_cast<std::size_t>(a)] = bw;
  };
  // Dies 0-3 on package 0, 4-7 on package 1.  Within a package the four
  // dies are fully connected by full-width links; across packages each die
  // links only to its counterpart (half-width), so e.g. 0 -> 5 is two hops.
  for (int p = 0; p < 2; ++p) {
    const int base = 4 * p;
    for (int a = 0; a < 4; ++a) {
      for (int b = a + 1; b < 4; ++b) connect(base + a, base + b, full);
    }
  }
  for (int die = 0; die < 4; ++die) connect(die, die + 4, half);
  return Machine(std::move(spec));
}

}  // namespace drbw::topology
