// NUMA machine description: sockets, cores, caches, memory, and channels.
//
// This module is the simulator's analogue of what DR-BW learns from
// /sys/devices/system/node and libnuma on real hardware: which NUMA node a
// CPU belongs to, which directed interconnect channels exist, and the raw
// capability numbers (cache sizes, DRAM/link bandwidths and latencies) that
// the bandwidth model consumes.
//
// A *channel* follows the paper's §IV-B definition: the directed path from
// the accessing node (where the instruction executed) to the locating node
// (where the data resides).  Local accesses (src == dst) travel only through
// the node's own memory controller; remote accesses additionally cross a
// QPI-like inter-socket link.  Per-direction bandwidth asymmetry (§III-a,
// citing Lepers et al.) is supported via an explicit link-bandwidth matrix.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "drbw/util/error.hpp"

namespace drbw::topology {

using NodeId = int;
using CpuId = int;

/// One cache level's geometry and idle hit latency.
struct CacheSpec {
  std::uint64_t size_bytes = 0;
  std::uint32_t line_bytes = 64;
  double latency_cycles = 0.0;
};

/// Full parametric description of a NUMA machine.  All bandwidths are in
/// bytes per cycle (the engine works in cycles; helpers below convert from
/// GB/s at the spec'd clock).
struct MachineSpec {
  std::string name;
  int sockets = 0;
  int cores_per_socket = 0;
  int threads_per_core = 1;  // hardware threads (HT/SMT)
  double ghz = 1.0;

  CacheSpec l1;               // per core
  CacheSpec l2;               // per core
  CacheSpec l3;               // per socket (shared)
  std::uint64_t dram_bytes_per_node = 0;
  std::uint32_t page_bytes = 4096;

  double local_dram_latency_cycles = 200.0;
  double remote_dram_latency_cycles = 310.0;
  /// Line-fill-buffer hit latency: an access that catches a line already in
  /// flight to L1 (typical for hardware-prefetched sequential streams).
  double lfb_latency_cycles = 55.0;

  /// Per-node memory-controller bandwidth (bytes/cycle).
  double mc_bandwidth = 0.0;
  /// Directed link bandwidths (bytes/cycle), row = source node, col =
  /// destination node; diagonal unused.  Asymmetric entries model the
  /// direction-dependent interconnect throughput of real multi-socket parts.
  std::vector<std::vector<double>> link_bandwidth;

  /// Converts GB/s to bytes per cycle at this machine's clock.
  double gbps_to_bytes_per_cycle(double gb_per_s) const {
    return gb_per_s * 1e9 / (ghz * 1e9);
  }

  int total_cores() const { return sockets * cores_per_socket; }
  int total_hw_threads() const { return total_cores() * threads_per_core; }
};

/// A directed (source node -> home node) channel.
struct ChannelId {
  NodeId src = 0;
  NodeId dst = 0;

  bool is_local() const { return src == dst; }
  bool operator==(const ChannelId&) const = default;
};

/// Queryable machine topology built from a MachineSpec.
///
/// CPU numbering follows the paper's platform convention: hardware thread
/// `h` of core `c` on socket `s` is CPU `s*cores_per_socket + c +
/// h*total_cores` (i.e. the second hyperthread context of the whole machine
/// occupies the upper CPU-id range, matching Linux enumeration on the Xeon
/// E5-4650 testbed).
class Machine {
 public:
  explicit Machine(MachineSpec spec);

  const MachineSpec& spec() const { return spec_; }
  int num_nodes() const { return spec_.sockets; }
  int num_cores() const { return spec_.total_cores(); }
  int num_hw_threads() const { return spec_.total_hw_threads(); }

  /// NUMA node that hosts the given CPU (hardware-thread id): one lookup
  /// into a table the constructor fills, since the profiler and every
  /// window add call it per sample.  Throws Error for a CPU the machine
  /// lacks.
  NodeId node_of_cpu(CpuId cpu) const {
    if (static_cast<unsigned>(cpu) >= cpu_node_.size()) cpu_out_of_range(cpu);
    return cpu_node_[static_cast<std::size_t>(cpu)];
  }
  /// All hardware-thread ids on a node, primary contexts first.
  const std::vector<CpuId>& cpus_of_node(NodeId node) const;

  /// Number of directed channels including the local (i->i) ones: N*N.
  int num_channels() const { return spec_.sockets * spec_.sockets; }
  /// Dense index for a channel, row-major by (src, dst).
  int channel_index(ChannelId ch) const;
  ChannelId channel_at(int index) const;

  /// Capacity of a channel in bytes/cycle: the memory controller for local
  /// channels, min(path links, MC) for remote ones (traffic crosses all of
  /// them).
  double channel_capacity(ChannelId ch) const;

  /// The directed physical links a remote access from `ch.src` to `ch.dst`
  /// traverses, as (from, to) hops.  On fully connected machines this is
  /// the single direct link; on partially connected ones (e.g. the 8-node
  /// Opteron) it is the shortest path, so one access can load several
  /// links.  Local channels have no hops.
  const std::vector<ChannelId>& path_links(ChannelId ch) const;

  /// Raw capacity of one physical directed link (must exist in the spec).
  double link_capacity(ChannelId link) const;

  /// Hop count of the channel's path (0 for local).
  int hops(ChannelId ch) const;

  /// Idle (uncontended) DRAM latency over a channel, cycles.
  double idle_dram_latency(ChannelId ch) const;

  /// Human-readable channel name, e.g. "N0->N2" or "N1 (local)".
  std::string channel_name(ChannelId ch) const;

  /// The paper's standard evaluation platform: 4-socket, 8-core Intel Xeon
  /// E5-4650 (SandyBridge-EP) at 2.7 GHz with HyperThreading; 32 KB L1 and
  /// 256 KB L2 per core, 20 MB L3 and 64 GB DRAM per socket.
  static Machine xeon_e5_4650();

  /// A small 2-node machine used by unit tests (cheap, easy to saturate).
  static Machine dual_socket_test();

  /// An 8-node AMD Opteron 6174-style machine ("Magny-Cours"): two G34
  /// packages with four dies each, HyperTransport links forming a partial
  /// mesh, so some node pairs are two hops apart.  The paper names AMD
  /// support (via IBS sampling) as future work (§IV-A); this factory plus
  /// path-based routing realizes it in the simulator.
  static Machine opteron_6174();

 private:
  void build_paths();
  [[noreturn]] void cpu_out_of_range(CpuId cpu) const;

  MachineSpec spec_;
  std::vector<std::vector<CpuId>> node_cpus_;
  /// Per channel index: the physical links its traffic traverses.
  std::vector<std::vector<ChannelId>> paths_;
  /// Per CPU id: its node, (cpu % cores) / cores_per_socket.
  std::vector<NodeId> cpu_node_;
};

}  // namespace drbw::topology
