// Run configurations: the paper's Tt-Nn scheme (§VII-A).
//
// "We use Tt-Nn to represent a specific configuration with total t threads
// and n nodes used.  The total t threads are evenly distributed among the n
// nodes.  Threads are also bound to the cores."  The standard evaluation
// sweep is T16-N4, T24-N4, T32-N4, T64-N4, T24-N3, T16-N2, T24-N2, T32-N2.
#pragma once

#include <string>
#include <vector>

#include "drbw/sim/engine.hpp"
#include "drbw/topology/machine.hpp"

namespace drbw::workloads {

struct RunConfig {
  int total_threads = 16;
  int num_nodes = 4;

  std::string name() const {
    return "T" + std::to_string(total_threads) + "-N" + std::to_string(num_nodes);
  }

  int threads_per_node() const { return total_threads / num_nodes; }

  /// Node that owns software thread `tid` under the even distribution.
  topology::NodeId node_of_thread(int tid) const {
    return tid / threads_per_node();
  }

  /// Throws Error(kUsage), worded for the CLI's --config, unless the config
  /// fits `machine`: 1 to num_nodes() nodes, and threads a positive
  /// multiple of the node count, at most one node's hardware threads per
  /// node.
  void check(const topology::Machine& machine) const;

  /// Pins the threads: thread blocks map to consecutive nodes, primary core
  /// contexts first, then the hyperthread contexts (T64-N4 fills all 16
  /// hardware threads of every node).  Throws what check() throws.
  std::vector<sim::SimThread> bind(const topology::Machine& machine) const;

  /// Per-thread owner nodes, the segment map used by co-locate placement
  /// (segment i of a partitioned array belongs to thread i's node).
  std::vector<topology::NodeId> segment_nodes() const;

  /// Nodes actually used by this configuration (0..num_nodes-1).
  std::vector<topology::NodeId> active_nodes() const;
};

/// The paper's eight standard configurations, in Table V order.
std::vector<RunConfig> standard_configs();

/// How a run is placed (§VIII's optimization vocabulary).
enum class PlacementMode {
  kOriginal,    // whatever the benchmark's code does today
  kInterleave,  // numactl --interleave over the active nodes (ground truth)
  kColocate,    // DR-BW-guided data/computation co-location
  kReplicate,   // per-node shadow replicas of read-shared data
};

const char* placement_mode_name(PlacementMode mode);

}  // namespace drbw::workloads
