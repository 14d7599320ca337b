#include "drbw/workloads/config.hpp"

#include <string>

#include "drbw/util/error.hpp"

namespace drbw::workloads {

void RunConfig::check(const topology::Machine& machine) const {
  const int per_node = static_cast<int>(machine.cpus_of_node(0).size());
  std::string why;
  if (num_nodes < 1 || num_nodes > machine.num_nodes()) {
    why = "nodes must be between 1 and " + std::to_string(machine.num_nodes());
  } else if (total_threads < 1 || total_threads % num_nodes != 0 ||
             threads_per_node() > per_node) {
    why = "threads must be a positive multiple of the node count, at most " +
          std::to_string(per_node) + " per node (" +
          std::to_string(machine.num_hw_threads()) + " in total)";
  } else {
    return;
  }
  throw Error("--config expects Tt-Nn (e.g. T32-N4), got '" + name() +
                  "': " + why,
              ErrorCode::kUsage);
}

std::vector<sim::SimThread> RunConfig::bind(
    const topology::Machine& machine) const {
  check(machine);
  const int per_node = threads_per_node();

  std::vector<sim::SimThread> threads;
  threads.reserve(static_cast<std::size_t>(total_threads));
  for (int tid = 0; tid < total_threads; ++tid) {
    const topology::NodeId node = node_of_thread(tid);
    const auto& cpus = machine.cpus_of_node(node);
    threads.push_back(sim::SimThread{
        static_cast<std::uint32_t>(tid),
        cpus[static_cast<std::size_t>(tid % per_node)]});
  }
  return threads;
}

std::vector<topology::NodeId> RunConfig::segment_nodes() const {
  std::vector<topology::NodeId> nodes;
  nodes.reserve(static_cast<std::size_t>(total_threads));
  for (int tid = 0; tid < total_threads; ++tid) {
    nodes.push_back(node_of_thread(tid));
  }
  return nodes;
}

std::vector<topology::NodeId> RunConfig::active_nodes() const {
  std::vector<topology::NodeId> nodes;
  for (int n = 0; n < num_nodes; ++n) nodes.push_back(n);
  return nodes;
}

std::vector<RunConfig> standard_configs() {
  return {
      {16, 4}, {24, 4}, {32, 4}, {64, 4}, {24, 3}, {16, 2}, {24, 2}, {32, 2},
  };
}

const char* placement_mode_name(PlacementMode mode) {
  switch (mode) {
    case PlacementMode::kOriginal: return "original";
    case PlacementMode::kInterleave: return "interleave";
    case PlacementMode::kColocate: return "co-locate";
    case PlacementMode::kReplicate: return "replicate";
  }
  return "?";
}

}  // namespace drbw::workloads
