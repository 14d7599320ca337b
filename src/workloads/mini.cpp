#include "drbw/workloads/mini.hpp"

namespace drbw::workloads {

namespace {

ProxySpec vector_op(std::string name, int vectors, double compute_cpa,
                    std::uint64_t vector_bytes, bool master_alloc) {
  ProxySpec spec;
  spec.name = std::move(name);
  spec.suite = "mini";
  spec.inputs = {{"tuned", 1.0}};
  spec.master_alloc = master_alloc;
  spec.base_accesses = 6'000'000;
  spec.compute_cpa = compute_cpa;

  PhaseSpec loop;
  loop.name = "parallel-for";
  loop.accesses_fraction = 1.0;
  for (int v = 0; v < vectors; ++v) {
    const std::string site =
        spec.name + ".c:" + std::to_string(20 + v) + " vec" + std::to_string(v);
    spec.arrays.push_back(ArrayDecl{site, vector_bytes, ArrayRole::kPartitioned});
    loop.uses.push_back(ArrayUse{site, 1.0 / vectors, sim::Pattern::kSequential,
                                 false, 8, 8, 1});
  }
  spec.phases.push_back(std::move(loop));
  return spec;
}

}  // namespace

ProxySpec sumv_spec(std::uint64_t vector_bytes, bool master_alloc) {
  return vector_op("sumv", 1, 1.0, vector_bytes, master_alloc);
}

ProxySpec dotv_spec(std::uint64_t vector_bytes, bool master_alloc) {
  // Two streams halve the per-array intensity but double the footprint.
  return vector_op("dotv", 2, 1.2, vector_bytes, master_alloc);
}

ProxySpec countv_spec(std::uint64_t vector_bytes, bool master_alloc) {
  // A compare + conditional increment per element: more compute per access.
  return vector_op("countv", 1, 1.7, vector_bytes, master_alloc);
}

ProxySpec bandit_spec(std::uint32_t streams, topology::NodeId memory_node,
                      std::uint64_t buffer_bytes) {
  DRBW_CHECK_MSG(streams >= 1, "bandit needs at least one stream");
  ProxySpec spec;
  spec.name = "bandit";
  spec.suite = "mini";
  spec.inputs = {{"tuned", 1.0}};
  spec.master_alloc = true;  // huge pages explicitly placed
  // Every access is a serialized DRAM miss, so far fewer accesses are
  // needed per run than for the cached vector ops.
  spec.base_accesses = 900'000;
  spec.compute_cpa = 1.0;

  spec.arrays.push_back(ArrayDecl{"bandit.c:52 stream_buf", buffer_bytes,
                                  ArrayRole::kPartitioned, memory_node});
  PhaseSpec chase;
  chase.name = "chase";
  chase.accesses_fraction = 1.0;
  ArrayUse use;
  use.site = "bandit.c:52 stream_buf";
  use.weight = 1.0;
  use.pattern = sim::Pattern::kPointerChaseConflict;
  use.streams = streams;
  chase.uses.push_back(use);
  spec.phases.push_back(std::move(chase));
  return spec;
}

}  // namespace drbw::workloads
