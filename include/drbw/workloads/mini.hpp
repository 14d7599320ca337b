// The training mini-programs of §V-A.
//
// No standard benchmark suite exists for bandwidth contention, so DR-BW is
// trained on four purpose-built programs:
//
//   * sumv   — OpenMP vector summation: each thread sums its share.
//   * dotv   — dot product: two vectors, each thread its shares.
//   * countv — occurrence counting: one vector, a compare per element.
//   * bandit — single-threaded conflict pointer-chase streams that always
//              miss in cache (after Eklov et al.'s Bandwidth Bandit);
//              instances co-run, with tunable stream counts and a chosen
//              memory node for the huge-page buffer.
//
// Data sizes, placements, thread counts, and node bindings are the tuning
// knobs that put a run in "good" or "rmc" mode.
#pragma once

#include "drbw/workloads/benchmark.hpp"

namespace drbw::workloads {

/// Vector summation.  `master_alloc` = true reproduces the problematic
/// master-thread allocation (everything on node 0); false models parallel
/// first-touch initialization.
ProxySpec sumv_spec(std::uint64_t vector_bytes, bool master_alloc);

/// Dot product over two vectors of `vector_bytes` each.
ProxySpec dotv_spec(std::uint64_t vector_bytes, bool master_alloc);

/// Occurrence count (one vector; higher compute per element than sumv).
ProxySpec countv_spec(std::uint64_t vector_bytes, bool master_alloc);

/// Bandwidth-bandit instance set: each software thread is one co-running
/// bandit instance chasing `streams` conflict streams through its own slice
/// of a buffer homed on `memory_node`.
ProxySpec bandit_spec(std::uint32_t streams, topology::NodeId memory_node,
                      std::uint64_t buffer_bytes = 256ull << 20);

}  // namespace drbw::workloads
