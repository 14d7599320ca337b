// Access-burst descriptors: the unit of simulated work.
//
// A workload thread's execution is a sequence of bursts.  Each burst is
// `count` dynamic memory accesses over a byte range of one data object with
// a given pattern.  The cache and bandwidth models operate on bursts
// analytically; the PEBS layer materializes individual sampled accesses from
// the same distributions.  This batch-level treatment is what makes it
// feasible to simulate 10^10-access workloads (the paper's benchmarks run
// for minutes on 64 threads) inside a unit-test-speed engine.
#pragma once

#include <cstdint>
#include <string>

#include "drbw/mem/address_space.hpp"

namespace drbw::sim {

/// Spatial/temporal shape of a burst's address stream.
enum class Pattern : std::uint8_t {
  /// Streaming pass(es) at unit stride: perfectly prefetchable.
  kSequential,
  /// Constant stride larger than one element: partially prefetchable.
  kStrided,
  /// Uniform random over the span: cache hits only from capacity containment.
  kRandom,
  /// Dependent pointer chase through cache-conflicting addresses — the
  /// paper's "bandit" stream: every access is a DRAM access and no two
  /// overlap (memory-level parallelism of 1).
  kPointerChaseConflict,
};

const char* pattern_name(Pattern p);

/// One batch of accesses by one thread to one object region.
struct AccessBurst {
  mem::ObjectId object = 0;
  Pattern pattern = Pattern::kSequential;
  /// Number of dynamic accesses in the burst.
  std::uint64_t count = 0;
  /// Region of the object the burst touches: [offset, offset + span).
  /// span == 0 means "the whole object".
  std::uint64_t offset_bytes = 0;
  std::uint64_t span_bytes = 0;
  /// Element size of each access.
  std::uint32_t elem_bytes = 8;
  /// Stride between consecutive accesses (kStrided only; kSequential uses
  /// elem_bytes, kRandom ignores it).
  std::uint32_t stride_bytes = 8;
  bool is_write = false;
  /// Independent dependence chains in the burst (kPointerChaseConflict
  /// only): the bandit's tunable "number of streams" (§V-A2).  Each stream
  /// is a serialized pointer chase; streams overlap with one another, so
  /// this is exactly the burst's memory-level parallelism.
  std::uint32_t parallel_streams = 1;

  /// Temporal working set of the issuing thread between reuses of this
  /// burst's data, in bytes.  0 means "just this burst's span".  A stencil
  /// that sweeps 29 arrays per iteration reuses each array only after
  /// touching all the others, so its effective reuse distance is the
  /// per-thread share of the *whole* footprint — set that here and the
  /// cache model will evict accordingly.
  std::uint64_t working_set_bytes = 0;

  /// Fraction of the private caches (L1/L2) available to the thread: 0.5
  /// when two hyperthreads share a core, 1.0 otherwise.
  double l12_share = 1.0;
  /// Fraction of the socket's shared L3 available to the thread: with k
  /// co-resident threads on the socket this is 1/k.
  double l3_share = 1.0;
};

/// Convenience builders keep workload specs readable.
AccessBurst seq_read(mem::ObjectId obj, std::uint64_t count,
                     std::uint64_t offset = 0, std::uint64_t span = 0,
                     std::uint32_t elem = 8);
AccessBurst seq_write(mem::ObjectId obj, std::uint64_t count,
                      std::uint64_t offset = 0, std::uint64_t span = 0,
                      std::uint32_t elem = 8);
AccessBurst random_read(mem::ObjectId obj, std::uint64_t count,
                        std::uint64_t offset = 0, std::uint64_t span = 0,
                        std::uint32_t elem = 8);

}  // namespace drbw::sim
