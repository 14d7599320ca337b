// PEBS-style memory access samples.
//
// This is the record DR-BW consumes.  On the paper's hardware it comes from
// Intel PEBS sampling of MEM_TRANS_RETIRED:LATENCY_ABOVE_THRESHOLD with a
// period of 2000 memory accesses per thread; each record carries the
// effective address, the data source in the memory hierarchy, the access
// latency in core cycles, and the CPU the instruction retired on.  The
// simulator's sampler emits exactly the same schema, so everything above
// this layer (profiler, features, classifier, diagnoser) is the real tool.
#pragma once

#include <cstdint>
#include <string>

#include "drbw/mem/address_space.hpp"
#include "drbw/topology/machine.hpp"

namespace drbw::pebs {

/// Data source of a sampled load/store, as PEBS reports it.  LFB = line fill
/// buffer (the access caught a cache line already in flight — typical for
/// hardware-prefetched streams).  Local/remote DRAM is the distinction the
/// paper's selected features (Table I, features 6-9) are built on.
enum class MemLevel : std::uint8_t {
  kL1,
  kL2,
  kL3,
  kLfb,
  kLocalDram,
  kRemoteDram,
};

const char* level_name(MemLevel level);

inline bool is_dram(MemLevel level) {
  return level == MemLevel::kLocalDram || level == MemLevel::kRemoteDram;
}

/// One sampled memory access.  Fields are ordered widest first so the
/// record packs into 32 bytes: a 1M-sample trace is 32 MB, not 40.
struct MemorySample {
  mem::Addr address = 0;
  std::uint64_t cycle = 0;       // retirement timestamp (simulated clock)
  topology::CpuId cpu = 0;       // hardware thread the access retired on
  std::uint32_t tid = 0;         // software thread id
  float latency_cycles = 0.0f;   // load-to-use latency
  MemLevel level = MemLevel::kL1;
  bool is_write = false;
};
static_assert(sizeof(MemorySample) == 32, "MemorySample must pack to 32 bytes");

/// The 0-based access offsets at which samples fire within one batch, in
/// increasing order: `count` terms of the progression first + i * period.
struct SampleFires {
  std::uint64_t first = 0;
  std::uint64_t count = 0;
  std::uint64_t period = 1;

  std::uint64_t at(std::uint64_t i) const { return first + i * period; }
};

/// Deterministic 1-in-N sampler with a randomized phase per thread,
/// mirroring PEBS counter arming.  Feed it batches of access counts; it
/// reports how many samples fire in the batch and at which access offsets.
class PeriodSampler {
 public:
  /// `period` = average accesses between samples (the paper uses 2000).
  /// `phase_seed` randomizes the initial countdown so co-running threads do
  /// not sample in lockstep.
  PeriodSampler(std::uint64_t period, std::uint64_t phase_seed);

  /// Consumes `accesses` accesses and returns where samples fire in them.
  SampleFires consume(std::uint64_t accesses);

  /// Number of samples that fire for `accesses`: consume(accesses).count.
  std::uint64_t count_only(std::uint64_t accesses) {
    return consume(accesses).count;
  }

  std::uint64_t period() const { return period_; }

 private:
  std::uint64_t period_;
  std::uint64_t countdown_;
};

}  // namespace drbw::pebs
