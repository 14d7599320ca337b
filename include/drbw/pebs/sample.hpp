// PEBS-style memory access samples.
//
// This is the record DR-BW consumes.  On the paper's hardware it comes from
// Intel PEBS sampling of MEM_TRANS_RETIRED:LATENCY_ABOVE_THRESHOLD with a
// period of 2000 memory accesses per thread; each record carries the
// effective address, the data source in the memory hierarchy, the access
// latency in core cycles, and the CPU the instruction retired on.  The tool
// adds the home node of the sampled page, which it asks move_pages for as
// it collects the sample.  The simulator's sampler emits exactly the same
// schema, home included, so everything above this layer (profiler,
// features, classifier, diagnoser) is the real tool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

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
/// record packs into 32 bytes: a 1M-sample trace is 32 MB, not 40.  The
/// struct has no padding: its last two bytes are `home` and one explicit
/// `reserved` byte, so on a little-endian host its object image is exactly a
/// v5 binary trace record (trace_io.hpp), and the loader can read the
/// samples straight from the mapped file.  Every byte value of every field
/// is a valid value (the level enum has a fixed u8 base and the write flag
/// is a byte, not a bool), so a viewed file that another process rewrites
/// after the load's checks changes the samples read, never makes reading
/// them undefined.
///
/// `home` is the node the sampled page lives on, stamped when the sample is
/// taken, the way DR-BW asks move_pages for each sampled address (§IV-B).
/// With the CPU's node it names the sample's directed channel.  A trace
/// older than v5 carries no home, and its samples load homed on node 0.
struct MemorySample {
  mem::Addr address = 0;
  std::uint64_t cycle = 0;       // retirement timestamp (simulated clock)
  topology::CpuId cpu = 0;       // hardware thread the access retired on
  std::uint32_t tid = 0;         // software thread id
  float latency_cycles = 0.0f;   // load-to-use latency
  MemLevel level = MemLevel::kL1;
  std::uint8_t is_write = 0;    // 1 for a store; read any non-zero as one
  std::uint8_t home = 0;        // node the sampled page lives on
  std::uint8_t reserved = 0;    // zero; a v5 trace rejects anything else
};
static_assert(sizeof(MemorySample) == 32, "MemorySample must pack to 32 bytes");
static_assert(alignof(MemorySample) == 8);
static_assert(offsetof(MemorySample, cycle) == 8 &&
                  offsetof(MemorySample, cpu) == 16 &&
                  offsetof(MemorySample, tid) == 20 &&
                  offsetof(MemorySample, latency_cycles) == 24 &&
                  offsetof(MemorySample, level) == 28 &&
                  offsetof(MemorySample, is_write) == 29 &&
                  offsetof(MemorySample, home) == 30 &&
                  offsetof(MemorySample, reserved) == 31,
              "MemorySample's image is the v5 trace record");

/// A read-only run of samples, shared on copy: an owned vector, or a view
/// into memory another object keeps alive (a loaded binary trace's file
/// mapping).  Copying costs one reference count, so a trace and a run hand
/// their samples to each other without copying one.  It reads like a const
/// vector and, being a contiguous range, converts implicitly to
/// std::span<const MemorySample>, which is what the analysis stages take.
class SampleArray {
 public:
  SampleArray() = default;
  /// Owns `samples` (moved in, or copied from an lvalue).
  // NOLINTNEXTLINE(google-explicit-constructor)
  SampleArray(std::vector<MemorySample> samples) {
    if (samples.empty()) return;
    auto owned =
        std::make_shared<const std::vector<MemorySample>>(std::move(samples));
    data_ = owned->data();
    size_ = owned->size();
    owner_ = std::move(owned);
  }
  /// Views `count` samples at `data`, which stay valid while `owner` lives.
  SampleArray(std::shared_ptr<const void> owner, const MemorySample* data,
              std::size_t count)
      : owner_(std::move(owner)), data_(data), size_(count) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const MemorySample* data() const { return data_; }
  const MemorySample& operator[](std::size_t i) const { return data_[i]; }
  const MemorySample* begin() const { return data_; }
  const MemorySample* end() const { return data_ + size_; }

 private:
  std::shared_ptr<const void> owner_;
  const MemorySample* data_ = nullptr;
  std::size_t size_ = 0;
};

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
