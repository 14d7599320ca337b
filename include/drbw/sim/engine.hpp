// Epoch-based NUMA execution engine.
//
// The engine advances simulated time in fixed-length epochs.  Within each
// epoch it solves a small fixed-point problem: thread issue rates depend on
// memory latency, memory latency depends on channel utilization, and channel
// utilization depends on thread issue rates.  A few iterations, only as many
// as change the answer, give a self-consistent operating point per epoch;
// saturated channels then ration served traffic to capacity.  This reproduces the macroscopic behaviour
// DR-BW observes on hardware:
//
//   * threads sharing a saturated channel see inflated DRAM latencies,
//   * execution time stops scaling with input size once a channel saturates
//     (the paper's §V-A labelling criterion), and
//   * slightly slowing one contender can speed up the ensemble (the
//     Streamcluster negative-overhead effect in Table VII).
//
// While committing each epoch the engine draws PEBS samples (1 per
// `sample_period` accesses per thread) whose addresses, hit levels, and
// latencies follow the same distributions the analytic models used — the
// profiler above therefore sees statistically consistent evidence.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "drbw/mem/address_space.hpp"
#include "drbw/pebs/sample.hpp"
#include "drbw/sim/access_pattern.hpp"
#include "drbw/sim/bandwidth_model.hpp"
#include "drbw/sim/cache_model.hpp"
#include "drbw/topology/machine.hpp"
#include "drbw/util/rng.hpp"

namespace drbw::sim {

/// One simulated software thread, pinned to a hardware thread (the paper
/// binds threads to cores for every experiment, §VII-A).
struct SimThread {
  std::uint32_t tid = 0;
  topology::CpuId cpu = 0;
};

/// Work for one thread within one phase: bursts execute in order.
struct ThreadWork {
  std::vector<AccessBurst> bursts;

  /// Extra non-memory compute cycles per access for this thread's bursts
  /// (models arithmetic between loads; raises arithmetic intensity).
  double compute_cycles_per_access = 1.0;
};

/// A phase is an OpenMP-parallel-region analogue: all threads execute their
/// work lists concurrently and join at an implicit barrier at the end.
struct Phase {
  std::string name;
  /// Indexed by position in the `threads` vector passed to run().
  std::vector<ThreadWork> work;
};

/// Which hardware sampling facility the simulated PMU mimics (§IV-A).
enum class SamplingFlavor : std::uint8_t {
  /// Intel PEBS arming MEM_TRANS_RETIRED:LATENCY_ABOVE_THRESHOLD: the
  /// period counts *memory accesses* and a latency threshold filters.
  kPebs,
  /// AMD instruction-based sampling for micro-ops (IBS op): the period
  /// counts *all retired ops*, so compute-heavy code yields proportionally
  /// fewer memory samples; there is no latency threshold.  The paper names
  /// AMD support as future work — feature extraction and the classifier
  /// are unchanged, only sample density shifts.
  kIbs,
};

struct EngineConfig {
  std::uint64_t epoch_cycles = 100'000;
  /// PEBS sampling period in accesses (paper: one of every 2000).
  std::uint64_t sample_period = 2000;
  SamplingFlavor sampling_flavor = SamplingFlavor::kPebs;
  /// Whether the DR-BW profiler is attached: emit samples and apply the
  /// per-sample perturbation.  Table VII's baseline runs use false.
  bool profiling = true;
  /// Cost charged to the issuing thread per PEBS sample (interrupt +
  /// buffer drain), amortized into the access cost.
  double profiling_interrupt_cycles = 1000.0;
  /// DRAM traffic generated per PEBS sample when the tool drains its
  /// per-thread buffer (one record flushed per cache line written back).
  /// This is what keeps profiling overhead visible even in runs whose time
  /// is set by a saturated channel rather than by the CPU.
  double profiling_bytes_per_sample = 64.0;
  /// Latency threshold of MEM_TRANS_RETIRED:LATENCY_ABOVE_THRESHOLD —
  /// accesses below it never produce samples.  The paper arms the event
  /// with a low threshold so all hierarchy levels appear; we keep 3 cycles.
  double sample_latency_threshold = 3.0;
  std::uint64_t seed = 12345;
  std::uint64_t max_epochs = 5'000'000;
  /// Cap on rate <-> multiplier fixed-point rounds per epoch.  A round runs
  /// only when one of its inputs changed: rounds stop at the first that
  /// leaves every multiplier's bits unchanged, and an epoch whose threads
  /// kept their bursts and plans runs none.
  int fixed_point_rounds = 3;
  /// Lognormal sigma of per-sample latency jitter.
  double latency_jitter_sigma = 0.18;
  CacheModelConfig cache;
  BandwidthModelConfig bandwidth;
};

/// Aggregate per-channel accounting over a run.
struct ChannelStats {
  double bytes = 0.0;              // DRAM traffic carried
  double peak_utilization = 0.0;   // max epoch utilization observed
  double busy_utilization = 0.0;   // run-average utilization (bytes/(cap*T))
};

struct PhaseResult {
  std::string name;
  std::uint64_t cycles = 0;
};

struct RunResult {
  std::uint64_t total_cycles = 0;
  std::vector<PhaseResult> phases;
  std::vector<pebs::MemorySample> samples;
  std::vector<ChannelStats> channels;  // by machine channel index
  std::vector<mem::AllocationEvent> alloc_events;

  std::uint64_t total_accesses = 0;
  double dram_accesses = 0.0;
  double remote_dram_accesses = 0.0;
  /// Access-count-weighted average latencies (cycles).
  double avg_dram_latency = 0.0;
  double avg_access_latency = 0.0;

  /// Wall-clock seconds at the machine's clock.
  double seconds(const topology::Machine& machine) const {
    return static_cast<double>(total_cycles) / (machine.spec().ghz * 1e9);
  }
};

class Engine {
 public:
  Engine(const topology::Machine& machine, mem::AddressSpace& space,
         EngineConfig config = {});

  /// Runs all phases to completion and returns the full accounting.
  /// `threads` and each phase's `work` must have equal lengths.
  RunResult run(const std::vector<SimThread>& threads,
                const std::vector<Phase>& phases);

  const EngineConfig& config() const { return config_; }

 private:
  struct BurstState;
  struct ThreadState;
  struct SampleTally;

  /// Resolves span/homes/hit-profile for the thread's next pending burst.
  void activate_burst(ThreadState& ts, const AccessBurst& burst);
  /// Cost in cycles per access for the active burst under current channel
  /// multipliers.
  double access_cost(const ThreadState& ts, const ChannelLoad& load) const;
  void emit_samples(ThreadState& ts, std::uint64_t served,
                    std::uint64_t epoch_start, double cost,
                    const ChannelLoad& load, SampleTally& tally,
                    RunResult& result);

  const topology::Machine& machine_;
  mem::AddressSpace& space_;
  EngineConfig config_;
  CacheModel cache_model_;
};

}  // namespace drbw::sim
