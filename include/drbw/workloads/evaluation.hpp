// Evaluation harnesses (§VII, §VIII).
//
// * evaluate_suite — Table IV/V/VI: every benchmark × input × Tt-Nn
//   configuration is run once with DR-BW attached (detection) and twice
//   without profiling (original vs interleaved timing).  Ground truth
//   follows §VII-B: a case is "actually" rmc when full-program memory
//   interleaving speeds it up by more than 10%.
// * study_optimization — Figs 5-8 and the §VIII case studies: runs a
//   benchmark under each placement mode and reports per-phase speedups,
//   remote-access reduction, and latency reduction.
// * measure_overhead — Table VII: paired runs with and without the DR-BW
//   profiler attached.
#pragma once

#include <string>
#include <vector>

#include "drbw/drbw.hpp"
#include "drbw/ml/metrics.hpp"
#include "drbw/workloads/benchmark.hpp"
#include "drbw/workloads/config.hpp"

namespace drbw::workloads {

struct EvaluationOptions {
  /// §VII-B's predefined threshold: interleave speedup > 10% => actual rmc.
  double ground_truth_speedup = 1.10;
  std::uint64_t seed = 4242;
  /// Concurrent cases in evaluate_suite / modes in study_optimization
  /// (each case owns its seed and address space): 1 = serial, 0 = one per
  /// hardware thread.  Results are identical at every value.
  int jobs = 1;
  sim::EngineConfig engine;
  std::vector<RunConfig> configs = standard_configs();

  EvaluationOptions() { engine.epoch_cycles = 200'000; }
};

struct CaseOutcome {
  std::string benchmark;
  std::string input;
  RunConfig config;
  bool detected_rmc = false;
  bool actual_rmc = false;
  double interleave_speedup = 1.0;  // t_original / t_interleaved
  std::uint64_t original_cycles = 0;
  std::uint64_t interleave_cycles = 0;
  std::vector<topology::ChannelId> contended;
};

struct BenchmarkEvaluation {
  std::string name;
  std::string suite;
  std::vector<CaseOutcome> cases;

  int total() const { return static_cast<int>(cases.size()); }
  int actual_rmc() const;
  int detected_rmc() const;
  /// Table IV's per-benchmark class: rmc iff any case is detected rmc.
  bool classified_rmc() const { return detected_rmc() > 0; }
};

struct EvaluationResult {
  std::vector<BenchmarkEvaluation> benchmarks;

  /// Table VI: detection vs interleave ground truth, pooled over all cases.
  ml::ConfusionMatrix confusion() const;
};

/// Runs one case: detection (profiled original) + ground truth (unprofiled
/// original vs interleave timing).
CaseOutcome evaluate_case(const topology::Machine& machine, const DrBw& tool,
                          const Benchmark& benchmark, std::size_t input,
                          const RunConfig& config,
                          const EvaluationOptions& options,
                          std::uint64_t case_seed);

/// Full Table V sweep over `benchmarks`.
EvaluationResult evaluate_suite(
    const topology::Machine& machine, const ml::Classifier& model,
    const std::vector<std::unique_ptr<Benchmark>>& benchmarks,
    const EvaluationOptions& options = {});

// ---------------------------------------------------------------------- //

struct OptimizationRun {
  PlacementMode mode = PlacementMode::kOriginal;
  std::uint64_t total_cycles = 0;
  std::vector<sim::PhaseResult> phases;
  double remote_dram_accesses = 0.0;
  double dram_accesses = 0.0;
  double avg_dram_latency = 0.0;
  double avg_access_latency = 0.0;
};

struct OptimizationStudy {
  std::string benchmark;
  std::string input;
  RunConfig config;
  std::vector<OptimizationRun> runs;

  const OptimizationRun& run(PlacementMode mode) const;
  /// t_original / t_mode.
  double speedup(PlacementMode mode) const;
  /// Per-phase speedup (phases are index-aligned across modes).
  double phase_speedup(PlacementMode mode, std::size_t phase) const;
  /// Fractional reduction of remote DRAM accesses vs original.
  double remote_access_reduction(PlacementMode mode) const;
  /// Fractional reduction of the average memory access latency vs original.
  double latency_reduction(PlacementMode mode) const;
};

OptimizationStudy study_optimization(const topology::Machine& machine,
                                     const Benchmark& benchmark,
                                     std::size_t input, const RunConfig& config,
                                     const std::vector<PlacementMode>& modes,
                                     const EvaluationOptions& options = {});

// ---------------------------------------------------------------------- //

struct OverheadResult {
  std::string benchmark;
  double baseline_seconds = 0.0;
  double profiled_seconds = 0.0;
  /// (profiled - baseline) / baseline, in percent; can be negative when the
  /// profiling perturbation relieves contention (Streamcluster, Table VII).
  double overhead_percent = 0.0;
};

OverheadResult measure_overhead(const topology::Machine& machine,
                                const Benchmark& benchmark, std::size_t input,
                                const RunConfig& config,
                                const EvaluationOptions& options = {});

}  // namespace drbw::workloads
