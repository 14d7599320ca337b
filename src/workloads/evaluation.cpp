#include "drbw/workloads/evaluation.hpp"

#include <algorithm>

#include "drbw/util/task_pool.hpp"

namespace drbw::workloads {

namespace {

sim::RunResult run_mode(const topology::Machine& machine,
                        const Benchmark& benchmark, std::size_t input,
                        const RunConfig& config, PlacementMode mode,
                        sim::EngineConfig engine, mem::AddressSpace* out_space) {
  mem::AddressSpace local_space(machine);
  mem::AddressSpace& space = out_space != nullptr
                                 ? *out_space
                                 : local_space;
  const BuiltWorkload built = benchmark.build(space, machine, config, mode, input);
  return execute(machine, space, built, engine);
}

}  // namespace

int BenchmarkEvaluation::actual_rmc() const {
  return static_cast<int>(
      std::count_if(cases.begin(), cases.end(),
                    [](const CaseOutcome& c) { return c.actual_rmc; }));
}

int BenchmarkEvaluation::detected_rmc() const {
  return static_cast<int>(
      std::count_if(cases.begin(), cases.end(),
                    [](const CaseOutcome& c) { return c.detected_rmc; }));
}

ml::ConfusionMatrix EvaluationResult::confusion() const {
  ml::ConfusionMatrix cm;
  for (const BenchmarkEvaluation& bench : benchmarks) {
    for (const CaseOutcome& c : bench.cases) {
      cm.record(c.actual_rmc ? ml::Label::kRmc : ml::Label::kGood,
                c.detected_rmc ? ml::Label::kRmc : ml::Label::kGood);
    }
  }
  return cm;
}

CaseOutcome evaluate_case(const topology::Machine& machine, const DrBw& tool,
                          const Benchmark& benchmark, std::size_t input,
                          const RunConfig& config,
                          const EvaluationOptions& options,
                          std::uint64_t case_seed) {
  CaseOutcome outcome;
  outcome.benchmark = benchmark.name();
  outcome.input = benchmark.input_name(input);
  outcome.config = config;

  // Detection: original placement, DR-BW attached.
  {
    sim::EngineConfig engine = options.engine;
    engine.profiling = true;
    engine.seed = case_seed;
    mem::AddressSpace space(machine);
    const sim::RunResult run = run_mode(machine, benchmark, input, config,
                                        PlacementMode::kOriginal, engine, &space);
    core::AddressSpaceLocator locator(space);
    const Report report = tool.analyze(run, locator);
    outcome.detected_rmc = report.rmc;
    outcome.contended = report.contended;
  }

  // Ground truth: unprofiled original vs interleaved timing (§VII-B).
  sim::EngineConfig timing = options.engine;
  timing.profiling = false;
  timing.seed = case_seed ^ 0x5a5a;
  outcome.original_cycles =
      run_mode(machine, benchmark, input, config, PlacementMode::kOriginal,
               timing, nullptr)
          .total_cycles;
  outcome.interleave_cycles =
      run_mode(machine, benchmark, input, config, PlacementMode::kInterleave,
               timing, nullptr)
          .total_cycles;
  outcome.interleave_speedup =
      static_cast<double>(outcome.original_cycles) /
      static_cast<double>(std::max<std::uint64_t>(outcome.interleave_cycles, 1));
  outcome.actual_rmc = outcome.interleave_speedup > options.ground_truth_speedup;
  return outcome;
}

EvaluationResult evaluate_suite(
    const topology::Machine& machine, const ml::Classifier& model,
    const std::vector<std::unique_ptr<Benchmark>>& benchmarks,
    const EvaluationOptions& options) {
  const DrBw tool(machine, model);

  // Enumerate every (benchmark, input, config) case with its seed first —
  // seed assignment stays a function of enumeration order alone — then fan
  // the independent simulations out and reassemble in order.
  struct PlannedCase {
    std::size_t benchmark = 0;
    std::size_t input = 0;
    RunConfig config;
    std::uint64_t seed = 0;
  };
  std::vector<PlannedCase> planned;
  std::uint64_t case_seed = options.seed;
  for (std::size_t b = 0; b < benchmarks.size(); ++b) {
    for (std::size_t input = 0; input < benchmarks[b]->num_inputs(); ++input) {
      for (const RunConfig& config : options.configs) {
        planned.push_back(PlannedCase{b, input, config, ++case_seed});
      }
    }
  }

  std::vector<CaseOutcome> outcomes(planned.size());
  util::TaskPool pool(options.jobs);
  pool.parallel_for(planned.size(), [&](std::size_t i) {
    const PlannedCase& c = planned[i];
    outcomes[i] = evaluate_case(machine, tool, *benchmarks[c.benchmark],
                                c.input, c.config, options, c.seed);
  });

  EvaluationResult result;
  for (std::size_t b = 0; b < benchmarks.size(); ++b) {
    BenchmarkEvaluation evaluation;
    evaluation.name = benchmarks[b]->name();
    evaluation.suite = benchmarks[b]->suite();
    result.benchmarks.push_back(std::move(evaluation));
  }
  for (std::size_t i = 0; i < planned.size(); ++i) {
    result.benchmarks[planned[i].benchmark].cases.push_back(
        std::move(outcomes[i]));
  }
  return result;
}

const OptimizationRun& OptimizationStudy::run(PlacementMode mode) const {
  for (const OptimizationRun& r : runs) {
    if (r.mode == mode) return r;
  }
  throw Error("optimization study has no run for mode " +
              std::string(placement_mode_name(mode)));
}

double OptimizationStudy::speedup(PlacementMode mode) const {
  return static_cast<double>(run(PlacementMode::kOriginal).total_cycles) /
         static_cast<double>(std::max<std::uint64_t>(run(mode).total_cycles, 1));
}

double OptimizationStudy::phase_speedup(PlacementMode mode,
                                        std::size_t phase) const {
  const auto& original = run(PlacementMode::kOriginal).phases;
  const auto& optimized = run(mode).phases;
  DRBW_CHECK_MSG(phase < original.size() && phase < optimized.size(),
                 "phase index " << phase << " out of range");
  return static_cast<double>(original[phase].cycles) /
         static_cast<double>(std::max<std::uint64_t>(optimized[phase].cycles, 1));
}

double OptimizationStudy::remote_access_reduction(PlacementMode mode) const {
  const double before = run(PlacementMode::kOriginal).remote_dram_accesses;
  if (before <= 0.0) return 0.0;
  return 1.0 - run(mode).remote_dram_accesses / before;
}

double OptimizationStudy::latency_reduction(PlacementMode mode) const {
  const double before = run(PlacementMode::kOriginal).avg_access_latency;
  if (before <= 0.0) return 0.0;
  return 1.0 - run(mode).avg_access_latency / before;
}

OptimizationStudy study_optimization(const topology::Machine& machine,
                                     const Benchmark& benchmark,
                                     std::size_t input, const RunConfig& config,
                                     const std::vector<PlacementMode>& modes,
                                     const EvaluationOptions& options) {
  OptimizationStudy study;
  study.benchmark = benchmark.name();
  study.input = benchmark.input_name(input);
  study.config = config;

  std::vector<PlacementMode> all_modes = modes;
  if (std::find(all_modes.begin(), all_modes.end(), PlacementMode::kOriginal) ==
      all_modes.end()) {
    all_modes.insert(all_modes.begin(), PlacementMode::kOriginal);
  }

  // Placement modes are independent runs with disjoint seeds; fan them out
  // and keep the result vector in mode order.
  study.runs.resize(all_modes.size());
  util::TaskPool pool(options.jobs);
  pool.parallel_for(all_modes.size(), [&](std::size_t m) {
    const PlacementMode mode = all_modes[m];
    sim::EngineConfig engine = options.engine;
    engine.profiling = false;  // speedups are measured unprofiled
    engine.seed = options.seed ^ static_cast<std::uint64_t>(mode);
    const sim::RunResult run = run_mode(machine, benchmark, input, config, mode,
                                        engine, nullptr);
    OptimizationRun r;
    r.mode = mode;
    r.total_cycles = run.total_cycles;
    r.phases = run.phases;
    r.remote_dram_accesses = run.remote_dram_accesses;
    r.dram_accesses = run.dram_accesses;
    r.avg_dram_latency = run.avg_dram_latency;
    r.avg_access_latency = run.avg_access_latency;
    study.runs[m] = std::move(r);
  });
  return study;
}

OverheadResult measure_overhead(const topology::Machine& machine,
                                const Benchmark& benchmark, std::size_t input,
                                const RunConfig& config,
                                const EvaluationOptions& options) {
  OverheadResult result;
  result.benchmark = benchmark.name();

  sim::EngineConfig engine = options.engine;
  engine.seed = options.seed;
  engine.profiling = false;
  result.baseline_seconds =
      run_mode(machine, benchmark, input, config, PlacementMode::kOriginal,
               engine, nullptr)
          .seconds(machine);
  engine.profiling = true;
  result.profiled_seconds =
      run_mode(machine, benchmark, input, config, PlacementMode::kOriginal,
               engine, nullptr)
          .seconds(machine);
  result.overhead_percent = 100.0 *
                            (result.profiled_seconds - result.baseline_seconds) /
                            result.baseline_seconds;
  return result;
}

}  // namespace drbw::workloads
