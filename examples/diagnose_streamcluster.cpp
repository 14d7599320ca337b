// Full pipeline on the paper's flagship case study (§VIII-C): profile
// Streamcluster, detect the contended channels, rank the guilty data
// objects by Contribution Fraction, then apply and validate the
// replication fix DR-BW's diagnosis suggests.
//
// Usage: ./examples/diagnose_streamcluster [--config T32-N4] [--seed N]
#include <iostream>

#include "drbw/drbw.hpp"
#include "drbw/util/cli.hpp"
#include "drbw/util/strings.hpp"
#include "drbw/workloads/evaluation.hpp"
#include "drbw/workloads/suite.hpp"
#include "drbw/workloads/training.hpp"

using namespace drbw;

namespace {

workloads::RunConfig parse_config(const std::string& name) {
  // "T<t>-N<n>"
  const auto parts = split(name, '-');
  DRBW_CHECK_MSG(parts.size() == 2 && parts[0].size() > 1 && parts[1].size() > 1,
                 "config must look like T32-N4, got '" << name << "'");
  workloads::RunConfig config;
  config.total_threads = std::stoi(parts[0].substr(1));
  config.num_nodes = std::stoi(parts[1].substr(1));
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser parser("diagnose_streamcluster",
                   "Detect, diagnose, and fix Streamcluster's remote "
                   "bandwidth contention");
  parser.add_option("config", "Tt-Nn execution configuration", "T32-N4");
  parser.add_option("seed", "workload/profiling seed", "7");
  if (!parser.parse(argc, argv)) return 0;

  const topology::Machine machine = topology::Machine::xeon_e5_4650();
  const workloads::RunConfig config = parse_config(parser.option("config"));
  const auto seed = static_cast<std::uint64_t>(parser.option_int("seed"));

  std::cout << "Training the classifier...\n";
  const DrBw tool(machine, workloads::train_default_classifier(machine));
  const auto bench = workloads::make_suite_benchmark("streamcluster");

  // --- 1. profile the original program ---
  std::cout << "\nProfiling streamcluster (native input, " << config.name()
            << ", original placement)...\n";
  sim::EngineConfig engine;
  engine.seed = seed;
  mem::AddressSpace space(machine);
  const auto built = bench->build(space, machine, config,
                                  workloads::PlacementMode::kOriginal, 1);
  const auto run = workloads::execute(machine, space, built, engine);
  std::cout << "collected " << run.samples.size() << " PEBS samples over "
            << format_count(run.total_accesses) << " accesses ("
            << format_fixed(run.seconds(machine) * 1e3, 2) << " ms)\n\n";

  // --- 2. detect + diagnose ---
  const Report report = tool.analyze(run);
  std::cout << report.to_string(machine);
  if (!report.rmc) {
    std::cout << "\nNo contention at this configuration — try a heavier "
                 "one (e.g. --config T64-N4).\n";
    return 0;
  }

  // --- 3. apply the suggested fix and measure ---
  std::cout << "\n`block` is read-only after initialization, so the fix is "
               "per-node replication.\nApplying PlacementMode::kReplicate "
               "and re-running...\n\n";
  workloads::EvaluationOptions options;
  options.seed = seed;
  const auto study = workloads::study_optimization(
      machine, *bench, 1, config,
      {workloads::PlacementMode::kReplicate,
       workloads::PlacementMode::kInterleave},
      options);
  std::cout << "replicate:  "
            << format_fixed(study.speedup(workloads::PlacementMode::kReplicate), 2)
            << "x speedup, remote accesses reduced by "
            << format_percent(
                   study.remote_access_reduction(workloads::PlacementMode::kReplicate))
            << "\ninterleave: "
            << format_fixed(study.speedup(workloads::PlacementMode::kInterleave), 2)
            << "x speedup (the coarse-grained alternative)\n";
  return 0;
}
