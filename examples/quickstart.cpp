// Quickstart: the smallest complete DR-BW session.
//
//   1. describe the machine (the paper's 4-socket Xeon E5-4650),
//   2. train the classifier from the mini-program runs (§V),
//   3. run a workload twice — once bandwidth-friendly, once with the
//      classic master-thread allocation bug — and
//   4. let DR-BW classify each run and, for the contended one, rank the
//      data objects responsible.
//
// Build & run:  ./examples/quickstart
#include <iostream>

#include "drbw/drbw.hpp"
#include "drbw/workloads/mini.hpp"
#include "drbw/workloads/training.hpp"

using namespace drbw;

int main() {
  const topology::Machine machine = topology::Machine::xeon_e5_4650();
  std::cout << "Machine: " << machine.spec().name << " ("
            << machine.num_nodes() << " NUMA nodes, " << machine.num_cores()
            << " cores)\n\n";

  // --- train the detector once (about 200 ms of simulated profiling) ---
  const ml::Classifier model = workloads::train_default_classifier(machine);
  const DrBw tool(machine, model);

  // --- a workload in two flavours: sumv over 512 MiB with 32 threads on
  //     4 nodes, with parallel-first-touch vs master-thread allocation ---
  const workloads::RunConfig config{32, 4};
  for (const bool master_alloc : {false, true}) {
    std::cout << "=== sumv, " << config.name() << ", "
              << (master_alloc ? "master-thread allocation (all pages on node 0)"
                               : "parallel first-touch initialization")
              << " ===\n";
    mem::AddressSpace space(machine);
    const workloads::ProxyBenchmark bench(
        workloads::sumv_spec(512ull << 20, master_alloc));
    const auto built = bench.build(space, machine, config,
                                   workloads::PlacementMode::kOriginal, 0);
    const sim::RunResult run = workloads::execute(machine, space, built, {});

    const Report report = tool.analyze(run);
    std::cout << report.to_string(machine)
              << "execution time: " << run.seconds(machine) * 1e3 << " ms\n\n";
  }

  std::cout << "The master-allocated run is flagged 'rmc' on the channels "
               "into node 0 and the\nvector is blamed with CF ~1 — the fix "
               "is to co-locate each thread's share\n(PlacementSpec::colocate), "
               "as the paper's §VIII case studies do.\n";
  return 0;
}
