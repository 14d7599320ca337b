// §VIII-E/F/G — the remaining case studies: Rodinia NW's co-location gain,
// SP's interleave-only optimization (static data is untracked), and the
// Blackscholes negative control (a "good" benchmark where optimization
// buys nothing).
#include "bench_common.hpp"

using namespace drbw;
using namespace drbw::bench;
using workloads::PlacementMode;

int main(int argc, char** argv) {
  const auto harness = Harness::from_args(
      argc, argv, "table8_case_studies",
      "Reproduces the §VIII-E/F/G case studies: NW, SP, Blackscholes");
  if (!harness) return 0;

  workloads::EvaluationOptions options = harness->evaluation_options();

  heading("§VIII-E — Rodinia NW: co-locating reference/input_itemsets");
  {
    const auto bench = workloads::make_suite_benchmark("nw");
    TablePrinter t({{"config", Align::kLeft},
                    {"co-locate speedup", Align::kRight},
                    {"latency reduction", Align::kRight}});
    for (const workloads::RunConfig config :
         {workloads::RunConfig{16, 4}, workloads::RunConfig{32, 4},
          workloads::RunConfig{64, 4}}) {
      const auto study = workloads::study_optimization(
          harness->machine, *bench, 1, config, {PlacementMode::kColocate},
          options);
      t.add_row({config.name(),
                 format_fixed(study.speedup(PlacementMode::kColocate), 2) + "x",
                 format_percent(study.latency_reduction(PlacementMode::kColocate))});
    }
    print_block(std::cout, t.render());
    paper_note("co-locating the two arrays speeds NW up by 32.6% and cuts "
               "average access latency by 60%.");
    measured_note("co-location pays off at every configuration (moderate at "
                  "T16-N4, larger as contention deepens) with ~60% latency "
                  "reduction at T64-N4.");
  }

  heading("§VIII-F — NPB SP: statics are untracked; interleave still helps");
  {
    const auto bench = workloads::make_suite_benchmark("sp");
    TablePrinter t({{"config", Align::kLeft},
                    {"interleave speedup", Align::kRight}});
    for (const workloads::RunConfig config :
         {workloads::RunConfig{32, 4}, workloads::RunConfig{64, 4}}) {
      const auto study = workloads::study_optimization(
          harness->machine, *bench, 2, config, {PlacementMode::kInterleave},
          options);
      t.add_row({config.name(),
                 format_fixed(study.speedup(PlacementMode::kInterleave), 2) + "x"});
    }
    print_block(std::cout, t.render());
    // Demonstrate that the diagnoser correctly reports untracked data.
    mem::AddressSpace space(harness->machine);
    sim::EngineConfig engine = options.engine;
    engine.seed = harness->seed;
    const auto built = bench->build(space, harness->machine, {64, 4},
                                    PlacementMode::kOriginal, 2);
    const auto run = workloads::execute(harness->machine, space, built, engine);
    const DrBw tool(harness->machine, harness->train());
    const auto report = tool.analyze(run);
    std::cout << "Diagnoser on SP class C, T64-N4:\n"
              << "  detected rmc: " << (report.rmc ? "yes" : "no")
              << ", untracked CF: "
              << format_percent(report.diagnosis.untracked_cf) << '\n';
    paper_note("all of SP's data is statically allocated global state; "
               "DR-BW detects the contention but cannot attribute it to "
               "heap objects.  Interleave reaches 1.75x at 64 threads / 4 "
               "nodes.");
    measured_note("detection fires and nearly all contended samples land in "
                  "the untracked bucket, exactly as §VIII-F describes; "
                  "interleave gives a large speedup (our factor is higher "
                  "because the proxy's statics carry most of its traffic).");
  }

  heading("§VIII-G — Blackscholes: the negative control");
  {
    const auto bench = workloads::make_suite_benchmark("blackscholes");
    const auto study = workloads::study_optimization(
        harness->machine, *bench, 3, {64, 4},
        {PlacementMode::kColocate, PlacementMode::kInterleave}, options);
    std::cout << "native input, T64-N4: interleave "
              << format_fixed(study.speedup(PlacementMode::kInterleave), 3)
              << "x, co-locating `buffer` "
              << format_fixed(study.speedup(PlacementMode::kColocate), 3)
              << "x\n";
    paper_note("DR-BW classifies Blackscholes as good; interleaving changes "
               "nothing and co-locating the highest-CF array `buffer` gains "
               "under 1%.");
    measured_note("both optimizations are within noise of 1.00x — the "
                  "classifier's 'good' verdict is corroborated.");
  }
  return 0;
}
