// Figure 4 — Contribution Fraction distributions across data objects for
// the four diagnosed benchmarks: AMG2006, Streamcluster, LULESH, and NW.
// For each code we profile a contended configuration, classify the
// channels, and run the root-cause diagnoser over the contended ones.
#include "bench_common.hpp"

using namespace drbw;
using namespace drbw::bench;

namespace {

void diagnose_one(const Harness& harness, const DrBw& tool, const char* name,
                  std::size_t input, const workloads::RunConfig& config,
                  CsvWriter* csv) {
  const auto bench = workloads::make_suite_benchmark(name);
  mem::AddressSpace space(harness.machine);
  sim::EngineConfig engine;
  engine.epoch_cycles = 200'000;
  engine.seed = harness.seed ^ 0xf1f4;
  const auto built =
      bench->build(space, harness.machine, config, workloads::PlacementMode::kOriginal,
                   input);
  const auto run = workloads::execute(harness.machine, space, built, engine);
  const Report report = tool.analyze(run);

  std::cout << "\n--- " << name << " (" << bench->input_name(input) << ", "
            << config.name() << ") — "
            << (report.rmc ? "rmc detected" : "no contention detected")
            << " ---\n";
  if (!report.rmc) return;

  BarChart chart("Contribution Fraction", 44);
  for (const auto& c : report.diagnosis.ranking) {
    chart.add(c.site, c.cf);
    if (csv != nullptr) {
      csv->write_row({name, c.site, format_fixed(c.cf, 4)});
    }
  }
  if (report.diagnosis.untracked_samples > 0) {
    chart.add("(untracked static/stack data)", report.diagnosis.untracked_cf);
    if (csv != nullptr) {
      csv->write_row({name, "(untracked)",
                      format_fixed(report.diagnosis.untracked_cf, 4)});
    }
  }
  print_block(std::cout, chart.render());
}

}  // namespace

int main(int argc, char** argv) {
  const auto harness = Harness::from_args(
      argc, argv, "fig4_cf_distribution",
      "Reproduces Fig. 4: CF distribution across data objects");
  if (!harness) return 0;

  const DrBw tool(harness->machine, harness->train());

  heading("Figure 4 — Contribution Fraction distribution across data "
          "objects (§VI, §VIII)");

  std::ofstream csv_file;
  std::optional<CsvWriter> csv;
  if (!harness->csv_path.empty()) {
    csv_file.open(harness->csv_path);
    csv.emplace(csv_file);
    csv->write_row({"benchmark", "object", "cf"});
  }
  CsvWriter* csv_ptr = csv ? &*csv : nullptr;

  diagnose_one(*harness, tool, "amg2006", 0, {64, 4}, csv_ptr);        // Fig 4a
  diagnose_one(*harness, tool, "streamcluster", 1, {64, 4}, csv_ptr);  // Fig 4b
  diagnose_one(*harness, tool, "lulesh", 0, {64, 4}, csv_ptr);         // Fig 4c
  diagnose_one(*harness, tool, "nw", 1, {64, 4}, csv_ptr);             // Fig 4d

  std::cout << '\n';
  paper_note("AMG2006: RAP_diag_j dominates with diag_j/diag_data growing "
             "with node count; Streamcluster: block + point.p exceed 90%; "
             "LULESH: the lulesh.cc:2158-2238 heap arrays sum above 50% "
             "with non-negligible untracked static data; NW: reference and "
             "input_itemsets.");
  measured_note("the same objects top every ranking: RAP_diag_j for "
                "AMG2006, block (then point.p) for Streamcluster, the "
                "m_arrays block for LULESH with a visible untracked share, "
                "and reference/input_itemsets for NW.");
  return 0;
}
