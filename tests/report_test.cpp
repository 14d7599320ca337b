// Tests for the Markdown report generator.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "drbw/report/markdown.hpp"
#include "drbw/workloads/mini.hpp"
#include "drbw/workloads/training.hpp"

namespace drbw::report {
namespace {

using topology::Machine;

class ReportTest : public ::testing::Test {
 protected:
  static const Machine& machine() {
    static const Machine m = Machine::xeon_e5_4650();
    return m;
  }

  /// A contended sumv run fully analyzed.
  static std::pair<Report, std::vector<WindowVerdict>> analyzed() {
    static const auto result = [] {
      const DrBw tool(machine(),
                      workloads::train_default_classifier(machine()));
      mem::AddressSpace space(machine());
      const workloads::ProxyBenchmark bench(
          workloads::sumv_spec(512ull << 20, /*master_alloc=*/true));
      sim::EngineConfig engine;
      engine.seed = 44;
      const auto built =
          bench.build(space, machine(), workloads::RunConfig{32, 4},
                      workloads::PlacementMode::kOriginal, 0);
      const auto run = workloads::execute(machine(), space, built, engine);
      return std::make_pair(tool.analyze(run),
                            tool.analyze_windows(run,
                                                 run.total_cycles / 4 + 1));
    }();
    return result;
  }
};

TEST_F(ReportTest, ContendedReportHasAllSections) {
  const auto [result, windows] = analyzed();
  ASSERT_TRUE(result.rmc);
  ReportMeta meta;
  meta.title = "sumv under master allocation";
  meta.workload = "sumv 512MiB T32-N4";
  meta.notes = "regression investigation";
  const std::string md = to_markdown(result, machine(), meta);

  EXPECT_NE(md.find("# sumv under master allocation"), std::string::npos);
  EXPECT_NE(md.find("remote memory bandwidth contention"), std::string::npos);
  EXPECT_NE(md.find("## Per-channel classification"), std::string::npos);
  EXPECT_NE(md.find("## Root cause — Contribution Fractions"), std::string::npos);
  EXPECT_NE(md.find("## Optimization guidance"), std::string::npos);
  EXPECT_NE(md.find("sumv.c:20 vec0"), std::string::npos);
  EXPECT_NE(md.find("co-locate"), std::string::npos);
  EXPECT_NE(md.find("> regression investigation"), std::string::npos);
  // CF bar present and the table is well formed (every row has 5 pipes).
  EXPECT_NE(md.find("####"), std::string::npos);
}

TEST_F(ReportTest, CleanReportOmitsDiagnosis) {
  Report clean;
  clean.rmc = false;
  const std::string md = to_markdown(clean, machine());
  EXPECT_NE(md.find("no remote bandwidth contention"), std::string::npos);
  EXPECT_EQ(md.find("## Root cause"), std::string::npos);
  EXPECT_EQ(md.find("## Optimization guidance"), std::string::npos);
}

TEST_F(ReportTest, TimelineRendersEveryWindow) {
  const auto [result, windows] = analyzed();
  const std::string md = timeline_markdown(windows, machine());
  EXPECT_NE(md.find("## Contention timeline"), std::string::npos);
  // One table row per window (plus 2 header lines).
  std::size_t rows = 0;
  for (std::size_t at = md.find("\n| ["); at != std::string::npos;
       at = md.find("\n| [", at + 1)) {
    ++rows;
  }
  EXPECT_EQ(rows, windows.size());
}

TEST_F(ReportTest, IdenticalProfilesRenderIdenticalMarkdown) {
  // Determinism regression for the heap-tracker path (by_site_ is ordered,
  // not hashed): two pipelines built from scratch over the same seeded run
  // must render byte-identical reports, object table and CF ranking included.
  const auto render_once = [] {
    const DrBw tool(machine(), workloads::train_default_classifier(machine()));
    mem::AddressSpace space(machine());
    const workloads::ProxyBenchmark bench(
        workloads::sumv_spec(512ull << 20, /*master_alloc=*/true));
    sim::EngineConfig engine;
    engine.seed = 44;
    const auto built =
        bench.build(space, machine(), workloads::RunConfig{32, 4},
                    workloads::PlacementMode::kOriginal, 0);
    const auto run = workloads::execute(machine(), space, built, engine);
    return to_markdown(tool.analyze(run), machine());
  };
  EXPECT_EQ(render_once(), render_once());
}

TEST_F(ReportTest, TelemetrySectionRendersGoldenRowsOnly) {
  obs::Registry registry;
  EXPECT_EQ(telemetry_markdown(registry), "");  // nothing registered yet
  registry.counter("drbw_report_demo_total", "demo counter").add(3);
  registry.counter("drbw_report_diag_total", "jobs-dependent",
                   obs::Visibility::kDiagnostic);
  const std::string md = telemetry_markdown(registry);
  EXPECT_NE(md.find("## Run telemetry"), std::string::npos);
  EXPECT_NE(md.find("| `drbw_report_demo_total` | counter | 3 |"),
            std::string::npos);
  EXPECT_EQ(md.find("drbw_report_diag_total"), std::string::npos);
  EXPECT_NE(telemetry_markdown(registry, true).find("drbw_report_diag_total"),
            std::string::npos);
}

TEST_F(ReportTest, WriteFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/drbw_report.md";
  write_file(path, "# hello\n");
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "# hello");
  std::remove(path.c_str());
  EXPECT_THROW(write_file("/nonexistent/dir/report.md", "x"), Error);
}

}  // namespace
}  // namespace drbw::report
