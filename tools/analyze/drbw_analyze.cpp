// drbw_analyze — whole-program contract analyzer for DR-BW.
//
//   drbw_analyze [--root DIR] [--layers F] [--registry F] [--baseline F]
//                [--json-out F] [--emit-dot] [--emit-exit-table]
//                [--max-findings N]
//
// Lexes every translation unit under include/, src/, tools/, tests/, bench/
// and examples/ once and runs four pass families over the shared model: the
// include graph against the committed layer DAG (tools/analyze/layers.json),
// every emitted fault-site / metric / span / stage name against the
// committed registry (tools/analyze/registry.json) plus the test suite and
// CI, the determinism dataflow rules, and the ten token-level line rules
// (rand, wall clocks, raw allocation, header hygiene, ...).  Findings are
// filtered through in-source `// drbw-analyze: allow(<rule>) <reason>`
// annotations and the committed baseline (tools/analyze/baseline.json);
// anything new fails the run.
//
// Exit codes: 0 clean, 1 new or stale findings, 2 internal error.
// `--emit-dot` and `--emit-exit-table` print the generated DESIGN.md layer
// diagram / README exit-code table instead of analyzing.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "analyze_model.hpp"
#include "analyze_passes.hpp"
#include "analyze_report.hpp"
#include "drbw/util/cli.hpp"
#include "drbw/util/error.hpp"
#include "drbw/util/strings.hpp"

namespace {

std::string slurp_if_exists(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace drbw;
  namespace fs = std::filesystem;
  ArgParser parser("drbw_analyze",
                   "Whole-program contract analyzer: layer DAG, name "
                   "registry, determinism dataflow, line rules (see README "
                   "— Static analysis)");
  parser.add_option("root", "repository root to scan", ".");
  parser.add_option("layers", "layer spec (default <root>/tools/analyze/layers.json)", "");
  parser.add_option("registry", "name registry (default <root>/tools/analyze/registry.json)", "");
  parser.add_option("baseline", "suppression baseline (default <root>/tools/analyze/baseline.json; missing file = empty)", "");
  parser.add_option("json-out", "write the SARIF-style findings artifact here", "");
  parser.add_option("max-findings", "truncate text output after N findings", "200");
  parser.add_flag("emit-dot", "print the layer graph as DOT and exit");
  parser.add_flag("emit-exit-table", "print the README exit-code table and exit");

  try {
    if (!parser.parse(argc, argv)) return 0;
    const fs::path root = parser.option("root");
    const auto path_or = [&](const char* opt, const char* fallback) {
      const std::string v = parser.option(opt);
      return v.empty() ? (root / fallback).string() : v;
    };

    const analyze::LayerSpec spec =
        analyze::LayerSpec::load(path_or("layers", "tools/analyze/layers.json"));
    const analyze::Registry registry = analyze::Registry::load(
        path_or("registry", "tools/analyze/registry.json"));

    if (parser.flag("emit-exit-table")) {
      std::cout << analyze::exit_table_markdown(registry);
      return 0;
    }

    // Fixture trees under tests/analyze/ are inputs for analyze_test, not
    // part of the program; tools/analyze itself is scanned like any layer.
    const analyze::Model model = analyze::load_tree(
        root.string(), {"include", "src", "tools", "tests", "bench", "examples"},
        spec,
        {"tests/analyze/"});

    const analyze::LayerResult layers = analyze::check_layers(model, spec);
    if (parser.flag("emit-dot")) {
      std::cout << analyze::layer_dot(layers, spec);
      return 0;
    }

    analyze::RegistryContext context;
    for (const analyze::Tu& tu : model.tus) {
      if (drbw::starts_with(tu.rel, "tests/")) {
        context.coverage_text += slurp_if_exists(root / tu.rel);
      }
    }
    context.coverage_text += slurp_if_exists(root / "tests/CMakeLists.txt");
    context.coverage_text +=
        slurp_if_exists(root / ".github/workflows/ci.yml");
    context.readme_text = slurp_if_exists(root / "README.md");
    context.postmortem_text =
        slurp_if_exists(root / "src/report/postmortem.cpp");

    std::vector<analyze::Finding> findings = layers.findings;
    const analyze::Extraction extraction = analyze::extract_names(model);
    for (analyze::Finding& f :
         analyze::check_registry(registry, extraction, context)) {
      findings.push_back(std::move(f));
    }
    for (analyze::Finding& f : analyze::check_dataflow(model)) {
      findings.push_back(std::move(f));
    }
    for (analyze::Finding& f : analyze::check_lint(model)) {
      findings.push_back(std::move(f));
    }

    std::vector<analyze::BaselineEntry> baseline;
    const std::string baseline_path =
        path_or("baseline", "tools/analyze/baseline.json");
    if (fs::exists(baseline_path)) {
      baseline = analyze::load_baseline(baseline_path);
    }

    const analyze::AnalysisResult result =
        analyze::finalize(std::move(findings), model, baseline);

    const std::string json_out = parser.option("json-out");
    if (!json_out.empty()) {
      std::ofstream out(json_out, std::ios::binary);
      if (!out) {
        throw Error("drbw_analyze: cannot write " + json_out, ErrorCode::kIo);
      }
      out << analyze::render_json(result);
    }

    const auto limit =
        static_cast<std::size_t>(parser.option_int("max-findings"));
    analyze::AnalysisResult shown = result;
    if (shown.fresh.size() > limit) {
      const std::size_t dropped = shown.fresh.size() - limit;
      shown.fresh.resize(limit);
      std::cout << render_text(shown) << "... and " << dropped
                << " more new finding(s)\n";
    } else {
      std::cout << render_text(shown);
    }
    return result.clean() ? 0 : 1;
  } catch (const Error& e) {
    std::cerr << "drbw_analyze: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "drbw_analyze: internal error: " << e.what() << "\n";
    return 2;
  }
}
