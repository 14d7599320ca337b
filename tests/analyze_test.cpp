// Tests for drbw_analyze (tools/analyze): the layer-DAG pass against the
// fixture mini-trees under tests/analyze/, the registry cross-check against
// a fixture registry plus hand-built extractions, the determinism dataflow
// rules against in-memory models, the reporting pipeline (allow-comment
// escape hatch, baseline split, stale detection, SARIF output), and the ten
// line rules against fixture snippets.
//
// Fixture trees (DRBW_ANALYZE_FIXTURE_DIR) are lexed but never compiled —
// they exist so every rule provably fires with the exact expected chain,
// subject, and fingerprint.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analyze_model.hpp"
#include "analyze_passes.hpp"
#include "analyze_report.hpp"
#include "drbw/util/error.hpp"
#include "drbw/util/json.hpp"

namespace drbw::analyze {
namespace {

const std::string kFixtureDir = DRBW_ANALYZE_FIXTURE_DIR;

/// Builds an in-memory model from (rel path, source) pairs — the dataflow
/// and reporting tests do not need files on disk.
Model make_model(const std::vector<std::pair<std::string, std::string>>& tus) {
  Model model;
  for (const auto& [rel, source] : tus) {
    Tu tu;
    tu.rel = rel;
    tu.layer = 0;
    tu.lex = lex(source);
    model.by_rel.emplace(rel, model.tus.size());
    model.tus.push_back(std::move(tu));
  }
  return model;
}

const Finding* find_rule(const std::vector<Finding>& findings,
                         std::string_view rule) {
  for (const Finding& f : findings) {
    if (f.rule == rule) return &f;
  }
  return nullptr;
}

std::size_t count_rule(const std::vector<Finding>& findings,
                       std::string_view rule) {
  std::size_t n = 0;
  for (const Finding& f : findings) {
    if (f.rule == rule) ++n;
  }
  return n;
}

bool has_fingerprint(const std::vector<Finding>& findings,
                     std::string_view fingerprint) {
  for (const Finding& f : findings) {
    if (f.fingerprint == fingerprint) return true;
  }
  return false;
}

// ------------------------------------------------------------ lexer model

TEST(AnalyzeModelTest, LexBlanksLiteralsAndHarvests) {
  const Lexed lexed = lex(
      "#include \"drbw/util/error.hpp\"\n"
      "#include <vector>\n"
      "// drbw-analyze: allow(unordered-flow) keys sorted two lines up\n"
      "const char* raw = R\"(not \"code\")\";\n"
      "int big = 6'000'000; // digit separators stay one number\n"
      "const char* name = \"site.alpha\";\n");
  ASSERT_EQ(lexed.includes.size(), 2u);
  EXPECT_EQ(lexed.includes[0].path, "drbw/util/error.hpp");
  EXPECT_FALSE(lexed.includes[0].angled);
  EXPECT_TRUE(lexed.includes[1].angled);
  ASSERT_EQ(lexed.allows.size(), 1u);
  EXPECT_EQ(lexed.allows[0].rule, "unordered-flow");
  EXPECT_EQ(lexed.allows[0].reason, "keys sorted two lines up");
  EXPECT_EQ(lexed.allows[0].line, 3u);
  // The raw string's body and comments are blanked out of the token stream.
  EXPECT_EQ(lexed.blanked.find("not"), std::string::npos);
  EXPECT_EQ(lexed.blanked.find("separators"), std::string::npos);
  bool saw_name_literal = false;
  for (const Literal& lit : lexed.literals) {
    if (lit.text == "site.alpha") saw_name_literal = true;
  }
  EXPECT_TRUE(saw_name_literal);
  // 6'000'000 must lex as one number token, not three.
  for (const Token& t : lexed.tokens) {
    EXPECT_NE(t.text, "000");
  }
}

// -------------------------------------------------------------- layer DAG

TEST(AnalyzeLayersTest, CycleFixtureReportsCanonicalChain) {
  const std::string root = kFixtureDir + "/cycle";
  const LayerSpec spec = LayerSpec::load(root + "/layers.json");
  const Model model = load_tree(root, {"src"}, spec);
  ASSERT_EQ(model.tus.size(), 3u);

  const LayerResult result = check_layers(model, spec);
  ASSERT_EQ(result.findings.size(), 1u);
  const Finding& f = result.findings[0];
  EXPECT_EQ(f.rule, "include-cycle");
  EXPECT_EQ(f.file, "src/a.hpp");  // anchored at the smallest member
  const std::string chain =
      "src/a.hpp -> src/b.hpp -> src/c.hpp -> src/a.hpp";
  EXPECT_EQ(f.fingerprint, "include-cycle|src/a.hpp|" + chain);
  EXPECT_NE(f.message.find(chain), std::string::npos);
}

TEST(AnalyzeLayersTest, BackEdgeFixtureReportsRuleAndSubject) {
  const std::string root = kFixtureDir + "/backedge";
  const LayerSpec spec = LayerSpec::load(root + "/layers.json");
  const Model model = load_tree(root, {"src"}, spec);

  const LayerResult result = check_layers(model, spec);
  ASSERT_EQ(result.findings.size(), 1u);
  const Finding& f = result.findings[0];
  EXPECT_EQ(f.rule, "layer-back-edge");
  EXPECT_EQ(f.file, "src/low/x.hpp");
  EXPECT_EQ(f.line, 3u);  // the #include line
  EXPECT_EQ(f.fingerprint, "layer-back-edge|src/low/x.hpp|src/high/y.hpp");
  EXPECT_NE(f.message.find("layer 'low', rank 0"), std::string::npos);
  EXPECT_NE(f.message.find("layer 'high', rank 1"), std::string::npos);
  EXPECT_NE(f.message.find("src/low/x.hpp -> src/high/y.hpp"),
            std::string::npos);

  // The observed layer edge feeds the DOT diagram, marked red as a back-edge.
  ASSERT_EQ(result.layer_edges.size(), 1u);
  EXPECT_EQ(result.layer_edges[0].first, "low");
  EXPECT_EQ(result.layer_edges[0].second, "high");
  const std::string dot = layer_dot(result, spec);
  EXPECT_NE(dot.find("\"low\" -> \"high\" [color=red, label=\"back-edge\"]"),
            std::string::npos);
}

TEST(AnalyzeLayersTest, BlessedExceptionSuppressesBackEdge) {
  const std::string root = kFixtureDir + "/backedge";
  const LayerSpec spec = LayerSpec::parse(
      R"({"layers": [{"name": "low", "paths": ["src/low/"]},
                     {"name": "high", "paths": ["src/high/"]}],
          "exceptions": [{"from": "src/low/x.hpp", "to": "src/high/",
                          "reason": "fixture: blessed for the test"}]})",
      "inline");
  const Model model = load_tree(root, {"src"}, spec);
  const LayerResult result = check_layers(model, spec);
  EXPECT_TRUE(result.findings.empty());
}

TEST(AnalyzeLayersTest, ExceptionWithoutReasonIsRejected) {
  try {
    LayerSpec::parse(
        R"({"layers": [{"name": "a", "paths": ["src/"]}],
            "exceptions": [{"from": "x", "to": "y", "reason": "  "}]})",
        "inline");
    FAIL() << "expected kParse";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParse);
  }
}

TEST(AnalyzeLayersTest, SkipLevelIncludeIsLegal) {
  const std::string root = kFixtureDir + "/skiplevel";
  const LayerSpec spec = LayerSpec::load(root + "/layers.json");
  const Model model = load_tree(root, {"src"}, spec);
  ASSERT_EQ(model.tus.size(), 3u);

  const LayerResult result = check_layers(model, spec);
  EXPECT_TRUE(result.findings.empty());  // top -> bottom skips mid: fine
  // Both downward edges observed, none marked as back-edges in the DOT.
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"mid", "bottom"}, {"top", "bottom"}};
  EXPECT_EQ(result.layer_edges, expected);
  const std::string dot = layer_dot(result, spec);
  EXPECT_EQ(dot.find("back-edge"), std::string::npos);
  EXPECT_NE(dot.find("\"bottom\" [label=\"bottom (rank 0)\"]"),
            std::string::npos);
}

TEST(AnalyzeLayersTest, UnmappedFileIsFlagged) {
  // A spec whose only layer claims src/low/ leaves src/high/y.hpp unmapped.
  const std::string root = kFixtureDir + "/backedge";
  const LayerSpec spec = LayerSpec::parse(
      R"({"layers": [{"name": "low", "paths": ["src/low/"]}]})", "inline");
  const Model model = load_tree(root, {"src"}, spec);
  const LayerResult result = check_layers(model, spec);
  const Finding* f = find_rule(result.findings, "unmapped-file");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->file, "src/high/y.hpp");
  EXPECT_EQ(f->fingerprint, "unmapped-file|src/high/y.hpp|src/high/y.hpp");
}

// --------------------------------------------------------------- registry

TEST(AnalyzeRegistryTest, FixtureTreeCrossCheck) {
  const std::string root = kFixtureDir + "/registry";
  const LayerSpec spec = LayerSpec::load(root + "/layers.json");
  const Model model = load_tree(root, {"include", "src"}, spec);
  const Registry registry = Registry::load(root + "/registry.json");
  const Extraction extraction = extract_names(model);

  RegistryContext context;  // empty coverage: nothing is tested
  const std::vector<Finding> findings =
      check_registry(registry, extraction, context);

  EXPECT_TRUE(has_fingerprint(
      findings, "unregistered-name|src/emit.cpp|fault_sites:site.rogue"));
  EXPECT_TRUE(has_fingerprint(findings,
                              "dead-registry-entry|tools/analyze/"
                              "registry.json|fault_sites:site.dead"));
  EXPECT_TRUE(has_fingerprint(
      findings, "untested-name|src/emit.cpp|fault_sites:site.real"));
  EXPECT_TRUE(has_fingerprint(findings,
                              "unregistered-name|include/drbw/util/"
                              "error.hpp|error_tokens:mystery-token"));
  // exit_code_for returns 99 (unregistered) and never returns 77
  // (registered as error.hpp-sourced).
  EXPECT_TRUE(has_fingerprint(
      findings, "exit-code-drift|include/drbw/util/error.hpp|code:99"));
  EXPECT_TRUE(has_fingerprint(
      findings, "exit-code-drift|tools/analyze/registry.json|code:77"));
  // "usage" is registered, emitted, and error tokens need no coverage — and
  // exit code 64 agrees everywhere; nothing else may fire.
  EXPECT_EQ(findings.size(), 6u);

  // Naming site.real in the coverage text clears the untested finding.
  RegistryContext covered;
  covered.coverage_text = "EXPECT_THROW(arm(\"site.real\"), ...)";
  const std::vector<Finding> after =
      check_registry(registry, extraction, covered);
  EXPECT_FALSE(has_fingerprint(
      after, "untested-name|src/emit.cpp|fault_sites:site.real"));
  EXPECT_EQ(after.size(), 5u);
}

TEST(AnalyzeRegistryTest, ExtractNamesFindsEveryCallShape) {
  const Model model = make_model({{"src/x.cpp", R"cpp(
#include "drbw/obs/metrics.hpp"
void run(Session& session, const std::string& dynamic_name) {
  obs::Span span("alpha");
  obs::Span("beta");
  obs::Span ignored(dynamic_name);
  registry().counter("drbw_x_total", 1);
  obs::Trace::instance().counter("epoch", 1);
  if (fault::maybe_fail("site.a", 0)) return;
  util::write_versioned_artifact(out_path, Kind::kModel, 3, body,
                                 "model.write");
  session.stage("build");
}
)cpp"}});
  const Extraction ex = extract_names(model);

  ASSERT_EQ(ex.spans.size(), 2u);  // the dynamic-name Span must not match
  EXPECT_EQ(ex.spans[0].name, "alpha");
  EXPECT_EQ(ex.spans[1].name, "beta");
  ASSERT_EQ(ex.metrics.size(), 1u);
  EXPECT_EQ(ex.metrics[0].name, "drbw_x_total");
  ASSERT_EQ(ex.trace_counters.size(), 1u);  // Trace:: context scanback
  EXPECT_EQ(ex.trace_counters[0].name, "epoch");
  ASSERT_EQ(ex.fault_sites.size(), 2u);
  EXPECT_EQ(ex.fault_sites[0].name, "model.write");  // artifact wrapper
  EXPECT_EQ(ex.fault_sites[1].name, "site.a");
  ASSERT_EQ(ex.stages.size(), 1u);
  EXPECT_EQ(ex.stages[0].name, "build");
}

TEST(AnalyzeRegistryTest, TestFilesDoNotDefineEmissions) {
  const Model model = make_model(
      {{"tests/x_test.cpp", "void f() { obs::Span span(\"ghost\"); }"}});
  const Extraction ex = extract_names(model);
  EXPECT_TRUE(ex.spans.empty());
}

TEST(AnalyzeRegistryTest, ReadmeExitTableDrift) {
  const Registry registry = Registry::parse(
      R"({"exit_codes": [{"code": 0, "meaning": "success", "source": "cli"},
                         {"code": 2, "meaning": "contention", "source": "cli"}]})",
      "inline");
  const Extraction empty;

  // The generated table round-trips with zero findings.
  RegistryContext ok;
  ok.readme_text = "## Exit codes\n\n" + exit_table_markdown(registry);
  EXPECT_TRUE(check_registry(registry, empty, ok).empty());

  // A drifted meaning, a missing row, and an unknown row each fire.
  RegistryContext drifted;
  drifted.readme_text =
      "| code | meaning |\n|------|---------|\n"
      "| 0 | succès |\n| 7 | mystery |\n";
  const std::vector<Finding> findings =
      check_registry(registry, empty, drifted);
  EXPECT_TRUE(has_fingerprint(findings, "exit-code-drift|README.md|readme:0"));
  EXPECT_TRUE(has_fingerprint(findings, "exit-code-drift|README.md|readme:2"));
  EXPECT_TRUE(has_fingerprint(findings, "exit-code-drift|README.md|readme:7"));
  EXPECT_EQ(count_rule(findings, "exit-code-drift"), 3u);

  // No recognizable table at all is its own finding.
  RegistryContext absent;
  absent.readme_text = "nothing tabular here";
  EXPECT_TRUE(has_fingerprint(check_registry(registry, empty, absent),
                              "exit-code-drift|README.md|readme:no-table"));
}

TEST(AnalyzeRegistryTest, DoctorAdviceMustBeHandled) {
  const Registry registry = Registry::parse(
      R"({"error_tokens": [{"name": "generic"},
                           {"name": "io-error", "doctor_advice": true}]})",
      "inline");
  Extraction ex;
  ex.error_tokens.push_back({"generic", "include/drbw/util/error.hpp", 5});
  ex.error_tokens.push_back({"io-error", "include/drbw/util/error.hpp", 6});

  RegistryContext handled;
  handled.postmortem_text = "if (m.error_code == \"io-error\") { ... }";
  EXPECT_TRUE(check_registry(registry, ex, handled).empty());

  RegistryContext missing;
  missing.postmortem_text = "doctor() has no branches yet";
  const std::vector<Finding> findings = check_registry(registry, ex, missing);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].fingerprint,
            "exit-code-drift|src/report/postmortem.cpp|doctor:io-error");
}

TEST(AnalyzeRegistryTest, ExitTableMarkdownIsSortedByCode) {
  const Registry registry = Registry::parse(
      R"({"exit_codes": [{"code": 74, "meaning": "io", "source": "error.hpp"},
                         {"code": 1, "meaning": "generic", "source": "error.hpp"}]})",
      "inline");
  EXPECT_EQ(exit_table_markdown(registry),
            "| code | meaning |\n|------|---------|\n"
            "| 1 | generic |\n| 74 | io |\n");
}

// --------------------------------------------------------------- dataflow

TEST(AnalyzeDataflowTest, EmitInsideUnorderedIterationFires) {
  const Model model = make_model({{"src/r.cpp", R"cpp(
void report(std::ostream& os) {
  std::unordered_map<std::string, int> totals;
  for (const auto& kv : totals) {
    out.write(kv.first);
  }
  for (const auto& kv : totals) {
    os << kv.first;
  }
}
)cpp"}});
  const std::vector<Finding> findings = check_dataflow(model);
  EXPECT_TRUE(has_fingerprint(findings, "unordered-flow|src/r.cpp|totals:write"));
  EXPECT_TRUE(has_fingerprint(findings, "unordered-flow|src/r.cpp|totals:<<"));
  EXPECT_EQ(count_rule(findings, "unordered-flow"), 2u);
}

TEST(AnalyzeDataflowTest, TaintedCarrierReachingEmitterFires) {
  const Model model = make_model({{"src/t.cpp", R"cpp(
void collect() {
  std::unordered_set<std::string> names;
  std::vector<std::string> rows;
  for (const auto& n : names) {
    rows.push_back(n);
  }
  render(rows);
}
)cpp"}});
  const std::vector<Finding> findings = check_dataflow(model);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].fingerprint, "unordered-flow|src/t.cpp|rows:render");
  EXPECT_NE(findings[0].message.find("unsorted"), std::string::npos);
}

TEST(AnalyzeDataflowTest, SortLaundersTheTaint) {
  const Model model = make_model({{"src/s.cpp", R"cpp(
void collect() {
  std::unordered_set<std::string> names;
  std::vector<std::string> rows;
  for (const auto& n : names) {
    rows.push_back(n);
  }
  std::sort(rows.begin(), rows.end());
  render(rows);
}
)cpp"}});
  EXPECT_TRUE(check_dataflow(model).empty());
}

TEST(AnalyzeDataflowTest, MutableGlobalOutsideObsAndFaultFires) {
  const std::string source = R"cpp(
namespace demo {
int g_hits = 0;
const int kLimit = 3;
constexpr double kRate = 0.5;
std::mutex g_mu;
int helper(int x) { return x + 1; }
}
)cpp";
  const std::vector<Finding> findings =
      check_dataflow(make_model({{"src/core/g.cpp", source}}));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].fingerprint,
            "mutable-global-state|src/core/g.cpp|g_hits");

  // The obs/ and fault/ layers own their process-wide singletons.
  EXPECT_TRUE(check_dataflow(make_model({{"src/obs/g.cpp", source}})).empty());
  EXPECT_TRUE(
      check_dataflow(make_model({{"src/fault/g.cpp", source}})).empty());
  // Tests may do what they like.
  EXPECT_TRUE(
      check_dataflow(make_model({{"tests/g_test.cpp", source}})).empty());
}

TEST(AnalyzeDataflowTest, ParallelEmitWithoutTrackFires) {
  const Model model = make_model({{"src/p.cpp", R"cpp(
void fan_out() {
  std::thread worker([&] {
    obs::Span span("chunk");
    crunch();
  });
  worker.join();
}
)cpp"}});
  const std::vector<Finding> findings = check_dataflow(model);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].fingerprint,
            "parallel-emit-no-track|src/p.cpp|thread:Span");
  EXPECT_NE(findings[0].message.find("TraceTrack"), std::string::npos);
}

TEST(AnalyzeDataflowTest, TraceTrackInstallSilencesParallelEmit) {
  const Model model = make_model({{"src/p.cpp", R"cpp(
void fan_out() {
  std::thread worker([&] {
    obs::TraceTrack track(1);
    obs::Span span("chunk");
    crunch();
  });
  worker.join();
}
)cpp"}});
  EXPECT_TRUE(check_dataflow(model).empty());
}

// -------------------------------------------------- allow-comment hatch

TEST(AnalyzeReportTest, MeaningfulAllowSuppressesFinding) {
  const Model model = make_model({{"src/core/g.cpp", R"cpp(
namespace demo {
// drbw-analyze: allow(mutable-global-state) legacy cache, burn-down in M3
int g_cache = 0;
}
)cpp"}});
  const AnalysisResult result =
      finalize(check_dataflow(model), model, {});
  EXPECT_TRUE(result.clean());
  EXPECT_TRUE(result.fresh.empty());
}

TEST(AnalyzeReportTest, ReasonlessAllowIsItsOwnFinding) {
  const Model model = make_model({{"src/core/g.cpp", R"cpp(
namespace demo {
// drbw-analyze: allow(mutable-global-state) .
int g_cache = 0;
}
)cpp"}});
  const AnalysisResult result =
      finalize(check_dataflow(model), model, {});
  // The bare allow earns a finding AND the original violation stands.
  EXPECT_EQ(result.fresh.size(), 2u);
  EXPECT_TRUE(has_fingerprint(
      result.fresh, "allow-missing-reason|src/core/g.cpp|"
                    "allow:mutable-global-state"));
  EXPECT_TRUE(has_fingerprint(
      result.fresh, "mutable-global-state|src/core/g.cpp|g_cache"));
}

TEST(AnalyzeReportTest, AllowForTheWrongRuleDoesNotSuppress) {
  const Model model = make_model({{"src/core/g.cpp", R"cpp(
namespace demo {
// drbw-analyze: allow(unordered-flow) wrong rule named here
int g_cache = 0;
}
)cpp"}});
  const AnalysisResult result =
      finalize(check_dataflow(model), model, {});
  ASSERT_EQ(result.fresh.size(), 1u);
  EXPECT_EQ(result.fresh[0].rule, "mutable-global-state");
}

// ------------------------------------------------------ baseline + output

TEST(AnalyzeReportTest, BaselineSplitsAndFlagsStaleEntries) {
  const Model model = make_model({});
  std::vector<Finding> findings;
  findings.push_back(make_finding("unregistered-name", "src/a.cpp", 10,
                                  "metrics:drbw_new_total", "new metric"));
  findings.push_back(make_finding("layer-back-edge", "src/b.cpp", 20,
                                  "src/c.hpp", "old debt"));
  const std::vector<BaselineEntry> baseline = {
      {"layer-back-edge|src/b.cpp|src/c.hpp", "blessed since the seed"},
      {"unordered-flow|src/gone.cpp|m:write", "paid down last PR"},
  };
  const AnalysisResult result = finalize(std::move(findings), model, baseline);
  ASSERT_EQ(result.fresh.size(), 1u);
  EXPECT_EQ(result.fresh[0].rule, "unregistered-name");
  ASSERT_EQ(result.suppressed.size(), 1u);
  EXPECT_EQ(result.suppressed[0].rule, "layer-back-edge");
  ASSERT_EQ(result.stale.size(), 1u);
  EXPECT_EQ(result.stale[0].rule, "stale-baseline");
  EXPECT_NE(result.stale[0].message.find("unordered-flow|src/gone.cpp|m:write"),
            std::string::npos);
  EXPECT_FALSE(result.clean());  // fresh or stale both fail the run

  const std::string text = render_text(result);
  EXPECT_NE(text.find("1 new finding(s), 1 baseline-suppressed"),
            std::string::npos);
  EXPECT_NE(text.find("1 stale baseline entry"), std::string::npos);
  EXPECT_NE(text.find("FAIL"), std::string::npos);
}

TEST(AnalyzeReportTest, BaselineEntryNeedsReason) {
  try {
    parse_baseline(R"({"suppressions": [{"fingerprint": "x|y|z",
                                         "reason": ""}]})",
                   "inline");
    FAIL() << "expected kParse";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParse);
  }
  EXPECT_TRUE(parse_baseline(R"({})", "inline").empty());
}

TEST(AnalyzeReportTest, RankingPutsStructuralFindingsFirst) {
  const Model model = make_model({});
  std::vector<Finding> findings;
  findings.push_back(make_finding("untested-name", "src/a.cpp", 1,
                                  "spans:x", "hygiene"));
  findings.push_back(make_finding("layer-back-edge", "src/z.cpp", 99,
                                  "src/a.hpp", "structural"));
  findings.push_back(make_finding("exit-code-drift", "src/m.cpp", 5,
                                  "code:9", "contract"));
  const AnalysisResult result = finalize(std::move(findings), model, {});
  ASSERT_EQ(result.fresh.size(), 3u);
  EXPECT_EQ(result.fresh[0].rule, "layer-back-edge");
  EXPECT_EQ(result.fresh[1].rule, "exit-code-drift");
  EXPECT_EQ(result.fresh[2].rule, "untested-name");
}

TEST(AnalyzeReportTest, SarifJsonRoundTrips) {
  const Model model = make_model({});
  std::vector<Finding> findings;
  findings.push_back(make_finding("layer-back-edge", "src/b.cpp", 20,
                                  "src/c.hpp", "upward include"));
  const std::vector<BaselineEntry> baseline = {
      {"stale|fingerprint|here", "long gone"}};
  const AnalysisResult result = finalize(std::move(findings), model, baseline);

  const Json doc = Json::parse(render_json(result));
  EXPECT_EQ(doc.at("version").as_string(), "2.1.0");
  const Json& run = doc.at("runs").as_array().at(0);
  EXPECT_EQ(run.at("tool").at("driver").at("name").as_string(),
            "drbw_analyze");
  const JsonArray& results = run.at("results").as_array();
  ASSERT_EQ(results.size(), 2u);  // the fresh finding + the stale entry
  EXPECT_EQ(results[0].at("ruleId").as_string(), "layer-back-edge");
  EXPECT_EQ(results[0].at("level").as_string(), "error");
  EXPECT_EQ(results[0].at("properties").at("disposition").as_string(),
            "fresh");
  EXPECT_EQ(results[0]
                .at("locations")
                .as_array()
                .at(0)
                .at("physicalLocation")
                .at("artifactLocation")
                .at("uri")
                .as_string(),
            "src/b.cpp");
  EXPECT_EQ(results[1].at("ruleId").as_string(), "stale-baseline");
  EXPECT_EQ(results[1].at("properties").at("disposition").as_string(),
            "stale");
  EXPECT_FALSE(run.at("properties").at("clean").as_bool());

  // An empty result still renders a well-formed (empty) results array.
  const AnalysisResult empty_result = finalize({}, model, {});
  const Json empty_doc = Json::parse(render_json(empty_result));
  EXPECT_TRUE(empty_doc.at("runs")
                  .as_array()
                  .at(0)
                  .at("results")
                  .as_array()
                  .empty());
  EXPECT_TRUE(
      empty_doc.at("runs").as_array().at(0).at("properties").at("clean")
          .as_bool());
}

// ------------------------------------------------------------- line rules
//
// Each line rule is pinned against fixture snippets: the construct it must
// catch, the look-alikes it must not (member calls, comments, string
// literals, digit separators), and the allow-comment escape hatch.  The
// harness lexes one snippet into a model, runs check_lint, and applies the
// allow hatch through finalize — exactly what the tree sweep does.  A final
// fixture seeds a violation into a temp tree and runs the directory walker.

FileRoles classify(const std::string& path) { return file_roles(path); }

std::vector<Finding> check(const std::string& path, std::string_view source) {
  const Model model = make_model({{path, std::string(source)}});
  return finalize(check_lint(model), model, {}).fresh;
}

bool has_rule(const std::vector<Finding>& findings, std::string_view rule) {
  return find_rule(findings, rule) != nullptr;
}

AnalysisResult run(const std::string& root,
                   const std::vector<std::string>& subdirs) {
  const Model model = load_tree(root, subdirs, LayerSpec{});
  return finalize(check_lint(model), model, {});
}

TEST(LintClassifyTest, LayersAndEmittersFollowPaths) {
  EXPECT_TRUE(classify("src/mem/address_space.cpp").in_mem_layer);
  EXPECT_TRUE(classify("include/drbw/mem/address_space.hpp").in_mem_layer);
  EXPECT_FALSE(classify("src/sim/engine.cpp").in_mem_layer);
  EXPECT_TRUE(classify("include/drbw/util/rng.hpp").is_rng_home);
  EXPECT_TRUE(classify("include/drbw/util/json.hpp").is_public_header);
  EXPECT_FALSE(classify("bench/bench_common.hpp").is_public_header);
  EXPECT_TRUE(classify("src/report/markdown.cpp").is_emitter);
  EXPECT_TRUE(classify("src/pebs/trace_io.cpp").is_emitter);
  EXPECT_TRUE(classify("src/ml/dataset.cpp").is_emitter);
  EXPECT_TRUE(classify("src/ml/decision_tree.cpp").is_emitter);
  EXPECT_TRUE(classify("src/util/artifact.cpp").is_artifact_home);
  EXPECT_FALSE(classify("src/pebs/trace_io.cpp").is_artifact_home);
  EXPECT_TRUE(classify("tools/drbw_cli.cpp").is_emitter);
  EXPECT_FALSE(classify("src/sim/engine.cpp").is_emitter);
  EXPECT_FALSE(classify("tools/analyze/analyze_lint.cpp").is_emitter);
  EXPECT_TRUE(classify("src/obs/wall_clock.cpp").is_obs_wall_home);
  EXPECT_FALSE(classify("include/drbw/obs/trace.hpp").is_obs_wall_home);
  EXPECT_TRUE(classify("bench/micro_obs.cpp").is_bench);
  EXPECT_FALSE(classify("src/obs/trace.cpp").is_bench);
}

TEST(LintPreprocessTest, BlanksCommentsAndLiteralsKeepsLines) {
  const Lexed s = lex(
      "int a; // trailing note\n"
      "/* block\n   spanning */ int b;\n"
      "const char* s = \"text with )\\\" escape\";\n"
      "char c = 'x'; int n = 6'000'000;\n");
  EXPECT_EQ(s.blanked.find("trailing"), std::string::npos);
  EXPECT_EQ(s.blanked.find("spanning"), std::string::npos);
  EXPECT_EQ(s.blanked.find("text"), std::string::npos);
  EXPECT_NE(s.blanked.find("int b;"), std::string::npos);
  // Digit separators are not char literals: the numeral survives blanking.
  EXPECT_NE(s.blanked.find("6'000'000"), std::string::npos);
  // Newlines survive so findings keep their line numbers.
  EXPECT_EQ(std::count(s.blanked.begin(), s.blanked.end(), '\n'), 5);
}

TEST(LintPreprocessTest, RawStringsAreBlanked) {
  const Lexed s = lex(
      "auto j = Json::parse(R\"({\"seed\": \"rand\"})\");\nint keep;\n");
  EXPECT_EQ(s.blanked.find("seed"), std::string::npos);
  EXPECT_NE(s.blanked.find("int keep;"), std::string::npos);
}

TEST(LintPreprocessTest, HarvestsAllowAnnotations) {
  const Lexed s = lex(
      "// drbw-analyze: allow(unordered-iter) keys are re-sorted before emission\n"
      "// drbw-analyze: allow(raw-alloc)\n");
  ASSERT_EQ(s.allows.size(), 2u);
  EXPECT_EQ(s.allows[0].rule, "unordered-iter");
  EXPECT_TRUE(meaningful_reason(s.allows[0].reason));
  EXPECT_EQ(s.allows[0].line, 1u);
  EXPECT_EQ(s.allows[1].rule, "raw-alloc");
  EXPECT_FALSE(meaningful_reason(s.allows[1].reason));
}

TEST(LintPreprocessTest, TokenReasonsDoNotCountAsJustification) {
  // "." / "--" / "ok" say nothing — a reason needs at least three
  // characters with a letter in them.
  const Lexed s = lex(
      "// drbw-analyze: allow(unordered-iter) .\n"
      "// drbw-analyze: allow(unordered-iter) --\n"
      "// drbw-analyze: allow(unordered-iter) ok\n"
      "// drbw-analyze: allow(unordered-iter) 1234\n"
      "// drbw-analyze: allow(unordered-iter) see sort() two lines down\n");
  ASSERT_EQ(s.allows.size(), 5u);
  EXPECT_FALSE(meaningful_reason(s.allows[0].reason));
  EXPECT_FALSE(meaningful_reason(s.allows[1].reason));
  EXPECT_FALSE(meaningful_reason(s.allows[2].reason));
  EXPECT_FALSE(meaningful_reason(s.allows[3].reason));
  EXPECT_TRUE(meaningful_reason(s.allows[4].reason));
}

TEST(LintRandTest, CatchesRandFamilyCalls) {
  EXPECT_TRUE(has_rule(check("src/sim/engine.cpp", "int x = rand();\n"),
                       "no-rand"));
  EXPECT_TRUE(has_rule(check("src/sim/engine.cpp", "srand(42);\n"), "no-rand"));
  EXPECT_TRUE(
      has_rule(check("src/sim/engine.cpp", "int x = std::rand();\n"),
               "no-rand"));
}

TEST(LintRandTest, IgnoresMembersCommentsAndStrings) {
  EXPECT_FALSE(has_rule(check("a.cpp", "dist.rand();\n"), "no-rand"));
  EXPECT_FALSE(has_rule(check("a.cpp", "gen->srand(1);\n"), "no-rand"));
  EXPECT_FALSE(has_rule(check("a.cpp", "// rand() was here\n"), "no-rand"));
  EXPECT_FALSE(
      has_rule(check("a.cpp", "const char* s = \"rand()\";\n"), "no-rand"));
  EXPECT_FALSE(has_rule(check("a.cpp", "int random_index = f();\n"),
                        "no-rand"));
}

TEST(LintRandomDeviceTest, BannedOutsideRngHome) {
  const std::string snippet = "std::random_device rd;\n";
  EXPECT_TRUE(has_rule(check("src/sim/engine.cpp", snippet),
                       "no-random-device"));
  EXPECT_FALSE(has_rule(check("include/drbw/util/rng.hpp",
                              "#pragma once\nstd::random_device rd;\n"),
                        "no-random-device"));
}

TEST(LintWallclockTest, CatchesTimeCallsNotLookalikes) {
  EXPECT_TRUE(has_rule(check("a.cpp", "auto seed = time(nullptr);\n"),
                       "no-wallclock"));
  EXPECT_TRUE(
      has_rule(check("a.cpp", "auto t = std::time(0);\n"), "no-wallclock"));
  EXPECT_TRUE(has_rule(check("a.cpp", "auto c = clock();\n"), "no-wallclock"));
  // Includes, members, plain variables named clock/time.
  EXPECT_FALSE(has_rule(check("a.cpp", "#include <ctime>\n"), "no-wallclock"));
  EXPECT_FALSE(has_rule(check("a.cpp", "stopwatch.time();\n"), "no-wallclock"));
  EXPECT_FALSE(
      has_rule(check("a.cpp", "clock += epoch_cycles;\n"), "no-wallclock"));
  // chrono-based benchmark timing is deliberately out of scope.
  EXPECT_FALSE(has_rule(check("bench/micro_executor.cpp",
                              "auto t0 = Clock::now();\n"),
                        "no-wallclock"));
}

TEST(LintObsWallclockTest, ChronoClocksConfinedToObsShim) {
  // Anywhere outside src/obs/ the clock types are findings...
  EXPECT_TRUE(has_rule(
      check("src/sim/engine.cpp",
            "auto t = std::chrono::steady_clock::now();\n"),
      "obs-wallclock"));
  EXPECT_TRUE(has_rule(
      check("src/core/profiler.cpp",
            "using C = std::chrono::system_clock;\n"),
      "obs-wallclock"));
  EXPECT_TRUE(has_rule(
      check("tools/drbw_cli.cpp",
            "std::chrono::high_resolution_clock::now();\n"),
      "obs-wallclock"));
  // ...and an allow comment cannot launder them there.
  EXPECT_TRUE(has_rule(
      check("src/sim/engine.cpp",
            "// drbw-analyze: allow(obs-wallclock) trust me\n"
            "auto t = std::chrono::steady_clock::now();\n"),
      "obs-wallclock"));
}

TEST(LintObsWallclockTest, ObsShimNeedsJustifiedAllow) {
  // Bare use inside src/obs/ still fires...
  EXPECT_TRUE(has_rule(
      check("src/obs/wall_clock.cpp",
            "using WallClock = std::chrono::steady_clock;\n"),
      "obs-wallclock"));
  // ...but a justified allow suppresses it (the designed escape hatch).
  EXPECT_FALSE(has_rule(
      check("src/obs/wall_clock.cpp",
            "// drbw-analyze: allow(obs-wallclock) sole wall-time source\n"
            "using WallClock = std::chrono::steady_clock;\n"),
      "obs-wallclock"));
}

TEST(LintObsWallclockTest, BenchesAndProseAreExempt) {
  EXPECT_FALSE(has_rule(
      check("bench/micro_executor.cpp",
            "using Clock = std::chrono::steady_clock;\n"),
      "obs-wallclock"));
  EXPECT_FALSE(has_rule(
      check("src/sim/engine.cpp", "// steady_clock would break goldens\n"),
      "obs-wallclock"));
}

TEST(LintBuildStampTest, CatchesDateTimeMacros) {
  EXPECT_TRUE(has_rule(check("a.cpp", "const char* built = __DATE__;\n"),
                       "no-build-stamp"));
  EXPECT_TRUE(has_rule(check("a.cpp", "puts(__TIMESTAMP__);\n"),
                       "no-build-stamp"));
  EXPECT_FALSE(has_rule(check("a.cpp", "// __DATE__ in prose\n"),
                        "no-build-stamp"));
}

TEST(LintUnorderedTest, BannedOnlyInEmitters) {
  const std::string snippet =
      "std::unordered_map<std::string, int> m;\nfor (auto& kv : m) {}\n";
  EXPECT_TRUE(has_rule(check("src/report/markdown.cpp", snippet),
                       "unordered-iter"));
  EXPECT_TRUE(
      has_rule(check("src/pebs/trace_io.cpp", snippet), "unordered-iter"));
  // Non-emitter files may hash freely.
  EXPECT_FALSE(has_rule(check("src/sim/engine.cpp", snippet),
                        "unordered-iter"));
  // The include line itself is not the violation site.
  EXPECT_FALSE(has_rule(check("src/report/markdown.cpp",
                              "#include <unordered_map>\n"),
                        "unordered-iter"));
}

TEST(LintUnorderedTest, AllowCommentSuppressesWithReason) {
  EXPECT_FALSE(has_rule(
      check("src/report/markdown.cpp",
            "// drbw-analyze: allow(unordered-iter) keys sorted before emission\n"
            "std::unordered_map<int, int> m;\n"),
      "unordered-iter"));
  EXPECT_FALSE(has_rule(
      check("src/report/markdown.cpp",
            "std::unordered_map<int, int> m;  // drbw-analyze: "
            "allow(unordered-iter) keys sorted before emission\n"),
      "unordered-iter"));
  // No reason: the violation stands and the allow itself is flagged.
  const auto findings =
      check("src/report/markdown.cpp",
            "// drbw-analyze: allow(unordered-iter)\n"
            "std::unordered_map<int, int> m;\n");
  EXPECT_TRUE(has_rule(findings, "unordered-iter"));
  EXPECT_TRUE(has_rule(findings, "allow-missing-reason"));
  // A placeholder reason ("." etc.) is rejected the same way.
  const auto placeholder =
      check("src/report/markdown.cpp",
            "// drbw-analyze: allow(unordered-iter) .\n"
            "std::unordered_map<int, int> m;\n");
  EXPECT_TRUE(has_rule(placeholder, "unordered-iter"));
  EXPECT_TRUE(has_rule(placeholder, "allow-missing-reason"));
}

TEST(LintIncludeHygieneTest, HeaderRules) {
  // Missing #pragma once.
  EXPECT_TRUE(has_rule(check("include/drbw/x.hpp", "int f();\n"),
                       "include-hygiene"));
  EXPECT_FALSE(has_rule(check("include/drbw/x.hpp", "#pragma once\nint f();\n"),
                        "include-hygiene"));
  // using namespace in any header.
  EXPECT_TRUE(has_rule(check("bench/bench_common.hpp",
                             "#pragma once\nusing namespace std;\n"),
                       "include-hygiene"));
  // ...but not in a .cpp.
  EXPECT_FALSE(has_rule(check("tools/drbw_cli.cpp", "using namespace drbw;\n"),
                        "include-hygiene"));
  // Public headers name project includes as "drbw/...".
  EXPECT_TRUE(has_rule(check("include/drbw/x.hpp",
                             "#pragma once\n#include \"../util/rng.hpp\"\n"),
                       "include-hygiene"));
  EXPECT_TRUE(has_rule(check("include/drbw/x.hpp",
                             "#pragma once\n#include <drbw/util/rng.hpp>\n"),
                       "include-hygiene"));
  EXPECT_FALSE(has_rule(check("include/drbw/x.hpp",
                              "#pragma once\n#include \"drbw/util/rng.hpp\"\n"
                              "#include <vector>\n"),
                        "include-hygiene"));
}

TEST(LintArtifactWriteTest, OfstreamBannedInEmitters) {
  const std::string snippet = "std::ofstream out(path);\nout << body;\n";
  EXPECT_TRUE(has_rule(check("src/pebs/trace_io.cpp", snippet),
                       "no-naked-artifact-write"));
  EXPECT_TRUE(has_rule(check("src/ml/decision_tree.cpp", snippet),
                       "no-naked-artifact-write"));
  EXPECT_TRUE(has_rule(check("src/report/markdown.cpp", snippet),
                       "no-naked-artifact-write"));
  EXPECT_TRUE(has_rule(check("tools/drbw_cli.cpp", snippet),
                       "no-naked-artifact-write"));
  // Non-emitters may open streams; the artifact home *implements* the
  // atomic path, so its own ofstream is the one legitimate use.
  EXPECT_FALSE(has_rule(check("src/sim/engine.cpp", snippet),
                        "no-naked-artifact-write"));
  EXPECT_FALSE(has_rule(check("src/util/artifact.cpp", snippet),
                        "no-naked-artifact-write"));
  // Reading is not writing, and prose is not code.
  EXPECT_FALSE(has_rule(check("src/pebs/trace_io.cpp",
                              "std::ifstream in(path);\n"),
                        "no-naked-artifact-write"));
  EXPECT_FALSE(has_rule(check("src/pebs/trace_io.cpp",
                              "// a std::ofstream scoped by the harness\n"),
                        "no-naked-artifact-write"));
}

TEST(LintArtifactWriteTest, AllowEscapeNeedsReason) {
  EXPECT_FALSE(has_rule(
      check("src/report/markdown.cpp",
            "// drbw-analyze: allow(no-naked-artifact-write) streaming sink, "
            "caller owns atomicity\n"
            "std::ofstream out(path);\n"),
      "no-naked-artifact-write"));
  const auto findings =
      check("src/report/markdown.cpp",
            "// drbw-analyze: allow(no-naked-artifact-write)\n"
            "std::ofstream out(path);\n");
  EXPECT_TRUE(has_rule(findings, "no-naked-artifact-write"));
  EXPECT_TRUE(has_rule(findings, "allow-missing-reason"));
}

TEST(LintNakedDiagnosticTest, CerrBannedOutsideDiagnosticHomes) {
  const std::string snippet = "std::cerr << \"load failed\\n\";\n";
  EXPECT_TRUE(has_rule(check("src/pebs/trace_io.cpp", snippet),
                       "no-naked-diagnostic"));
  EXPECT_TRUE(has_rule(check("src/sim/engine.cpp", snippet),
                       "no-naked-diagnostic"));
  EXPECT_TRUE(has_rule(check("include/drbw/core/profiler.hpp",
                             "#pragma once\n" + snippet),
                       "no-naked-diagnostic"));
  // The CLI front-end, the analyzer driver, the obs sinks, the error
  // primitives, and self-reporting benches legitimately write stderr.
  EXPECT_FALSE(has_rule(check("tools/drbw_cli.cpp", snippet),
                        "no-naked-diagnostic"));
  EXPECT_FALSE(has_rule(check("tools/analyze/drbw_analyze.cpp", snippet),
                        "no-naked-diagnostic"));
  EXPECT_FALSE(has_rule(check("src/obs/trace.cpp", snippet),
                        "no-naked-diagnostic"));
  EXPECT_FALSE(has_rule(check("include/drbw/util/error.hpp",
                              "#pragma once\n" + snippet),
                        "no-naked-diagnostic"));
  EXPECT_FALSE(has_rule(check("bench/micro_executor.cpp", snippet),
                        "no-naked-diagnostic"));
  // Prose and string literals are not diagnostics.
  EXPECT_FALSE(has_rule(check("src/sim/engine.cpp", "// std::cerr is banned\n"),
                        "no-naked-diagnostic"));
  EXPECT_FALSE(has_rule(
      check("src/sim/engine.cpp", "const char* s = \"std::cerr\";\n"),
      "no-naked-diagnostic"));
}

TEST(LintNakedDiagnosticTest, AllowEscapeWithReasonWorks) {
  EXPECT_FALSE(has_rule(
      check("src/sim/engine.cpp",
            "// drbw-analyze: allow(no-naked-diagnostic) best-effort warning "
            "after the manifest is already written\n"
            "std::cerr << \"warning\\n\";\n"),
      "no-naked-diagnostic"));
  const auto findings = check("src/sim/engine.cpp",
                              "// drbw-analyze: allow(no-naked-diagnostic)\n"
                              "std::cerr << \"warning\\n\";\n");
  EXPECT_TRUE(has_rule(findings, "no-naked-diagnostic"));
  EXPECT_TRUE(has_rule(findings, "allow-missing-reason"));
}

TEST(LintRawAllocTest, CatchesNewDeleteMallocOutsideMem) {
  EXPECT_TRUE(has_rule(check("src/sim/engine.cpp", "int* p = new int[4];\n"),
                       "raw-alloc"));
  EXPECT_TRUE(has_rule(check("src/sim/engine.cpp", "delete p;\n"),
                       "raw-alloc"));
  EXPECT_TRUE(has_rule(check("src/sim/engine.cpp",
                             "void* p = std::malloc(64);\n"),
                       "raw-alloc"));
  EXPECT_TRUE(has_rule(check("src/sim/engine.cpp", "free(p);\n"), "raw-alloc"));
}

TEST(LintRawAllocTest, MemLayerAndLookalikesPass) {
  EXPECT_FALSE(has_rule(check("src/mem/address_space.cpp",
                              "void* p = malloc(64); free(p);\n"),
                        "raw-alloc"));
  // Deleted special members and member functions named free.
  EXPECT_FALSE(has_rule(check("include/drbw/util/task_pool.hpp",
                              "#pragma once\nTaskPool(const TaskPool&) = "
                              "delete;\n"),
                        "raw-alloc"));
  EXPECT_FALSE(has_rule(check("tests/mem_test.cpp", "space_.free(id);\n"),
                        "raw-alloc"));
  EXPECT_FALSE(has_rule(check("a.cpp", "auto p = std::make_unique<int>();\n"),
                        "raw-alloc"));
  EXPECT_FALSE(has_rule(check("a.cpp", "int renew = 0; renew = 1;\n"),
                        "raw-alloc"));
}

TEST(LintIsaIntrinsicsTest, OnlyTheCrcKernelFileIncludesIntrinsics) {
  EXPECT_TRUE(has_rule(check("src/pebs/trace_io.cpp",
                             "#include <immintrin.h>\n"),
                       "isa-intrinsics"));
  EXPECT_TRUE(has_rule(check("tests/obs_test.cpp", "#include <x86intrin.h>\n"),
                       "isa-intrinsics"));
  EXPECT_TRUE(has_rule(check("src/obs/sink.cpp", "#include <arm_neon.h>\n"),
                       "isa-intrinsics"));
  EXPECT_FALSE(has_rule(check("src/obs/crc32.cpp",
                              "#include <immintrin.h>\n"),
                        "isa-intrinsics"));
  EXPECT_FALSE(has_rule(check("src/pebs/trace_io.cpp",
                              "#include <cstring>\n#include \"intrin.h\"\n"),
                        "isa-intrinsics"));
}

TEST(LintFormatTest, RendersCompilerStyleLocation) {
  AnalysisResult result;
  result.fresh.push_back(
      make_finding("no-rand", "src/a.cpp", 12, "rand", "banned"));
  EXPECT_NE(render_text(result).find("src/a.cpp:12: [no-rand] banned"),
            std::string::npos);
}

TEST(LintRunTest, WalkerFindsSeededViolation) {
  namespace fs = std::filesystem;
  const fs::path root = fs::path(::testing::TempDir()) / "lint_fixture";
  fs::create_directories(root / "src" / "sim");
  {
    std::ofstream out(root / "src" / "sim" / "bad.cpp");
    out << "int seed() { return rand(); }\n";
  }
  {
    std::ofstream out(root / "src" / "sim" / "good.cpp");
    out << "int seed() { return 42; }\n";
  }
  const AnalysisResult result = run(root.string(), {"src"});
  EXPECT_EQ(result.files_scanned, 2u);
  ASSERT_EQ(result.fresh.size(), 1u);
  EXPECT_EQ(result.fresh[0].rule, "no-rand");
  EXPECT_EQ(result.fresh[0].file, "src/sim/bad.cpp");
  EXPECT_EQ(result.fresh[0].line, 1u);
  fs::remove_all(root);
}

TEST(LintRunTest, CleanTreeAndMissingDirsAreQuiet) {
  namespace fs = std::filesystem;
  const fs::path root = fs::path(::testing::TempDir()) / "lint_clean";
  fs::create_directories(root / "src");
  {
    std::ofstream out(root / "src" / "ok.cpp");
    out << "int f() { return 1; }\n";
  }
  const AnalysisResult result = run(root.string(), {"src", "does_not_exist"});
  EXPECT_EQ(result.files_scanned, 1u);
  EXPECT_TRUE(result.fresh.empty());
  fs::remove_all(root);
}

TEST(LintAllowTest, OneAllowGrammarForEveryRule) {
  // The analyzer's tag suppresses a line rule...
  EXPECT_FALSE(has_rule(
      check("src/sim/engine.cpp",
            "// drbw-analyze: allow(no-rand) legacy parity with the paper's "
            "driver\nint x = rand();\n"),
      "no-rand"));
  // ...the retired linter tag no longer does...
  EXPECT_TRUE(has_rule(
      check("src/sim/engine.cpp",
            "// drbw-lint: allow(no-rand) legacy parity with the paper's "
            "driver\nint x = rand();\n"),
      "no-rand"));
  // ...and a reasonless allow with nothing under it is still a finding.
  const auto findings =
      check("src/sim/engine.cpp", "// drbw-analyze: allow(no-rand)\nint x;\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "allow-missing-reason");
  EXPECT_EQ(findings[0].line, 1u);
}

}  // namespace
}  // namespace drbw::analyze
