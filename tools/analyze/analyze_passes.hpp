// drbw_analyze — the four pass families over the shared Model.
//
//   1. Layer DAG     — the include graph vs tools/analyze/layers.json:
//                      back-edges (a file including a *higher* layer),
//                      include cycles (reported with the exact chain), and
//                      files no layer claims.  Also emits the graph as DOT
//                      so DESIGN.md's layer diagram is generated, not drawn.
//   2. Registry      — every fault-site / metric / span / stage name
//                      extracted from call sites vs tools/analyze/
//                      registry.json: unregistered emissions, dead registry
//                      entries, names no test or CI leg covers, and
//                      exit-code drift between util/error.hpp, the README
//                      table, and postmortem.cpp's doctor advice.
//   3. Determinism   — intra-TU dataflow beyond the single-token line
//      dataflow        rules: unordered-container iteration flowing through
//                      locals into emitter calls, mutable namespace-scope
//                      state outside obs/fault, and thread fan-outs that
//                      emit without a TraceTrack fork-key install.
//   4. Line rules    — ten token-level determinism/hygiene rules keyed off
//                      each file's path-derived role (rand, wall clocks,
//                      build stamps, raw allocation, naked artifact writes
//                      and diagnostics, header hygiene).
#pragma once

#include <string>
#include <vector>

#include "analyze_model.hpp"

namespace drbw::analyze {

/// One analyzer finding.  `fingerprint` is the line-free stable identity
/// (rule|file|subject) used for baseline matching, so committed baselines
/// survive unrelated line churn.
struct Finding {
  std::string rule;
  std::string file;
  std::size_t line = 0;
  std::string message;
  std::string fingerprint;
  bool allow_exempt = false;  // no allow-comment can suppress it
};

Finding make_finding(std::string rule, std::string file, std::size_t line,
                     std::string subject, std::string message);

// ---------------------------------------------------------------- layer DAG

struct LayerResult {
  std::vector<Finding> findings;
  /// Module-level edges actually observed: (from layer, to layer), deduped,
  /// sorted — the input for the DOT rendering and for tests.
  std::vector<std::pair<std::string, std::string>> layer_edges;
};

/// Runs the layer pass: back-edge, cycle, and unmapped-file detection.
LayerResult check_layers(const Model& model, const LayerSpec& spec);

/// Renders the observed layer graph as a DOT digraph (bottom layer at the
/// bottom).  Deterministic output — committed into DESIGN.md and diffed in
/// CI.
std::string layer_dot(const LayerResult& result, const LayerSpec& spec);

// ----------------------------------------------------------------- registry

/// The committed name registry (tools/analyze/registry.json).
struct Registry {
  struct Entry {
    std::string name;
    bool diagnostic = false;     // metrics only: excluded from golden export
    bool doctor_advice = false;  // error tokens: doctor() must handle it
  };
  struct ExitCode {
    int code = 0;
    std::string meaning;
    std::string source;  // "cli" or "error.hpp"
  };
  std::vector<Entry> fault_sites;
  std::vector<Entry> metrics;
  std::vector<Entry> trace_counters;
  std::vector<Entry> spans;
  std::vector<Entry> stages;
  std::vector<Entry> error_tokens;
  std::vector<ExitCode> exit_codes;

  static Registry load(const std::string& path);
  static Registry parse(std::string_view json_text, const std::string& origin);
};

/// One extracted name occurrence.
struct NameUse {
  std::string name;
  std::string file;
  std::size_t line = 0;
};

/// Everything the registry pass extracts from the model's call sites.
struct Extraction {
  std::vector<NameUse> fault_sites;     // should_inject / maybe_fail / corrupt_bits
  std::vector<NameUse> metrics;         // Registry counter/gauge/histogram
  std::vector<NameUse> trace_counters;  // Trace counter events
  std::vector<NameUse> spans;           // obs::Span constructions
  std::vector<NameUse> stages;          // RunSession::stage breadcrumbs
  std::vector<NameUse> error_tokens;    // util/error.hpp error_code_name
  /// exit codes returned by util/error.hpp's exit_code_for
  std::vector<std::pair<int, std::size_t>> exit_codes;  // (code, line)
};

Extraction extract_names(const Model& model);

/// Inputs the registry cross-check needs beyond the model.
struct RegistryContext {
  /// Concatenated text of tests/*.cpp + tests/CMakeLists.txt + ci.yml —
  /// a name is "covered" when it appears here verbatim.
  std::string coverage_text;
  /// Raw README.md text (for the exit-code table drift check) and its path.
  std::string readme_text;
  std::string readme_path = "README.md";
  /// Raw postmortem.cpp text (doctor-advice drift check) and its path.
  std::string postmortem_text;
  std::string postmortem_path = "src/report/postmortem.cpp";
};

std::vector<Finding> check_registry(const Registry& registry,
                                    const Extraction& extraction,
                                    const RegistryContext& context);

/// Renders the CLI exit-code table as Markdown from the registry — the
/// generated source of README.md's table (`drbw_analyze --emit-exit-table`).
std::string exit_table_markdown(const Registry& registry);

// ------------------------------------------------------ determinism dataflow

std::vector<Finding> check_dataflow(const Model& model);

// --------------------------------------------------------------- line rules

/// Where a file sits in the layering, derived purely from its repo-relative
/// path.  The mem/ layer owns raw allocation, util/rng.hpp owns entropy,
/// emitter files (trace/dataset/report writers) must not iterate unordered
/// containers or open output streams, and so on.
struct FileRoles {
  bool is_header = false;         // .hpp / .h
  bool is_public_header = false;  // under include/drbw/
  bool in_mem_layer = false;      // mem/ subsystem: raw allocation allowed
  bool is_rng_home = false;       // util/rng.hpp: entropy sources allowed
  bool is_emitter = false;        // writes traces / datasets / reports
  bool is_artifact_home = false;  // util/artifact.*: owns the atomic-write path
  bool is_obs_wall_home = false;  // src/obs/: the one wall-clock shim lives here
  bool is_isa_home = false;       // src/obs/crc32.cpp: the one intrinsics file
  bool is_bench = false;          // bench/: chrono self-timing is its job
  bool is_diag_home = false;      // src/obs/, tools/, util/error: stderr OK
};

FileRoles file_roles(std::string_view rel);

/// Runs the eleven line rules over every TU (tests, benches and examples too).
std::vector<Finding> check_lint(const Model& model);

}  // namespace drbw::analyze
