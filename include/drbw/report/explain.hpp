// `drbw explain`'s artifacts: the checksummed `#drbw-explain v1` JSON
// document and its Markdown report, both built here from the per-window
// verdicts DrBw::analyze_window explains.  The front end only loads, writes
// and prints, so a change to the explain format changes this file alone.
// Everything aggregates in window order, so both artifacts are
// byte-identical at any --jobs value.
#pragma once

#include <string>
#include <vector>

#include "drbw/drbw.hpp"

namespace drbw::report {

/// Version of the `#drbw-explain` JSON artifact.
inline constexpr int kExplainVersion = 1;

/// Where the verdicts came from: the trace path, and the model path (empty
/// when the model was trained in-process).
struct ExplainSource {
  std::string trace;
  std::string model;
};

/// What `drbw explain` writes and prints.
struct ExplainArtifacts {
  std::string json;      ///< the `#drbw-explain v1` body
  std::string markdown;  ///< the Markdown report, empty unless asked for
  std::string summary;   ///< one console line
};

/// Tallies `windows` in order — verdict counts, decision-path frequency,
/// per-feature attribution means, confidence p50/min — observing each
/// verdict's confidence in the drbw_model_confidence_bucket histogram, and
/// renders the artifacts (the Markdown report only when `markdown`).
ExplainArtifacts render_explain(const std::vector<WindowVerdict>& windows,
                                const topology::Machine& machine,
                                const ExplainSource& source, bool markdown);

}  // namespace drbw::report
