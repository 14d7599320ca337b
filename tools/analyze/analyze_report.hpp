// drbw_analyze — finding aggregation, allow-comments, baseline, output.
//
// Findings from every pass are filtered through the in-source escape hatch
// (`// drbw-analyze: allow(<rule>) <reason>`, meaningful reason required) and
// then split against the committed baseline (tools/analyze/baseline.json):
// fingerprints present there are reported as suppressed, anything new fails
// the run, and baseline entries that no longer match anything are flagged
// stale so the burn-down list stays honest.  Output is ranked text plus a
// SARIF-style JSON artifact CI uploads.
#pragma once

#include <string>
#include <vector>

#include "analyze_passes.hpp"

namespace drbw::analyze {

/// One committed suppression: a finding fingerprint plus the reason it is
/// tolerated.  Fingerprints are line-free (rule|file|subject), so baselines
/// survive unrelated edits.
struct BaselineEntry {
  std::string fingerprint;
  std::string reason;
};

std::vector<BaselineEntry> load_baseline(const std::string& path);
std::vector<BaselineEntry> parse_baseline(std::string_view json_text,
                                          const std::string& origin);

/// The final, user-facing result of an analyzer run.
struct AnalysisResult {
  std::vector<Finding> fresh;       // fail the run
  std::vector<Finding> suppressed;  // matched a baseline entry
  std::vector<Finding> stale;       // rule=stale-baseline, one per dead entry
  std::size_t files_scanned = 0;

  bool clean() const { return fresh.empty() && stale.empty(); }
};

/// Applies allow-comments (suppressing matches unless the finding is
/// allow-exempt, flagging every reason-less allow), ranks findings (rule
/// severity class, then file, then line), and splits against the baseline.
AnalysisResult finalize(std::vector<Finding> findings, const Model& model,
                        const std::vector<BaselineEntry>& baseline);

/// Ranked plain-text report.
std::string render_text(const AnalysisResult& result);

/// SARIF-style JSON: {"version", "runs": [{"tool", "results": [...]}]} with
/// one result per finding (fresh + suppressed + stale, each tagged with its
/// disposition).  Deterministic; CI uploads this artifact.
std::string render_json(const AnalysisResult& result);

}  // namespace drbw::analyze
