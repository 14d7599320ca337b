// drbw::report fleet aggregation — the read side of the provenance layer at
// corpus scale.
//
// Every CLI run leaves a checksummed `run.json` (+ `flight.log`) behind;
// chaos/perf CI and batch evaluation mass-produce whole trees of them.
// `drbw fleet <root>` turns such a tree into a queryable report:
//
//   * discover_run_dirs — recursive, sorted scan for directories holding a
//     run manifest.
//   * fleet_scan — load + checksum-validate every manifest (a corrupt one
//     is quarantined into the report, never fatal) and aggregate: outcome /
//     error-token histogram, per-stage span-time distributions (p50/p95/max
//     with the offending run dir named), fault-fire totals, quarantine
//     tallies, and an optional regression scan that reuses the `perf diff`
//     comparator to rank every passing run against a baseline manifest.
//   * render_fleet_markdown / render_fleet_json — deterministic emitters.
//     The JSON splits golden-vs-context like the manifest; unlike the
//     manifest it omits the --jobs value entirely, so the whole artifact is
//     byte-identical at any --jobs (manifest loads fill indexed slots and
//     are aggregated in sorted-directory order).
//   * flame_spans / flame_spans_from_trace — adapt flight-dump span
//     breadcrumbs / trace_event 'X' events into obs::FlameSpan records for
//     the collapsed-stack folder (obs/flame.hpp); fold_run_dir folds one
//     run directory, which `drbw fleet --flame-out` merges fleet-wide.
//
// Layering: report sits near the top, so it may parse with util::Json and
// fan manifest loads over util::TaskPool; the fold itself lives below in
// obs so the writer side stays stdlib-only.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "drbw/obs/flame.hpp"
#include "drbw/report/postmortem.hpp"
#include "drbw/util/json.hpp"

namespace drbw::report {

/// Version of the `#drbw-fleet` JSON report artifact.
inline constexpr int kFleetReportVersion = 1;

struct FleetOptions {
  std::string baseline_path;  ///< "" = skip the regression scan
  double threshold = 0.25;    ///< perf-diff regression threshold
  std::string filter_status;  ///< "" (all) | "ok" | "failed"
  std::size_t top = 0;        ///< cap on listed runs in the emitters (0 = all)
  int jobs = 1;               ///< parallel manifest loads (0 = hw threads)
};

/// One aggregated run (manifest loaded and filter-matched).
struct FleetRun {
  std::string dir;  ///< run dir relative to the scan root ('/'-separated)
  std::string subcommand;
  std::string status;      ///< "ok" | "error"
  std::string error_code;  ///< error token when status == "error"
  int exit_code = 0;
  std::uint64_t records_quarantined = 0;
};

/// One quarantined manifest: present on disk but failed checksum/parse.
struct CorruptManifest {
  std::string dir;
  std::string error;
};

/// Per-span-name distribution of per-run total durations.
struct FleetSpanStat {
  std::string name;
  std::uint64_t runs = 0;   ///< runs in which the span appears
  std::uint64_t count = 0;  ///< total span count across those runs
  std::uint64_t p50 = 0;    ///< nearest-rank percentiles of per-run totals
  std::uint64_t p95 = 0;
  std::uint64_t max = 0;
  std::string max_dir;  ///< the offending (slowest) run dir
};

/// One client of one serve run, pulled from its serve_snapshot.json.
struct FleetServeClient {
  std::string dir;  ///< serve run dir relative to the scan root
  std::uint64_t client = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t dropped = 0;
  bool quarantined = false;
};

/// One client's model-health row from a serve run's snapshot drift section
/// (present only for runs served with a baseline-carrying v3 model).
struct FleetModelHealth {
  std::string dir;  ///< serve run dir relative to the scan root
  std::uint64_t client = 0;
  double confidence_p50 = 0.0;
  double confidence_min = 0.0;
  double drift_score = 0.0;
  bool suspected = false;
};

/// Regressed rows for one run vs the baseline manifest.
struct FleetRegression {
  std::string dir;
  std::vector<PerfDelta> rows;  ///< regression == true rows only
};

struct FleetReport {
  std::string root;
  FleetOptions options;
  std::size_t dirs_scanned = 0;      ///< run dirs discovered under root
  std::size_t manifests_corrupt = 0; ///< quarantined (checksum/parse failure)
  std::size_t runs_filtered_out = 0; ///< loaded fine but failed the filter
  std::size_t runs_ok = 0;           ///< of the aggregated (filtered) runs
  std::size_t runs_failed = 0;
  std::vector<FleetRun> runs;  ///< aggregated runs, sorted by dir
  std::vector<CorruptManifest> corrupt;
  /// Outcome histogram over aggregated runs: "ok" or the error token.
  std::vector<std::pair<std::string, std::size_t>> outcomes;
  std::vector<std::pair<std::string, std::size_t>> subcommands;
  std::vector<FleetSpanStat> spans;
  std::vector<std::pair<std::string, std::uint64_t>> fault_fires;
  std::uint64_t records_quarantined = 0;  ///< summed across aggregated runs
  std::size_t quarantine_runs = 0;        ///< runs with a nonzero tally
  /// Serve aggregation (sections emitted only when serve_runs > 0, so
  /// corpora without serve runs render byte-identically to before).
  std::size_t serve_runs = 0;
  std::size_t serve_degraded_runs = 0;   ///< manifests with degraded=true
  std::size_t serve_snapshots_missing = 0;  ///< serve runs without a loadable snapshot
  std::uint64_t serve_shed = 0;
  std::uint64_t serve_rejected = 0;
  std::uint64_t serve_dropped = 0;
  std::uint64_t serve_quarantined_clients = 0;
  std::vector<FleetServeClient> serve_clients;  ///< sorted by (dir, client)
  /// Model-health aggregation over serve runs (section emitted only when at
  /// least one run recorded a drift verdict, so older corpora render
  /// byte-identically).  The min-confidence / max-drift extrema name the
  /// offending run dir + client; ties keep the first in sorted-dir order.
  std::size_t model_health_runs = 0;      ///< serve runs with a drift section
  std::size_t drift_suspected_runs = 0;   ///< manifests with drift="suspected"
  std::size_t drift_unavailable_runs = 0; ///< drift="unavailable" (v2 model /
                                          ///< degraded)
  std::uint64_t drift_suspected_clients = 0;
  bool has_model_health = false;  ///< extrema below are populated
  double min_confidence = 0.0;
  std::string min_confidence_dir;
  std::uint64_t min_confidence_client = 0;
  double max_drift = 0.0;
  std::string max_drift_dir;
  std::uint64_t max_drift_client = 0;
  std::vector<FleetModelHealth> model_health;  ///< sorted by (dir, client)
  /// Regression scan (baseline_path only): passing runs with rows past the
  /// threshold, sorted by dir.  `regressed` drives fleet's exit 3.
  std::vector<FleetRegression> regressions;
  std::size_t regression_scanned = 0;  ///< passing runs compared
  bool regressed = false;
};

/// Recursively finds directories under `root` containing a run manifest;
/// returns their root-relative paths, sorted.  Throws Error(kNotFound) when
/// `root` itself does not exist.
std::vector<std::string> discover_run_dirs(const std::string& root);

/// Scans `root` and aggregates (see file comment).  Manifest loads fan out
/// over options.jobs workers into indexed slots, so the report is identical
/// at any value.  Throws Error(kNotFound) when no run dir exists under
/// `root`, or when options.baseline_path cannot be loaded.
FleetReport fleet_scan(const std::string& root, const FleetOptions& options);

/// Deterministic Markdown rendering of the report.
std::string render_fleet_markdown(const FleetReport& report);

/// Deterministic JSON document (golden-vs-context split; --jobs omitted so
/// the bytes are jobs-independent).  write_fleet_json writes it under the
/// checksummed `#drbw-fleet v1` header (util::write_versioned_artifact).
std::string render_fleet_json(const FleetReport& report);
void write_fleet_json(const FleetReport& report, const std::string& path);

/// tag=="span" flight breadcrumbs -> foldable spans.
std::vector<obs::FlameSpan> flame_spans(
    const std::vector<FlightRecord>& records);

/// 'X' events of a parsed trace_event JSON document -> foldable spans
/// (track = tid, start = ts).  Throws Error(kParse) when the document has
/// no traceEvents array.
std::vector<obs::FlameSpan> flame_spans_from_trace(const Json& trace);

/// Folds one run directory's flight.log into `fold`.  Returns false when
/// the directory has no flight dump (or it fails to load) — fleet merging
/// skips such runs rather than failing.
bool fold_run_dir(const std::string& run_dir, obs::FlameFold& fold);

}  // namespace drbw::report
