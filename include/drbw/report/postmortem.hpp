// drbw::report post-mortem tooling — the read side of the provenance layer.
//
// The obs layer *writes* the run manifest and flight dump; this module reads
// them back and closes the loop from failure to diagnosis:
//
//   * load_manifest / load_flight_dump — parse the `#drbw-manifest` /
//     `#drbw-flight` artifacts (checksummed like everything else).
//   * doctor(run_dir) — ranked root-cause findings for `drbw doctor`: which
//     stage was active, which fault site or corrupt record is implicated,
//     and what to retry.  Diagnosing a *failed* run is a success (exit 0) —
//     the tool's whole job is reading crash sites.
//   * perf_diff(a, b, threshold) — span-stat and counter comparison between
//     two manifests for `drbw perf diff`; CI gates on the regression flag.
//
// Layering: report sits near the top, so it may use util::Json for parsing —
// the manifest writer below obs hand-rolls its JSON instead.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "drbw/obs/manifest.hpp"
#include "drbw/util/json.hpp"

namespace drbw::report {

/// One parsed flight-dump line.
struct FlightRecord {
  std::uint64_t track = 0;
  std::uint64_t seq = 0;
  std::uint64_t ts = 0;
  std::uint64_t value = 0;
  std::string tag;
  std::string detail;
};

/// A loaded run manifest: the full parsed document plus the fields the
/// doctor and perf-diff paths consume, extracted defensively (absent fields
/// keep their defaults so partially-written manifests still diagnose).
struct ManifestData {
  Json document;
  std::string subcommand;
  std::string fault_spec;
  bool degraded = false;  ///< run completed in a reduced mode (serve)
  std::string drift;      ///< serve drift verdict: "" | "ok" | "suspected" |
                          ///< "unavailable" (see obs::RunManifest)
  std::string status = "ok";
  std::string error_code;
  int exit_code = 0;
  std::string message;
  bool has_load = false;
  std::uint64_t records_seen = 0;
  std::uint64_t records_ok = 0;
  std::uint64_t records_quarantined = 0;
  bool checksum_ok = true;
  std::vector<std::pair<std::string, std::uint64_t>> fault_fires;
  std::vector<obs::SpanStat> spans;
  std::vector<std::pair<std::string, double>> counters;  ///< metrics snapshot
  std::vector<obs::ArtifactRef> inputs;
  std::vector<obs::ArtifactRef> outputs;
  int jobs = 0;
};

/// Reads and validates a `#drbw-manifest` artifact (strict policy).
ManifestData load_manifest(const std::string& path);

/// Reads a `#drbw-flight` dump; records come back sorted as dumped.
std::vector<FlightRecord> load_flight_dump(const std::string& path);

/// One ranked diagnosis entry.  rank 1 is the most likely root cause;
/// warnings on healthy runs rank behind failure findings.
struct Finding {
  int rank = 0;
  std::string title;
  std::string evidence;
  std::string advice;
};

struct DoctorReport {
  std::string run_dir;
  ManifestData manifest;
  bool has_flight = false;
  std::vector<FlightRecord> flight;
  std::string last_stage;  ///< last "stage" breadcrumb on the main track
  std::vector<Finding> findings;
};

/// Loads `<run_dir>/run.json` (+ flight.log when present) and derives the
/// ranked findings.  Throws Error(kNotFound/kParse/kCorruptArtifact) only
/// when the manifest itself is missing or unreadable.
DoctorReport doctor(const std::string& run_dir);

/// Human-readable rendering of a DoctorReport.
std::string render_doctor(const DoctorReport& report);

/// One compared quantity between two manifests.
struct PerfDelta {
  std::string name;
  std::string kind;  ///< "span" | "counter"
  double before = 0.0;
  double after = 0.0;
  double ratio = 1.0;  ///< after / before (1.0 when before == 0)
  bool regression = false;
  /// The baseline has it and the new manifest does not (informational:
  /// never a regression; `after` stays 0).
  bool gone = false;
};

struct PerfDiff {
  double threshold = 0.25;
  /// Sorted: regressions first, then the compared rows, then the gone rows,
  /// each group by name.
  std::vector<PerfDelta> rows;
  bool regressed = false;
  bool spans_comparable = true;  ///< false when either side lacks span stats
};

/// Compares span total durations and metric counters between two manifests.
/// A row regresses when after > before * (1 + threshold) with before > 0.
/// Baseline spans and counters the new manifest lacks become `gone` rows.
PerfDiff perf_diff(const ManifestData& before, const ManifestData& after,
                   double threshold);

/// Human-readable rendering of a PerfDiff.
std::string render_perf_diff(const PerfDiff& diff);

}  // namespace drbw::report
