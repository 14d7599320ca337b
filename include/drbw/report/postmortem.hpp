// drbw::report post-mortem tooling — the read side of the provenance layer.
//
// The CLI writes the run manifest (report/manifest.hpp) and the obs flight
// recorder the flight dump; this module reads them back and closes the loop
// from failure to diagnosis:
//
//   * load_flight_dump — parses the `#drbw-flight` artifact (checksummed
//     like everything else); load_manifest lives with the manifest format.
//   * doctor(run_dir) — ranked root-cause findings for `drbw doctor`: which
//     stage was active, which fault site or corrupt record is implicated,
//     and what to retry.  Diagnosing a *failed* run is a success (exit 0) —
//     the tool's whole job is reading crash sites.
//   * perf_diff(a, b, threshold) — span-stat and counter comparison between
//     two manifests for `drbw perf diff`; CI gates on the regression flag.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "drbw/report/manifest.hpp"

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
  RunManifest manifest;
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
PerfDiff perf_diff(const RunManifest& before, const RunManifest& after,
                   double threshold);

/// Human-readable rendering of a PerfDiff.
std::string render_perf_diff(const PerfDiff& diff);

}  // namespace drbw::report
