// drbw::report run manifest — the provenance record every CLI run leaves
// behind, and the only code that knows the `run.json` format.
//
// A `run.json` ties an artifact back to the exact run that produced it: the
// subcommand and resolved configuration, the canonical fault spec, the CRC
// and size of every input and output artifact (reusing the checksummed
// `#drbw-*` headers), quarantine accounting, fault-site fire tallies,
// per-stage span statistics from the flight recorder, a final
// metrics-registry snapshot, and the outcome (exit code + message).  It is
// written atomically with a `#drbw-manifest v1` checksummed header — the
// manifest is itself an artifact.
//
// Determinism: the document splits into a "golden" object (everything that
// is a pure function of the invocation — byte-identical at any --jobs
// value) and a "context" object (the --jobs value itself, flight-ring
// occupancy, the process's minor faults and peak RSS, and wall-mode span
// stats).  For identical invocations that differ only in --jobs, manifests
// differ only in the header (whose crc32 covers the body), the `"jobs":`
// line and the two resource lines, `"minor_faults":` and
// `"peak_rss_kib":` — test-enforced.
//
// Each one-line object (outcome, load, model_shape, every inputs/outputs/
// spans row, the context scalars) is one member table that to_json writes
// and load_manifest strictly reads through (util/json_fields.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "drbw/obs/flight_recorder.hpp"

namespace drbw::report {

/// Version of the `#drbw-manifest` artifact.
inline constexpr int kManifestVersion = 1;

/// Default manifest / flight-dump filenames inside a run directory.
inline constexpr const char* kManifestFileName = "run.json";
inline constexpr const char* kFlightFileName = "flight.log";

/// One input or output artifact, identified by content.  `kind`/`version`/
/// `crc`/`bytes` come from the artifact's own `#drbw-*` header when it has
/// one; headerless files get kind "raw" and a whole-file crc.
struct ArtifactRef {
  std::string role;  ///< "trace-in", "model-out", "report-out", …
  std::string path;
  std::string kind;
  int version = 0;
  std::uint32_t crc = 0;
  std::uint64_t bytes = 0;
};

/// The full provenance record.  The CLI fills one per run and writes it
/// last, so a manifest on disk always describes a finished (or failed) run.
struct RunManifest {
  // -- golden --------------------------------------------------------------
  std::string subcommand;
  /// Resolved option values, sorted by name; excludes --jobs (context) and
  /// --run-dir (the manifest's own location carries no information).
  std::vector<std::pair<std::string, std::string>> config;
  std::string fault_spec;  ///< canonical Plan::to_string(), "" when unarmed
  /// True when the run completed in degraded mode (e.g. `drbw serve`
  /// falling back to pass-through telemetry without a usable model).
  /// Emitted only when set, so existing manifests are byte-unchanged.
  bool degraded = false;
  /// Serve drift verdict: "ok", "suspected", or "unavailable" (degraded run
  /// or a model saved before format v3, which carries no training
  /// baseline).  "" everywhere else; emitted only when non-empty.
  std::string drift;
  /// `drbw train` tree-shape provenance (node/leaf counts, depth, split
  /// counts per feature).  Emitted only when has_model_shape.
  bool has_model_shape = false;
  std::uint64_t model_nodes = 0;
  std::uint64_t model_leaves = 0;
  std::uint64_t model_depth = 0;
  /// (feature name, split-node count), ascending by feature index.
  std::vector<std::pair<std::string, std::uint64_t>> model_splits;
  std::vector<ArtifactRef> inputs;
  std::vector<ArtifactRef> outputs;
  bool has_load_stats = false;
  std::uint64_t records_seen = 0;
  std::uint64_t records_ok = 0;
  std::uint64_t records_quarantined = 0;
  bool checksum_ok = true;
  std::vector<std::pair<std::string, std::uint64_t>> fault_fires;
  std::vector<obs::SpanStat> spans;
  bool spans_golden = true;  ///< false under --timing wall (wall durations)
  /// Raw Registry::json_text(), written verbatim ("" = none); the reader
  /// leaves it empty and fills `counters` (name, value) for perf diff.
  std::string metrics_json;
  std::vector<std::pair<std::string, double>> counters;
  std::string status = "ok";  ///< "ok" | "error"
  std::string error_code;     ///< error_code_name(...) when status == "error"
  int exit_code = 0;
  std::string message;        ///< the error text when status == "error"
  // -- context -------------------------------------------------------------
  int jobs = 0;
  std::string timing = "sim";
  std::uint64_t flight_events = 0;
  std::uint64_t flight_dropped = 0;
  /// getrusage(RUSAGE_SELF) as of record_usage(): minor page faults so far
  /// and the peak resident set in KiB.  Linux carries ru_maxrss across
  /// execve, so a run launched by a larger process reports at least that
  /// process's resident set at fork.
  std::uint64_t minor_faults = 0;
  std::uint64_t peak_rss_kib = 0;

  /// Fills minor_faults and peak_rss_kib from the calling process; the CLI
  /// calls it just before write(), so the counts cover the whole run.
  void record_usage();

  /// Deterministic pretty-printed JSON document (see header comment).
  std::string to_json() const;

  /// to_json() under a `#drbw-manifest v1` checksummed header, atomically.
  void write(const std::string& path) const;
};

/// Reads and validates a `#drbw-manifest` artifact (strict policy): the
/// RunManifest that was written, less metrics_json, plus its counters.
RunManifest load_manifest(const std::string& path);

}  // namespace drbw::report
