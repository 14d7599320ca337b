// The serve snapshot format, written and read back in one place, and the
// console summary of a finished run.
#include <algorithm>
#include <optional>
#include <sstream>

#include "drbw/serve/server.hpp"
#include "drbw/util/artifact.hpp"
#include "drbw/util/error.hpp"
#include "drbw/util/json_fields.hpp"
#include "drbw/util/stats.hpp"
#include "drbw/util/strings.hpp"

namespace drbw::serve {

namespace {

/// Bounds the snapshot: merges adjacent timeline rows until at most
/// `max_rows` remain.  Counts sum, drift takes the running max, and the
/// merged confidence is the lower median of the source rows' medians —
/// a pure function of the input, so snapshots stay byte-identical at any
/// --jobs count.
std::vector<TimelineRow> downsample_timeline(
    const std::vector<TimelineRow>& rows, std::size_t max_rows) {
  if (rows.size() <= max_rows) return rows;
  const std::size_t group = (rows.size() + max_rows - 1) / max_rows;
  std::vector<TimelineRow> out;
  out.reserve(max_rows);
  for (std::size_t at = 0; at < rows.size(); at += group) {
    const std::size_t end = std::min(rows.size(), at + group);
    TimelineRow merged = rows[at];
    merged.merged = 0;
    std::vector<double> confidences;
    for (std::size_t i = at; i < end; ++i) {
      merged.merged += rows[i].merged;
      if (i > at) {
        merged.windows += rows[i].windows;
        merged.rmc += rows[i].rmc;
        merged.drift_score = std::max(merged.drift_score, rows[i].drift_score);
      }
      confidences.push_back(rows[i].confidence_p50);
    }
    merged.confidence_p50 = lower_median(std::move(confidences));
    out.push_back(merged);
  }
  return out;
}

/// Snapshot timelines never exceed this many rows (see downsample_timeline).
constexpr std::size_t kSnapshotTimelineRows = 256;

/// One member table per snapshot object: render_snapshot writes through it
/// and load_snapshot reads through it (util/json_fields.hpp).
using util::Field;
using util::Members;

const Field<ServeResult> kTopFields[] = {
    {"degraded", &ServeResult::degraded},
    {"drained", &ServeResult::drained},
    {"ticks", &ServeResult::ticks},
    {"window_cycles", &ServeResult::window_cycles},
};
const Field<ServeResult> kSampleFields[] = {
    {"in", &ServeResult::samples_in},
    {"admitted", &ServeResult::samples_admitted},
    {"shed", &ServeResult::samples_shed},
    {"rejected", &ServeResult::samples_rejected},
    {"deferred", &ServeResult::samples_deferred},
    {"dropped", &ServeResult::samples_dropped},
};
const Field<ServeResult> kWindowFields[] = {
    {"classified", &ServeResult::windows_classified},
    {"rmc", &ServeResult::windows_rmc},
};
const Field<TimelineRow> kTimelineFields[] = {
    {"tick", &TimelineRow::tick},
    {"merged", &TimelineRow::merged},
    {"windows", &TimelineRow::windows},
    {"rmc", &TimelineRow::rmc},
    {"confidence_p50", &TimelineRow::confidence_p50},
    {"drift", &TimelineRow::drift_score},
};
const Field<ServeResult> kDriftFields[] = {
    {"threshold", &ServeResult::drift_threshold},
    {"score", &ServeResult::drift_score},
    {"confidence_p50", &ServeResult::confidence_p50},
    {"suspected_clients", &ServeResult::drift_suspected_clients},
};
const Field<ClientModelHealth> kHealthFields[] = {
    {"client", &ClientModelHealth::client},
    {"windows", &ClientModelHealth::windows},
    {"rows", &ClientModelHealth::rows},
    {"confidence_p50", &ClientModelHealth::confidence_p50},
    {"confidence_min", &ClientModelHealth::confidence_min},
    {"score", &ClientModelHealth::drift_score},
    {"suspected", &ClientModelHealth::drift_suspected},
};
const Field<ServeResult> kFaultFields[] = {
    {"total", &ServeResult::faults},
    {"retries", &ServeResult::retries},
    {"quarantined_clients", &ServeResult::quarantined_clients},
};
const Field<ClientStats> kClientFields[] = {
    {"client", &ClientStats::client},
    {"offered", &ClientStats::offered},
    {"admitted", &ClientStats::admitted},
    {"shed", &ClientStats::shed},
    {"rejected", &ClientStats::rejected},
    {"deferred", &ClientStats::deferred},
    {"dropped", &ClientStats::dropped},
    {"faults", &ClientStats::faults},
    {"retries", &ClientStats::retries},
    {"backoff_cycles", &ClientStats::backoff_cycles},
    {"windows_classified", &ClientStats::windows_classified},
    {"windows_rmc", &ClientStats::windows_rmc},
    {"peak_depth", &ClientStats::peak_depth},
    {"quarantined", &ClientStats::quarantined},
    {"quarantined_tick", &ClientStats::quarantined_tick},
};

}  // namespace

std::string render_snapshot(const ServeResult& r) {
  std::ostringstream os;
  os << "{\n  \"" << kSnapshotVersionMember << "\": " << kServeSnapshotVersion
     << ",\n  ";
  util::put_fields(os, r, kTopFields, ",\n  ");
  os << ",\n  \"samples\": {";
  util::put_fields(os, r, kSampleFields);
  os << "},\n  \"windows\": {";
  util::put_fields(os, r, kWindowFields);
  os << "},\n  \"timeline\": ";
  util::put_rows(os, downsample_timeline(r.timeline, kSnapshotTimelineRows),
                 kTimelineFields, 2);
  if (r.drift_available) {
    os << ",\n  \"drift\": {";
    util::put_fields(os, r, kDriftFields);
    os << ", \"clients\": ";
    util::put_rows(os, r.model_health, kHealthFields, 2);
    os << '}';
  }
  os << ",\n  \"faults\": {";
  util::put_fields(os, r, kFaultFields);
  os << "},\n  \"clients\": ";
  util::put_rows(os, r.clients, kClientFields, 2);
  os << "\n}\n";
  return os.str();
}

Snapshot load_snapshot(const std::string& path) {
  const util::VersionedArtifact artifact = util::read_versioned_artifact(
      path, kSnapshotKind, kServeSnapshotVersion, util::LoadPolicy{});
  const Json doc = Json::parse(artifact.body);
  const Members root(doc, path, "serve snapshot");
  Snapshot snap;
  std::uint64_t version = 0;  // no snapshot version is 0
  root.get(kSnapshotVersionMember, version);
  if (version == 0 ||
      version != static_cast<std::uint64_t>(artifact.header.version)) {
    root.fail(std::string("member '") + kSnapshotVersionMember +
              "' is missing or does not match the header's v" +
              std::to_string(artifact.header.version));
  }
  snap.version = artifact.header.version;

  ServeResult& r = snap.result;
  root.get_fields(r, kTopFields);
  root.get_object("samples", r, kSampleFields);
  root.get_object("windows", r, kWindowFields);
  root.get_rows("timeline", r.timeline, kTimelineFields);
  if (const std::optional<Members> drift = root.object("drift")) {
    r.drift_available = true;
    drift->get_fields(r, kDriftFields);
    drift->get_rows("clients", r.model_health, kHealthFields);
  }
  root.get_object("faults", r, kFaultFields);
  root.get_rows("clients", r.clients, kClientFields);
  return snap;
}

const char* drift_verdict(const ServeResult& result) {
  if (!result.drift_available) return "unavailable";
  return result.drift_suspected_clients > 0 ? "suspected" : "ok";
}

std::string render_summary(const ServeResult& result,
                           const ServeOptions& options) {
  std::ostringstream os;
  os << "served " << result.ticks << " ticks x " << result.window_cycles
     << " cycles across " << result.clients.size() << " clients ("
     << overload_policy_name(options.overload)
     << "): " << result.samples_admitted << " admitted, "
     << result.samples_shed << " shed, " << result.samples_rejected
     << " rejected, " << result.samples_dropped << " dropped\n";
  os << "classified " << result.windows_classified << " windows ("
     << result.windows_rmc << " contended), " << result.faults << " faults, "
     << result.retries << " retries, " << result.quarantined_clients
     << " clients quarantined\n";
  if (result.degraded) {
    os << "DEGRADED: no usable model; classification skipped\n";
  }
  if (result.drift_available) {
    os << "model health: confidence p50 "
       << format_fixed(result.confidence_p50, 3) << ", max drift "
       << format_fixed(result.drift_score, 3);
    if (result.drift_suspected_clients > 0) {
      os << " — DRIFT SUSPECTED (" << result.drift_suspected_clients
         << " client(s) at or past --drift-threshold "
         << format_fixed(result.drift_threshold, 3) << ")";
    }
    os << '\n';
  } else if (!result.degraded) {
    os << "drift detection unavailable: the model carries no training "
          "baseline (re-save it with this build's `drbw train` to enable)\n";
  }
  if (!result.drained) {
    os << "replay cut short at --max-cycles " << options.max_cycles
       << "; remaining samples dropped\n";
  }
  if (!options.snapshot_path.empty()) {
    os << "serve snapshot (" << result.snapshots_written << " writes) at "
       << options.snapshot_path << '\n';
  }
  return os.str();
}

}  // namespace drbw::serve
