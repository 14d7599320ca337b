// The serve snapshot format, written and read back in one place, and the
// console summary of a finished run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <sstream>
#include <variant>

#include "drbw/serve/server.hpp"
#include "drbw/util/artifact.hpp"
#include "drbw/util/error.hpp"
#include "drbw/util/json.hpp"
#include "drbw/util/stats.hpp"
#include "drbw/util/strings.hpp"

namespace drbw::serve {

namespace {

const char* bool_token(bool v) { return v ? "true" : "false"; }

/// Fixed, locale-independent double rendering for the snapshot body.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

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

/// One snapshot member: its JSON name and the field it carries.  Counts are
/// uint64 (client ids uint32) printed in full, scores are fmt_double, and
/// flags are true/false.  Each object's member table below is the one
/// place that names its members: render_snapshot writes through it and
/// load_snapshot reads through it.
template <typename T>
struct Field {
  const char* name;
  std::variant<std::uint64_t T::*, std::uint32_t T::*, double T::*, bool T::*>
      member;
};

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

void put(std::ostream& os, std::uint64_t v) { os << v; }
void put(std::ostream& os, std::uint32_t v) { os << v; }
void put(std::ostream& os, double v) { os << fmt_double(v); }
void put(std::ostream& os, bool v) { os << bool_token(v); }

/// `"name": value` for every field of `object`, joined by `sep`.
template <typename T, std::size_t N>
void put_fields(std::ostream& os, const T& object, const Field<T> (&fields)[N],
                const char* sep = ", ") {
  for (std::size_t i = 0; i < N; ++i) {
    os << (i == 0 ? "" : sep) << '"' << fields[i].name << "\": ";
    std::visit([&](const auto& member) { put(os, object.*member); },
               fields[i].member);
  }
}

/// An array of one-line objects, one row per line.
template <typename T, std::size_t N>
void put_rows(std::ostream& os, const std::vector<T>& rows,
              const Field<T> (&fields)[N]) {
  os << '[';
  for (std::size_t i = 0; i < rows.size(); ++i) {
    os << (i == 0 ? "\n    {" : ",\n    {");
    put_fields(os, rows[i], fields);
    os << '}';
  }
  os << (rows.empty() ? "]" : "\n  ]");
}

/// Reads the members of one snapshot object.  An absent member keeps the
/// caller's default; a present one must have the JSON type render_snapshot
/// writes for it, or the whole snapshot is rejected as corrupt.
class Members {
 public:
  Members(const Json& node, const std::string& path, std::string where)
      : node_(&node), path_(path), where_(std::move(where)) {
    if (!node.is_object()) fail("is not an object");
  }

  void get(const char* key, std::uint64_t& out) const {
    const Json* node = typed(key, Json::Type::kNumber);
    if (node == nullptr) return;
    const double v = node->as_number();
    if (!(v >= 0.0 && v < 0x1p64 && v == std::floor(v))) {
      fail(std::string("member '") + key + "' is not a non-negative integer");
    }
    out = static_cast<std::uint64_t>(v);
  }
  void get(const char* key, std::uint32_t& out) const {
    std::uint64_t v = out;
    get(key, v);
    if (v > std::numeric_limits<std::uint32_t>::max()) {
      fail(std::string("member '") + key + "' is out of range");
    }
    out = static_cast<std::uint32_t>(v);
  }
  void get(const char* key, double& out) const {
    if (const Json* node = typed(key, Json::Type::kNumber)) {
      out = node->as_number();
    }
  }
  void get(const char* key, bool& out) const {
    if (const Json* node = typed(key, Json::Type::kBool)) out = node->as_bool();
  }
  template <typename T, std::size_t N>
  void get_fields(T& object, const Field<T> (&fields)[N]) const {
    for (const Field<T>& field : fields) {
      std::visit([&](const auto& member) { get(field.name, object.*member); },
                 field.member);
    }
  }

  /// The members of nested object `key` (nullopt when absent).
  std::optional<Members> object(const char* key) const {
    const Json* node = typed(key, Json::Type::kObject);
    if (node == nullptr) return std::nullopt;
    return Members(*node, path_, child(key));
  }
  /// Each element of array `key` as Members (none when absent).
  std::vector<Members> rows(const char* key) const {
    std::vector<Members> out;
    const Json* node = typed(key, Json::Type::kArray);
    if (node == nullptr) return out;
    for (const Json& row : node->as_array()) {
      out.emplace_back(row, path_,
                       child(key) + "[" + std::to_string(out.size()) + "]");
    }
    return out;
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw Error(path_ + ": corrupt serve snapshot: " +
                    (where_.empty() ? std::string("body") : where_) + " " +
                    what,
                ErrorCode::kCorruptArtifact);
  }

 private:
  const Json* typed(const char* key, Json::Type type) const {
    const Json* node = node_->find(key);
    if (node != nullptr && node->type() != type) {
      fail(std::string("member '") + key + "' has the wrong type");
    }
    return node;
  }

  std::string child(const char* key) const {
    return where_.empty() ? std::string(key) : where_ + "." + key;
  }

  const Json* node_;
  std::string path_;
  std::string where_;  ///< "" for the root, else e.g. "drift.clients[2]"
};

}  // namespace

std::string render_snapshot(const ServeResult& r) {
  std::ostringstream os;
  os << "{\n  \"" << kSnapshotVersionMember << "\": " << kServeSnapshotVersion
     << ",\n  ";
  put_fields(os, r, kTopFields, ",\n  ");
  os << ",\n  \"samples\": {";
  put_fields(os, r, kSampleFields);
  os << "},\n  \"windows\": {";
  put_fields(os, r, kWindowFields);
  os << "},\n  \"timeline\": ";
  put_rows(os, downsample_timeline(r.timeline, kSnapshotTimelineRows),
           kTimelineFields);
  if (r.drift_available) {
    os << ",\n  \"drift\": {";
    put_fields(os, r, kDriftFields);
    os << ", \"clients\": ";
    put_rows(os, r.model_health, kHealthFields);
    os << '}';
  }
  os << ",\n  \"faults\": {";
  put_fields(os, r, kFaultFields);
  os << "},\n  \"clients\": ";
  put_rows(os, r.clients, kClientFields);
  os << "\n}\n";
  return os.str();
}

Snapshot load_snapshot(const std::string& path) {
  const util::VersionedArtifact artifact = util::read_versioned_artifact(
      path, kSnapshotKind, kServeSnapshotVersion, util::LoadPolicy{});
  const Json doc = Json::parse(artifact.body);
  const Members root(doc, path, "");
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
  if (const std::optional<Members> samples = root.object("samples")) {
    samples->get_fields(r, kSampleFields);
  }
  if (const std::optional<Members> windows = root.object("windows")) {
    windows->get_fields(r, kWindowFields);
  }
  for (const Members& row : root.rows("timeline")) {
    row.get_fields(r.timeline.emplace_back(), kTimelineFields);
  }
  if (const std::optional<Members> drift = root.object("drift")) {
    r.drift_available = true;
    drift->get_fields(r, kDriftFields);
    for (const Members& row : drift->rows("clients")) {
      row.get_fields(r.model_health.emplace_back(), kHealthFields);
    }
  }
  if (const std::optional<Members> faults = root.object("faults")) {
    faults->get_fields(r, kFaultFields);
  }
  for (const Members& row : root.rows("clients")) {
    row.get_fields(r.clients.emplace_back(), kClientFields);
  }
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
