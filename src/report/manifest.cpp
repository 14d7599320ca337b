#include "drbw/report/manifest.hpp"

#include <sys/resource.h>

#include <sstream>

#include "drbw/util/artifact.hpp"
#include "drbw/util/json_fields.hpp"

namespace drbw::report {

namespace {

using util::Field;
using util::Members;

const Field<ArtifactRef> kArtifactFields[] = {
    {"role", &ArtifactRef::role},
    {"path", &ArtifactRef::path},
    {"kind", &ArtifactRef::kind},
    {"version", &ArtifactRef::version},
    {"crc32", &ArtifactRef::crc, /*hex=*/true},
    {"bytes", &ArtifactRef::bytes},
};
const Field<obs::SpanStat> kSpanFields[] = {
    {"name", &obs::SpanStat::name},
    {"count", &obs::SpanStat::count},
    {"total_dur", &obs::SpanStat::total_dur},
    {"max_dur", &obs::SpanStat::max_dur},
};
const Field<RunManifest> kModelShapeFields[] = {
    {"nodes", &RunManifest::model_nodes},
    {"leaves", &RunManifest::model_leaves},
    {"max_depth", &RunManifest::model_depth},
};
const Field<RunManifest> kLoadFields[] = {
    {"records_seen", &RunManifest::records_seen},
    {"records_ok", &RunManifest::records_ok},
    {"records_quarantined", &RunManifest::records_quarantined},
    {"checksum_ok", &RunManifest::checksum_ok},
};
const Field<RunManifest> kOutcomeFields[] = {
    {"status", &RunManifest::status},
    {"error_code", &RunManifest::error_code},
    {"exit_code", &RunManifest::exit_code},
    {"message", &RunManifest::message},
};
const Field<RunManifest> kContextFields[] = {
    {"jobs", &RunManifest::jobs},
    {"timing", &RunManifest::timing},
    {"flight_events", &RunManifest::flight_events},
    {"flight_dropped", &RunManifest::flight_dropped},
    {"minor_faults", &RunManifest::minor_faults},
    {"peak_rss_kib", &RunManifest::peak_rss_kib},
};

/// A golden map member: one entry per line, or all on one line.
template <typename V>
void put_map(std::ostream& os,
             const std::vector<std::pair<std::string, V>>& entries,
             bool one_line = false) {
  os << '{';
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) os << ',';
    os << (!one_line ? "\n      " : i > 0 ? " " : "")
       << json_quoted(entries[i].first) << ": ";
    util::put(os, entries[i].second);
  }
  os << (one_line || entries.empty() ? "}" : "\n    }");
}

}  // namespace

std::string RunManifest::to_json() const {
  std::ostringstream os;
  os << "{\n  \"drbw_manifest\": " << kManifestVersion << ",\n";
  os << "  \"golden\": {\n";
  os << "    \"subcommand\": " << json_quoted(subcommand) << ",\n";
  os << "    \"config\": ";
  put_map(os, config);
  os << ",\n    \"fault_spec\": " << json_quoted(fault_spec) << ",\n";
  if (degraded) os << "    \"degraded\": true,\n";
  if (!drift.empty()) os << "    \"drift\": " << json_quoted(drift) << ",\n";
  if (has_model_shape) {
    os << "    \"model_shape\": {";
    util::put_fields(os, *this, kModelShapeFields);
    os << ", \"splits\": ";
    put_map(os, model_splits, /*one_line=*/true);
    os << "},\n";
  }
  os << "    \"inputs\": ";
  util::put_rows(os, inputs, kArtifactFields, 4);
  os << ",\n    \"outputs\": ";
  util::put_rows(os, outputs, kArtifactFields, 4);
  os << ",\n";
  if (has_load_stats) {
    os << "    \"load\": {";
    util::put_fields(os, *this, kLoadFields);
    os << "},\n";
  }
  os << "    \"fault_fires\": ";
  put_map(os, fault_fires);
  os << ",\n";
  if (spans_golden) {
    os << "    \"spans\": ";
    util::put_rows(os, spans, kSpanFields, 4);
    os << ",\n";
  }
  if (!metrics_json.empty()) {
    const std::size_t end = metrics_json.find_last_not_of("\n ");
    os << "    \"metrics\": " << metrics_json.substr(0, end + 1) << ",\n";
  }
  os << "    \"outcome\": {";
  util::put_fields(os, *this, kOutcomeFields);
  os << "}\n  },\n  \"context\": {\n    ";
  util::put_fields(os, *this, kContextFields, ",\n    ");
  if (!spans_golden) {
    os << ",\n    \"spans\": ";
    util::put_rows(os, spans, kSpanFields, 4);
  }
  os << "\n  }\n}\n";
  return os.str();
}

void RunManifest::record_usage() {
  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return;
  minor_faults = static_cast<std::uint64_t>(usage.ru_minflt);
  peak_rss_kib = static_cast<std::uint64_t>(usage.ru_maxrss);  // KiB on Linux
}

void RunManifest::write(const std::string& path) const {
  util::write_versioned_artifact(path, "manifest", kManifestVersion,
                                 to_json());
}

RunManifest load_manifest(const std::string& path) {
  const util::VersionedArtifact artifact = util::read_versioned_artifact(
      path, "manifest", kManifestVersion, util::LoadPolicy{});
  Json doc;
  try {
    doc = Json::parse(artifact.body);
  } catch (const Error& e) {
    throw Error(path + ": " + e.what(), ErrorCode::kParse);
  }
  const Members root(doc, path, "run manifest");
  RunManifest m;
  if (const std::optional<Members> golden = root.object("golden")) {
    golden->get("subcommand", m.subcommand);
    golden->get("config", m.config);
    golden->get("fault_spec", m.fault_spec);
    golden->get("degraded", m.degraded);
    golden->get("drift", m.drift);
    if (const std::optional<Members> shape = golden->object("model_shape")) {
      m.has_model_shape = true;
      shape->get_fields(m, kModelShapeFields);
      shape->get("splits", m.model_splits);
    }
    golden->get_rows("inputs", m.inputs, kArtifactFields);
    golden->get_rows("outputs", m.outputs, kArtifactFields);
    m.has_load_stats = golden->get_object("load", m, kLoadFields);
    golden->get("fault_fires", m.fault_fires);
    golden->get_rows("spans", m.spans, kSpanFields);
    if (const std::optional<Members> metrics = golden->object("metrics")) {
      for (const auto& [name, counter] : metrics->entries("counters")) {
        counter.get("value", m.counters.emplace_back(name, 0.0).second);
      }
    }
    golden->get_object("outcome", m, kOutcomeFields);
  }
  if (const std::optional<Members> context = root.object("context")) {
    context->get_fields(m, kContextFields);
    m.spans_golden = !context->has("spans");
    context->get_rows("spans", m.spans, kSpanFields);
  }
  return m;
}

}  // namespace drbw::report
