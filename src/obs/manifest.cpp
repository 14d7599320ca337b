#include "drbw/obs/manifest.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <sstream>

#include "drbw/obs/sink.hpp"
#include "internal.hpp"

namespace drbw::obs {

namespace {

std::string quoted(const std::string& s) {
  return '"' + internal::json_escape(s) + '"';
}

void render_artifacts(std::ostream& os, const char* key,
                      const std::vector<ArtifactRef>& refs) {
  os << "    " << quoted(key) << ": [";
  for (std::size_t i = 0; i < refs.size(); ++i) {
    const ArtifactRef& ref = refs[i];
    char crc[16];
    std::snprintf(crc, sizeof crc, "%08x", ref.crc);
    os << (i == 0 ? "\n" : ",\n") << "      {\"role\": " << quoted(ref.role)
       << ", \"path\": " << quoted(ref.path)
       << ", \"kind\": " << quoted(ref.kind) << ", \"version\": " << ref.version
       << ", \"crc32\": \"" << crc << "\", \"bytes\": " << ref.bytes << "}";
  }
  os << (refs.empty() ? "]" : "\n    ]");
}

void render_spans(std::ostream& os, const std::vector<SpanStat>& spans) {
  os << "\"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanStat& s = spans[i];
    os << (i == 0 ? "\n" : ",\n") << "      {\"name\": " << quoted(s.name)
       << ", \"count\": " << s.count << ", \"total_dur\": " << s.total_dur
       << ", \"max_dur\": " << s.max_dur << "}";
  }
  os << (spans.empty() ? "]" : "\n    ]");
}

}  // namespace

std::string RunManifest::to_json() const {
  std::ostringstream os;
  os << "{\n  \"drbw_manifest\": " << kManifestVersion << ",\n";
  os << "  \"golden\": {\n";
  os << "    \"subcommand\": " << quoted(subcommand) << ",\n";
  os << "    \"config\": {";
  for (std::size_t i = 0; i < config.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "      " << quoted(config[i].first)
       << ": " << quoted(config[i].second);
  }
  os << (config.empty() ? "}" : "\n    }") << ",\n";
  os << "    \"fault_spec\": " << quoted(fault_spec) << ",\n";
  if (degraded) {
    os << "    \"degraded\": true,\n";
  }
  if (!drift.empty()) {
    os << "    \"drift\": " << quoted(drift) << ",\n";
  }
  if (has_model_shape) {
    os << "    \"model_shape\": {\"nodes\": " << model_nodes
       << ", \"leaves\": " << model_leaves << ", \"max_depth\": " << model_depth
       << ", \"splits\": {";
    for (std::size_t i = 0; i < model_splits.size(); ++i) {
      os << (i == 0 ? "" : ", ") << quoted(model_splits[i].first) << ": "
         << model_splits[i].second;
    }
    os << "}},\n";
  }
  render_artifacts(os, "inputs", inputs);
  os << ",\n";
  render_artifacts(os, "outputs", outputs);
  os << ",\n";
  if (has_load_stats) {
    os << "    \"load\": {\"records_seen\": " << records_seen
       << ", \"records_ok\": " << records_ok
       << ", \"records_quarantined\": " << records_quarantined
       << ", \"checksum_ok\": " << (checksum_ok ? "true" : "false") << "},\n";
  }
  os << "    \"fault_fires\": {";
  for (std::size_t i = 0; i < fault_fires.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "      " << quoted(fault_fires[i].first)
       << ": " << fault_fires[i].second;
  }
  os << (fault_fires.empty() ? "}" : "\n    }") << ",\n";
  if (spans_golden) {
    os << "    ";
    render_spans(os, spans);
    os << ",\n";
  }
  if (!metrics_json.empty()) {
    std::string metrics = metrics_json;
    while (!metrics.empty() &&
           (metrics.back() == '\n' || metrics.back() == ' ')) {
      metrics.pop_back();
    }
    os << "    \"metrics\": " << metrics << ",\n";
  }
  os << "    \"outcome\": {\"status\": " << quoted(status)
     << ", \"error_code\": " << quoted(error_code)
     << ", \"exit_code\": " << exit_code
     << ", \"message\": " << quoted(message) << "}\n";
  os << "  },\n";
  os << "  \"context\": {\n";
  os << "    \"jobs\": " << jobs << ",\n";
  os << "    \"timing\": " << quoted(timing) << ",\n";
  os << "    \"flight_events\": " << flight_events << ",\n";
  os << "    \"flight_dropped\": " << flight_dropped << ",\n";
  os << "    \"minor_faults\": " << minor_faults << ",\n";
  os << "    \"peak_rss_kib\": " << peak_rss_kib;
  if (!spans_golden) {
    os << ",\n    ";
    render_spans(os, spans);
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
  const std::string body = to_json();
  std::string content = format_artifact_header("manifest", kManifestVersion,
                                               body);
  content += '\n';
  content += body;
  atomic_write_file(path, content);
}

}  // namespace drbw::obs
