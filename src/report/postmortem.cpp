#include "drbw/report/postmortem.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "drbw/util/artifact.hpp"
#include "drbw/util/strings.hpp"

namespace drbw::report {

namespace {

const Json* find_in(const Json* node, const char* key) {
  return node != nullptr && node->is_object() ? node->find(key) : nullptr;
}

std::string str_or(const Json* node, const std::string& fallback) {
  return node != nullptr && node->type() == Json::Type::kString
             ? node->as_string()
             : fallback;
}

double num_or(const Json* node, double fallback) {
  return node != nullptr && node->type() == Json::Type::kNumber
             ? node->as_number()
             : fallback;
}

std::uint64_t u64_or(const Json* node, std::uint64_t fallback) {
  return node != nullptr && node->type() == Json::Type::kNumber
             ? static_cast<std::uint64_t>(node->as_int())
             : fallback;
}

std::vector<obs::ArtifactRef> parse_artifact_refs(const Json* node) {
  std::vector<obs::ArtifactRef> refs;
  if (node == nullptr || !node->is_array()) return refs;
  for (const Json& entry : node->as_array()) {
    if (!entry.is_object()) continue;
    obs::ArtifactRef ref;
    ref.role = str_or(entry.find("role"), "");
    ref.path = str_or(entry.find("path"), "");
    ref.kind = str_or(entry.find("kind"), "");
    ref.version = static_cast<int>(num_or(entry.find("version"), 0));
    ref.bytes = u64_or(entry.find("bytes"), 0);
    const std::string crc_hex = str_or(entry.find("crc32"), "");
    if (!crc_hex.empty()) {
      ref.crc = static_cast<std::uint32_t>(
          std::strtoul(crc_hex.c_str(), nullptr, 16));
    }
    refs.push_back(std::move(ref));
  }
  return refs;
}

std::vector<obs::SpanStat> parse_spans(const Json* node) {
  std::vector<obs::SpanStat> spans;
  if (node == nullptr || !node->is_array()) return spans;
  for (const Json& entry : node->as_array()) {
    if (!entry.is_object()) continue;
    obs::SpanStat stat;
    stat.name = str_or(entry.find("name"), "");
    stat.count = u64_or(entry.find("count"), 0);
    stat.total_dur = u64_or(entry.find("total_dur"), 0);
    stat.max_dur = u64_or(entry.find("max_dur"), 0);
    spans.push_back(std::move(stat));
  }
  return spans;
}

}  // namespace

ManifestData load_manifest(const std::string& path) {
  const util::VersionedArtifact artifact = util::read_versioned_artifact(
      path, "manifest", obs::kManifestVersion, util::LoadPolicy{});
  ManifestData m;
  try {
    m.document = Json::parse(artifact.body);
  } catch (const Error& e) {
    throw Error(path + ": " + e.what(), ErrorCode::kParse);
  }
  const Json* golden = m.document.find("golden");
  const Json* context = m.document.find("context");
  m.subcommand = str_or(find_in(golden, "subcommand"), "");
  m.fault_spec = str_or(find_in(golden, "fault_spec"), "");
  if (const Json* degraded = find_in(golden, "degraded")) {
    m.degraded = degraded->type() == Json::Type::kBool && degraded->as_bool();
  }
  m.drift = str_or(find_in(golden, "drift"), "");
  if (const Json* outcome = find_in(golden, "outcome")) {
    m.status = str_or(outcome->find("status"), "ok");
    m.error_code = str_or(outcome->find("error_code"), "");
    m.exit_code = static_cast<int>(num_or(outcome->find("exit_code"), 0));
    m.message = str_or(outcome->find("message"), "");
  }
  if (const Json* load = find_in(golden, "load")) {
    m.has_load = true;
    m.records_seen = u64_or(load->find("records_seen"), 0);
    m.records_ok = u64_or(load->find("records_ok"), 0);
    m.records_quarantined = u64_or(load->find("records_quarantined"), 0);
    const Json* ok = load->find("checksum_ok");
    m.checksum_ok =
        ok == nullptr || ok->type() != Json::Type::kBool || ok->as_bool();
  }
  if (const Json* fires = find_in(golden, "fault_fires")) {
    if (fires->is_object()) {
      for (const auto& [site, count] : fires->as_object()) {
        m.fault_fires.emplace_back(site, u64_or(&count, 0));
      }
    }
  }
  m.spans = parse_spans(find_in(golden, "spans"));
  if (m.spans.empty()) m.spans = parse_spans(find_in(context, "spans"));
  if (const Json* metrics = find_in(golden, "metrics")) {
    if (const Json* counters = find_in(metrics, "counters")) {
      if (counters->is_object()) {
        for (const auto& [name, entry] : counters->as_object()) {
          if (!entry.is_object()) continue;
          m.counters.emplace_back(name, num_or(entry.find("value"), 0.0));
        }
      }
    }
  }
  m.inputs = parse_artifact_refs(find_in(golden, "inputs"));
  m.outputs = parse_artifact_refs(find_in(golden, "outputs"));
  m.jobs = static_cast<int>(num_or(find_in(context, "jobs"), 0));
  return m;
}

std::vector<FlightRecord> load_flight_dump(const std::string& path) {
  const util::VersionedArtifact artifact = util::read_versioned_artifact(
      path, "flight", obs::kFlightVersion, util::LoadPolicy{});
  std::vector<FlightRecord> records;
  std::istringstream is(artifact.body);
  std::string line;
  std::size_t line_no = 1;  // the artifact header was line 1
  while (std::getline(is, line)) {
    ++line_no;
    if (trim(line).empty()) continue;
    if (line.rfind("track,", 0) == 0) continue;  // column header
    // track,seq,ts,value,tag,detail — detail is last, commas in it are safe.
    FlightRecord record;
    std::uint64_t* numeric[4] = {&record.track, &record.seq, &record.ts,
                                 &record.value};
    std::size_t begin = 0;
    bool ok = true;
    for (auto* field : numeric) {
      const std::size_t comma = line.find(',', begin);
      if (comma == std::string::npos) {
        ok = false;
        break;
      }
      char* end = nullptr;
      const std::string text = line.substr(begin, comma - begin);
      *field = std::strtoull(text.c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || text.empty()) {
        ok = false;
        break;
      }
      begin = comma + 1;
    }
    const std::size_t tag_comma = ok ? line.find(',', begin) : std::string::npos;
    if (!ok || tag_comma == std::string::npos) {
      throw Error(path + ":" + std::to_string(line_no) +
                      ": malformed flight record '" + line + "'",
                  ErrorCode::kParse);
    }
    record.tag = line.substr(begin, tag_comma - begin);
    record.detail = line.substr(tag_comma + 1);
    records.push_back(std::move(record));
  }
  return records;
}

namespace {

std::string render_fire_list(
    const std::vector<std::pair<std::string, std::uint64_t>>& fires) {
  std::string out;
  for (std::size_t i = 0; i < fires.size(); ++i) {
    if (i > 0) out += ", ";
    out += fires[i].first + " x" + std::to_string(fires[i].second);
  }
  return out;
}

}  // namespace

DoctorReport doctor(const std::string& run_dir) {
  namespace fs = std::filesystem;
  DoctorReport rep;
  rep.run_dir = run_dir.empty() ? "." : run_dir;
  const fs::path dir(rep.run_dir);
  const std::string manifest_path = (dir / obs::kManifestFileName).string();
  util::require_input_file(manifest_path, "run manifest");
  rep.manifest = load_manifest(manifest_path);

  const std::string flight_path = (dir / obs::kFlightFileName).string();
  std::error_code ec;
  if (fs::exists(flight_path, ec)) {
    rep.flight = load_flight_dump(flight_path);
    rep.has_flight = true;
  }

  // The CLI notes stages from the main thread, which dumps as dense track 0;
  // the stage with the highest seq there is where the run last was.
  std::uint64_t best_seq = 0;
  for (const FlightRecord& record : rep.flight) {
    if (record.tag == "stage" && record.track == 0 && record.seq >= best_seq) {
      best_seq = record.seq;
      rep.last_stage = record.detail;
    }
  }

  const ManifestData& m = rep.manifest;
  int rank = 0;
  const auto add = [&](const std::string& title, const std::string& evidence,
                       const std::string& advice) {
    rep.findings.push_back(Finding{++rank, title, evidence, advice});
  };

  if (m.status == "error") {
    if (m.error_code == "fault-injected") {
      std::string evidence = "fault spec '" + m.fault_spec + "' armed";
      if (!m.fault_fires.empty()) {
        evidence += "; fired sites: " + render_fire_list(m.fault_fires);
      }
      evidence += "; error: " + m.message;
      add("injected fault fired", evidence,
          "this failure was requested via --inject-faults; drop the flag or "
          "change its seed= clause to move the fault elsewhere");
    } else if (m.error_code == "corrupt-artifact") {
      std::string evidence = "error: " + m.message;
      if (m.has_load) {
        evidence += "; load saw " + std::to_string(m.records_seen) +
                    " records, quarantined " +
                    std::to_string(m.records_quarantined) +
                    (m.checksum_ok ? "" : ", body checksum FAILED");
      }
      if (!m.inputs.empty()) {
        evidence += "; input '" + m.inputs.front().path + "'";
      }
      add("corrupt input artifact", evidence,
          m.has_load && m.records_quarantined > 0
              ? "retry with --load-mode lenient and a higher "
                "--max-bad-fraction, or regenerate the artifact with "
                "`drbw record`"
              : "retry with --load-mode lenient, or regenerate the artifact "
                "with `drbw record`");
    } else if (m.error_code == "parse-error") {
      add("unparseable artifact", "error: " + m.message,
          "the file is not a valid DR-BW artifact; regenerate it with the "
          "current binary (`drbw record` / `drbw train`)");
    } else if (m.error_code == "version-skew") {
      add("artifact version skew", "error: " + m.message,
          "the artifact's header (the offending token is named in the "
          "error) is newer than what this run accepted; re-record it with "
          "this build (`drbw record`), convert it to the expected version "
          "(`drbw convert --format csv`), or drop the "
          "--expect-trace-version pin / rebuild drbw");
    } else if (m.error_code == "not-found") {
      add("missing input file", "error: " + m.message,
          "check the path (the error message lists same-extension siblings "
          "when any exist)");
    } else if (m.error_code == "io-error") {
      add("I/O failure", "error: " + m.message,
          "check disk space and permissions for the paths involved, then "
          "retry");
    } else {
      add("run failed (" + (m.error_code.empty() ? "unknown" : m.error_code) +
              ")",
          "error: " + m.message, "rerun with --trace-out for a full trace of "
                                 "the failing pipeline");
    }
    // Injected damage often surfaces as a downstream parse/corruption
    // failure rather than kFaultInjected itself — implicate the spec.
    if (m.error_code != "fault-injected" && !m.fault_fires.empty()) {
      add("fault injection was active",
          "spec '" + m.fault_spec +
              "' fired: " + render_fire_list(m.fault_fires),
          "the damage above is likely injected, not organic; rerun without "
          "--inject-faults to confirm");
    }
    if (!rep.last_stage.empty()) {
      add("failing stage: " + rep.last_stage,
          "the flight recorder's last stage transition on the main track is "
          "'" + rep.last_stage + "'",
          "instrument or rerun that stage in isolation");
    }
  } else {
    if (m.records_quarantined > 0) {
      add("quarantined records on a passing run",
          std::to_string(m.records_quarantined) + " of " +
              std::to_string(m.records_seen) +
              " records were quarantined by the lenient load",
          "the verdict may rest on a thinned sample population; regenerate "
          "the trace if the fraction grows");
    }
    if (!m.checksum_ok) {
      add("tolerated checksum failure",
          "the artifact body failed crc32 validation but the lenient load "
          "continued",
          "regenerate the artifact; per-record validation caught what it "
          "could");
    }
    if (m.degraded) {
      add("run completed DEGRADED",
          "the manifest records degraded=true: `drbw serve` could not load "
          "a usable model and fell back to pass-through telemetry (no "
          "window was classified)",
          "re-train the model (`drbw train --out model.json`) or point "
          "--model at an intact artifact, then replay the trace");
    }
    if (m.subcommand == "serve") {
      const auto counter = [&](const char* name) {
        for (const auto& [key, value] : m.counters) {
          if (key == name) return value;
        }
        return 0.0;
      };
      const double quarantined =
          counter("drbw_serve_clients_quarantined_total");
      if (quarantined > 0) {
        add("clients quarantined by the circuit breaker",
            std::to_string(static_cast<std::uint64_t>(quarantined)) +
                " client(s) hit " + "consecutive-fault quarantine; their "
                "remaining samples were discarded (see "
                "drbw_serve_samples_dropped_total)",
            "inspect the fired serve.* sites above; raise --max-retries or "
            "--breaker-threshold if transient faults should be ridden out");
      }
      if (m.drift == "suspected") {
        add("model drift suspected (DriftSuspected)",
            "the manifest records drift=\"suspected\": at least one client's "
            "serving distribution diverged from the model's training "
            "baseline past --drift-threshold (per-client PSI scores are in "
            "the snapshot's drift section and drbw_model_drift_score)",
            "the model may be stale for this workload — re-train on a "
            "recent trace (`drbw train`), or raise --drift-threshold if the "
            "shift is expected");
      } else if (m.drift == "unavailable" && !m.degraded) {
        add("drift detection unavailable",
            "the manifest records drift=\"unavailable\": the model loaded "
            "but carries no training baseline (saved before model format "
            "v3), so serving-time drift could not be measured",
            "re-save the model with this build (`drbw train --out "
            "model.json`) to embed the drift baseline");
      }
      const double shed = counter("drbw_serve_samples_shed_total");
      const double rejected = counter("drbw_serve_samples_rejected_total");
      if (shed > 0 || rejected > 0) {
        add("ingest queues overflowed",
            std::to_string(static_cast<std::uint64_t>(shed)) +
                " sample(s) shed and " +
                std::to_string(static_cast<std::uint64_t>(rejected)) +
                " rejected under overload",
            "raise --queue-depth or --drain-rate, or switch --overload to "
            "block if losing samples is worse than added latency");
      }
    }
    if (!m.fault_fires.empty()) {
      add("fault sites fired on a passing run",
          "fired: " + render_fire_list(m.fault_fires),
          "injected damage was absorbed by the robustness layer; this is "
          "expected only under --inject-faults");
    }
  }

  // Fleet cross-link: sibling run dirs next to this one mean the run is part
  // of a corpus (chaos CI, batch evaluation) — one diagnosis rarely tells
  // the whole story there.  Ranked last: it redirects, it does not explain.
  std::error_code sibling_ec;
  const fs::path self = fs::absolute(dir, sibling_ec).lexically_normal();
  const fs::path parent = self.parent_path();
  if (!sibling_ec && !parent.empty() && fs::is_directory(parent, sibling_ec)) {
    std::vector<fs::path> siblings;
    for (fs::directory_iterator it(parent, sibling_ec), end;
         !sibling_ec && it != end; it.increment(sibling_ec)) {
      std::error_code entry_ec;
      if (!it->is_directory(entry_ec)) continue;
      if (it->path().lexically_normal() == self) continue;
      if (fs::exists(it->path() / obs::kManifestFileName, entry_ec)) {
        siblings.push_back(it->path());
      }
    }
    std::sort(siblings.begin(), siblings.end());
    if (!siblings.empty()) {
      std::size_t same_token = 0;
      std::size_t degraded_siblings = 0;
      for (const fs::path& sibling : siblings) {
        try {
          const ManifestData other = load_manifest(
              (sibling / obs::kManifestFileName).string());
          if (m.status == "error" && !m.error_code.empty() &&
              other.error_code == m.error_code) {
            ++same_token;
          }
          if (other.degraded) ++degraded_siblings;
        } catch (const Error&) {
          // A corrupt sibling manifest is the fleet tool's problem.
        }
      }
      std::string evidence = std::to_string(siblings.size()) +
                             " sibling run dir(s) under '" + parent.string() +
                             "'";
      if (m.status == "error" && !m.error_code.empty()) {
        evidence += "; " + std::to_string(same_token) +
                    " share error token '" + m.error_code + "'";
      }
      if (degraded_siblings > 0) {
        evidence += "; " + std::to_string(degraded_siblings) +
                    " sibling(s) ran degraded";
      }
      add("this run dir is part of a corpus", evidence,
          "aggregate all of them with `drbw fleet " + parent.string() + "`");
    }
  }
  return rep;
}

std::string render_doctor(const DoctorReport& rep) {
  const ManifestData& m = rep.manifest;
  std::ostringstream os;
  os << "run " << rep.run_dir << ": drbw " << m.subcommand;
  if (m.status == "ok") {
    os << " — completed (exit " << m.exit_code << ")\n";
  } else {
    os << " — FAILED (" << m.error_code << ", exit " << m.exit_code << ")\n";
  }
  if (rep.has_flight) {
    os << "flight: " << rep.flight.size() << " event(s)";
    if (!rep.last_stage.empty()) os << ", last stage '" << rep.last_stage << "'";
    os << '\n';
  } else {
    os << "flight: no dump found\n";
  }
  if (rep.findings.empty()) {
    os << "\nno findings — the run completed cleanly.\n";
    return os.str();
  }
  os << "\nfindings (most likely root cause first):\n";
  for (const Finding& finding : rep.findings) {
    os << "  " << finding.rank << ". " << finding.title << '\n'
       << "     evidence: " << finding.evidence << '\n'
       << "     advice:   " << finding.advice << '\n';
  }
  return os.str();
}

PerfDiff perf_diff(const ManifestData& before, const ManifestData& after,
                   double threshold) {
  PerfDiff diff;
  diff.threshold = threshold;
  diff.spans_comparable = !before.spans.empty() && !after.spans.empty();

  const auto compare = [&](const std::string& name, const std::string& kind,
                           double a, double b) {
    PerfDelta delta;
    delta.name = name;
    delta.kind = kind;
    delta.before = a;
    delta.after = b;
    delta.ratio = a > 0.0 ? b / a : 1.0;
    delta.regression = a > 0.0 && b > a * (1.0 + threshold);
    if (delta.regression) diff.regressed = true;
    diff.rows.push_back(std::move(delta));
  };

  const auto gone = [&](const std::string& name, const std::string& kind,
                        double a) {
    PerfDelta delta;
    delta.name = name;
    delta.kind = kind;
    delta.before = a;
    delta.gone = true;
    diff.rows.push_back(std::move(delta));
  };

  for (const obs::SpanStat& stat : before.spans) {
    const auto match = std::find_if(
        after.spans.begin(), after.spans.end(),
        [&](const obs::SpanStat& other) { return other.name == stat.name; });
    if (match == after.spans.end()) {
      gone(stat.name, "span", static_cast<double>(stat.total_dur));
    } else {
      compare(stat.name, "span", static_cast<double>(stat.total_dur),
              static_cast<double>(match->total_dur));
    }
  }
  for (const auto& [name, value] : before.counters) {
    const auto match =
        std::find_if(after.counters.begin(), after.counters.end(),
                     [&](const auto& other) { return other.first == name; });
    if (match == after.counters.end()) {
      gone(name, "counter", value);
    } else {
      compare(name, "counter", value, match->second);
    }
  }
  const auto group = [](const PerfDelta& row) {
    return row.regression ? 0 : (row.gone ? 2 : 1);
  };
  std::stable_sort(diff.rows.begin(), diff.rows.end(),
                   [&](const PerfDelta& a, const PerfDelta& b) {
                     if (group(a) != group(b)) return group(a) < group(b);
                     return a.name < b.name;
                   });
  return diff;
}

std::string render_perf_diff(const PerfDiff& diff) {
  std::ostringstream os;
  char buf[64];
  os << "perf diff (regression threshold +"
     << static_cast<int>(diff.threshold * 100.0) << "%"
     << (diff.spans_comparable ? "" : "; span stats missing on one side")
     << ")\n";
  const auto gone = static_cast<std::size_t>(
      std::count_if(diff.rows.begin(), diff.rows.end(),
                    [](const PerfDelta& row) { return row.gone; }));
  os << "  " << diff.rows.size() - gone << " comparable quantities";
  if (gone > 0) os << ", " << gone << " gone from the new manifest";
  os << '\n';
  for (const PerfDelta& row : diff.rows) {
    if (row.gone) {
      os << "  gone       " << row.kind << ' ' << row.name << ": "
         << row.before << " -> (absent)\n";
      continue;
    }
    std::snprintf(buf, sizeof buf, "%+.1f%%", (row.ratio - 1.0) * 100.0);
    os << "  " << (row.regression ? "REGRESSION " : "ok         ") << row.kind
       << ' ' << row.name << ": " << row.before << " -> " << row.after << " ("
       << buf << ")\n";
  }
  os << (diff.regressed ? "RESULT: regression above threshold\n"
                        : "RESULT: within threshold\n");
  return os.str();
}

}  // namespace drbw::report
