#include "analyze_report.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "drbw/util/error.hpp"
#include "drbw/util/json.hpp"
#include "drbw/util/strings.hpp"

namespace drbw::analyze {
namespace {

/// Severity class per rule — lower sorts first.  Structural violations
/// (layering) outrank contract drift, which outranks hygiene.
int severity(const std::string& rule) {
  if (rule == "layer-back-edge" || rule == "include-cycle") return 0;
  if (rule == "exit-code-drift" || rule == "unregistered-name" ||
      rule == "unmapped-file" || rule == "unordered-flow" ||
      rule == "parallel-emit-no-track" || rule == "allow-missing-reason") {
    return 1;
  }
  return 2;  // dead-registry-entry, untested-name, mutable-global-state, ...
}

const char* sarif_level(const std::string& rule) {
  return severity(rule) == 0 ? "error" : "warning";
}

void rank(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              const int sa = severity(a.rule);
              const int sb = severity(b.rule);
              if (sa != sb) return sa < sb;
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.fingerprint < b.fingerprint;
            });
}

}  // namespace

std::vector<BaselineEntry> parse_baseline(std::string_view json_text,
                                          const std::string& origin) {
  Json doc;
  try {
    doc = Json::parse(json_text);
  } catch (const Error& e) {
    throw Error(origin + ": " + e.what(), ErrorCode::kParse);
  }
  std::vector<BaselineEntry> entries;
  const Json* list = doc.find("suppressions");
  if (list == nullptr) return entries;
  for (const Json& node : list->as_array()) {
    BaselineEntry entry;
    entry.fingerprint = node.at("fingerprint").as_string();
    entry.reason = node.at("reason").as_string();
    if (trim(entry.reason).empty()) {
      throw Error(origin + ": baseline entry '" + entry.fingerprint +
                      "' needs a non-empty reason",
                  ErrorCode::kParse);
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

std::vector<BaselineEntry> load_baseline(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw Error("drbw_analyze: cannot read baseline " + path,
                ErrorCode::kNotFound);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_baseline(buffer.str(), path);
}

AnalysisResult finalize(std::vector<Finding> findings, const Model& model,
                        const std::vector<BaselineEntry>& baseline) {
  AnalysisResult result;
  result.files_scanned = model.tus.size();

  // 1. Allow-comments: `// drbw-analyze: allow(<rule>) <reason>` on the
  // finding's line or the line above suppresses it — but only with a real
  // reason.  Every reason-less allow earns its own finding, whether or not
  // anything sits under it, and an allow-exempt finding always stands.
  std::vector<Finding> kept;
  for (const Tu& tu : model.tus) {
    for (const Allow& allow : tu.lex.allows) {
      if (meaningful_reason(allow.reason)) continue;
      kept.push_back(make_finding(
          "allow-missing-reason", tu.rel, allow.line, "allow:" + allow.rule,
          "allow(" + allow.rule +
              ") has no usable reason — write why the rule does not apply "
              "here, or remove the annotation"));
    }
  }
  for (Finding& finding : findings) {
    const Tu* tu = model.find(finding.file);
    const bool suppressed =
        !finding.allow_exempt && tu != nullptr &&
        std::any_of(tu->lex.allows.begin(), tu->lex.allows.end(),
                    [&](const Allow& allow) {
                      return allow.rule == finding.rule &&
                             (allow.line == finding.line ||
                              allow.line + 1 == finding.line) &&
                             meaningful_reason(allow.reason);
                    });
    if (!suppressed) kept.push_back(std::move(finding));
  }

  // 2. Baseline split.
  std::map<std::string, const BaselineEntry*> by_fingerprint;
  for (const BaselineEntry& entry : baseline) {
    by_fingerprint.emplace(entry.fingerprint, &entry);
  }
  std::set<std::string> matched;
  for (Finding& finding : kept) {
    if (by_fingerprint.count(finding.fingerprint)) {
      matched.insert(finding.fingerprint);
      result.suppressed.push_back(std::move(finding));
    } else {
      result.fresh.push_back(std::move(finding));
    }
  }
  for (const BaselineEntry& entry : baseline) {
    if (matched.count(entry.fingerprint)) continue;
    result.stale.push_back(make_finding(
        "stale-baseline", "tools/analyze/baseline.json", 1, entry.fingerprint,
        "baseline entry '" + entry.fingerprint +
            "' no longer matches any finding — the debt is paid; delete the "
            "entry"));
  }

  rank(result.fresh);
  rank(result.suppressed);
  rank(result.stale);
  return result;
}

std::string render_text(const AnalysisResult& result) {
  std::ostringstream os;
  os << "drbw_analyze: " << result.files_scanned << " files scanned, "
     << result.fresh.size() << " new finding(s), " << result.suppressed.size()
     << " baseline-suppressed, " << result.stale.size()
     << " stale baseline entr" << (result.stale.size() == 1 ? "y" : "ies")
     << "\n";
  if (!result.fresh.empty()) {
    os << "\nnew findings (ranked):\n";
    for (const Finding& f : result.fresh) {
      os << "  " << f.file << ":" << f.line << ": [" << f.rule << "] "
         << f.message << "\n";
    }
  }
  if (!result.stale.empty()) {
    os << "\nstale baseline entries:\n";
    for (const Finding& f : result.stale) {
      os << "  " << f.file << ": " << f.message << "\n";
    }
  }
  if (!result.suppressed.empty()) {
    os << "\nsuppressed by baseline:\n";
    for (const Finding& f : result.suppressed) {
      os << "  " << f.file << ":" << f.line << ": [" << f.rule << "] ("
         << f.fingerprint << ")\n";
    }
  }
  os << "\n" << (result.clean() ? "CLEAN" : "FAIL") << "\n";
  return os.str();
}

namespace {

Json finding_json(const Finding& f, const char* disposition) {
  Json message;
  message.set("text", f.message);
  Json artifact;
  artifact.set("uri", f.file);
  Json region;
  region.set("startLine", f.line);
  Json physical;
  physical.set("artifactLocation", std::move(artifact));
  physical.set("region", std::move(region));
  Json location;
  location.set("physicalLocation", std::move(physical));
  Json locations;
  locations.push_back(std::move(location));
  Json properties;
  properties.set("fingerprint", f.fingerprint);
  properties.set("disposition", disposition);
  Json out;
  out.set("ruleId", f.rule);
  out.set("level", sarif_level(f.rule));
  out.set("message", std::move(message));
  out.set("locations", std::move(locations));
  out.set("properties", std::move(properties));
  return out;
}

}  // namespace

std::string render_json(const AnalysisResult& result) {
  Json results;
  for (const Finding& f : result.fresh) {
    results.push_back(finding_json(f, "fresh"));
  }
  for (const Finding& f : result.stale) {
    results.push_back(finding_json(f, "stale"));
  }
  for (const Finding& f : result.suppressed) {
    results.push_back(finding_json(f, "suppressed"));
  }
  if (results.is_null()) results = JsonArray{};
  Json driver;
  driver.set("name", "drbw_analyze");
  driver.set("informationUri", "tools/analyze — see README 'Static analysis'");
  Json tool;
  tool.set("driver", std::move(driver));
  Json run;
  run.set("tool", std::move(tool));
  run.set("results", std::move(results));
  Json props;
  props.set("filesScanned", result.files_scanned);
  props.set("clean", result.clean());
  run.set("properties", std::move(props));
  Json runs;
  runs.push_back(std::move(run));
  Json doc;
  doc.set("version", "2.1.0");
  doc.set("$schema", "https://json.schemastore.org/sarif-2.1.0.json");
  doc.set("runs", std::move(runs));
  return doc.dump(2) + "\n";
}

}  // namespace drbw::analyze
