#include "drbw/report/fleet.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <sstream>

#include "drbw/serve/server.hpp"
#include "drbw/util/artifact.hpp"
#include "drbw/util/task_pool.hpp"

namespace drbw::report {

namespace fs = std::filesystem;

namespace {

/// Joins the scan root with a root-relative run dir ("." = the root itself).
std::string join_root(const std::string& root, const std::string& rel) {
  if (rel == "." || rel.empty()) return root;
  return root + "/" + rel;
}

/// Nearest-rank percentile over an ascending-sorted vector: the smallest
/// element with at least p of the population at or below it.
std::uint64_t nearest_rank(const std::vector<std::uint64_t>& sorted,
                           double p) {
  if (sorted.empty()) return 0;
  const double rank = p * static_cast<double>(sorted.size());
  std::size_t index = static_cast<std::size_t>(rank);
  if (static_cast<double>(index) < rank) ++index;  // ceil
  if (index == 0) index = 1;
  return sorted[std::min(index, sorted.size()) - 1];
}

std::string fmt_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// Markdown table cells use '|' as the separator; manifests carry free text
/// (error messages) that must not break the row.
std::string md_cell(const std::string& text) {
  std::string out = text;
  for (char& c : out) {
    if (c == '|' || c == '\n' || c == '\r') c = ' ';
  }
  return out;
}

}  // namespace

std::vector<std::string> discover_run_dirs(const std::string& root) {
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    throw Error("fleet root '" + root + "' is not a directory",
                ErrorCode::kNotFound);
  }
  std::vector<std::string> dirs;
  const fs::path root_path(root);
  if (fs::exists(root_path / kManifestFileName, ec)) {
    dirs.push_back(".");
  }
  for (fs::recursive_directory_iterator it(root_path, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    if (it->path().filename() != kManifestFileName) continue;
    dirs.push_back(
        fs::relative(it->path().parent_path(), root_path, ec).generic_string());
  }
  std::sort(dirs.begin(), dirs.end());
  dirs.erase(std::unique(dirs.begin(), dirs.end()), dirs.end());
  return dirs;
}

FleetReport fleet_scan(const std::string& root, const FleetOptions& options) {
  FleetReport report;
  report.root = root;
  report.options = options;

  const std::vector<std::string> dirs = discover_run_dirs(root);
  if (dirs.empty()) {
    throw Error("no run dirs under '" + root + "' (no " +
                    std::string(kManifestFileName) + " found)",
                ErrorCode::kNotFound);
  }
  report.dirs_scanned = dirs.size();

  RunManifest baseline;
  const bool scan_regressions = !options.baseline_path.empty();
  if (scan_regressions) baseline = load_manifest(options.baseline_path);

  // Loads are independent, so they fan out into indexed slots; everything
  // below aggregates in sorted-directory order, which keeps the report a
  // pure function of the corpus at any --jobs value.
  struct Slot {
    bool corrupt = false;
    std::string error;
    RunManifest manifest;
    bool serve_snapshot_ok = false;
    std::vector<FleetServeClient> serve_clients;
    bool drift_section = false;
    std::vector<FleetModelHealth> health;
  };
  std::vector<Slot> slots(dirs.size());
  util::TaskPool pool(options.jobs);
  pool.parallel_for(dirs.size(), [&](std::size_t i) {
    const std::string path =
        join_root(root, dirs[i]) + "/" + kManifestFileName;
    try {
      slots[i].manifest = load_manifest(path);
    } catch (const Error& e) {
      slots[i].corrupt = true;
      slots[i].error = e.what();
      return;
    }
    if (slots[i].manifest.subcommand != "serve") return;
    // Per-client overload accounting lives in the run's serve snapshot, not
    // the manifest.  A missing or damaged snapshot is tallied, never fatal —
    // the report layer absorbs what the serve run could not persist.
    serve::ServeResult snapshot;
    try {
      snapshot = serve::load_snapshot(join_root(root, dirs[i]) + "/" +
                                      serve::kSnapshotFileName)
                     .result;
    } catch (const Error&) {
      return;  // tallied as serve_snapshots_missing below
    }
    slots[i].serve_snapshot_ok = true;
    for (const serve::ClientStats& c : snapshot.clients) {
      slots[i].serve_clients.push_back(FleetServeClient{
          dirs[i], c.client, c.shed, c.rejected, c.dropped, c.quarantined});
    }
    // v2 snapshots add a drift section (per-client confidence + PSI
    // score); v1 snapshots and drift-unavailable runs simply lack it.
    slots[i].drift_section = snapshot.drift_available;
    for (const serve::ClientModelHealth& mh : snapshot.model_health) {
      slots[i].health.push_back(
          FleetModelHealth{dirs[i], mh.client, mh.confidence_p50,
                           mh.confidence_min, mh.drift_score,
                           mh.drift_suspected});
    }
  });

  std::map<std::string, std::size_t> outcomes;
  std::map<std::string, std::size_t> subcommands;
  struct SpanAccum {
    std::uint64_t count = 0;
    std::vector<std::pair<std::uint64_t, std::string>> totals;  // (dur, dir)
  };
  std::map<std::string, SpanAccum> spans;
  std::map<std::string, std::uint64_t> fires;

  for (std::size_t i = 0; i < dirs.size(); ++i) {
    const Slot& slot = slots[i];
    if (slot.corrupt) {
      ++report.manifests_corrupt;
      report.corrupt.push_back(CorruptManifest{dirs[i], slot.error});
      continue;
    }
    const RunManifest& m = slot.manifest;
    const bool failed = m.status != "ok";
    if ((options.filter_status == "ok" && failed) ||
        (options.filter_status == "failed" && !failed)) {
      ++report.runs_filtered_out;
      continue;
    }
    FleetRun run;
    run.dir = dirs[i];
    run.subcommand = m.subcommand;
    run.status = m.status;
    run.error_code = m.error_code;
    run.exit_code = m.exit_code;
    run.records_quarantined = m.records_quarantined;
    report.runs.push_back(std::move(run));

    if (failed) {
      ++report.runs_failed;
      ++outcomes[m.error_code.empty() ? "error" : m.error_code];
    } else {
      ++report.runs_ok;
      ++outcomes["ok"];
    }
    ++subcommands[m.subcommand.empty() ? "?" : m.subcommand];
    for (const obs::SpanStat& stat : m.spans) {
      SpanAccum& accum = spans[stat.name];
      accum.count += stat.count;
      accum.totals.emplace_back(stat.total_dur, dirs[i]);
    }
    for (const auto& [site, count] : m.fault_fires) fires[site] += count;
    report.records_quarantined += m.records_quarantined;
    if (m.records_quarantined > 0) ++report.quarantine_runs;

    if (m.subcommand == "serve") {
      ++report.serve_runs;
      if (m.degraded) ++report.serve_degraded_runs;
      if (!slot.serve_snapshot_ok) ++report.serve_snapshots_missing;
      for (const FleetServeClient& client : slot.serve_clients) {
        report.serve_shed += client.shed;
        report.serve_rejected += client.rejected;
        report.serve_dropped += client.dropped;
        if (client.quarantined) ++report.serve_quarantined_clients;
        report.serve_clients.push_back(client);
      }
      if (m.drift == "suspected") ++report.drift_suspected_runs;
      if (m.drift == "unavailable") ++report.drift_unavailable_runs;
      if (slot.drift_section) ++report.model_health_runs;
      for (const FleetModelHealth& h : slot.health) {
        if (!report.has_model_health ||
            h.confidence_p50 < report.min_confidence) {
          report.min_confidence = h.confidence_p50;
          report.min_confidence_dir = h.dir;
          report.min_confidence_client = h.client;
        }
        if (!report.has_model_health || h.drift_score > report.max_drift) {
          report.max_drift = h.drift_score;
          report.max_drift_dir = h.dir;
          report.max_drift_client = h.client;
        }
        report.has_model_health = true;
        if (h.suspected) ++report.drift_suspected_clients;
        report.model_health.push_back(h);
      }
    }

    if (scan_regressions && !failed) {
      ++report.regression_scanned;
      const PerfDiff diff = perf_diff(baseline, m, options.threshold);
      if (diff.regressed) {
        FleetRegression reg;
        reg.dir = dirs[i];
        for (const PerfDelta& row : diff.rows) {
          if (row.regression) reg.rows.push_back(row);
        }
        report.regressions.push_back(std::move(reg));
        report.regressed = true;
      }
    }
  }

  for (const auto& [name, count] : outcomes) report.outcomes.emplace_back(name, count);
  for (const auto& [name, count] : subcommands) {
    report.subcommands.emplace_back(name, count);
  }
  for (auto& [name, accum] : spans) {
    FleetSpanStat stat;
    stat.name = name;
    stat.runs = accum.totals.size();
    stat.count = accum.count;
    std::sort(accum.totals.begin(), accum.totals.end());
    std::vector<std::uint64_t> values;
    values.reserve(accum.totals.size());
    for (const auto& [dur, dir] : accum.totals) values.push_back(dur);
    stat.p50 = nearest_rank(values, 0.50);
    stat.p95 = nearest_rank(values, 0.95);
    stat.max = accum.totals.back().first;
    stat.max_dir = accum.totals.back().second;
    report.spans.push_back(std::move(stat));
  }
  for (const auto& [site, count] : fires) report.fault_fires.emplace_back(site, count);
  return report;
}

std::string render_fleet_markdown(const FleetReport& report) {
  std::ostringstream os;
  os << "# DR-BW fleet report\n\n";
  os << "root `" << report.root << "`: " << report.dirs_scanned
     << " run dir(s) scanned — " << report.runs_ok << " ok, "
     << report.runs_failed << " failed, " << report.manifests_corrupt
     << " corrupt manifest(s) quarantined";
  if (!report.options.filter_status.empty()) {
    os << "; filter status=" << report.options.filter_status << " dropped "
       << report.runs_filtered_out << " run(s)";
  }
  os << "\n\n## Outcomes\n\n| outcome | runs |\n|---|---:|\n";
  for (const auto& [name, count] : report.outcomes) {
    os << "| " << md_cell(name) << " | " << count << " |\n";
  }
  os << "\n## Subcommands\n\n| subcommand | runs |\n|---|---:|\n";
  for (const auto& [name, count] : report.subcommands) {
    os << "| " << md_cell(name) << " | " << count << " |\n";
  }
  if (!report.spans.empty()) {
    os << "\n## Span time (per-run total durations)\n\n"
          "| span | runs | count | p50 | p95 | max | slowest run |\n"
          "|---|---:|---:|---:|---:|---:|---|\n";
    for (const FleetSpanStat& s : report.spans) {
      os << "| " << md_cell(s.name) << " | " << s.runs << " | " << s.count
         << " | " << s.p50 << " | " << s.p95 << " | " << s.max << " | "
         << md_cell(s.max_dir) << " |\n";
    }
  }
  if (!report.fault_fires.empty()) {
    os << "\n## Fault fires\n\n| site | fires |\n|---|---:|\n";
    for (const auto& [site, count] : report.fault_fires) {
      os << "| " << md_cell(site) << " | " << count << " |\n";
    }
  }
  if (report.records_quarantined > 0) {
    os << "\n## Quarantine\n\n" << report.records_quarantined
       << " record(s) quarantined across " << report.quarantine_runs
       << " run(s)\n";
  }
  if (report.serve_runs > 0) {
    os << "\n## Serve\n\n" << report.serve_runs << " serve run(s): "
       << report.serve_degraded_runs << " degraded, "
       << report.serve_quarantined_clients << " client(s) quarantined, "
       << report.serve_shed << " sample(s) shed, " << report.serve_rejected
       << " rejected, " << report.serve_dropped << " dropped";
    if (report.serve_snapshots_missing > 0) {
      os << "; " << report.serve_snapshots_missing
         << " run(s) without a loadable serve snapshot";
    }
    os << '\n';
    if (!report.serve_clients.empty()) {
      os << "\n| run | client | shed | rejected | dropped | quarantined |\n"
            "|---|---:|---:|---:|---:|---|\n";
      for (const FleetServeClient& c : report.serve_clients) {
        os << "| " << md_cell(c.dir) << " | " << c.client << " | " << c.shed
           << " | " << c.rejected << " | " << c.dropped << " | "
           << (c.quarantined ? "yes" : "no") << " |\n";
      }
    }
  }
  if (report.model_health_runs > 0 || report.drift_suspected_runs > 0 ||
      report.drift_unavailable_runs > 0) {
    os << "\n## Model health\n\n" << report.model_health_runs
       << " serve run(s) with drift telemetry: " << report.drift_suspected_runs
       << " drift-suspected run(s) (" << report.drift_suspected_clients
       << " client(s) flagged), " << report.drift_unavailable_runs
       << " without a usable baseline, " << report.serve_degraded_runs
       << " degraded\n";
    if (report.has_model_health) {
      os << "\nlowest confidence p50 " << fmt_double(report.min_confidence)
         << " (run " << md_cell(report.min_confidence_dir) << ", client "
         << report.min_confidence_client << "); max drift "
         << fmt_double(report.max_drift) << " (run "
         << md_cell(report.max_drift_dir) << ", client "
         << report.max_drift_client << ")\n";
    }
    if (!report.model_health.empty()) {
      os << "\n| run | client | confidence p50 | confidence min | drift | "
            "suspected |\n|---|---:|---:|---:|---:|---|\n";
      for (const FleetModelHealth& h : report.model_health) {
        os << "| " << md_cell(h.dir) << " | " << h.client << " | "
           << fmt_double(h.confidence_p50) << " | "
           << fmt_double(h.confidence_min) << " | " << fmt_double(h.drift_score)
           << " | " << (h.suspected ? "yes" : "no") << " |\n";
      }
    }
  }
  if (!report.options.baseline_path.empty()) {
    os << "\n## Regression scan\n\nbaseline `" << report.options.baseline_path
       << "`, threshold +"
       << static_cast<int>(report.options.threshold * 100.0) << "%, "
       << report.regression_scanned << " passing run(s) compared\n";
    if (report.regressions.empty()) {
      os << "\nno regressions\n";
    } else {
      os << "\n| run | kind | name | baseline | run | delta |\n"
            "|---|---|---|---:|---:|---:|\n";
      for (const FleetRegression& reg : report.regressions) {
        for (const PerfDelta& row : reg.rows) {
          char delta[32];
          std::snprintf(delta, sizeof delta, "%+.1f%%",
                        (row.ratio - 1.0) * 100.0);
          os << "| " << md_cell(reg.dir) << " | " << row.kind << " | "
             << md_cell(row.name) << " | " << fmt_double(row.before) << " | "
             << fmt_double(row.after) << " | " << delta << " |\n";
        }
      }
    }
  }
  os << "\n## Runs\n\n| run | subcommand | status | error | exit |\n"
        "|---|---|---|---|---:|\n";
  const std::size_t cap =
      report.options.top == 0
          ? report.runs.size()
          : std::min(report.options.top, report.runs.size());
  for (std::size_t i = 0; i < cap; ++i) {
    const FleetRun& run = report.runs[i];
    os << "| " << md_cell(run.dir) << " | " << md_cell(run.subcommand)
       << " | " << run.status << " | " << md_cell(run.error_code) << " | "
       << run.exit_code << " |\n";
  }
  if (cap < report.runs.size()) {
    os << "\n…and " << report.runs.size() - cap
       << " more (raise --top to list them)\n";
  }
  if (!report.corrupt.empty()) {
    os << "\n## Corrupt manifests\n\n| run | error |\n|---|---|\n";
    for (const CorruptManifest& c : report.corrupt) {
      os << "| " << md_cell(c.dir) << " | " << md_cell(c.error) << " |\n";
    }
  }
  return os.str();
}

std::string render_fleet_json(const FleetReport& report) {
  Json golden = JsonObject{};
  Json runs = JsonObject{};
  runs.set("scanned", report.dirs_scanned);
  runs.set("ok", report.runs_ok);
  runs.set("failed", report.runs_failed);
  runs.set("corrupt_manifests", report.manifests_corrupt);
  runs.set("filtered_out", report.runs_filtered_out);
  golden.set("runs", std::move(runs));

  Json outcomes = JsonObject{};
  for (const auto& [name, count] : report.outcomes) outcomes.set(name, count);
  golden.set("outcomes", std::move(outcomes));

  Json subcommands = JsonObject{};
  for (const auto& [name, count] : report.subcommands) {
    subcommands.set(name, count);
  }
  golden.set("subcommands", std::move(subcommands));

  Json spans = JsonArray{};
  for (const FleetSpanStat& s : report.spans) {
    Json entry = JsonObject{};
    entry.set("name", s.name);
    entry.set("runs", s.runs);
    entry.set("count", s.count);
    entry.set("p50", s.p50);
    entry.set("p95", s.p95);
    entry.set("max", s.max);
    entry.set("max_run", s.max_dir);
    spans.push_back(std::move(entry));
  }
  golden.set("spans", std::move(spans));

  Json fires = JsonObject{};
  for (const auto& [site, count] : report.fault_fires) fires.set(site, count);
  golden.set("fault_fires", std::move(fires));

  Json quarantine = JsonObject{};
  quarantine.set("records", report.records_quarantined);
  quarantine.set("runs", report.quarantine_runs);
  golden.set("quarantine", std::move(quarantine));

  if (report.serve_runs > 0) {
    Json serve = JsonObject{};
    serve.set("runs", report.serve_runs);
    serve.set("degraded_runs", report.serve_degraded_runs);
    serve.set("snapshots_missing", report.serve_snapshots_missing);
    serve.set("shed", report.serve_shed);
    serve.set("rejected", report.serve_rejected);
    serve.set("dropped", report.serve_dropped);
    serve.set("quarantined_clients", report.serve_quarantined_clients);
    Json clients = JsonArray{};
    for (const FleetServeClient& c : report.serve_clients) {
      Json entry = JsonObject{};
      entry.set("run", c.dir);
      entry.set("client", c.client);
      entry.set("shed", c.shed);
      entry.set("rejected", c.rejected);
      entry.set("dropped", c.dropped);
      entry.set("quarantined", c.quarantined);
      clients.push_back(std::move(entry));
    }
    serve.set("clients", std::move(clients));
    golden.set("serve", std::move(serve));
  }

  if (report.model_health_runs > 0 || report.drift_suspected_runs > 0 ||
      report.drift_unavailable_runs > 0) {
    Json health = JsonObject{};
    health.set("runs", report.model_health_runs);
    health.set("drift_suspected_runs", report.drift_suspected_runs);
    health.set("drift_suspected_clients", report.drift_suspected_clients);
    health.set("drift_unavailable_runs", report.drift_unavailable_runs);
    health.set("degraded_runs", report.serve_degraded_runs);
    if (report.has_model_health) {
      Json lowest = JsonObject{};
      lowest.set("run", report.min_confidence_dir);
      lowest.set("client", report.min_confidence_client);
      lowest.set("confidence_p50", report.min_confidence);
      health.set("lowest_confidence", std::move(lowest));
      Json worst = JsonObject{};
      worst.set("run", report.max_drift_dir);
      worst.set("client", report.max_drift_client);
      worst.set("score", report.max_drift);
      health.set("max_drift", std::move(worst));
    }
    Json rows = JsonArray{};
    for (const FleetModelHealth& h : report.model_health) {
      Json entry = JsonObject{};
      entry.set("run", h.dir);
      entry.set("client", h.client);
      entry.set("confidence_p50", h.confidence_p50);
      entry.set("confidence_min", h.confidence_min);
      entry.set("score", h.drift_score);
      entry.set("suspected", h.suspected);
      rows.push_back(std::move(entry));
    }
    health.set("clients", std::move(rows));
    golden.set("model_health", std::move(health));
  }

  Json regressions = JsonArray{};
  for (const FleetRegression& reg : report.regressions) {
    Json entry = JsonObject{};
    entry.set("run", reg.dir);
    Json rows = JsonArray{};
    for (const PerfDelta& row : reg.rows) {
      Json cell = JsonObject{};
      cell.set("name", row.name);
      cell.set("kind", row.kind);
      cell.set("baseline", row.before);
      cell.set("run", row.after);
      cell.set("ratio", row.ratio);
      rows.push_back(std::move(cell));
    }
    entry.set("rows", std::move(rows));
    regressions.push_back(std::move(entry));
  }
  golden.set("regressions", std::move(regressions));
  golden.set("regression_scanned", report.regression_scanned);
  golden.set("regressed", report.regressed);

  Json run_list = JsonArray{};
  const std::size_t cap =
      report.options.top == 0
          ? report.runs.size()
          : std::min(report.options.top, report.runs.size());
  for (std::size_t i = 0; i < cap; ++i) {
    const FleetRun& run = report.runs[i];
    Json entry = JsonObject{};
    entry.set("dir", run.dir);
    entry.set("subcommand", run.subcommand);
    entry.set("status", run.status);
    entry.set("error", run.error_code);
    entry.set("exit", run.exit_code);
    entry.set("records_quarantined", run.records_quarantined);
    run_list.push_back(std::move(entry));
  }
  golden.set("run_list", std::move(run_list));
  golden.set("runs_listed", cap);
  golden.set("runs_omitted", report.runs.size() - cap);

  Json corrupt = JsonArray{};
  for (const CorruptManifest& c : report.corrupt) {
    Json entry = JsonObject{};
    entry.set("dir", c.dir);
    entry.set("error", c.error);
    corrupt.push_back(std::move(entry));
  }
  golden.set("corrupt", std::move(corrupt));

  // The invocation echo.  --jobs is deliberately absent: the aggregation is
  // slot-indexed, so the whole artifact is byte-identical at any value —
  // a stronger guarantee than the manifest's jobs-line-only delta.
  Json context = JsonObject{};
  context.set("root", report.root);
  context.set("baseline", report.options.baseline_path);
  context.set("threshold", report.options.threshold);
  context.set("filter",
              report.options.filter_status.empty()
                  ? std::string()
                  : "status=" + report.options.filter_status);
  context.set("top", report.options.top);

  Json doc = JsonObject{};
  doc.set("golden", std::move(golden));
  doc.set("context", std::move(context));
  return doc.dump(2) + "\n";
}

void write_fleet_json(const FleetReport& report, const std::string& path) {
  util::write_versioned_artifact(path, "fleet", kFleetReportVersion,
                                 render_fleet_json(report));
}

std::vector<obs::FlameSpan> flame_spans(
    const std::vector<FlightRecord>& records) {
  std::vector<obs::FlameSpan> spans;
  for (const FlightRecord& record : records) {
    if (record.tag != "span") continue;
    obs::FlameSpan span;
    span.name = record.detail;
    span.track = record.track;
    span.start = record.ts;
    span.dur = record.value;
    spans.push_back(std::move(span));
  }
  return spans;
}

std::vector<obs::FlameSpan> flame_spans_from_trace(const Json& trace) {
  const Json* events = trace.is_object() ? trace.find("traceEvents") : nullptr;
  if (events == nullptr || !events->is_array()) {
    throw Error("not a trace_event document (no traceEvents array)",
                ErrorCode::kParse);
  }
  std::vector<obs::FlameSpan> spans;
  for (const Json& event : events->as_array()) {
    if (!event.is_object()) continue;
    const Json* phase = event.find("ph");
    if (phase == nullptr || phase->type() != Json::Type::kString ||
        phase->as_string() != "X") {
      continue;
    }
    const Json* name = event.find("name");
    const Json* tid = event.find("tid");
    const Json* ts = event.find("ts");
    const Json* dur = event.find("dur");
    obs::FlameSpan span;
    span.name = name != nullptr && name->type() == Json::Type::kString
                    ? name->as_string()
                    : std::string("?");
    span.track = tid != nullptr ? tid->as_u64().value_or(0) : 0;
    span.start = ts != nullptr ? ts->as_u64().value_or(0) : 0;
    span.dur = dur != nullptr ? dur->as_u64().value_or(0) : 0;
    spans.push_back(std::move(span));
  }
  return spans;
}

bool fold_run_dir(const std::string& run_dir, obs::FlameFold& fold) {
  const std::string path = run_dir + "/" + kFlightFileName;
  std::error_code ec;
  if (!fs::exists(path, ec)) return false;
  std::vector<FlightRecord> records;
  try {
    records = load_flight_dump(path);
  } catch (const Error&) {
    return false;  // a corrupt flight dump never sinks the fleet merge
  }
  fold.add(flame_spans(records));
  return true;
}

}  // namespace drbw::report
