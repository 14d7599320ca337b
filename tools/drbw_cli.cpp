// drbw — the command-line front-end to the DR-BW reproduction.
//
//   train     train the bandwidth-contention classifier (Table II runs)
//   record    profile a proxy benchmark into a PEBS sample trace
//   analyze   offline verdicts, Contribution Fractions and advice for a trace
//   explain   per-window decision paths, confidence and feature attribution
//   serve     replay a trace through the online serving loop
//   convert   re-encode a trace artifact (csv <-> binary)
//   inspect   pretty-print a trained model (Fig. 3 style)
//   topology  describe a simulated machine
//   stats     render an ASCII timeline from a --trace-out file or snapshot
//   doctor    diagnose a previous run from its run dir
//   perf diff compare run manifests; the CI perf gate
//   fleet     aggregate a tree of run dirs into one report
//   flame     fold one run's spans into a collapsed-stack profile
//
// `drbw <sub> --help` lists each subcommand's arguments and options; every
// subcommand parses them with the one ArgParser grammar (util/cli.hpp), and
// every numeric option is read with bounds.
//
// Exit codes: 0 success, 1 runtime error, 2 analyze found contention,
// 3 perf diff found a regression, 64 malformed arguments, 65 unknown
// subcommand, 66 missing input file, 67 parse error, 68 corrupt artifact,
// 69 artifact version skew, 70 injected fault, 74 I/O error.
#include <algorithm>
#include <cctype>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "drbw/drbw.hpp"
#include "drbw/fault/injector.hpp"
#include "drbw/features/selected.hpp"
#include "drbw/obs/flight_recorder.hpp"
#include "drbw/obs/trace.hpp"
#include "drbw/pebs/session.hpp"
#include "drbw/pebs/trace_io.hpp"
#include "drbw/obs/flame.hpp"
#include "drbw/report/explain.hpp"
#include "drbw/report/fleet.hpp"
#include "drbw/report/manifest.hpp"
#include "drbw/report/markdown.hpp"
#include "drbw/report/postmortem.hpp"
#include "drbw/serve/server.hpp"
#include "drbw/util/artifact.hpp"
#include "drbw/util/ascii_chart.hpp"
#include "drbw/util/cli.hpp"
#include "drbw/util/json.hpp"
#include "drbw/util/strings.hpp"
#include "drbw/util/task_pool.hpp"
#include "drbw/util/table.hpp"
#include "drbw/workloads/suite.hpp"
#include "drbw/workloads/training.hpp"

using namespace drbw;

namespace {

constexpr int kExitUsage = 64;           // malformed arguments (EX_USAGE)
constexpr int kExitUnknownCommand = 65;  // unrecognized subcommand
constexpr int kExitPerfRegression = 3;   // perf diff crossed the threshold

/// Flight-ring capacity for CLI runs.  Deliberately far above what any
/// pipeline run emits, so the ring never wraps: a wrapped ring keeps the
/// last N events by *arrival* order, which is scheduling-dependent, and the
/// manifest's flight_dropped counter (asserted 0 in the determinism tests)
/// would flag it.  The ring grows with its events, so the cap costs a run
/// nothing it does not record.
constexpr std::size_t kFlightCapacity = 65536;

constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();
constexpr double kDoubleMax = std::numeric_limits<double>::max();

/// --jobs, on every subcommand that takes it.
int jobs_option(const ArgParser& parser) {
  return static_cast<int>(parser.option_int("jobs", 0, util::kMaxJobs));
}

/// --seed: any int64, reinterpreted as the u64 engine seed.
std::uint64_t seed_option(const ArgParser& parser) {
  return static_cast<std::uint64_t>(parser.option_int(
      "seed", std::numeric_limits<std::int64_t>::min(), kInt64Max));
}

/// Provenance plumbing shared by the pipeline subcommands (train / record /
/// analyze / explain / serve): the --trace-out/--metrics-out/--timing sinks,
/// the --inject-faults arming, and the run manifest and flight recorder
/// lifecycle:
///
///   run(body)  begin(), then body() -> finish(code), or fail(e) on a throw
///   stage(s)   leaves a "stage" breadcrumb in the flight ring
///   begin()    arms trace/flight/fault sinks before any pipeline work
///   finish(c)  writes sinks, then flight.log, then run.json *last* — a
///              manifest on disk always describes a finished run
///   fail(e)    records the outcome, disarms the injector (so the post-
///              mortem writes cannot themselves be faulted), and best-effort
///              dumps flight.log + run.json before returning the exit code
struct RunSession {
  static void add_options(ArgParser& parser) {
    parser.add_option("trace-out",
                      "write a Chrome trace_event JSON trace here", "");
    parser.add_option("metrics-out",
                      "write the metrics registry here (.json => JSON, "
                      "otherwise Prometheus text format)",
                      "");
    parser.add_option("timing",
                      "sim | wall: span clock for --trace-out and the run "
                      "dir's spans (wall marks them non-golden)",
                      "sim");
    parser.add_option(
        "inject-faults",
        "deterministic fault spec: seed=N,site:kind:rate,... (sites: "
        "pebs.sample, engine.epoch, trace.read, trace.write, model.write, "
        "model.drift, artifact.write, diagnose.cf, report.render, "
        "serve.ingest, serve.session, serve.window, serve.classify; kinds: "
        "drop, corrupt, truncate, malform, short-write, fail)",
        "");
    parser.add_option("run-dir",
                      "directory for the run manifest (run.json) and flight "
                      "dump (flight.log)",
                      ".");
  }

  RunSession(std::string subcommand, const ArgParser& parser)
      : parser_(parser) {
    manifest_.subcommand = std::move(subcommand);
  }

  /// Runs one pipeline subcommand body (returning its exit code) inside the
  /// session.  A usage error from begin() escapes before anything is armed.
  template <typename Body>
  int run(const Body& body) {
    begin();
    try {
      return finish(body());
    } catch (const Error& e) {
      return fail(e);
    } catch (const std::exception& e) {
      return fail(Error(e.what()));
    }
  }

  /// Arms all sinks.  Must run after parse() and before any pipeline work;
  /// malformed --jobs/--timing/--inject-faults surface as usage errors
  /// (exit 64) before anything is armed.
  void begin() {
    manifest_.jobs = 1;
    for (const auto& [name, value] : parser_.resolved_options()) {
      if (name == "jobs") {
        manifest_.jobs = jobs_option(parser_);
        continue;  // context, not golden — see report/manifest.hpp
      }
      if (name == "run-dir") continue;  // the manifest's own location
      manifest_.config.emplace_back(name, value);
    }
    const std::string& timing = parser_.option("timing");
    obs::TimingMode mode;
    if (timing == "sim") {
      mode = obs::TimingMode::kSim;
    } else if (timing == "wall") {
      mode = obs::TimingMode::kWall;
    } else {
      throw UsageError("--timing expects sim or wall, got '" + timing + "'");
    }
    const std::string& spec = parser_.option("inject-faults");
    if (!spec.empty()) {
      try {
        fault::Plan plan = fault::Plan::parse(spec);
        manifest_.fault_spec = plan.to_string();
        fault::Injector::global().arm(std::move(plan));
      } catch (const Error& e) {
        throw UsageError(std::string("--inject-faults: ") + e.what());
      }
    }
    run_dir_ = parser_.option("run-dir");
    if (run_dir_.empty()) run_dir_ = ".";
    std::error_code ec;
    std::filesystem::create_directories(run_dir_, ec);  // best-effort

    // The span clock follows --timing whether or not --trace-out is set, so
    // the flight recorder's span ts and dur share one clock too.
    obs::Trace::instance().set_mode(mode);
    if (!parser_.option("trace-out").empty()) {
      obs::Trace::instance().enable(mode);
    }
    obs::FlightRecorder::instance().enable(kFlightCapacity);

    manifest_.timing = timing;
    // Span durations are golden (seq based) unless --timing wall makes
    // every Span report wall micros (see obs::Span).
    manifest_.spans_golden = mode != obs::TimingMode::kWall;
    begun_ = true;
  }

  /// Stage-transition breadcrumb; `drbw doctor` reports the last one as the
  /// failing stage.
  void stage(const char* name) { obs::flight().note("stage", name); }

  /// --run-dir, "." when empty; valid once the session has begun.
  const std::string& run_dir() const { return run_dir_; }

  void note_input(const std::string& role, const std::string& path) {
    manifest_.inputs.push_back(make_ref(role, path));
  }
  void note_output(const std::string& role, const std::string& path) {
    manifest_.outputs.push_back(make_ref(role, path));
  }

  /// The run's manifest, for the golden members a subcommand adds: serve's
  /// degraded flag and drift verdict, train's tree shape.
  report::RunManifest& manifest() { return manifest_; }

  void set_load_stats(const util::LoadStats& stats) {
    manifest_.has_load_stats = true;
    manifest_.records_seen = stats.records_seen;
    manifest_.records_ok = stats.records_ok;
    manifest_.records_quarantined = stats.records_quarantined;
    manifest_.checksum_ok = stats.checksum_ok;
  }

  /// Success path: trace/metrics sinks, then flight.log, then run.json.
  int finish(int exit_code) {
    const std::string& trace_out = parser_.option("trace-out");
    if (!trace_out.empty()) {
      obs::Trace::instance().write_json(trace_out);
      std::cout << "trace (" << obs::Trace::instance().event_count()
                << " events) written to " << trace_out << '\n';
      note_output("obs-trace-out", trace_out);
    }
    const std::string& metrics_out = parser_.option("metrics-out");
    if (!metrics_out.empty()) {
      util::atomic_write_file(metrics_out,
                              metrics_out.ends_with(".json")
                                  ? obs::Registry::global().json_text()
                                  : obs::Registry::global().prometheus_text());
      std::cout << "metrics written to " << metrics_out << '\n';
      note_output("metrics-out", metrics_out);
    }
    manifest_.status = "ok";
    manifest_.exit_code = exit_code;
    write_postmortem(/*best_effort=*/false);
    std::cout << "run manifest written to " << manifest_path() << '\n';
    return exit_code;
  }

  /// Failure path: record the outcome, disarm the injector, dump what we
  /// can.  The exit code is exactly what the error would have produced had
  /// it reached main()'s catch block.
  int fail(const Error& e) {
    std::cerr << "drbw: " << e.what() << '\n';
    manifest_.status = "error";
    manifest_.error_code = error_code_name(e.code());
    manifest_.exit_code = exit_code_for(e.code());
    manifest_.message = e.what();
    write_postmortem(/*best_effort=*/true);
    return manifest_.exit_code;
  }

 private:
  std::string manifest_path() const {
    return run_dir_ + "/" + report::kManifestFileName;
  }

  /// Content-identifies an artifact: its own `#drbw-*` header when it has
  /// one (only that line is read), a whole-file crc otherwise.
  /// Never throws — an unreadable path is itself provenance worth recording.
  static report::ArtifactRef make_ref(const std::string& role,
                                      const std::string& path) {
    report::ArtifactRef ref;
    ref.role = role;
    ref.path = path;
    try {
      const auto header =
          util::parse_artifact_header(util::read_first_line(path, role));
      if (header.has_value()) {
        ref.kind = header->kind;
        ref.version = header->version;
        ref.crc = header->crc;
        ref.bytes = header->bytes;
      } else {
        const std::string content = util::read_file_or_throw(path, role);
        ref.kind = "raw";
        ref.crc = util::crc32(content);
        ref.bytes = content.size();
      }
    } catch (const Error&) {
      ref.kind = "unreadable";
    }
    return ref;
  }

  void write_postmortem(bool best_effort) {
    if (!begun_) return;
    // Tally fires *before* disarming; disarm so the post-mortem writes
    // below cannot be faulted into recursion (artifact.write is a site).
    manifest_.fault_fires = fault::Injector::global().fire_counts();
    fault::Injector::global().disarm();
    auto& flight = obs::FlightRecorder::instance();
    manifest_.spans = flight.span_stats();
    manifest_.flight_events = flight.event_count();
    manifest_.flight_dropped = flight.dropped();
    manifest_.metrics_json = obs::Registry::global().json_text();
    const auto write_one = [&](const char* what, const auto& fn) {
      try {
        fn();
      } catch (const std::exception& e) {
        if (!best_effort) throw;
        std::cerr << "drbw: warning: could not write " << what << ": "
                  << e.what() << '\n';
      }
    };
    if (flight.enabled()) {
      write_one("flight dump", [&] {
        flight.write(run_dir_ + "/" + report::kFlightFileName);
      });
    }
    write_one("run manifest", [&] {
      manifest_.record_usage();
      manifest_.write(manifest_path());
    });
  }

  const ArgParser& parser_;
  report::RunManifest manifest_;
  std::string run_dir_ = ".";
  bool begun_ = false;
};

topology::Machine machine_by_name(const std::string& name) {
  const std::string lower = to_lower(name);
  if (lower == "xeon") return topology::Machine::xeon_e5_4650();
  if (lower == "opteron") return topology::Machine::opteron_6174();
  throw UsageError("unknown machine '" + name + "' (use xeon or opteron)");
}

/// Parses --config Tt-Nn and bounds it by `machine` exactly as
/// RunConfig::bind would, so a bad value is a usage error before any
/// simulation instead of an internal check deep inside it.
workloads::RunConfig parse_config(const std::string& name,
                                  const topology::Machine& machine) {
  const auto bad = [&](const std::string& why) {
    return UsageError("--config expects Tt-Nn (e.g. T32-N4), got '" + name +
                      "': " + why);
  };
  const auto parts = split(name, '-');
  if (parts.size() != 2) throw bad("expected one '-'");
  const auto field = [&](const std::string& part, char tag) {
    const bool digits =
        part.size() >= 2 && part.size() <= 5 &&
        std::all_of(part.begin() + 1, part.end(), [](char c) {
          return std::isdigit(static_cast<unsigned char>(c)) != 0;
        });
    if (!digits || std::toupper(static_cast<unsigned char>(part[0])) != tag) {
      throw bad(std::string("'") + part + "' is not " + tag + "<count>");
    }
    return std::stoi(part.substr(1));
  };
  const workloads::RunConfig config{field(parts[0], 'T'), field(parts[1], 'N')};
  const int per_node = static_cast<int>(machine.cpus_of_node(0).size());
  if (config.num_nodes < 1 || config.num_nodes > machine.num_nodes()) {
    throw bad("nodes must be between 1 and " +
              std::to_string(machine.num_nodes()));
  }
  if (config.total_threads < 1 ||
      config.total_threads % config.num_nodes != 0 ||
      config.threads_per_node() > per_node) {
    throw bad("threads must be a positive multiple of the node count, at most " +
              std::to_string(per_node) + " per node (" +
              std::to_string(machine.num_hw_threads()) + " in total)");
  }
  return config;
}

workloads::PlacementMode parse_placement(const std::string& name) {
  for (const auto mode :
       {workloads::PlacementMode::kOriginal, workloads::PlacementMode::kInterleave,
        workloads::PlacementMode::kColocate, workloads::PlacementMode::kReplicate}) {
    if (name == workloads::placement_mode_name(mode)) return mode;
  }
  throw UsageError("unknown placement '" + name +
                   "' (use original, interleave, colocate or replicate)");
}

/// --load-mode / --max-bad-fraction, shared by every subcommand that reads
/// a trace.
void add_load_options(ArgParser& parser) {
  parser.add_option("load-mode",
                    "strict (reject the first malformed record) | lenient "
                    "(quarantine malformed records, escalate past "
                    "--max-bad-fraction)",
                    "strict");
  parser.add_option("max-bad-fraction",
                    "lenient only: tolerated quarantined/seen record "
                    "fraction before the load fails as corrupt",
                    "0.25");
}

util::LoadPolicy load_policy(const ArgParser& parser) {
  const double max_bad = parser.option_double("max-bad-fraction", 0.0, 1.0);
  try {
    return util::load_policy_from_name(parser.option("load-mode"), max_bad);
  } catch (const Error& e) {
    throw UsageError(std::string("--load-mode: ") + e.what());
  }
}

/// A loaded trace plus the policy and stats its load ran under.
struct TraceInput {
  util::LoadPolicy policy;
  util::LoadStats stats;
  pebs::Trace trace;
};

/// The input stage analyze, explain and serve share.  Fails fast on missing
/// inputs (exit 66 with a sibling hint) before any model training or trace
/// parsing; --model is checked too when `require_model` (serve degrades
/// instead).  load_trace fills the stats incrementally, so they reach the
/// manifest even when the load escalates — the quarantine tally at the
/// moment of failure is exactly what `drbw doctor` needs.  A sample whose
/// cpu `machine` lacks (a trace from a bigger machine) fails the load as a
/// corrupt artifact (68) in either load mode, before any stage indexes a
/// per-cpu table with it.
TraceInput load_trace_input(const ArgParser& parser, RunSession& session,
                            const topology::Machine& machine,
                            const std::string& path, bool require_model,
                            int max_version = pebs::kTraceVersion) {
  TraceInput input;
  input.policy = load_policy(parser);
  util::require_input_file(path, "trace file");
  if (require_model && !parser.option("model").empty()) {
    util::require_input_file(parser.option("model"), "model file");
  }
  session.note_input("trace-in", path);
  pebs::LoadOptions load;
  load.policy = input.policy;
  load.max_version = max_version;
  load.num_cpus = machine.num_hw_threads();
  try {
    input.trace = pebs::load_trace(path, load, &input.stats);
  } catch (...) {
    session.set_load_stats(input.stats);
    throw;
  }
  session.set_load_stats(input.stats);
  return input;
}

/// --model, or the default classifier trained in-process when it is empty.
ml::Classifier load_model(const ArgParser& parser, RunSession& session,
                          const topology::Machine& machine,
                          const util::LoadPolicy& policy) {
  if (parser.option("model").empty()) {
    return workloads::train_default_classifier(machine);
  }
  ml::Classifier model = load_classifier(parser.option("model"), policy);
  session.note_input("model-in", parser.option("model"));
  return model;
}

int cmd_train(int argc, char** argv) {
  ArgParser parser("drbw train", "Train the bandwidth-contention classifier");
  parser.add_option("seed", "training seed", "2017");
  parser.add_option("out", "model output path", "drbw_model.json");
  parser.add_option("machine", "xeon | opteron", "xeon");
  parser.add_option("jobs",
                    "parallel mini-program runs (0 = one per hardware "
                    "thread); the trained model is identical at any value",
                    "0");
  RunSession::add_options(parser);
  if (!parser.parse(argc, argv)) return 0;
  RunSession session("train", parser);
  return session.run([&] {
    const auto machine = machine_by_name(parser.option("machine"));
    if (to_lower(parser.option("machine")) != "xeon") {
      throw UsageError("train: --machine must be xeon (the Table II "
                       "generator targets the Xeon's Tt-Nn grid)");
    }
    session.stage("train");
    const auto model = workloads::train_default_classifier(
        machine, seed_option(parser), jobs_option(parser));
    session.stage("persist");
    model.save(parser.option("out"));
    session.note_output("model-out", parser.option("out"));
    // Tree-shape provenance: printed, and recorded in the run manifest so a
    // later `drbw doctor`/fleet pass can spot a degenerate train.
    const ml::DecisionTree& tree = model.tree();
    report::RunManifest& manifest = session.manifest();
    manifest.has_model_shape = true;
    manifest.model_nodes = tree.nodes().size();
    manifest.model_leaves = tree.leaf_count();
    manifest.model_depth = static_cast<std::uint64_t>(tree.depth());
    std::ostringstream shape;
    shape << "tree shape: " << tree.nodes().size() << " nodes, "
          << tree.leaf_count() << " leaves, depth " << tree.depth()
          << "; splits:";
    for (const auto& [feature, count] : tree.split_counts()) {
      // Short machine-readable keys ("remote_dram_count"), not the prose
      // Table I names — these land in the manifest as JSON keys.
      const std::string& name =
          features::selected_feature_keys()[static_cast<std::size_t>(feature)];
      manifest.model_splits.emplace_back(name,
                                         static_cast<std::uint64_t>(count));
      shape << ' ' << name << " x" << count;
    }
    std::cout << "trained on 192 mini-program runs; model written to "
              << parser.option("out") << '\n'
              << shape.str() << "\n\n"
              << model.describe();
    return 0;
  });
}

int cmd_record(int argc, char** argv) {
  ArgParser parser("drbw record", "Profile a proxy benchmark into a trace");
  parser.add_option("benchmark", "suite benchmark name", "streamcluster");
  parser.add_option("input", "input index", "1");
  parser.add_option("config", "Tt-Nn configuration", "T32-N4");
  parser.add_option("placement", "placement mode", "original");
  parser.add_option("out", "trace output path", "drbw_trace.csv");
  parser.add_option("seed", "run seed", "7");
  parser.add_option("format",
                    "trace body encoding: csv (v2, greppable) | binary "
                    "(v3, 2-3x faster to load)",
                    "csv");
  RunSession::add_options(parser);
  if (!parser.parse(argc, argv)) return 0;
  RunSession session("record", parser);
  return session.run([&] {
    const auto machine = topology::Machine::xeon_e5_4650();
    std::unique_ptr<workloads::Benchmark> bench;
    try {
      bench = workloads::make_suite_benchmark(parser.option("benchmark"));
    } catch (const Error& e) {
      throw UsageError(std::string("--benchmark: ") + e.what());
    }
    const workloads::RunConfig config =
        parse_config(parser.option("config"), machine);
    const workloads::PlacementMode placement =
        parse_placement(parser.option("placement"));
    const std::int64_t input = parser.option_int(
        "input", 0, static_cast<std::int64_t>(bench->num_inputs()) - 1);
    session.stage("build");
    mem::AddressSpace space(machine);
    sim::EngineConfig engine;
    engine.seed = seed_option(parser);
    const auto built = bench->build(space, machine, config, placement,
                                    static_cast<std::size_t>(input));
    session.stage("execute");
    const auto run = workloads::execute(machine, space, built, engine);

    session.stage("persist");
    pebs::SaveOptions save;
    save.format = pebs::trace_format_from_name(parser.option("format"));
    pebs::save_trace(parser.option("out"), {run.alloc_events, run.samples},
                     save);
    session.note_output("trace-out", parser.option("out"));
    std::cout << "recorded " << run.samples.size() << " samples over "
              << format_count(run.total_accesses) << " accesses ("
              << format_fixed(run.seconds(machine) * 1e3, 2)
              << " ms simulated) -> " << parser.option("out") << " ("
              << parser.option("format") << ")\n";
    return 0;
  });
}

int cmd_analyze(int argc, char** argv) {
  ArgParser parser("drbw analyze", "Analyze a recorded trace offline");
  parser.add_option("trace", "trace file from `drbw record`", "drbw_trace.csv");
  parser.add_option("model", "trained model (empty = train now)", "");
  parser.add_option("windows", "split the run into N time windows", "1");
  parser.add_option("report", "also write a Markdown report here", "");
  add_load_options(parser);
  parser.add_option("jobs",
                    "recorded in run.json's context only: analyze runs "
                    "serially, and its output is identical at any value",
                    "1");
  parser.add_option("expect-trace-version",
                    "reject trace artifacts newer than vN with the "
                    "version-skew exit code (0 = newest supported)",
                    "0");
  RunSession::add_options(parser);
  if (!parser.parse(argc, argv)) return 0;
  RunSession session("analyze", parser);
  return session.run([&] {
    session.stage("load");
    const std::int64_t expect =
        parser.option_int("expect-trace-version", 0, pebs::kTraceVersion);
    const std::int64_t windows =
        parser.option_int("windows", 1, pebs::kMaxCycleWindows);
    const auto machine = topology::Machine::xeon_e5_4650();
    const TraceInput input = load_trace_input(
        parser, session, machine, parser.option("trace"),
        /*require_model=*/true,
        expect > 0 ? static_cast<int>(expect) : pebs::kTraceVersion);
    const pebs::Trace& trace = input.trace;
    std::cout << "loaded " << trace.samples.size() << " samples, "
              << trace.events.size() << " allocation events";
    if (input.stats.records_quarantined > 0 || !input.stats.checksum_ok) {
      std::cout << " (" << input.stats.records_quarantined << " of "
                << input.stats.records_seen << " records quarantined"
                << (input.stats.checksum_ok ? "" : ", checksum FAILED") << ")";
    }
    std::cout << '\n';

    session.stage("classify");
    const DrBw tool(machine,
                    load_model(parser, session, machine, input.policy));
    core::ReplayLocator locator;

    if (windows == 1) {
      core::Profiler profiler(machine, locator);
      const Report report =
          tool.analyze_profile(profiler.profile(trace.events, trace.samples));
      std::cout << report.to_string(machine);
      if (!parser.option("report").empty()) {
        session.stage("report");
        report::ReportMeta meta;
        meta.workload = parser.option("trace");
        report::write_file(
            parser.option("report"),
            report::to_markdown(report, machine, meta) +
                report::robustness_markdown(input.stats,
                                            parser.option("trace"),
                                            parser.option("load-mode")) +
                report::telemetry_markdown(obs::Registry::global()));
        session.note_output("report-out", parser.option("report"));
        std::cout << "report written to " << parser.option("report") << '\n';
      }
      return report.rmc ? 2 : 0;  // exit signals the verdict
    }

    session.stage("windows");
    const pebs::CycleWindows grid =
        pebs::split_cycle_windows(trace, static_cast<std::size_t>(windows));
    bool any = false;
    for (std::size_t w = 0; w < grid.count(); ++w) {
      const WindowVerdict v = tool.analyze_window(trace.samples, grid, w, locator);
      std::cout << "[" << v.start_cycle << ", " << v.end_cycle << ") "
                << v.samples << " samples: "
                << (v.rmc ? "RMC" : "good");
      for (const auto& ch : v.contended) std::cout << ' ' << machine.channel_name(ch);
      std::cout << '\n';
      any |= v.rmc;
    }
    return any ? 2 : 0;
  });
}

int cmd_explain(int argc, char** argv) {
  ArgParser parser("drbw explain",
                   "Explain per-window verdicts: decision paths, confidence, "
                   "feature attribution");
  parser.add_option("trace", "trace file from `drbw record`", "drbw_trace.csv");
  parser.add_option("model", "trained model (empty = train now)", "");
  parser.add_option("windows", "split the trace into N time windows", "8");
  parser.add_option("out", "checksummed #drbw-explain JSON artifact path",
                    "explain.json");
  parser.add_option("report", "also write a per-window Markdown report here",
                    "");
  add_load_options(parser);
  parser.add_option("jobs",
                    "parallel window explainers (0 = one per hardware "
                    "thread); every artifact is byte-identical at any value",
                    "1");
  RunSession::add_options(parser);
  if (!parser.parse(argc, argv)) return 0;
  RunSession session("explain", parser);
  return session.run([&] {
    session.stage("load");
    const auto windows = static_cast<std::size_t>(
        parser.option_int("windows", 1, pebs::kMaxCycleWindows));
    const auto machine = topology::Machine::xeon_e5_4650();
    const TraceInput input = load_trace_input(
        parser, session, machine, parser.option("trace"),
        /*require_model=*/true);
    const DrBw tool(machine, load_model(parser, session, machine, input.policy),
                    {features::kWindowGuard});

    session.stage("explain");
    const pebs::CycleWindows grid =
        pebs::split_cycle_windows(input.trace, windows);
    core::ReplayLocator locator;
    std::vector<WindowVerdict> verdicts(windows);
    {
      obs::Span explain_span("explain");
      util::TaskPool pool(jobs_option(parser));
      pool.parallel_for(windows, [&](std::size_t w) {
        verdicts[w] = tool.analyze_window(input.trace.samples, grid, w, locator);
      });
    }
    const report::ExplainArtifacts explained = report::render_explain(
        verdicts, machine, {parser.option("trace"), parser.option("model")},
        !parser.option("report").empty());

    session.stage("persist");
    util::write_versioned_artifact(parser.option("out"), "explain",
                                   report::kExplainVersion, explained.json);
    session.note_output("explain-out", parser.option("out"));
    if (!parser.option("report").empty()) {
      report::write_file(parser.option("report"), explained.markdown);
      session.note_output("report-out", parser.option("report"));
      std::cout << "report written to " << parser.option("report") << '\n';
    }
    std::cout << explained.summary << "\nexplain artifact written to "
              << parser.option("out") << '\n';
    return 0;
  });
}

int cmd_serve(int argc, char** argv) {
  ArgParser parser("drbw serve",
                   "Replay a recorded trace through the online serving loop");
  parser.add_option("replay", "trace file from `drbw record`",
                    "drbw_trace.csv");
  parser.add_option("model",
                    "trained model (empty = train now; a missing or corrupt "
                    "model degrades the server to pass-through telemetry "
                    "instead of failing)",
                    "");
  parser.add_option("clients", "simulated client streams", "4");
  parser.add_option("queue-depth", "bounded ingest queue depth per client",
                    "64");
  parser.add_option("overload",
                    "block | shed-oldest | reject: what a full queue does "
                    "with the next sample",
                    "block");
  parser.add_option("window-cycles",
                    "replay window width in simulated cycles (0 = derive "
                    "~8 windows from the trace span)",
                    "0");
  parser.add_option("drain-rate",
                    "samples drained per client per tick (0 = queue depth)",
                    "0");
  parser.add_option("window-capacity",
                    "sliding classification window capacity per client",
                    "512");
  parser.add_option("max-cycles",
                    "stop admitting at this simulated cycle (0 = replay all)",
                    "0");
  parser.add_option("max-retries",
                    "retries with deterministic backoff before an operation "
                    "counts as a fault",
                    "2");
  parser.add_option("backoff-cycles",
                    "simulated-cycle penalty of the first retry (doubles per "
                    "attempt)",
                    "100");
  parser.add_option("breaker-threshold",
                    "consecutive faults that quarantine a client", "3");
  parser.add_option("snapshot-out",
                    "checksummed serve snapshot path (empty = "
                    "<run-dir>/serve_snapshot.json)",
                    "");
  parser.add_option("snapshot-every",
                    "rewrite the snapshot every N ticks (0 = final only)",
                    "0");
  parser.add_option("drift-threshold",
                    "mark the run drift-suspected when any client's PSI "
                    "divergence from the model's training baseline reaches "
                    "F (0 = never flag; needs a baseline-carrying v3 model; "
                    "typed, never fatal)",
                    "0");
  add_load_options(parser);
  parser.add_option("jobs",
                    "parallel window classifiers (0 = one per hardware "
                    "thread); snapshots, metrics, and the manifest are "
                    "byte-identical at any value",
                    "1");
  RunSession::add_options(parser);
  if (!parser.parse(argc, argv)) return 0;
  RunSession session("serve", parser);
  return session.run([&] {
    session.stage("load");
    serve::ServeOptions opts;
    try {
      opts.overload = serve::overload_policy_from_name(parser.option("overload"));
    } catch (const Error& e) {
      throw UsageError(std::string("--overload: ") + e.what());
    }
    constexpr std::int64_t kMaxCount =
        std::numeric_limits<std::uint32_t>::max();
    const auto count = [&](const char* name, std::int64_t lo) {
      return static_cast<std::uint32_t>(parser.option_int(name, lo, kMaxCount));
    };
    const auto cycles = [&](const char* name) {
      return static_cast<std::uint64_t>(parser.option_int(name, 0, kInt64Max));
    };
    opts.clients = count("clients", 1);
    opts.queue_depth = count("queue-depth", 1);
    opts.window_cycles = cycles("window-cycles");
    opts.drain_per_tick = count("drain-rate", 0);
    opts.window_capacity = count("window-capacity", 1);
    opts.max_cycles = cycles("max-cycles");
    opts.max_retries = static_cast<int>(
        parser.option_int("max-retries", 0, serve::kMaxServeRetries));
    opts.backoff_cycles = static_cast<std::uint64_t>(
        parser.option_int("backoff-cycles", 0, serve::kMaxBackoffCycles));
    opts.breaker_threshold = static_cast<int>(parser.option_int(
        "breaker-threshold", 1, std::numeric_limits<int>::max()));
    opts.snapshot_every = cycles("snapshot-every");
    opts.drift_threshold =
        parser.option_double("drift-threshold", 0.0, kDoubleMax);
    opts.jobs = jobs_option(parser);
    opts.snapshot_path =
        parser.option("snapshot-out").empty()
            ? session.run_dir() + "/" + serve::kSnapshotFileName
            : parser.option("snapshot-out");

    const auto machine = topology::Machine::xeon_e5_4650();
    const TraceInput input =
        load_trace_input(parser, session, machine, parser.option("replay"),
                         /*require_model=*/false);
    const pebs::Trace& trace = input.trace;
    std::cout << "loaded " << trace.samples.size() << " samples, "
              << trace.events.size() << " allocation events\n";

    // Graceful degradation: a model that cannot be loaded (missing file,
    // unparseable JSON, checksum damage, newer format) must not take the
    // server down — classification is skipped, telemetry still flows.
    std::optional<ml::Classifier> model;
    if (parser.option("model").empty()) {
      model = workloads::train_default_classifier(machine);
    } else {
      session.note_input("model-in", parser.option("model"));
      try {
        model = load_classifier(parser.option("model"), input.policy);
      } catch (const Error& e) {
        std::cerr << "drbw serve: degraded to pass-through telemetry: "
                  << e.what() << '\n';
      }
    }

    session.stage("serve");
    serve::Server server(machine, model.has_value() ? &*model : nullptr, opts);
    const serve::ServeResult result = server.run(trace);
    session.manifest().degraded = result.degraded;

    // The drift verdict goes to the manifest's golden block so doctor and
    // fleet can read it without the snapshot.  Suspected drift never changes
    // the exit code — serve is a telemetry loop, the finding is typed, not
    // fatal.
    session.manifest().drift = serve::drift_verdict(result);
    std::cout << serve::render_summary(result, opts);
    session.note_output(std::string(serve::kSnapshotKind) + "-out",
                        opts.snapshot_path);

    session.stage("persist");
    // A degraded run still exits 0: serve is a telemetry loop, not a
    // verdict tool, and "kept serving without a model" is the contract.
    return 0;
  });
}

/// `drbw stats --serve`: render the windowed contention timeline a v2 serve
/// snapshot carries, read through serve::load_snapshot.
int stats_serve(const ArgParser& parser, int width) {
  const std::string path = parser.option("trace");
  const serve::Snapshot snapshot = serve::load_snapshot(path);
  const serve::ServeResult& result = snapshot.result;
  if (result.timeline.empty()) {
    std::cout << "no contention timeline in " << path << " (v"
              << snapshot.version
              << " snapshot; either it predates v2 or no window was "
                 "classified)\n";
    return 0;
  }
  std::vector<std::pair<double, double>> rmc_series;
  std::vector<std::pair<double, double>> conf_series;
  std::vector<std::pair<double, double>> drift_series;
  std::uint64_t windows = 0, rmc = 0;
  for (const serve::TimelineRow& row : result.timeline) {
    const auto tick = static_cast<double>(row.tick);
    windows += row.windows;
    rmc += row.rmc;
    rmc_series.emplace_back(
        tick, row.windows > 0 ? static_cast<double>(row.rmc) /
                                    static_cast<double>(row.windows)
                              : 0.0);
    conf_series.emplace_back(tick, row.confidence_p50);
    // PSI divergence is unbounded; the chart wants [0, 1], so the row is
    // capped for display and the snapshot's true max score printed below.
    drift_series.emplace_back(tick, std::min(1.0, row.drift_score));
  }
  TimelineChart chart(width);
  chart.add_series("rmc fraction", rmc_series);
  chart.add_series("confidence p50", conf_series);
  chart.add_series("drift (cap 1)", drift_series);
  std::cout << "windowed contention timeline (" << result.timeline.size()
            << " row(s), " << windows << " classified window(s), " << rmc
            << " contended)\n\n"
            << chart.render();
  if (result.drift_available) {
    std::cout << "\ndrift: max score " << format_fixed(result.drift_score, 3)
              << " (threshold " << format_fixed(result.drift_threshold, 3)
              << "), " << result.drift_suspected_clients
              << " client(s) suspected, confidence p50 "
              << format_fixed(result.confidence_p50, 3) << '\n';
  } else {
    std::cout << "\ndrift: unavailable (degraded run, or the model carries "
                 "no training baseline)\n";
  }
  return 0;
}

int cmd_stats(int argc, char** argv) {
  ArgParser parser("drbw stats",
                   "Render the per-epoch channel-utilization timeline from a "
                   "trace file written with --trace-out (or, with --serve, "
                   "the contention timeline of a serve snapshot)");
  parser.add_option("trace",
                    "trace_event JSON from --trace-out (with --serve: a "
                    "serve_snapshot.json)",
                    "obs_trace.json");
  parser.add_option("width", "timeline width in columns", "64");
  parser.add_option("top", "show only the N busiest channels (0 = all)", "0");
  parser.add_flag("serve",
                  "treat --trace as a serve snapshot and render its windowed "
                  "contention timeline");
  if (!parser.parse(argc, argv)) return 0;
  const int width = static_cast<int>(parser.option_int("width", 1, 1024));
  const auto top =
      static_cast<std::size_t>(parser.option_int("top", 0, kInt64Max));
  if (parser.flag("serve")) return stats_serve(parser, width);

  const std::string& path = parser.option("trace");
  const UsageError snapshot_hint(
      "drbw stats: '" + path + "' is a serve snapshot, not a trace_event "
      "file — did you mean `drbw stats --serve --trace " + path + "`?");
  const std::string content = util::read_file_or_throw(path, "trace file");
  if (content.rfind(std::string("#drbw-") + serve::kSnapshotKind, 0) == 0) {
    throw snapshot_hint;
  }
  const Json root = Json::parse(content);

  // Per-channel (epoch-start-cycle, utilization) series from the engine's
  // per-epoch "epoch" counter events.  Any other event kinds, and any event
  // that is not an object with a string name and phase, a numeric ts and
  // numeric args, are skipped, so stats works on traces from any subcommand.
  std::map<std::string, std::vector<std::pair<double, double>>> series;
  std::size_t epochs = 0;
  const Json* events = root.is_object() ? root.find("traceEvents") : nullptr;
  if (events == nullptr || !events->is_array()) {
    if (root.is_object() &&
        root.find(serve::kSnapshotVersionMember) != nullptr) {
      throw snapshot_hint;
    }
    throw Error("not a trace_event file: no traceEvents array",
                ErrorCode::kParse);
  }
  const auto is = [](const Json* node, Json::Type type) {
    return node != nullptr && node->type() == type;
  };
  for (const Json& event : events->as_array()) {
    if (!event.is_object()) continue;
    const Json* name = event.find("name");
    const Json* phase = event.find("ph");
    const Json* ts = event.find("ts");
    const Json* args = event.find("args");
    if (!is(name, Json::Type::kString) || name->as_string() != "epoch" ||
        !is(phase, Json::Type::kString) || phase->as_string() != "C" ||
        !is(ts, Json::Type::kNumber) || !is(args, Json::Type::kObject) ||
        !std::all_of(args->as_object().begin(), args->as_object().end(),
                     [&](const auto& arg) {
                       return is(&arg.second, Json::Type::kNumber);
                     })) {
      continue;
    }
    ++epochs;
    for (const auto& [channel, value] : args->as_object()) {
      if (channel == "max_latency_multiplier") continue;
      series[channel].emplace_back(ts->as_number(), value.as_number());
    }
  }
  if (series.empty()) {
    std::cout << "no per-epoch channel events in " << path
              << " (record the trace with --trace-out on train/record/"
                 "analyze)\n";
    return 0;
  }

  // Busiest channels first so the interesting rows are at the top.
  std::vector<std::pair<std::string, double>> order;
  for (const auto& [channel, points] : series) {
    double peak = 0.0;
    for (const auto& [ts, value] : points) peak = std::max(peak, value);
    order.emplace_back(channel, peak);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) { return a.second > b.second; });
  if (top > 0 && order.size() > top) order.resize(top);

  TimelineChart chart(width);
  for (const auto& [channel, peak] : order) {
    chart.add_series(channel, series.at(channel));
  }
  std::cout << "channel utilization per epoch (" << epochs << " epochs, "
            << order.size() << " of " << series.size() << " channels)";
  const Json* other = root.find("otherData");
  if (is(other, Json::Type::kObject)) {
    const Json* clock = other->find("clock");
    if (is(clock, Json::Type::kString)) {
      std::cout << ", clock: " << clock->as_string();
    }
  }
  std::cout << "\n\n" << chart.render();
  return 0;
}

int cmd_convert(int argc, char** argv) {
  ArgParser parser("drbw convert",
                   "Re-encode a trace artifact (csv <-> binary)");
  parser.add_option("in", "trace to convert (any supported version)",
                    "drbw_trace.csv");
  parser.add_option("out", "converted trace output path", "drbw_trace.bin");
  parser.add_option("format", "output body encoding: csv | binary", "binary");
  add_load_options(parser);
  if (!parser.parse(argc, argv)) return 0;
  pebs::SaveOptions save;
  save.format = pebs::trace_format_from_name(parser.option("format"));
  util::require_input_file(parser.option("in"), "trace file");
  util::LoadStats stats;
  const pebs::Trace trace =
      pebs::load_trace(parser.option("in"), load_policy(parser), &stats);
  pebs::save_trace(parser.option("out"), trace, save);
  std::cout << "converted " << trace.samples.size() << " samples, "
            << trace.events.size() << " allocation events -> "
            << parser.option("out") << " (" << parser.option("format") << ")";
  if (stats.records_quarantined > 0 || !stats.checksum_ok) {
    std::cout << " [" << stats.records_quarantined << " of "
              << stats.records_seen << " input records quarantined"
              << (stats.checksum_ok ? "" : ", input checksum FAILED") << "]";
  }
  std::cout << '\n';
  return 0;
}

int cmd_inspect(int argc, char** argv) {
  ArgParser parser("drbw inspect", "Pretty-print a trained model");
  parser.add_option("model", "model path", "drbw_model.json");
  if (!parser.parse(argc, argv)) return 0;
  util::require_input_file(parser.option("model"), "model file");
  const auto model = ml::Classifier::load(parser.option("model"));
  std::cout << model.describe() << "\nfeatures used:";
  for (const int f : model.tree().used_features()) {
    std::cout << "\n  #" << (f + 1) << " "
              << model.feature_names()[static_cast<std::size_t>(f)];
  }
  std::cout << '\n';
  return 0;
}

int cmd_topology(int argc, char** argv) {
  ArgParser parser("drbw topology", "Describe a simulated machine");
  parser.add_option("machine", "xeon | opteron", "xeon");
  if (!parser.parse(argc, argv)) return 0;
  const auto machine = machine_by_name(parser.option("machine"));
  const auto& spec = machine.spec();
  std::cout << spec.name << "\n  " << machine.num_nodes() << " nodes x "
            << spec.cores_per_socket << " cores x " << spec.threads_per_core
            << " HT @ " << spec.ghz << " GHz\n  L1 " << spec.l1.size_bytes / 1024
            << " KiB, L2 " << spec.l2.size_bytes / 1024 << " KiB, L3 "
            << (spec.l3.size_bytes >> 20) << " MiB/socket, DRAM "
            << (spec.dram_bytes_per_node >> 30) << " GiB/node\n";
  TablePrinter t({{"channel", Align::kLeft},
                  {"hops", Align::kRight},
                  {"capacity (B/cyc)", Align::kRight},
                  {"idle latency (cyc)", Align::kRight}});
  for (int i = 0; i < machine.num_channels(); ++i) {
    const auto ch = machine.channel_at(i);
    t.add_row({machine.channel_name(ch), std::to_string(machine.hops(ch)),
               format_fixed(machine.channel_capacity(ch), 2),
               format_fixed(machine.idle_dram_latency(ch), 0)});
  }
  print_block(std::cout, t.render());
  return 0;
}

int cmd_doctor(int argc, char** argv) {
  ArgParser parser("drbw doctor",
                   "Diagnose a previous run from its manifest: loads "
                   "<run-dir>/run.json (and flight.log when present) and "
                   "prints ranked root-cause findings; exits 0 when the "
                   "diagnosis succeeds, including for runs that failed");
  parser.add_positional("run-dir", "run directory (default: .)", 0, 1);
  if (!parser.parse(argc, argv)) return 0;
  const std::string run_dir =
      parser.positionals().empty() ? "." : parser.positionals().front();
  std::cout << report::render_doctor(report::doctor(run_dir));
  return 0;
}

int cmd_perf_diff(int argc, char** argv) {
  ArgParser parser("drbw perf diff",
                   "Compare span statistics and metric counters between run "
                   "manifests; exits 3 when any comparison grew past "
                   "baseline*(1+threshold), which CI uses as a perf gate");
  parser.add_positional("baseline", "the baseline run.json", 1, 1);
  parser.add_positional("after", "manifest(s) diffed against the baseline", 1,
                        ArgParser::kUnbounded);
  parser.add_option("threshold",
                    "regression threshold F: past baseline*(1+F) regresses",
                    "0.25");
  if (!parser.parse(argc, argv)) return 0;
  const double threshold = parser.option_double("threshold", 0.0, kDoubleMax);
  const std::vector<std::string>& manifests = parser.positionals();
  const report::RunManifest before = report::load_manifest(manifests[0]);
  bool any_regressed = false;
  for (std::size_t i = 1; i < manifests.size(); ++i) {
    const report::RunManifest after = report::load_manifest(manifests[i]);
    const report::PerfDiff diff = report::perf_diff(before, after, threshold);
    if (manifests.size() > 2) {
      std::cout << "== " << manifests[0] << " vs " << manifests[i] << " ==\n";
    }
    std::cout << report::render_perf_diff(diff);
    any_regressed = any_regressed || diff.regressed;
  }
  return any_regressed ? kExitPerfRegression : 0;
}

int cmd_fleet(int argc, char** argv) {
  ArgParser parser("drbw fleet",
                   "Aggregate outcomes, span times, fault fires and "
                   "quarantines of every run dir under <root-dir> (corrupt "
                   "manifests are quarantined into the report, never fatal)");
  parser.add_positional("root-dir", "searched recursively for run dirs", 1, 1);
  parser.add_option("baseline",
                    "perf-diff every passing run against this manifest; "
                    "exit 3 when any run regresses",
                    "");
  parser.add_option("threshold",
                    "regression threshold F: past baseline*(1+F) regresses",
                    "0.25");
  parser.add_option("filter", "status=ok | status=failed: aggregate only "
                    "those runs (empty = all)", "");
  parser.add_option("top", "list at most N runs in the report (0 = all)",
                    "0");
  parser.add_option("jobs",
                    "parallel manifest loads (0 = one per hardware thread); "
                    "every output is byte-identical at any value",
                    "1");
  parser.add_option("out", "write the Markdown report here (empty = stdout)",
                    "");
  parser.add_option("json-out", "write the checksummed #drbw-fleet JSON here",
                    "");
  parser.add_option("flame-out",
                    "merge every run's flight.log spans into one "
                    "collapsed-stack profile here",
                    "");
  if (!parser.parse(argc, argv)) return 0;
  const std::string& root = parser.positionals().front();
  const std::string& out = parser.option("out");
  const std::string& json_out = parser.option("json-out");
  const std::string& flame_out = parser.option("flame-out");
  report::FleetOptions options;
  options.baseline_path = parser.option("baseline");
  options.threshold = parser.option_double("threshold", 0.0, kDoubleMax);
  const std::string& filter = parser.option("filter");
  if (filter == "status=ok" || filter == "status=failed") {
    options.filter_status = filter.substr(std::string("status=").size());
  } else if (!filter.empty()) {
    throw UsageError("--filter expects status=ok or status=failed, got '" +
                     filter + "'");
  }
  options.top =
      static_cast<std::size_t>(parser.option_int("top", 0, kInt64Max));
  options.jobs = jobs_option(parser);

  const report::FleetReport fleet = report::fleet_scan(root, options);
  const std::string markdown = report::render_fleet_markdown(fleet);
  if (out.empty()) {
    std::cout << markdown;
  } else {
    util::atomic_write_file(out, markdown);
    std::cout << "fleet report written to " << out << '\n';
  }
  if (!json_out.empty()) {
    report::write_fleet_json(fleet, json_out);
    std::cout << "fleet JSON written to " << json_out << '\n';
  }
  if (!flame_out.empty()) {
    obs::FlameFold fold;
    std::size_t folded = 0;
    for (const report::FleetRun& run : fleet.runs) {
      const std::string dir =
          run.dir == "." ? root : root + "/" + run.dir;
      if (report::fold_run_dir(dir, fold)) ++folded;
    }
    util::atomic_write_file(flame_out, fold.collapsed());
    std::cout << "flame profile (" << fold.stack_count() << " stack(s) from "
              << folded << " run(s)) written to " << flame_out << '\n';
  }
  if (!out.empty() || fleet.regressed) {
    std::cout << "fleet: " << fleet.dirs_scanned << " run dir(s), "
              << fleet.runs_ok << " ok, " << fleet.runs_failed << " failed, "
              << fleet.manifests_corrupt << " corrupt manifest(s)";
    if (fleet.regressed) {
      std::cout << "; " << fleet.regressions.size()
                << " run(s) REGRESSED vs " << options.baseline_path;
    }
    std::cout << '\n';
  }
  return fleet.regressed ? kExitPerfRegression : 0;
}

int cmd_flame(int argc, char** argv) {
  ArgParser parser("drbw flame",
                   "Fold a run's deterministic spans into collapsed-stack "
                   "format (`frame;frame weight`, the input of flamegraph.pl "
                   "and speedscope)");
  parser.add_positional("input",
                        "a run dir (folds its flight.log), a #drbw-flight "
                        "dump, or a trace_event JSON from --trace-out",
                        1, 1);
  parser.add_option("out", "write the profile here (empty = stdout)", "");
  if (!parser.parse(argc, argv)) return 0;
  const std::string& input = parser.positionals().front();
  const std::string& out = parser.option("out");

  obs::FlameFold fold;
  std::error_code ec;
  if (std::filesystem::is_directory(input, ec)) {
    if (!report::fold_run_dir(input, fold)) {
      throw Error(input + ": no loadable " +
                      std::string(report::kFlightFileName) +
                      " in this run dir (flame folds the flight recorder's "
                      "span breadcrumbs)",
                  ErrorCode::kNotFound);
    }
  } else {
    const std::string content = util::read_file_or_throw(input, "flame input");
    if (content.rfind("#drbw-flight", 0) == 0) {
      fold.add(report::flame_spans(report::load_flight_dump(input)));
    } else {
      try {
        fold.add(report::flame_spans_from_trace(Json::parse(content)));
      } catch (const Error& e) {
        throw Error(input + ": " + e.what(), e.code());
      }
    }
  }
  if (out.empty()) {
    std::cout << fold.collapsed();
  } else {
    util::atomic_write_file(out, fold.collapsed());
    std::cout << "flame profile (" << fold.stack_count()
              << " stack(s), total weight " << fold.total_weight()
              << ") written to " << out << '\n';
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string usage =
      "usage: drbw <train|record|analyze|explain|serve|convert|inspect|"
      "topology|stats|doctor|fleet|flame> [options]\n"
      "       drbw perf diff <baseline/run.json> <after/run.json>...\n"
      "       drbw <subcommand> --help for details\n";
  if (argc < 2) {
    std::cout << usage;
    return kExitUsage;
  }
  const std::string sub = argv[1];
  try {
    if (sub == "train") return cmd_train(argc - 1, argv + 1);
    if (sub == "record") return cmd_record(argc - 1, argv + 1);
    if (sub == "analyze") return cmd_analyze(argc - 1, argv + 1);
    if (sub == "explain") return cmd_explain(argc - 1, argv + 1);
    if (sub == "serve") return cmd_serve(argc - 1, argv + 1);
    if (sub == "convert") return cmd_convert(argc - 1, argv + 1);
    if (sub == "inspect") return cmd_inspect(argc - 1, argv + 1);
    if (sub == "topology") return cmd_topology(argc - 1, argv + 1);
    if (sub == "stats") return cmd_stats(argc - 1, argv + 1);
    if (sub == "doctor") return cmd_doctor(argc - 1, argv + 1);
    if (sub == "fleet") return cmd_fleet(argc - 1, argv + 1);
    if (sub == "flame") return cmd_flame(argc - 1, argv + 1);
    if (sub == "perf") {
      if (argc < 3 || std::string(argv[2]) != "diff") {
        std::cerr << "drbw perf: the only verb is 'diff'\n" << usage;
        return kExitUsage;
      }
      return cmd_perf_diff(argc - 2, argv + 2);
    }
    std::cerr << "unknown subcommand '" << sub << "'\n" << usage;
    return kExitUnknownCommand;
  } catch (const Error& e) {
    // Typed failures map onto the sysexits-style table in the doc comment
    // (UsageError carries kUsage, so it lands on 64 like before).
    std::cerr << "drbw: " << e.what() << '\n';
    return exit_code_for(e.code());
  } catch (const std::exception& e) {
    std::cerr << "drbw: " << e.what() << '\n';
    return 1;
  }
}
