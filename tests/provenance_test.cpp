// Provenance & post-mortem loop: run manifests, the flight recorder, and
// the doctor / perf-diff tooling (ISSUE 5).
//
// Pins the contract end to end:
//   * manifests and flight dumps are byte-identical at --jobs 1 vs 4 apart
//     from the checksummed header line and the "jobs", "minor_faults" and
//     "peak_rss_kib" context lines,
//   * a manifest survives a CRC round-trip through the artifact layer,
//   * every typed CLI failure (66/67/68/69/70) still leaves a loadable
//     manifest + flight dump that `drbw doctor` parses into a diagnosis
//     naming the failing code,
//   * perf_diff flags regressions past the threshold and `drbw perf diff`
//     exits 3 on them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <vector>

#include "drbw/fault/injector.hpp"
#include "drbw/ml/decision_tree.hpp"
#include "drbw/obs/flame.hpp"
#include "drbw/obs/flight_recorder.hpp"
#include "drbw/obs/trace.hpp"
#include "drbw/pebs/trace_io.hpp"
#include "drbw/report/fleet.hpp"
#include "drbw/report/manifest.hpp"
#include "drbw/report/postmortem.hpp"
#include "drbw/util/artifact.hpp"
#include "drbw/util/json.hpp"
#include "drbw/util/strings.hpp"

namespace drbw {
namespace {

using report::ArtifactRef;
using report::RunManifest;

const std::string kDataDir = DRBW_TEST_DATA_DIR;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Strips the lines the manifest contract allows to differ between --jobs
/// values: the checksummed header, the "jobs": context line and the two
/// context lines that measure the process (minor faults, peak RSS).
std::string golden_view(const std::string& manifest_text) {
  std::ostringstream out;
  std::istringstream in(manifest_text);
  std::string line;
  while (std::getline(in, line)) {
    if (starts_with(line, "#drbw-manifest")) continue;
    if (line.find("\"jobs\":") != std::string::npos) continue;
    if (line.find("\"minor_faults\":") != std::string::npos) continue;
    if (line.find("\"peak_rss_kib\":") != std::string::npos) continue;
    out << line << '\n';
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// In-process: flight recorder

TEST(FlightRecorderTest, RecordsSortsAndDumps) {
  auto& flight = obs::FlightRecorder::instance();
  flight.enable(16);
  flight.note("stage", "load");
  flight.note("quarantine", "trace.csv", 42);
  const std::string dump = flight.dump();
  flight.disable();
  EXPECT_NE(dump.find("track,seq,ts,value,tag,detail"), std::string::npos);
  EXPECT_NE(dump.find("stage,load"), std::string::npos);
  EXPECT_NE(dump.find("42,quarantine,trace.csv"), std::string::npos);
  EXPECT_EQ(flight.enabled(), false);
}

TEST(FlightRecorderTest, BoundedRingCountsDrops) {
  auto& flight = obs::FlightRecorder::instance();
  flight.enable(4);
  for (std::uint64_t i = 0; i < 10; ++i) flight.note("e", "x", i);
  EXPECT_EQ(flight.event_count(), 4u);
  EXPECT_EQ(flight.dropped(), 6u);
  // The ring keeps the newest `capacity` events, oldest first.
  const std::vector<obs::FlightEvent> kept = flight.snapshot();
  ASSERT_EQ(kept.size(), 4u);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].value, 6 + i);
    if (i > 0) {
      EXPECT_EQ(kept[i].seq, kept[i - 1].seq + 1);
    }
  }
  // enable() after a wrap starts over, empty.
  flight.enable(4);
  EXPECT_EQ(flight.event_count(), 0u);
  EXPECT_EQ(flight.dropped(), 0u);
  EXPECT_TRUE(flight.snapshot().empty());
  flight.note("e", "y", 1);
  EXPECT_EQ(flight.event_count(), 1u);
  flight.disable();
}

TEST(FlightRecorderTest, RingThatNeverFillsDumpsPinnedBytes) {
  // The ring grows on demand; a run that stays below capacity dumps exactly
  // what a preallocated ring did: every event, in (track, seq) order.
  const obs::TrackScope saved = obs::track_scope();
  obs::track_scope() = obs::TrackScope{};
  auto& flight = obs::FlightRecorder::instance();
  flight.enable(65536);
  flight.note("stage", "load", 7);
  flight.note("quarantine", "trace.csv");
  flight.note_at("epoch", "e1", 3, 42);
  const std::string dump = flight.dump();
  const std::uint64_t dropped = flight.dropped();
  flight.disable();
  obs::track_scope() = saved;
  EXPECT_EQ(dump,
            "track,seq,ts,value,tag,detail\n"
            "0,0,0,7,stage,load\n"
            "0,1,1,0,quarantine,trace.csv\n"
            "0,2,42,3,epoch,e1\n");
  EXPECT_EQ(dropped, 0u);
}

TEST(FlightRecorderTest, DisabledRecorderIsANoOp) {
  // The recorder is a process singleton and disable() keeps what earlier
  // notes left in the ring, so assert on the change a note makes, not on
  // an absolute count.
  auto& flight = obs::FlightRecorder::instance();
  flight.disable();
  const std::size_t before = flight.event_count();
  flight.note("stage", "ignored");
  EXPECT_FALSE(flight.enabled());
  EXPECT_EQ(flight.event_count(), before);
}

TEST(FlightRecorderTest, FaultFiresLeaveBreadcrumbs) {
  auto& flight = obs::FlightRecorder::instance();
  flight.enable(64);
  fault::Injector::global().arm(
      fault::Plan::parse("seed=1,pebs.sample:drop:1"));
  (void)fault::should_inject("pebs.sample", fault::Kind::kDropSample, 7);
  fault::Injector::global().disarm();
  const std::string dump = flight.dump();
  flight.disable();
  EXPECT_NE(dump.find("fault,pebs.sample:drop"), std::string::npos);
}

/// Busy-waits until the wall clock has advanced `micros`.
void spin_wall(std::uint64_t micros) {
  const std::uint64_t start = obs::wall_now_micros();
  while (obs::wall_now_micros() - start < micros) {
  }
}

/// Folds the span breadcrumbs of a flight dump written to `path`.
std::string fold_flight(const std::string& path) {
  obs::FlightRecorder::instance().write(path);
  obs::FlameFold fold;
  fold.add(report::flame_spans(report::load_flight_dump(path)));
  return fold.collapsed();
}

TEST(FlightRecorderTest, WallSpansShareOneClockWithoutTheTraceSink) {
  auto& flight = obs::FlightRecorder::instance();
  const obs::TrackScope saved = obs::track_scope();
  const auto run_stages = [] {
    obs::Span parent("parent");
    {
      obs::Span a("a");
      spin_wall(200);
    }
    {
      obs::Span b("b");
      spin_wall(200);
    }
  };
  // --timing wall without --trace-out: the sink stays off, and the flight
  // recorder's span ts and dur are both wall microseconds, so the stages
  // fold side by side under their parent, never one inside another.
  obs::track_scope() = obs::TrackScope{};
  flight.enable(64);
  obs::Trace::instance().set_mode(obs::TimingMode::kWall);
  run_stages();
  obs::Trace::instance().disable();  // back to the sim clock
  const std::string wall =
      fold_flight(testing::TempDir() + "/prov_wall_flight.log");
  flight.disable();
  EXPECT_NE(wall.find("parent;a "), std::string::npos) << wall;
  EXPECT_NE(wall.find("parent;b "), std::string::npos) << wall;
  EXPECT_EQ(wall.find("a;b"), std::string::npos) << wall;

  // The sim clock keeps the sequence slot as ts: dumps stay golden.
  obs::track_scope() = obs::TrackScope{};
  flight.enable(64);
  run_stages();
  const std::string dump = flight.dump();
  flight.disable();
  obs::track_scope() = saved;
  EXPECT_EQ(dump,
            "track,seq,ts,value,tag,detail\n"
            "0,0,0,3,span,parent\n"
            "0,1,1,1,span,a\n"
            "0,2,2,1,span,b\n");
}

// ---------------------------------------------------------------------------
// In-process: manifest round-trip

RunManifest sample_manifest() {
  RunManifest m;
  m.subcommand = "analyze";
  m.config = {{"load-mode", "lenient"}, {"trace", "t.csv"}};
  m.fault_spec = "seed=3,trace.read:corrupt:0.5";
  m.inputs.push_back(
      ArtifactRef{"trace-in", "t.csv", "trace", 2, 0xdeadbeefu, 1234});
  m.has_load_stats = true;
  m.records_seen = 100;
  m.records_ok = 90;
  m.records_quarantined = 10;
  m.checksum_ok = false;
  m.fault_fires = {{"trace.read:corrupt", 10}};
  m.spans.push_back(obs::SpanStat{"phase:main", 1, 5000, 5000});
  m.status = "error";
  m.error_code = "corrupt-artifact";
  m.exit_code = 68;
  m.message = "too damaged";
  m.jobs = 4;
  return m;
}

/// Every optional golden member set, and free text that needs escaping.
RunManifest full_manifest() {
  RunManifest m = sample_manifest();
  m.subcommand = "train";
  m.config.emplace_back("out", "dir with \"quotes\"\\m.json");
  m.degraded = true;
  m.drift = "suspected";
  m.has_model_shape = true;
  m.model_nodes = 21;
  m.model_leaves = 11;
  m.model_depth = 6;
  m.model_splits = {{"n_remote_dram", 4}, {"avg_latency", 6}};
  m.inputs.push_back(ArtifactRef{"model-in", "m.json", "model", 3, 0x00c0ffeeu,
                                 3519});
  m.outputs.push_back(ArtifactRef{"model-out", "out/m.json", "raw", 0, 7, 0});
  m.fault_fires.emplace_back("model.write:truncate", 1);
  m.spans.push_back(obs::SpanStat{"train", 3, 18446744073709551615u, 12});
  m.metrics_json =
      "{\n  \"counters\": {\n    \"drbw_x_total\": {\"help\": \"x\", "
      "\"value\": 3}\n  },\n  \"gauges\": {},\n  \"histograms\": {}\n}\n \n";
  m.message = "line one\nline\ttwo \x01 \"q\" \\ end";
  m.timing = "sim";
  m.flight_events = 1004;
  m.flight_dropped = 2;
  m.minor_faults = 13446;
  m.peak_rss_kib = 52000;
  return m;
}

/// A passing `--timing wall` run: its spans sit in the context block.
RunManifest wall_manifest() {
  RunManifest m;
  m.subcommand = "analyze";
  m.spans_golden = false;
  m.timing = "wall";
  m.spans = {obs::SpanStat{"classify", 1, 812, 812},
             obs::SpanStat{"profile", 2, 4100, 3000}};
  m.jobs = 1;
  m.flight_events = 9;
  return m;
}

/// The written manifest, header line included, is pinned by committed
/// files: any change to the run.json bytes shows up here first.
TEST(ManifestTest, WriterBytesArePinned) {
  const std::pair<RunManifest, const char*> cases[] = {
      {full_manifest(), "manifest_full.json"},
      {wall_manifest(), "manifest_wall.json"}};
  for (const auto& [manifest, expected] : cases) {
    const std::string path =
        testing::TempDir() + "/prov_pinned_" + std::string(expected);
    manifest.write(path);
    EXPECT_EQ(read_file(path), read_file(kDataDir + "/" + expected))
        << expected;
  }
}

/// load_manifest returns the RunManifest that was written: every member
/// renders back to the same bytes, and the metrics block comes back as its
/// counters.
TEST(ManifestTest, WriteLoadRoundTripsThroughChecksummedHeader) {
  const std::string path = testing::TempDir() + "/prov_manifest.json";
  for (const RunManifest& written :
       {sample_manifest(), full_manifest(), wall_manifest()}) {
    written.write(path);
    // The artifact layer validates the CRC on the way back in.
    (void)util::read_versioned_artifact(
        path, "manifest", report::kManifestVersion, util::LoadPolicy{});
    const RunManifest loaded = report::load_manifest(path);
    RunManifest expected = written;
    expected.metrics_json.clear();
    EXPECT_EQ(loaded.to_json(), expected.to_json());
    EXPECT_TRUE(loaded.metrics_json.empty());
    EXPECT_EQ(loaded.counters,
              (written.metrics_json.empty()
                   ? std::vector<std::pair<std::string, double>>{}
                   : std::vector<std::pair<std::string, double>>{
                         {"drbw_x_total", 3.0}}));
  }
}

/// Every manifest the repo commits loads through the strict reader, and
/// perf diff of each against itself is clean: the fleet fixtures, and the
/// perf baselines CI's perf gate compares new runs with.
TEST(ManifestTest, CommittedManifestsLoadAndDiffClean) {
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  for (const fs::directory_entry& dir :
       fs::directory_iterator(kDataDir + "/fleet")) {
    if (dir.is_directory() && dir.path().filename() != "corrupt_manifest") {
      paths.push_back((dir.path() / report::kManifestFileName).string());
    }
  }
  for (const fs::directory_entry& file :
       fs::directory_iterator(std::string(DRBW_SOURCE_ROOT) + "/bench")) {
    if (starts_with(file.path().filename().string(), "perf_baseline_")) {
      paths.push_back(file.path().string());
    }
  }
  EXPECT_EQ(paths.size(), 7u + 6u);
  for (const std::string& path : paths) {
    RunManifest m;
    try {
      m = report::load_manifest(path);
    } catch (const Error& e) {
      ADD_FAILURE() << e.what();
      continue;
    }
    EXPECT_FALSE(m.subcommand.empty()) << path;
    EXPECT_FALSE(report::perf_diff(m, m, 0.0).regressed) << path;
  }
}

/// Flight-dump numbers are digits only and fit in a u64: a sign, a blank
/// or an overflow is a malformed record, never a wrapped seq.
TEST(FlightDumpTest, NumbersAreDigitsOnly) {
  const std::string path = testing::TempDir() + "/prov_flight_digits.log";
  const std::string header = "track,seq,ts,value,tag,detail\n";
  util::write_versioned_artifact(path, "flight", obs::kFlightVersion,
                                 header + "0,18446744073709551615,0,0,a,b\n");
  ASSERT_EQ(report::load_flight_dump(path).size(), 1u);
  EXPECT_EQ(report::load_flight_dump(path)[0].seq, UINT64_MAX);
  for (const char* line :
       {"0,-1,0,0,stage,load", "0,+1,0,0,stage,load", "0, 1,0,0,stage,load",
        "0,,0,0,stage,load", "0,18446744073709551616,0,0,stage,load",
        "0,1x,0,0,stage,load", "0,1,0,0"}) {
    util::write_versioned_artifact(
        path, "flight", obs::kFlightVersion,
        header + "0,0,0,0,stage,classify\n" + line + "\n");
    ErrorCode code = ErrorCode::kGeneric;
    try {
      (void)report::load_flight_dump(path);
    } catch (const Error& e) {
      code = e.code();
    }
    EXPECT_EQ(code, ErrorCode::kParse) << line;
  }
}

TEST(ManifestTest, CorruptedManifestIsRejected) {
  const std::string path = testing::TempDir() + "/prov_damaged.json";
  sample_manifest().write(path);
  std::string text = read_file(path);
  text[text.size() / 2] ^= 0x20;  // damage the body, not the header
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  EXPECT_THROW(
      {
        try {
          report::load_manifest(path);
        } catch (const Error& e) {
          EXPECT_EQ(e.code(), ErrorCode::kCorruptArtifact);
          throw;
        }
      },
      Error);
}

TEST(ManifestTest, DoctorRanksInjectedFaultFirst) {
  const std::string dir = testing::TempDir() + "/prov_doctor_run";
  std::filesystem::create_directories(dir);
  RunManifest m = sample_manifest();
  m.status = "error";
  m.error_code = "fault-injected";
  m.exit_code = 70;
  m.message = "injected diagnoser failure";
  m.write(dir + "/" + report::kManifestFileName);

  const report::DoctorReport rep = report::doctor(dir);
  ASSERT_FALSE(rep.findings.empty());
  EXPECT_EQ(rep.findings[0].rank, 1);
  EXPECT_NE(rep.findings[0].title.find("injected fault"), std::string::npos);
  EXPECT_NE(rep.findings[0].evidence.find("trace.read:corrupt"),
            std::string::npos);
  const std::string rendered = report::render_doctor(rep);
  EXPECT_NE(rendered.find("fault-injected"), std::string::npos);
  EXPECT_NE(rendered.find("exit 70"), std::string::npos);
}

// ---------------------------------------------------------------------------
// In-process: one artifact validator for every loader

/// One artifact kind, a plausible body for it, and the loader that reads it.
struct HeaderlessCase {
  const char* kind;
  const char* body;
  void (*load)(const std::string& path);
};

/// Names a case by its kind, so test listings stay stable across builds.
void PrintTo(const HeaderlessCase& c, std::ostream* os) { *os << c.kind; }

class HeaderlessArtifactTest : public testing::TestWithParam<HeaderlessCase> {
};

/// The body alone, without its `#drbw-<kind>` header line, is not an
/// artifact: every loader rejects it as a parse error naming the file.
TEST_P(HeaderlessArtifactTest, LoaderRejectsItAsAParseError) {
  const HeaderlessCase& c = GetParam();
  const std::string path =
      testing::TempDir() + "/prov_headerless_" + std::string(c.kind);
  util::atomic_write_file(path, c.body);
  std::string message;
  ErrorCode code = ErrorCode::kGeneric;
  try {
    c.load(path);
  } catch (const Error& e) {
    message = e.what();
    code = e.code();
  }
  EXPECT_EQ(code, ErrorCode::kParse) << message;
  EXPECT_EQ(message.rfind(path + ": ", 0), 0u) << message;
  EXPECT_NE(message.find("missing '#drbw-" + std::string(c.kind) +
                         "' header"),
            std::string::npos)
      << message;
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Loaders, HeaderlessArtifactTest,
    testing::Values(
        HeaderlessCase{"trace", "S,4096,0,1,LDR,500,0,10\n",
                       [](const std::string& path) {
                         (void)pebs::load_trace(path);
                       }},
        HeaderlessCase{"model", "{\"kind\": \"drbw-decision-tree\"}\n",
                       [](const std::string& path) {
                         (void)ml::Classifier::load(path);
                       }},
        HeaderlessCase{"manifest", "{\"golden\": {}}\n",
                       [](const std::string& path) {
                         (void)report::load_manifest(path);
                       }},
        HeaderlessCase{"flight", "track,seq,ts,value,tag,detail\n",
                       [](const std::string& path) {
                         (void)report::load_flight_dump(path);
                       }},
        // `drbw stats --serve` and `drbw fleet` read snapshots this way.
        HeaderlessCase{"serve-snapshot",
                       "{\"drbw_serve_snapshot\": 2, \"timeline\": []}\n",
                       [](const std::string& path) {
                         (void)util::read_versioned_artifact(
                             path, "serve-snapshot", 2, util::LoadPolicy{});
                       }}),
    [](const testing::TestParamInfo<HeaderlessCase>& param_info) {
      std::string name = param_info.param.kind;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// ---------------------------------------------------------------------------
// In-process: perf diff

RunManifest perf_fixture(double span_dur, double counter_val) {
  RunManifest m;
  m.spans.push_back(obs::SpanStat{
      "phase:main", 1, static_cast<std::uint64_t>(span_dur),
      static_cast<std::uint64_t>(span_dur)});
  m.counters.emplace_back("drbw_sim_epochs_total", counter_val);
  return m;
}

TEST(PerfDiffTest, FlagsRegressionsPastThresholdOnly) {
  const auto before = perf_fixture(1000.0, 50.0);
  // +20% span, +50% counter: only the counter crosses a 0.25 threshold.
  const auto after = perf_fixture(1200.0, 75.0);
  const report::PerfDiff diff = report::perf_diff(before, after, 0.25);
  ASSERT_EQ(diff.rows.size(), 2u);
  EXPECT_TRUE(diff.regressed);
  // Regressions sort first.
  EXPECT_EQ(diff.rows[0].name, "drbw_sim_epochs_total");
  EXPECT_TRUE(diff.rows[0].regression);
  EXPECT_DOUBLE_EQ(diff.rows[0].ratio, 1.5);
  EXPECT_FALSE(diff.rows[1].regression);

  // A looser threshold accepts both.
  EXPECT_FALSE(report::perf_diff(before, after, 0.6).regressed);
  // Identical manifests never regress.
  EXPECT_FALSE(report::perf_diff(before, before, 0.0).regressed);
}

TEST(PerfDiffTest, ImprovementsAndZeroBaselinesNeverRegress) {
  const auto before = perf_fixture(1000.0, 50.0);
  const auto faster = perf_fixture(100.0, 5.0);
  EXPECT_FALSE(report::perf_diff(before, faster, 0.25).regressed);
  // before == 0 cannot define a ratio; treated as non-comparable, not a
  // regression.
  const auto zero = perf_fixture(0.0, 0.0);
  EXPECT_FALSE(report::perf_diff(zero, before, 0.25).regressed);
}

TEST(PerfDiffTest, BaselineOnlyQuantitiesListAsGoneNeverRegress) {
  auto before = perf_fixture(1000.0, 50.0);
  before.spans.push_back(obs::SpanStat{"profile", 156, 156, 1});
  before.counters.emplace_back("drbw_core_profile_calls_total", 156.0);
  const auto after = perf_fixture(1000.0, 50.0);
  const report::PerfDiff diff = report::perf_diff(before, after, 0.0);
  EXPECT_FALSE(diff.regressed);
  ASSERT_EQ(diff.rows.size(), 4u);
  // Compared rows first, then the gone ones, each group by name.
  EXPECT_FALSE(diff.rows[0].gone);
  EXPECT_FALSE(diff.rows[1].gone);
  EXPECT_EQ(diff.rows[2].name, "drbw_core_profile_calls_total");
  EXPECT_EQ(diff.rows[2].kind, "counter");
  EXPECT_TRUE(diff.rows[2].gone);
  EXPECT_EQ(diff.rows[3].name, "profile");
  EXPECT_EQ(diff.rows[3].kind, "span");
  EXPECT_TRUE(diff.rows[3].gone);
  EXPECT_DOUBLE_EQ(diff.rows[3].before, 156.0);
  EXPECT_FALSE(diff.rows[3].regression);
  const std::string rendered = report::render_perf_diff(diff);
  EXPECT_NE(rendered.find("2 comparable quantities, 2 gone"),
            std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("gone       span profile: 156 -> (absent)"),
            std::string::npos)
      << rendered;
  // Quantities new in the after manifest have no baseline: not listed.
  EXPECT_EQ(report::perf_diff(after, before, 0.0).rows.size(), 2u);
}

#ifdef DRBW_CLI_PATH

// ---------------------------------------------------------------------------
// End-to-end through the real binary

int run_cli(const std::string& args) {
  const std::string cmd =
      std::string(DRBW_CLI_PATH) + " " + args + " >/dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

/// A fresh run directory under the test temp root.
std::string make_run_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/prov_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(ProvenanceCliTest, ManifestAndFlightAreJobsIndependent) {
  const std::string d1 = make_run_dir("jobs1");
  const std::string d4 = make_run_dir("jobs4");
  const std::string model = testing::TempDir() + "/prov_model.json";
  ASSERT_EQ(run_cli("train --jobs 1 --out " + model + " --run-dir " + d1), 0);
  ASSERT_EQ(run_cli("train --jobs 4 --out " + model + " --run-dir " + d4), 0);

  // Flight dumps: byte-identical, full file including the header.
  EXPECT_EQ(read_file(d1 + "/" + report::kFlightFileName),
            read_file(d4 + "/" + report::kFlightFileName));

  // Manifests: identical apart from the header, "jobs": and the two
  // process-measurement context lines (minor faults, peak RSS).
  const std::string m1 = read_file(d1 + "/" + report::kManifestFileName);
  const std::string m4 = read_file(d4 + "/" + report::kManifestFileName);
  EXPECT_EQ(golden_view(m1), golden_view(m4));
  EXPECT_NE(m1, m4);  // the jobs line itself must differ

  // The ring never wrapped, so the last-N selection was total.
  const RunManifest parsed =
      report::load_manifest(d1 + "/" + report::kManifestFileName);
  EXPECT_EQ(parsed.flight_dropped, 0u);
  EXPECT_GT(parsed.flight_events, 0u);
  // The process's own cost, read when the manifest was written.
  EXPECT_GT(parsed.minor_faults, 0u);
  EXPECT_GT(parsed.peak_rss_kib, 0u);
}

struct CorpusCase {
  const char* file;
  const char* extra_flags;
  int exit_code;
  const char* error_code;
};

TEST(ProvenanceCliTest, EveryTypedFailureLeavesADiagnosableRunDir) {
  // One corpus file (or synthetic condition) per typed exit code.
  const std::vector<CorpusCase> cases = {
      {"/nonexistent/trace.csv", "", 66, "not-found"},
      {"midrecord_trace.csv", "", 67, "parse-error"},
      {"truncated_trace.csv", "", 68, "corrupt-artifact"},
      {"wrong_version_trace.csv", "", 69, "version-skew"},
  };
  for (const CorpusCase& c : cases) {
    const std::string dir = make_run_dir(std::string("code") +
                                         std::to_string(c.exit_code));
    const std::string trace = c.file[0] == '/' ? c.file
                                               : kDataDir + "/" + c.file;
    EXPECT_EQ(run_cli("analyze --trace " + trace + " " + c.extra_flags +
                      " --run-dir " + dir),
              c.exit_code)
        << c.file;
    const report::DoctorReport rep = report::doctor(dir);
    EXPECT_EQ(rep.manifest.status, "error") << c.file;
    EXPECT_EQ(rep.manifest.error_code, c.error_code) << c.file;
    EXPECT_EQ(rep.manifest.exit_code, c.exit_code) << c.file;
    EXPECT_FALSE(rep.findings.empty()) << c.file;
    // And the CLI's own doctor agrees (exit 0 on a successful diagnosis).
    EXPECT_EQ(run_cli("doctor " + dir), 0) << c.file;
  }
}

const std::string kModel = std::string(DRBW_SOURCE_ROOT) + "/drbw_model.json";

/// Writes `body` as a checksummed v2 CSV trace and runs `analyze` on it;
/// returns the exit code.  The manifest lands in `dir`.
int analyze_csv_body(const std::string& name, const std::string& body,
                     const std::string& dir) {
  const std::string trace = testing::TempDir() + "/prov_" + name + ".csv";
  util::write_versioned_artifact(trace, "trace", pebs::kTraceCsvVersion, body);
  return run_cli("analyze --trace " + trace + " --model " + kModel +
                 " --run-dir " + dir);
}

/// A free with no matching allocation is a damaged input (68), never an
/// internal check failure (exit 1), and the manifest says so for `drbw
/// doctor`.
TEST(ProvenanceCliTest, UnmatchedFreeIsACorruptArtifact) {
  const std::string dir = make_run_dir("unmatched_free");
  EXPECT_EQ(analyze_csv_body("unmatched_free",
                             "A,x,4096,64\nF,8192\nS,4096,0,1,LDR,500,0,10\n",
                             dir),
            68);
  const std::string manifest = read_file(dir + "/" + report::kManifestFileName);
  EXPECT_NE(manifest.find("corrupt-artifact"), std::string::npos);
  EXPECT_NE(manifest.find("no matching allocation"), std::string::npos);
}

/// Heap events that would wrap the tracker's byte counts or ranges: a
/// second allocation at a live base, and a range ending past 2^64.
TEST(ProvenanceCliTest, HostileHeapEventsAreCorruptArtifacts) {
  EXPECT_EQ(analyze_csv_body("live_base",
                             "A,x,0,9223372036854775808\n"
                             "A,x,0,9223372036854775808\nF,0\n",
                             make_run_dir("live_base")),
            68);
  EXPECT_EQ(analyze_csv_body("wrapped_range",
                             "A,x,18446744073709551000,4096\n"
                             "S,4096,0,1,LDR,500,0,10\n",
                             make_run_dir("wrapped_range")),
            68);
}

/// The retired `#drbw-trace-index` artifact is not a trace: a parse error
/// (67) naming its kind, from analyze and convert alike.
TEST(ProvenanceCliTest, TraceIndexArtifactIsAParseError) {
  const std::string index = testing::TempDir() + "/prov_index.bin";
  util::write_versioned_artifact(index, "trace-index", 1,
                                 "format,binary\nshards,1\n"
                                 "shard,prov_index.bin.shard-000-of-001,"
                                 "00000000,0,0,0\n");
  const std::string dir = make_run_dir("trace_index");
  EXPECT_EQ(run_cli("analyze --trace " + index + " --model " + kModel +
                    " --run-dir " + dir),
            67);
  EXPECT_EQ(run_cli("convert --in " + index + " --out " + testing::TempDir() +
                    "/prov_index_out.bin"),
            67);
  const std::string manifest = read_file(dir + "/" + report::kManifestFileName);
  EXPECT_NE(manifest.find("artifact kind is 'trace-index', expected 'trace'"),
            std::string::npos)
      << manifest;
}

/// Under --timing wall the run dir's flight dump folds analyze's four
/// stages side by side, with the trace sink on (--trace-out) and off.
TEST(ProvenanceCliTest, WallTimingFoldsAnalyzeStagesSideBySide) {
  const std::string trace = testing::TempDir() + "/prov_wall_trace.bin";
  // streamcluster at T32-N4 is contended, so analyze reaches diagnose.
  ASSERT_EQ(run_cli("record --benchmark streamcluster --config T32-N4 "
                    "--format binary --out " + trace +
                    " --run-dir " + make_run_dir("rec_wall")),
            0);
  const char* const kStages[] = {"profile", "featurize", "classify",
                                 "diagnose"};
  for (const bool traced : {true, false}) {
    SCOPED_TRACE(traced ? "--trace-out" : "no trace sink");
    const std::string dir = make_run_dir(traced ? "wall_traced" : "wall_bare");
    const std::string sink =
        traced ? " --trace-out " + dir + "/profile.json" : "";
    const int rc = run_cli("analyze --trace " + trace + " --model " + kModel +
                           " --timing wall" + sink + " --run-dir " + dir);
    ASSERT_EQ(rc, 2);  // contention detected
    obs::FlameFold fold;
    fold.add(report::flame_spans(
        report::load_flight_dump(dir + "/" + report::kFlightFileName)));
    const std::string collapsed = fold.collapsed();
    std::istringstream lines(collapsed);
    std::string line;
    while (std::getline(lines, line)) {
      const std::string stack = line.substr(0, line.rfind(' '));
      const std::vector<std::string> frames = split(stack, ';');
      int stages = 0;
      for (const char* stage : kStages) {
        stages += static_cast<int>(
            std::count(frames.begin(), frames.end(), std::string(stage)));
      }
      EXPECT_LE(stages, 1) << "stages nested in one stack: " << stack;
    }
    for (const char* stage : kStages) {
      EXPECT_NE(collapsed.find(stage), std::string::npos)
          << stage << " missing from\n" << collapsed;
    }
  }
}

TEST(ProvenanceCliTest, InjectedFaultExitsSeventyAndDoctorNamesTheSite) {
  const std::string dir = make_run_dir("injected");
  const std::string trace = testing::TempDir() + "/prov_fault_trace.csv";
  ASSERT_EQ(run_cli("record --config T4-N2 --out " + trace + " --run-dir " +
                    make_run_dir("rec_for_fault")),
            0);
  EXPECT_EQ(run_cli("analyze --trace " + trace +
                    " --report " + testing::TempDir() + "/prov_unused.md"
                    " --inject-faults seed=1,report.render:fail:1"
                    " --run-dir " + dir),
            70);
  const report::DoctorReport rep = report::doctor(dir);
  EXPECT_EQ(rep.manifest.error_code, "fault-injected");
  ASSERT_FALSE(rep.findings.empty());
  EXPECT_NE(rep.findings[0].evidence.find("report.render"),
            std::string::npos);
  EXPECT_EQ(run_cli("doctor " + dir), 0);
}

TEST(ProvenanceCliTest, LenientCapBoundaryIsExact) {
  // malformed_records_trace.csv: 10 records, 2 malformed — the quarantined
  // fraction is exactly 0.2, and escalation is strictly `>` the cap.
  const std::string trace = kDataDir + "/malformed_records_trace.csv";
  const std::string at_cap = make_run_dir("cap_at");
  const std::string below = make_run_dir("cap_below");
  EXPECT_EQ(run_cli("analyze --trace " + trace +
                    " --load-mode lenient --max-bad-fraction 0.2 --run-dir " +
                    at_cap),
            0);
  EXPECT_EQ(run_cli("analyze --trace " + trace +
                    " --load-mode lenient --max-bad-fraction 0.19 --run-dir " +
                    below),
            68);
  const RunManifest ok =
      report::load_manifest(at_cap + "/" + report::kManifestFileName);
  EXPECT_EQ(ok.status, "ok");
  EXPECT_EQ(ok.records_quarantined, 2u);
  const RunManifest bad =
      report::load_manifest(below + "/" + report::kManifestFileName);
  EXPECT_EQ(bad.error_code, "corrupt-artifact");
  EXPECT_EQ(bad.records_quarantined, 2u);
}

TEST(ProvenanceCliTest, PerfDiffGateExitsThreeOnRegression) {
  const std::string a = testing::TempDir() + "/prov_perf_a.json";
  const std::string b = testing::TempDir() + "/prov_perf_b.json";
  RunManifest before = sample_manifest();
  before.status = "ok";
  before.error_code.clear();
  before.exit_code = 0;
  before.spans = {obs::SpanStat{"phase:main", 1, 1000, 1000}};
  before.write(a);
  RunManifest after = before;
  after.spans = {obs::SpanStat{"phase:main", 1, 2000, 2000}};
  after.write(b);

  EXPECT_EQ(run_cli("perf diff " + a + " " + a), 0);
  EXPECT_EQ(run_cli("perf diff " + a + " " + b), 3);          // +100% > 25%
  EXPECT_EQ(run_cli("perf diff " + a + " " + b + " --threshold 2.0"), 0);
  EXPECT_EQ(run_cli("perf diff " + a), 64);                   // one manifest
  EXPECT_EQ(run_cli("perf diff " + a + " " + b + " --threshold x"), 64);
  // A threshold that is not a finite number >= 0 cannot turn the gate off.
  for (const char* bad : {"nan", "inf", "-1"}) {
    EXPECT_EQ(run_cli("perf diff " + a + " " + b + " --threshold " + bad), 64)
        << bad;
  }

  // Baseline vs *each* comparison manifest: one regressing run anywhere in
  // the list gates the whole invocation.
  EXPECT_EQ(run_cli("perf diff " + a + " " + a + " " + a), 0);
  EXPECT_EQ(run_cli("perf diff " + a + " " + a + " " + b), 3);
  EXPECT_EQ(run_cli("perf diff " + a + " " + b + " " + a), 3);
  EXPECT_EQ(run_cli("perf diff " + a + " " + a + " " + b + " --threshold 2.0"),
            0);

  // A span missing from the new manifest is informational: exit stays 0.
  const std::string c = testing::TempDir() + "/prov_perf_c.json";
  RunManifest fewer = before;
  fewer.spans.clear();
  fewer.write(c);
  EXPECT_EQ(run_cli("perf diff " + a + " " + c), 0);
}

TEST(ProvenanceCliTest, TypeConfusedManifestsAreCorruptArtifacts) {
  // Checksum-valid manifests whose JSON has the wrong shape: a root that is
  // not an object, a golden member of the wrong type, a count that is not a
  // non-negative integer in range, and an array entry that is not an
  // object.  doctor and perf diff read none, and say so with exit 68 (not
  // 1, and never a silent default).
  const std::string good = testing::TempDir() + "/prov_shape_good.json";
  RunManifest ok = sample_manifest();
  ok.write(good);
  for (const char* body : {
           "[]\n",
           R"({"golden": {"outcome": "x"}})" "\n",
           R"({"golden": []})" "\n",
           R"({"golden": {"spans": {}}})" "\n",
           R"({"golden": {"spans": [{"name": "a", "count": 1.5}]}})",
           R"({"golden": {"spans": [{"name": "a", "count": -3}]}})",
           R"({"golden": {"load": {"records_seen": 1e300}}})",
           R"({"golden": {"outcome": {"exit_code": "74"}}})",
           R"({"golden": {"degraded": "yes"}})",
           R"({"golden": {"inputs": ["t.csv"]}})",
       }) {
    const std::string dir = make_run_dir("shape");
    const std::string manifest = dir + "/" + report::kManifestFileName;
    util::write_versioned_artifact(manifest, "manifest",
                                   report::kManifestVersion, body);
    try {
      (void)report::load_manifest(manifest);
      ADD_FAILURE() << "loaded " << body;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCorruptArtifact) << body;
      EXPECT_NE(std::string(e.what()).find(manifest), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(run_cli("doctor " + dir), 68) << body;
    EXPECT_EQ(run_cli("perf diff " + manifest + " " + good), 68) << body;
    EXPECT_EQ(run_cli("perf diff " + good + " " + manifest), 68) << body;
  }
}

TEST(ProvenanceCliTest, ExpectTraceVersionPinGatesBinaryTraces) {
  const std::string trace = testing::TempDir() + "/prov_pin_trace.bin";
  ASSERT_EQ(run_cli("record --config T4-N2 --format binary --out " + trace +
                    " --run-dir " + make_run_dir("rec_pin")),
            0);
  // A strict v2-only consumer meets a v3 binary trace: version skew, and
  // the run dir diagnoses it with re-record/convert advice.
  const std::string dir = make_run_dir("pin69");
  EXPECT_EQ(run_cli("analyze --trace " + trace +
                    " --expect-trace-version 2 --run-dir " + dir),
            69);
  const report::DoctorReport rep = report::doctor(dir);
  EXPECT_EQ(rep.manifest.error_code, "version-skew");
  ASSERT_FALSE(rep.findings.empty());
  EXPECT_NE(rep.findings[0].advice.find("convert"), std::string::npos);
  EXPECT_EQ(run_cli("doctor " + dir), 0);
  // Pinning the version the trace actually has succeeds.
  const int ok = run_cli("analyze --trace " + trace +
                         " --expect-trace-version 3 --run-dir " +
                         make_run_dir("pin_ok"));
  EXPECT_TRUE(ok == 0 || ok == 2) << ok;  // 2 = contention detected
  // Pins outside the supported range are usage errors.
  EXPECT_EQ(run_cli("analyze --trace " + trace +
                    " --expect-trace-version 4 --run-dir " +
                    make_run_dir("pin_bad")),
            64);
}

TEST(ProvenanceCliTest, ConvertRoundTripsFormatsByteExactly) {
  const std::string csv = testing::TempDir() + "/prov_cv.csv";
  const std::string bin = testing::TempDir() + "/prov_cv.bin";
  const std::string back = testing::TempDir() + "/prov_cv_back.csv";
  ASSERT_EQ(run_cli("record --config T4-N2 --out " + csv + " --run-dir " +
                    make_run_dir("rec_cv")),
            0);
  ASSERT_EQ(run_cli("convert --in " + csv + " --out " + bin +
                    " --format binary"),
            0);
  ASSERT_EQ(run_cli("convert --in " + bin + " --out " + back +
                    " --format csv"),
            0);
  // csv -> binary -> csv is lossless down to the bytes.
  EXPECT_EQ(read_file(csv), read_file(back));
  // A trace is one file: neither convert nor record takes --shards or --jobs.
  EXPECT_EQ(run_cli("convert --in " + csv + " --out " + bin + " --shards 3"),
            64);
  EXPECT_EQ(run_cli("convert --in " + csv + " --out " + bin + " --jobs 2"), 64);
  EXPECT_EQ(run_cli("record --config T4-N2 --out " + bin + " --shards 2"), 64);
  EXPECT_EQ(run_cli("record --config T4-N2 --out " + bin + " --jobs 2"), 64);
  EXPECT_EQ(run_cli("convert --in /nonexistent.csv --out " + bin), 66);
  EXPECT_EQ(run_cli("convert --in " + csv + " --out " + bin +
                    " --format tsv"),
            64);
}

#endif  // DRBW_CLI_PATH

}  // namespace
}  // namespace drbw
