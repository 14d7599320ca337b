// Fleet aggregation & flame export: `drbw fleet` over the committed fixture
// corpus plus the collapsed-stack folder (observability ISSUE, fleet PR).
//
// The corpus at tests/data/fleet/ holds one passing run, one run per typed
// failure class (66/67/68/69/70), one byte-flipped manifest, and one
// passing run with a planted 400x span regression (see its README.md for
// regeneration).  Pins the contract end to end:
//   * the flame fold reconstructs nesting from (track, start, dur) alone and
//     credits self weight (the flamegraph invariant),
//   * fleet_scan aggregates exact outcome / span / fault / quarantine counts
//     and quarantines the corrupt manifest instead of dying,
//   * the JSON/Markdown/collapsed artifacts are byte-identical at --jobs 1
//     vs 4 and `drbw fleet --baseline` exits 3 on the planted regression,
//   * `drbw doctor` cross-links a run dir to its sibling corpus.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <vector>

#include "drbw/obs/flame.hpp"
#include "drbw/report/fleet.hpp"
#include "drbw/report/manifest.hpp"
#include "drbw/report/postmortem.hpp"
#include "drbw/util/error.hpp"
#include "drbw/util/json.hpp"
#include "drbw/util/strings.hpp"

namespace drbw {
namespace {

namespace fs = std::filesystem;

const std::string kFleetDir = std::string(DRBW_TEST_DATA_DIR) + "/fleet";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---------------------------------------------------------------------------
// In-process: the collapsed-stack folder

TEST(FlameFoldTest, ReconstructsNestingAndCreditsSelfWeight) {
  obs::FlameFold fold;
  // outer [0,100) holds mid [10,40) which holds leaf [15,20); a second
  // root [200,250) is disjoint.  Passed shuffled: add() must sort.
  fold.add({{"leaf", 0, 15, 5},
            {"outer", 0, 0, 100},
            {"other", 0, 200, 50},
            {"mid", 0, 10, 30}});
  EXPECT_EQ(fold.collapsed(),
            "other 50\n"
            "outer 70\n"
            "outer;mid 25\n"
            "outer;mid;leaf 5\n");
  // Self weights re-sum to the root durations.
  EXPECT_EQ(fold.total_weight(), 150u);
  EXPECT_EQ(fold.stack_count(), 4u);
}

TEST(FlameFoldTest, TracksNeverNestAcrossEachOther) {
  obs::FlameFold fold;
  // Identical addresses on different tracks are siblings, not parent/child.
  fold.add({{"a", 0, 0, 10}, {"b", 1, 2, 5}});
  EXPECT_EQ(fold.collapsed(), "a 10\nb 5\n");
}

TEST(FlameFoldTest, SanitizesFrameSeparators) {
  obs::FlameFold fold;
  // ';' and ' ' are structural in the collapsed format; they must never
  // leak from a span name into the output grammar.
  fold.add({{"load shard;0", 0, 0, 7}});
  EXPECT_EQ(fold.collapsed(), "load_shard_0 7\n");
}

TEST(FlameFoldTest, MergeAccumulatesWeights) {
  obs::FlameFold a;
  a.add({{"x", 0, 0, 3}});
  obs::FlameFold b;
  b.add({{"x", 0, 0, 4}, {"y", 1, 0, 1}});
  a.merge(b);
  EXPECT_EQ(a.collapsed(), "x 7\ny 1\n");
  EXPECT_TRUE(obs::FlameFold{}.empty());
}

TEST(FlameAdaptersTest, FlightSpansAndTraceEventsFold) {
  // Flight breadcrumbs: only tag=="span" rows become spans.
  std::vector<report::FlightRecord> records;
  records.push_back({0, 3, 3, 0, "stage", "classify"});
  records.push_back({0, 4, 4, 2, "span", "featurize"});
  const auto spans = report::flame_spans(records);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "featurize");
  EXPECT_EQ(spans[0].start, 4u);
  EXPECT_EQ(spans[0].dur, 2u);

  // trace_event documents: 'X' events only, track = tid.
  const Json trace = Json::parse(R"({"traceEvents": [
      {"ph": "X", "name": "profile", "tid": 2, "ts": 10, "dur": 4},
      {"ph": "i", "name": "marker", "tid": 2, "ts": 11}]})");
  const auto tspans = report::flame_spans_from_trace(trace);
  ASSERT_EQ(tspans.size(), 1u);
  EXPECT_EQ(tspans[0].name, "profile");
  EXPECT_EQ(tspans[0].track, 2u);

  // A JSON document without traceEvents is a parse error, not a crash.
  EXPECT_THROW(
      {
        try {
          report::flame_spans_from_trace(Json::parse("{\"x\": 1}"));
        } catch (const Error& e) {
          EXPECT_EQ(e.code(), ErrorCode::kParse);
          throw;
        }
      },
      Error);
}

// ---------------------------------------------------------------------------
// In-process: fleet_scan over the committed fixture corpus

std::size_t histogram_value(
    const std::vector<std::pair<std::string, std::size_t>>& histogram,
    const std::string& key) {
  for (const auto& [name, count] : histogram) {
    if (name == key) return count;
  }
  return 0;
}

TEST(FleetScanTest, DiscoversFixtureRunDirsSorted) {
  const auto dirs = report::discover_run_dirs(kFleetDir);
  const std::vector<std::string> expected = {
      "corrupt_manifest", "fail_corrupt", "fail_fault", "fail_notfound",
      "fail_parse",       "fail_skew",    "ok_lenient", "regress"};
  EXPECT_EQ(dirs, expected);
  // A root that is itself a run dir is discovered as ".".
  const auto self = report::discover_run_dirs(kFleetDir + "/ok_lenient");
  EXPECT_EQ(self, std::vector<std::string>{"."});
}

TEST(FleetScanTest, AggregatesExactCountsAndQuarantinesCorruptManifest) {
  const report::FleetReport fleet =
      report::fleet_scan(kFleetDir, report::FleetOptions{});

  EXPECT_EQ(fleet.dirs_scanned, 8u);
  EXPECT_EQ(fleet.manifests_corrupt, 1u);
  EXPECT_EQ(fleet.runs_filtered_out, 0u);
  EXPECT_EQ(fleet.runs_ok, 2u);
  EXPECT_EQ(fleet.runs_failed, 5u);
  ASSERT_EQ(fleet.runs.size(), 7u);
  ASSERT_EQ(fleet.corrupt.size(), 1u);
  EXPECT_EQ(fleet.corrupt[0].dir, "corrupt_manifest");
  EXPECT_NE(fleet.corrupt[0].error.find("crc32"), std::string::npos);

  // One run per typed failure class, exactly.
  EXPECT_EQ(histogram_value(fleet.outcomes, "ok"), 2u);
  EXPECT_EQ(histogram_value(fleet.outcomes, "not-found"), 1u);
  EXPECT_EQ(histogram_value(fleet.outcomes, "parse-error"), 1u);
  EXPECT_EQ(histogram_value(fleet.outcomes, "corrupt-artifact"), 1u);
  EXPECT_EQ(histogram_value(fleet.outcomes, "version-skew"), 1u);
  EXPECT_EQ(histogram_value(fleet.outcomes, "fault-injected"), 1u);
  EXPECT_EQ(histogram_value(fleet.subcommands, "analyze"), 6u);
  EXPECT_EQ(histogram_value(fleet.subcommands, "record"), 1u);

  // The injected engine fault and the lenient loads surface fleet-wide.
  ASSERT_EQ(fleet.fault_fires.size(), 1u);
  EXPECT_EQ(fleet.fault_fires[0].first, "engine.epoch:fail");
  EXPECT_EQ(fleet.records_quarantined, 4u);
  EXPECT_EQ(fleet.quarantine_runs, 2u);

  // Span distribution names the planted 400x outlier as the slowest run.
  const auto classify = std::find_if(
      fleet.spans.begin(), fleet.spans.end(),
      [](const report::FleetSpanStat& s) { return s.name == "classify"; });
  ASSERT_NE(classify, fleet.spans.end());
  EXPECT_EQ(classify->runs, 2u);
  EXPECT_EQ(classify->p50, 1u);
  EXPECT_EQ(classify->p95, 400u);
  EXPECT_EQ(classify->max, 400u);
  EXPECT_EQ(classify->max_dir, "regress");
}

TEST(FleetScanTest, StatusFilterNarrowsAggregation) {
  report::FleetOptions options;
  options.filter_status = "failed";
  const report::FleetReport fleet = report::fleet_scan(kFleetDir, options);
  EXPECT_EQ(fleet.runs.size(), 5u);
  EXPECT_EQ(fleet.runs_ok, 0u);
  EXPECT_EQ(fleet.runs_failed, 5u);
  EXPECT_EQ(fleet.runs_filtered_out, 2u);
  // The ok-only spans disappear with their runs.
  EXPECT_TRUE(fleet.spans.empty());
}

TEST(FleetScanTest, RegressionScanFlagsThePlantedRun) {
  report::FleetOptions options;
  options.baseline_path = kFleetDir + "/ok_lenient/run.json";
  const report::FleetReport fleet = report::fleet_scan(kFleetDir, options);
  EXPECT_EQ(fleet.regression_scanned, 2u);  // passing runs only
  EXPECT_TRUE(fleet.regressed);
  ASSERT_EQ(fleet.regressions.size(), 1u);
  EXPECT_EQ(fleet.regressions[0].dir, "regress");
  ASSERT_FALSE(fleet.regressions[0].rows.empty());
  EXPECT_EQ(fleet.regressions[0].rows[0].name, "classify");
}

TEST(FleetScanTest, JsonIsByteIdenticalAcrossJobsValues) {
  report::FleetOptions serial;
  serial.jobs = 1;
  report::FleetOptions parallel;
  parallel.jobs = 4;
  const std::string j1 =
      report::render_fleet_json(report::fleet_scan(kFleetDir, serial));
  const std::string j4 =
      report::render_fleet_json(report::fleet_scan(kFleetDir, parallel));
  EXPECT_EQ(j1, j4);
  // The artifact must not even mention the jobs value.
  EXPECT_EQ(j1.find("\"jobs\""), std::string::npos);
}

TEST(FleetScanTest, MissingRootAndEmptyRootThrowNotFound) {
  EXPECT_THROW(report::discover_run_dirs("/nonexistent/fleet"), Error);
  const std::string empty =
      testing::TempDir() + "/fleet_empty_root";
  fs::create_directories(empty);
  EXPECT_THROW(
      {
        try {
          report::fleet_scan(empty, report::FleetOptions{});
        } catch (const Error& e) {
          EXPECT_EQ(e.code(), ErrorCode::kNotFound);
          throw;
        }
      },
      Error);
}

TEST(FleetScanTest, FoldRunDirFoldsFlightAndSkipsMissingDump) {
  obs::FlameFold fold;
  EXPECT_TRUE(report::fold_run_dir(kFleetDir + "/ok_lenient", fold));
  EXPECT_EQ(fold.collapsed(), "classify 1\nfeaturize 1\nprofile 1\n");
  // A dir without a flight dump reports false and leaves the fold alone.
  const std::string bare = testing::TempDir() + "/fleet_no_flight";
  fs::remove_all(bare);
  fs::create_directories(bare);
  obs::FlameFold untouched;
  EXPECT_FALSE(report::fold_run_dir(bare, untouched));
  EXPECT_TRUE(untouched.empty());
}

// ---------------------------------------------------------------------------
// In-process: doctor corpus cross-link (satellite 6)

TEST(FleetDoctorTest, DoctorCrossLinksSiblingRunDirs) {
  const report::DoctorReport rep = report::doctor(kFleetDir + "/fail_skew");
  const auto corpus = std::find_if(
      rep.findings.begin(), rep.findings.end(), [](const report::Finding& f) {
        return f.title.find("part of a corpus") != std::string::npos;
      });
  ASSERT_NE(corpus, rep.findings.end());
  EXPECT_NE(corpus->evidence.find("7 sibling run dir(s)"), std::string::npos);
  // fail_skew is alone in its failure class among loadable siblings.
  EXPECT_NE(corpus->evidence.find("0 share error token 'version-skew'"),
            std::string::npos);
  EXPECT_NE(corpus->advice.find("drbw fleet "), std::string::npos);
  // The redirect never outranks the actual diagnosis.
  EXPECT_NE(corpus->rank, 1);
}

TEST(FleetDoctorTest, SharedErrorTokenSiblingsAreCounted) {
  const std::string parent = testing::TempDir() + "/fleet_doctor_corpus";
  fs::remove_all(parent);
  for (const char* name : {"a", "b", "c"}) {
    fs::create_directories(parent + "/" + name);
    fs::copy_file(kFleetDir + "/fail_corrupt/run.json",
                  parent + "/" + name + "/" + report::kManifestFileName);
  }
  const report::DoctorReport rep = report::doctor(parent + "/a");
  const auto corpus = std::find_if(
      rep.findings.begin(), rep.findings.end(), [](const report::Finding& f) {
        return f.title.find("part of a corpus") != std::string::npos;
      });
  ASSERT_NE(corpus, rep.findings.end());
  EXPECT_NE(corpus->evidence.find("2 sibling run dir(s)"), std::string::npos);
  EXPECT_NE(corpus->evidence.find("2 share error token 'corrupt-artifact'"),
            std::string::npos);
}

TEST(FleetDoctorTest, LoneRunDirGetsNoCorpusFinding) {
  const std::string parent = testing::TempDir() + "/fleet_doctor_lone";
  fs::remove_all(parent);
  fs::create_directories(parent + "/only");
  fs::copy_file(kFleetDir + "/ok_lenient/run.json",
                parent + "/only/" + report::kManifestFileName);
  const report::DoctorReport rep = report::doctor(parent + "/only");
  for (const report::Finding& f : rep.findings) {
    EXPECT_EQ(f.title.find("part of a corpus"), std::string::npos) << f.title;
  }
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

TEST(FleetCliTest, ArtifactsAreByteIdenticalAtJobsOneVsFour) {
  const std::string base = testing::TempDir() + "/fleet_cli_jobs";
  for (int jobs : {1, 4}) {
    const std::string tag = base + std::to_string(jobs);
    ASSERT_EQ(run_cli("fleet " + kFleetDir + " --jobs " +
                      std::to_string(jobs) + " --out " + tag + ".md" +
                      " --json-out " + tag + ".json --flame-out " + tag +
                      ".flame"),
              0);
  }
  EXPECT_EQ(read_file(base + "1.md"), read_file(base + "4.md"));
  EXPECT_EQ(read_file(base + "1.json"), read_file(base + "4.json"));
  EXPECT_EQ(read_file(base + "1.flame"), read_file(base + "4.flame"));

  // The JSON artifact carries the checksummed fleet header and the
  // golden-vs-context split.
  const std::string json = read_file(base + "1.json");
  EXPECT_TRUE(starts_with(json, "#drbw-fleet v1 crc32="));
  EXPECT_NE(json.find("\"golden\""), std::string::npos);
  EXPECT_NE(json.find("\"context\""), std::string::npos);

  // The merged collapsed-stack profile is structurally valid: every line is
  // `frame(;frame)* weight` with a positive integer weight, sorted.
  const std::string flame = read_file(base + "1.flame");
  ASSERT_FALSE(flame.empty());
  std::istringstream lines(flame);
  std::string line, previous;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string stack = line.substr(0, space);
    const std::string weight = line.substr(space + 1);
    EXPECT_FALSE(stack.empty()) << line;
    EXPECT_FALSE(stack.front() == ';' || stack.back() == ';') << line;
    EXPECT_GT(std::stoull(weight), 0u) << line;
    EXPECT_LT(previous, line);  // sorted, no duplicates
    previous = line;
    ++count;
  }
  EXPECT_EQ(count, 3u);  // classify/featurize/profile from the two ok runs
}

TEST(FleetCliTest, BaselineRegressionGatesWithExitThree) {
  const std::string baseline = kFleetDir + "/ok_lenient/run.json";
  EXPECT_EQ(run_cli("fleet " + kFleetDir + " --baseline " + baseline), 3);
  // A threshold past the planted +39900% accepts the corpus.
  EXPECT_EQ(run_cli("fleet " + kFleetDir + " --baseline " + baseline +
                    " --threshold 500"),
            0);
  EXPECT_EQ(run_cli("fleet " + kFleetDir), 0);
  // A threshold that is not a finite number >= 0 cannot turn the gate off.
  for (const char* bad : {"nan", "inf", "-1"}) {
    EXPECT_EQ(run_cli("fleet " + kFleetDir + " --baseline " + baseline +
                      " --threshold " + bad),
              64)
        << bad;
  }
}

TEST(FleetCliTest, FilterTopAndUsageErrors) {
  EXPECT_EQ(run_cli("fleet " + kFleetDir + " --filter status=failed"), 0);
  EXPECT_EQ(run_cli("fleet " + kFleetDir + " --top 2"), 0);
  EXPECT_EQ(run_cli("fleet /nonexistent/fleet_root"), 66);
  EXPECT_EQ(run_cli("fleet " + kFleetDir + " --filter status=bogus"), 64);
  EXPECT_EQ(run_cli("fleet " + kFleetDir + " --top x"), 64);
  EXPECT_EQ(run_cli("fleet"), 64);  // missing root
}

TEST(FleetCliTest, FlameSubcommandFoldsARunDirAndATraceFile) {
  const std::string out = testing::TempDir() + "/fleet_cli_flame.txt";
  ASSERT_EQ(run_cli("flame " + kFleetDir + "/ok_lenient --out " + out), 0);
  EXPECT_EQ(read_file(out), "classify 1\nfeaturize 1\nprofile 1\n");
  // A flight dump file works directly too.
  ASSERT_EQ(run_cli("flame " + kFleetDir + "/ok_lenient/flight.log --out " +
                    out),
            0);
  EXPECT_EQ(read_file(out), "classify 1\nfeaturize 1\nprofile 1\n");
  EXPECT_EQ(run_cli("flame /nonexistent/run_dir"), 66);
  EXPECT_EQ(run_cli("flame"), 64);
}

#endif  // DRBW_CLI_PATH

}  // namespace
}  // namespace drbw
