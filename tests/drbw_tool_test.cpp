// End-to-end integration tests: simulate runs on the NUMA machine, train a
// classifier from labelled runs, and drive the full DR-BW pipeline
// (profile -> per-channel features -> classify -> diagnose).
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>

#include "drbw/drbw.hpp"
#include "drbw/pebs/session.hpp"
#include "drbw/pebs/trace_io.hpp"
#include "drbw/serve/server.hpp"
#include "drbw/util/artifact.hpp"
#include "drbw/util/json.hpp"

namespace drbw {
namespace {

using mem::AddressSpace;
using mem::PlacementSpec;
using sim::Engine;
using sim::EngineConfig;
using sim::Phase;
using sim::SimThread;
using sim::ThreadWork;
using topology::Machine;

EngineConfig test_config(std::uint64_t seed = 7) {
  EngineConfig cfg;
  cfg.epoch_cycles = 50'000;
  cfg.seed = seed;
  return cfg;
}

/// Runs `threads_per_node x nodes` threads streaming a shared array.
/// bound=true places the array on node 0 (the paper's problematic master-
/// thread allocation); otherwise it is interleaved (bandwidth friendly).
sim::RunResult make_run(const Machine& machine, AddressSpace& space,
                        int threads_per_node, int nodes, bool bound,
                        std::uint64_t accesses, std::uint64_t seed) {
  const auto obj = space.allocate(
      "app.c:42 data", 1ull << 30,
      bound ? PlacementSpec::bind(0) : PlacementSpec::interleave());
  std::vector<SimThread> threads;
  Phase phase{"main", {}};
  std::uint32_t tid = 0;
  for (int n = 0; n < nodes; ++n) {
    for (int t = 0; t < threads_per_node; ++t) {
      threads.push_back(SimThread{tid++, machine.cpus_of_node(n)[static_cast<std::size_t>(t)]});
      phase.work.push_back(ThreadWork{{sim::seq_read(obj, accesses)}, 1.0});
    }
  }
  Engine engine(machine, space, test_config(seed));
  return engine.run(threads, {phase});
}

class DrBwToolTest : public ::testing::Test {
 protected:
  Machine machine_ = Machine::xeon_e5_4650();

  /// Trains a small but honest model: contended (bound, many threads) vs
  /// friendly (interleaved or few threads) runs.
  ml::Classifier train_model() {
    ml::Dataset data(std::vector<std::string>(
        features::selected_feature_names().begin(),
        features::selected_feature_names().end()));
    std::uint64_t seed = 100;
    auto add_run = [&](const sim::RunResult& run, bool rmc) {
      core::Profiler profiler(machine_);
      const auto profile = profiler.profile(run);
      // Train on the hottest remote channel — the same scope the detector
      // classifies (mirrors workloads::generate_training_set).
      const auto channels = features::extract_channels(profile, machine_);
      const features::ChannelFeatures* best = &channels.front();
      for (const auto& cf : channels) {
        if (cf.features.values[5] > best->features.values[5] ||
            (cf.features.values[5] == best->features.values[5] &&
             cf.features.scope_samples > best->features.scope_samples)) {
          best = &cf;
        }
      }
      data.add(best->features.as_row(),
               rmc ? ml::Label::kRmc : ml::Label::kGood);
    };
    for (int rep = 0; rep < 3; ++rep) {
      for (const int tpn : {2, 6}) {
        for (const bool bound : {false, true}) {
          AddressSpace space(machine_);
          const auto run =
              make_run(machine_, space, tpn, 4, bound, 400'000, seed++);
          add_run(run, /*rmc=*/bound && tpn >= 6);
        }
      }
      // Local-saturation run: eight node-0 threads streaming node-0 memory.
      // Latencies inflate on the local memory controller, but there is no
      // *remote* bandwidth contention — labelled good.  These runs are what
      // force the tree onto the remote-specific features (the paper found
      // the same: high latency alone does not indicate remote contention).
      AddressSpace space(machine_);
      const auto obj = space.allocate("app.c:42 data", 1ull << 30,
                                      PlacementSpec::bind(0));
      std::vector<SimThread> threads;
      Phase phase{"main", {}};
      for (int t = 0; t < 8; ++t) {
        threads.push_back(SimThread{static_cast<std::uint32_t>(t),
                                    machine_.cpus_of_node(0)[static_cast<std::size_t>(t)]});
        phase.work.push_back(ThreadWork{{sim::seq_read(obj, 400'000)}, 1.0});
      }
      Engine engine(machine_, space, test_config(seed++));
      add_run(engine.run(threads, {phase}), /*rmc=*/false);
    }
    return ml::Classifier::train(data);
  }
};

TEST_F(DrBwToolTest, DetectsContentionAndDiagnosesRootCause) {
  const DrBw tool(machine_, train_model());

  // Contended case: 6 threads on each of 4 nodes hammer node-0 memory.
  AddressSpace space(machine_);
  const auto run = make_run(machine_, space, 6, 4, /*bound=*/true, 400'000, 999);
  const Report report = tool.analyze(run);

  EXPECT_TRUE(report.rmc);
  ASSERT_FALSE(report.contended.empty());
  // Contention is on channels *into* node 0 from the other nodes.
  for (const auto& ch : report.contended) {
    EXPECT_EQ(ch.dst, 0);
    EXPECT_NE(ch.src, 0);
  }
  // Diagnosis blames the single shared array.
  ASSERT_FALSE(report.diagnosis.ranking.empty());
  EXPECT_EQ(report.diagnosis.ranking[0].site, "app.c:42 data");
  EXPECT_GT(report.diagnosis.ranking[0].cf, 0.9);

  const std::string rendered = report.to_string(machine_);
  EXPECT_NE(rendered.find("rmc"), std::string::npos);
  EXPECT_NE(rendered.find("app.c:42 data"), std::string::npos);
}

TEST_F(DrBwToolTest, InterleavedRunIsGood) {
  const DrBw tool(machine_, train_model());
  AddressSpace space(machine_);
  const auto run = make_run(machine_, space, 6, 4, /*bound=*/false, 400'000, 888);
  const Report report = tool.analyze(run);
  EXPECT_FALSE(report.rmc);
  EXPECT_TRUE(report.contended.empty());
  EXPECT_NE(report.to_string(machine_).find("good"), std::string::npos);
}

TEST_F(DrBwToolTest, LightBoundRunIsGood) {
  // Two threads on one remote node do not saturate the link.
  const DrBw tool(machine_, train_model());
  AddressSpace space(machine_);
  const auto obj = space.allocate("app.c:42 data", 1ull << 30,
                                  PlacementSpec::bind(0));
  std::vector<SimThread> threads{{0, 8}, {1, 9}};  // node 1
  Phase phase{"main",
              {ThreadWork{{sim::random_read(obj, 200'000)}, 1.0},
               ThreadWork{{sim::random_read(obj, 200'000)}, 1.0}}};
  Engine engine(machine_, space, test_config(55));
  const auto run = engine.run(threads, {phase});
  const Report report = tool.analyze(run);
  EXPECT_FALSE(report.rmc);
}

TEST_F(DrBwToolTest, SparseChannelsDefaultGood) {
  const DrBw tool(machine_, train_model());
  // A tiny run: too few samples anywhere to trust the model.
  AddressSpace space(machine_);
  const auto obj = space.allocate("app.c:1 x", 1 << 20, PlacementSpec::bind(1));
  std::vector<SimThread> threads{{0, 0}};
  Phase phase{"main", {ThreadWork{{sim::seq_read(obj, 20'000)}, 1.0}}};
  Engine engine(machine_, space, test_config(44));
  const auto run = engine.run(threads, {phase});
  const Report report = tool.analyze(run);
  EXPECT_FALSE(report.rmc);
  for (const auto& v : report.channels) {
    if (v.channel.src == 0) {
      EXPECT_TRUE(v.sparse);
    }
  }
}

TEST_F(DrBwToolTest, ModelRoundTripThroughDiskKeepsVerdicts) {
  const ml::Classifier model = train_model();
  const std::string path = ::testing::TempDir() + "/drbw_tool_model.json";
  model.save(path);
  const DrBw tool(machine_, ml::Classifier::load(path));

  AddressSpace space(machine_);
  const auto run = make_run(machine_, space, 6, 4, true, 400'000, 123);
  EXPECT_TRUE(tool.analyze(run).rmc);
  std::remove(path.c_str());
}

TEST_F(DrBwToolTest, WindowedAnalysisSeparatesPhases) {
  // Phase 1: cache-resident work (no contention).  Phase 2: every node
  // hammers node-0 memory.  Whole-run analysis says rmc; windowed analysis
  // must show the early windows clean and the late ones contended.
  const DrBw tool(machine_, train_model());
  AddressSpace space(machine_);
  const auto small = space.allocate("app.c:50 local", 1 << 20,
                                    PlacementSpec::colocate({0, 1, 2, 3}));
  const auto hot = space.allocate("app.c:60 shared", 1ull << 30,
                                  PlacementSpec::bind(0));
  std::vector<SimThread> threads;
  Phase quiet{"quiet", {}};
  Phase storm{"storm", {}};
  std::uint32_t tid = 0;
  for (int n = 0; n < 4; ++n) {
    for (int t = 0; t < 6; ++t) {
      threads.push_back(SimThread{tid++, machine_.cpus_of_node(n)[static_cast<std::size_t>(t)]});
      quiet.work.push_back(ThreadWork{{sim::seq_read(small, 400'000)}, 1.0});
      storm.work.push_back(ThreadWork{{sim::seq_read(hot, 400'000)}, 1.0});
    }
  }
  Engine engine(machine_, space, test_config(404));
  const auto run = engine.run(threads, {quiet, storm});

  ASSERT_EQ(run.phases.size(), 2u);
  const auto verdicts =
      tool.analyze_windows(run, run.phases[0].cycles);
  ASSERT_GE(verdicts.size(), 2u);
  EXPECT_FALSE(verdicts.front().rmc);  // the quiet phase
  bool any_late_rmc = false;
  for (std::size_t w = 1; w < verdicts.size(); ++w) {
    any_late_rmc |= verdicts[w].rmc;
  }
  EXPECT_TRUE(any_late_rmc);  // the storm
  // Windows tile the run exactly.
  EXPECT_EQ(verdicts.front().start_cycle, 0u);
  EXPECT_EQ(verdicts.back().end_cycle, run.total_cycles);
}

TEST_F(DrBwToolTest, ReportCarriesAdviceWhenContended) {
  const DrBw tool(machine_, train_model());
  AddressSpace space(machine_);
  const auto run = make_run(machine_, space, 6, 4, /*bound=*/true, 400'000, 777);
  const Report report = tool.analyze(run);
  ASSERT_TRUE(report.rmc);
  ASSERT_FALSE(report.advice.empty());
  EXPECT_EQ(report.advice[0].evidence.site, "app.c:42 data");
  // A partitioned sequential array: the advice must be co-location.
  EXPECT_EQ(report.advice[0].remedy, diagnoser::Remedy::kColocate);
  EXPECT_NE(report.to_string(machine_).find("co-locate"), std::string::npos);
}

TEST_F(DrBwToolTest, WindowedAnalysisValidatesArguments) {
  const DrBw tool(machine_, train_model());
  AddressSpace space(machine_);
  const auto run = make_run(machine_, space, 2, 4, false, 100'000, 321);
  EXPECT_THROW(tool.analyze_windows(run, 0), Error);
  const auto verdicts = tool.analyze_windows(run, 1ull << 62);
  EXPECT_EQ(verdicts.size(), 1u);  // one giant window
}

TEST_F(DrBwToolTest, CycleBucketerKeepsEdgesAndEmptyWindows) {
  const auto at = [](std::uint64_t cycle) {
    pebs::MemorySample s;
    s.cycle = cycle;
    return s;
  };
  // Three windows over [0, 9]: width 9 / 3 + 1 = 4.  The sample at the last
  // cycle lands in the last window, and the empty middle window is kept.
  const std::vector<pebs::MemorySample> samples{at(0), at(3), at(9)};
  const std::uint64_t width = pebs::cycle_window_width(9, 3);
  EXPECT_EQ(width, 4u);
  const pebs::CycleWindows buckets =
      pebs::bucket_by_cycle(samples, width, 3, 10);
  ASSERT_EQ(buckets.count(), 3u);
  EXPECT_EQ(buckets.window(0).size(), 2u);
  EXPECT_TRUE(buckets.window(1).empty());
  ASSERT_EQ(buckets.window(2).size(), 1u);
  EXPECT_EQ(samples[buckets.window(2)[0]].cycle, 9u);
  EXPECT_EQ(buckets.ordinals.size(), samples.size());
  // One window holds every sample, in stream order.
  const pebs::CycleWindows one =
      pebs::bucket_by_cycle(samples, pebs::cycle_window_width(9, 1), 1, 10);
  ASSERT_EQ(one.count(), 1u);
  ASSERT_EQ(one.window(0).size(), 3u);
  EXPECT_EQ(samples[one.window(0)[1]].cycle, 3u);
  EXPECT_EQ(std::vector<std::uint32_t>(one.window(0).begin(),
                                       one.window(0).end()),
            (std::vector<std::uint32_t>{0, 1, 2}));
  // Samples past the last window's end are clamped into it.
  EXPECT_EQ(pebs::bucket_by_cycle(samples, 1, 2, 10).window(1).size(), 2u);
  EXPECT_THROW(pebs::bucket_by_cycle(samples, 0, 1, 10), Error);
  EXPECT_THROW(pebs::bucket_by_cycle(samples, 1, 0, 10), Error);
}

/// Nine samples at cycles 0..8 (span 8) in eight windows: width 2, so the
/// grid is [0,2) [2,4) [4,6) [6,8) [8,9) and then three empty [9,9)
/// windows.  Every window starts where the previous one ended, none is
/// inverted, and the grid keeps exactly the windows asked for, even near
/// the 2^64 cycle limit.
TEST_F(DrBwToolTest, CycleGridHasExactlyTheRequestedWindows) {
  std::vector<pebs::MemorySample> samples;
  for (std::uint64_t c = 0; c < 9; ++c) {
    pebs::MemorySample s;
    s.cycle = 8 - c;  // unsorted: the grid reads the span, not the order
    samples.push_back(s);
  }
  const pebs::CycleWindows grid = pebs::split_cycle_windows(samples, 8);
  ASSERT_EQ(grid.count(), 8u);
  EXPECT_EQ(grid.width, 2u);
  const std::uint64_t expected[8][2] = {{0, 2}, {2, 4}, {4, 6}, {6, 8},
                                        {8, 9}, {9, 9}, {9, 9}, {9, 9}};
  for (std::size_t w = 0; w < 8; ++w) {
    EXPECT_EQ(grid.start_cycle(w), expected[w][0]) << w;
    EXPECT_EQ(grid.end_cycle(w), expected[w][1]) << w;
    EXPECT_EQ(grid.window(w).size(), w < 4 ? 2u : (w == 4 ? 1u : 0u)) << w;
  }
  samples[0].cycle = std::numeric_limits<std::uint64_t>::max();
  const pebs::CycleWindows top = pebs::split_cycle_windows(samples, 3);
  ASSERT_EQ(top.count(), 3u);
  EXPECT_EQ(top.window(2).size(), 1u);
  for (std::size_t w = 0; w < 3; ++w) {
    EXPECT_LE(top.start_cycle(w), top.end_cycle(w)) << w;
  }
  EXPECT_EQ(pebs::split_cycle_windows(samples, 1).window(0).size(), 9u);
}

TEST_F(DrBwToolTest, ClassifyWindowOfAnEmptyWindowHasNoChannels) {
  const DrBw tool(machine_, train_model());
  const features::ChannelWindow window(machine_);
  const WindowVerdict verdict = tool.classify_window(window);
  EXPECT_TRUE(verdict.channels.empty());
  EXPECT_TRUE(verdict.contended.empty());
  EXPECT_FALSE(verdict.rmc);
  EXPECT_EQ(verdict.samples, 0u);
}

TEST_F(DrBwToolTest, RejectsModelWithWrongArity) {
  ml::Dataset d({"only", "two"});
  d.add({0.0, 0.0}, ml::Label::kGood);
  d.add({1.0, 1.0}, ml::Label::kRmc);
  EXPECT_THROW(DrBw(machine_, ml::Classifier::train(d)), Error);
}

#ifdef DRBW_CLI_PATH
/// Runs the installed drbw binary and returns its exit status (-1 if it died
/// on a signal).  Output is discarded — these tests pin the exit-code
/// contract, not the text.
int run_cli(const std::string& args) {
  const std::string cmd =
      std::string(DRBW_CLI_PATH) + " " + args + " >/dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

std::string cli_read_file(const std::string& path);

TEST(DrBwCliExitCodeTest, PlacementTakesTheNamesItsErrorLists) {
  const std::string dir =
      ::testing::TempDir() + "/drbw_cli_place_" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  const std::string out = " --config T4-N2 --out " + dir + "/t.csv --run-dir " + dir;
  EXPECT_EQ(run_cli("record --placement co-locate" + out), 0);
  const std::string cmd = std::string(DRBW_CLI_PATH) +
                          " record --placement colocate" + out + " 2>" + dir +
                          "/err.txt >/dev/null";
  const int rc = std::system(cmd.c_str());
  EXPECT_EQ(WIFEXITED(rc) ? WEXITSTATUS(rc) : -1, 64);
  EXPECT_NE(cli_read_file(dir + "/err.txt")
                .find("unknown placement 'colocate' (use original, "
                      "interleave, co-locate or replicate)"),
            std::string::npos);
  std::filesystem::remove_all(dir);
}

/// The remote-sample column of `channel`'s row in analyze's verdict table.
std::string remote_samples(const std::string& out, const std::string& channel) {
  std::istringstream lines(out);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(channel + " ", 0) != 0) continue;
    std::vector<std::string> cells;
    std::istringstream row(line);
    for (std::string cell; std::getline(row, cell, '|');) {
      cells.push_back(cell.substr(cell.find_first_not_of(' ')));
    }
    return cells.size() > 2 ? cells[2].substr(0, cells[2].find(' ')) : "";
  }
  return "";
}

/// A contended run whose hot object lives on node 2, streamed by six
/// threads on each of the four nodes: its remote samples belong to Nk->N2.
sim::RunResult home_bound_run(const Machine& machine) {
  AddressSpace space(machine);
  const auto obj =
      space.allocate("hot.c:7 grid", 1ull << 30, PlacementSpec::bind(2));
  std::vector<SimThread> threads;
  Phase phase{"main", {}};
  std::uint32_t tid = 0;
  for (int n = 0; n < 4; ++n) {
    for (int t = 0; t < 6; ++t) {
      threads.push_back(
          SimThread{tid++, machine.cpus_of_node(n)[static_cast<std::size_t>(t)]});
      phase.work.push_back(ThreadWork{{sim::seq_read(obj, 200'000)}, 1.0});
    }
  }
  Engine engine(machine, space, test_config(11));
  return engine.run(threads, {phase});
}

TEST(DrBwCliHomeTest, AnalyzeFilesABoundObjectUnderItsHomeNode) {
  // The recorded trace, CSV or binary, files every remote sample under
  // Nk->N2.
  const Machine machine = Machine::xeon_e5_4650();
  const sim::RunResult run = home_bound_run(machine);
  const std::string dir =
      ::testing::TempDir() + "/drbw_cli_home_" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  for (const pebs::TraceFormat format :
       {pebs::TraceFormat::kCsv, pebs::TraceFormat::kBinary}) {
    SCOPED_TRACE(pebs::trace_format_name(format));
    const std::string trace = dir + "/t." + pebs::trace_format_name(format);
    pebs::save_trace(trace, {run.alloc_events, run.samples}, {format});
    const std::string cmd = std::string(DRBW_CLI_PATH) + " analyze --trace " +
                            trace + " --model " + DRBW_SOURCE_ROOT +
                            "/drbw_model.json --run-dir " + dir + " >" + dir +
                            "/out.txt 2>/dev/null";
    const int rc = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(rc) && (WEXITSTATUS(rc) == 0 || WEXITSTATUS(rc) == 2));
    const std::string out = cli_read_file(dir + "/out.txt");
    for (const char* src : {"N0", "N1", "N3"}) {
      EXPECT_NE(remote_samples(out, std::string(src) + "->N2"), "0") << out;
      EXPECT_NE(remote_samples(out, std::string(src) + "->N2"), "") << out;
    }
    for (const char* channel : {"N0->N1", "N1->N0", "N3->N0", "N2->N0"}) {
      EXPECT_EQ(remote_samples(out, channel), "0") << out;
    }
  }
  std::filesystem::remove_all(dir);
}

/// Pins whole-run analyze on a trace homed on node 2, where every other
/// pin's trace is homed on node 0: the channel each remote sample is filed
/// under decides the verdict table, and the contended channels' samples
/// decide the Contribution-Fraction ranking and the advice.
TEST(DrBwCliHomeTest, AnalyzeMatchesPinnedChecksums) {
  const Machine machine = Machine::xeon_e5_4650();
  const sim::RunResult run = home_bound_run(machine);
  const std::string dir = ::testing::TempDir() + "/drbw_cli_home_pin_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const struct {
    pebs::TraceFormat format;
    std::uint32_t stdout_crc;
    std::uint32_t report_crc;
  } legs[] = {{pebs::TraceFormat::kCsv, 0x36786600u, 0xe3a602f6u},
              {pebs::TraceFormat::kBinary, 0x36786600u, 0x60116ec1u}};
  for (const auto& leg : legs) {
    SCOPED_TRACE(pebs::trace_format_name(leg.format));
    const std::string trace =
        std::string("t.") + pebs::trace_format_name(leg.format);
    pebs::save_trace(dir + "/" + trace, {run.alloc_events, run.samples},
                     {leg.format});
    const std::string cmd = "cd '" + dir + "' && " + DRBW_CLI_PATH +
                            " analyze --trace " + trace + " --model " +
                            DRBW_SOURCE_ROOT +
                            "/drbw_model.json --report report.md --run-dir r"
                            " >stdout.txt 2>/dev/null";
    const int rc = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(rc) && WEXITSTATUS(rc) == 2) << rc;
    std::string analyze_lines;
    {
      std::istringstream out(cli_read_file(dir + "/stdout.txt"));
      for (std::string line; std::getline(out, line);) {
        if (line.find("written to") == std::string::npos) {
          analyze_lines += line + '\n';
        }
      }
    }
    EXPECT_NE(analyze_lines.find("hot.c:7 grid"), std::string::npos)
        << analyze_lines;
    EXPECT_EQ(util::crc32(analyze_lines), leg.stdout_crc) << analyze_lines;
    EXPECT_EQ(util::crc32(cli_read_file(dir + "/report.md")), leg.report_crc);
  }
  std::filesystem::remove_all(dir);
}

TEST(DrBwCliExitCodeTest, UnknownSubcommandExits65) {
  EXPECT_EQ(run_cli("frobnicate"), 65);
}

TEST(DrBwCliExitCodeTest, MalformedArgumentsExit64) {
  EXPECT_EQ(run_cli(""), 64);                          // no subcommand
  EXPECT_EQ(run_cli("analyze --trace"), 64);           // option missing value
  EXPECT_EQ(run_cli("analyze --no-such-flag x"), 64);  // unknown option
  EXPECT_EQ(run_cli("record --timing sideways"), 64);  // bad --timing value
  // --windows is capped (pebs::kMaxCycleWindows) and --jobs must not be
  // negative.
  EXPECT_EQ(run_cli("analyze --windows 65537"), 64);
  EXPECT_EQ(run_cli("explain --windows 100000000"), 64);
  EXPECT_EQ(run_cli("analyze --jobs -1"), 64);
  EXPECT_EQ(run_cli("explain --jobs -1"), 64);
  EXPECT_EQ(run_cli("serve --jobs -2"), 64);
  // serve's numeric options are range-checked, never clamped or wrapped:
  // retry draws are keyed key*16+attempt, so at most 15 retries.
  EXPECT_EQ(run_cli("serve --max-retries 16"), 64);
  EXPECT_EQ(run_cli("serve --max-retries 65"), 64);
  EXPECT_EQ(run_cli("serve --max-retries -1"), 64);
  EXPECT_EQ(run_cli("serve --window-capacity 0"), 64);
  EXPECT_EQ(run_cli("serve --window-capacity -4"), 64);
  EXPECT_EQ(run_cli("serve --window-cycles -1"), 64);
  EXPECT_EQ(run_cli("serve --drain-rate -1"), 64);
  EXPECT_EQ(run_cli("serve --max-cycles -1"), 64);
  EXPECT_EQ(run_cli("serve --backoff-cycles -1"), 64);
  EXPECT_EQ(run_cli("serve --backoff-cycles 99999999999"), 64);
  EXPECT_EQ(run_cli("serve --snapshot-every -1"), 64);
  EXPECT_EQ(run_cli("serve --breaker-threshold 0"), 64);
  EXPECT_EQ(run_cli("train --jobs -3"), 64);
  // record/train/topology values are validated before any simulation runs.
  EXPECT_EQ(run_cli("record --benchmark nosuch"), 64);
  EXPECT_EQ(run_cli("record --config garbage"), 64);
  EXPECT_EQ(run_cli("record --config T0-N4"), 64);
  EXPECT_EQ(run_cli("record --input 2"), 64);
  EXPECT_EQ(run_cli("record --input -1"), 64);
  EXPECT_EQ(run_cli("record --placement bogus"), 64);
  EXPECT_EQ(run_cli("train --machine opteron"), 64);
  EXPECT_EQ(run_cli("train --machine bogus"), 64);
  EXPECT_EQ(run_cli("topology --machine bogus"), 64);
  // Every numeric option is a bounded read: out-of-range values and
  // non-finite doubles are usage errors before any input is touched.
  EXPECT_EQ(run_cli("stats --width 0"), 64);
  EXPECT_EQ(run_cli("stats --width -5"), 64);
  EXPECT_EQ(run_cli("stats --width 2000000000"), 64);
  EXPECT_EQ(run_cli("stats --width 9999999999"), 64);
  EXPECT_EQ(run_cli("stats --top -1"), 64);
  EXPECT_EQ(run_cli("explain --jobs 99999999999"), 64);
  EXPECT_EQ(run_cli("fleet /nonexistent/fleet_root --jobs 99999999999"), 64);
  EXPECT_EQ(run_cli("convert --jobs -1"), 64);
  EXPECT_EQ(run_cli("analyze --windows -5"), 64);
  EXPECT_EQ(run_cli("analyze --load-mode lenient --max-bad-fraction nan"), 64);
  EXPECT_EQ(run_cli("analyze --max-bad-fraction -1"), 64);
  EXPECT_EQ(run_cli("analyze --max-bad-fraction 2"), 64);
  EXPECT_EQ(run_cli("serve --drift-threshold nan"), 64);
  // Positionals are declared: one more than declared is a usage error.
  EXPECT_EQ(run_cli("doctor a b"), 64);
  EXPECT_EQ(run_cli("flame a b"), 64);
  EXPECT_EQ(run_cli("fleet a b"), 64);
}

TEST(DrBwCliExitCodeTest, MissingInputsExit66) {
  // Missing input files are detected early and mapped to EX_NOINPUT.
  EXPECT_EQ(run_cli("analyze --trace /nonexistent/trace.csv"), 66);
  EXPECT_EQ(run_cli("stats --trace /nonexistent/obs.json"), 66);
  EXPECT_EQ(run_cli("inspect --model /nonexistent/model.json"), 66);
}

TEST(DrBwCliExitCodeTest, BadFaultSpecExits64) {
  EXPECT_EQ(run_cli("record --inject-faults not-a-spec"), 64);
  EXPECT_EQ(run_cli("record --inject-faults trace.read:corrupt:2.0"), 64);
  EXPECT_EQ(run_cli("analyze --load-mode sometimes"), 64);
}

std::string cli_read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// lulesh has one input, so `record` with no --input uses input 0 (input 1
/// is the default only where it exists) and the manifest says so; an
/// explicit --input 1 is still out of range.
TEST(DrBwCliExitCodeTest, OneInputBenchmarkRecordsWithoutInput) {
  const std::string dir =
      ::testing::TempDir() + "/drbw_cli_input_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  EXPECT_EQ(run_cli("record --benchmark lulesh --config T4-N2 --out " + dir +
                    "/lulesh.csv --run-dir " + dir + "/rec"),
            0);
  EXPECT_NE(cli_read_file(dir + "/rec/run.json").find("\"input\": \"0\""),
            std::string::npos);
  EXPECT_EQ(run_cli("record --benchmark lulesh --input 1 --config T4-N2 "
                    "--out " + dir + "/one.csv --run-dir " + dir + "/one"),
            64);
  std::filesystem::remove_all(dir);
}

/// A trace recorded on a bigger machine carries cpu ids the replaying
/// machine lacks: every trace-reading front end rejects it as a corrupt
/// artifact (68) at load time, from a CSV or a binary body and in either
/// load mode, and the manifest names the sample for `drbw doctor`.
TEST(DrBwCliExitCodeTest, OutOfRangeCpuExits68) {
  const std::string dir =
      ::testing::TempDir() + "/drbw_cli_cpu_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ASSERT_EQ(run_cli("record --config T4-N2 --out " + dir + "/good.csv" +
                    " --run-dir " + dir + "/rec"),
            0);
  pebs::Trace trace = pebs::load_trace(dir + "/good.csv");
  ASSERT_GT(trace.samples.size(), 2u);
  const std::size_t ordinal = trace.samples.size() / 2;
  std::vector<pebs::MemorySample> samples(trace.samples.begin(),
                                          trace.samples.end());
  samples[ordinal].cpu = 99;
  trace.samples = std::move(samples);
  // The same bad sample in both encodings; lenient mode must not
  // quarantine it.
  const std::string csv = dir + "/cpu99.csv";
  const std::string bin = dir + "/cpu99.bin";
  pebs::save_trace(csv, trace);
  pebs::save_trace(bin, trace, {pebs::TraceFormat::kBinary});
  for (const std::string& bad : {csv, bin}) {
    const std::string message =
        bad + ": sample " + std::to_string(ordinal) + " has cpu 99";
    for (const char* mode : {"", " --load-mode lenient"}) {
      for (const std::string& args :
           {"analyze --trace " + bad, "analyze --windows 4 --trace " + bad,
            "explain --out " + dir + "/x.json --trace " + bad,
            "serve --replay " + bad}) {
        const std::string run_dir = dir + "/run";
        std::filesystem::remove_all(run_dir);
        EXPECT_EQ(run_cli(args + mode + " --run-dir " + run_dir), 68)
            << args << mode;
        const std::string manifest = cli_read_file(run_dir + "/run.json");
        EXPECT_NE(manifest.find("corrupt-artifact"), std::string::npos)
            << args << mode;
        EXPECT_NE(manifest.find(message), std::string::npos)
            << args << mode << "\n" << manifest;
      }
    }
  }
  std::filesystem::remove_all(dir);
}

/// A CSV field outside the trace grammar (here the leading space a
/// damaged digit leaves, which std::stoull used to skip) fails a strict
/// load as a parse error (67) naming path:line, and the manifest says so.
TEST(DrBwCliExitCodeTest, NarrowedCsvFieldExits67) {
  const std::string dir =
      ::testing::TempDir() + "/drbw_cli_grammar_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string bad = dir + "/space.csv";
  util::write_versioned_artifact(bad, "trace", 2,
                                 "S,4096,0,1,LDR,500,0,10\n"
                                 "S, 4100,0,1,LDR,500,0,20\n");
  EXPECT_EQ(run_cli("analyze --trace " + bad + " --run-dir " + dir + "/run"),
            67);
  const std::string manifest = cli_read_file(dir + "/run/run.json");
  EXPECT_NE(manifest.find("parse-error"), std::string::npos);
  EXPECT_NE(manifest.find(bad + ":3: malformed number"), std::string::npos);
  std::filesystem::remove_all(dir);
}

/// Every artifact needs its checksummed header.  A `#drbw-trace v1` trace
/// without checksum fields, and the raw JSON body of a loadable model, are
/// parse errors (67) in every front end that reads them, while the same
/// model and trace with their headers analyze fine.
TEST(DrBwCliExitCodeTest, ArtifactsWithoutAChecksummedHeaderExit67) {
  const std::string dir =
      ::testing::TempDir() + "/drbw_cli_header_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::vector<std::string> names(
      features::selected_feature_names().begin(),
      features::selected_feature_names().end());
  ml::Dataset data(names);
  data.add(std::vector<double>(names.size(), 0.0), ml::Label::kGood);
  data.add(std::vector<double>(names.size(), 1.0), ml::Label::kRmc);
  const ml::Classifier model = ml::Classifier::train(data);
  const std::string headered = dir + "/model.json";
  const std::string raw = dir + "/raw_model.json";
  model.save(headered);
  util::atomic_write_file(raw, model.to_json().dump() + "\n");
  pebs::Trace trace;
  trace.events.push_back(mem::AllocationEvent{
      mem::AllocationEvent::Kind::kAlloc, {"h.c:1 buf"}, 0x10000, 4096});
  std::vector<pebs::MemorySample> samples;
  for (std::uint64_t i = 0; i < 16; ++i) {
    pebs::MemorySample s;
    s.address = 0x10000 + i * 64;
    s.cpu = static_cast<topology::CpuId>(i % 4);
    s.level = pebs::MemLevel::kRemoteDram;
    s.latency_cycles = 500.0f;
    s.cycle = 10 + i;
    samples.push_back(s);
  }
  trace.samples = std::move(samples);
  const std::string good_trace = dir + "/trace.csv";
  pebs::save_trace(good_trace, trace);
  const std::string run = " --run-dir " + dir + "/run";

  const int control = run_cli("analyze --trace " + good_trace + " --model " +
                              headered + run);
  EXPECT_TRUE(control == 0 || control == 2) << control;
  EXPECT_EQ(run_cli("analyze --trace " + good_trace + " --model " + raw + run),
            67);
  EXPECT_EQ(run_cli("explain --out " + dir + "/x.json --trace " + good_trace +
                    " --model " + raw + run),
            67);
  const std::string v1 = dir + "/v1.csv";
  util::atomic_write_file(v1, "#drbw-trace v1\nS,4096,0,1,LDR,500,0,10\n");
  EXPECT_EQ(run_cli("analyze --trace " + v1 + " --model " + headered + run),
            67);
  EXPECT_NE(cli_read_file(dir + "/run/run.json").find("parse-error"),
            std::string::npos);
  std::filesystem::remove_all(dir);
}

/// `stats --trace` reads trace_event JSON with typed checks: a document
/// without a traceEvents array is a parse error (67), and an epoch event
/// that is malformed (no ts, a non-numeric arg) is skipped, never a crash.
TEST(DrBwCliExitCodeTest, MalformedTraceEventJsonIsSkippedOrExits67) {
  const std::string dir = ::testing::TempDir() + "/drbw_cli_trace_json_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto stats_on = [&](const std::string& name, const std::string& json) {
    util::atomic_write_file(dir + "/" + name, json);
    return run_cli("stats --trace " + dir + "/" + name);
  };
  const std::string epoch =
      R"({"name": "epoch", "ph": "C", "ts": 10, "args": {"N1->N0": 0.5}})";
  EXPECT_EQ(stats_on("good.json", R"({"traceEvents": [)" + epoch + "]}"), 0);
  EXPECT_EQ(stats_on("no_ts.json",
                     R"({"traceEvents": [{"name": "epoch", "ph": "C", )"
                     R"("args": {"N1->N0": 0.5}}]})"),
            0);
  EXPECT_EQ(stats_on("string_arg.json",
                     R"({"traceEvents": [{"name": "epoch", "ph": "C", )"
                     R"("ts": 10, "args": {"N1->N0": "hot"}}, )" +
                         epoch + "]}"),
            0);
  EXPECT_EQ(stats_on("not_an_event.json",
                     R"({"traceEvents": [7, {"name": 1, "ph": "C"}, )" +
                         epoch + R"(], "otherData": []})"),
            0);
  EXPECT_EQ(stats_on("object_events.json", R"({"traceEvents": {}})"), 67);
  EXPECT_EQ(stats_on("root_array.json", "[" + epoch + "]"), 67);
  EXPECT_EQ(stats_on("no_events.json", R"({"otherData": {}})"), 67);
  std::filesystem::remove_all(dir);
}

/// A 13-feature model trained on two rows: enough for the CLI to load.
std::string save_tiny_model(const std::string& path) {
  const std::vector<std::string> names(
      features::selected_feature_names().begin(),
      features::selected_feature_names().end());
  ml::Dataset data(names);
  data.add(std::vector<double>(names.size(), 0.0), ml::Label::kGood);
  data.add(std::vector<double>(names.size(), 1.0), ml::Label::kRmc);
  ml::Classifier::train(data).save(path);
  return path;
}

/// Both windowed front ends cut the run into one grid: nine samples at
/// cycles 0..8 in eight windows give exactly eight windows tiling [0, 9),
/// none inverted, from `analyze --windows` and `explain --windows` alike.
TEST(DrBwCliWindowTest, AnalyzeAndExplainShareOneGrid) {
  const std::string dir =
      ::testing::TempDir() + "/drbw_cli_grid_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  pebs::Trace trace;
  std::vector<pebs::MemorySample> samples;
  for (std::uint64_t c = 0; c < 9; ++c) {
    pebs::MemorySample s;
    s.address = 0x10000 + c * 64;
    s.cpu = static_cast<topology::CpuId>(c % 4);
    s.level = pebs::MemLevel::kRemoteDram;
    s.latency_cycles = 500.0f;
    s.cycle = c;
    samples.push_back(s);
  }
  trace.samples = std::move(samples);
  const std::string trace_path = dir + "/nine.csv";
  pebs::save_trace(trace_path, trace);
  const std::string args = " --windows 8 --trace " + trace_path + " --model " +
                           save_tiny_model(dir + "/model.json") +
                           " --run-dir " + dir + "/run";
  const std::string stdout_path = dir + "/analyze.txt";
  const int rc = std::system((std::string(DRBW_CLI_PATH) + " analyze" + args +
                              " > " + stdout_path + " 2>/dev/null")
                                 .c_str());
  ASSERT_TRUE(WIFEXITED(rc));
  ASSERT_TRUE(WEXITSTATUS(rc) == 0 || WEXITSTATUS(rc) == 2) << rc;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> analyzed;
  {
    std::istringstream out(cli_read_file(stdout_path));
    for (std::string line; std::getline(out, line);) {
      std::uint64_t start = 0, end = 0;
      if (std::sscanf(line.c_str(), "[%" SCNu64 ", %" SCNu64 ")", &start,
                      &end) == 2) {
        analyzed.emplace_back(start, end);
      }
    }
  }
  ASSERT_EQ(run_cli("explain" + args + " --out " + dir + "/explain.json"), 0);
  const std::string artifact = cli_read_file(dir + "/explain.json");
  const Json doc = Json::parse(artifact.substr(artifact.find('\n') + 1));
  std::vector<std::pair<std::uint64_t, std::uint64_t>> explained;
  for (const Json& w : doc.at("golden").at("windows").as_array()) {
    explained.emplace_back(static_cast<std::uint64_t>(w.at("start").as_int()),
                           static_cast<std::uint64_t>(w.at("end").as_int()));
  }
  for (const auto* windows : {&analyzed, &explained}) {
    ASSERT_EQ(windows->size(), 8u);
    std::uint64_t at = 0;
    for (const auto& [start, end] : *windows) {
      EXPECT_EQ(start, at);
      EXPECT_LE(start, end);
      at = end;
    }
    EXPECT_EQ(at, 9u);
  }
  EXPECT_EQ(analyzed, explained);
  std::filesystem::remove_all(dir);
}

/// A checksum-valid model whose feature count is not 13 cannot classify a
/// channel: analyze and explain reject it at load as a corrupt artifact
/// (68), and serve degrades to pass-through telemetry with exit 0, as for
/// any other unusable model.  So is one whose tree node holds a member of
/// the wrong type or range (a split on feature 13 of 13 included), and the
/// error names that member.
TEST(DrBwCliExitCodeTest, WrongArityModelIsACorruptArtifact) {
  const std::string dir =
      ::testing::TempDir() + "/drbw_cli_arity_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string model =
      std::string(DRBW_SOURCE_ROOT) + "/tests/data/wrong_arity_model.json";
  ASSERT_EQ(run_cli("record --config T4-N2 --out " + dir + "/t.csv" +
                    " --run-dir " + dir + "/rec"),
            0);
  const std::string inputs =
      " --trace " + dir + "/t.csv --model " + model + " --run-dir " + dir;
  for (const std::string& sub :
       {std::string("analyze"), std::string("analyze --windows 4"),
        "explain --out " + dir + "/x.json"}) {
    EXPECT_EQ(run_cli(sub + inputs + "/run"), 68) << sub;
    const std::string manifest = cli_read_file(dir + "/run/run.json");
    EXPECT_NE(manifest.find("corrupt-artifact"), std::string::npos) << sub;
    EXPECT_NE(manifest.find("wrong_arity_model.json: model expects 14 "
                            "features; DR-BW extracts 13"),
              std::string::npos)
        << manifest;
  }
  EXPECT_EQ(run_cli("serve --replay " + dir + "/t.csv --model " + model +
                    " --run-dir " + dir + "/serve"),
            0);
  EXPECT_NE(cli_read_file(dir + "/serve/run.json").find("\"degraded\": true"),
            std::string::npos);

  const Json committed =
      ml::Classifier::load(std::string(DRBW_SOURCE_ROOT) + "/drbw_model.json")
          .to_json();
  const std::vector<std::pair<std::string, Json>> damaged_members = {
      {"count", Json(1.5)}, {"left", Json(std::int64_t{-2})},
      {"threshold", Json("x")}, {"feature", Json(std::int64_t{13})}};
  for (const auto& [member, value] : damaged_members) {
    Json doc = committed;
    Json tree = doc.at("tree");
    JsonArray nodes = tree.at("nodes").as_array();
    nodes[0].set(member, value);
    tree.set("nodes", Json(std::move(nodes)));
    doc.set("tree", std::move(tree));
    const std::string damaged = dir + "/" + member + "_model.json";
    util::write_versioned_artifact(damaged, "model", 3, doc.dump() + "\n");
    EXPECT_EQ(run_cli("analyze --trace " + dir + "/t.csv --model " + damaged +
                      " --run-dir " + dir + "/run"),
              68)
        << member;
    const std::string manifest = cli_read_file(dir + "/run/run.json");
    EXPECT_NE(manifest.find("corrupt-artifact"), std::string::npos) << member;
    EXPECT_NE(manifest.find("tree.nodes[0] member '" + member + "'"),
              std::string::npos)
        << manifest;
  }
  std::filesystem::remove_all(dir);
}

/// `drbw explain` end to end: a recorded trace + trained model yield a
/// deterministic `#drbw-explain v1` artifact and Markdown report — the
/// explain stage and "explain" span both land in the run manifest.
TEST(DrBwCliExplainTest, WritesDeterministicArtifactAndReport) {
  const std::string dir =
      ::testing::TempDir() + "/drbw_cli_explain_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  // Own run dirs: concurrent tests must not share the default `.` one.
  ASSERT_EQ(run_cli("record --benchmark streamcluster --config T8-N4 --seed 7"
                    " --out " + dir + "/trace.csv --run-dir " + dir + "/run_rec"),
            0);
  ASSERT_EQ(run_cli("train --out " + dir + "/model.json --run-dir " + dir +
                    "/run_train"),
            0);
  const std::string common = "explain --trace " + dir + "/trace.csv" +
                             " --model " + dir + "/model.json --windows 4";
  ASSERT_EQ(run_cli(common + " --out " + dir + "/a.json --report " + dir +
                    "/a.md --jobs 1 --run-dir " + dir + "/run_a"),
            0);
  ASSERT_EQ(run_cli(common + " --out " + dir + "/b.json --report " + dir +
                    "/b.md --jobs 4 --run-dir " + dir + "/run_b"),
            0);
  const std::string artifact = cli_read_file(dir + "/a.json");
  EXPECT_EQ(artifact.rfind("#drbw-explain v1", 0), 0u);
  EXPECT_NE(artifact.find("\"drbw_explain\": 1"), std::string::npos);
  EXPECT_NE(artifact.find("\"paths\""), std::string::npos);
  EXPECT_NE(artifact.find("\"attributions\""), std::string::npos);
  EXPECT_NE(artifact.find("\"confidence_p50\""), std::string::npos);
  // Byte-identical at any --jobs, report included.
  EXPECT_EQ(artifact, cli_read_file(dir + "/b.json"));
  const std::string report = cli_read_file(dir + "/a.md");
  EXPECT_EQ(report, cli_read_file(dir + "/b.md"));
  EXPECT_NE(report.find("## Decision paths"), std::string::npos);
  EXPECT_NE(report.find("## Feature attribution"), std::string::npos);
  // Provenance: the explain stage ran under the "explain" span.
  const std::string manifest = cli_read_file(dir + "/run_a/run.json");
  EXPECT_NE(manifest.find("\"subcommand\": \"explain\""), std::string::npos);
  EXPECT_NE(manifest.find("\"explain\""), std::string::npos);
  EXPECT_NE(manifest.find("drbw_model_confidence_bucket"), std::string::npos);
  std::filesystem::remove_all(dir);
}

/// Pins the front ends' output bytes: a seeded trace through `analyze
/// --windows`, `explain` at --jobs 1 and 4, and `serve` must reproduce these
/// CRC-32s, from the CSV trace and from its binary copy alike.  Every path
/// is relative to the run directory, so the artifacts do not depend on
/// where the test runs.  The windows and the serve window
/// capacity are small enough that the sparse-channel guards decide verdicts
/// (analyze keeps all but one window sparse-good), so the pin also holds
/// each front end to its guard thresholds.
TEST(DrBwCliPinTest, FrontEndOutputsMatchPinnedChecksums) {
  const std::string dir =
      ::testing::TempDir() + "/drbw_cli_pin_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto run_in_dir = [&](const std::string& args) {
    const std::string cmd = "cd '" + dir + "' && " + DRBW_CLI_PATH + " " +
                            args + " >>stdout.txt 2>/dev/null";
    const int rc = std::system(cmd.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  };
  const auto crc_of = [&](const std::string& name) {
    return util::crc32(cli_read_file(dir + "/" + name));
  };
  ASSERT_EQ(run_in_dir("record --benchmark streamcluster --config T32-N4 "
                       "--seed 7 --out trace.csv --run-dir r"),
            0);
  ASSERT_EQ(run_in_dir("train --out model.json --run-dir r"), 0);
  // The binary copy's samples are read straight from its mapping.  Every
  // front end must print the same bytes from it as from the CSV, apart from
  // the artifacts that name their input: explain.json, explain.md and
  // report.md name the trace file, and the report also lists the body bytes
  // the loader read.
  ASSERT_EQ(run_in_dir("convert --in trace.csv --format binary "
                       "--out trace.bin"),
            0);
  const auto body_bytes = [&](const std::string& name) {
    const std::string content = cli_read_file(dir + "/" + name);
    return std::to_string(content.size() - content.find('\n') - 1);
  };
  const auto replaced = [](std::string text, const std::string& from,
                           const std::string& to) {
    for (std::size_t at = text.find(from); at != std::string::npos;
         at = text.find(from, at + to.size())) {
      text.replace(at, from.size(), to);
    }
    return text;
  };
  const std::string bytes_row = "`drbw_trace_bytes_loaded_total` | counter | ";
  // The CSV leg's outputs without their checksummed header lines (a
  // header checksums the bytes below it, so these bytes decide it).
  std::map<std::string, std::string> csv_outputs;
  const auto body_of = [](const std::string& text) {
    return text.rfind("#drbw-", 0) == 0 ? text.substr(text.find('\n') + 1)
                                        : text;
  };
  // For the binary leg: the CSV leg's output `name`, naming trace.bin.
  const auto as_binary = [&](const std::string& name) {
    return replaced(replaced(csv_outputs.at(name), "trace.csv", "trace.bin"),
                    bytes_row + body_bytes("trace.csv"),
                    bytes_row + body_bytes("trace.bin"));
  };
  const std::string inputs = " --model model.json --jobs ";
  for (const std::string trace : {"trace.csv", "trace.bin"}) {
    SCOPED_TRACE(trace);
    const bool csv = trace == "trace.csv";
    // Pinned by CRC for the CSV leg, and kept for the binary leg to match.
    const auto expect_named_output = [&](const std::string& name,
                                         std::uint32_t crc) {
      const std::string got = cli_read_file(dir + "/" + name);
      if (csv) {
        EXPECT_EQ(util::crc32(got), crc) << name;
        csv_outputs[name] = body_of(got);
      } else {
        EXPECT_EQ(body_of(got), as_binary(name)) << name;
      }
    };
    std::filesystem::remove(dir + "/stdout.txt");
    ASSERT_EQ(run_in_dir("analyze --trace " + trace +
                         " --windows 64 --run-dir r" + inputs + "1"),
              2);
    std::string window_lines;
    {
      std::istringstream out(cli_read_file(dir + "/stdout.txt"));
      for (std::string line; std::getline(out, line);) {
        if (line.rfind('[', 0) == 0) window_lines += line + '\n';
      }
    }
    EXPECT_EQ(util::crc32(window_lines), 0xb38c3646u) << window_lines;
    for (const char* jobs : {"1", "4"}) {
      SCOPED_TRACE(std::string("--jobs ") + jobs);
      ASSERT_EQ(run_in_dir("explain --trace " + trace +
                           " --windows 64 --out explain.json "
                           "--report explain.md --run-dir r" +
                           inputs + jobs),
                0);
      expect_named_output("explain.json", 0x87964376u);
      expect_named_output("explain.md", 0x799d52c2u);
    }
    ASSERT_EQ(run_in_dir("serve --replay " + trace +
                         " --window-capacity 64 --run-dir r" + inputs + "1"),
              0);
    EXPECT_EQ(crc_of("r/serve_snapshot.json"), 0x4cca85cbu);
    // Whole-run contended analyze: stdout carries the verdict table, the
    // Contribution-Fraction ranking and the advice block.
    std::filesystem::remove(dir + "/stdout.txt");
    ASSERT_EQ(run_in_dir("analyze --trace " + trace +
                         " --report report.md --run-dir r" + inputs + "1"),
              2);
    std::string analyze_lines;
    {
      std::istringstream out(cli_read_file(dir + "/stdout.txt"));
      for (std::string line; std::getline(out, line);) {
        if (line.find("written to") == std::string::npos) {
          analyze_lines += line + '\n';
        }
      }
    }
    EXPECT_NE(analyze_lines.find("Optimization guidance"), std::string::npos)
        << analyze_lines;
    EXPECT_EQ(util::crc32(analyze_lines), 0xe75ecdeeu) << analyze_lines;
    expect_named_output("report.md", 0x589794fcu);
  }
  std::filesystem::remove_all(dir);
}

TEST(DrBwCliExplainTest, StatsHintsServeSnapshotsToTheServeFlag) {
  const std::string dir =
      ::testing::TempDir() + "/drbw_cli_stats_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  // A minimal headered snapshot is enough to trigger the hint: plain stats
  // must refuse it with usage (64) and point at --serve.
  util::write_versioned_artifact(
      dir + "/serve_snapshot.json", "serve-snapshot",
      serve::kServeSnapshotVersion,
      "{\n  \"drbw_serve_snapshot\": 2,\n  \"timeline\": []\n}\n");
  EXPECT_EQ(run_cli("stats --trace " + dir + "/serve_snapshot.json"), 64);
  EXPECT_EQ(run_cli("stats --serve --trace " + dir + "/serve_snapshot.json"),
            0);
  // Headerless snapshot bodies get the same hint via content sniffing, but
  // --serve reads only the checksummed artifact: without its header the
  // snapshot is a parse error.
  {
    std::ofstream out(dir + "/raw.json", std::ios::binary);
    out << "{\n  \"drbw_serve_snapshot\": 2,\n  \"timeline\": []\n}\n";
  }
  EXPECT_EQ(run_cli("stats --trace " + dir + "/raw.json"), 64);
  EXPECT_EQ(run_cli("stats --serve --trace " + dir + "/raw.json"), 67);
  EXPECT_EQ(run_cli("explain --windows 0 --trace " + dir + "/raw.json"), 64);
  std::filesystem::remove_all(dir);
}
#endif

}  // namespace
}  // namespace drbw
