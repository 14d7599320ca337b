// Tests for sample-trace persistence and offline re-analysis.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "drbw/core/profiler.hpp"
#include "drbw/pebs/trace_io.hpp"

namespace drbw::pebs {
namespace {

Trace make_trace() {
  Trace trace;
  trace.events.push_back(mem::AllocationEvent{
      mem::AllocationEvent::Kind::kAlloc, {"a.c:1 x, \"quoted\""}, 0x10000, 4096});
  trace.events.push_back(mem::AllocationEvent{
      mem::AllocationEvent::Kind::kAlloc, {"b.c:2 y"}, 0x20000, 8192});
  trace.events.push_back(
      mem::AllocationEvent{mem::AllocationEvent::Kind::kFree, {""}, 0x10000, 0});
  MemorySample s;
  s.address = 0x20010;
  s.cpu = 17;
  s.tid = 3;
  s.level = MemLevel::kRemoteDram;
  s.latency_cycles = 612.5f;
  s.is_write = true;
  s.cycle = 123456789;
  trace.samples.push_back(s);
  s.level = MemLevel::kLfb;
  s.latency_cycles = 58.0f;
  s.is_write = false;
  trace.samples.push_back(s);
  return trace;
}

/// A temp file private to the running test.  ctest runs every test, and
/// every instance of a parameterized one, as its own process in parallel,
/// so the path carries the full test name ('/' mapped to '_').
std::string temp_path(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string test = std::string(info->test_suite_name()) + "." + info->name();
  std::replace(test.begin(), test.end(), '/', '_');
  return ::testing::TempDir() + "/" + test + "_" + name;
}

/// Saves `trace` as a v2 CSV artifact and reads it back through the
/// stream reader.
Trace stream_round_trip(const Trace& trace) {
  const std::string path = temp_path("drbw_stream_trace.csv");
  save_trace(path, trace);
  std::ifstream in(path, std::ios::binary);
  Trace loaded = read_trace(in);
  std::remove(path.c_str());
  return loaded;
}

TEST(TraceIo, RoundTripPreservesEverything) {
  const Trace original = make_trace();
  const Trace loaded = stream_round_trip(original);

  ASSERT_EQ(loaded.events.size(), 3u);
  EXPECT_EQ(loaded.events[0].site.label, "a.c:1 x, \"quoted\"");
  EXPECT_EQ(loaded.events[0].base, 0x10000u);
  EXPECT_EQ(loaded.events[0].size_bytes, 4096u);
  EXPECT_EQ(loaded.events[2].kind, mem::AllocationEvent::Kind::kFree);

  ASSERT_EQ(loaded.samples.size(), 2u);
  EXPECT_EQ(loaded.samples[0].address, 0x20010u);
  EXPECT_EQ(loaded.samples[0].cpu, 17);
  EXPECT_EQ(loaded.samples[0].tid, 3u);
  EXPECT_EQ(loaded.samples[0].level, MemLevel::kRemoteDram);
  EXPECT_FLOAT_EQ(loaded.samples[0].latency_cycles, 612.5f);
  EXPECT_TRUE(loaded.samples[0].is_write);
  EXPECT_EQ(loaded.samples[0].cycle, 123456789u);
  EXPECT_EQ(loaded.samples[1].level, MemLevel::kLfb);
  EXPECT_FALSE(loaded.samples[1].is_write);
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/drbw_trace.csv";
  save_trace(path, make_trace());
  const Trace loaded = load_trace(path);
  EXPECT_EQ(loaded.samples.size(), 2u);
  std::remove(path.c_str());
  EXPECT_THROW(load_trace("/nonexistent/trace.csv"), Error);
}

TEST(TraceIo, LevelTokensRoundTrip) {
  for (const MemLevel level :
       {MemLevel::kL1, MemLevel::kL2, MemLevel::kL3, MemLevel::kLfb,
        MemLevel::kLocalDram, MemLevel::kRemoteDram}) {
    EXPECT_EQ(level_from_token(level_token(level)), level);
  }
  EXPECT_THROW(level_from_token("XYZ"), Error);
}

TEST(TraceIo, RejectsMalformed) {
  std::stringstream no_header("A,x,1,2\n");
  EXPECT_THROW(read_trace(no_header), Error);
  std::stringstream bad_kind("#drbw-trace v1\nZ,1\n");
  EXPECT_THROW(read_trace(bad_kind), Error);
  std::stringstream bad_arity("#drbw-trace v1\nA,x,1\n");
  EXPECT_THROW(read_trace(bad_arity), Error);
  std::stringstream bad_number("#drbw-trace v1\nF,12junk\n");
  EXPECT_THROW(read_trace(bad_number), Error);
}

TEST(TraceIo, EmptyTraceIsValid) {
  const Trace streamed = stream_round_trip(Trace{});
  EXPECT_TRUE(streamed.events.empty());
  EXPECT_TRUE(streamed.samples.empty());
  const std::string path = temp_path("drbw_empty_trace.csv");
  save_trace(path, Trace{});
  const Trace loaded = load_trace(path);
  EXPECT_TRUE(loaded.events.empty());
  EXPECT_TRUE(loaded.samples.empty());
  std::remove(path.c_str());
}

TEST(TraceIo, NewlineInSiteLabelRoundTrips) {
  Trace original = make_trace();
  original.events[1].site.label = "multi\nline, \"label\"\n";
  const std::string csv = temp_path("drbw_newline_trace.csv");
  const std::string bin = temp_path("drbw_newline_trace.bin");
  save_trace(csv, original);
  SaveOptions binary;
  binary.format = TraceFormat::kBinary;
  save_trace(bin, original, binary);
  for (const std::string& path : {csv, bin}) {
    util::LoadStats stats;
    const Trace loaded = load_trace(path, util::LoadPolicy{}, &stats);
    ASSERT_EQ(loaded.events.size(), 3u) << path;
    EXPECT_EQ(loaded.events[1].site.label, original.events[1].site.label);
    EXPECT_EQ(loaded.events[1].base, 0x20000u);
    EXPECT_EQ(loaded.samples.size(), 2u) << path;
    EXPECT_EQ(stats.records_seen, 5u) << path;
  }
  EXPECT_EQ(stream_round_trip(original).events[1].site.label,
            original.events[1].site.label);
  std::remove(csv.c_str());
  std::remove(bin.c_str());
}

TEST(TraceIo, MultiLineRecordIsKeyedByItsFirstLine) {
  // Line 2 opens a label that closes on line 4; line 5 is the bad record.
  std::stringstream in(
      "#drbw-trace v1\n"
      "A,\"a\n\nb\",4096,64\n"
      "S,1,0,0,L1,5,0,1x\n");
  std::string message;
  try {
    read_trace(in);
  } catch (const Error& e) {
    message = e.what();
  }
  EXPECT_NE(message.find("<stream>:5:"), std::string::npos) << message;
  // An unterminated label stays one record, so the lines after it parse,
  // a later quoted label included.
  std::stringstream open_quote(
      "#drbw-trace v1\n"
      "A,\"never closed,4096,64\n"
      "S,1,0,0,L1,5,0,1\n"
      "A,\"x,y\",8192,64\n");
  util::LoadStats stats;
  const Trace loaded = read_trace(
      open_quote, util::LoadPolicy{util::LoadMode::kLenient, 0.5}, &stats);
  EXPECT_EQ(stats.records_seen, 3u);
  EXPECT_EQ(stats.records_quarantined, 1u);
  EXPECT_EQ(loaded.samples.size(), 1u);
  ASSERT_EQ(loaded.events.size(), 1u);
  EXPECT_EQ(loaded.events[0].site.label, "x,y");
}

/// Sample records outside the field grammar, most of which std::stoull /
/// std::stof would accept or misread: each must be quarantined when
/// lenient and rejected as kParse naming path:line (exit 67) when strict.
class NarrowedFieldTest : public ::testing::TestWithParam<const char*> {};

TEST_P(NarrowedFieldTest, QuarantinedWhenLenientParseErrorWhenStrict) {
  const std::string path = temp_path("drbw_narrowed_trace.csv");
  util::atomic_write_file(path, std::string("#drbw-trace v1\n"
                                            "S,4096,0,1,LDR,500,0,10\n") +
                                    GetParam() +
                                    "\nS,4160,1,1,RDR,700,1,30\n");
  util::LoadStats stats;
  const Trace loaded = load_trace(
      path, util::LoadPolicy{util::LoadMode::kLenient, 0.5}, &stats);
  EXPECT_EQ(stats.records_seen, 3u);
  EXPECT_EQ(stats.records_ok, 2u);
  EXPECT_EQ(stats.records_quarantined, 1u);
  EXPECT_EQ(loaded.samples.size(), 2u);

  std::string message;
  ErrorCode code = ErrorCode::kGeneric;
  try {
    load_trace(path);
  } catch (const Error& e) {
    message = e.what();
    code = e.code();
  }
  EXPECT_EQ(code, ErrorCode::kParse) << message;
  EXPECT_NE(message.find(path + ":3: "), std::string::npos) << message;
  EXPECT_EQ(exit_code_for(code), 67);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Grammar, NarrowedFieldTest,
    ::testing::Values(
        "S, 4100,0,1,LDR,500,0,20",           // leading space (stoull skips)
        "S,4100,0,1,LDR, 500,0,20",           // leading space (stof skips)
        "S,+4100,0,1,LDR,500,0,20",           // plus sign
        "S,4100,-1,1,LDR,500,0,20",           // minus sign (stoull wraps)
        "S,4100,0,1,LDR,500,0,+20",           // plus sign, last field
        "S,4100,0,1,LDR,nan,0,20",            // not a number
        "S,4100,0,1,LDR,inf,0,20",            // infinite
        "S,4100,0,1,LDR,-5,0,20",             // negative latency
        "S,4100,0,1,LDR,0x1p3,0,20",          // hex float (stof accepts)
        "S,4100,0,1,LDR,500,2,20",            // write flag 2
        "S,4100,0,1,LDR,500,,20",             // empty write flag
        "S,18446744073709551616,0,1,LDR,500,0,20",  // over u64
        "S,4100,4294967296,1,LDR,500,0,20",   // over the u32 cpu field
        "S,4100,0,4294967296,LDR,500,0,20",   // over the u32 tid field
        "S,4100,0,1,LDR,500,0,2\"0",          // quote in a number
        "S,4100,0,1,LDR,500,0,20\r"));        // CR line ending

TEST(TraceIo, QuotesOnlyAroundSiteLabels) {
  const util::LoadPolicy lenient{util::LoadMode::kLenient, 0.9};
  util::LoadStats stats;
  std::stringstream in(
      "#drbw-trace v1\n"
      "A,\"a,b\",4096,64\n"         // quoted label: fine
      "A,plain label,8192,64\n"       // unquoted label: fine
      "A,half\"quoted,8192,64\n"     // a quote inside an unquoted label
      "A,\"closed\"junk,8192,64\n"  // text after the closing quote
      "F,\"4096\"\n");              // a quoted number
  const Trace loaded = read_trace(in, lenient, &stats);
  ASSERT_EQ(loaded.events.size(), 2u);
  EXPECT_EQ(loaded.events[0].site.label, "a,b");
  EXPECT_EQ(loaded.events[1].site.label, "plain label");
  EXPECT_EQ(stats.records_quarantined, 3u);
}

TEST(TraceIo, ErrorsNameTheFailedField) {
  const auto message_of = [](const std::string& record) {
    std::stringstream in("#drbw-trace v1\n" + record + "\n");
    try {
      read_trace(in);
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kParse) << record;
      return std::string(e.what());
    }
    ADD_FAILURE() << "accepted: " << record;
    return std::string();
  };
  EXPECT_NE(message_of("S,1,2,3").find("record has 4 fields, expected 8"),
            std::string::npos);
  EXPECT_NE(message_of("S,1,0,0,L1,5,0,1,9").find("9 fields, expected 8"),
            std::string::npos);
  EXPECT_NE(message_of("S,1,x,0,L1,5,0,1").find("malformed number 'x'"),
            std::string::npos);
  EXPECT_NE(message_of("S,1,0,0,L9,5,0,1").find("memory-level token 'L9'"),
            std::string::npos);
  EXPECT_NE(message_of("S,1,0,0,L1,-5,0,1").find("malformed latency '-5'"),
            std::string::npos);
  EXPECT_NE(message_of("S,1,0,0,L1,5,7,1").find("malformed write flag '7'"),
            std::string::npos);
  EXPECT_NE(message_of("Q,1").find("unknown record kind 'Q'"),
            std::string::npos);
  EXPECT_NE(message_of("SS,1").find("unknown record kind 'SS'"),
            std::string::npos);
  EXPECT_NE(message_of("A,\"x,y\",1").find("3 fields, expected 4"),
            std::string::npos);
}

TEST(TraceIo, RecordedRunReplaysThroughProfiler) {
  // Record a simulated run to a trace, reload it, and verify the profiler
  // produces the identical attribution — the offline-analysis workflow.
  const auto machine = topology::Machine::xeon_e5_4650();
  mem::AddressSpace space(machine);
  const auto obj = space.allocate("replay.c:5 data", 64 << 20,
                                  mem::PlacementSpec::bind(1));
  std::vector<sim::SimThread> threads{{0, 0}};
  sim::Phase phase{"main", {sim::ThreadWork{{sim::seq_read(obj, 500'000)}, 1.0}}};
  sim::Engine engine(machine, space, {});
  const auto run = engine.run(threads, {phase});

  const std::string path = temp_path("drbw_replay_trace.csv");
  save_trace(path, Trace{run.alloc_events, run.samples});
  const Trace loaded = load_trace(path);
  std::remove(path.c_str());

  core::AddressSpaceLocator locator(space);
  core::Profiler profiler(machine, locator);
  const auto live = profiler.profile(run.alloc_events, run.samples);
  const auto replayed = profiler.profile(loaded.events, loaded.samples);
  EXPECT_EQ(replayed.total_samples, live.total_samples);
  EXPECT_EQ(replayed.attributed_samples, live.attributed_samples);
  for (std::size_t c = 0; c < live.channels.size(); ++c) {
    EXPECT_EQ(replayed.channels[c].samples.size(),
              live.channels[c].samples.size());
  }
}

}  // namespace
}  // namespace drbw::pebs
