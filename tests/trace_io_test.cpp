// Tests for sample-trace persistence and offline re-analysis: the CSV (v2)
// and binary (v4, and v3 on load) bodies, their round trips, field grammar,
// version skew, truncated-body handling, v4's load without a copy, and the
// CSV decoder's outcomes pinned over line shapes, cuts and byte mutations.
#include <gtest/gtest.h>
#include <sys/mman.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <span>
#include <sstream>
#include <type_traits>
#include <utility>
#include <vector>

#include "drbw/core/profiler.hpp"
#include "drbw/pebs/trace_io.hpp"
#include "drbw/util/rng.hpp"

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
  s.home = 3;
  MemorySample t = s;
  t.level = MemLevel::kLfb;
  t.latency_cycles = 58.0f;
  t.is_write = false;
  t.home = 0;
  trace.samples = std::vector<MemorySample>{s, t};
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

/// Saves `trace` as a v2 CSV artifact and loads it back.
Trace round_trip(const Trace& trace) {
  const std::string path = temp_path("drbw_round_trip_trace.csv");
  save_trace(path, trace);
  Trace loaded = load_trace(path);
  std::remove(path.c_str());
  return loaded;
}

/// Writes hand-made CSV records as a checksummed v2 trace at a path private
/// to the running test, so they reach the record parser through load_trace.
std::string write_csv_trace(const std::string& name, const std::string& body) {
  const std::string path = temp_path(name);
  util::write_versioned_artifact(path, "trace", 2, body);
  return path;
}

/// Deterministic synthetic trace exercising every field: quoted labels,
/// frees, all six memory levels, write bits, wide addresses.
Trace make_trace(std::size_t events, std::size_t count) {
  Trace trace;
  for (std::size_t i = 0; i < events; ++i) {
    if (i % 5 == 4) {
      trace.events.push_back(mem::AllocationEvent{
          mem::AllocationEvent::Kind::kFree, {""}, 0x10000 + (i - 4) * 0x1000,
          0});
      continue;
    }
    trace.events.push_back(mem::AllocationEvent{
        mem::AllocationEvent::Kind::kAlloc,
        {"site.c:" + std::to_string(i % 7) + " buf, \"q\""},
        0x10000 + i * 0x1000, 4096 + i});
  }
  std::vector<MemorySample> samples;
  for (std::size_t i = 0; i < count; ++i) {
    MemorySample s;
    s.address = 0x10000 + (i * 64) % (events * 0x1000 + 0x1000);
    s.cpu = static_cast<topology::CpuId>(i % 32);
    s.tid = static_cast<std::uint32_t>(i % 8);
    s.level = static_cast<MemLevel>(i % 6);
    s.latency_cycles = 10.0f + static_cast<float>(i % 900) * 1.5f;
    s.is_write = i % 3 == 0;
    s.cycle = 1000 + i * 17;
    s.home = static_cast<std::uint8_t>(i % 4);
    samples.push_back(s);
  }
  trace.samples = std::move(samples);
  return trace;
}

bool traces_equal(const Trace& a, const Trace& b) {
  if (a.events.size() != b.events.size()) return false;
  if (a.samples.size() != b.samples.size()) return false;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    const auto& x = a.events[i];
    const auto& y = b.events[i];
    if (x.kind != y.kind || x.site.label != y.site.label || x.base != y.base ||
        x.size_bytes != y.size_bytes) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    const auto& x = a.samples[i];
    const auto& y = b.samples[i];
    if (x.address != y.address || x.cpu != y.cpu || x.tid != y.tid ||
        x.level != y.level || x.latency_cycles != y.latency_cycles ||
        x.is_write != y.is_write || x.cycle != y.cycle || x.home != y.home) {
      return false;
    }
  }
  return true;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Runs `fn`, asserting it throws Error with `code`; returns the message.
std::string expect_error(const std::function<void()>& fn, ErrorCode code) {
  try {
    fn();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), code) << e.what();
    return e.what();
  }
  ADD_FAILURE() << "expected Error(" << error_code_name(code) << ")";
  return "";
}

TEST(TraceIo, RoundTripPreservesEverything) {
  const Trace original = make_trace();
  const Trace loaded = round_trip(original);

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
  EXPECT_EQ(loaded.samples[0].home, 3u);
  EXPECT_EQ(loaded.samples[1].level, MemLevel::kLfb);
  EXPECT_EQ(loaded.samples[1].home, 0u);
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
  const std::string no_header = temp_path("no_header.csv");
  util::atomic_write_file(no_header, "A,x,1,2\n");
  EXPECT_THROW(load_trace(no_header), Error);
  EXPECT_THROW(load_trace(write_csv_trace("bad_kind.csv", "Z,1\n")), Error);
  EXPECT_THROW(load_trace(write_csv_trace("bad_arity.csv", "A,x,1\n")), Error);
  EXPECT_THROW(load_trace(write_csv_trace("bad_number.csv", "F,12junk\n")),
               Error);
}

TEST(TraceIo, EmptyTraceIsValid) {
  const Trace loaded = round_trip(Trace{});
  EXPECT_TRUE(loaded.events.empty());
  EXPECT_TRUE(loaded.samples.empty());
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
  EXPECT_EQ(round_trip(original).events[1].site.label,
            original.events[1].site.label);
  std::remove(csv.c_str());
  std::remove(bin.c_str());
}

TEST(TraceIo, MultiLineRecordIsKeyedByItsFirstLine) {
  // Line 2 opens a label that closes on line 4; line 5 is the bad record.
  const std::string path = write_csv_trace(
      "multi_line.csv",
      "A,\"a\n\nb\",4096,64\n"
      "S,1,0,0,L1,5,0,1x\n");
  std::string message;
  try {
    load_trace(path);
  } catch (const Error& e) {
    message = e.what();
  }
  EXPECT_NE(message.find(path + ":5:"), std::string::npos) << message;
  // An unterminated label stays one record, so the lines after it parse,
  // a later quoted label included.
  const std::string open_quote = write_csv_trace(
      "open_quote.csv",
      "A,\"never closed,4096,64\n"
      "S,1,0,0,L1,5,0,1\n"
      "A,\"x,y\",8192,64\n");
  util::LoadStats stats;
  const Trace loaded = load_trace(
      open_quote, util::LoadPolicy{util::LoadMode::kLenient, 0.5}, &stats);
  EXPECT_EQ(stats.records_seen, 3u);
  EXPECT_EQ(stats.records_quarantined, 1u);
  EXPECT_EQ(loaded.samples.size(), 1u);
  ASSERT_EQ(loaded.events.size(), 1u);
  EXPECT_EQ(loaded.events[0].site.label, "x,y");
}

TEST(TraceIo, SampleLinesAmongOtherLinesKeepTheirLineNumbers) {
  // Sample lines read by the field readers among blank lines, a two-line
  // label, a bad sample and a last line with no '\n': each keeps the line
  // number of its first physical line.
  const std::string body =
      "S,1,0,0,L1,5,0,1\n"         // line 2
      "\n"                         // 3
      "  \n"                       // 4
      "A,\"a\nb\",4096,64\n"       // 5-6
      "S,2,1,0,LFB,5.5,1,2\n"      // 7
      "S,3,0,0,L2,5,0,3x\n"        // 8: bad cycle
      "S,4,2,0,L3,1e-05,0,4";      // 9
  const std::string path = write_csv_trace("sample_lines.csv", body);
  util::LoadStats stats;
  const Trace loaded = load_trace(
      path, util::LoadPolicy{util::LoadMode::kLenient, 0.5}, &stats);
  EXPECT_EQ(stats.records_seen, 5u);
  EXPECT_EQ(stats.records_ok, 4u);
  EXPECT_EQ(stats.records_quarantined, 1u);
  ASSERT_EQ(loaded.samples.size(), 3u);
  EXPECT_EQ(loaded.samples[1].level, MemLevel::kLfb);
  EXPECT_EQ(loaded.samples[1].latency_cycles, 5.5f);
  EXPECT_TRUE(loaded.samples[1].is_write);
  EXPECT_EQ(loaded.samples[2].cpu, 2);
  EXPECT_EQ(loaded.samples[2].latency_cycles, 1e-05f);
  EXPECT_EQ(loaded.samples[2].cycle, 4u);
  ASSERT_EQ(loaded.events.size(), 1u);
  EXPECT_EQ(loaded.events[0].site.label, "a\nb");
  EXPECT_EQ(expect_error([&] { load_trace(path); }, ErrorCode::kParse),
            path + ":8: malformed number '3x'");
  const std::string last = write_csv_trace(
      "sample_lines_last.csv", "S,1,0,0,L1,5,0,1\nS,4,2,0,L3,7,0,4\r");
  EXPECT_EQ(expect_error([&] { load_trace(last); }, ErrorCode::kParse),
            last + ":3: malformed number '4\r'");
  std::remove(path.c_str());
  std::remove(last.c_str());
}

/// Sample records outside the field grammar, most of which std::stoull /
/// std::stof would accept or misread: each must be quarantined when
/// lenient and rejected as kParse naming path:line (exit 67) when strict.
class NarrowedFieldTest : public ::testing::TestWithParam<const char*> {};

TEST_P(NarrowedFieldTest, QuarantinedWhenLenientParseErrorWhenStrict) {
  const std::string path =
      write_csv_trace("drbw_narrowed_trace.csv",
                      std::string("S,4096,0,1,LDR,500,0,10\n") + GetParam() +
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
  const std::string path = write_csv_trace(
      "quotes.csv",
      "A,\"a,b\",4096,64\n"         // quoted label: fine
      "A,plain label,8192,64\n"       // unquoted label: fine
      "A,half\"quoted,8192,64\n"     // a quote inside an unquoted label
      "A,\"closed\"junk,8192,64\n"  // text after the closing quote
      "F,\"4096\"\n");              // a quoted number
  const Trace loaded = load_trace(path, lenient, &stats);
  ASSERT_EQ(loaded.events.size(), 2u);
  EXPECT_EQ(loaded.events[0].site.label, "a,b");
  EXPECT_EQ(loaded.events[1].site.label, "plain label");
  EXPECT_EQ(stats.records_quarantined, 3u);
}

TEST(TraceIo, ErrorsNameTheFailedField) {
  const auto message_of = [](const std::string& record) {
    try {
      load_trace(write_csv_trace("field.csv", record + "\n"));
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

  core::Profiler profiler(machine);
  const auto live = profiler.profile(run.alloc_events, run.samples);
  const auto replayed = profiler.profile(loaded.events, loaded.samples);
  // cpu 0 reads node-1 data: the samples are filed under N0->N1.
  EXPECT_GT(live.channels[static_cast<std::size_t>(
                              machine.channel_index({0, 1}))]
                .samples.size(),
            0u);
  EXPECT_EQ(replayed.total_samples, live.total_samples);
  EXPECT_EQ(replayed.attributed_samples, live.attributed_samples);
  for (std::size_t c = 0; c < live.channels.size(); ++c) {
    EXPECT_EQ(replayed.channels[c].samples.size(),
              live.channels[c].samples.size());
  }
}

TEST(TraceBinary, RoundTripPreservesEverything) {
  const std::string path = temp_path("t.bin");
  const Trace original = make_trace(23, 400);
  SaveOptions save;
  save.format = TraceFormat::kBinary;
  save_trace(path, original, save);

  // The artifact carries the v4 checksummed header over a binary body.
  const std::string content = slurp(path);
  EXPECT_EQ(content.rfind("#drbw-trace v5 crc32=", 0), 0u);

  util::LoadStats stats;
  const Trace loaded = load_trace(path, util::LoadPolicy{}, &stats);
  EXPECT_TRUE(traces_equal(original, loaded));
  EXPECT_EQ(stats.records_seen, 423u);
  EXPECT_EQ(stats.records_ok, 423u);
  EXPECT_TRUE(stats.checksum_ok);
}

TEST(TraceBinary, EmptyTraceRoundTrips) {
  const std::string path = temp_path("t.bin");
  SaveOptions save;
  save.format = TraceFormat::kBinary;
  save_trace(path, Trace{}, save);
  const Trace loaded = load_trace(path);
  EXPECT_TRUE(loaded.events.empty());
  EXPECT_TRUE(loaded.samples.empty());
}

TEST(TraceBinary, FormatNamesRoundTrip) {
  EXPECT_EQ(trace_format_from_name("csv"), TraceFormat::kCsv);
  EXPECT_EQ(trace_format_from_name("binary"), TraceFormat::kBinary);
  EXPECT_STREQ(trace_format_name(TraceFormat::kCsv), "csv");
  EXPECT_STREQ(trace_format_name(TraceFormat::kBinary), "binary");
  expect_error([] { trace_format_from_name("tsv"); }, ErrorCode::kUsage);
}

TEST(TraceBinary, CsvDefaultWritesV5WithAHomeColumn) {
  const std::string path = temp_path("t.csv");
  const Trace trace = make_trace(5, 40);
  save_trace(path, trace);
  const std::string content = slurp(path);
  EXPECT_EQ(content.rfind("#drbw-trace v5 crc32=", 0), 0u);
  // Sample 3 (cpu 3, tid 3, LFB, latency 14.5, a write) is homed on node 3.
  EXPECT_NE(content.find("\nS,65728,3,3,LFB,14.5,1,1051,3\n"),
            std::string::npos);
  EXPECT_TRUE(traces_equal(trace, load_trace(path)));
}

TEST(TraceBinary, VersionSkewNamesOffendingToken) {
  const std::string path = temp_path("t.bin");
  SaveOptions save;
  save.format = TraceFormat::kBinary;
  save_trace(path, make_trace(3, 30), save);
  LoadOptions load;
  load.max_version = 2;  // a strict v2-only consumer
  const std::string message = expect_error(
      [&] { load_trace(path, load); }, ErrorCode::kVersionSkew);
  EXPECT_NE(message.find("offending header token 'v5'"), std::string::npos)
      << message;
}

TEST(TraceBinary, TruncatedBodyStrictRejectsLenientQuarantines) {
  const std::string whole = temp_path("whole.bin");
  const std::string cut = temp_path("cut.bin");
  const std::string short_path = temp_path("short.bin");
  SaveOptions save;
  save.format = TraceFormat::kBinary;
  save_trace(whole, make_trace(4, 100), save);

  // Variant 1: the file is cut after the fact — the header's crc32 no
  // longer matches, so strict rejects before a single record is decoded.
  const std::string content = slurp(whole);
  util::atomic_write_file(cut, content.substr(0, content.size() - 900));
  const std::string msg1 = expect_error(
      [&] { load_trace(cut); }, ErrorCode::kCorruptArtifact);
  EXPECT_NE(msg1.find("truncated or corrupt"), std::string::npos) << msg1;

  // Variant 2: a checksummed-but-short body (the writer itself was cut, so
  // header and body agree) — the structural length check catches it.
  const std::size_t eol = content.find('\n');
  const std::string body = content.substr(eol + 1);
  const std::string short_body = body.substr(0, body.size() - 960);
  util::write_versioned_artifact(short_path, "trace", kTraceVersion,
                                 short_body);
  expect_error([&] { load_trace(short_path); }, ErrorCode::kCorruptArtifact);

  // Lenient: the missing tail records are quarantined against the declared
  // counts — and the accounting is stable across repeated loads.
  util::LoadPolicy lenient;
  lenient.mode = util::LoadMode::kLenient;
  lenient.max_bad_fraction = 0.9;
  util::LoadStats first;
  util::LoadStats second;
  const Trace a = load_trace(short_path, lenient, &first);
  const Trace b = load_trace(short_path, lenient, &second);
  EXPECT_TRUE(traces_equal(a, b));
  EXPECT_EQ(first.records_seen, 104u);
  EXPECT_EQ(first.records_seen, second.records_seen);
  EXPECT_EQ(first.records_quarantined, second.records_quarantined);
  EXPECT_EQ(first.records_quarantined, 30u);  // 960 bytes = 30 samples
  EXPECT_EQ(first.records_ok, 74u);
  EXPECT_TRUE(first.checksum_ok);  // header matches the short body
  // The 70 samples left are decoded, in order, into an owned array.
  const Trace original = make_trace(4, 100);
  ASSERT_EQ(a.samples.size(), 70u);
  EXPECT_EQ(std::memcmp(a.samples.data(), original.samples.data(),
                        70 * sizeof(MemorySample)),
            0);

  // A cut inside a record: the partial record is missing too.
  util::write_versioned_artifact(short_path, "trace", kTraceVersion,
                                 body.substr(0, body.size() - 40));
  expect_error([&] { load_trace(short_path); }, ErrorCode::kCorruptArtifact);
  util::LoadStats cut_stats;
  EXPECT_EQ(load_trace(short_path, lenient, &cut_stats).samples.size(), 98u);
  EXPECT_EQ(cut_stats.records_quarantined, 2u);
}

TEST(TraceBinary, BytesPastTheDeclaredRecordsStrictRejectsLenientKeeps) {
  const std::string whole = temp_path("whole.bin");
  const std::string longer = temp_path("longer.bin");
  const Trace original = make_trace(4, 100);
  SaveOptions save;
  save.format = TraceFormat::kBinary;
  save_trace(whole, original, save);
  // A checksummed body with 7 bytes no declared record covers: the crc
  // passes, so only the structural length check can object.
  const std::string content = slurp(whole);
  const std::string body = content.substr(content.find('\n') + 1);
  util::write_versioned_artifact(longer, "trace", kTraceVersion,
                                 body + "garbage");
  const std::string message =
      expect_error([&] { load_trace(longer); }, ErrorCode::kCorruptArtifact);
  EXPECT_NE(message.find("expected " + std::to_string(body.size())),
            std::string::npos)
      << message;

  // Lenient reads every declared record and ignores the surplus.
  util::LoadPolicy lenient;
  lenient.mode = util::LoadMode::kLenient;
  util::LoadStats stats;
  EXPECT_TRUE(traces_equal(original, load_trace(longer, lenient, &stats)));
  EXPECT_EQ(stats.records_seen, 104u);
  EXPECT_EQ(stats.records_ok, 104u);
  EXPECT_TRUE(stats.checksum_ok);
}

TEST(TraceBinary, BitFlippedBodyStrictRejectsLenientStable) {
  const std::string path = temp_path("bitflip.bin");
  SaveOptions save;
  save.format = TraceFormat::kBinary;
  save_trace(path, make_trace(8, 200), save);
  std::string content = slurp(path);
  content[content.size() / 2] =
      static_cast<char>(content[content.size() / 2] ^ 0x04);
  util::atomic_write_file(path, content);

  expect_error([&] { load_trace(path); }, ErrorCode::kCorruptArtifact);

  // Lenient tolerates the bad checksum and salvages per record; the damage
  // hits at most one record, and two loads agree exactly.
  util::LoadPolicy lenient;
  lenient.mode = util::LoadMode::kLenient;
  util::LoadStats first;
  util::LoadStats second;
  const Trace a = load_trace(path, lenient, &first);
  const Trace b = load_trace(path, lenient, &second);
  EXPECT_TRUE(traces_equal(a, b));
  EXPECT_EQ(first.records_seen, 208u);
  EXPECT_EQ(first.records_seen, second.records_seen);
  EXPECT_EQ(first.records_quarantined, second.records_quarantined);
  EXPECT_LE(first.records_quarantined, 1u);
  EXPECT_FALSE(first.checksum_ok);
}

TEST(TraceBinary, MissingFileIsNotFoundInBothModes) {
  const std::string path = temp_path("absent.bin");
  std::remove(path.c_str());
  const std::string message =
      expect_error([&] { load_trace(path); }, ErrorCode::kNotFound);
  EXPECT_NE(message.find(path), std::string::npos) << message;
  // Lenient salvages records, never a missing file.
  util::LoadPolicy lenient;
  lenient.mode = util::LoadMode::kLenient;
  expect_error([&] { load_trace(path, lenient); }, ErrorCode::kNotFound);
}

TEST(TraceBinary, SavesAreByteIdenticalAndReloadsResaveExactly) {
  const Trace original = make_trace(17, 503);
  for (const TraceFormat format : {TraceFormat::kCsv, TraceFormat::kBinary}) {
    SCOPED_TRACE(trace_format_name(format));
    const std::string first = temp_path("det_first");
    const std::string second = temp_path("det_second");
    const std::string resaved = temp_path("det_resaved");
    SaveOptions save;
    save.format = format;
    save_trace(first, original, save);
    save_trace(second, original, save);
    EXPECT_EQ(slurp(first), slurp(second));
    // A loaded trace is a fixed point of the writer.
    save_trace(resaved, load_trace(first), save);
    EXPECT_EQ(slurp(first), slurp(resaved));
  }
}

TEST(TraceBinary, ArtifactOfAnotherKindIsAParseErrorInBothModes) {
  // Checksums pass, but the bytes are not a trace: neither mode may read
  // them as one.
  util::LoadPolicy lenient;
  lenient.mode = util::LoadMode::kLenient;
  for (const char* kind : {"trace-index", "model"}) {
    SCOPED_TRACE(kind);
    const std::string path = temp_path("other_kind");
    util::write_versioned_artifact(path, kind, 1, "format,binary\n");
    const std::string expected = std::string("artifact kind is '") + kind +
                                 "', expected 'trace'";
    const std::string strict =
        expect_error([&] { load_trace(path); }, ErrorCode::kParse);
    EXPECT_NE(strict.find(expected), std::string::npos) << strict;
    const std::string salvaged =
        expect_error([&] { load_trace(path, lenient); }, ErrorCode::kParse);
    EXPECT_NE(salvaged.find(expected), std::string::npos) << salvaged;
  }
}

// ----------------------------------------- v4: loads without a copy ----

static_assert(std::is_convertible_v<SampleArray, std::span<const MemorySample>>,
              "the analysis stages take a trace's samples as a span");

/// The file whose mapping holds `p` in this process, from /proc/self/maps;
/// empty when no file mapping does.
std::string mapped_file_of(const void* p) {
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  std::ifstream maps("/proc/self/maps");
  for (std::string line; std::getline(maps, line);) {
    std::istringstream in(line);
    std::string range, perms, offset, device, inode, file;
    in >> range >> perms >> offset >> device >> inode >> file;
    const std::size_t dash = range.find('-');
    const auto lo = std::stoull(range.substr(0, dash), nullptr, 16);
    const auto hi = std::stoull(range.substr(dash + 1), nullptr, 16);
    if (addr >= lo && addr < hi) return file;
  }
  return "";
}

/// Whether `samples` view the mapping of the file at `path` (no copy).
bool views_file(const SampleArray& samples, const std::string& path) {
  return !samples.empty() && mapped_file_of(samples.data()) ==
                                 std::filesystem::canonical(path).string();
}

/// Saves `trace` as a binary trace at `path`; returns its body (the bytes
/// after the header line).
std::string save_binary(const std::string& path, const Trace& trace) {
  SaveOptions save;
  save.format = TraceFormat::kBinary;
  save_trace(path, trace, save);
  const std::string content = slurp(path);
  return content.substr(content.find('\n') + 1);
}

std::uint64_t le_at(const std::string& body, std::size_t off,
                    std::size_t bytes) {
  std::uint64_t v = 0;
  for (std::size_t i = bytes; i-- > 0;) {
    v = v << 8 | static_cast<unsigned char>(body[off + i]);
  }
  return v;
}

/// Offset of a v4 body's samples section: prelude, labels, events, pad.
std::size_t samples_offset(const std::string& body) {
  return static_cast<std::size_t>(32 + le_at(body, 24, 8) +
                                  le_at(body, 8, 8) * 25 + le_at(body, 4, 4));
}

/// The strict and the lenient policy.
std::vector<util::LoadPolicy> both_modes() {
  util::LoadPolicy lenient;
  lenient.mode = util::LoadMode::kLenient;
  return {util::LoadPolicy{}, lenient};
}

TEST(TraceBinaryV4, RecordsAreTheSamplesObjectImage) {
  const std::string path = temp_path("t.bin");
  const Trace original = make_trace(23, 400);
  const std::string body = save_binary(path, original);
  const std::size_t bytes = 400 * sizeof(MemorySample);
  // The samples section is the samples' bytes, 8-byte aligned in the file.
  const std::size_t at = samples_offset(body);
  const std::size_t header = slurp(path).size() - body.size();
  EXPECT_EQ((header + at) % alignof(MemorySample), 0u);
  ASSERT_EQ(body.size(), at + bytes);
  EXPECT_EQ(std::memcmp(body.data() + at, original.samples.data(), bytes), 0);
  // A save -> load round trip gives back the same bytes.
  const Trace loaded = load_trace(path);
  ASSERT_EQ(loaded.samples.size(), 400u);
  EXPECT_EQ(
      std::memcmp(loaded.samples.data(), original.samples.data(), bytes), 0);
}

TEST(TraceBinaryV4, CleanLoadViewsTheFileMapping) {
  const std::string path = temp_path("t.bin");
  const Trace original = make_trace(5, 300);
  save_binary(path, original);
  for (const util::LoadPolicy& policy : both_modes()) {
    SCOPED_TRACE(policy.lenient() ? "lenient" : "strict");
    util::LoadStats stats;
    const Trace loaded = load_trace(path, policy, &stats);
    EXPECT_TRUE(views_file(loaded.samples, path));
    EXPECT_TRUE(traces_equal(original, loaded));
    EXPECT_EQ(stats.records_ok, 305u);
  }
  // A copy of the samples shares the view and keeps the mapping alive
  // after the Trace is gone.
  SampleArray kept;
  {
    const Trace loaded = load_trace(path);
    kept = loaded.samples;
  }
  EXPECT_TRUE(views_file(kept, path));
  EXPECT_EQ(std::memcmp(kept.data(), original.samples.data(),
                        kept.size() * sizeof(MemorySample)),
            0);
  // A CSV load owns its decoded samples.
  const std::string csv = temp_path("t.csv");
  save_trace(csv, original);
  EXPECT_FALSE(views_file(load_trace(csv).samples, csv));
}

TEST(TraceBinaryV4, InPlaceRewriteAfterLoadReadsAsDefinedValues) {
  // The record checks run once, at load.  A viewed trace then reads the
  // file's pages, so bytes another process rewrites in place may reach the
  // run; every byte value is a valid field value, so the edited samples
  // still profile without undefined behaviour (the sanitizer build checks
  // the reads).
  const std::string path = temp_path("rewritten.bin");
  const Trace original = make_trace(5, 300);
  const std::string body = save_binary(path, original);
  const std::size_t header = slurp(path).size() - body.size();
  const Trace loaded = load_trace(path);
  ASSERT_TRUE(views_file(loaded.samples, path));
  {
    // Sample #7's level byte becomes 200 and its write flag 2.
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(static_cast<std::streamoff>(
        header + samples_offset(body) + 7 * sizeof(MemorySample) + 28));
    const char edit[] = {static_cast<char>(200), 2};
    file.write(edit, sizeof edit);
    ASSERT_TRUE(file.good());
  }
  const MemorySample& edited = loaded.samples[7];
  const MemorySample& saved = original.samples[7];
  EXPECT_TRUE(static_cast<unsigned>(edited.level) == 200 ||
              edited.level == saved.level);
  EXPECT_TRUE(edited.is_write == 2 || edited.is_write == saved.is_write);
  const auto machine = topology::Machine::xeon_e5_4650();
  const core::Profiler profiler(machine);
  const core::ProfileResult profile =
      profiler.profile(loaded.events, loaded.samples);
  EXPECT_EQ(profile.total_samples, 300u);
}

TEST(TraceBinaryV4, NonZeroReservedByteStrictRejectsLenientQuarantines) {
  const std::string path = temp_path("reserved.bin");
  const Trace original = make_trace(4, 100);
  std::string body = save_binary(path, original);
  body[samples_offset(body) + 37 * sizeof(MemorySample) + 31] = 0x01;
  util::write_versioned_artifact(path, "trace", kTraceVersion, body);
  const std::string message =
      expect_error([&] { load_trace(path); }, ErrorCode::kParse);
  EXPECT_NE(message.find("sample record #37: reserved byte is not zero"),
            std::string::npos)
      << message;

  util::LoadPolicy lenient;
  lenient.mode = util::LoadMode::kLenient;
  util::LoadStats stats;
  const Trace loaded = load_trace(path, lenient, &stats);
  EXPECT_EQ(stats.records_quarantined, 1u);
  EXPECT_EQ(stats.records_ok, 103u);
  // The decoder fills an owned array with every sample but #37.
  EXPECT_FALSE(views_file(loaded.samples, path));
  std::vector<MemorySample> want(original.samples.begin(),
                                 original.samples.end());
  want.erase(want.begin() + 37);
  ASSERT_EQ(loaded.samples.size(), want.size());
  EXPECT_EQ(std::memcmp(loaded.samples.data(), want.data(),
                        want.size() * sizeof(MemorySample)),
            0);
}

TEST(TraceBinaryV4, V4BodyLoadsViewedAndHomedOnNodeZero) {
  // A v4 record is a v5 record whose home byte is reserved: zero.
  const std::string path = temp_path("v4.bin");
  const Trace original = make_trace(4, 100);
  std::string body = save_binary(path, original);
  const std::size_t at = samples_offset(body);
  for (std::size_t i = 0; i < 100; ++i) {
    body[at + i * sizeof(MemorySample) + 30] = 0;
  }
  util::write_versioned_artifact(path, "trace", 4, body);
  const Trace loaded = load_trace(path);
  EXPECT_TRUE(views_file(loaded.samples, path));
  Trace want = original;
  std::vector<MemorySample> homed_on_zero(original.samples.begin(),
                                          original.samples.end());
  for (MemorySample& s : homed_on_zero) s.home = 0;
  want.samples = std::move(homed_on_zero);
  EXPECT_TRUE(traces_equal(want, loaded));
  // Its byte 30 is still reserved.
  body[at + 37 * sizeof(MemorySample) + 30] = 1;
  util::write_versioned_artifact(path, "trace", 4, body);
  EXPECT_NE(expect_error([&] { load_trace(path); }, ErrorCode::kParse)
                .find("sample record #37: reserved bytes are not zero"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceBinaryV4, MisalignedSamplesSectionLoadsThroughTheDecoder) {
  const std::string path = temp_path("misaligned.bin");
  const Trace original = make_trace(4, 100);
  std::string body = save_binary(path, original);
  // One pad byte more (or less) moves the section off its boundary; the
  // body stays checksummed and well-formed.
  const std::size_t at = samples_offset(body);
  const auto pad = static_cast<unsigned char>(body[4]);
  if (pad < 15) {
    body.insert(at, 1, '\0');
    body[4] = static_cast<char>(pad + 1);
  } else {
    body.erase(at - 1, 1);
    body[4] = static_cast<char>(pad - 1);
  }
  util::write_versioned_artifact(path, "trace", kTraceVersion, body);
  const std::size_t header = slurp(path).size() - body.size();
  ASSERT_NE((header + samples_offset(body)) % alignof(MemorySample), 0u);
  for (const util::LoadPolicy& policy : both_modes()) {
    SCOPED_TRACE(policy.lenient() ? "lenient" : "strict");
    util::LoadStats stats;
    const Trace loaded = load_trace(path, policy, &stats);
    EXPECT_FALSE(views_file(loaded.samples, path));
    EXPECT_TRUE(traces_equal(original, loaded));
    EXPECT_EQ(stats.records_ok, 104u);
    EXPECT_EQ(stats.records_quarantined, 0u);
  }
}

TEST(TraceBinaryV4, DamagedSamplesPadIsAParseErrorInBothModes) {
  const std::string path = temp_path("pad.bin");
  const std::string body = save_binary(path, make_trace(4, 100));
  std::string wide = body;  // a pad past 15 bytes
  wide[4] = 16;
  std::string dirty = body;  // a pad byte that is not zero
  dirty.insert(samples_offset(body), 1, 'x');
  dirty[4] = static_cast<char>(dirty[4] + 1);
  for (const std::string& damaged : {wide, dirty}) {
    util::write_versioned_artifact(path, "trace", kTraceVersion, damaged);
    for (const util::LoadPolicy& policy : both_modes()) {
      const std::string message = expect_error(
          [&] { load_trace(path, policy); }, ErrorCode::kParse);
      EXPECT_NE(message.find("samples pad"), std::string::npos) << message;
    }
  }
}

// ------------------------------------ field readers vs std::from_chars ----

/// The grammar's verdict on one field's text, from std::from_chars: the
/// whole text must parse, and a latency must be finite and >= 0.
template <typename T>
std::optional<T> from_chars_oracle(const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [at, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || at != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value) || !(value >= 0.0f)) return std::nullopt;
  }
  return value;
}

std::uint32_t bits_of(float f) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &f, sizeof bits);
  return bits;
}

float float_of(std::uint32_t bits) {
  float f = 0.0f;
  std::memcpy(&f, &bits, sizeof f);
  return f;
}

/// One sample record per text: `record(text, i)` places text i in the field
/// under test and i in a field `id` reads back.  The records load under a
/// lenient policy that keeps every good one; the loader must keep exactly
/// the records the oracle accepts, in order, each with the oracle's value
/// (`value` reads the field back; floats compare bit for bit).
template <typename T>
void expect_oracle_agrees(
    const std::vector<std::string>& texts,
    const std::function<std::string(const std::string&, std::size_t)>& record,
    const std::function<std::size_t(const MemorySample&)>& id,
    const std::function<T(const MemorySample&)>& value) {
  std::string body;
  for (std::size_t i = 0; i < texts.size(); ++i) {
    body += record(texts[i], i) + "\n";
  }
  const std::string path = write_csv_trace("oracle.csv", body);
  util::LoadStats stats;
  const Trace loaded = load_trace(
      path, util::LoadPolicy{util::LoadMode::kLenient, 1.0}, &stats);
  std::remove(path.c_str());
  std::size_t kept = 0;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < texts.size(); ++i) {
    const std::optional<T> want = from_chars_oracle<T>(texts[i]);
    if (!want) {
      ++rejected;
      continue;
    }
    ASSERT_LT(kept, loaded.samples.size()) << "'" << texts[i] << "'";
    const MemorySample& s = loaded.samples[kept++];
    ASSERT_EQ(id(s), i) << "'" << texts[i] << "' was dropped";
    if constexpr (std::is_floating_point_v<T>) {
      ASSERT_EQ(bits_of(value(s)), bits_of(*want)) << "'" << texts[i] << "'";
    } else {
      ASSERT_EQ(value(s), *want) << "'" << texts[i] << "'";
    }
  }
  EXPECT_EQ(kept, loaded.samples.size());
  EXPECT_EQ(stats.records_quarantined, rejected);
}

/// Checks `texts` as latencies, with the sample's address as its index.
void expect_latencies_agree(const std::vector<std::string>& texts) {
  expect_oracle_agrees<float>(
      texts,
      [](const std::string& text, std::size_t i) {
        return "S," + std::to_string(i) + ",0,0,L1," + text + ",0,1";
      },
      [](const MemorySample& s) { return static_cast<std::size_t>(s.address); },
      [](const MemorySample& s) { return s.latency_cycles; });
}

TEST(TraceFieldOracle, RandomFloatBitsReloadAsFromCharsReadsTheirText) {
  // Finite non-negative bit patterns: a quarter zero or denormal, a quarter
  // in [1e-4, 1e6) where the writer prints fixed notation, the rest anywhere.
  Rng rng(27);
  Trace trace;
  const std::uint32_t fixed_lo = bits_of(1e-4f);
  const std::uint32_t fixed_hi = bits_of(1e6f);
  std::vector<pebs::MemorySample> samples;
  for (std::size_t i = 0; i < 100000; ++i) {
    MemorySample s;
    s.address = i;
    std::uint64_t bits = 0;
    switch (i % 4) {
      case 0: bits = rng.bounded(0x00800000u); break;
      case 1: bits = fixed_lo + rng.bounded(fixed_hi - fixed_lo); break;
      default: bits = rng.bounded(0x7f800000u); break;
    }
    s.latency_cycles = float_of(static_cast<std::uint32_t>(bits));
    samples.push_back(s);
  }
  trace.samples = std::move(samples);
  const Trace loaded = round_trip(trace);
  ASSERT_EQ(loaded.samples.size(), trace.samples.size());
  std::size_t fixed_notation = 0;
  for (std::size_t i = 0; i < trace.samples.size(); ++i) {
    char text[32];
    const char* end = std::to_chars(text, text + sizeof text,
                                    trace.samples[i].latency_cycles,
                                    std::chars_format::general, 6)
                          .ptr;
    const std::string printed(text, static_cast<std::size_t>(end - text));
    if (printed.find('e') == std::string::npos) ++fixed_notation;
    const std::optional<float> want = from_chars_oracle<float>(printed);
    ASSERT_TRUE(want.has_value()) << printed;
    ASSERT_EQ(bits_of(loaded.samples[i].latency_cycles), bits_of(*want))
        << printed;
  }
  EXPECT_GT(fixed_notation, trace.samples.size() / 4);
}

TEST(TraceFieldOracle, LatencyEdgeTextsMatchFromChars) {
  const std::vector<std::string> texts = {
      "0", "0.0", "9999999", "16777216", "16777217", "167772161",
      "0.0000001", "1234567.5", "1677721.6", "9999999.999", "1e-05",
      "3.40282e+38", "3.5e+38", "1e-50", "-0", "-0.0", "1.", ".5",
      "00000001.5", "0.1", "3.96949", "0.0000000001", "0.00000000001",
      "1.0000000001", "612.5", "", "-", "+5", "5.5.5", "1e", "inf", "nan",
      "0x1p3", "1,5"};
  expect_latencies_agree(texts);
  // The same verdicts, one strict load each, name the text on a rejection.
  for (const std::string& text : texts) {
    if (text.find(',') != std::string::npos) continue;
    const std::string path = write_csv_trace(
        "latency_edge.csv", "S,1,0,0,L1," + text + ",0,1\n");
    const std::optional<float> want = from_chars_oracle<float>(text);
    if (want) {
      const Trace loaded = load_trace(path);
      ASSERT_EQ(loaded.samples.size(), 1u) << text;
      EXPECT_EQ(bits_of(loaded.samples[0].latency_cycles), bits_of(*want))
          << text;
    } else {
      EXPECT_NE(expect_error([&] { load_trace(path); }, ErrorCode::kParse)
                    .find("malformed latency '" + text + "'"),
                std::string::npos)
          << text;
    }
    std::remove(path.c_str());
  }
  // -0 stays accepted, as -0.0.
  EXPECT_EQ(bits_of(from_chars_oracle<float>("-0").value()), 0x80000000u);
}

TEST(TraceFieldOracle, RandomDecimalTextsMatchFromChars) {
  // Texts around the fast path's shape: up to 2 leading zeros, 0-9 integer
  // digits, an optional '.', 0-12 fraction digits, sometimes an exponent.
  Rng rng(2017);
  const auto digits = [&rng](std::uint64_t n) {
    std::string out;
    for (std::uint64_t k = 0; k < n; ++k) {
      out += static_cast<char>('0' + rng.bounded(10));
    }
    return out;
  };
  std::vector<std::string> texts;
  for (std::size_t i = 0; i < 50000; ++i) {
    std::string text(rng.bounded(3), '0');
    text += digits(rng.bounded(10));
    if (rng.bounded(4) != 0) text += "." + digits(rng.bounded(13));
    if (rng.bounded(16) == 0) text += "e" + std::to_string(rng.bounded(20));
    texts.push_back(text);
  }
  expect_latencies_agree(texts);
}

TEST(TraceFieldOracle, IntegersAtTheWidthLimitsMatchFromChars) {
  using Record = std::function<std::string(const std::string&, std::size_t)>;
  using Read = std::function<std::uint64_t(const MemorySample&)>;
  const std::function<std::size_t(const MemorySample&)> by_address =
      [](const MemorySample& s) { return static_cast<std::size_t>(s.address); };
  const std::function<std::size_t(const MemorySample&)> by_cycle =
      [](const MemorySample& s) { return static_cast<std::size_t>(s.cycle); };
  struct Field {
    const char* name;
    bool wide;  // u64 rather than u32
    Record record;
    std::function<std::size_t(const MemorySample&)> id;
    Read value;
  };
  const std::vector<Field> fields = {
      {"address", true,
       [](const std::string& t, std::size_t i) {
         return "S," + t + ",0,0,L1,5,0," + std::to_string(i);
       },
       by_cycle, [](const MemorySample& s) { return s.address; }},
      {"cpu", false,
       [](const std::string& t, std::size_t i) {
         return "S," + std::to_string(i) + "," + t + ",0,L1,5,0,1";
       },
       by_address,
       [](const MemorySample& s) {
         return std::uint64_t{static_cast<std::uint32_t>(s.cpu)};
       }},
      {"tid", false,
       [](const std::string& t, std::size_t i) {
         return "S," + std::to_string(i) + ",0," + t + ",L1,5,0,1";
       },
       by_address, [](const MemorySample& s) { return std::uint64_t{s.tid}; }},
      {"cycle", true,
       [](const std::string& t, std::size_t i) {
         return "S," + std::to_string(i) + ",0,0,L1,5,0," + t;
       },
       by_address, [](const MemorySample& s) { return s.cycle; }},
  };
  Rng rng(42);
  std::vector<std::string> texts = {
      "0", "00", "4294967295", "4294967296", "04294967295",
      "18446744073709551615", "18446744073709551616", "99999999999999999999",
      "0000000000000000000000001", "", "-1", "+1", "1x", " 1", "0x10"};
  for (std::size_t i = 0; i < 5000; ++i) {
    std::string text(rng.bounded(4), '0');
    for (std::uint64_t k = 1 + rng.bounded(21); k > 0; --k) {
      text += static_cast<char>('0' + rng.bounded(10));
    }
    texts.push_back(text);
  }
  for (const Field& f : fields) {
    SCOPED_TRACE(f.name);
    if (f.wide) {
      expect_oracle_agrees<std::uint64_t>(texts, f.record, f.id, f.value);
    } else {
      expect_oracle_agrees<std::uint32_t>(
          texts, f.record, f.id, [&f](const MemorySample& s) {
            return static_cast<std::uint32_t>(f.value(s));
          });
    }
  }
  // Strict loads name the number that does not fit, allocation fields too.
  const auto strict = [](const std::string& record) {
    const std::string path =
        write_csv_trace("width_limit.csv", record + "\n");
    std::string message;
    try {
      load_trace(path);
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kParse) << record;
      message = e.what();
    }
    std::remove(path.c_str());
    return message;
  };
  EXPECT_EQ(strict("S,1,4294967295,4294967295,L1,5,0,1"), "");
  EXPECT_EQ(strict("S,18446744073709551615,0,0,L1,5,0,18446744073709551615"),
            "");
  EXPECT_EQ(strict("A,x,0000000000000000000000001,18446744073709551615"), "");
  EXPECT_EQ(strict("F,18446744073709551615"), "");
  const std::string u32_over = "4294967296";
  const std::string u64_over = "18446744073709551616";
  for (const auto& [record, token] :
       std::vector<std::pair<std::string, std::string>>{
           {"S,1," + u32_over + ",0,L1,5,0,1", u32_over},
           {"S,1,0," + u32_over + ",L1,5,0,1", u32_over},
           {"S," + u64_over + ",0,0,L1,5,0,1", u64_over},
           {"S,1,0,0,L1,5,0," + u64_over, u64_over},
           {"A,x," + u64_over + ",1", u64_over},
           {"F," + u64_over, u64_over}}) {
    EXPECT_NE(strict(record).find("malformed number '" + token + "'"),
              std::string::npos)
        << record;
  }
}

// -------------------------------------------------------- decoder pin ----

/// `text` with every byte outside printable ASCII written as \xNN, so an
/// outcome holding a damaged record prints (and pins) as plain text.
std::string printable(std::string_view text) {
  std::string out;
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte >= 0x20 && byte < 0x7f && c != '\\') {
      out += c;
      continue;
    }
    char hex[8];
    std::snprintf(hex, sizeof hex, "\\x%02x", byte);
    out += hex;
  }
  return out;
}

/// CRC-32 of every decoded field of `trace`, events first.
std::uint32_t trace_crc(const Trace& trace) {
  std::string bytes;
  const auto put = [&bytes](const auto& v) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  for (const mem::AllocationEvent& e : trace.events) {
    put(static_cast<std::uint8_t>(e.kind));
    bytes += e.site.label;
    put(e.site.label.size());
    put(e.base);
    put(e.size_bytes);
  }
  for (const MemorySample& s : trace.samples) {
    put(s.address);
    put(s.cycle);
    put(s.cpu);
    put(s.tid);
    put(bits_of(s.latency_cycles));
    put(static_cast<std::uint8_t>(s.level));
    put(s.is_write);
  }
  return util::crc32(bytes);
}

/// One load of `path` under `policy` as text: the typed error and its
/// message (the path shown as <trace>), or the record tallies and the
/// CRC-32 of what was decoded.
std::string load_outcome(const std::string& path,
                         const util::LoadPolicy& policy) {
  util::LoadStats stats;
  try {
    const Trace trace = load_trace(path, policy, &stats);
    char crc[16];
    std::snprintf(crc, sizeof crc, "%08x", trace_crc(trace));
    return "seen=" + std::to_string(stats.records_seen) +
           " ok=" + std::to_string(stats.records_ok) +
           " quarantined=" + std::to_string(stats.records_quarantined) +
           " crc=" + crc;
  } catch (const Error& e) {
    std::string what = e.what();
    for (std::size_t at = what.find(path); at != std::string::npos;
         at = what.find(path, at)) {
      what.replace(at, path.size(), "<trace>");
    }
    return std::string(error_code_name(e.code())) + " " + printable(what);
  }
}

/// The strict and the lenient (never capped) outcome of one CSV body.
struct PinnedOutcome {
  std::string strict;
  std::string lenient;
};

PinnedOutcome decode_outcome(const std::string& body) {
  const std::string path = write_csv_trace("pin.csv", body);
  PinnedOutcome out{load_outcome(path, util::LoadPolicy{}),
                    load_outcome(path, {util::LoadMode::kLenient, 1.0})};
  std::remove(path.c_str());
  return out;
}

/// A few records in the recorder's format, plus the shapes it can write
/// that a plain sample line is not: a quoted label holding ',', "" and a
/// newline, a free, a blank line, every level, a latency in scientific
/// notation, the widest field values, and a last record with no '\n'.
constexpr const char* kRecordedBody =
    "A,streamcluster.cpp:1739 block,268435456,100663296\n"
    "A,\"streamcluster.cpp:985 \"\"p\"\",\nq\",369102848,33554432\n"
    "S,323140184,0,0,LDR,179.732,0,20185\n"
    "S,357489072,1,1,L1,187.207,1,6451\n"
    "\n"
    "S,325640856,9,3,RDR,401.668,0,96863\n"
    "S,294288200,0,0,LFB,1e-05,0,117937\n"
    "F,268435456\n"
    "S,365394208,1,1,L2,212,0,104203\n"
    "S,291433664,8,2,L3,4.17716e+06,1,140627\n"
    "S,18446744073709551615,4294967295,4294967295,LDR,0,1,"
    "18446744073709551615\n"
    "S,280101144,0,0,LDR,170.337,0,215689";

/// A CRC-32 over a group of outcomes, one "strict | lenient" line each,
/// and how many of the strict loads kept every record.
struct GroupPin {
  std::uint32_t crc = 0;
  std::size_t strict_ok = 0;
};

GroupPin pin_group(const std::vector<std::string>& bodies) {
  std::string lines;
  GroupPin pin;
  for (const std::string& body : bodies) {
    const PinnedOutcome o = decode_outcome(body);
    pin.strict_ok += o.strict.rfind("seen=", 0) == 0;
    lines += o.strict + " | " + o.lenient + "\n";
  }
  pin.crc = util::crc32(lines);
  return pin;
}

// The expected outcomes below were taken from the line-at-a-time decoder
// before records were read in place; the in-place reader must reproduce
// every one of them: values, tallies, error codes, messages, line numbers.
TEST(TraceDecoderPin, LineShapesDecodeAsPinned) {
  struct Case {
    const char* name;
    std::string body;
    const char* strict;
    const char* lenient;
  };
  const std::vector<Case> cases = {
      {"crlf", "S,1,0,0,L1,5,0,1\r\nS,2,0,0,L1,5,0,2\r\nF,9\r\n",
       "parse-error <trace>:2: malformed number '1\\x0d'",
       "seen=3 ok=0 quarantined=3 crc=00000000"},
      {"blank lines", "\n   \n\t\r\nS,1,0,0,L1,5,0,1\n\r\n\nF,7\n  \n",
       "seen=2 ok=2 quarantined=0 crc=818ca6e4",
       "seen=2 ok=2 quarantined=0 crc=818ca6e4"},
      {"multi-line quoted label",
       "A,\"a \"\"b\"\"\nc,\n\"\"d\"\"\",4096,64\nS,4096,0,0,L1,5,0,1\n"
       "S,4100,1,0,L2,6,0,2\n",
       "seen=3 ok=3 quarantined=0 crc=707aeba8",
       "seen=3 ok=3 quarantined=0 crc=707aeba8"},
      {"unterminated quote",
       "A,\"never closed,4096,64\nS,1,0,0,L1,5,0,1\nA,\"x\ny\",8192,64\n",
       "parse-error <trace>:2: record has 2 fields, expected 4",
       "seen=3 ok=2 quarantined=1 crc=b4bf4e89"},
      {"label split by a newline", "S,1,0,0,L1,5,0,1\nA,foo\nbar,1,2\n",
       "parse-error <trace>:3: record has 2 fields, expected 4",
       "seen=3 ok=1 quarantined=2 crc=16bd2db8"},
      {"bare S", "S\nS,1,0,0,L1,5,0,1\n",
       "parse-error <trace>:2: record has 1 fields, expected 8",
       "seen=2 ok=1 quarantined=1 crc=16bd2db8"},
      {"bare S comma", "S,1,0,0,L1,5,0,1\nS,\n",
       "parse-error <trace>:3: record has 2 fields, expected 8",
       "seen=2 ok=1 quarantined=1 crc=16bd2db8"},
      {"last record without a newline",
       "S,1,0,0,L1,5,0,1\nS,2,0,0,LFB,5.5,1,2",
       "seen=2 ok=2 quarantined=0 crc=ac3dae40",
       "seen=2 ok=2 quarantined=0 crc=ac3dae40"},
      {"level cut by a newline", "S,1,0,0,L\n1,5,0,1\nS,1,0,0,LFB\n,5,0,1\n",
       "parse-error <trace>:2: record has 5 fields, expected 8",
       "seen=4 ok=0 quarantined=4 crc=00000000"},
      {"latency cut by a newline", "S,1,0,0,L1,5\n,0,1\nS,1,0,0,L1,1e5\n",
       "parse-error <trace>:2: record has 6 fields, expected 8",
       "seen=3 ok=0 quarantined=3 crc=00000000"},
      {"flag cut by a newline", "S,1,0,0,L1,5,1\n,1\nS,1,0,0,L1,5,\n0,1\n",
       "parse-error <trace>:2: record has 7 fields, expected 8",
       "seen=4 ok=0 quarantined=4 crc=00000000"},
      {"empty last field", "S,1,0,0,L1,5,0,\nS,1,0,0,L1,5,0,1\n",
       "parse-error <trace>:2: malformed number ''",
       "seen=2 ok=1 quarantined=1 crc=16bd2db8"},
      {"record past its last field", "S,1,0,0,L1,5,0,1,\nF,1,2\n",
       "parse-error <trace>:2: record has 9 fields, expected 8",
       "seen=2 ok=0 quarantined=2 crc=00000000"},
      {"unknown kinds", "SS,1\nQ\nS1,0\n",
       "parse-error <trace>:2: unknown record kind 'SS'",
       "seen=3 ok=0 quarantined=3 crc=00000000"},
  };
  for (const Case& c : cases) {
    const PinnedOutcome got = decode_outcome(c.body);
    EXPECT_EQ(got.strict, c.strict) << c.name;
    EXPECT_EQ(got.lenient, c.lenient) << c.name;
  }
}

TEST(TraceDecoderPin, EveryCutOfARecordedBodyDecodesAsPinned) {
  const std::string body = kRecordedBody;
  std::vector<std::string> cuts;
  for (std::size_t n = 0; n <= body.size(); ++n) {
    cuts.push_back(body.substr(0, n));
  }
  const GroupPin pin = pin_group(cuts);
  EXPECT_EQ(pin.crc, 0x6d9e187eu);
  EXPECT_EQ(pin.strict_ok, 96u);
}

TEST(TraceDecoderPin, SeededByteMutationsDecodeAsPinned) {
  // Each case replaces, inserts or deletes one to three bytes, drawn from
  // the grammar's own characters or from all 256 byte values.
  const std::string base = kRecordedBody;
  const std::string alphabet = "0123456789,\n\r\" \tSAFLDRB.e-+x";
  Rng rng(2017);
  std::vector<std::string> bodies;
  for (int i = 0; i < 500; ++i) {
    std::string body = base;
    const std::uint64_t edits = 1 + rng.next() % 3;
    for (std::uint64_t e = 0; e < edits; ++e) {
      const auto at = static_cast<std::size_t>(rng.next() % body.size());
      const char byte = rng.next() % 4 == 0
                            ? static_cast<char>(rng.next() >> 56)
                            : alphabet[rng.next() % alphabet.size()];
      switch (rng.next() % 3) {
        case 0: body[at] = byte; break;
        case 1: body.insert(at, 1, byte); break;
        default: body.erase(at, 1); break;
      }
    }
    bodies.push_back(std::move(body));
  }
  const GroupPin pin = pin_group(bodies);
  EXPECT_EQ(pin.crc, 0x7689b05fu);
  EXPECT_EQ(pin.strict_ok, 120u);
}

TEST(TraceDecoderBounds, LastRecordCutAtAPageEndReadsNothingPastTheFile) {
  // Each file is a whole number of pages, so the mapping ends where the
  // body does and a read one byte past the body's end touches the next
  // page.  Every cut must decode to samples or fail with kParse.  A v5
  // sample record ends with its home node, a v2 one with its cycle.
  const std::string path = temp_path("page_end.csv");
  for (const int version : {2, kTraceVersion}) {
    SCOPED_TRACE(version);
    const std::string home = version == 2 ? "" : ",255";
    const std::string last =
        "S,18446744073709551615,4294967295,7,LFB,1e-05,1,18446744073709551615" +
        home + "\n";
    for (std::size_t cut = 1; cut <= last.size(); ++cut) {
      const std::string tail =
          "S,1,0,0,L1,5,0,1" + home + "\n" + last.substr(0, cut);
      std::string body;
      for (std::size_t pad = 0;; ++pad) {
        body = "A," + std::string(pad, 'x') + ",4096,64\n" + tail;
        if ((util::artifact_header_size("trace", version, body.size()) + 1 +
             body.size()) % 4096 == 0) {
          break;
        }
      }
      util::write_versioned_artifact(path, "trace", version, body);
      const std::size_t file_bytes = slurp(path).size();
      ASSERT_EQ(file_bytes % 4096, 0u) << cut;
      for (const util::LoadPolicy& policy :
           {util::LoadPolicy{},
            util::LoadPolicy{util::LoadMode::kLenient, 1.0}}) {
        // An inaccessible page right above a hole the file's size: mappings
        // are placed top-down in the highest gap that fits, so the loader's
        // mapping of the file usually fills the hole and ends at the guard.
        char* const hole = static_cast<char*>(
            ::mmap(nullptr, file_bytes + 4096, PROT_NONE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0));
        ASSERT_NE(hole, MAP_FAILED);
        ::munmap(hole, file_bytes);
        try {
          const Trace trace = load_trace(path, policy);
          EXPECT_GE(trace.samples.size(), 1u) << cut;
        } catch (const Error& e) {
          EXPECT_EQ(e.code(), ErrorCode::kParse) << cut << ": " << e.what();
        }
        ::munmap(hole + file_bytes, 4096);
      }
    }
  }
  std::remove(path.c_str());
}

// ----------------------------------------------- cpu and home checks ----

/// `base` with `cores` single-threaded cores per node.
topology::Machine with_cores(const topology::Machine& base, int cores) {
  topology::MachineSpec spec = base.spec();
  spec.cores_per_socket = cores;
  spec.threads_per_core = 1;
  return topology::Machine(std::move(spec));
}

TEST(TraceCpuCheck, OutOfRangeCpuFailsBothEncodingsInBothModes) {
  const auto xeon = topology::Machine::xeon_e5_4650();
  const topology::Machine sixteen = with_cores(xeon, 4);
  const topology::Machine thirty_two = with_cores(xeon, 8);
  const Trace trace = make_trace(10, 100);  // sample i has cpu i % 32
  for (const TraceFormat format : {TraceFormat::kCsv, TraceFormat::kBinary}) {
    SCOPED_TRACE(trace_format_name(format));
    const std::string path = temp_path(trace_format_name(format));
    save_trace(path, trace, {format});
    for (const util::LoadPolicy& policy : both_modes()) {
      LoadOptions load;
      load.policy = policy;
      load.machine = &sixteen;
      util::LoadStats stats;
      const std::string message = expect_error(
          [&] { load_trace(path, load, &stats); },
          ErrorCode::kCorruptArtifact);
      EXPECT_EQ(message, path + ": sample 16 has cpu 16 and home node 0, but "
                                "the machine has 16 hardware threads and 4 "
                                "nodes");
      EXPECT_EQ(stats.records_ok, 110u);
      EXPECT_EQ(stats.records_quarantined, 0u);
      load.machine = &thirty_two;
      EXPECT_EQ(load_trace(path, load).samples.size(), 100u);
      load.machine = nullptr;  // no machine known
      EXPECT_EQ(load_trace(path, load).samples.size(), 100u);
    }
    std::remove(path.c_str());
  }
}

TEST(TraceHomeCheck, HomeTheMachineLacksFailsBothEncodingsInBothModes) {
  // Sample i is homed on node i % 4; the two-node machine lacks nodes 2
  // and 3 but has every cpu the trace names.
  const topology::Machine two_nodes =
      with_cores(topology::Machine::dual_socket_test(), 16);
  const topology::Machine four_nodes =
      with_cores(topology::Machine::xeon_e5_4650(), 8);
  const Trace trace = make_trace(10, 100);
  for (const TraceFormat format : {TraceFormat::kCsv, TraceFormat::kBinary}) {
    SCOPED_TRACE(trace_format_name(format));
    const std::string path = temp_path(trace_format_name(format));
    save_trace(path, trace, {format});
    for (const util::LoadPolicy& policy : both_modes()) {
      LoadOptions load;
      load.policy = policy;
      load.machine = &two_nodes;
      util::LoadStats stats;
      EXPECT_EQ(expect_error([&] { load_trace(path, load, &stats); },
                             ErrorCode::kCorruptArtifact),
                path + ": sample 2 has cpu 2 and home node 2, but the "
                       "machine has 32 hardware threads and 2 nodes");
      EXPECT_EQ(stats.records_ok, 110u);
      EXPECT_EQ(stats.records_quarantined, 0u);
      load.machine = &four_nodes;
      EXPECT_TRUE(traces_equal(trace, load_trace(path, load)));
    }
    std::remove(path.c_str());
  }
}

TEST(TraceHomeCheck, HostileHomeByteOfAViewedBodyFailsInBothModes) {
  // A home byte of 255 in an otherwise valid v5 record: every record still
  // passes where it lies, so only the machine check can refuse it.
  const topology::Machine xeon = topology::Machine::xeon_e5_4650();
  const std::string path = temp_path("home.bin");
  const Trace original = make_trace(4, 100);
  std::string body = save_binary(path, original);
  body[samples_offset(body) + 37 * sizeof(MemorySample) + 30] =
      static_cast<char>(255);
  util::write_versioned_artifact(path, "trace", kTraceVersion, body);
  for (const util::LoadPolicy& policy : both_modes()) {
    LoadOptions load;
    load.policy = policy;
    load.machine = &xeon;
    EXPECT_EQ(expect_error([&] { load_trace(path, load); },
                           ErrorCode::kCorruptArtifact),
              path + ": sample 37 has cpu 5 and home node 255, but the "
                     "machine has 64 hardware threads and 4 nodes");
  }
  // With no machine known the byte is a home like any other.
  const Trace loaded = load_trace(path);
  EXPECT_TRUE(views_file(loaded.samples, path));
  EXPECT_EQ(loaded.samples[37].home, 255u);
  std::remove(path.c_str());
}

TEST(TraceHomeCheck, CsvHomeColumnIsAU8LastField) {
  const auto v5 = [](const std::string& name, const std::string& body) {
    const std::string path = temp_path(name);
    util::write_versioned_artifact(path, "trace", kTraceVersion, body);
    return path;
  };
  const std::string widest = v5("widest.csv", "S,1,0,0,L1,5,0,1,255\n");
  EXPECT_EQ(load_trace(widest).samples[0].home, 255u);
  const topology::Machine xeon = topology::Machine::xeon_e5_4650();
  LoadOptions load;
  load.machine = &xeon;
  EXPECT_EQ(expect_error([&] { load_trace(widest, load); },
                         ErrorCode::kCorruptArtifact),
            widest + ": sample 0 has cpu 0 and home node 255, but the "
                     "machine has 64 hardware threads and 4 nodes");
  const std::string over = v5("over.csv", "S,1,0,0,L1,5,0,1,256\n");
  EXPECT_EQ(expect_error([&] { load_trace(over); }, ErrorCode::kParse),
            over + ":2: malformed number '256'");
  const std::string short_record = v5("short.csv", "S,1,0,0,L1,5,0,1\n");
  EXPECT_EQ(expect_error([&] { load_trace(short_record); }, ErrorCode::kParse),
            short_record + ":2: record has 8 fields, expected 9");
  // A v2 body has no home column, and its samples are homed on node 0.
  const std::string v2 = write_csv_trace("v2.csv", "S,1,0,0,L1,5,0,1\n");
  EXPECT_EQ(load_trace(v2).samples[0].home, 0u);
  for (const std::string& path : {widest, over, short_record, v2}) {
    std::remove(path.c_str());
  }
}

TEST(TraceCpuCheck, OrdinalCountsKeptSamplesAndTheCapComesFirst) {
  // The second record is quarantined in lenient mode, so the cpu-99
  // record is kept sample 1; u32 cpus past INT32_MAX are out of range too.
  const std::string path = write_csv_trace(
      "cpu.csv",
      "S,4096,0,1,LDR,500,0,10\n"
      "S,4100,x,1,LDR,500,0,20\n"
      "S,4104,99,1,LDR,500,0,30\n"
      "S,4108,4294967295,1,LDR,500,0,40\n");
  util::LoadPolicy lenient;
  lenient.mode = util::LoadMode::kLenient;
  const topology::Machine eight =
      with_cores(topology::Machine::xeon_e5_4650(), 2);
  LoadOptions load;
  load.policy = lenient;
  load.machine = &eight;
  EXPECT_EQ(expect_error([&] { load_trace(path, load); },
                         ErrorCode::kCorruptArtifact),
            path + ": sample 1 has cpu 99 and home node 0, but the machine "
                   "has 8 hardware threads and 4 nodes");
  // Strict mode stops at the malformed record: the parse error wins.
  load.policy = util::LoadPolicy{};
  expect_error([&] { load_trace(path, load); }, ErrorCode::kParse);
  // Past the quarantine cap, the cap's error is the one reported.
  load.policy = lenient;
  load.policy.max_bad_fraction = 0.1;
  EXPECT_NE(expect_error([&] { load_trace(path, load); },
                         ErrorCode::kCorruptArtifact)
                .find("records are malformed"),
            std::string::npos);
  const std::string wide = write_csv_trace(
      "wide_cpu.csv", "S,4108,4294967295,1,LDR,500,0,40\n");
  load.policy = util::LoadPolicy{};
  EXPECT_EQ(expect_error([&] { load_trace(wide, load); },
                         ErrorCode::kCorruptArtifact),
            wide + ": sample 0 has cpu -1 and home node 0, but the machine "
                   "has 8 hardware threads and 4 nodes");
  std::remove(path.c_str());
  std::remove(wide.c_str());
}

}  // namespace
}  // namespace drbw::pebs
