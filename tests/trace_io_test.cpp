// Tests for sample-trace persistence and offline re-analysis: the CSV (v2)
// and binary (v4, and v3 on load) bodies, their round trips, field grammar,
// version skew, truncated-body handling, and v4's load without a copy.
#include <gtest/gtest.h>

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
  MemorySample t = s;
  t.level = MemLevel::kLfb;
  t.latency_cycles = 58.0f;
  t.is_write = false;
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
        x.is_write != y.is_write || x.cycle != y.cycle) {
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

TEST(TraceBinary, RoundTripPreservesEverything) {
  const std::string path = temp_path("t.bin");
  const Trace original = make_trace(23, 400);
  SaveOptions save;
  save.format = TraceFormat::kBinary;
  save_trace(path, original, save);

  // The artifact carries the v4 checksummed header over a binary body.
  const std::string content = slurp(path);
  EXPECT_EQ(content.rfind("#drbw-trace v4 crc32=", 0), 0u);

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

TEST(TraceBinary, CsvDefaultStillWritesV2) {
  const std::string path = temp_path("t.csv");
  const Trace trace = make_trace(5, 40);
  save_trace(path, trace);
  const std::string content = slurp(path);
  EXPECT_EQ(content.rfind("#drbw-trace v2 crc32=", 0), 0u);
  EXPECT_TRUE(traces_equal(trace, load_trace(path)));
}

TEST(TraceBinary, VersionSkewNamesOffendingToken) {
  const std::string path = temp_path("t.bin");
  SaveOptions save;
  save.format = TraceFormat::kBinary;
  save_trace(path, make_trace(3, 30), save);
  LoadOptions load;
  load.max_version = kTraceCsvVersion;  // a strict v2-only consumer
  const std::string message = expect_error(
      [&] { load_trace(path, load); }, ErrorCode::kVersionSkew);
  EXPECT_NE(message.find("offending header token 'v4'"), std::string::npos)
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
  core::ReplayLocator locator;
  const core::Profiler profiler(machine, locator);
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
  EXPECT_NE(message.find("sample record #37: reserved bytes are not zero"),
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

// ------------------------------------------------------ newline count ----

TEST(TraceNewlineCount, MatchesStdCountOnRandomBodies) {
  Rng rng(2017);
  for (std::size_t size : {0u, 1u, 31u, 32u, 33u, 255u * 32u - 1u,
                           255u * 32u, 255u * 32u + 1u, 100000u}) {
    for (std::uint64_t density : {2u, 7u, 64u}) {
      std::string body(size + 3, 'x');
      for (char& c : body) {
        c = rng.next() % density == 0 ? '\n'
                                      : static_cast<char>(rng.next() >> 56);
      }
      for (std::size_t offset : {0u, 3u}) {
        const std::string_view view(body.data() + offset, size);
        EXPECT_EQ(detail::count_newlines(view),
                  static_cast<std::size_t>(
                      std::count(view.begin(), view.end(), '\n')))
            << "size " << size << " density " << density << " offset "
            << offset;
      }
    }
  }
}

TEST(TraceNewlineCount, LanesAreFlushedBeforeTheyOverflow) {
  // All newlines: every byte lane gains one per 32 bytes, so a lane that
  // were never flushed would wrap after 255 rows.
  for (std::size_t size : {255u * 32u + 32u, 255u * 32u * 4u + 17u}) {
    EXPECT_EQ(detail::count_newlines(std::string(size, '\n')), size);
  }
}

// --------------------------------------------------------- cpu check ----

TEST(TraceCpuCheck, OutOfRangeCpuFailsBothEncodingsInBothModes) {
  util::LoadPolicy lenient;
  lenient.mode = util::LoadMode::kLenient;
  const Trace trace = make_trace(10, 100);  // sample i has cpu i % 32
  for (const TraceFormat format : {TraceFormat::kCsv, TraceFormat::kBinary}) {
    SCOPED_TRACE(trace_format_name(format));
    const std::string path = temp_path(trace_format_name(format));
    save_trace(path, trace, {format});
    for (const util::LoadPolicy& policy : {util::LoadPolicy{}, lenient}) {
      LoadOptions load;
      load.policy = policy;
      load.num_cpus = 16;
      util::LoadStats stats;
      const std::string message = expect_error(
          [&] { load_trace(path, load, &stats); },
          ErrorCode::kCorruptArtifact);
      EXPECT_EQ(message, path + ": sample 16 has cpu 16, but the machine "
                                "has 16 hardware threads");
      EXPECT_EQ(stats.records_ok, 110u);
      EXPECT_EQ(stats.records_quarantined, 0u);
      load.num_cpus = 32;
      EXPECT_EQ(load_trace(path, load).samples.size(), 100u);
      load.num_cpus = 0;  // no machine known
      EXPECT_EQ(load_trace(path, load).samples.size(), 100u);
    }
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
  LoadOptions load;
  load.policy = lenient;
  load.num_cpus = 8;
  EXPECT_EQ(expect_error([&] { load_trace(path, load); },
                         ErrorCode::kCorruptArtifact),
            path + ": sample 1 has cpu 99, but the machine has 8 hardware "
                   "threads");
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
            wide + ": sample 0 has cpu -1, but the machine has 8 hardware "
                   "threads");
  std::remove(path.c_str());
  std::remove(wide.c_str());
}

}  // namespace
}  // namespace drbw::pebs
