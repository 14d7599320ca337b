// Tests for sample-trace persistence and offline re-analysis: the CSV (v2)
// and binary (v3) bodies, their round trips, field grammar, version skew,
// and truncated-body handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
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
Trace make_trace(std::size_t events, std::size_t samples) {
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
  for (std::size_t i = 0; i < samples; ++i) {
    MemorySample s;
    s.address = 0x10000 + (i * 64) % (events * 0x1000 + 0x1000);
    s.cpu = static_cast<topology::CpuId>(i % 32);
    s.tid = static_cast<std::uint32_t>(i % 8);
    s.level = static_cast<MemLevel>(i % 6);
    s.latency_cycles = 10.0f + static_cast<float>(i % 900) * 1.5f;
    s.is_write = i % 3 == 0;
    s.cycle = 1000 + i * 17;
    trace.samples.push_back(s);
  }
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

  // The artifact carries the v3 checksummed header over a binary body.
  const std::string content = slurp(path);
  EXPECT_EQ(content.rfind("#drbw-trace v3 crc32=", 0), 0u);

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
  EXPECT_NE(message.find("offending header token 'v3'"), std::string::npos)
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
  const std::string short_body = body.substr(0, body.size() - 900);
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
  EXPECT_EQ(first.records_quarantined, 30u);  // 900 bytes = 30 samples
  EXPECT_EQ(first.records_ok, 74u);
  EXPECT_TRUE(first.checksum_ok);  // header matches the short body
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

}  // namespace
}  // namespace drbw::pebs
