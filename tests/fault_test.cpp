// Fault injection + hardened artifact I/O.
//
// Covers the drbw::fault spec grammar and injector determinism, the atomic
// write-temp-then-rename guarantee (proved by injecting a crash mid-write),
// strict/lenient load semantics over the committed corruption corpus in
// tests/data/, the typed-error taxonomy and its exit-code mapping, and the
// fault sites threaded through the engine and trace loader.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "drbw/fault/injector.hpp"
#include "drbw/ml/decision_tree.hpp"
#include "drbw/pebs/trace_io.hpp"
#include "drbw/sim/engine.hpp"
#include "drbw/util/artifact.hpp"
#include "drbw/util/json.hpp"

namespace drbw {
namespace {

const std::string kDataDir = DRBW_TEST_DATA_DIR;

/// Arms the process-wide injector for one test scope, disarming on exit so
/// no fault plan leaks into the next test.
struct ArmGuard {
  explicit ArmGuard(const std::string& spec) {
    fault::Injector::global().arm(fault::Plan::parse(spec));
  }
  ~ArmGuard() { fault::Injector::global().disarm(); }
  ArmGuard(const ArmGuard&) = delete;
  ArmGuard& operator=(const ArmGuard&) = delete;
};

/// Runs `fn`, expecting it to throw drbw::Error; returns the error's code
/// and (optionally) its message.
template <typename Fn>
ErrorCode code_of(Fn&& fn, std::string* message = nullptr) {
  try {
    fn();
  } catch (const Error& e) {
    if (message != nullptr) *message = e.what();
    return e.code();
  }
  ADD_FAILURE() << "expected drbw::Error to be thrown";
  return ErrorCode::kGeneric;
}

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// ---------------------------------------------------------------- spec ----

TEST(FaultSpec, ParsesAndRoundTrips) {
  const auto plan = fault::Plan::parse(
      "seed=42, pebs.sample:drop:0.25, trace.write:truncate:1");
  EXPECT_EQ(plan.seed, 42u);
  ASSERT_EQ(plan.sites.size(), 2u);
  EXPECT_EQ(plan.sites[0].site, "pebs.sample");
  EXPECT_EQ(plan.sites[0].kind, fault::Kind::kDropSample);
  EXPECT_DOUBLE_EQ(plan.sites[0].rate, 0.25);
  EXPECT_EQ(plan.sites[1].kind, fault::Kind::kTruncateFile);

  // The canonical rendering re-parses to the same plan.
  const auto again = fault::Plan::parse(plan.to_string());
  EXPECT_EQ(again.seed, plan.seed);
  ASSERT_EQ(again.sites.size(), plan.sites.size());
  EXPECT_EQ(again.sites[1].site, plan.sites[1].site);
}

TEST(FaultSpec, RejectsMalformedClauses) {
  for (const char* bad :
       {"banana", "a:b", "x:drop:2", "x:drop:-0.5", "x:frobnicate:0.5",
        "seed=abc", ":drop:0.5", "x:drop:notanumber"}) {
    EXPECT_EQ(code_of([&] { fault::Plan::parse(bad); }), ErrorCode::kParse)
        << "spec: " << bad;
  }
}

TEST(FaultSpec, KindTokensRoundTrip) {
  for (const fault::Kind k :
       {fault::Kind::kDropSample, fault::Kind::kCorruptField,
        fault::Kind::kTruncateFile, fault::Kind::kMalformJson,
        fault::Kind::kShortWrite, fault::Kind::kFail}) {
    EXPECT_EQ(fault::kind_from_token(fault::kind_token(k)), k);
  }
  EXPECT_EQ(code_of([] { fault::kind_from_token("explode"); }),
            ErrorCode::kParse);
}

// ------------------------------------------------------------ injector ----

TEST(FaultInjector, DecisionsArePureFunctionsOfKey) {
  fault::Injector injector;
  injector.arm(fault::Plan::parse("seed=7,site.x:drop:0.5"));
  std::vector<bool> forward;
  for (std::uint64_t key = 0; key < 500; ++key) {
    forward.push_back(injector.should_inject("site.x", fault::Kind::kDropSample,
                                             key));
  }
  // Re-querying in reverse order (a stand-in for any parallel schedule)
  // yields the identical decision for every key.
  for (std::uint64_t key = 500; key-- > 0;) {
    EXPECT_EQ(injector.should_inject("site.x", fault::Kind::kDropSample, key),
              forward[key])
        << "key " << key;
  }
  // Rate 0.5 over 500 keys: both outcomes occur.
  const std::size_t fires =
      static_cast<std::size_t>(std::count(forward.begin(), forward.end(), true));
  EXPECT_GT(fires, 100u);
  EXPECT_LT(fires, 400u);
}

TEST(FaultInjector, RateEndpointsAreExact) {
  fault::Injector injector;
  injector.arm(fault::Plan::parse("seed=1,a:drop:0,b:drop:1"));
  for (std::uint64_t key = 0; key < 200; ++key) {
    EXPECT_FALSE(injector.should_inject("a", fault::Kind::kDropSample, key));
    EXPECT_TRUE(injector.should_inject("b", fault::Kind::kDropSample, key));
  }
}

TEST(FaultInjector, SiteAndKindMustMatch) {
  fault::Injector injector;
  injector.arm(fault::Plan::parse("seed=1,a:drop:1"));
  EXPECT_FALSE(injector.should_inject("other", fault::Kind::kDropSample, 0));
  EXPECT_FALSE(injector.should_inject("a", fault::Kind::kFail, 0));
  EXPECT_TRUE(injector.should_inject("a", fault::Kind::kDropSample, 0));
  EXPECT_FALSE(fault::Injector{}.should_inject("a", fault::Kind::kDropSample,
                                               0));  // disarmed
}

TEST(FaultInjector, SeedChangesDecisions) {
  fault::Injector a;
  fault::Injector b;
  a.arm(fault::Plan::parse("seed=1,s:drop:0.5"));
  b.arm(fault::Plan::parse("seed=2,s:drop:0.5"));
  std::size_t differing = 0;
  for (std::uint64_t key = 0; key < 200; ++key) {
    differing += a.should_inject("s", fault::Kind::kDropSample, key) !=
                 b.should_inject("s", fault::Kind::kDropSample, key);
  }
  EXPECT_GT(differing, 0u);
}

TEST(FaultInjector, CorruptBitsFlipsExactlyOneBit) {
  fault::Injector injector;
  injector.arm(fault::Plan::parse("seed=3,s:corrupt:1"));
  for (std::uint64_t key = 0; key < 64; ++key) {
    const std::uint64_t value = 0xDEADBEEFCAFEF00DULL + key;
    const std::uint64_t corrupted = injector.corrupt_bits("s", key, value);
    EXPECT_EQ(std::popcount(value ^ corrupted), 1) << "key " << key;
    // Deterministic: the same key flips the same bit.
    EXPECT_EQ(injector.corrupt_bits("s", key, value), corrupted);
  }
}

TEST(FaultInjector, FireCountsTallyPerSiteAndKind) {
  fault::Injector injector;
  injector.arm(fault::Plan::parse("seed=1,s:drop:1,t:fail:1"));
  for (std::uint64_t key = 0; key < 5; ++key) {
    injector.should_inject("s", fault::Kind::kDropSample, key);
  }
  injector.should_inject("t", fault::Kind::kFail, 0);
  const auto counts = injector.fire_counts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0].first, "s:drop");
  EXPECT_EQ(counts[0].second, 5u);
  EXPECT_EQ(counts[1].first, "t:fail");
  EXPECT_EQ(counts[1].second, 1u);
  injector.reset_counts();
  EXPECT_TRUE(injector.fire_counts().empty());
}

// ------------------------------------------------------------ taxonomy ----

TEST(ErrorTaxonomy, ExitCodeMapping) {
  EXPECT_EQ(exit_code_for(ErrorCode::kGeneric), 1);
  EXPECT_EQ(exit_code_for(ErrorCode::kUsage), 64);
  EXPECT_EQ(exit_code_for(ErrorCode::kNotFound), 66);
  EXPECT_EQ(exit_code_for(ErrorCode::kParse), 67);
  EXPECT_EQ(exit_code_for(ErrorCode::kCorruptArtifact), 68);
  EXPECT_EQ(exit_code_for(ErrorCode::kVersionSkew), 69);
  EXPECT_EQ(exit_code_for(ErrorCode::kFaultInjected), 70);
  EXPECT_EQ(exit_code_for(ErrorCode::kIo), 74);
}

TEST(ErrorTaxonomy, ErrorsCarryTheirCode) {
  EXPECT_EQ(Error("x").code(), ErrorCode::kGeneric);
  EXPECT_EQ(Error("x", ErrorCode::kVersionSkew).code(),
            ErrorCode::kVersionSkew);
  EXPECT_STREQ(error_code_name(ErrorCode::kCorruptArtifact),
               "corrupt-artifact");
}

// ---------------------------------------------------------- artifact IO ----

TEST(ArtifactIo, Crc32MatchesKnownVector) {
  EXPECT_EQ(util::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(util::crc32(""), 0u);
}

TEST(ArtifactIo, HeaderRoundTrips) {
  const std::string body = "hello artifact\n";
  const std::string line = util::format_artifact_header("trace", 2, body);
  const auto header = util::parse_artifact_header(line);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->kind, "trace");
  EXPECT_EQ(header->version, 2);
  EXPECT_EQ(header->crc, util::crc32(body));
  EXPECT_EQ(header->bytes, body.size());
}

TEST(ArtifactIo, HeaderParsingIsStrict) {
  // Not a drbw header at all: nullopt, not an error.
  EXPECT_FALSE(util::parse_artifact_header("A,x,1,2").has_value());
  EXPECT_FALSE(util::parse_artifact_header("{\"kind\": 1}").has_value());
  // A drbw header that is malformed, or lacks either checksum field:
  // typed parse error.  Only the line format_artifact_header writes parses.
  for (const char* bad :
       {"#drbw- v1", "#drbw-trace", "#drbw-trace vx", "#drbw-trace v0",
        "#drbw-trace v1 crc32=xyz", "#drbw-trace v1 bytes=12junk",
        "#drbw-trace v1 wat=1", "#drbw-trace v1", "#drbw-trace v2",
        "#drbw-trace v2 crc32=0000abcd",
        "#drbw-trace v2 bytes=4 crc32=0000abcd",
        "#drbw-trace v2 crc32=0x00abcd bytes=4",
        "#drbw-trace v2 crc32=0000abcd bytes=+4",
        "#drbw-trace v2 crc32=0000abcd bytes=4 wat=1"}) {
    EXPECT_EQ(code_of([&] { util::parse_artifact_header(bad); }),
              ErrorCode::kParse)
        << "header: " << bad;
  }
}

TEST(ArtifactIo, AtomicWriteNeverLeavesPartialArtifact) {
  namespace fs = std::filesystem;
  const std::string path = ::testing::TempDir() + "/atomic_artifact.txt";
  const std::string tmp = path + ".tmp";
  std::remove(path.c_str());
  std::remove(tmp.c_str());

  const std::string content = "0123456789abcdef0123456789abcdef\n";
  {
    // Injected crash between write and rename: the target path must not
    // appear, and the temp file holds only a prefix.
    ArmGuard guard("seed=1,artifact.write:short-write:1");
    EXPECT_EQ(code_of([&] { util::atomic_write_file(path, content); }),
              ErrorCode::kFaultInjected);
  }
  EXPECT_FALSE(fs::exists(path));
  ASSERT_TRUE(fs::exists(tmp));
  EXPECT_LT(fs::file_size(tmp), content.size());

  // Disarmed, the same write succeeds and the content is complete.
  util::atomic_write_file(path, content);
  EXPECT_EQ(read_all(path), content);

  // A crashed overwrite leaves the previous artifact fully intact.
  {
    ArmGuard guard("seed=1,artifact.write:short-write:1");
    EXPECT_EQ(code_of([&] {
                util::atomic_write_file(path, "replacement that crashes\n");
              }),
              ErrorCode::kFaultInjected);
  }
  EXPECT_EQ(read_all(path), content);
  std::remove(path.c_str());
  std::remove(tmp.c_str());
}

TEST(ArtifactIo, InjectedTraceTruncationIsDetectedOnLoad) {
  const std::string path = ::testing::TempDir() + "/truncated_save.csv";
  pebs::Trace trace;
  std::vector<pebs::MemorySample> samples;
  for (std::uint64_t i = 0; i < 20; ++i) {
    pebs::MemorySample s;
    s.address = 0x1000 + i * 8;
    s.level = pebs::MemLevel::kLocalDram;
    s.latency_cycles = 300.0f;
    s.cycle = i;
    samples.push_back(s);
  }
  trace.samples = std::move(samples);
  {
    ArmGuard guard("seed=5,trace.write:truncate:1");
    pebs::save_trace(path, trace);
  }
  // The header checksums the pristine body, so the injected truncation is
  // indistinguishable from real damage: strict load rejects it...
  EXPECT_EQ(code_of([&] { pebs::load_trace(path); }),
            ErrorCode::kCorruptArtifact);
  // ...and a lenient load recovers the intact prefix, reporting the damage.
  util::LoadStats stats;
  const pebs::Trace recovered =
      pebs::load_trace(path, util::LoadPolicy{util::LoadMode::kLenient}, &stats);
  EXPECT_FALSE(stats.checksum_ok);
  EXPECT_GT(recovered.samples.size(), 0u);
  EXPECT_LT(recovered.samples.size(), trace.samples.size());
  std::remove(path.c_str());
}

TEST(ArtifactIo, MissingInputGetsSiblingHint) {
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "/hint_dir";
  fs::create_directories(dir);
  { std::ofstream(dir + "/alpha_trace.csv") << "x"; }
  { std::ofstream(dir + "/beta_trace.csv") << "x"; }
  std::string message;
  EXPECT_EQ(code_of(
                [&] {
                  util::require_input_file(dir + "/gamma_trace.csv",
                                           "trace file");
                },
                &message),
            ErrorCode::kNotFound);
  EXPECT_NE(message.find("did you mean"), std::string::npos) << message;
  EXPECT_NE(message.find("alpha_trace.csv"), std::string::npos) << message;
  fs::remove_all(dir);
}

TEST(ArtifactIo, LoadPolicyFromName) {
  EXPECT_FALSE(util::load_policy_from_name("strict").lenient());
  EXPECT_TRUE(util::load_policy_from_name("lenient", 0.5).lenient());
  EXPECT_DOUBLE_EQ(util::load_policy_from_name("lenient", 0.5).max_bad_fraction,
                   0.5);
  EXPECT_EQ(code_of([] { util::load_policy_from_name("sometimes"); }),
            ErrorCode::kUsage);
}

// -------------------------------------------------------------- corpus ----

TEST(CorruptionCorpus, TruncatedTraceStrictRejectsLenientRecovers) {
  const std::string path = kDataDir + "/truncated_trace.csv";
  EXPECT_EQ(code_of([&] { pebs::load_trace(path); }),
            ErrorCode::kCorruptArtifact);
  util::LoadStats stats;
  const pebs::Trace recovered =
      pebs::load_trace(path, util::LoadPolicy{util::LoadMode::kLenient}, &stats);
  EXPECT_FALSE(stats.checksum_ok);
  EXPECT_EQ(recovered.events.size(), 1u);     // the A record survives
  EXPECT_GT(recovered.samples.size(), 0u);    // intact prefix recovered
  EXPECT_EQ(stats.records_quarantined, 1u);   // the cut-off line
  EXPECT_EQ(stats.records_seen, stats.records_ok + stats.records_quarantined);
}

TEST(CorruptionCorpus, BitflippedModelStrictRejectsLenientLoads) {
  const std::string path = kDataDir + "/bitflip_model.json";
  std::string message;
  EXPECT_EQ(code_of([&] { ml::Classifier::load(path); }, &message),
            ErrorCode::kCorruptArtifact);
  EXPECT_NE(message.find(path), std::string::npos) << message;
  // The flipped bit lands in a numeric literal, so the JSON still parses:
  // a lenient load tolerates the checksum and yields a usable model.
  const ml::Classifier model = ml::Classifier::load(
      path, util::LoadPolicy{util::LoadMode::kLenient});
  EXPECT_FALSE(model.feature_names().empty());
}

TEST(CorruptionCorpus, WrongVersionHeaderIsVersionSkewInBothModes) {
  const std::string path = kDataDir + "/wrong_version_trace.csv";
  std::string message;
  EXPECT_EQ(code_of([&] { pebs::load_trace(path); }, &message),
            ErrorCode::kVersionSkew);
  EXPECT_NE(message.find("v99"), std::string::npos) << message;
  EXPECT_EQ(code_of([&] {
              pebs::load_trace(path,
                               util::LoadPolicy{util::LoadMode::kLenient});
            }),
            ErrorCode::kVersionSkew);
}

TEST(CorruptionCorpus, EmptyFileIsRejectedInBothModes) {
  const std::string path = kDataDir + "/empty_trace.csv";
  EXPECT_EQ(code_of([&] { pebs::load_trace(path); }), ErrorCode::kParse);
  EXPECT_EQ(code_of([&] {
              pebs::load_trace(path,
                               util::LoadPolicy{util::LoadMode::kLenient});
            }),
            ErrorCode::kParse);
  // As a model it is equally unusable, and the error names the path.
  std::string message;
  EXPECT_EQ(code_of([&] { ml::Classifier::load(path); }, &message),
            ErrorCode::kParse);
  EXPECT_NE(message.find(path), std::string::npos) << message;
}

TEST(CorruptionCorpus, MidRecordEofStrictNamesTheLine) {
  const std::string path = kDataDir + "/midrecord_trace.csv";
  std::string message;
  EXPECT_EQ(code_of([&] { pebs::load_trace(path); }, &message),
            ErrorCode::kParse);
  // Path, 1-based line number of the cut-off record, and the arity problem.
  EXPECT_NE(message.find(path + ":9"), std::string::npos) << message;
  EXPECT_NE(message.find("fields"), std::string::npos) << message;

  util::LoadStats stats;
  const pebs::Trace recovered =
      pebs::load_trace(path, util::LoadPolicy{util::LoadMode::kLenient}, &stats);
  EXPECT_EQ(stats.records_seen, 8u);
  EXPECT_EQ(stats.records_quarantined, 1u);
  EXPECT_EQ(recovered.events.size(), 1u);
  EXPECT_EQ(recovered.samples.size(), 6u);
}

TEST(CorruptionCorpus, CsvLineShapesKeepTheirOutcomes) {
  // CRLF line ends and an unquoted label cut by a newline are parse errors
  // at the record's first line; a quoted label may span lines.
  std::string message;
  const std::string crlf = kDataDir + "/crlf_trace.csv";
  EXPECT_EQ(code_of([&] { pebs::load_trace(crlf); }, &message),
            ErrorCode::kParse);
  EXPECT_EQ(message, crlf + ":2: malformed number '8192\r'");
  const std::string split = kDataDir + "/split_label_trace.csv";
  EXPECT_EQ(code_of([&] { pebs::load_trace(split); }, &message),
            ErrorCode::kParse);
  EXPECT_EQ(message, split + ":2: record has 2 fields, expected 4");
  util::LoadStats stats;
  const pebs::Trace split_kept = pebs::load_trace(
      split, util::LoadPolicy{util::LoadMode::kLenient, 0.5}, &stats);
  EXPECT_EQ(stats.records_seen, 4u);
  EXPECT_EQ(stats.records_quarantined, 2u);
  EXPECT_EQ(split_kept.samples.size(), 2u);
  const pebs::Trace multi =
      pebs::load_trace(kDataDir + "/multiline_label_trace.csv");
  ASSERT_EQ(multi.events.size(), 2u);
  EXPECT_EQ(multi.events[0].site.label, "multi.c:7 grid, \"halo\"\nrows");
  EXPECT_EQ(multi.samples.size(), 3u);
}

TEST(CorruptionCorpus, QuarantineCountsAreExactAndStable) {
  const std::string path = kDataDir + "/malformed_records_trace.csv";
  util::LoadStats first;
  util::LoadStats second;
  const util::LoadPolicy lenient{util::LoadMode::kLenient};
  (void)pebs::load_trace(path, lenient, &first);
  (void)pebs::load_trace(path, lenient, &second);
  EXPECT_EQ(first.records_seen, 10u);
  EXPECT_EQ(first.records_quarantined, 2u);
  EXPECT_EQ(first.records_ok, 8u);
  EXPECT_EQ(second.records_quarantined, first.records_quarantined);
  EXPECT_EQ(second.records_ok, first.records_ok);
}

TEST(CorruptionCorpus, ShortBinaryBodyStrictRejectsLenientQuarantines) {
  // A v3 binary trace whose body was cut 300 bytes (10 samples) short, with
  // the header recomputed over the short body: the crc passes and only the
  // structural length check can catch the damage.
  const std::string path = kDataDir + "/short_binary_trace.bin";
  std::string message;
  EXPECT_EQ(code_of([&] { pebs::load_trace(path); }, &message),
            ErrorCode::kCorruptArtifact);
  EXPECT_NE(message.find(path), std::string::npos) << message;

  util::LoadStats first;
  util::LoadStats second;
  const util::LoadPolicy lenient{util::LoadMode::kLenient};
  (void)pebs::load_trace(path, lenient, &first);
  (void)pebs::load_trace(path, lenient, &second);
  EXPECT_EQ(first.records_seen, 69u);  // 9 events + 60 declared samples
  EXPECT_EQ(first.records_quarantined, 10u);
  EXPECT_EQ(first.records_ok, 59u);
  EXPECT_TRUE(first.checksum_ok);  // the header matches the short body
  EXPECT_EQ(second.records_quarantined, first.records_quarantined);
  EXPECT_EQ(second.records_ok, first.records_ok);
}

/// The committed v3 fixture still loads through the decoder, and gives the
/// samples its 30-byte records hold, read here field by field.
TEST(CorruptionCorpus, V3FixtureLoadsTheSameSamples) {
  const std::string path = kDataDir + "/short_binary_trace.bin";
  const std::string content = read_all(path);
  ASSERT_EQ(content.rfind("#drbw-trace v3 ", 0), 0u);
  const std::string body = content.substr(content.find('\n') + 1);
  const auto le = [&](std::size_t off, std::size_t bytes) {
    std::uint64_t v = 0;
    for (std::size_t i = bytes; i-- > 0;) {
      v = v << 8 | static_cast<unsigned char>(body[off + i]);
    }
    return v;
  };
  const std::size_t first =
      static_cast<std::size_t>(32 + le(24, 8) + le(8, 8) * 25);
  const std::size_t present = (body.size() - first) / 30;
  const pebs::Trace loaded =
      pebs::load_trace(path, util::LoadPolicy{util::LoadMode::kLenient});
  ASSERT_EQ(loaded.samples.size(), present);
  ASSERT_EQ(present, 50u);
  for (std::size_t i = 0; i < present; ++i) {
    const std::size_t at = first + i * 30;
    const pebs::MemorySample& s = loaded.samples[i];
    EXPECT_EQ(s.address, le(at, 8)) << i;
    EXPECT_EQ(s.cycle, le(at + 8, 8)) << i;
    EXPECT_EQ(static_cast<std::uint64_t>(s.cpu), le(at + 16, 4)) << i;
    EXPECT_EQ(s.tid, le(at + 20, 4)) << i;
    const auto bits = static_cast<std::uint32_t>(le(at + 24, 4));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(s.latency_cycles), bits) << i;
    EXPECT_EQ(static_cast<std::uint64_t>(s.level), le(at + 28, 1)) << i;
    EXPECT_EQ(s.is_write ? 1u : 0u, le(at + 29, 1)) << i;
  }
}

// Mapped loads: trace bodies are read through util::MappedFile, which
// treats a 0-byte file and a short file specially.  Each edge file keeps
// the exit code and lenient LoadStats the copying reader gave it.

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// Saves a binary trace (v4: 32-byte sample records) of 3 events and 100
/// samples to `path` and returns the file's bytes.
std::string write_binary_trace(const std::string& path) {
  pebs::Trace trace;
  for (std::uint64_t i = 0; i < 3; ++i) {
    trace.events.push_back(mem::AllocationEvent{
        mem::AllocationEvent::Kind::kAlloc, {"m.c:" + std::to_string(i)},
        0x100000 * (i + 1), 4096});
  }
  std::vector<pebs::MemorySample> samples;
  for (std::uint64_t i = 0; i < 100; ++i) {
    pebs::MemorySample s;
    s.address = 0x100000 + i * 64;
    s.level = pebs::MemLevel::kRemoteDram;
    s.latency_cycles = 500.0f;
    s.cycle = i;
    samples.push_back(s);
  }
  trace.samples = std::move(samples);
  pebs::SaveOptions save;
  save.format = pebs::TraceFormat::kBinary;
  pebs::save_trace(path, trace, save);
  return read_all(path);
}

TEST(MappedLoad, ZeroByteFileIsParseErrorInBothModes) {
  const std::string path = ::testing::TempDir() + "/mapped_zero_byte.bin";
  write_bytes(path, "");
  EXPECT_EQ(exit_code_for(code_of([&] { pebs::load_trace(path); })), 67);
  util::LoadStats stats;
  EXPECT_EQ(exit_code_for(code_of([&] {
              pebs::load_trace(path, util::LoadPolicy{util::LoadMode::kLenient},
                               &stats);
            })),
            67);
  EXPECT_EQ(stats.records_seen, 0u);
  EXPECT_TRUE(stats.checksum_ok);
  std::remove(path.c_str());
}

TEST(MappedLoad, HeaderOnlyFilesKeepTheirOutcomes) {
  const std::string path = ::testing::TempDir() + "/mapped_header_only.bin";
  const std::string full = write_binary_trace(path);
  const std::string header = full.substr(0, full.find('\n'));
  const util::LoadPolicy lenient{util::LoadMode::kLenient};
  // The header of a 100-sample body, with and without its newline: the
  // body fails its checksum, and a lenient load cannot find a prelude.
  for (const std::string& bytes : {header + "\n", header}) {
    write_bytes(path, bytes);
    EXPECT_EQ(exit_code_for(code_of([&] { pebs::load_trace(path); })), 68);
    util::LoadStats stats;
    EXPECT_EQ(exit_code_for(code_of(
                  [&] { pebs::load_trace(path, lenient, &stats); })),
              68);
    EXPECT_EQ(stats.records_seen, 0u);
    EXPECT_FALSE(stats.checksum_ok);
  }
  // A valid header over an empty v3 body: no prelude in either mode.
  write_bytes(path, util::format_artifact_header("trace", 3, "") + "\n");
  EXPECT_EQ(exit_code_for(code_of([&] { pebs::load_trace(path); })), 68);
  EXPECT_EQ(
      exit_code_for(code_of([&] { pebs::load_trace(path, lenient); })), 68);
  // A valid header over an empty v2 CSV body is an empty trace.
  write_bytes(path, util::format_artifact_header("trace", 2, "") + "\n");
  util::LoadStats stats;
  const pebs::Trace empty = pebs::load_trace(path, lenient, &stats);
  EXPECT_TRUE(empty.events.empty());
  EXPECT_TRUE(empty.samples.empty());
  EXPECT_EQ(stats.records_seen, 0u);
  EXPECT_TRUE(stats.checksum_ok);
  std::remove(path.c_str());
}

TEST(MappedLoad, TruncatedBinaryBodyStrictRejectsLenientQuarantines) {
  const std::string path = ::testing::TempDir() + "/mapped_truncated.bin";
  const std::string full = write_binary_trace(path);
  // Cut one and a half sample records off the end; the header still
  // declares the whole body.
  write_bytes(path, full.substr(0, full.size() - 48));
  std::string message;
  EXPECT_EQ(
      exit_code_for(code_of([&] { pebs::load_trace(path); }, &message)), 68);
  EXPECT_NE(message.find(path), std::string::npos) << message;
  util::LoadStats stats;
  const pebs::Trace recovered = pebs::load_trace(
      path, util::LoadPolicy{util::LoadMode::kLenient}, &stats);
  EXPECT_EQ(stats.records_seen, 103u);
  EXPECT_EQ(stats.records_ok, 101u);
  EXPECT_EQ(stats.records_quarantined, 2u);
  EXPECT_FALSE(stats.checksum_ok);
  EXPECT_EQ(recovered.events.size(), 3u);
  EXPECT_EQ(recovered.samples.size(), 98u);
  std::remove(path.c_str());
}

TEST(CorruptionCorpus, QuarantineCapEscalatesToCorruptArtifact) {
  const std::string path = kDataDir + "/malformed_records_trace.csv";
  // 2 of 10 records are bad (20%): a 10% cap must escalate.
  util::LoadPolicy tight{util::LoadMode::kLenient, 0.1};
  std::string message;
  EXPECT_EQ(code_of([&] { pebs::load_trace(path, tight); }, &message),
            ErrorCode::kCorruptArtifact);
  EXPECT_NE(message.find("2 of 10"), std::string::npos) << message;
}

// ----------------------------------------------------- json diagnostics ----

TEST(JsonDiagnostics, ParseErrorsCarryLineColumnAndToken) {
  std::string message;
  EXPECT_EQ(code_of([] { Json::parse("{\n  \"a\": 12,\n  \"b\": oops\n}"); },
                    &message),
            ErrorCode::kParse);
  EXPECT_NE(message.find("line 3:"), std::string::npos) << message;
  EXPECT_NE(message.find("oops"), std::string::npos) << message;

  EXPECT_EQ(code_of([] { Json::parse("[1, 2"); }, &message),
            ErrorCode::kParse);
  EXPECT_NE(message.find("line 1:"), std::string::npos) << message;
}

// ------------------------------------------------------- engine sites ----

sim::RunResult run_sim(std::uint64_t seed) {
  const auto machine = topology::Machine::xeon_e5_4650();
  mem::AddressSpace space(machine);
  const auto obj = space.allocate("fault.c:1 data", 16 << 20,
                                  mem::PlacementSpec::bind(0));
  std::vector<sim::SimThread> threads{{0, 0}};
  sim::Phase phase{"main",
                   {sim::ThreadWork{{sim::seq_read(obj, 200'000)}, 1.0}}};
  sim::EngineConfig config;
  config.seed = seed;
  sim::Engine engine(machine, space, config);
  return engine.run(threads, {phase});
}

TEST(EngineFaultSites, EpochFailThrowsTypedError) {
  ArmGuard guard("seed=1,engine.epoch:fail:1");
  std::string message;
  EXPECT_EQ(code_of([] { run_sim(7); }, &message), ErrorCode::kFaultInjected);
  EXPECT_NE(message.find("epoch"), std::string::npos) << message;
}

TEST(EngineFaultSites, SampleDropsAreDeterministicAndContentKeyed) {
  const std::size_t baseline = run_sim(7).samples.size();
  ASSERT_GT(baseline, 0u);
  ArmGuard guard("seed=11,pebs.sample:drop:0.5");
  const auto first = run_sim(7);
  const auto second = run_sim(7);
  EXPECT_LT(first.samples.size(), baseline);
  ASSERT_EQ(first.samples.size(), second.samples.size());
  for (std::size_t i = 0; i < first.samples.size(); ++i) {
    EXPECT_EQ(first.samples[i].address, second.samples[i].address);
    EXPECT_EQ(first.samples[i].cycle, second.samples[i].cycle);
  }
}

TEST(EngineFaultSites, SampleCorruptionFlipsAddressBits) {
  ArmGuard guard("seed=11,pebs.sample:corrupt:1");
  const auto corrupted = run_sim(7);
  fault::Injector::global().disarm();
  const auto clean = run_sim(7);
  ASSERT_EQ(corrupted.samples.size(), clean.samples.size());
  std::size_t changed = 0;
  for (std::size_t i = 0; i < clean.samples.size(); ++i) {
    if (corrupted.samples[i].address != clean.samples[i].address) {
      EXPECT_EQ(std::popcount(corrupted.samples[i].address ^
                              clean.samples[i].address),
                1);
      ++changed;
    }
  }
  EXPECT_EQ(changed, clean.samples.size());  // rate 1: every sample damaged
}

// ------------------------------------------------------ trace.read site ----

TEST(TraceReadSite, CorruptionQuarantinesDeterministically) {
  const std::string path = ::testing::TempDir() + "/read_fault_trace.csv";
  pebs::Trace trace;
  std::vector<pebs::MemorySample> samples;
  for (std::uint64_t i = 0; i < 40; ++i) {
    pebs::MemorySample s;
    s.address = 0x2000 + i * 64;
    s.level = i % 2 ? pebs::MemLevel::kRemoteDram : pebs::MemLevel::kLocalDram;
    s.latency_cycles = 600.0f;
    s.cycle = i * 10;
    samples.push_back(s);
  }
  trace.samples = std::move(samples);
  pebs::save_trace(path, trace);

  ArmGuard guard("seed=21,trace.read:corrupt:0.2");
  const util::LoadPolicy lenient{util::LoadMode::kLenient, 0.5};
  util::LoadStats first;
  util::LoadStats second;
  (void)pebs::load_trace(path, lenient, &first);
  (void)pebs::load_trace(path, lenient, &second);
  EXPECT_GT(first.records_quarantined, 0u);
  EXPECT_EQ(first.records_quarantined, second.records_quarantined);
  EXPECT_EQ(first.records_ok, second.records_ok);
  std::remove(path.c_str());
}

/// The XOR damage the site applies never maps a digit to a digit, so under
/// the trace field grammar every damaged sample record is rejected: none
/// loads as a silently different number (" 23" for "123", a write flag of
/// "!").  Lenient loads quarantine each one; strict loads fail as kParse
/// (exit 67) at the first damaged line.
TEST(TraceReadSite, EveryDamagedSampleIsQuarantined) {
  const std::string path = ::testing::TempDir() + "/read_fault_all.csv";
  pebs::Trace trace;
  std::vector<pebs::MemorySample> samples;
  for (std::uint32_t i = 0; i < 64; ++i) {
    pebs::MemorySample s;
    s.address = 10000 + i * 1111;
    s.cpu = static_cast<topology::CpuId>(i % 16);
    s.tid = i % 3;
    s.level = static_cast<pebs::MemLevel>(i % 6);
    s.latency_cycles = 1.5f * static_cast<float>(i) + 100.0f;
    s.is_write = i % 2 == 1;
    s.cycle = 1000000 + i * 13;
    samples.push_back(s);
  }
  trace.samples = std::move(samples);
  pebs::save_trace(path, trace);

  ArmGuard guard("seed=4,trace.read:corrupt:1");
  util::LoadStats stats;
  const pebs::Trace loaded = pebs::load_trace(
      path, util::LoadPolicy{util::LoadMode::kLenient, 1.0}, &stats);
  EXPECT_EQ(stats.records_seen, 64u);
  EXPECT_EQ(stats.records_quarantined, 64u);
  EXPECT_TRUE(loaded.samples.empty());

  std::string message;
  EXPECT_EQ(code_of([&] { pebs::load_trace(path); }, &message),
            ErrorCode::kParse);
  EXPECT_NE(message.find(path + ":2: "), std::string::npos) << message;
  EXPECT_EQ(exit_code_for(ErrorCode::kParse), 67);
  std::remove(path.c_str());
}

/// An armed site damages a CSV record's own bytes, whichever way the
/// record is read.  Over twenty fault seeds and a body of mixed record
/// shapes (quoted labels spanning lines, frees, blank lines, CRLF), the
/// lenient tallies, the fire count, the kept records and the strict error
/// are pinned as one CRC-32, taken when every record was read from its own
/// line.
TEST(TraceReadSite, ArmedCsvLoadsDecodeAsPinned) {
  const char* const levels[] = {"L1", "L2", "L3", "LFB", "LDR", "RDR"};
  std::string body;
  for (int i = 0; i < 48; ++i) {
    body += "S," + std::to_string(4096 + i * 64) + "," +
            std::to_string(i % 8) + ",1," + levels[i % 6] + "," +
            std::to_string(100 + 7 * i) + (i % 3 == 0 ? ".25" : "") + "," +
            (i % 2 == 0 ? "0" : "1") + "," + std::to_string(10 * i) +
            (i % 17 == 8 ? "\r\n" : "\n");
    if (i % 9 == 4) {
      body += "A,\"site \"\"" + std::to_string(i) + "\"\",\nnext\"," +
              std::to_string(4096 * i) + ",64\n";
    }
    if (i % 11 == 5) body += "\n  \n";
    if (i % 13 == 6) body += "F," + std::to_string(4096 * (i - 2)) + "\n";
  }
  const std::string path = ::testing::TempDir() + "/read_fault_pin.csv";
  util::write_versioned_artifact(path, "trace", 2, body);
  std::string lines;
  for (int seed = 1; seed <= 20; ++seed) {
    ArmGuard guard("seed=" + std::to_string(seed) + ",trace.read:corrupt:0.2");
    util::LoadStats stats;
    const pebs::Trace t = pebs::load_trace(
        path, util::LoadPolicy{util::LoadMode::kLenient, 1.0}, &stats);
    std::string kept;
    for (const mem::AllocationEvent& e : t.events) {
      kept += e.site.label + "," + std::to_string(e.base) + "," +
              std::to_string(e.size_bytes) + "\n";
    }
    for (const pebs::MemorySample& s : t.samples) {
      kept += std::to_string(s.address) + "," + std::to_string(s.cpu) + "," +
              std::to_string(static_cast<int>(s.level)) + "," +
              std::to_string(s.latency_cycles) + "," +
              std::to_string(s.is_write) + "," + std::to_string(s.cycle) +
              "\n";
    }
    std::uint64_t fired = 0;
    for (const auto& [site, count] : fault::Injector::global().fire_counts()) {
      fired += count;
    }
    std::string message;
    try {
      (void)pebs::load_trace(path);
    } catch (const Error& e) {
      message = std::string(e.what()).substr(path.size());
    }
    lines += std::to_string(seed) + ": seen=" +
             std::to_string(stats.records_seen) +
             " ok=" + std::to_string(stats.records_ok) +
             " quarantined=" + std::to_string(stats.records_quarantined) +
             " fired=" + std::to_string(fired) +
             " kept=" + std::to_string(util::crc32(kept)) + " strict" +
             message + "\n";
  }
  EXPECT_EQ(util::crc32(lines), 0xf401dd67u) << lines;
  std::remove(path.c_str());
}

/// Whether `got` is `want` with exactly one byte XORed by 0x11 (the site's
/// damage), compared as 32-byte object images.
bool damaged_once(const pebs::MemorySample& want,
                  const pebs::MemorySample& got) {
  const auto* a = reinterpret_cast<const unsigned char*>(&want);
  const auto* b = reinterpret_cast<const unsigned char*>(&got);
  std::size_t damaged = 0;
  for (std::size_t i = 0; i < sizeof(pebs::MemorySample); ++i) {
    if (a[i] == b[i]) continue;
    if ((a[i] ^ b[i]) != 0x11) return false;
    ++damaged;
  }
  return damaged == 1;
}

/// An armed "trace.read" site damages the record it decodes, so an armed
/// v4 load cannot view the mapping: each kept sample is the damaged copy,
/// not the clean bytes on disk.
TEST(TraceReadSite, ArmedBinaryLoadKeepsTheDamagedRecords) {
  const std::string path = ::testing::TempDir() + "/read_fault_v4.bin";
  write_binary_trace(path);
  const pebs::Trace clean = pebs::load_trace(path);
  ASSERT_EQ(clean.samples.size(), 100u);

  ArmGuard guard("seed=9,trace.read:corrupt:1");
  util::LoadStats stats;
  const pebs::Trace loaded = pebs::load_trace(
      path, util::LoadPolicy{util::LoadMode::kLenient, 1.0}, &stats);
  EXPECT_EQ(stats.records_seen, 103u);
  // Rate 1 damages every record: a damaged level, write flag, latency or
  // reserved byte is quarantined, and every other sample is kept damaged.
  std::size_t kept = 0;
  for (const pebs::MemorySample& want : clean.samples) {
    if (kept < loaded.samples.size() &&
        damaged_once(want, loaded.samples[kept])) {
      ++kept;
    }
  }
  EXPECT_EQ(kept, loaded.samples.size());
  EXPECT_GT(kept, 50u);  // 24 of 32 bytes never fail a check
  std::remove(path.c_str());
}

/// A plan naming the retired trace.shard.read/write sites still parses (old
/// scripts keep running) but arms nothing: a binary trace saves and loads
/// intact, and no site fires.
TEST(TraceReadSite, RetiredShardSitesNeverFire) {
  const std::string path = ::testing::TempDir() + "/retired_sites.bin";
  const std::string clean = write_binary_trace(path);
  fault::Injector::global().reset_counts();
  {
    ArmGuard guard("seed=5,trace.shard.read:fail:1,trace.shard.write:fail:1");
    const pebs::Trace loaded = pebs::load_trace(path);
    EXPECT_EQ(loaded.events.size(), 3u);
    EXPECT_EQ(loaded.samples.size(), 100u);
    pebs::SaveOptions save;
    save.format = pebs::TraceFormat::kBinary;
    pebs::save_trace(path, loaded, save);
    EXPECT_TRUE(fault::Injector::global().fire_counts().empty());
  }
  EXPECT_EQ(read_all(path), clean);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace drbw
