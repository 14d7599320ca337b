// Sample-trace persistence.
//
// The real DR-BW collects PEBS records during the monitored run and
// analyzes them offline.  This module provides that decoupling for the
// reproduction: a run's sample stream plus its allocation events can be
// written to a trace artifact and re-analyzed later (or on a different
// machine description) without re-simulating.  Two body encodings share
// the checksummed artifact header (see util/artifact.hpp):
//
//   CSV (v2) — line-oriented, human-greppable:
//     #drbw-trace v2 crc32=<hex> bytes=<n>
//     A,<site>,<base>,<size>          allocation event
//     F,<base>                        free event
//     S,<addr>,<cpu>,<tid>,<level>,<latency>,<w>,<cycle>   sample
//
//   Field grammar (the one the binary decoder enforces):
//     integers  [0-9]+, and the value must fit the field's binary width
//               (cpu and tid u32; addr, cycle, base and size u64) — no
//               whitespace, sign or hex
//     level     one of L1 L2 L3 LFB LDR RDR
//     w         0 or 1
//     latency   a decimal float, finite and >= 0 (denormals included)
//     site      unquoted text without '"', or a quoted field in which ""
//               is one '"'; a quoted site may hold ',' and newlines, so a
//               record can span lines.  It is keyed (line number and
//               "trace.read" fault key) by its first line.
//   Records are parsed in place with std::from_chars.  The writer prints
//   the latency at precision 6, exactly as `ostream <<` does, so a CSV
//   round trip keeps six significant digits of it.
//
//   Binary (v3) — little-endian fixed-width records, several times faster
//   to load (field decoding is a byte copy, with no text to scan):
//     #drbw-trace v3 crc32=<hex> bytes=<n>
//     prelude   magic 'DRBW' u32 | flags u32 (0) | event count u64 |
//               sample count u64 | label-blob bytes u64
//     labels    concatenated allocation-site labels (referenced by offset)
//     events    kind u8 | label_off u32 | label_len u32 | base u64 | size u64
//     samples   addr u64 | cycle u64 | cpu u32 | tid u32 |
//               latency f32-bits u32 | level u8 | is_write u8
//
// save_trace writes CSV v2 by default and binary v3 behind
// SaveOptions{.format = TraceFormat::kBinary}.  Every trace loads through
// load_trace, and a file without the checksummed header is rejected
// (kParse) before any record is read.
//
// File writes go through the atomic artifact writer, so a crashed or
// fault-injected save never leaves a partial trace at the target path.
//
// File loads map the artifact read-only (util::MappedFile) and validate
// and decode it in place: the body is never copied, only the decoded
// records are.  The mapping is dropped before load_trace returns, and the
// Trace owns its samples.  One caveat
// of reading through a mapping: another process truncating the file while
// it loads can raise SIGBUS.  No file content can: damaged or short bodies
// fail validation with a typed Error as before.
//
// Loads run under a util::LoadPolicy: strict (the default) rejects the
// first malformed record with a typed Error naming the source, record, and
// offending token; lenient quarantines malformed records, reports counts
// through util::LoadStats and the drbw_trace_* obs counters, and escalates
// to Error(kCorruptArtifact) when the quarantined fraction exceeds the
// policy cap.  The loader threads the "trace.read" fault site, keyed by
// line / record ordinal so injection is deterministic.
#pragma once

#include <string>
#include <vector>

#include "drbw/mem/address_space.hpp"
#include "drbw/pebs/sample.hpp"
#include "drbw/util/artifact.hpp"

namespace drbw::pebs {

/// Highest trace artifact version this build reads (the binary body).
inline constexpr int kTraceVersion = 3;
/// Version written for CSV bodies (the v2 checksummed line format).
inline constexpr int kTraceCsvVersion = 2;

struct Trace {
  std::vector<mem::AllocationEvent> events;
  std::vector<MemorySample> samples;
};

/// Body encodings; name round-trip is exposed for the CLI's --format flag.
enum class TraceFormat {
  kCsv,     ///< v2 line-oriented body (default; human-greppable)
  kBinary,  ///< v3 fixed-width little-endian body (fast bulk loads)
};
const char* trace_format_name(TraceFormat format);
/// Parses "csv" / "binary"; throws Error(kUsage) otherwise.
TraceFormat trace_format_from_name(const std::string& name);

struct SaveOptions {
  TraceFormat format = TraceFormat::kCsv;
};

struct LoadOptions {
  util::LoadPolicy policy{};
  int max_version = kTraceVersion;   ///< reject newer headers (kVersionSkew)
};

/// Writes a trace; events come first so replay order matches collection.
/// The checksummed artifact (CSV v2 unless `options.format` says binary) is
/// written atomically and threads the "trace.write" fault site.
void save_trace(const std::string& path, const Trace& trace,
                const SaveOptions& options = {});

/// Loads a trace file; throws drbw::Error on malformed or wrong-version
/// input.  The policy overloads implement strict/lenient loading as
/// described in the header comment; `stats` (optional) receives record
/// accounting.
Trace load_trace(const std::string& path);
Trace load_trace(const std::string& path, const util::LoadPolicy& policy,
                 util::LoadStats* stats = nullptr);

/// Full-control load: CSV or binary body under a policy, with a version
/// ceiling (`max_version` < the header version throws Error(kVersionSkew)
/// naming the offending token).  `stats` is filled incrementally, so
/// callers see partial accounting even when a strict load throws.
Trace load_trace(const std::string& path, const LoadOptions& options,
                 util::LoadStats* stats = nullptr);

/// Level <-> trace-token conversion (exposed for tests).
const char* level_token(MemLevel level);
MemLevel level_from_token(const std::string& token);

}  // namespace drbw::pebs
