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
//   Records are parsed in place, in one pass over the body.  A sample or
//   free record is read from its first byte, bounded only by the body's
//   end: each field requires its ',' and no field takes in a '\n', so the
//   record's line ends at the '\n' after its last field (or at the body's
//   end), and no line is found before the record is read.  The sample
//   array is reserved for the most sample records the body could hold
//   (one per 17 bytes).  Any other line, a record that read refuses, and
//   the damaged copy an armed "trace.read" fault makes are read again
//   bounded by their line (a quoted label's lines included), through the
//   same field readers; that read names the failure, so messages, line
//   numbers and lenient tallies do not depend on which read took the
//   record.  An integer is a digit loop in the field's own width; the
//   digits past the digits10 that always fit are overflow-checked, so it
//   accepts exactly what std::from_chars accepts.
//   A latency written as digits[.digits] with a significand m <= 2^24 and
//   at most 10 fraction digits k is m / 10^k in one float division: m and
//   10^k are exact floats, so the quotient is correctly rounded, which is
//   the value std::from_chars returns (Clinger's fast path).  Any other
//   latency text (an exponent, a sign, more digits, inf/nan, a bare '.')
//   goes through std::from_chars.  The writer prints the latency at
//   precision 6, exactly as `ostream <<` does, so a CSV round trip keeps
//   six significant digits of it; of the latencies it writes, only -0 and
//   those in scientific notation (below 1e-4 or from 1e6 up) miss the fast
//   path.
//
//   Binary (v4) — little-endian fixed-width records behind a 32-byte
//   prelude; perfbench/ reports pebs.decode_binary_ns_per_sample and
//   pebs.decode_csv_ns_per_sample:
//     #drbw-trace v4 crc32=<hex> bytes=<n>
//     prelude   magic 'DRBW' u32 | samples pad u32 | event count u64 |
//               sample count u64 | label-blob bytes u64
//     labels    concatenated allocation-site labels (referenced by offset)
//     events    kind u8 | label_off u32 | label_len u32 | base u64 | size u64
//     pad       `samples pad` zero bytes (at most 15)
//     samples   addr u64 | cycle u64 | cpu u32 | tid u32 |
//               latency f32-bits u32 | level u8 | is_write u8 |
//               reserved u8[2] (zero)
//   A sample record is 32 bytes, exactly the MemorySample object on a
//   little-endian host.  The writer sizes the pad so that the samples
//   section starts 8-byte aligned in the *file* (header line included);
//   the mapping is page-aligned, so the records are then aligned in memory.
//   v3 is the same body with the prelude's pad word a zero flags word, no
//   pad, and 30-byte sample records without the reserved bytes; it still
//   loads, through the decoder below.  `drbw convert` rewrites it as v4.
//
// save_trace writes CSV v2 by default and binary v4 behind
// SaveOptions{.format = TraceFormat::kBinary}.  Every trace loads through
// load_trace, and a file without the checksummed header is rejected
// (kParse) before any record is read.
//
// File writes go through the atomic artifact writer, so a crashed or
// fault-injected save never leaves a partial trace at the target path.
//
// File loads map the artifact read-only (util::MappedFile) and validate it
// in place.  A v4 body whose every sample record passes its checks where it
// lies (level byte, write flag, latency finite and >= 0, reserved bytes
// zero, the cpu check) is not copied at all: the Trace's samples are a view
// of the mapping, and the Trace keeps the mapping alive.  The decoder fills
// an owned array instead, and the mapping is dropped before load_trace
// returns, when a record is quarantined, a "trace.read" fault is armed, the
// samples section is misaligned, or the body is v3 or CSV.  Damaged or
// short bodies fail validation with a typed Error either way.
//
// The record checks run once, at load, and a viewed trace reads the file's
// pages for as long as the Trace (or a copy of its samples) lives.  So
// another process that changes the file during that time reaches the run:
// bytes rewritten in place change the samples it reads (MemorySample admits
// every byte value of every field, so the values change but stay defined),
// and truncating the file can raise SIGBUS.
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

/// Highest trace artifact version this build reads, and the one it writes
/// for binary bodies.  Binary v3 bodies still load (decoded, not viewed).
inline constexpr int kTraceVersion = 4;
/// Version written for CSV bodies (the v2 checksummed line format).
inline constexpr int kTraceCsvVersion = 2;

struct Trace {
  std::vector<mem::AllocationEvent> events;
  /// Owned, or a view of the loaded file's mapping (see above).
  SampleArray samples;
};

/// Body encodings; name round-trip is exposed for the CLI's --format flag.
enum class TraceFormat {
  kCsv,     ///< v2 line-oriented body (default; human-greppable)
  kBinary,  ///< v4 fixed-width little-endian body (loads without a copy)
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
  /// Hardware threads of the machine the trace will be analyzed on; 0 when
  /// no machine is known.  A kept sample with a cpu at or past it fails the
  /// load with Error(kCorruptArtifact) in either policy, once parsing (and
  /// the quarantine cap) is done: records are not quarantined for it.
  int num_cpus = 0;
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
