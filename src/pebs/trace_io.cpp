#include "drbw/pebs/trace_io.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string_view>
#include <utility>

#include "drbw/fault/injector.hpp"
#include "drbw/obs/flight_recorder.hpp"
#include "drbw/obs/metrics.hpp"
#include "drbw/util/csv.hpp"
#include "drbw/util/huge_pages.hpp"

namespace drbw::pebs {

namespace {

constexpr const char* kArtifactKind = "trace";

// Binary body geometry.  All integers are little-endian regardless of host
// byte order; the decoder below shifts bytes explicitly, and a v4 sample
// record is read in place only on a little-endian host.
constexpr std::uint32_t kBinaryMagic = 0x57425244u;  // "DRBW" read as LE u32
constexpr std::size_t kBinaryPreludeBytes = 32;
constexpr std::size_t kBinaryEventBytes = 25;
constexpr std::size_t kV3SampleBytes = 30;
constexpr std::size_t kV4SampleBytes = sizeof(MemorySample);
static_assert(kV4SampleBytes == 32);
/// Most pad bytes before a v4 samples section.  Eight choices of pad always
/// align the section, unless one of them adds a digit to the header's
/// `bytes=` field and so shifts the section by one more byte; the next eight
/// then do.
constexpr std::uint32_t kMaxSamplesPad = 15;
constexpr bool kLittleEndian = std::endian::native == std::endian::little;
constexpr std::uint8_t kMaxLevelByte =
    static_cast<std::uint8_t>(MemLevel::kRemoteDram);

/// Loader-side instruments.  Every count below keys off record content /
/// ordinals (never scheduling), so the totals are byte-identical at any
/// --jobs value (golden visibility).
struct TraceMetrics {
  obs::Counter& records_seen;
  obs::Counter& records_quarantined;
  obs::Counter& checksum_failures;
  obs::Counter& bytes_loaded;

  static TraceMetrics& get() {
    auto& reg = obs::Registry::global();
    static TraceMetrics m{
        reg.counter("drbw_trace_records_total",
                    "Trace records seen by the loader"),
        reg.counter("drbw_trace_records_quarantined_total",
                    "Malformed trace records quarantined by lenient loads"),
        reg.counter("drbw_trace_checksum_failures_total",
                    "Trace artifact bodies whose crc32 failed validation"),
        reg.counter("drbw_trace_bytes_loaded_total",
                    "Trace artifact body bytes parsed by the loader"),
    };
    return m;
  }
};

bool level_from_view(std::string_view token, MemLevel& out) {
  if (token.size() == 2 && token[0] == 'L' && token[1] >= '1' &&
      token[1] <= '3') {
    out = static_cast<MemLevel>(token[1] - '1');
  } else if (token == "LFB") {
    out = MemLevel::kLfb;
  } else if (token == "LDR") {
    out = MemLevel::kLocalDram;
  } else if (token == "RDR") {
    out = MemLevel::kRemoteDram;
  } else {
    return false;
  }
  return true;
}

}  // namespace

const char* level_token(MemLevel level) {
  switch (level) {
    case MemLevel::kL1: return "L1";
    case MemLevel::kL2: return "L2";
    case MemLevel::kL3: return "L3";
    case MemLevel::kLfb: return "LFB";
    case MemLevel::kLocalDram: return "LDR";
    case MemLevel::kRemoteDram: return "RDR";
  }
  return "?";
}

MemLevel level_from_token(const std::string& token) {
  MemLevel level = MemLevel::kL1;
  if (level_from_view(token, level)) return level;
  throw Error("unknown memory-level token '" + token + "' in trace",
              ErrorCode::kParse);
}

const char* trace_format_name(TraceFormat format) {
  return format == TraceFormat::kBinary ? "binary" : "csv";
}

TraceFormat trace_format_from_name(const std::string& name) {
  if (name == "csv") return TraceFormat::kCsv;
  if (name == "binary") return TraceFormat::kBinary;
  throw Error("trace format must be csv or binary, got '" + name + "'",
              ErrorCode::kUsage);
}

namespace {

/// Room for one rendered sample record: "S," five integers, a level token,
/// a latency, a write flag, seven separators and the newline come to 86
/// chars at most, and put_int may look up to 24 chars past the last field.
constexpr std::size_t kMaxSampleChars = 96;

/// Writes the decimal digits of `v` at `p` and returns their end; any
/// 64-bit value fits in the 24 chars it may use.
template <typename T>
char* put_int(char* p, T v) {
  return std::to_chars(p, p + 24, v).ptr;
}

/// Renders the CSV body into one reserved string.  The latency goes through
/// `chars_format::general` at precision 6, which is exactly what
/// `ostream << float` prints, so the bytes match the stream renderer's.
std::string render_csv(const Trace& trace) {
  std::string out;
  // Reserved pages are only touched as they are written, so reserving the
  // samples' upper bound costs no resident memory and saves every regrowth.
  out.reserve(trace.events.size() * 48 +
              trace.samples.size() * kMaxSampleChars);
  const auto append_int = [&out](auto v) {
    char digits[24];
    out.append(digits, std::to_chars(digits, digits + sizeof digits, v).ptr);
  };
  for (const mem::AllocationEvent& e : trace.events) {
    if (e.kind == mem::AllocationEvent::Kind::kAlloc) {
      out += "A,";
      out += CsvWriter::escape(e.site.label);
      out += ',';
      append_int(e.base);
      out += ',';
      append_int(e.size_bytes);
    } else {
      out += "F,";
      append_int(e.base);
    }
    out += '\n';
  }
  char buf[kMaxSampleChars];
  for (const MemorySample& s : trace.samples) {
    char* p = buf;
    *p++ = 'S';
    *p++ = ',';
    p = put_int(p, s.address);
    *p++ = ',';
    p = put_int(p, s.cpu);
    *p++ = ',';
    p = put_int(p, s.tid);
    *p++ = ',';
    for (const char* t = level_token(s.level); *t != '\0'; ++t) *p++ = *t;
    *p++ = ',';
    p = std::to_chars(p, p + 16, s.latency_cycles, std::chars_format::general,
                      6)
            .ptr;
    *p++ = ',';
    *p++ = s.is_write ? '1' : '0';
    *p++ = ',';
    p = put_int(p, s.cycle);
    *p++ = '\n';
    out.append(buf, p);
  }
  return out;
}

// The binary writer stores every field through these two: the value's
// little-endian bytes on any host (swapped first on a big-endian one), in
// one store.  Each returns the position past the field.
char* put_u32(char* p, std::uint32_t v) {
  if constexpr (!kLittleEndian) v = __builtin_bswap32(v);
  std::memcpy(p, &v, sizeof v);
  return p + sizeof v;
}

char* put_u64(char* p, std::uint64_t v) {
  if constexpr (!kLittleEndian) v = __builtin_bswap64(v);
  std::memcpy(p, &v, sizeof v);
  return p + sizeof v;
}

// The decoders read every binary field through these two.  Declared inline
// so GCC's unit-wide inlining budget, which moves with unrelated edits to
// this file, cannot leave them as a call per field in the sample loop.
inline std::uint32_t get_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

inline std::uint64_t get_u64(const unsigned char* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

std::uint32_t float_bits(float f) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &f, sizeof bits);
  return bits;
}

float bits_float(std::uint32_t bits) {
  float f = 0.0f;
  std::memcpy(&f, &bits, sizeof f);
  return f;
}

/// Pad bytes that put a samples section `offset` bytes into a body of
/// `body_bytes` (pad excluded) 8-byte aligned in the file, whose header line
/// and its newline come first.
std::uint32_t samples_pad(std::size_t offset, std::size_t body_bytes) {
  const auto file_offset = [&](std::uint32_t pad) {
    return util::artifact_header_size(kArtifactKind, kTraceVersion,
                                      body_bytes + pad) +
           1 + offset + pad;
  };
  std::uint32_t pad = 0;
  while (file_offset(pad) % alignof(MemorySample) != 0) ++pad;
  DRBW_CHECK(pad <= kMaxSamplesPad);
  return pad;
}

/// Renders the v4 binary body (see the layout in trace_io.hpp).  Labels are
/// deduplicated into one blob; events reference them by (offset, length).
std::string render_binary(const Trace& trace) {
  const std::size_t event_count = trace.events.size();
  const std::size_t sample_count = trace.samples.size();
  std::string labels;
  std::map<std::string_view, std::pair<std::uint32_t, std::uint32_t>> interned;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> refs(event_count);
  for (std::size_t i = 0; i < event_count; ++i) {
    const std::string& label = trace.events[i].site.label;
    const auto it = interned.find(label);
    if (it != interned.end()) {
      refs[i] = it->second;
      continue;
    }
    const auto ref = std::make_pair(static_cast<std::uint32_t>(labels.size()),
                                    static_cast<std::uint32_t>(label.size()));
    labels += label;
    interned.emplace(label, ref);
    refs[i] = ref;
  }
  const std::size_t samples_off =
      kBinaryPreludeBytes + labels.size() + event_count * kBinaryEventBytes;
  const std::uint32_t pad =
      samples_pad(samples_off, samples_off + sample_count * kV4SampleBytes);
  std::string out(samples_off + pad + sample_count * kV4SampleBytes, '\0');
  char* p = put_u32(out.data(), kBinaryMagic);
  p = put_u32(p, pad);
  p = put_u64(p, event_count);
  p = put_u64(p, sample_count);
  p = put_u64(p, labels.size());
  p = std::copy(labels.begin(), labels.end(), p);
  for (std::size_t i = 0; i < event_count; ++i) {
    const mem::AllocationEvent& e = trace.events[i];
    *p++ = static_cast<char>(e.kind);
    p = put_u32(p, refs[i].first);
    p = put_u32(p, refs[i].second);
    p = put_u64(p, e.base);
    p = put_u64(p, e.size_bytes);
  }
  p += pad;  // already zero
  for (const MemorySample& s : trace.samples) {
    p = put_u64(p, s.address);
    p = put_u64(p, s.cycle);
    p = put_u32(p, static_cast<std::uint32_t>(s.cpu));
    p = put_u32(p, s.tid);
    p = put_u32(p, float_bits(s.latency_cycles));
    *p++ = static_cast<char>(s.level);
    *p++ = static_cast<char>(s.is_write ? 1 : 0);
    *p++ = static_cast<char>(s.reserved[0]);
    *p++ = static_cast<char>(s.reserved[1]);
  }
  DRBW_CHECK(p == out.data() + out.size());
  return out;
}

/// Escalates a lenient load once the quarantined fraction clears the policy
/// cap.  Shared by the CSV and binary parsers.
void enforce_quarantine_cap(const std::string& source,
                            const util::LoadPolicy& policy,
                            const util::LoadStats& st) {
  if (!policy.lenient() ||
      st.quarantined_fraction() <= policy.max_bad_fraction) {
    return;
  }
  std::ostringstream os;
  os << source << ": " << st.records_quarantined << " of " << st.records_seen
     << " records are malformed, above the tolerated fraction "
     << policy.max_bad_fraction << " — artifact too damaged to trust";
  throw Error(os.str(), ErrorCode::kCorruptArtifact);
}

/// The first `c` in [from, end), or `end`.
const char* find_byte(const char* from, const char* end, char c) {
  const void* hit = std::memchr(from, c, static_cast<std::size_t>(end - from));
  return hit != nullptr ? static_cast<const char*>(hit) : end;
}

bool is_blank(std::string_view line) {
  for (const char c : line) {
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

/// The first kept sample whose cpu the machine lacks.  The decoders note
/// each kept sample as they append it and keep decoding; load_trace throws
/// after the parse, so a bad cpu is never quarantined and never outranks
/// a parse error or the quarantine cap.
class CpuCheck {
 public:
  /// `num_cpus` <= 0 means no machine is known: every cpu passes.
  explicit CpuCheck(int num_cpus)
      : num_cpus_(num_cpus),
        limit_(num_cpus > 0 ? static_cast<std::uint64_t>(num_cpus)
                            : std::uint64_t{1} << 32) {}

  /// Whether `cpu` passes; note() records nothing for such a cpu.
  bool admits(std::uint32_t cpu) const { return cpu < limit_; }

  /// `ordinal` is the sample's index in the decoded trace.
  void note(topology::CpuId cpu, std::size_t ordinal) {
    if (static_cast<std::uint32_t>(cpu) >= limit_ && !found_) [[unlikely]] {
      found_ = true;
      ordinal_ = ordinal;
      cpu_ = cpu;
    }
  }

  /// Throws Error(kCorruptArtifact) naming the first noted bad sample.
  void require_none(const std::string& source) const {
    if (!found_) return;
    throw Error(source + ": sample " + std::to_string(ordinal_) +
                    " has cpu " + std::to_string(cpu_) +
                    ", but the machine has " + std::to_string(num_cpus_) +
                    " hardware threads",
                ErrorCode::kCorruptArtifact);
  }

 private:
  int num_cpus_;
  std::uint64_t limit_;
  bool found_ = false;
  std::size_t ordinal_ = 0;
  topology::CpuId cpu_ = 0;
};

/// The closing quote of an allocation's quoted label when it opens on
/// `line` and closes on a later line before the body's `end`; nullptr
/// when the record is just `line`.  The closing quote is the first lone
/// '"', and the label's ',' follows it; a label without one is damaged and
/// its record stays one line, so a stray quote cannot run on into the
/// records after it.
const char* label_close_past(std::string_view line, const char* end) {
  if (line.size() < 3 || line.compare(0, 3, "A,\"") != 0) return nullptr;
  const char* q = line.data() + 3;
  for (;;) {
    q = find_byte(q, end, '"');
    if (q == end || q + 1 == end) return nullptr;
    if (q[1] != '"') break;
    q += 2;  // an escaped quote
  }
  return q[1] == ',' && q > line.data() + line.size() ? q : nullptr;
}

void require_fields(std::size_t have, std::size_t want) {
  if (have != want) {
    throw Error("record has " + std::to_string(have) + " fields, expected " +
                    std::to_string(want),
                ErrorCode::kParse);
  }
}

/// Field count of `rec` under the writer's quoting: a field that opens with
/// '"' runs to its closing quote ("" escapes one), so its commas do not
/// split it.
std::size_t count_fields(std::string_view rec) {
  std::size_t fields = 1;
  bool field_start = true;
  bool quoted = false;
  for (std::size_t i = 0; i < rec.size(); ++i) {
    const char c = rec[i];
    if (quoted) {
      if (c != '"') continue;
      if (i + 1 < rec.size() && rec[i + 1] == '"') {
        ++i;
      } else {
        quoted = false;
      }
    } else if (c == ',') {
      ++fields;
      field_start = true;
      continue;
    } else if (c == '"' && field_start) {
      quoted = true;
    }
    field_start = false;
  }
  return fields;
}

enum class FieldKind { kNumber, kLatency, kLevel, kWriteFlag, kLabel };

// The latency fast path's exactness argument is about one float division,
// so float arithmetic must be evaluated in float, not a wider format.
static_assert(FLT_EVAL_METHOD == 0);

/// Every integer up to 2^24 is an exact float.
constexpr std::uint32_t kMaxExactSignificand = std::uint32_t{1} << 24;

/// 10^k for k = 0..10, all exact floats (5^10 < 2^24).
constexpr float kPow10f[] = {1e0f, 1e1f, 1e2f, 1e3f, 1e4f, 1e5f,
                             1e6f, 1e7f, 1e8f, 1e9f, 1e10f};

/// The value of the decimal digit `c`; above 9 when `c` is not a digit.
constexpr unsigned digit_value(char c) {
  return static_cast<unsigned char>(c) - unsigned{'0'};
}

/// One record's fields, read left to right in place.  Each read parses its
/// field and then requires the ',' right after it (or, for the last field,
/// the record's end), so no separate split is needed.  No read takes in a
/// '\n' outside a quoted label, so a cursor bounded by the body's end reads
/// a record exactly as one bounded by the record's line does.  After a
/// failed read, `field` and `kind` name the field that failed.
struct FieldCursor {
  const char* p;
  /// The record's end, or the body's end for an in-place read.
  const char* end;
  /// Whether `end` is the body's end: then the record ends at the '\n'
  /// after its last field, or at `end`.
  bool in_place = false;
  const char* field = nullptr;
  FieldKind kind = FieldKind::kNumber;

  /// Requires the ',' after a field at `at`, or for the last field the
  /// record's end, where `p` then stays.
  bool separator(const char* at, bool last) {
    if (last) {
      if (at != end && !(in_place && *at == '\n')) return false;
      p = at;
      return true;
    }
    if (at == end || *at != ',') return false;
    p = at + 1;
    return true;
  }

  template <typename T>
  bool integer(T& out, bool last = false) {
    field = p;
    kind = FieldKind::kNumber;
    // [0-9]+ whose value fits T: exactly what std::from_chars accepts for
    // an unsigned type, leading zeros and any length included.  Any digits10
    // digits fit T, so only the digits past them check for overflow.
    constexpr auto kFits = std::numeric_limits<T>::digits10;
    const char* fits_end = end - p > kFits ? p + kFits : end;
    T value = 0;
    const char* at = p;
    for (; at != fits_end; ++at) {
      const unsigned digit = digit_value(*at);
      if (digit > 9) break;
      value = static_cast<T>(value * 10 + digit);
    }
    if (at == fits_end) {
      for (; at != end; ++at) {
        const unsigned digit = digit_value(*at);
        if (digit > 9) break;
        if (__builtin_mul_overflow(value, T{10}, &value) ||
            __builtin_add_overflow(value, static_cast<T>(digit), &value)) {
          return false;
        }
      }
    }
    if (at == p) return false;
    out = value;
    return separator(at, last);
  }

  bool latency(float& out) {
    field = p;
    kind = FieldKind::kLatency;
    if (exact_latency(out)) return true;
    const auto [at, ec] = std::from_chars(p, find_byte(p, end, '\n'), out);
    return ec == std::errc() && std::isfinite(out) && out >= 0.0f &&
           separator(at, false);
  }

  /// Clinger's fast path for `digits[.digits],`: with the significand m at
  /// most 2^24 and at most 10 fraction digits, m and 10^frac are exact
  /// floats, so one float division rounds m / 10^frac correctly, which is
  /// the value std::from_chars returns.  Any other text (exponents, signs,
  /// more digits, inf/nan, a bare '.') returns false and goes to from_chars.
  bool exact_latency(float& out) {
    std::uint32_t m = 0;
    const char* at = exact_digits(p, m);
    if (at == p || at == end) return false;
    std::size_t frac = 0;
    if (*at == '.') {
      const char* first = at + 1;
      at = exact_digits(first, m);
      frac = static_cast<std::size_t>(at - first);
      if (frac == 0 || frac >= std::size(kPow10f) || at == end) return false;
    }
    if (*at != ',') return false;
    out = static_cast<float>(m) / kPow10f[frac];
    p = at + 1;
    return true;
  }

  /// Folds the digits from `at` into `m` while `m` stays at most 2^24;
  /// returns the first character not taken.
  const char* exact_digits(const char* at, std::uint32_t& m) const {
    for (; at != end; ++at) {
      const unsigned digit = digit_value(*at);
      if (digit > 9) break;
      const std::uint32_t next = m * 10 + digit;
      if (next > kMaxExactSignificand) break;
      m = next;
    }
    return at;
  }

  /// A level token is two or three bytes, so only the ',' after one of
  /// those lengths is looked for: a token that long with no ',' in it is
  /// the one before the first ','.
  bool level(MemLevel& out) {
    field = p;
    kind = FieldKind::kLevel;
    std::size_t len = 0;
    if (end - p > 2 && p[2] == ',') {
      len = 2;
    } else if (end - p > 3 && p[3] == ',') {
      len = 3;
    } else {
      return false;
    }
    if (!level_from_view(std::string_view(p, len), out)) return false;
    p += len + 1;
    return true;
  }

  bool write_flag(std::uint8_t& out) {
    field = p;
    kind = FieldKind::kWriteFlag;
    if (end - p < 2 || (p[0] != '0' && p[0] != '1') || p[1] != ',') {
      return false;
    }
    out = p[0] == '1';
    p += 2;
    return true;
  }

  /// An allocation label: unquoted text holding no '"', or a quoted field
  /// whose "" pairs are unescaped into `scratch`.
  bool label(std::string& scratch, std::string_view& out) {
    field = p;
    kind = FieldKind::kLabel;
    if (p == end || *p != '"') {
      const char* at = find_byte(p, end, ',');
      if (at == end || std::find(p, at, '"') != at) return false;
      out = std::string_view(p, static_cast<std::size_t>(at - p));
      p = at + 1;
      return true;
    }
    scratch.clear();
    for (const char* q = p + 1;;) {
      const auto* quote = static_cast<const char*>(
          std::memchr(q, '"', static_cast<std::size_t>(end - q)));
      if (quote == nullptr) return false;
      scratch.append(q, quote);
      if (quote + 1 == end || quote[1] != '"') {
        out = scratch;
        return separator(quote + 1, false);
      }
      scratch += '"';
      q = quote + 2;
    }
  }
};

/// Throws the Error(kParse) for a record whose read failed at `c`: an arity
/// mismatch when the record has the wrong field count, else the failed
/// field with its text.  Off the hot path, so it may rescan the record.
[[noreturn]] void reject(std::string_view rec, std::size_t want,
                         const FieldCursor& c) {
  require_fields(count_fields(rec), want);
  const auto* at = static_cast<const char*>(
      std::memchr(c.field, ',', static_cast<std::size_t>(c.end - c.field)));
  const std::string token(c.field, at == nullptr ? c.end : at);
  switch (c.kind) {
    case FieldKind::kNumber:
      throw Error("malformed number '" + token + "'", ErrorCode::kParse);
    case FieldKind::kLatency:
      throw Error("malformed latency '" + token + "'", ErrorCode::kParse);
    case FieldKind::kLevel:
      throw Error("unknown memory-level token '" + token + "' in trace",
                  ErrorCode::kParse);
    case FieldKind::kWriteFlag:
      throw Error("malformed write flag '" + token + "'", ErrorCode::kParse);
    case FieldKind::kLabel:
      break;
  }
  throw Error("malformed site label '" + token + "'", ErrorCode::kParse);
}

/// Reads CSV records into events and samples with one set of field
/// readers, bounded by the body's end (read_in_place) or by the record's
/// line (read).  Only a quoted allocation label is ever copied, into one
/// reused buffer; every other field parses in place.
class RecordReader {
 public:
  RecordReader(CpuCheck& cpus, std::vector<mem::AllocationEvent>& events,
               std::vector<MemorySample>& samples)
      : cpus_(cpus), events_(events), samples_(samples) {}

  /// Whether the record at `rec` may be read in place: a sample or a free,
  /// neither of which can span lines.
  static bool in_place_kind(const char* rec, const char* end) {
    return end - rec >= 2 && rec[1] == ',' && (rec[0] == 'S' || rec[0] == 'F');
  }

  /// Reads the in_place_kind record at `rec` with no line bound but the
  /// body's `end`.  Returns the position past its line (its '\n', or
  /// `end`), or nullptr, having appended nothing, when a field read fails:
  /// the caller then reads the record again bounded by its line, which
  /// names the failure.
  const char* read_in_place(const char* rec, const char* end) {
    FieldCursor c{rec + 2, end, true};
    if (!read_fields(rec[0], c)) return nullptr;
    return c.p == end ? end : c.p + 1;
  }

  /// Appends the non-blank record `rec`, the whole of its line (or lines,
  /// for a quoted label that spans them); throws Error(kParse) naming the
  /// offending token (the caller prefixes source and line).
  void read(std::string_view rec) {
    if (rec.size() > 1 && rec[1] != ',') {
      throw Error("unknown record kind '" +
                      std::string(rec.substr(0, rec.find(','))) + "'",
                  ErrorCode::kParse);
    }
    FieldCursor c{rec.data() + std::min<std::size_t>(rec.size(), 2),
                  rec.data() + rec.size()};
    const std::size_t fields = rec[0] == 'S'   ? 8
                               : rec[0] == 'A' ? 4
                               : rec[0] == 'F' ? 2
                                               : 0;
    if (fields == 0) {
      throw Error("unknown record kind '" + std::string(rec.substr(0, 1)) +
                      "'",
                  ErrorCode::kParse);
    }
    if (!read_fields(rec[0], c)) reject(rec, fields, c);
  }

 private:
  /// Reads the fields of a `kind` record from `c` and appends it; false,
  /// with nothing appended, when a field read fails.
  bool read_fields(char kind, FieldCursor& c) {
    switch (kind) {
      case 'S': {
        MemorySample s;
        std::uint32_t cpu = 0;
        if (!(c.integer(s.address) && c.integer(cpu) && c.integer(s.tid) &&
              c.level(s.level) && c.latency(s.latency_cycles) &&
              c.write_flag(s.is_write) && c.integer(s.cycle, true))) {
          return false;
        }
        s.cpu = static_cast<topology::CpuId>(cpu);
        cpus_.note(s.cpu, samples_.size());
        samples_.push_back(s);
        return true;
      }
      case 'A': {
        std::string_view label;
        std::uint64_t base = 0;
        std::uint64_t size = 0;
        if (!(c.label(label_, label) && c.integer(base) &&
              c.integer(size, true))) {
          return false;
        }
        events_.push_back(mem::AllocationEvent{
            mem::AllocationEvent::Kind::kAlloc, {std::string(label)}, base,
            size});
        return true;
      }
      case 'F': {
        std::uint64_t base = 0;
        if (!c.integer(base, true)) return false;
        events_.push_back(mem::AllocationEvent{
            mem::AllocationEvent::Kind::kFree, {""}, base, 0});
        return true;
      }
      default:
        return false;
    }
  }

  CpuCheck& cpus_;
  std::vector<mem::AllocationEvent>& events_;
  std::vector<MemorySample>& samples_;
  std::string label_;
};

/// The shortest sample record, "S,0,0,0,L1,0,0,0", and its '\n'.
constexpr std::size_t kMinSampleLineBytes = 17;

/// Samples in one huge page.
constexpr std::size_t kSamplesPerHugePage =
    util::kHugePageBytes / sizeof(MemorySample);

/// Advises the first whole huge page of `samples`' buffer past its next
/// sample, before any sample lands in it, when the `body_left` bytes would
/// fill it even at kMaxSampleChars per line, more than any sample line the
/// writer makes.  Returns the sample count at which to advise the page after it,
/// or SIZE_MAX once the body left is too short: the samples past that stay
/// on 4 KiB pages, so the last huge page they reach is never one only
/// partly written but wholly resident.
std::size_t advise_next_huge_page(const std::vector<MemorySample>& samples,
                                  std::size_t body_left) {
  const auto next =
      reinterpret_cast<std::uintptr_t>(samples.data() + samples.size());
  const std::uintptr_t page_end =
      ((next + util::kHugePageBytes - 1) & ~(util::kHugePageBytes - 1)) +
      util::kHugePageBytes;
  const std::size_t fill = (page_end - next) / sizeof(MemorySample);
  if (body_left / kMaxSampleChars < fill ||
      samples.size() + fill > samples.capacity()) {
    return std::numeric_limits<std::size_t>::max();
  }
  util::advise_huge_pages(samples.data() + samples.size(), page_end - next);
  return samples.size() + kSamplesPerHugePage;
}

/// Parses the records of a CSV `body` under `policy`.  `source` names the
/// file in every error, and line numbers count the header line, so messages
/// point at real file lines.  A record is keyed (its line number and its
/// "trace.read" fault key) by its first line; only a quoted allocation
/// label may run on past it.
///
/// A sample or free record is read in place, bounded only by the body's
/// end, and its line ends where its last field does.  Every other line, a
/// record the in-place read refuses and the damaged copy of an armed
/// "trace.read" fault are read bounded by their line, through the same
/// field readers, which also name a refused record's failure.
Trace parse_records(std::string_view body, const std::string& source,
                    const util::LoadPolicy& policy, util::LoadStats* stats,
                    CpuCheck& cpus) {
  Trace trace;
  util::LoadStats local;
  util::LoadStats& st = stats != nullptr ? *stats : local;
  TraceMetrics& metrics = TraceMetrics::get();
  // One batched add instead of a per-record atomic increment, made on every
  // way out so a strict load that throws still counts what it saw.
  struct SeenTally {
    obs::Counter& counter;
    std::size_t seen = 0;
    ~SeenTally() { counter.add(seen); }
  } tally{metrics.records_seen};
  std::vector<MemorySample> samples;
  // The most sample records the body can hold, the last one without its
  // '\n'.  Capacity never written costs no resident memory.
  samples.reserve((body.size() + 1) / kMinSampleLineBytes);
  std::size_t advise_at = 0;
  const bool faults_armed = fault::armed();
  RecordReader reader(cpus, trace.events, samples);
  std::string damaged;
  const char* p = body.data();
  const char* const end = p + body.size();
  std::size_t line_no = 1;  // the header
  while (p != end) {
    if (samples.size() == advise_at) [[unlikely]] {
      advise_at =
          advise_next_huge_page(samples, static_cast<std::size_t>(end - p));
    }
    const std::size_t key = ++line_no;
    // Fault site "trace.read": deterministically damage this record (keyed
    // by its line number, so the decision is identical at any --jobs count).
    // The site is asked once per non-blank record, before it is read: here
    // for a record that may be read in place, below for any other.
    const auto fires = [&] {
      return faults_armed && fault::should_inject(
                                 "trace.read", fault::Kind::kCorruptField, key);
    };
    const bool in_place = RecordReader::in_place_kind(p, end);
    bool damage = in_place && fires();
    if (in_place && !damage) {
      if (const char* next = reader.read_in_place(p, end)) {
        ++st.records_seen;
        ++st.records_ok;
        ++tally.seen;
        p = next;
        continue;
      }
    }
    const char* eol = find_byte(p, end, '\n');
    std::string_view rec(p, static_cast<std::size_t>(eol - p));
    if (const char* close = label_close_past(rec, end)) {
      const char* last_eol = find_byte(close, end, '\n');
      line_no += static_cast<std::size_t>(std::count(eol, last_eol, '\n'));
      eol = last_eol;
      rec = std::string_view(p, static_cast<std::size_t>(eol - p));
    }
    p = eol == end ? end : eol + 1;
    if (is_blank(rec)) continue;
    ++st.records_seen;
    ++tally.seen;
    if (!in_place) damage = fires();
    if (damage) {
      const std::uint64_t bit = fault::corrupt_bits("trace.read", key, 0);
      damaged.assign(rec);
      const std::size_t at = static_cast<std::size_t>(bit % damaged.size());
      damaged[at] = static_cast<char>(damaged[at] ^ 0x11);
      rec = damaged;
    }
    try {
      reader.read(rec);
      ++st.records_ok;
    } catch (const Error& e) {
      if (!policy.lenient()) {
        throw Error(source + ":" + std::to_string(key) + ": " + e.what(),
                    e.code());
      }
      ++st.records_quarantined;
      metrics.records_quarantined.add(1);
      // Post-mortem breadcrumb: which source line was quarantined.  Keyed by
      // content (line number), so flight dumps stay jobs-independent.
      obs::flight().note("quarantine", source, key);
    }
  }
  enforce_quarantine_cap(source, policy, st);
  trace.samples = std::move(samples);
  return trace;
}

/// Decodes one binary event record; throws Error(kParse) on an invalid
/// field.  `label_blob` is the label region the (offset, length) reference
/// must fall inside.
mem::AllocationEvent parse_binary_event(const unsigned char* p,
                                        std::string_view label_blob,
                                        std::size_t ordinal) {
  const std::uint8_t kind = p[0];
  if (kind > 1) {
    throw Error("event record #" + std::to_string(ordinal) +
                    ": unknown kind byte " + std::to_string(kind),
                ErrorCode::kParse);
  }
  const std::uint32_t off = get_u32(p + 1);
  const std::uint32_t len = get_u32(p + 5);
  if (off > label_blob.size() || len > label_blob.size() - off) {
    throw Error("event record #" + std::to_string(ordinal) +
                    ": label reference [" + std::to_string(off) + ", +" +
                    std::to_string(len) + ") falls outside the label blob",
                ErrorCode::kParse);
  }
  mem::AllocationEvent e;
  e.kind = static_cast<mem::AllocationEvent::Kind>(kind);
  e.site.label = std::string(label_blob.substr(off, len));
  e.base = get_u64(p + 9);
  e.size_bytes = get_u64(p + 17);
  return e;
}

// The rules a binary sample record's fields must meet, one predicate each.
// The in-place check of a v4 samples section and the decoder both apply
// them through sample_record_ok.
inline bool level_byte_ok(const unsigned char* p) {
  return p[28] <= kMaxLevelByte;
}
inline bool write_flag_ok(const unsigned char* p) { return p[29] <= 1; }
/// Finite and >= 0, -0 included (NaN fails both compares).
inline bool latency_ok(const unsigned char* p) {
  const float latency = bits_float(get_u32(p + 24));
  return latency >= 0.0f && latency <= std::numeric_limits<float>::max();
}
inline bool reserved_ok(const unsigned char* p) {
  return (p[30] | p[31]) == 0;
}

/// Whether the sample record at `p` meets every field rule; a v3 record has
/// no reserved bytes.
inline bool sample_record_ok(const unsigned char* p, bool v4) {
  return level_byte_ok(p) && write_flag_ok(p) && latency_ok(p) &&
         (!v4 || reserved_ok(p));
}

/// Throws Error(kParse) naming the first rule the sample record at `p`
/// breaks.
[[noreturn, gnu::cold]] void throw_bad_sample(const unsigned char* p,
                                              std::size_t ordinal) {
  std::string what = "sample record #" + std::to_string(ordinal);
  if (!level_byte_ok(p)) {
    what += ": unknown memory-level byte " + std::to_string(p[28]);
  } else if (!write_flag_ok(p)) {
    what += ": malformed write flag " + std::to_string(p[29]);
  } else if (!latency_ok(p)) {
    what += ": malformed latency bits";
  } else {
    what += ": reserved bytes are not zero";
  }
  throw Error(what, ErrorCode::kParse);
}

/// Decodes one binary sample record; throws Error(kParse) on a record that
/// breaks a field rule.  Always inlined: it runs once per sample in
/// parse_binary's loop, and GCC's own choice here depends on how large the
/// enclosing function has grown by inlining, which moves with unrelated
/// edits to this file.
[[gnu::always_inline]] inline MemorySample parse_binary_sample(
    const unsigned char* p, std::size_t ordinal, bool v4) {
  if (!sample_record_ok(p, v4)) [[unlikely]] {
    throw_bad_sample(p, ordinal);
  }
  MemorySample s;
  s.address = get_u64(p);
  s.cycle = get_u64(p + 8);
  s.cpu = static_cast<topology::CpuId>(get_u32(p + 16));
  s.tid = get_u32(p + 20);
  s.latency_cycles = bits_float(get_u32(p + 24));
  s.level = static_cast<MemLevel>(p[28]);
  s.is_write = p[29];
  return s;
}

/// Whether every v4 sample record at `records` meets sample_record_ok, read
/// where it lies; `max_cpu` receives the largest cpu.  The loop folds the
/// verdicts into one flag with no early exit, since a damaged section is
/// decoded again anyway to name its first bad record.
bool v4_samples_valid(const unsigned char* records, std::size_t count,
                      std::uint32_t& max_cpu) {
  bool ok = true;
  std::uint32_t cpu_max = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const unsigned char* p = records + i * kV4SampleBytes;
    ok &= sample_record_ok(p, true);
    cpu_max = std::max(cpu_max, get_u32(p + 16));
  }
  max_cpu = cpu_max;
  return ok;
}

/// Parses a v3 or v4 binary body under `policy`.  Record ordinals are keyed
/// the way CSV line numbers would be for the same trace (events start at 2,
/// samples follow), so one fault spec damages the same logical record in
/// either format.  In lenient mode a truncated tail quarantines the missing
/// records against the declared counts, so stats are stable across loads.
/// A v4 body whose sample records are all present, aligned in memory and
/// valid, with no fault armed, yields samples that view the body where it
/// lies, kept alive by `mapping`; any other body is decoded into an owned
/// array.
Trace parse_binary(std::string_view body, int version,
                   const std::string& source, const util::LoadPolicy& policy,
                   util::LoadStats* stats, CpuCheck& cpus,
                   const std::shared_ptr<const util::MappedFile>& mapping) {
  util::LoadStats local;
  util::LoadStats& st = stats != nullptr ? *stats : local;
  TraceMetrics& metrics = TraceMetrics::get();
  const auto* base = reinterpret_cast<const unsigned char*>(body.data());
  const bool v4 = version >= 4;
  const std::size_t sample_bytes = v4 ? kV4SampleBytes : kV3SampleBytes;
  if (body.size() < kBinaryPreludeBytes) {
    throw Error(source + ": binary trace prelude is " +
                    std::to_string(body.size()) + " bytes, expected " +
                    std::to_string(kBinaryPreludeBytes) +
                    " — artifact is truncated or corrupt",
                ErrorCode::kCorruptArtifact);
  }
  if (get_u32(base) != kBinaryMagic) {
    throw Error(source + ": binary trace magic mismatch (body is not a v" +
                    std::to_string(version) + " trace encoding)",
                ErrorCode::kParse);
  }
  // v3's flags word is always 0; v4 keeps the samples pad there.
  const std::uint32_t pad = get_u32(base + 4);
  if (pad > (v4 ? kMaxSamplesPad : 0)) {
    throw Error(source + (v4 ? ": unsupported binary trace samples pad "
                             : ": unsupported binary trace flags ") +
                    std::to_string(pad),
                ErrorCode::kParse);
  }
  const std::uint64_t event_count = get_u64(base + 8);
  const std::uint64_t sample_count = get_u64(base + 16);
  const std::uint64_t label_bytes = get_u64(base + 24);
  // Declared counts beyond what any body of this size could hold mean the
  // prelude itself is damaged — unrecoverable in either mode (and the guard
  // bounds the quarantine loops below against absurd counts).
  if (event_count > body.size() || sample_count > body.size() ||
      label_bytes > body.size()) {
    throw Error(source + ": binary trace prelude declares more records than "
                         "the body could hold — prelude is corrupt",
                ErrorCode::kCorruptArtifact);
  }
  const std::size_t events_off = kBinaryPreludeBytes +
                                 static_cast<std::size_t>(label_bytes);
  const std::size_t pad_off =
      events_off + static_cast<std::size_t>(event_count) * kBinaryEventBytes;
  const std::size_t samples_off = pad_off + pad;
  const std::size_t expected =
      samples_off + static_cast<std::size_t>(sample_count) * sample_bytes;
  if (body.size() != expected && !policy.lenient()) {
    throw Error(source + ": binary trace body is " +
                    std::to_string(body.size()) + " bytes, expected " +
                    std::to_string(expected) +
                    " — artifact is truncated or corrupt",
                ErrorCode::kCorruptArtifact);
  }
  // The pad belongs to the prelude's geometry: damage there cannot be
  // quarantined as a record.
  for (std::size_t i = pad_off; i < std::min(samples_off, body.size()); ++i) {
    if (base[i] != 0) {
      throw Error(source + ": binary trace samples pad holds non-zero bytes",
                  ErrorCode::kParse);
    }
  }
  const bool labels_ok = events_off <= body.size();
  const std::string_view label_blob(
      body.data() + kBinaryPreludeBytes,
      labels_ok ? static_cast<std::size_t>(label_bytes) : 0);
  std::size_t events_avail = 0;
  std::size_t samples_avail = 0;
  if (labels_ok) {
    events_avail = std::min<std::uint64_t>(
        event_count, (body.size() - events_off) / kBinaryEventBytes);
    if (body.size() >= samples_off) {
      samples_avail = std::min<std::uint64_t>(
          sample_count, (body.size() - samples_off) / sample_bytes);
    }
  }
  Trace trace;
  trace.events.reserve(events_avail);
  const bool faults_armed = fault::armed();
  unsigned char scratch[kV4SampleBytes];
  static_assert(sizeof scratch >= kBinaryEventBytes);
  // Returns the record bytes to decode: the mapped body bytes, or a locally
  // damaged copy when the "trace.read" corrupt fault fires for this key.
  const auto record_bytes = [&](const unsigned char* p, std::size_t nbytes,
                                std::uint64_t key) -> const unsigned char* {
    if (!faults_armed ||
        !fault::should_inject("trace.read", fault::Kind::kCorruptField, key)) {
      return p;
    }
    std::memcpy(scratch, p, nbytes);
    const std::uint64_t bit = fault::corrupt_bits("trace.read", key, 0);
    scratch[bit % nbytes] ^= 0x11;
    return scratch;
  };
  const auto quarantine = [&](const Error& e, std::uint64_t key) {
    if (!policy.lenient()) {
      throw Error(source + ": " + e.what(), e.code());
    }
    ++st.records_quarantined;
    metrics.records_quarantined.add(1);
    obs::flight().note("quarantine", source, key);
  };
  // One batched add instead of a per-record atomic increment: with 1M+
  // samples per trace the counter traffic is measurable in the load path.
  metrics.records_seen.add(event_count + sample_count);
  for (std::uint64_t i = 0; i < event_count; ++i) {
    const std::uint64_t key = 2 + i;  // the CSV line this record would be on
    ++st.records_seen;
    if (i >= events_avail) {
      quarantine(Error("event record #" + std::to_string(i) +
                           ": missing from truncated body",
                       ErrorCode::kCorruptArtifact),
                 key);
      continue;
    }
    try {
      trace.events.push_back(parse_binary_event(
          record_bytes(base + events_off + i * kBinaryEventBytes,
                       kBinaryEventBytes, key),
          label_blob, static_cast<std::size_t>(i)));
      ++st.records_ok;
    } catch (const Error& e) {
      quarantine(e, key);
    }
  }
  const unsigned char* records = base + samples_off;
  std::uint32_t max_cpu = 0;
  if (kLittleEndian && v4 && !faults_armed && samples_avail == sample_count &&
      reinterpret_cast<std::uintptr_t>(records) % alignof(MemorySample) ==
          0 &&
      v4_samples_valid(records, samples_avail, max_cpu)) {
    // Each record is a valid MemorySample object representation (checked
    // above: a bool byte of 0 or 1, a defined level, no padding), read in
    // place the way any file mapping of trivially copyable records is.
    const auto* view = reinterpret_cast<const MemorySample*>(records);
    if (!cpus.admits(max_cpu)) {
      for (std::size_t i = 0; i < samples_avail; ++i) cpus.note(view[i].cpu, i);
    }
    st.records_seen += samples_avail;
    st.records_ok += samples_avail;
    enforce_quarantine_cap(source, policy, st);
    trace.samples = SampleArray(mapping, view, samples_avail);
    return trace;
  }
  std::vector<MemorySample> samples;
  util::reserve_huge(samples, samples_avail);
  for (std::uint64_t i = 0; i < sample_count; ++i) {
    const std::uint64_t key = 2 + event_count + i;
    ++st.records_seen;
    if (i >= samples_avail) {
      quarantine(Error("sample record #" + std::to_string(i) +
                           ": missing from truncated body",
                       ErrorCode::kCorruptArtifact),
                 key);
      continue;
    }
    try {
      samples.push_back(parse_binary_sample(
          record_bytes(records + i * sample_bytes, sample_bytes, key),
          static_cast<std::size_t>(i), v4));
      cpus.note(samples.back().cpu, samples.size() - 1);
      ++st.records_ok;
    } catch (const Error& e) {
      quarantine(e, key);
    }
  }
  enforce_quarantine_cap(source, policy, st);
  trace.samples = std::move(samples);
  return trace;
}

/// Dispatches a validated artifact body to the CSV or binary parser by its
/// header version.
Trace parse_trace_body(const util::ArtifactView& artifact,
                       const std::string& source,
                       const util::LoadPolicy& policy, util::LoadStats* stats,
                       CpuCheck& cpus,
                       const std::shared_ptr<const util::MappedFile>& mapping) {
  if (artifact.header.version >= 3) {
    return parse_binary(artifact.body, artifact.header.version, source, policy,
                        stats, cpus, mapping);
  }
  return parse_records(artifact.body, source, policy, stats, cpus);
}

}  // namespace

void save_trace(const std::string& path, const Trace& trace,
                const SaveOptions& options) {
  const bool binary = options.format == TraceFormat::kBinary;
  util::write_versioned_artifact(
      path, kArtifactKind, binary ? kTraceVersion : kTraceCsvVersion,
      binary ? render_binary(trace) : render_csv(trace), "trace.write");
}

Trace load_trace(const std::string& path, const LoadOptions& options,
                 util::LoadStats* stats) {
  util::LoadStats local;
  util::LoadStats& st = stats != nullptr ? *stats : local;
  const auto file =
      std::make_shared<const util::MappedFile>(path, "trace file");
  const util::ArtifactView artifact = util::validate_versioned_content(
      path, file->view(), kArtifactKind, options.max_version, options.policy,
      &st);
  if (!st.checksum_ok) TraceMetrics::get().checksum_failures.add(1);
  CpuCheck cpus(options.num_cpus);
  Trace trace =
      parse_trace_body(artifact, path, options.policy, &st, cpus, file);
  TraceMetrics::get().bytes_loaded.add(artifact.body.size());
  cpus.require_none(path);
  return trace;
}

Trace load_trace(const std::string& path, const util::LoadPolicy& policy,
                 util::LoadStats* stats) {
  LoadOptions options;
  options.policy = policy;
  return load_trace(path, options, stats);
}

Trace load_trace(const std::string& path) {
  return load_trace(path, util::LoadPolicy{}, nullptr);
}

}  // namespace drbw::pebs
