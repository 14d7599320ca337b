#include "drbw/pebs/trace_io.hpp"

#include <algorithm>
#include <cctype>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
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

// Binary (v3) body geometry.  All integers are little-endian regardless of
// host byte order; the encoder/decoder below shift bytes explicitly.
constexpr std::uint32_t kBinaryMagic = 0x57425244u;  // "DRBW" read as LE u32
constexpr std::size_t kBinaryPreludeBytes = 32;
constexpr std::size_t kBinaryEventBytes = 25;
constexpr std::size_t kBinarySampleBytes = 30;
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

void put_u32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xffu));
  out.push_back(static_cast<char>((v >> 8) & 0xffu));
  out.push_back(static_cast<char>((v >> 16) & 0xffu));
  out.push_back(static_cast<char>((v >> 24) & 0xffu));
}

void put_u64(std::string& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v & 0xffffffffu));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
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

/// Renders the v3 binary body (see the layout in trace_io.hpp).  Labels are
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
  std::string out;
  out.reserve(kBinaryPreludeBytes + labels.size() +
              event_count * kBinaryEventBytes +
              sample_count * kBinarySampleBytes);
  put_u32(out, kBinaryMagic);
  put_u32(out, 0);  // flags, reserved
  put_u64(out, event_count);
  put_u64(out, sample_count);
  put_u64(out, labels.size());
  out += labels;
  for (std::size_t i = 0; i < event_count; ++i) {
    const mem::AllocationEvent& e = trace.events[i];
    out.push_back(static_cast<char>(e.kind));
    put_u32(out, refs[i].first);
    put_u32(out, refs[i].second);
    put_u64(out, e.base);
    put_u64(out, e.size_bytes);
  }
  for (const MemorySample& s : trace.samples) {
    put_u64(out, s.address);
    put_u64(out, s.cycle);
    put_u32(out, static_cast<std::uint32_t>(s.cpu));
    put_u32(out, s.tid);
    put_u32(out, float_bits(s.latency_cycles));
    out.push_back(static_cast<char>(s.level));
    out.push_back(static_cast<char>(s.is_write ? 1 : 0));
  }
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

/// Walks a body one physical line at a time, in place.  Like getline, the
/// last line needs no trailing '\n' and a trailing '\n' opens no extra line.
class LineCursor {
 public:
  explicit LineCursor(std::string_view body)
      : p_(body.data()), end_(body.data() + body.size()) {}

  bool next(std::string_view& line) {
    if (p_ == end_) return false;
    const char* eol = find(p_, '\n');
    line = std::string_view(p_, static_cast<std::size_t>(eol - p_));
    p_ = eol == end_ ? end_ : eol + 1;
    return true;
  }

  /// Grows `line`, just returned by next(), through the line holding `at`;
  /// returns how many lines it took in.
  std::size_t extend(std::string_view& line, const char* at) {
    const char* eol = find(at, '\n');
    const auto more = static_cast<std::size_t>(
        std::count(line.data() + line.size(), eol, '\n'));
    line = std::string_view(line.data(),
                            static_cast<std::size_t>(eol - line.data()));
    p_ = eol == end_ ? end_ : eol + 1;
    return more;
  }

  /// The first `c` at or after `from`, or the end of the body.
  const char* find(const char* from, char c) const {
    const void* hit =
        std::memchr(from, c, static_cast<std::size_t>(end_ - from));
    return hit != nullptr ? static_cast<const char*>(hit) : end_;
  }

  const char* end() const { return end_; }

 private:
  const char* p_;
  const char* end_;
};

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
/// `line` and closes on a later line; nullptr when the record is just
/// `line`.  The closing quote is the first lone '"', and the label's ','
/// follows it; a label without one is damaged and its record stays one
/// line, so a stray quote cannot run on into the records after it.
const char* label_close_past(std::string_view line, const LineCursor& lines) {
  if (line.size() < 3 || line.compare(0, 3, "A,\"") != 0) return nullptr;
  const char* q = line.data() + 3;
  for (;;) {
    q = lines.find(q, '"');
    if (q == lines.end() || q + 1 == lines.end()) return nullptr;
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
/// the record's end), so no separate split is needed.  After a failed read,
/// `field` and `kind` name the field that failed.
struct FieldCursor {
  const char* p;
  const char* end;
  const char* field = nullptr;
  FieldKind kind = FieldKind::kNumber;

  bool separator(const char* at, bool last) {
    if (last) return at == end;
    if (at == end || *at != ',') return false;
    p = at + 1;
    return true;
  }

  const char* comma() const {
    const void* hit = std::memchr(p, ',', static_cast<std::size_t>(end - p));
    return static_cast<const char*>(hit);
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
    const auto [at, ec] = std::from_chars(p, end, out);
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

  bool level(MemLevel& out) {
    field = p;
    kind = FieldKind::kLevel;
    const char* at = comma();
    if (at == nullptr ||
        !level_from_view(std::string_view(p, static_cast<std::size_t>(at - p)),
                         out)) {
      return false;
    }
    p = at + 1;
    return true;
  }

  bool write_flag(bool& out) {
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
      const char* at = comma();
      if (at == nullptr || std::find(p, at, '"') != at) return false;
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

/// Reads CSV records into a trace.  Only a quoted allocation label is ever
/// copied, into one reused buffer; every other field parses in place.
class RecordReader {
 public:
  explicit RecordReader(CpuCheck& cpus) : cpus_(cpus) {}

  /// Appends the non-blank record `rec` to `trace`; throws Error(kParse)
  /// naming the offending token (the caller prefixes source and line).
  void read(std::string_view rec, Trace& trace) {
    if (rec.size() > 1 && rec[1] != ',') {
      throw Error("unknown record kind '" +
                      std::string(rec.substr(0, rec.find(','))) + "'",
                  ErrorCode::kParse);
    }
    FieldCursor c{rec.data() + std::min<std::size_t>(rec.size(), 2),
                  rec.data() + rec.size()};
    switch (rec[0]) {
      case 'S': {
        MemorySample s;
        std::uint32_t cpu = 0;
        if (!(c.integer(s.address) && c.integer(cpu) && c.integer(s.tid) &&
              c.level(s.level) && c.latency(s.latency_cycles) &&
              c.write_flag(s.is_write) && c.integer(s.cycle, true))) {
          reject(rec, 8, c);
        }
        s.cpu = static_cast<topology::CpuId>(cpu);
        cpus_.note(s.cpu, trace.samples.size());
        trace.samples.push_back(s);
        return;
      }
      case 'A': {
        std::string_view label;
        std::uint64_t base = 0;
        std::uint64_t size = 0;
        if (!(c.label(label_, label) && c.integer(base) &&
              c.integer(size, true))) {
          reject(rec, 4, c);
        }
        trace.events.push_back(mem::AllocationEvent{
            mem::AllocationEvent::Kind::kAlloc, {std::string(label)}, base,
            size});
        return;
      }
      case 'F': {
        std::uint64_t base = 0;
        if (!c.integer(base, true)) reject(rec, 2, c);
        trace.events.push_back(mem::AllocationEvent{
            mem::AllocationEvent::Kind::kFree, {""}, base, 0});
        return;
      }
      default:
        throw Error("unknown record kind '" + std::string(rec.substr(0, 1)) +
                        "'",
                    ErrorCode::kParse);
    }
  }

 private:
  CpuCheck& cpus_;
  std::string label_;
};

/// Parses the records of a CSV `body` under `policy`.  `source` names the
/// file in every error, and line numbers count the header line, so messages
/// point at real file lines.  A record is keyed (its line number and its
/// "trace.read" fault key) by its first line; only a quoted allocation
/// label may run on past it.
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
  util::reserve_huge(trace.samples, detail::count_newlines(body) + 1);
  const bool faults_armed = fault::armed();
  RecordReader reader(cpus);
  std::string damaged;
  LineCursor lines(body);
  std::string_view rec;
  std::size_t line_no = 1;  // the header
  while (lines.next(rec)) {
    const std::size_t key = ++line_no;
    if (is_blank(rec)) continue;
    if (const char* close = label_close_past(rec, lines)) {
      line_no += lines.extend(rec, close);
    }
    ++st.records_seen;
    ++tally.seen;
    // Fault site "trace.read": deterministically damage this record (keyed
    // by its line number, so the decision is identical at any --jobs count).
    if (faults_armed &&
        fault::should_inject("trace.read", fault::Kind::kCorruptField, key)) {
      const std::uint64_t bit = fault::corrupt_bits("trace.read", key, 0);
      damaged.assign(rec);
      const std::size_t at = static_cast<std::size_t>(bit % damaged.size());
      damaged[at] = static_cast<char>(damaged[at] ^ 0x11);
      rec = damaged;
    }
    try {
      reader.read(rec, trace);
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

/// Decodes one binary sample record; throws Error(kParse) on an invalid
/// field (level byte, write flag, non-finite latency).  Always inlined: it
/// runs once per sample in parse_binary's loop, and GCC's own choice here
/// depends on how large the enclosing function has grown by inlining, which
/// moves with unrelated edits to this file.
[[gnu::always_inline]] inline MemorySample parse_binary_sample(
    const unsigned char* p, std::size_t ordinal) {
  const std::uint8_t level = p[28];
  if (level > kMaxLevelByte) {
    throw Error("sample record #" + std::to_string(ordinal) +
                    ": unknown memory-level byte " + std::to_string(level),
                ErrorCode::kParse);
  }
  const std::uint8_t write = p[29];
  if (write > 1) {
    throw Error("sample record #" + std::to_string(ordinal) +
                    ": malformed write flag " + std::to_string(write),
                ErrorCode::kParse);
  }
  const float latency = bits_float(get_u32(p + 24));
  if (!std::isfinite(latency) || latency < 0.0f) {
    throw Error("sample record #" + std::to_string(ordinal) +
                    ": malformed latency bits",
                ErrorCode::kParse);
  }
  MemorySample s;
  s.address = get_u64(p);
  s.cycle = get_u64(p + 8);
  s.cpu = static_cast<topology::CpuId>(get_u32(p + 16));
  s.tid = get_u32(p + 20);
  s.latency_cycles = latency;
  s.level = static_cast<MemLevel>(level);
  s.is_write = write == 1;
  return s;
}

/// Parses a v3 binary body under `policy`.  Record ordinals are keyed the
/// way CSV line numbers would be for the same trace (events start at 2,
/// samples follow), so one fault spec damages the same logical record in
/// either format.  In lenient mode a truncated tail quarantines the missing
/// records against the declared counts, so stats are stable across loads.
Trace parse_binary(std::string_view body, const std::string& source,
                   const util::LoadPolicy& policy, util::LoadStats* stats,
                   CpuCheck& cpus) {
  util::LoadStats local;
  util::LoadStats& st = stats != nullptr ? *stats : local;
  TraceMetrics& metrics = TraceMetrics::get();
  const auto* base = reinterpret_cast<const unsigned char*>(body.data());
  if (body.size() < kBinaryPreludeBytes) {
    throw Error(source + ": binary trace prelude is " +
                    std::to_string(body.size()) + " bytes, expected " +
                    std::to_string(kBinaryPreludeBytes) +
                    " — artifact is truncated or corrupt",
                ErrorCode::kCorruptArtifact);
  }
  if (get_u32(base) != kBinaryMagic) {
    throw Error(source + ": binary trace magic mismatch (body is not a v3 "
                         "trace encoding)",
                ErrorCode::kParse);
  }
  if (get_u32(base + 4) != 0) {
    throw Error(source + ": unsupported binary trace flags", ErrorCode::kParse);
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
  const std::size_t samples_off =
      events_off + static_cast<std::size_t>(event_count) * kBinaryEventBytes;
  const std::size_t expected =
      samples_off + static_cast<std::size_t>(sample_count) * kBinarySampleBytes;
  if (body.size() != expected && !policy.lenient()) {
    throw Error(source + ": binary trace body is " +
                    std::to_string(body.size()) + " bytes, expected " +
                    std::to_string(expected) +
                    " — artifact is truncated or corrupt",
                ErrorCode::kCorruptArtifact);
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
          sample_count, (body.size() - samples_off) / kBinarySampleBytes);
    }
  }
  Trace trace;
  trace.events.reserve(events_avail);
  util::reserve_huge(trace.samples, samples_avail);
  const bool faults_armed = fault::armed();
  unsigned char scratch[kBinaryPreludeBytes];
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
      trace.samples.push_back(parse_binary_sample(
          record_bytes(base + samples_off + i * kBinarySampleBytes,
                       kBinarySampleBytes, key),
          static_cast<std::size_t>(i)));
      cpus.note(trace.samples.back().cpu, trace.samples.size() - 1);
      ++st.records_ok;
    } catch (const Error& e) {
      quarantine(e, key);
    }
  }
  enforce_quarantine_cap(source, policy, st);
  return trace;
}

/// Dispatches a validated artifact body to the CSV or binary parser by its
/// header version.
Trace parse_trace_body(const util::ArtifactView& artifact,
                       const std::string& source,
                       const util::LoadPolicy& policy, util::LoadStats* stats,
                       CpuCheck& cpus) {
  if (artifact.header.version >= 3) {
    return parse_binary(artifact.body, source, policy, stats, cpus);
  }
  return parse_records(artifact.body, source, policy, stats, cpus);
}

}  // namespace

namespace detail {

std::size_t count_newlines(std::string_view body) {
  // Each block adds 0 or 1 per row to a byte lane, so a lane holds at most
  // kRows before the block's lanes are summed and cleared.  Fixed-width
  // byte compares and adds: GCC turns the inner loop into vector code.
  constexpr std::size_t kLanes = 32;
  constexpr std::size_t kRows = 255;
  const auto* p = reinterpret_cast<const unsigned char*>(body.data());
  std::size_t n = body.size();
  std::size_t total = 0;
  while (n >= kLanes) {
    const std::size_t rows = std::min(kRows, n / kLanes);
    unsigned char lanes[kLanes] = {};
    for (std::size_t r = 0; r < rows; ++r, p += kLanes) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        lanes[l] = static_cast<unsigned char>(lanes[l] + (p[l] == '\n'));
      }
    }
    for (const unsigned char lane : lanes) total += lane;
    n -= rows * kLanes;
  }
  for (; n > 0; --n, ++p) total += *p == '\n';
  return total;
}

}  // namespace detail

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
  const util::MappedFile file(path, "trace file");
  const util::ArtifactView artifact = util::validate_versioned_content(
      path, file.view(), kArtifactKind, options.max_version, options.policy,
      &st);
  if (!st.checksum_ok) TraceMetrics::get().checksum_failures.add(1);
  CpuCheck cpus(options.num_cpus);
  Trace trace = parse_trace_body(artifact, path, options.policy, &st, cpus);
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
