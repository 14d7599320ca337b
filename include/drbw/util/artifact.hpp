// Hardened artifact I/O: atomic writes, versioned checksummed headers, and
// strict/lenient load policies.
//
// Every artifact the pipeline persists (sample traces, trained models) goes
// through this layer:
//
//   * Writes are atomic — content lands in `<path>.tmp` and is renamed over
//     the target, so a reader (or a crash) can never observe a partial
//     artifact at the final path.
//   * Artifacts carry a one-line header `#drbw-<kind> v<version>
//     crc32=<hex> bytes=<n>` whose CRC-32 covers the body, so truncation and
//     bit damage are detected before a single record is trusted.
//   * Loads run under a LoadPolicy: strict mode rejects any damage with a
//     typed Error (kParse / kCorruptArtifact / kVersionSkew); lenient mode
//     quarantines bad records, reports them through LoadStats (and the
//     caller's obs metrics), and escalates to kCorruptArtifact only when the
//     quarantined fraction exceeds a cap.
//
// The writer threads the "artifact.write" fault-injection site so tests can
// prove the never-partial guarantee even when a crash lands mid-write.
//
// The atomic-rename writer, crc32, and header formatter are implemented
// below `obs` (drbw/obs/sink.hpp) so the observability sinks themselves —
// trace JSON, metrics expositions, flight dumps — share the never-partial
// guarantee; the declarations here are thin forwards kept for the
// historical util spelling.  The run manifest (report/manifest) writes
// through write_versioned_artifact like every other artifact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "drbw/util/error.hpp"

namespace drbw::util {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `data`.
std::uint32_t crc32(std::string_view data);

enum class LoadMode {
  kStrict,   ///< any damage → typed error
  kLenient,  ///< quarantine bad records, escalate past max_bad_fraction
};

struct LoadPolicy {
  LoadMode mode = LoadMode::kStrict;
  /// Lenient only: tolerated quarantined/seen fraction before the load
  /// escalates to Error(kCorruptArtifact).
  double max_bad_fraction = 0.25;

  bool lenient() const { return mode == LoadMode::kLenient; }
};

/// Parses "strict" / "lenient"; throws Error(kUsage) otherwise.
LoadPolicy load_policy_from_name(const std::string& name,
                                 double max_bad_fraction = 0.25);

/// Outcome accounting for one artifact load; rendered in the report's
/// robustness section and mirrored into obs metrics by the caller.
struct LoadStats {
  std::size_t records_seen = 0;
  std::size_t records_ok = 0;
  std::size_t records_quarantined = 0;
  bool checksum_ok = true;  ///< false when a lenient load tolerated a bad CRC

  double quarantined_fraction() const {
    return records_seen == 0
               ? 0.0
               : static_cast<double>(records_quarantined) /
                     static_cast<double>(records_seen);
  }
};

/// Parsed artifact header line.
struct ArtifactHeader {
  std::string kind;          ///< "trace", "model", …
  int version = 1;
  std::uint32_t crc = 0;
  std::size_t bytes = 0;
};

/// Renders the header line (no trailing newline) for `body`.
std::string format_artifact_header(const std::string& kind, int version,
                                   std::string_view body);

/// Parses one header line.  Returns nullopt when the line does not start
/// with `#drbw-`; throws Error(kParse) unless it is exactly the line
/// format_artifact_header writes, `#drbw-<kind> v<N> crc32=<8 hex>
/// bytes=<n>`.  Callers outside this module only read a header's fields
/// with it; whether content is an artifact at all is decided by
/// validate_versioned_content alone.
std::optional<ArtifactHeader> parse_artifact_header(std::string_view line);

/// Reads a whole file.  A missing file throws Error(kNotFound) whose message
/// includes a "did you mean" hint listing sibling artifacts; other open
/// failures throw Error(kIo).  `what` names the artifact in messages
/// ("trace file", "model file").
std::string read_file_or_throw(const std::string& path,
                               const std::string& what);

/// A whole file mapped read-only (open, fstat, mmap with PROT_READ and
/// MAP_PRIVATE|MAP_POPULATE), for bodies too large to copy: the pages are
/// the file's, faulted in once.  Opening fails exactly like
/// read_file_or_throw; a 0-byte file maps to an empty view.  The view is
/// valid until the MappedFile is destroyed.  Another process truncating the
/// file while it is mapped can raise SIGBUS on a later read; no file
/// content can.
class MappedFile {
 public:
  MappedFile(const std::string& path, const std::string& what);
  ~MappedFile();
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  std::string_view view() const { return {data_, size_}; }

 private:
  const char* data_ = nullptr;
  std::size_t size_ = 0;
};

/// The first line of a file, without its '\n' (the whole file when it has
/// none).  Fails exactly like read_file_or_throw.  Callers that only need an
/// artifact's header use this instead of reading a large body.
std::string read_first_line(const std::string& path, const std::string& what);

/// Throws Error(kNotFound) with the sibling hint unless `path` names an
/// existing regular file.  The CLI calls this before any heavy work so
/// missing-input failures surface early with a distinct exit code.
void require_input_file(const std::string& path, const std::string& what);

/// "did you mean" helper: up to five same-extension files next to `path`,
/// sorted; empty string when there are none.
std::string sibling_hint(const std::string& path);

/// Atomically replaces `path` with `content` (write `<path>.tmp`, rename).
/// Threads the "artifact.write" short-write fault site: when it fires, the
/// temp file is left half-written, the rename never happens, and
/// Error(kFaultInjected) is thrown — the target path is untouched.
void atomic_write_file(const std::string& path, std::string_view content);

/// Header + body through atomic_write_file.  When `fault_site` is non-empty
/// the body is subjected to that site's truncate/corrupt/malform faults
/// *after* the checksum is computed, so injected damage is detectable on
/// load exactly like real damage.
void write_versioned_artifact(const std::string& path, const std::string& kind,
                              int version, std::string_view body,
                              const std::string& fault_site = "");

/// A validated versioned artifact, viewed in place: the parsed header and a
/// view of the body after the header line, into the content that was
/// validated.
struct ArtifactView {
  ArtifactHeader header;
  std::string_view body;
};

/// Validates an artifact already in memory; `source` names its origin in
/// errors.  The one validator, and the only place that decides whether
/// bytes are a DR-BW artifact:
///   * no `#drbw-<kind>` header line → Error(kParse) naming `source` and
///     "missing '#drbw-<kind>' header"; a malformed one, or one without
///     both checksum fields → Error(kParse),
///   * header kind mismatch → Error(kParse),
///   * header version > max_version → Error(kVersionSkew) naming the
///     offending header token ("v3"),
///   * crc32 or length mismatch → strict: Error(kCorruptArtifact); lenient:
///     stats->checksum_ok = false and the load continues (per-record
///     validation catches the damage).
ArtifactView validate_versioned_content(const std::string& source,
                                        std::string_view content,
                                        const std::string& kind,
                                        int max_version,
                                        const LoadPolicy& policy,
                                        LoadStats* stats = nullptr);

/// A loaded versioned artifact that owns its body.
struct VersionedArtifact {
  ArtifactHeader header;
  std::string body;
};

/// Maps the file at `path` and validates it with validate_versioned_content,
/// copying out the body.  Models, manifests and snapshots load through this.
VersionedArtifact read_versioned_artifact(const std::string& path,
                                          const std::string& kind,
                                          int max_version,
                                          const LoadPolicy& policy,
                                          LoadStats* stats = nullptr);

}  // namespace drbw::util
