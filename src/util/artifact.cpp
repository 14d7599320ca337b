#include "drbw/util/artifact.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "drbw/fault/injector.hpp"
#include "drbw/obs/sink.hpp"
#include "drbw/util/strings.hpp"

namespace drbw::util {

// The writer primitives live below obs (src/obs/sink.cpp) so the trace,
// metrics and flight-recorder sinks share the same never-partial guarantee;
// these thin forwards keep the historical util spelling.
std::uint32_t crc32(std::string_view data) { return obs::crc32(data); }

LoadPolicy load_policy_from_name(const std::string& name,
                                 double max_bad_fraction) {
  LoadPolicy policy;
  policy.max_bad_fraction = max_bad_fraction;
  if (name == "strict") {
    policy.mode = LoadMode::kStrict;
  } else if (name == "lenient") {
    policy.mode = LoadMode::kLenient;
  } else {
    throw Error("load mode must be strict or lenient, got '" + name + "'",
                ErrorCode::kUsage);
  }
  return policy;
}

std::string format_artifact_header(const std::string& kind, int version,
                                   std::string_view body) {
  return obs::format_artifact_header(kind, version, body);
}

namespace {

/// `text` read whole as a number in `base`, or nullopt: no sign (for the
/// unsigned types), prefix, space or trailing byte is accepted.
template <typename T>
std::optional<T> parse_whole(std::string_view text, int base) {
  T value{};
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value, base);
  if (ec != std::errc() || end != last) return std::nullopt;
  return value;
}

}  // namespace

std::optional<ArtifactHeader> parse_artifact_header(std::string_view line) {
  constexpr std::string_view kPrefix = "#drbw-";
  if (line.substr(0, kPrefix.size()) != kPrefix) return std::nullopt;
  const std::string text = trim(line);
  // Exactly the line format_artifact_header writes:
  // "#drbw-<kind> v<version> crc32=<8 hex> bytes=<n>".
  const std::vector<std::string> tokens = split(text, ' ');
  if (tokens.size() != 4 || tokens[0].size() == kPrefix.size() ||
      tokens[1].rfind('v', 0) != 0 || tokens[2].rfind("crc32=", 0) != 0 ||
      tokens[3].rfind("bytes=", 0) != 0) {
    throw Error("malformed artifact header '" + text +
                    "' (expected '#drbw-<kind> v<N> crc32=<8 hex> bytes=<n>')",
                ErrorCode::kParse);
  }
  const auto version =
      parse_whole<int>(std::string_view(tokens[1]).substr(1), 10);
  if (!version.has_value() || *version <= 0) {
    throw Error("malformed artifact version in header '" + text + "'",
                ErrorCode::kParse);
  }
  const std::string_view crc_hex = std::string_view(tokens[2]).substr(6);
  const auto crc = crc_hex.size() == 8
                       ? parse_whole<std::uint32_t>(crc_hex, 16)
                       : std::nullopt;
  if (!crc.has_value()) {
    throw Error("malformed crc32 field in header '" + text + "'",
                ErrorCode::kParse);
  }
  const auto bytes =
      parse_whole<std::size_t>(std::string_view(tokens[3]).substr(6), 10);
  if (!bytes.has_value()) {
    throw Error("malformed bytes field in header '" + text + "'",
                ErrorCode::kParse);
  }
  return ArtifactHeader{tokens[0].substr(kPrefix.size()), *version, *crc,
                        *bytes};
}

std::string sibling_hint(const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path p(path);
  const fs::path dir = p.has_parent_path() ? p.parent_path() : fs::path(".");
  const std::string ext = p.extension().string();
  std::vector<std::string> candidates;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (ec) break;
    if (!entry.is_regular_file(ec)) continue;
    if (!ext.empty() && entry.path().extension().string() != ext) continue;
    candidates.push_back(entry.path().filename().string());
  }
  if (candidates.empty()) return "";
  std::sort(candidates.begin(), candidates.end());
  if (candidates.size() > 5) candidates.resize(5);
  std::string hint = "; did you mean ";
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (i > 0) hint += ", ";
    hint += "'" + (dir / candidates[i]).string() + "'";
  }
  return hint + "?";
}

void require_input_file(const std::string& path, const std::string& what) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (fs::exists(path, ec) && !fs::is_directory(path, ec)) return;
  throw Error(what + " '" + path + "' does not exist" + sibling_hint(path),
              ErrorCode::kNotFound);
}

namespace {

std::ifstream open_input(const std::string& path, const std::string& what) {
  require_input_file(path, what);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw Error("cannot open " + what + " '" + path +
                    "': " + std::strerror(errno),
                ErrorCode::kIo);
  }
  return in;
}

}  // namespace

MappedFile::MappedFile(const std::string& path, const std::string& what) {
  require_input_file(path, what);
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw Error("cannot open " + what + " '" + path +
                    "': " + std::strerror(errno),
                ErrorCode::kIo);
  }
  struct stat st {};
  std::string failure;
  void* mapped = nullptr;
  if (::fstat(fd, &st) != 0) {
    failure = std::strerror(errno);
  } else if (!S_ISREG(st.st_mode)) {
    failure = "not a regular file";
  } else if (st.st_size > 0) {
    size_ = static_cast<std::size_t>(st.st_size);
    int flags = MAP_PRIVATE;
#ifdef MAP_POPULATE
    flags |= MAP_POPULATE;  // fault the whole body in with one call
#endif
    mapped = ::mmap(nullptr, size_, PROT_READ, flags, fd, 0);
    if (mapped == MAP_FAILED) {
      failure = std::strerror(errno);
      mapped = nullptr;
      size_ = 0;
    }
  }
  ::close(fd);
  if (!failure.empty()) {
    throw Error("I/O error reading " + what + " '" + path + "': " + failure,
                ErrorCode::kIo);
  }
  data_ = static_cast<const char*>(mapped);
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) ::munmap(const_cast<char*>(data_), size_);
}

std::string read_first_line(const std::string& path, const std::string& what) {
  std::ifstream in = open_input(path, what);
  std::string line;
  std::getline(in, line);
  if (in.bad()) {
    throw Error("I/O error reading " + what + " '" + path + "'",
                ErrorCode::kIo);
  }
  return line;
}

std::string read_file_or_throw(const std::string& path,
                               const std::string& what) {
  std::ifstream in = open_input(path, what);
  // Size the buffer up front and read once: streaming through an
  // ostringstream costs more than the checksum pass for multi-megabyte
  // binary trace bodies.
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.seekg(0, std::ios::beg);
  if (end < 0) {
    throw Error("I/O error reading " + what + " '" + path + "'",
                ErrorCode::kIo);
  }
  std::string buffer(static_cast<std::size_t>(end), '\0');
  in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  if (in.bad() || in.gcount() != static_cast<std::streamsize>(buffer.size())) {
    throw Error("I/O error reading " + what + " '" + path + "'",
                ErrorCode::kIo);
  }
  return buffer;
}

void atomic_write_file(const std::string& path, std::string_view content) {
  obs::atomic_write_file(path, content);
}

void write_versioned_artifact(const std::string& path, const std::string& kind,
                              int version, std::string_view body,
                              const std::string& fault_site) {
  // Checksum the pristine body first: injected damage below must be
  // detectable on load exactly like real damage.
  const std::string header = format_artifact_header(kind, version, body);
  std::string damaged;
  if (!fault_site.empty() && fault::armed()) {
    const std::uint64_t key = crc32(body);
    if (fault::should_inject(fault_site, fault::Kind::kTruncateFile, key)) {
      damaged.assign(body.substr(0, body.size() / 2));
      body = damaged;
    } else if (fault::should_inject(fault_site, fault::Kind::kMalformJson,
                                    key)) {
      // Cut mid-token near the end: enough to break JSON without emptying
      // the file.
      damaged.assign(body.substr(0, body.size() - std::min<std::size_t>(
                                                      body.size(), 7)));
      body = damaged;
    } else if (fault::should_inject(fault_site, fault::Kind::kCorruptField,
                                    key)) {
      damaged.assign(body);
      if (!damaged.empty()) {
        const std::size_t at = key % damaged.size();
        damaged[at] = static_cast<char>(damaged[at] ^ 0x10);
      }
      body = damaged;
    }
  }
  std::string content;
  content.reserve(header.size() + 1 + body.size());
  content += header;
  content += '\n';
  content += body;
  atomic_write_file(path, content);
}

ArtifactView validate_versioned_content(const std::string& source,
                                        std::string_view content,
                                        const std::string& kind,
                                        int max_version,
                                        const LoadPolicy& policy,
                                        LoadStats* stats) {
  ArtifactView result;
  const std::size_t eol = content.find('\n');
  const std::string first_line = trim(content.substr(0, eol));
  std::optional<ArtifactHeader> header;
  try {
    header = parse_artifact_header(first_line);
  } catch (const Error& e) {
    throw Error(source + ": " + e.what(), e.code());
  }
  if (!header.has_value()) {
    throw Error(source + ": not a DR-BW " + kind + " (missing '#drbw-" + kind +
                    "' header)",
                ErrorCode::kParse);
  }
  if (header->kind != kind) {
    throw Error(source + ": artifact kind is '" + header->kind +
                    "', expected '" + kind + "'",
                ErrorCode::kParse);
  }
  if (header->version > max_version) {
    throw Error(source + ": " + kind + " format v" +
                    std::to_string(header->version) +
                    " is newer than the supported v" +
                    std::to_string(max_version) +
                    " (offending header token 'v" +
                    std::to_string(header->version) +
                    "'; version skew — regenerate the artifact with this "
                    "build, or convert it to a supported version)",
                ErrorCode::kVersionSkew);
  }
  result.header = *header;
  result.body = eol == std::string_view::npos ? std::string_view()
                                              : content.substr(eol + 1);
  const std::uint32_t body_crc = crc32(result.body);
  const bool size_ok = result.body.size() == header->bytes;
  if (body_crc != header->crc || !size_ok) {
    if (!policy.lenient()) {
      std::ostringstream os;
      os << source << ": " << kind << " body fails validation (";
      if (!size_ok) {
        os << "length " << result.body.size() << " != declared "
           << header->bytes;
      } else {
        char want[16];
        char got[16];
        std::snprintf(want, sizeof want, "%08x", header->crc);
        std::snprintf(got, sizeof got, "%08x", body_crc);
        os << "crc32 " << got << " != declared " << want;
      }
      os << ") — artifact is truncated or corrupt";
      throw Error(os.str(), ErrorCode::kCorruptArtifact);
    }
    if (stats != nullptr) stats->checksum_ok = false;
  }
  return result;
}

VersionedArtifact read_versioned_artifact(const std::string& path,
                                          const std::string& kind,
                                          int max_version,
                                          const LoadPolicy& policy,
                                          LoadStats* stats) {
  const MappedFile file(path, kind + " file");
  const ArtifactView view = validate_versioned_content(
      path, file.view(), kind, max_version, policy, stats);
  return VersionedArtifact{view.header, std::string(view.body)};
}

}  // namespace drbw::util
