#include "drbw/obs/sink.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "drbw/fault/injector.hpp"
#include "drbw/util/error.hpp"

namespace drbw::obs {

std::string format_artifact_header(const std::string& kind, int version,
                                   std::string_view body) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "#drbw-%s v%d crc32=%08x bytes=%zu",
                kind.c_str(), version, crc32(body), body.size());
  return std::string(buf);
}

void atomic_write_file(const std::string& path, std::string_view content) {
  namespace fs = std::filesystem;
  const std::string tmp = path + ".tmp";
  const bool short_write =
      fault::armed() && fault::should_inject("artifact.write",
                                             fault::Kind::kShortWrite,
                                             crc32(content));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw Error("cannot open '" + tmp + "' for writing: " +
                      std::strerror(errno),
                  ErrorCode::kIo);
    }
    const std::string_view written =
        short_write ? content.substr(0, content.size() / 2) : content;
    out.write(written.data(),
              static_cast<std::streamsize>(written.size()));
    out.flush();
    if (!out) {
      std::error_code ec;
      fs::remove(tmp, ec);
      throw Error("short write to '" + tmp + "'", ErrorCode::kIo);
    }
  }
  if (short_write) {
    // Simulated crash between write and rename: the half-written temp file
    // stays behind, the target path is never touched.
    throw Error("injected crash mid-write of '" + path +
                    "' (temp file left at '" + tmp + "')",
                ErrorCode::kFaultInjected);
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    throw Error("cannot rename '" + tmp + "' over '" + path + "'",
                ErrorCode::kIo);
  }
}

}  // namespace drbw::obs
