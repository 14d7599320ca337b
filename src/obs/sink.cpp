#include "drbw/obs/sink.hpp"

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "drbw/fault/injector.hpp"
#include "drbw/util/error.hpp"

namespace drbw::obs {

namespace {

// Slice-by-8 CRC-32: table[0] is the classic byte-at-a-time table, and
// table[k][b] is the CRC of byte b followed by k zero bytes, letting the
// hot loop fold 8 input bytes per iteration.  Checksums are identical to
// the one-table version — only throughput changes (~350 MB/s -> multiple
// GB/s), which matters now that v3 binary trace bodies are tens of
// megabytes and every artifact load starts with a full-body checksum.
std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][n] = c;
  }
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = tables[0][n];
    for (std::size_t k = 1; k < 8; ++k) {
      c = tables[0][c & 0xFFu] ^ (c >> 8);
      tables[k][n] = c;
    }
  }
  return tables;
}

}  // namespace

std::uint32_t crc32(std::string_view data) {
  static const std::array<std::array<std::uint32_t, 256>, 8> t =
      make_crc_tables();
  std::uint32_t c = 0xFFFFFFFFu;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  while (n >= 8) {
    // Fold the low word into the running crc, then look all 8 bytes up in
    // parallel tables (byte i is followed by 7-i zero bytes).
    const std::uint32_t lo = c ^ (static_cast<std::uint32_t>(p[0]) |
                                  static_cast<std::uint32_t>(p[1]) << 8 |
                                  static_cast<std::uint32_t>(p[2]) << 16 |
                                  static_cast<std::uint32_t>(p[3]) << 24);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    p += 8;
    n -= 8;
  }
  for (; n > 0; --n, ++p) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

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
