// drbw::obs sink primitives — the crash-safe file writer and checksummed
// header shared by every artifact the process emits.
//
// These used to live in util/artifact, but the obs sinks themselves (trace
// JSON, metrics expositions, flight dumps) must never leave a partial file
// behind, and obs sits *below* util in the link order.  The primitives
// therefore live here; util/artifact re-exports them so existing callers
// keep their spelling.
//
//   * crc32            — CRC-32 (IEEE 802.3, reflected 0xEDB88320), in
//     src/obs/crc32.cpp: a carry-less PCLMULQDQ fold where the CPU has one
//     (checked once per process), slice-by-8 elsewhere; both kernels give
//     the same checksum, and obs::detail exposes each for the tests.
//   * atomic_write_file — write `<path>.tmp`, rename over the target; threads
//     the "artifact.write" short-write fault site so the never-partial
//     guarantee is provable under injected crashes.
//   * format_artifact_header — the `#drbw-<kind> v<n> crc32=… bytes=…` line
//     every versioned artifact starts with.
//
// Layering: obs depends only on the standard library, the header-only
// util/error.hpp, and drbw::fault (which sits at the very bottom).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace drbw::obs {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `data`.
std::uint32_t crc32(std::string_view data);

namespace detail {

/// The slice-by-8 kernel: runs on any CPU.
std::uint32_t crc32_portable(std::string_view data);

/// True when this CPU has PCLMULQDQ and SSE4.1 (always false off x86-64).
bool clmul_supported();

#if defined(__x86_64__)
/// The carry-less fold-by-4 kernel over the whole 16-byte blocks of an
/// input of at least 64 bytes, slice-by-8 over the rest.  Call it only when
/// clmul_supported().
std::uint32_t crc32_clmul(std::string_view data);
#endif

}  // namespace detail

/// Atomically replaces `path` with `content` (write `<path>.tmp`, rename).
/// Threads the "artifact.write" short-write fault site: when it fires, the
/// temp file is left half-written, the rename never happens, and
/// Error(kFaultInjected) is thrown — the target path is untouched.
void atomic_write_file(const std::string& path, std::string_view content);

/// Renders the header line (no trailing newline) for `body`.
std::string format_artifact_header(const std::string& kind, int version,
                                   std::string_view body);

}  // namespace drbw::obs
