// Trace -> per-client session slicing for online replay, and the cycle-window
// bucketer every windowed front end (analyze --windows, explain, serve's
// default window width) shares.
//
// `drbw serve` simulates N concurrent clients by replaying a recorded trace
// as N independent sample streams: every sample is assigned to the client
// `tid % clients` (threads of one recorded run become the "users" of the
// online service), and each client's stream keeps the trace's simulated
// cycle order.  The slicer also stamps every sample with its *global*
// ordinal in the trace — the content-derived key the serve layer feeds the
// deterministic fault injector, so injected ingest faults hit the same
// samples at any --jobs value and any client count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "drbw/pebs/sample.hpp"
#include "drbw/pebs/trace_io.hpp"

namespace drbw::pebs {

/// One sample of a client's replay stream.
struct SessionSample {
  MemorySample sample;
  /// Index of the sample in the source trace (0-based) — the deterministic
  /// fault-injection key for per-sample serve sites.
  std::uint64_t ordinal = 0;
};

/// One simulated client's replay stream, in trace (cycle) order.
struct ClientSession {
  std::uint32_t client = 0;
  std::vector<SessionSample> samples;
};

/// Slices `trace` into `clients` sessions (client = tid % clients).  Always
/// returns exactly `clients` entries, possibly with empty streams; throws
/// Error(kUsage) when clients == 0.  Slicing is a pure function of the
/// trace, so sessions are identical across runs and job counts.
std::vector<ClientSession> slice_sessions(const Trace& trace,
                                          std::uint32_t clients);

/// Throws Error(kCorruptArtifact) at the first sample whose cpu is not a
/// hardware thread of a `num_cpus`-thread machine (a trace recorded on a
/// bigger machine), naming `path`, the sample ordinal and the cpu.  One
/// pass over the samples, no copy.
void require_known_cpus(const Trace& trace, int num_cpus,
                        const std::string& path);

/// Largest sample cycle in the trace (0 for an empty trace); the windowed
/// front ends derive their window width from this span.
std::uint64_t trace_cycle_span(const Trace& trace);

/// Most cycle windows a caller may ask for (`--windows`): every window owns
/// a sample bucket and a profile, so the count is bounded up front.
inline constexpr std::uint64_t kMaxCycleWindows = 65536;

/// Width of each of `windows` equal cycle windows covering [0, span]:
/// span / windows + 1, so the sample at `span` lands in the last window.
std::uint64_t cycle_window_width(std::uint64_t span, std::uint64_t windows);

/// Splits `samples` into `count` consecutive windows of `width` cycles,
/// keeping stream order inside each window.  Empty windows are kept, and a
/// sample past the last window's end lands in the last window.
std::vector<std::vector<MemorySample>> bucket_by_cycle(
    const std::vector<MemorySample>& samples, std::uint64_t width,
    std::size_t count);

}  // namespace drbw::pebs
