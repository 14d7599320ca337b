// Trace -> per-client session slicing for online replay, and the cycle-window
// bucketer every windowed front end (analyze --windows, explain, serve's
// default window width) shares.
//
// `drbw serve` simulates N concurrent clients by replaying a recorded trace
// as N independent sample streams: every sample is assigned to the client
// `tid % clients` (threads of one recorded run become the "users" of the
// online service), and each client's stream keeps the trace's simulated
// cycle order.  A stream holds no samples, only their *global* ordinals:
// uint32 indices into the trace, which serve carries through its queues and
// windows and which key the deterministic fault injector, so injected
// ingest faults hit the same samples at any --jobs value and client count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "drbw/pebs/sample.hpp"
#include "drbw/pebs/trace_io.hpp"

namespace drbw::pebs {

/// Most samples a trace may hold to be sliced: an ordinal is 32 bits (the
/// same bound as core::kMaxProfileSamples).
inline constexpr std::uint64_t kMaxSessionSamples = 0xffffffffu;

/// One simulated client's replay stream: the trace ordinals of its samples,
/// ascending (so in trace order).
struct ClientSession {
  std::uint32_t client = 0;
  std::vector<std::uint32_t> ordinals;
};

/// A trace sliced for replay.
struct Sessions {
  /// Exactly `clients` entries (client c at index c), possibly empty.
  std::vector<ClientSession> clients;
  /// trace_cycle_span of the trace, taken in the slicing pass.
  std::uint64_t cycle_span = 0;
};

/// Slices `trace` into `clients` sessions (client = tid % clients): one
/// counting pass, then one exact-size ordinal vector per client.  Throws
/// Error(kUsage) when clients == 0 and Error(kCorruptArtifact) when the
/// trace holds more than kMaxSessionSamples samples.  Slicing is a pure
/// function of the trace, so sessions are identical across runs and job
/// counts.
Sessions slice_sessions(const Trace& trace, std::uint32_t clients);

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
