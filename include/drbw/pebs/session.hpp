// Trace -> per-client session slicing for online replay, and the cycle-window
// grid every windowed front end (analyze --windows, explain, serve's default
// window width) shares.
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

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "drbw/pebs/sample.hpp"

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
  /// Largest sample cycle (0 for an empty trace), taken in the slicing pass.
  std::uint64_t cycle_span = 0;
};

/// Slices `samples` into `clients` sessions (client = tid % clients): one
/// counting pass, then one exact-size ordinal vector per client.  Throws
/// Error(kUsage) when clients == 0 and Error(kCorruptArtifact) past
/// kMaxSessionSamples samples.  Slicing is a pure function of the samples,
/// so sessions are identical across runs and job counts.
Sessions slice_sessions(std::span<const MemorySample> samples,
                        std::uint32_t clients);

/// Most cycle windows a caller may ask for (`--windows`): every window
/// costs an offset, a verdict and a featurization pass over its ordinals, so
/// the count is bounded up front.
inline constexpr std::uint64_t kMaxCycleWindows = 65536;

/// Width of each of `windows` equal cycle windows covering [0, span]:
/// span / windows + 1 (saturating at 2^64 - 1), so the sample at `span`
/// lands in the last window.
std::uint64_t cycle_window_width(std::uint64_t span, std::uint64_t windows);

/// Samples grouped into count() consecutive cycle windows, as ordinals into
/// the vector they were bucketed from (no sample is copied).  Window w
/// covers [min(w * width, end), min((w + 1) * width, end)), so the windows
/// tile [0, end) and none is inverted, and holds
/// ordinals[offsets[w], offsets[w + 1]), in stream order.
struct CycleWindows {
  std::uint64_t width = 1;
  std::uint64_t end = 0;
  std::vector<std::uint32_t> ordinals;  ///< one per sample
  std::vector<std::uint32_t> offsets{0};  ///< count() + 1, ascending

  std::size_t count() const { return offsets.size() - 1; }
  std::uint64_t start_cycle(std::size_t w) const { return edge(w); }
  std::uint64_t end_cycle(std::size_t w) const { return edge(w + 1); }
  /// Window w's ordinals.
  std::span<const std::uint32_t> window(std::size_t w) const {
    return {ordinals.data() + offsets[w], ordinals.data() + offsets[w + 1]};
  }

 private:
  /// min(k * width, end), also when the product passes 2^64.
  std::uint64_t edge(std::uint64_t k) const {
    std::uint64_t cycle = 0;
    return __builtin_mul_overflow(k, width, &cycle) ? end : std::min(cycle, end);
  }
};

/// Buckets `samples` into `count` windows of `width` cycles ending at `end`:
/// one counting pass, then one fill.  Empty windows are kept, and a sample
/// past the last window's start lands in it.  Throws
/// Error(kCorruptArtifact) past kMaxSessionSamples samples.
CycleWindows bucket_by_cycle(std::span<const MemorySample> samples,
                             std::uint64_t width, std::size_t count,
                             std::uint64_t end);

/// The front ends' grid: exactly `windows` windows of
/// cycle_window_width(span, windows) cycles over [0, span + 1), span being
/// the largest sample cycle (the end saturates at 2^64 - 1).
CycleWindows split_cycle_windows(std::span<const MemorySample> samples,
                                 std::size_t windows);

}  // namespace drbw::pebs
