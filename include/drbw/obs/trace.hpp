// drbw::obs structured trace layer — Chrome trace_event JSON spans, instants,
// and counter series with fully deterministic timestamps.
//
// Clock contract (the part real profilers cannot offer): sim-side events are
// stamped with the *simulated* cycle clock, pipeline-side events with a
// per-track sequence number — never the wall clock.  Traces for identical
// workload + seed are therefore byte-identical across runs and across
// --jobs values.  The wall clock exists only behind an explicit
// TimingMode::kWall opt-in, which marks the output non-golden; it then
// stamps both ts and dur of pipeline spans and instants (one clock, so
// spans nest by time), while sim-side counters and complete spans keep the
// cycle clock.
//
// Track scheme: every thread carries a thread-local TrackScope {track, seq,
// forks}.  The main thread starts on track 0.  A parallel fan-out derives a
// fork key from the *calling* scope (fork_key()), and each task index i runs
// under an RAII TraceTrack that installs track = mix(fork, i) on whichever
// worker executes it.  Track identity is thus a pure function of the
// deterministic call tree and the task index — not of thread identity — and
// sorting events by (track, seq) at export time erases scheduling order.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "drbw/obs/metrics.hpp"

namespace drbw::obs {

/// Timestamp source for span durations.  kSim is the golden default.
enum class TimingMode {
  kSim,   ///< ts = simulated cycles (sim events) or sequence index (pipeline)
  kWall,  ///< pipeline span/instant ts and dur in wall-clock microseconds;
          ///< output is non-golden
};

/// One trace_event record.  `track`/`seq` order the event deterministically;
/// `ts` is what the viewer displays (cycles, or for pipeline-side events the
/// seq itself, or wall microseconds in kWall mode).
struct TraceEvent {
  std::string name;
  char phase = 'i';  // 'X' complete span, 'i' instant, 'C' counter series
  std::uint64_t track = 0;
  std::uint64_t seq = 0;
  std::uint64_t ts = 0;
  std::uint64_t dur = 0;  // 'X' only
  std::vector<std::pair<std::string, double>> num_args;
  std::vector<std::pair<std::string, std::string>> str_args;
};

/// Deterministic per-thread trace addressing state.
struct TrackScope {
  std::uint64_t track = 0;
  std::uint64_t seq = 0;
  std::uint64_t forks = 0;
};

/// The calling thread's scope.  Exposed for tests; instrumentation uses
/// fork_key()/TraceTrack/Span instead of mutating it directly.
TrackScope& track_scope();

/// splitmix64 finalizer; public so tests can predict track ids.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Derives the key for the next fan-out from the calling scope.  Call once at
/// the fan-out site (before dispatch); pass the key to every task's
/// TraceTrack.  Successive fan-outs from one scope get distinct keys.
std::uint64_t fork_key();

/// RAII child-track installer: gives task `index` of fan-out `fork` its own
/// deterministic track on whichever thread runs it, restoring the executing
/// thread's previous scope on destruction.
class TraceTrack {
 public:
  TraceTrack(std::uint64_t fork, std::uint64_t index);
  ~TraceTrack();
  TraceTrack(const TraceTrack&) = delete;
  TraceTrack& operator=(const TraceTrack&) = delete;

 private:
  TrackScope saved_;
};

/// Wall-clock microseconds since an arbitrary process-local origin.  The ONLY
/// wall-clock read in the library (src/obs/wall_clock.cpp); used solely for
/// TimingMode::kWall span durations.
std::uint64_t wall_now_micros();

/// Process-wide trace sink.  Disabled by default: every record path starts
/// with a relaxed enabled() load, so the disabled cost is one predictable
/// branch.
class Trace {
 public:
  static Trace& instance();

  /// Enables the sink and sets the span clock (see set_mode).
  void enable(TimingMode mode = TimingMode::kSim);
  /// Sets the span clock without enabling the sink: spans then also stamp
  /// their flight-recorder breadcrumbs with it.  disable() resets it to kSim.
  void set_mode(TimingMode mode);
  void disable();
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  TimingMode mode() const { return mode_; }

  /// Pipeline-side instant ('i'); ts = the event's own sequence index, or
  /// wall microseconds in kWall mode.
  void instant(std::string name,
               std::vector<std::pair<std::string, double>> num_args = {},
               std::vector<std::pair<std::string, std::string>> str_args = {});

  /// Sim-side counter sample ('C') stamped with the simulated cycle clock.
  void counter(std::string name, std::uint64_t sim_cycles,
               std::vector<std::pair<std::string, double>> num_args);

  /// Sim-side complete span ('X') with explicit cycle start/duration.
  void complete(std::string name, std::uint64_t start_cycles,
                std::uint64_t dur_cycles,
                std::vector<std::pair<std::string, double>> num_args = {},
                std::vector<std::pair<std::string, std::string>> str_args = {});

  void clear();
  std::size_t event_count() const;

  /// Chrome trace_event JSON ({"traceEvents":[...]}), events sorted by
  /// (track, seq) with dense pid/tid assignment — byte-identical for
  /// identical workloads at any --jobs value (in kSim mode).
  std::string to_json() const;
  void write_json(const std::string& path) const;

 private:
  friend class Span;
  void record(TraceEvent event);  // stamps track/seq from the calling scope

  std::atomic<bool> enabled_{false};
  TimingMode mode_ = TimingMode::kSim;
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
};

/// RAII pipeline-stage span.  Claims its sequence slot at construction; emits
/// an 'X' event at destruction.  In kSim mode dur is the number of trace
/// sequence points elapsed inside the span (deterministic) and ts the
/// claimed sequence slot; in kWall mode (Trace::mode(), whether or not the
/// sink is enabled) both are wall microseconds (non-golden).  Active when
/// the trace sink *or* the flight recorder is enabled: completed spans also
/// leave a "span" breadcrumb (at the span's start address, same ts and dur)
/// from which the run manifest derives its per-stage statistics.  Costs two
/// relaxed loads when both sinks are off.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void arg(const char* key, double v);
  void arg(const char* key, std::string v);

 private:
  bool active_ = false;
  bool tracing_ = false;
  bool flight_ = false;
  bool wall_ = false;
  std::uint64_t start_seq_ = 0;
  TraceEvent event_;
};

}  // namespace drbw::obs
