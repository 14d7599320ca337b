// drbw::obs flight recorder — a bounded, allocation-free ring buffer of
// structured events that is always cheap enough to leave on.
//
// The trace sink answers "what did the run do?" when the user opts in with
// --trace-out; the flight recorder answers "what was the run doing when it
// died?" for every run.  The CLI enables it unconditionally, each pipeline
// stage drops fixed-size breadcrumbs (stage transitions, epoch milestones,
// fault-site hits, quarantine decisions), and on any DrbwError the last-N
// events are dumped next to the run manifest — so every nonzero exit is
// self-describing.
//
// Determinism contract (same as the trace sink): events carry the
// (track, seq) addresses of drbw/obs/trace.hpp — a pure function of the
// deterministic call tree, never of thread identity — plus a sim-cycle or
// sequence timestamp.  snapshot()/dump() sort by (track, seq), so dumps for
// identical workload + seed are byte-identical at any --jobs value.
//
// Allocation-free: events are fixed-size PODs (char[ ] tags, no strings) in
// a ring preallocated once at enable(); recording is a bounded memcpy under
// a mutex, and when the ring is full the oldest events are overwritten and
// counted in dropped().
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "drbw/obs/metrics.hpp"

namespace drbw::obs {

/// One breadcrumb.  `tag` classifies the event ("stage", "span", "fault",
/// "quarantine", "epoch", …); `detail` names the subject (stage name, fault
/// site:kind, source file); `value` is tag-specific (duration, line number,
/// epoch index).  `ts` is the claimed sequence index for pipeline-side
/// events (a span's start on its own clock: the sequence index, or wall
/// microseconds under TimingMode::kWall) or the simulated cycle for
/// sim-side ones.
struct FlightEvent {
  char tag[16] = {};
  char detail[48] = {};
  std::uint64_t value = 0;
  std::uint64_t ts = 0;
  std::uint64_t track = 0;
  std::uint64_t seq = 0;
};

/// Aggregated per-name span statistics derived from "span"/"phase" events;
/// the run manifest embeds these rows.
struct SpanStat {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_dur = 0;
  std::uint64_t max_dur = 0;
};

/// Process-wide recorder.  enable() preallocates the ring and installs the
/// fault-injector fire hook so every fault-site hit leaves a breadcrumb;
/// note() costs one relaxed load + a bounded copy under a mutex.
class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  static FlightRecorder& instance();

  void enable(std::size_t capacity = kDefaultCapacity);
  void disable();
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void clear();

  /// Pipeline-side breadcrumb: claims a (track, seq) slot from the calling
  /// thread's TrackScope and stamps ts with the claimed seq.  Long tags /
  /// details are truncated to the POD field sizes, never allocated.
  void note(std::string_view tag, std::string_view detail,
            std::uint64_t value = 0);

  /// Sim-side breadcrumb with an explicit simulated-cycle timestamp.
  void note_at(std::string_view tag, std::string_view detail,
               std::uint64_t value, std::uint64_t sim_cycles);

  /// Span-completion breadcrumb recorded at the span's *start* (track, seq)
  /// address — no new slot is claimed, so span events order at the position
  /// the span opened, exactly like the trace sink's 'X' events.  `ts` and
  /// `dur` come from one clock (see obs::Span).
  void note_span(std::string_view name, std::uint64_t track,
                 std::uint64_t seq, std::uint64_t ts, std::uint64_t dur);

  /// Events sorted by (track, seq) — deterministic at any --jobs value.
  std::vector<FlightEvent> snapshot() const;

  /// Dump body: one `track,seq,ts,value,tag,detail` line per event (detail
  /// last, so commas inside it cannot shift fields), tracks densely
  /// renumbered in sorted order.  Byte-identical at any --jobs value.
  std::string dump() const;

  /// Writes dump() as a `#drbw-flight v1` checksummed artifact (atomic).
  void write(const std::string& path) const;

  /// Aggregates "span" and "phase" events into per-name statistics, sorted
  /// by name ("phase" events are reported as "phase:<detail>").
  std::vector<SpanStat> span_stats() const;

  std::size_t event_count() const;
  std::uint64_t dropped() const;

 private:
  void push(const FlightEvent& event);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<FlightEvent> ring_;
  std::size_t head_ = 0;   // next write position
  std::size_t size_ = 0;   // live events (<= ring_.size())
  std::uint64_t dropped_ = 0;
};

/// Shorthand for the process-wide recorder.
inline FlightRecorder& flight() { return FlightRecorder::instance(); }

/// Version of the `#drbw-flight` dump artifact.
inline constexpr int kFlightVersion = 1;

}  // namespace drbw::obs
