#include "drbw/obs/flight_recorder.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>

#include "drbw/fault/injector.hpp"
#include "drbw/obs/sink.hpp"
#include "drbw/obs/trace.hpp"

namespace drbw::obs {

namespace {

void copy_field(char* dst, std::size_t cap, std::string_view src) {
  const std::size_t n = std::min(cap - 1, src.size());
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

/// Installed into the fault injector at enable(): every fired site leaves a
/// "fault" breadcrumb.  Stack buffers only — the hook may run on the hottest
/// instrumented path.
void fault_fire_hook(std::string_view site, const char* kind_token,
                     std::uint64_t key) {
  char detail[sizeof(FlightEvent{}.detail)];
  std::snprintf(detail, sizeof detail, "%.*s:%s",
                static_cast<int>(site.size()), site.data(), kind_token);
  FlightRecorder::instance().note("fault", detail, key);
}

}  // namespace

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder recorder;
  return recorder;
}

void FlightRecorder::enable(std::size_t capacity) {
  if (capacity == 0) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    capacity_ = capacity;
    ring_.clear();
    head_ = 0;
    dropped_ = 0;
  }
  enabled_.store(true, std::memory_order_relaxed);
  fault::Injector::global().set_fire_hook(&fault_fire_hook);
}

void FlightRecorder::disable() {
  enabled_.store(false, std::memory_order_relaxed);
  fault::Injector::global().set_fire_hook(nullptr);
}

void FlightRecorder::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  head_ = 0;
  dropped_ = 0;
}

void FlightRecorder::push(const FlightEvent& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() < capacity_) {
    // Still filling: the ring grows, so a short run touches only the pages
    // its events occupy.  push() runs in span destructors and on failure
    // paths, so it never throws: an event that cannot get memory is lost
    // and counted like an overwritten one.
    try {
      ring_.push_back(event);
    } catch (const std::bad_alloc&) {
      ++dropped_;
    }
    return;
  }
  if (ring_.empty()) return;  // never enabled
  ring_[head_] = event;
  head_ = (head_ + 1) % ring_.size();
  ++dropped_;  // overwrote the oldest event
}

void FlightRecorder::note(std::string_view tag, std::string_view detail,
                          std::uint64_t value) {
  if (!enabled()) return;
  FlightEvent event;
  copy_field(event.tag, sizeof event.tag, tag);
  copy_field(event.detail, sizeof event.detail, detail);
  event.value = value;
  // Claim a (track, seq) slot exactly like the trace sink: ordering is a
  // pure function of the deterministic call tree, never of thread identity.
  TrackScope& scope = track_scope();
  event.track = scope.track;
  event.seq = scope.seq++;
  event.ts = event.seq;
  push(event);
}

void FlightRecorder::note_span(std::string_view name, std::uint64_t track,
                               std::uint64_t seq, std::uint64_t ts,
                               std::uint64_t dur) {
  if (!enabled()) return;
  FlightEvent event;
  copy_field(event.tag, sizeof event.tag, "span");
  copy_field(event.detail, sizeof event.detail, name);
  event.value = dur;
  event.track = track;
  event.seq = seq;
  event.ts = ts;
  push(event);
}

void FlightRecorder::note_at(std::string_view tag, std::string_view detail,
                             std::uint64_t value, std::uint64_t sim_cycles) {
  if (!enabled()) return;
  FlightEvent event;
  copy_field(event.tag, sizeof event.tag, tag);
  copy_field(event.detail, sizeof event.detail, detail);
  event.value = value;
  TrackScope& scope = track_scope();
  event.track = scope.track;
  event.seq = scope.seq++;
  event.ts = sim_cycles;
  push(event);
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::vector<FlightEvent> events;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // The oldest event sits at head_ once the ring has wrapped, at 0 before.
    const std::size_t n = ring_.size();
    events.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      events.push_back(ring_[(head_ + i) % n]);
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const FlightEvent& a, const FlightEvent& b) {
                     if (a.track != b.track) return a.track < b.track;
                     return a.seq < b.seq;
                   });
  return events;
}

std::string FlightRecorder::dump() const {
  const std::vector<FlightEvent> events = snapshot();
  // Dense track renumbering in sorted order, mirroring the trace sink's tid
  // assignment: dump tracks are small, stable, and scheduling-free.
  std::map<std::uint64_t, std::uint64_t> tracks;
  for (const FlightEvent& e : events) tracks.emplace(e.track, tracks.size());
  std::ostringstream os;
  os << "track,seq,ts,value,tag,detail\n";
  for (const FlightEvent& e : events) {
    os << tracks.at(e.track) << ',' << e.seq << ',' << e.ts << ',' << e.value
       << ',' << e.tag << ',' << e.detail << '\n';
  }
  return os.str();
}

void FlightRecorder::write(const std::string& path) const {
  const std::string body = dump();
  std::string content = format_artifact_header("flight", kFlightVersion, body);
  content += '\n';
  content += body;
  atomic_write_file(path, content);
}

std::vector<SpanStat> FlightRecorder::span_stats() const {
  std::map<std::string, SpanStat> by_name;
  for (const FlightEvent& e : snapshot()) {
    std::string name;
    if (std::strcmp(e.tag, "span") == 0) {
      name = e.detail;
    } else if (std::strcmp(e.tag, "phase") == 0) {
      name = std::string("phase:") + e.detail;
    } else {
      continue;
    }
    SpanStat& stat = by_name[name];
    stat.name = name;
    ++stat.count;
    stat.total_dur += e.value;
    stat.max_dur = std::max(stat.max_dur, e.value);
  }
  std::vector<SpanStat> stats;
  stats.reserve(by_name.size());
  for (auto& [name, stat] : by_name) stats.push_back(std::move(stat));
  return stats;
}

std::size_t FlightRecorder::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

std::uint64_t FlightRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

}  // namespace drbw::obs
