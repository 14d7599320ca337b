#include "drbw/obs/trace.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "drbw/obs/flight_recorder.hpp"
#include "drbw/obs/sink.hpp"
#include "internal.hpp"

namespace drbw::obs {

TrackScope& track_scope() {
  thread_local TrackScope scope;
  return scope;
}

std::uint64_t fork_key() {
  TrackScope& scope = track_scope();
  return mix64(scope.track ^ mix64(++scope.forks));
}

TraceTrack::TraceTrack(std::uint64_t fork, std::uint64_t index)
    : saved_(track_scope()) {
  track_scope() = TrackScope{mix64(fork ^ mix64(index + 1)), 0, 0};
}

TraceTrack::~TraceTrack() { track_scope() = saved_; }

Trace& Trace::instance() {
  static Trace trace;
  return trace;
}

void Trace::enable(TimingMode mode) {
  if (!kEnabled) return;
  mode_ = mode;
  enabled_.store(true, std::memory_order_relaxed);
}

void Trace::disable() { enabled_.store(false, std::memory_order_relaxed); }

void Trace::record(TraceEvent event) {
  TrackScope& scope = track_scope();
  event.track = scope.track;
  event.seq = scope.seq++;
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(event));
}

void Trace::instant(std::string name,
                    std::vector<std::pair<std::string, double>> num_args,
                    std::vector<std::pair<std::string, std::string>> str_args) {
  if (!enabled()) return;
  TraceEvent event;
  event.name = std::move(name);
  event.phase = 'i';
  event.num_args = std::move(num_args);
  event.str_args = std::move(str_args);
  // ts is the claimed seq, so instants line up with sim-mode spans in
  // viewers; under wall timing it is the wall clock, as for spans.
  TrackScope& scope = track_scope();
  event.track = scope.track;
  event.seq = scope.seq++;
  event.ts = mode_ == TimingMode::kWall ? wall_now_micros() : event.seq;
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(event));
}

void Trace::counter(std::string name, std::uint64_t sim_cycles,
                    std::vector<std::pair<std::string, double>> num_args) {
  if (!enabled()) return;
  TraceEvent event;
  event.name = std::move(name);
  event.phase = 'C';
  event.ts = sim_cycles;
  event.num_args = std::move(num_args);
  record(std::move(event));
}

void Trace::complete(std::string name, std::uint64_t start_cycles,
                     std::uint64_t dur_cycles,
                     std::vector<std::pair<std::string, double>> num_args,
                     std::vector<std::pair<std::string, std::string>> str_args) {
  if (!enabled()) return;
  TraceEvent event;
  event.name = std::move(name);
  event.phase = 'X';
  event.ts = start_cycles;
  event.dur = dur_cycles;
  event.num_args = std::move(num_args);
  event.str_args = std::move(str_args);
  record(std::move(event));
}

void Trace::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
}

std::size_t Trace::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

std::string Trace::to_json() const {
  std::vector<TraceEvent> events;
  TimingMode mode;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    events = events_;
    mode = mode_;
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.track != b.track) return a.track < b.track;
                     return a.seq < b.seq;
                   });
  // Dense tid assignment in sorted-track order: viewer thread ids are small
  // and stable, and carry no physical-thread information.
  std::map<std::uint64_t, std::uint64_t> tids;
  for (const TraceEvent& e : events) tids.emplace(e.track, tids.size());

  std::ostringstream os;
  os << "{\"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& e : events) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "  {\"name\": \"" << internal::json_escape(e.name) << "\", \"ph\": \""
       << e.phase << "\", \"pid\": 1, \"tid\": " << tids.at(e.track)
       << ", \"ts\": " << e.ts;
    if (e.phase == 'X') os << ", \"dur\": " << e.dur;
    if (e.phase == 'i') os << ", \"s\": \"t\"";
    if (!e.num_args.empty() || !e.str_args.empty()) {
      os << ", \"args\": {";
      bool first_arg = true;
      for (const auto& [key, value] : e.num_args) {
        if (!first_arg) os << ", ";
        first_arg = false;
        os << '"' << internal::json_escape(key) << "\": " << internal::format_double(value);
      }
      for (const auto& [key, value] : e.str_args) {
        if (!first_arg) os << ", ";
        first_arg = false;
        os << '"' << internal::json_escape(key) << "\": \"" << internal::json_escape(value)
           << '"';
      }
      os << '}';
    }
    os << '}';
  }
  os << (first ? "" : "\n") << "],\n";
  os << "\"otherData\": {\"clock\": \""
     << (mode == TimingMode::kSim ? "sim-cycles" : "wall-micros")
     << "\", \"golden\": " << (mode == TimingMode::kSim ? "true" : "false")
     << "}}\n";
  return os.str();
}

void Trace::write_json(const std::string& path) const {
  // Through the obs sink: a crash mid-write can never leave a partial trace
  // at the target path.
  atomic_write_file(path, to_json());
}

Span::Span(const char* name) {
  Trace& trace = Trace::instance();
  tracing_ = trace.enabled();
  flight_ = FlightRecorder::instance().enabled();
  if (!tracing_ && !flight_) return;
  active_ = true;
  event_.name = name;
  event_.phase = 'X';
  // Claim the ordering slot now: nested spans and events inside this span get
  // later sequence numbers, so (track, seq) sorting nests correctly.
  TrackScope& scope = track_scope();
  event_.track = scope.track;
  start_seq_ = scope.seq++;
  event_.seq = start_seq_;
  event_.ts = start_seq_;
  if (tracing_ && trace.mode() == TimingMode::kWall) {
    // One clock for ts and dur, so viewers and `drbw flame` nest by time.
    start_wall_us_ = wall_now_micros();
    event_.ts = start_wall_us_;
  }
}

Span::~Span() {
  if (!active_) return;
  Trace& trace = Trace::instance();
  if (tracing_ && trace.mode() == TimingMode::kWall) {
    event_.dur = wall_now_micros() - start_wall_us_;
  } else {
    // Deterministic "duration": trace sequence points elapsed inside the span.
    event_.dur = track_scope().seq - start_seq_;
  }
  if (flight_) {
    // Breadcrumb at the span's *start* address (no second slot claimed):
    // span stats in the run manifest come from these.
    FlightRecorder::instance().note_span(event_.name, event_.track, start_seq_,
                                         event_.dur);
  }
  if (tracing_) {
    std::lock_guard<std::mutex> lock(trace.mutex_);
    trace.events_.push_back(std::move(event_));
  }
}

void Span::arg(const char* key, double v) {
  if (active_) event_.num_args.emplace_back(key, v);
}

void Span::arg(const char* key, std::string v) {
  if (active_) event_.str_args.emplace_back(key, std::move(v));
}

}  // namespace drbw::obs
