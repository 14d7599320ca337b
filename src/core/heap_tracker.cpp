#include "drbw/core/heap_tracker.hpp"

#include <algorithm>
#include <sstream>

#include "drbw/obs/metrics.hpp"
#include "drbw/util/error.hpp"

namespace drbw::core {

namespace {

struct HeapMetrics {
  obs::Counter& allocs;
  obs::Counter& frees;
  obs::Counter& alloc_bytes;
  obs::Gauge& peak_live_bytes;

  static HeapMetrics& get() {
    auto& reg = obs::Registry::global();
    static HeapMetrics m{
        reg.counter("drbw_core_heap_allocs_total",
                    "Allocation events replayed by HeapTracker"),
        reg.counter("drbw_core_heap_frees_total",
                    "Free events replayed by HeapTracker"),
        reg.counter("drbw_core_heap_alloc_bytes_total",
                    "Bytes allocated across replayed events"),
        reg.gauge("drbw_core_heap_live_bytes_peak",
                  "Largest per-object live footprint seen by any tracker"),
    };
    return m;
  }
};

}  // namespace

std::uint32_t HeapTracker::intern_site(const std::string& site) {
  const auto it = by_site_.find(site);
  if (it != by_site_.end()) return it->second;
  const auto index = static_cast<std::uint32_t>(objects_.size());
  objects_.push_back(TrackedObject{site, 0, 0, 0, 0});
  by_site_.emplace(site, index);
  return index;
}

void HeapTracker::on_event(const mem::AllocationEvent& event) {
  // Events come from trace files, so every inconsistency below is damaged
  // input (exit 68), not a broken invariant.
  const auto corrupt = [&event](const char* subject, const char* what) {
    std::ostringstream os;
    os << subject << " 0x" << std::hex << event.base << ": " << what
       << " (a damaged trace)";
    throw Error(os.str(), ErrorCode::kCorruptArtifact);
  };
  if (event.kind == mem::AllocationEvent::Kind::kAlloc) {
    if (event.size_bytes > ~event.base) {
      corrupt("allocation at", "the range ends past the 64-bit address space");
    }
    if (ranges_.count(event.base) != 0) {
      corrupt("allocation at", "the base is already allocated and still live");
    }
    const std::uint32_t obj = intern_site(event.site.label);
    TrackedObject& tracked = objects_[obj];
    if (event.size_bytes > ~tracked.live_bytes) {
      corrupt("allocation at",
              "the site's live bytes overflow 64 bits (overlapping ranges)");
    }
    tracked.live_bytes += event.size_bytes;
    tracked.peak_bytes = std::max(tracked.peak_bytes, tracked.live_bytes);
    ++tracked.allocations;
    HeapMetrics& metrics = HeapMetrics::get();
    metrics.allocs.add(1);
    metrics.alloc_bytes.add(event.size_bytes);
    metrics.peak_live_bytes.set_max(static_cast<double>(tracked.peak_bytes));
    ranges_[event.base] = Range{event.base + event.size_bytes, obj};
    return;
  }
  // Free: the wrapper sees only the pointer; match it to the recorded base.
  const auto it = ranges_.find(event.base);
  if (it == ranges_.end()) {
    corrupt("free of untracked pointer",
            "the free has no matching allocation");
  }
  TrackedObject& tracked = objects_[it->second.object];
  const std::uint64_t bytes = it->second.end - event.base;
  DRBW_CHECK(tracked.live_bytes >= bytes);
  tracked.live_bytes -= bytes;
  ++tracked.frees;
  HeapMetrics::get().frees.add(1);
  ranges_.erase(it);
}

void HeapTracker::on_events(const std::vector<mem::AllocationEvent>& events) {
  for (const auto& event : events) on_event(event);
}

std::uint32_t HeapTracker::object_of(mem::Addr addr) const {
  auto it = ranges_.upper_bound(addr);
  if (it == ranges_.begin()) return kUnknownObject;
  --it;
  if (addr >= it->second.end) return kUnknownObject;
  return it->second.object;
}

const TrackedObject& HeapTracker::object(std::uint32_t index) const {
  DRBW_CHECK_MSG(index < objects_.size(), "unknown tracked object " << index);
  return objects_[index];
}

}  // namespace drbw::core
