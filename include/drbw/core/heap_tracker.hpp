// Tool-side allocation tracking (§IV-C).
//
// DR-BW intercepts the malloc family and keeps, per allocation point, the
// instruction pointer and the allocated memory ranges; later, each address
// sample is matched against the recorded ranges to find the data object it
// touched.  HeapTracker is exactly that table, fed by the AllocationEvent
// stream (our LD_PRELOAD analogue).  Allocations from the same call site are
// merged into one logical data object — the granularity at which the paper
// reports Contribution Fractions ("heap data objects allocated at
// line:2158-2238", §VIII-D).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "drbw/mem/address_space.hpp"

namespace drbw::core {

/// One logical data object = one allocation site, possibly many live ranges.
struct TrackedObject {
  std::string site;
  std::uint64_t live_bytes = 0;
  std::uint64_t peak_bytes = 0;
  std::uint32_t allocations = 0;
  std::uint32_t frees = 0;
};

/// Sentinel object index for addresses outside every tracked range
/// (static/stack data, which the paper's tool does not trace, §VIII-F).
inline constexpr std::uint32_t kUnknownObject = 0xffffffffu;

class HeapTracker {
 public:
  /// Processes one intercepted allocation/free.  Damaged event streams throw
  /// Error(kCorruptArtifact): a free whose base is not live, an allocation
  /// at a base that is still live or whose range ends past 2^64, and one
  /// that overflows its site's live byte count.
  void on_event(const mem::AllocationEvent& event);
  /// Convenience: processes a whole event stream in order.
  void on_events(const std::vector<mem::AllocationEvent>& events);

  /// Object index owning `addr`, or kUnknownObject.  O(log live ranges).
  std::uint32_t object_of(mem::Addr addr) const;

  const std::vector<TrackedObject>& objects() const { return objects_; }
  const TrackedObject& object(std::uint32_t index) const;

  std::size_t live_range_count() const { return ranges_.size(); }

 private:
  struct Range {
    mem::Addr end = 0;
    std::uint32_t object = 0;
  };

  std::uint32_t intern_site(const std::string& site);

  std::vector<TrackedObject> objects_;
  /// Ordered, not hashed: object indices and every aggregate derived from
  /// them must not depend on hash-table layout (determinism contract;
  /// object order itself is insertion order via objects_).
  std::map<std::string, std::uint32_t> by_site_;
  /// Live ranges: base -> (end, object index).
  std::map<mem::Addr, Range> ranges_;
};

}  // namespace drbw::core
