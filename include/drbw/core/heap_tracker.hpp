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
#include <utility>
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

  /// object_of() for many lookups against the ranges live when finder()
  /// was called: a flat sorted snapshot instead of a map walk per address.
  /// Consecutive samples mostly touch the same object, so the range found
  /// last is tried first; it answers only when it is still the address's
  /// predecessor, so nested ranges answer exactly as object_of() does.
  class Finder {
   public:
    std::uint32_t object_of(mem::Addr addr) {
      const std::size_t n = ranges_.size();
      const bool last_is_predecessor =
          last_ < n && ranges_[last_].base <= addr &&
          (last_ + 1 == n || addr < ranges_[last_ + 1].base);
      if (!last_is_predecessor && !seek(addr)) return kUnknownObject;
      const Entry& range = ranges_[last_];
      return addr < range.end ? range.object : kUnknownObject;
    }

   private:
    friend class HeapTracker;
    struct Entry {
      mem::Addr base = 0;
      mem::Addr end = 0;
      std::uint32_t object = 0;
    };

    explicit Finder(std::vector<Entry> ranges) : ranges_(std::move(ranges)) {}
    /// Points last_ at the range with the greatest base <= addr; false when
    /// every live range starts above addr.
    bool seek(mem::Addr addr);

    std::vector<Entry> ranges_;  // ascending by base
    std::size_t last_ = static_cast<std::size_t>(-1);
  };
  Finder finder() const;

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
