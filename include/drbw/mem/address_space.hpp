// Simulated virtual address space with NUMA page placement.
//
// This is the *machine-truth* side of memory: which pages exist, which NUMA
// node each page is homed on, and which named region (data object) an
// address belongs to.  It plays the role of the OS page tables plus libnuma
// in the real system.  The DR-BW tool itself never reads this class's object
// registry directly — it reconstructs its own allocation table from the
// AllocationEvent stream, exactly as the real tool rebuilds one from
// intercepted malloc calls (see drbw::core::HeapTracker).
//
// Placement policies model the paper's optimization levers.  Every policy
// but first-touch is a closed-form function of the page index, so those
// regions keep no per-page state: a page's home, and the number of pages of
// a range homed on each node, are computed from the policy alone.
//   * kBind          — every page on one node (master-thread allocation; the
//                      default problematic layout, and also the "co-locate"
//                      building block when applied per segment).
//   * kFirstTouch    — page homed on the node of the first access (Linux
//                      default).  The only policy with history, and so the
//                      only one that keeps a per-page home table; the
//                      engine's first access resolves each page.
//   * kInterleave    — page i on node set[i % k] (numactl -i).
//   * kColocate      — explicit per-segment homes supplied by the caller
//                      (libnuma numa_alloc_onnode per partition, §VIII-A);
//                      page i of P lies in segment floor(i * S / P).
//   * kReplicate     — one replica per node; every access resolves local
//                      (the Streamcluster "shadow replication", §VIII-C).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "drbw/topology/machine.hpp"

namespace drbw::mem {

using Addr = std::uint64_t;
using ObjectId = std::uint32_t;

/// Identifier DR-BW keeps per allocation point: in the real tool this is the
/// instruction pointer of the malloc call site; here it is a stable
/// "file:line symbol" string supplied by the workload spec.
struct AllocationSite {
  std::string label;
  bool operator==(const AllocationSite&) const = default;
};

enum class Placement : std::uint8_t {
  kBind,
  kFirstTouch,
  kInterleave,
  kColocate,
  kReplicate,
};

const char* placement_name(Placement p);

/// Placement request for one allocation.
struct PlacementSpec {
  Placement policy = Placement::kBind;
  /// Home node for kBind.
  topology::NodeId bind_node = 0;
  /// Node set for kInterleave (empty = all nodes).
  std::vector<topology::NodeId> interleave_nodes;
  /// For kColocate: segment homes; segment i covers bytes
  /// [i*ceil(size/n), ...) of the object.  Must be nonempty.
  std::vector<topology::NodeId> segment_nodes;

  static PlacementSpec bind(topology::NodeId node);
  static PlacementSpec first_touch();
  static PlacementSpec interleave(std::vector<topology::NodeId> nodes = {});
  static PlacementSpec colocate(std::vector<topology::NodeId> segment_nodes);
  static PlacementSpec replicate();
};

/// A named allocated region.  `is_heap` distinguishes malloc-family
/// allocations (which DR-BW tracks) from static/stack regions (which the
/// paper's tool explicitly does not track, §VIII-D/F).
struct DataObject {
  ObjectId id = 0;
  AllocationSite site;
  Addr base = 0;
  std::uint64_t size_bytes = 0;
  PlacementSpec placement;
  bool is_heap = true;
  bool alive = true;
};

/// Event emitted on every heap allocation/free, consumed by the tool-side
/// HeapTracker; mirrors the information an LD_PRELOAD malloc wrapper sees.
struct AllocationEvent {
  enum class Kind : std::uint8_t { kAlloc, kFree } kind = Kind::kAlloc;
  AllocationSite site;
  Addr base = 0;
  std::uint64_t size_bytes = 0;
};

/// The simulated address space.
class AddressSpace {
 public:
  explicit AddressSpace(const topology::Machine& machine);

  /// Allocates a heap object.  Emits an AllocationEvent retrievable via
  /// drain_events().  Addresses are page aligned and never reused while the
  /// object is alive.
  ObjectId allocate(const std::string& site_label, std::uint64_t bytes,
                    const PlacementSpec& placement);

  /// Allocates a static/global region (not visible to the heap tracker).
  ObjectId allocate_static(const std::string& site_label, std::uint64_t bytes,
                           const PlacementSpec& placement);

  /// Frees a heap object; pages are released and an event is emitted.
  void free(ObjectId id);

  /// Home node of the page containing `addr`, as seen by a CPU on
  /// `accessing_node`.  Replicated objects resolve to the accessing node.
  /// First-touch pages that were never touched resolve to `accessing_node`
  /// and become permanently homed there (the engine's first access *is* the
  /// first touch).
  topology::NodeId resolve_home(Addr addr, topology::NodeId accessing_node);
  /// resolve_home() for a caller that already knows the live object `id`
  /// owning `addr` (the engine's active burst), without the range lookup.
  topology::NodeId resolve_home(ObjectId id, Addr addr,
                                topology::NodeId accessing_node);

  /// Like resolve_home but never mutates (untouched first-touch pages report
  /// std::nullopt).  Only tests call it.
  std::optional<topology::NodeId> peek_home(Addr addr,
                                            topology::NodeId accessing_node) const;

  /// Object owning `addr`, or nullptr for unmapped addresses.
  const DataObject* object_at(Addr addr) const;
  const DataObject& object(ObjectId id) const;
  std::size_t object_count() const { return regions_.size(); }

  /// Bulk first-touch + home histogram for a byte range of one object, as
  /// seen from `accessing_node`.  Touches any unassigned first-touch pages
  /// in the range (the caller is about to access them) and returns the
  /// fraction of pages homed on each node.  Replicated objects report 1.0
  /// on the accessing node.  This is the engine's hot path: the per-node
  /// page counts come from the placement's closed form (first-touch alone
  /// scans its page-home table), so the cost does not grow with the span.
  std::vector<double> touch_and_home_fractions(ObjectId id,
                                               std::uint64_t offset_bytes,
                                               std::uint64_t span_bytes,
                                               topology::NodeId accessing_node);

  /// Moves and clears the pending allocation-event queue.
  std::vector<AllocationEvent> drain_events();

  /// Bytes currently resident per node (replicated objects count once per
  /// node).  Untouched first-touch pages are not resident anywhere yet.
  std::vector<std::uint64_t> resident_bytes_per_node() const;

  std::uint32_t page_bytes() const { return page_bytes_; }

 private:
  struct Region {
    DataObject object;
    std::uint64_t pages = 0;
    /// kInterleave: the node set pages cycle through (an empty spec is
    /// resolved to every node).  kColocate: the segment homes.
    std::vector<topology::NodeId> nodes;
    /// kFirstTouch only: per-page home, kUnassigned until first touched.
    std::vector<std::int16_t> page_home;
  };

  static constexpr std::int16_t kUnassigned = -1;

  /// Home of `page` as seen from `accessing_node`; kUnassigned for an
  /// untouched first-touch page.
  static topology::NodeId home_of(const Region& region, std::uint64_t page,
                                  topology::NodeId accessing_node);
  /// Pages of [first_page, last_page] homed on each node (untouched
  /// first-touch pages count nowhere).  Not for replicated regions.
  std::vector<std::uint64_t> home_counts(const Region& region,
                                         std::uint64_t first_page,
                                         std::uint64_t last_page) const;

  ObjectId allocate_impl(const std::string& site_label, std::uint64_t bytes,
                         const PlacementSpec& placement, bool is_heap);
  Region& region_of(ObjectId id);
  const Region& region_of(ObjectId id) const;
  void assign_initial_homes(Region& region);

  const topology::Machine& machine_;
  std::uint32_t page_bytes_;
  Addr next_base_;
  std::vector<Region> regions_;
  /// base address -> object id, for O(log n) address lookup.
  std::map<Addr, ObjectId> by_base_;
  std::vector<AllocationEvent> pending_events_;
};

}  // namespace drbw::mem
