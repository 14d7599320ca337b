#include "drbw/mem/address_space.hpp"

#include <algorithm>

namespace drbw::mem {

namespace {

/// First page of co-locate segment `s` when `pages` pages split into
/// `segments`: the least page i with floor(i * segments / pages) >= s.
std::uint64_t segment_begin(std::uint64_t s, std::uint64_t pages,
                            std::uint64_t segments) {
  return (s * pages + segments - 1) / segments;
}

}  // namespace

const char* placement_name(Placement p) {
  switch (p) {
    case Placement::kBind: return "bind";
    case Placement::kFirstTouch: return "first-touch";
    case Placement::kInterleave: return "interleave";
    case Placement::kColocate: return "co-locate";
    case Placement::kReplicate: return "replicate";
  }
  return "?";
}

PlacementSpec PlacementSpec::bind(topology::NodeId node) {
  PlacementSpec s;
  s.policy = Placement::kBind;
  s.bind_node = node;
  return s;
}

PlacementSpec PlacementSpec::first_touch() {
  PlacementSpec s;
  s.policy = Placement::kFirstTouch;
  return s;
}

PlacementSpec PlacementSpec::interleave(std::vector<topology::NodeId> nodes) {
  PlacementSpec s;
  s.policy = Placement::kInterleave;
  s.interleave_nodes = std::move(nodes);
  return s;
}

PlacementSpec PlacementSpec::colocate(std::vector<topology::NodeId> segment_nodes) {
  PlacementSpec s;
  s.policy = Placement::kColocate;
  s.segment_nodes = std::move(segment_nodes);
  return s;
}

PlacementSpec PlacementSpec::replicate() {
  PlacementSpec s;
  s.policy = Placement::kReplicate;
  return s;
}

AddressSpace::AddressSpace(const topology::Machine& machine)
    : machine_(machine),
      page_bytes_(machine.spec().page_bytes),
      // Start well above zero so null/small pointers are always unmapped.
      next_base_(0x10000000ULL) {}

ObjectId AddressSpace::allocate(const std::string& site_label,
                                std::uint64_t bytes,
                                const PlacementSpec& placement) {
  const ObjectId id = allocate_impl(site_label, bytes, placement, /*is_heap=*/true);
  const Region& region = region_of(id);
  pending_events_.push_back(AllocationEvent{AllocationEvent::Kind::kAlloc,
                                            region.object.site,
                                            region.object.base, bytes});
  return id;
}

ObjectId AddressSpace::allocate_static(const std::string& site_label,
                                       std::uint64_t bytes,
                                       const PlacementSpec& placement) {
  return allocate_impl(site_label, bytes, placement, /*is_heap=*/false);
}

ObjectId AddressSpace::allocate_impl(const std::string& site_label,
                                     std::uint64_t bytes,
                                     const PlacementSpec& placement,
                                     bool is_heap) {
  DRBW_CHECK_MSG(bytes > 0, "zero-byte allocation at " << site_label);
  Region region;
  region.object.id = static_cast<ObjectId>(regions_.size());
  region.object.site = AllocationSite{site_label};
  region.object.base = next_base_;
  region.object.size_bytes = bytes;
  region.object.placement = placement;
  region.object.is_heap = is_heap;
  region.pages = (bytes + page_bytes_ - 1) / page_bytes_;
  assign_initial_homes(region);

  next_base_ += region.pages * page_bytes_;
  // Guard page gap: adjacent objects never share a page, so page-granular
  // home lookups are unambiguous (real allocators give no such guarantee,
  // but PEBS attribution in the paper is byte-granular anyway).
  next_base_ += page_bytes_;

  by_base_.emplace(region.object.base, region.object.id);
  regions_.push_back(std::move(region));
  return regions_.back().object.id;
}

void AddressSpace::assign_initial_homes(Region& region) {
  const PlacementSpec& p = region.object.placement;
  const int nodes = machine_.num_nodes();
  switch (p.policy) {
    case Placement::kBind:
      DRBW_CHECK_MSG(p.bind_node >= 0 && p.bind_node < nodes,
                     "bind node " << p.bind_node << " out of range");
      break;
    case Placement::kFirstTouch:
      // Homes stay kUnassigned until resolve_home() observes a touch.
      region.page_home.assign(region.pages, kUnassigned);
      break;
    case Placement::kInterleave:
      region.nodes = p.interleave_nodes;
      if (region.nodes.empty()) {
        for (int n = 0; n < nodes; ++n) region.nodes.push_back(n);
      }
      for (topology::NodeId n : region.nodes) {
        DRBW_CHECK_MSG(n >= 0 && n < nodes, "interleave node " << n << " out of range");
      }
      break;
    case Placement::kColocate: {
      DRBW_CHECK_MSG(!p.segment_nodes.empty(),
                     "co-locate placement needs segment homes");
      region.nodes = p.segment_nodes;
      const std::uint64_t segments = region.nodes.size();
      for (std::uint64_t s = 0; s < segments; ++s) {
        // A segment that owns no page (more segments than pages) never
        // homes anything, so its node is not checked.
        if (segment_begin(s, region.pages, segments) ==
            segment_begin(s + 1, region.pages, segments)) {
          continue;
        }
        const topology::NodeId n = region.nodes[s];
        DRBW_CHECK_MSG(n >= 0 && n < nodes, "segment node " << n << " out of range");
      }
      break;
    }
    case Placement::kReplicate:
      // Page homes are irrelevant; resolution is always the accessing node.
      break;
  }
}

void AddressSpace::free(ObjectId id) {
  Region& region = region_of(id);
  DRBW_CHECK_MSG(region.object.alive, "double free of object " << id);
  DRBW_CHECK_MSG(region.object.is_heap, "free of non-heap object " << id);
  region.object.alive = false;
  pending_events_.push_back(AllocationEvent{AllocationEvent::Kind::kFree,
                                            region.object.site,
                                            region.object.base,
                                            region.object.size_bytes});
}

AddressSpace::Region& AddressSpace::region_of(ObjectId id) {
  DRBW_CHECK_MSG(id < regions_.size(), "unknown object id " << id);
  return regions_[id];
}

const AddressSpace::Region& AddressSpace::region_of(ObjectId id) const {
  DRBW_CHECK_MSG(id < regions_.size(), "unknown object id " << id);
  return regions_[id];
}

const DataObject* AddressSpace::object_at(Addr addr) const {
  auto it = by_base_.upper_bound(addr);
  if (it == by_base_.begin()) return nullptr;
  --it;
  const Region& region = regions_[it->second];
  if (addr >= region.object.base + region.object.size_bytes) return nullptr;
  if (!region.object.alive) return nullptr;
  return &region.object;
}

const DataObject& AddressSpace::object(ObjectId id) const {
  return region_of(id).object;
}

topology::NodeId AddressSpace::home_of(const Region& region,
                                       std::uint64_t page,
                                       topology::NodeId accessing_node) {
  const PlacementSpec& p = region.object.placement;
  switch (p.policy) {
    case Placement::kBind: return p.bind_node;
    case Placement::kFirstTouch: return region.page_home[page];
    case Placement::kInterleave: return region.nodes[page % region.nodes.size()];
    case Placement::kColocate:
      return region.nodes[page * region.nodes.size() / region.pages];
    case Placement::kReplicate: return accessing_node;
  }
  return kUnassigned;
}

std::vector<std::uint64_t> AddressSpace::home_counts(
    const Region& region, std::uint64_t first_page,
    std::uint64_t last_page) const {
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(machine_.num_nodes()),
                                    0);
  const PlacementSpec& p = region.object.placement;
  const std::uint64_t end_page = last_page + 1;
  switch (p.policy) {
    case Placement::kBind:
      counts[static_cast<std::size_t>(p.bind_node)] = end_page - first_page;
      break;
    case Placement::kFirstTouch:
      for (std::uint64_t page = first_page; page < end_page; ++page) {
        const std::int16_t home = region.page_home[page];
        if (home != kUnassigned) ++counts[static_cast<std::size_t>(home)];
      }
      break;
    case Placement::kInterleave: {
      // Pages below n in residue class r of k: n / k, plus one if r < n % k.
      const std::uint64_t k = region.nodes.size();
      const auto below = [k](std::uint64_t n, std::uint64_t r) {
        return n / k + (r < n % k ? 1 : 0);
      };
      for (std::uint64_t r = 0; r < k; ++r) {
        counts[static_cast<std::size_t>(region.nodes[r])] +=
            below(end_page, r) - below(first_page, r);
      }
      break;
    }
    case Placement::kColocate: {
      const std::uint64_t segments = region.nodes.size();
      for (std::uint64_t s = first_page * segments / region.pages;
           s <= last_page * segments / region.pages; ++s) {
        const std::uint64_t lo =
            std::max(first_page, segment_begin(s, region.pages, segments));
        const std::uint64_t hi =
            std::min(end_page, segment_begin(s + 1, region.pages, segments));
        if (lo < hi) counts[static_cast<std::size_t>(region.nodes[s])] += hi - lo;
      }
      break;
    }
    case Placement::kReplicate:
      // Every node holds a replica; callers account for it before counting.
      break;
  }
  return counts;
}

topology::NodeId AddressSpace::resolve_home(Addr addr,
                                            topology::NodeId accessing_node) {
  const DataObject* obj = object_at(addr);
  DRBW_CHECK_MSG(obj != nullptr, "access to unmapped address 0x" << std::hex << addr);
  return resolve_home(obj->id, addr, accessing_node);
}

topology::NodeId AddressSpace::resolve_home(ObjectId id, Addr addr,
                                            topology::NodeId accessing_node) {
  Region& region = region_of(id);
  DRBW_CHECK_MSG(region.object.alive && addr >= region.object.base &&
                     addr - region.object.base < region.object.size_bytes,
                 "address 0x" << std::hex << addr << " outside object "
                              << std::dec << id);
  const std::uint64_t page = (addr - region.object.base) / page_bytes_;
  const topology::NodeId home = home_of(region, page, accessing_node);
  if (home != kUnassigned) return home;
  region.page_home[page] = static_cast<std::int16_t>(accessing_node);
  return accessing_node;
}

std::optional<topology::NodeId> AddressSpace::peek_home(
    Addr addr, topology::NodeId accessing_node) const {
  const DataObject* obj = object_at(addr);
  if (obj == nullptr) return std::nullopt;
  const Region& region = regions_[obj->id];
  const std::uint64_t page = (addr - region.object.base) / page_bytes_;
  const topology::NodeId home = home_of(region, page, accessing_node);
  if (home == kUnassigned) return std::nullopt;
  return home;
}

std::vector<double> AddressSpace::touch_and_home_fractions(
    ObjectId id, std::uint64_t offset_bytes, std::uint64_t span_bytes,
    topology::NodeId accessing_node) {
  Region& region = region_of(id);
  DRBW_CHECK_MSG(region.object.alive, "access to freed object " << id);
  DRBW_CHECK_MSG(span_bytes > 0, "empty span");
  DRBW_CHECK_MSG(offset_bytes + span_bytes <= region.object.size_bytes,
                 "range [" << offset_bytes << ", " << offset_bytes + span_bytes
                           << ") exceeds object of " << region.object.size_bytes
                           << " bytes");
  std::vector<double> fractions(static_cast<std::size_t>(machine_.num_nodes()),
                                0.0);
  if (region.object.placement.policy == Placement::kReplicate) {
    fractions[static_cast<std::size_t>(accessing_node)] = 1.0;
    return fractions;
  }
  const std::uint64_t first_page = offset_bytes / page_bytes_;
  const std::uint64_t last_page = (offset_bytes + span_bytes - 1) / page_bytes_;
  if (region.object.placement.policy == Placement::kFirstTouch) {
    const auto begin =
        region.page_home.begin() + static_cast<std::ptrdiff_t>(first_page);
    std::replace(begin, begin + static_cast<std::ptrdiff_t>(last_page - first_page + 1),
                 kUnassigned, static_cast<std::int16_t>(accessing_node));
  }
  // Page counts are exact integers, so each fraction is bit-identical to
  // summing 1.0 per page and dividing by the same page count.
  const std::vector<std::uint64_t> counts =
      home_counts(region, first_page, last_page);
  const auto pages = static_cast<double>(last_page - first_page + 1);
  for (std::size_t n = 0; n < counts.size(); ++n) {
    fractions[n] = static_cast<double>(counts[n]) / pages;
  }
  return fractions;
}

std::vector<AllocationEvent> AddressSpace::drain_events() {
  std::vector<AllocationEvent> out;
  out.swap(pending_events_);
  return out;
}

std::vector<std::uint64_t> AddressSpace::resident_bytes_per_node() const {
  std::vector<std::uint64_t> bytes(static_cast<std::size_t>(machine_.num_nodes()), 0);
  for (const Region& region : regions_) {
    if (!region.object.alive) continue;
    if (region.object.placement.policy == Placement::kReplicate) {
      for (auto& b : bytes) b += region.object.size_bytes;
      continue;
    }
    const std::vector<std::uint64_t> pages =
        home_counts(region, 0, region.pages - 1);
    for (std::size_t n = 0; n < pages.size(); ++n) bytes[n] += pages[n] * page_bytes_;
  }
  return bytes;
}

}  // namespace drbw::mem
