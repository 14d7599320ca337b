// Unit tests for drbw::mem — the simulated address space, placement
// policies, first-touch resolution, replication, and allocation events.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "drbw/mem/address_space.hpp"
#include "drbw/util/error.hpp"
#include "drbw/util/rng.hpp"

namespace drbw::mem {
namespace {

using topology::Machine;

class AddressSpaceTest : public ::testing::Test {
 protected:
  Machine machine_ = Machine::xeon_e5_4650();
  AddressSpace space_{machine_};
};

TEST_F(AddressSpaceTest, BindHomesEveryPageOnOneNode) {
  const ObjectId id = space_.allocate("a.c:1 buf", 64 * 4096,
                                      PlacementSpec::bind(2));
  const DataObject& obj = space_.object(id);
  for (std::uint64_t off = 0; off < obj.size_bytes; off += 4096) {
    EXPECT_EQ(space_.resolve_home(obj.base + off, 0), 2);
  }
}

TEST_F(AddressSpaceTest, InterleaveRoundRobinsAcrossAllNodes) {
  const ObjectId id =
      space_.allocate("a.c:2 buf", 8 * 4096, PlacementSpec::interleave());
  const DataObject& obj = space_.object(id);
  for (int page = 0; page < 8; ++page) {
    EXPECT_EQ(space_.resolve_home(
                  obj.base + static_cast<std::uint64_t>(page) * 4096, 0),
              page % 4);
  }
}

TEST_F(AddressSpaceTest, InterleaveOverSubsetOnlyUsesSubset) {
  const ObjectId id = space_.allocate("a.c:3 buf", 6 * 4096,
                                      PlacementSpec::interleave({1, 3}));
  const DataObject& obj = space_.object(id);
  for (int page = 0; page < 6; ++page) {
    const auto home = space_.resolve_home(
        obj.base + static_cast<std::uint64_t>(page) * 4096, 0);
    EXPECT_EQ(home, page % 2 == 0 ? 1 : 3);
  }
}

TEST_F(AddressSpaceTest, ColocateSplitsProportionally) {
  // 8 pages over 4 segments -> 2 pages per node, in order 0,1,2,3.
  const ObjectId id = space_.allocate("a.c:4 buf", 8 * 4096,
                                      PlacementSpec::colocate({0, 1, 2, 3}));
  const DataObject& obj = space_.object(id);
  const int expect[] = {0, 0, 1, 1, 2, 2, 3, 3};
  for (int page = 0; page < 8; ++page) {
    EXPECT_EQ(space_.resolve_home(
                  obj.base + static_cast<std::uint64_t>(page) * 4096, 0),
              expect[page])
        << "page " << page;
  }
}

TEST_F(AddressSpaceTest, ColocateHandlesUnevenSplit) {
  // 5 pages over 2 segments: floor split gives pages {0,1} seg0, {2,3,4} seg1.
  const ObjectId id = space_.allocate("a.c:5 buf", 5 * 4096,
                                      PlacementSpec::colocate({1, 2}));
  const DataObject& obj = space_.object(id);
  int on_node1 = 0, on_node2 = 0;
  for (int page = 0; page < 5; ++page) {
    const auto home = space_.resolve_home(
        obj.base + static_cast<std::uint64_t>(page) * 4096, 0);
    if (home == 1) ++on_node1;
    if (home == 2) ++on_node2;
  }
  EXPECT_EQ(on_node1 + on_node2, 5);
  EXPECT_GE(on_node1, 2);
  EXPECT_GE(on_node2, 2);
}

TEST_F(AddressSpaceTest, ReplicateResolvesToAccessor) {
  const ObjectId id =
      space_.allocate("a.c:6 buf", 4096, PlacementSpec::replicate());
  const Addr addr = space_.object(id).base;
  for (int node = 0; node < 4; ++node) {
    EXPECT_EQ(space_.resolve_home(addr, node), node);
  }
}

TEST_F(AddressSpaceTest, FirstTouchHomesOnFirstAccessorPermanently) {
  const ObjectId id =
      space_.allocate("a.c:7 buf", 2 * 4096, PlacementSpec::first_touch());
  const Addr base = space_.object(id).base;
  EXPECT_EQ(space_.peek_home(base, 0), std::nullopt);
  EXPECT_EQ(space_.resolve_home(base, 3), 3);          // first touch by node 3
  EXPECT_EQ(space_.resolve_home(base, 1), 3);          // sticky afterwards
  EXPECT_EQ(space_.peek_home(base, 0), std::optional<topology::NodeId>(3));
  // Second page is independent.
  EXPECT_EQ(space_.resolve_home(base + 4096, 1), 1);
}

TEST_F(AddressSpaceTest, ObjectLookupCoversExactRange) {
  const ObjectId a = space_.allocate("a.c:8 x", 100, PlacementSpec::bind(0));
  const ObjectId b = space_.allocate("a.c:9 y", 100, PlacementSpec::bind(0));
  const Addr base_a = space_.object(a).base;
  const Addr base_b = space_.object(b).base;
  EXPECT_EQ(space_.object_at(base_a)->id, a);
  EXPECT_EQ(space_.object_at(base_a + 99)->id, a);
  EXPECT_EQ(space_.object_at(base_a + 100), nullptr);  // past the end
  EXPECT_EQ(space_.object_at(base_b)->id, b);
  EXPECT_EQ(space_.object_at(0x10), nullptr);          // below all regions
}

TEST_F(AddressSpaceTest, ObjectsNeverSharePages) {
  const ObjectId a = space_.allocate("a.c:10 x", 10, PlacementSpec::bind(0));
  const ObjectId b = space_.allocate("a.c:11 y", 10, PlacementSpec::bind(1));
  const Addr pa = space_.object(a).base / 4096;
  const Addr pb = space_.object(b).base / 4096;
  EXPECT_NE(pa, pb);
}

TEST_F(AddressSpaceTest, FreeUnmapsAndDoubleFreeThrows) {
  const ObjectId id = space_.allocate("a.c:12 x", 4096, PlacementSpec::bind(0));
  const Addr base = space_.object(id).base;
  space_.free(id);
  EXPECT_EQ(space_.object_at(base), nullptr);
  EXPECT_THROW(space_.free(id), Error);
  EXPECT_THROW(space_.resolve_home(base, 0), Error);
}

TEST_F(AddressSpaceTest, AllocationEventsMirrorMallocStream) {
  const ObjectId id = space_.allocate("amg.c:120 diag_j", 8192,
                                      PlacementSpec::bind(0));
  space_.free(id);
  const auto events = space_.drain_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, AllocationEvent::Kind::kAlloc);
  EXPECT_EQ(events[0].site.label, "amg.c:120 diag_j");
  EXPECT_EQ(events[0].size_bytes, 8192u);
  EXPECT_EQ(events[1].kind, AllocationEvent::Kind::kFree);
  EXPECT_EQ(events[1].base, events[0].base);
  EXPECT_TRUE(space_.drain_events().empty());  // drained
}

TEST_F(AddressSpaceTest, StaticRegionsEmitNoEvents) {
  space_.allocate_static("sp.f:1 global", 4096, PlacementSpec::bind(0));
  EXPECT_TRUE(space_.drain_events().empty());
  EXPECT_EQ(space_.object_count(), 1u);
}

TEST_F(AddressSpaceTest, ResidentBytesTracksPlacement) {
  space_.allocate("a.c:13 x", 4 * 4096, PlacementSpec::bind(1));
  const auto bytes = space_.resident_bytes_per_node();
  EXPECT_EQ(bytes[1], 4u * 4096);
  EXPECT_EQ(bytes[0], 0u);
}

TEST_F(AddressSpaceTest, ResidentBytesCountsReplicasPerNode) {
  space_.allocate("a.c:14 x", 4096, PlacementSpec::replicate());
  const auto bytes = space_.resident_bytes_per_node();
  for (int n = 0; n < 4; ++n) EXPECT_EQ(bytes[static_cast<std::size_t>(n)], 4096u);
}

TEST_F(AddressSpaceTest, UntouchedFirstTouchNotResident) {
  space_.allocate("a.c:15 x", 4096, PlacementSpec::first_touch());
  const auto before = space_.resident_bytes_per_node();
  EXPECT_EQ(before[0] + before[1] + before[2] + before[3], 0u);
}

TEST_F(AddressSpaceTest, InvalidInputsThrow) {
  EXPECT_THROW(space_.allocate("z", 0, PlacementSpec::bind(0)), Error);
  EXPECT_THROW(space_.allocate("z", 8, PlacementSpec::bind(9)), Error);
  EXPECT_THROW(space_.allocate("z", 8, PlacementSpec::colocate({})), Error);
  EXPECT_THROW(space_.allocate("z", 8, PlacementSpec::interleave({7})), Error);
  EXPECT_THROW(space_.resolve_home(0x1, 0), Error);
  EXPECT_THROW(space_.object(99), Error);
}

// ---------------------------------------------------------------------- //
// The closed-form page homes against a per-page reference: the rules the
// address space applied page by page when every region kept a page-home
// table, replayed here one page at a time.

class PerPageReference {
 public:
  PerPageReference(const PlacementSpec& spec, std::uint64_t pages, int nodes)
      : spec_(spec), pages_(pages), touched_(pages, -1) {
    set_ = spec.interleave_nodes;
    if (set_.empty()) {
      for (int n = 0; n < nodes; ++n) set_.push_back(n);
    }
  }

  /// Home of `page` from `accessing`; -1 for an untouched first-touch page.
  int peek(std::uint64_t page, int accessing) const {
    switch (spec_.policy) {
      case Placement::kBind: return spec_.bind_node;
      case Placement::kFirstTouch: return touched_[page];
      case Placement::kInterleave: return set_[page % set_.size()];
      case Placement::kColocate: {
        const std::uint64_t segments = spec_.segment_nodes.size();
        return spec_.segment_nodes[std::min(page * segments / pages_,
                                            segments - 1)];
      }
      case Placement::kReplicate: return accessing;
    }
    return -1;
  }

  int resolve(std::uint64_t page, int accessing) {
    if (peek(page, accessing) == -1) touched_[page] = accessing;
    return peek(page, accessing);
  }

  /// The page-by-page histogram: 1.0 per page, divided by the page count.
  std::vector<double> fractions(std::uint64_t first, std::uint64_t last,
                                int accessing, int nodes) {
    std::vector<double> out(static_cast<std::size_t>(nodes), 0.0);
    if (spec_.policy == Placement::kReplicate) {
      out[static_cast<std::size_t>(accessing)] = 1.0;
      return out;
    }
    for (std::uint64_t page = first; page <= last; ++page) {
      out[static_cast<std::size_t>(resolve(page, accessing))] += 1.0;
    }
    for (double& f : out) f /= static_cast<double>(last - first + 1);
    return out;
  }

  void add_resident(std::vector<std::uint64_t>& bytes, std::uint64_t size) const {
    if (spec_.policy == Placement::kReplicate) {
      for (auto& b : bytes) b += size;
      return;
    }
    for (std::uint64_t page = 0; page < pages_; ++page) {
      const int home = peek(page, 0);
      if (home != -1) bytes[static_cast<std::size_t>(home)] += 4096;
    }
  }

 private:
  PlacementSpec spec_;
  std::uint64_t pages_;
  std::vector<topology::NodeId> set_;
  std::vector<int> touched_;
};

/// Pages of the next random object: 1 and counts below a handful of
/// segments come up often, larger objects now and then.
std::uint64_t random_pages(Rng& rng) {
  switch (rng.bounded(4)) {
    case 0: return 1;
    case 1: return 1 + rng.bounded(6);
    case 2: return 1 + rng.bounded(64);
    default: return 1 + rng.bounded(3000);
  }
}

PlacementSpec random_spec(Rng& rng, int nodes) {
  const auto node = [&] { return static_cast<topology::NodeId>(rng.bounded(
                              static_cast<std::uint64_t>(nodes))); };
  std::vector<topology::NodeId> set;
  switch (rng.bounded(5)) {
    case 0: return PlacementSpec::bind(node());
    case 1: return PlacementSpec::first_touch();
    case 2: {
      // Empty means every node; otherwise duplicates are allowed.
      const std::uint64_t k = rng.bounded(7);
      for (std::uint64_t i = 0; i < k; ++i) set.push_back(node());
      return PlacementSpec::interleave(set);
    }
    case 3: {
      const std::uint64_t segments = 1 + rng.bounded(12);
      for (std::uint64_t i = 0; i < segments; ++i) set.push_back(node());
      return PlacementSpec::colocate(set);
    }
    default: return PlacementSpec::replicate();
  }
}

void expect_bitwise_equal(const std::vector<double>& got,
                          const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t n = 0; n < got.size(); ++n) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[n]),
              std::bit_cast<std::uint64_t>(want[n]))
        << "node " << n << ": " << got[n] << " vs " << want[n];
  }
}

TEST_F(AddressSpaceTest, ClosedFormHomesMatchPerPageReference) {
  const int nodes = machine_.num_nodes();
  Rng rng(2017);
  for (int trial = 0; trial < 60; ++trial) {
    AddressSpace space(machine_);
    std::vector<ObjectId> ids;
    std::vector<PerPageReference> refs;
    for (int obj = 0; obj < 5; ++obj) {
      const std::uint64_t pages = random_pages(rng);
      // The last page may be partial.
      const std::uint64_t bytes = pages * 4096 - rng.bounded(4096);
      const PlacementSpec spec = random_spec(rng, nodes);
      ids.push_back(space.allocate("oracle.c:1 x", bytes, spec));
      refs.emplace_back(spec, pages, nodes);
    }
    for (int query = 0; query < 40; ++query) {
      const std::size_t which = rng.bounded(ids.size());
      const DataObject& obj = space.object(ids[which]);
      PerPageReference& ref = refs[which];
      const auto accessing = static_cast<topology::NodeId>(
          rng.bounded(static_cast<std::uint64_t>(nodes)));
      const std::uint64_t offset = rng.bounded(obj.size_bytes);
      const Addr addr = obj.base + offset;
      const std::uint64_t page = offset / 4096;
      if (rng.bounded(2) == 0) {
        const int want = ref.peek(page, accessing);
        const auto got = space.peek_home(addr, accessing);
        if (want == -1) {
          EXPECT_EQ(got, std::nullopt);
        } else {
          EXPECT_EQ(got, std::optional<topology::NodeId>(want));
        }
        EXPECT_EQ(space.resolve_home(addr, accessing),
                  ref.resolve(page, accessing));
      } else {
        const std::uint64_t span = 1 + rng.bounded(obj.size_bytes - offset);
        expect_bitwise_equal(
            space.touch_and_home_fractions(obj.id, offset, span, accessing),
            ref.fractions(page, (offset + span - 1) / 4096, accessing, nodes));
      }
    }
    std::vector<std::uint64_t> resident(static_cast<std::size_t>(nodes), 0);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      refs[i].add_resident(resident, space.object(ids[i]).size_bytes);
    }
    EXPECT_EQ(space.resident_bytes_per_node(), resident) << "trial " << trial;
  }
}

TEST_F(AddressSpaceTest, ColocateChecksOnlySegmentsThatOwnPages) {
  // One page over two segments: segment 1 homes nothing, so its node is
  // never range-checked; segment 0's is.
  EXPECT_NO_THROW(space_.allocate("z", 8, PlacementSpec::colocate({0, 9})));
  EXPECT_THROW(space_.allocate("z", 8, PlacementSpec::colocate({9, 0})), Error);
  Rng rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    const std::uint64_t pages = 1 + rng.bounded(8);
    const std::uint64_t segments = 1 + rng.bounded(12);
    std::vector<topology::NodeId> homes(segments, 1);
    const std::uint64_t bad = rng.bounded(segments);
    homes[bad] = 9;
    bool owns_page = false;
    for (std::uint64_t i = 0; i < pages; ++i) {
      owns_page |= std::min(i * segments / pages, segments - 1) == bad;
    }
    const auto allocate = [&] {
      space_.allocate("z", pages * 4096, PlacementSpec::colocate(homes));
    };
    if (owns_page) {
      EXPECT_THROW(allocate(), Error) << pages << " pages, segment " << bad;
    } else {
      EXPECT_NO_THROW(allocate()) << pages << " pages, segment " << bad;
    }
  }
}

TEST(PlacementName, AllNamed) {
  EXPECT_STREQ(placement_name(Placement::kBind), "bind");
  EXPECT_STREQ(placement_name(Placement::kFirstTouch), "first-touch");
  EXPECT_STREQ(placement_name(Placement::kInterleave), "interleave");
  EXPECT_STREQ(placement_name(Placement::kColocate), "co-locate");
  EXPECT_STREQ(placement_name(Placement::kReplicate), "replicate");
}

}  // namespace
}  // namespace drbw::mem
