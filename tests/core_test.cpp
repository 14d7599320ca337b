// Tests for DR-BW's core: the heap tracker (allocation-table analogue) and
// the profiler's channel association + object attribution.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "drbw/core/profiler.hpp"
#include "drbw/util/error.hpp"

namespace drbw::core {
namespace {

using mem::AddressSpace;
using mem::AllocationEvent;
using mem::PlacementSpec;
using topology::Machine;

AllocationEvent alloc(const std::string& site, mem::Addr base,
                      std::uint64_t size) {
  return AllocationEvent{AllocationEvent::Kind::kAlloc, {site}, base, size};
}

AllocationEvent dealloc(mem::Addr base) {
  return AllocationEvent{AllocationEvent::Kind::kFree, {""}, base, 0};
}

TEST(HeapTracker, TracksRangesAndAttribution) {
  HeapTracker t;
  t.on_event(alloc("a.c:1 x", 0x1000, 0x100));
  t.on_event(alloc("a.c:2 y", 0x2000, 0x200));
  EXPECT_EQ(t.object_of(0x1000), 0u);
  EXPECT_EQ(t.object_of(0x10ff), 0u);
  EXPECT_EQ(t.object_of(0x1100), kUnknownObject);
  EXPECT_EQ(t.object_of(0x2100), 1u);
  EXPECT_EQ(t.object_of(0x0), kUnknownObject);
  EXPECT_EQ(t.object(0).site, "a.c:1 x");
}

TEST(HeapTracker, MergesAllocationsFromSameSite) {
  HeapTracker t;
  t.on_event(alloc("loop.c:9 buf", 0x1000, 0x100));
  t.on_event(alloc("loop.c:9 buf", 0x3000, 0x100));
  ASSERT_EQ(t.objects().size(), 1u);
  EXPECT_EQ(t.objects()[0].allocations, 2u);
  EXPECT_EQ(t.objects()[0].live_bytes, 0x200u);
  EXPECT_EQ(t.object_of(0x1010), t.object_of(0x3010));
}

TEST(HeapTracker, FreeRemovesRangeAndUpdatesBytes) {
  HeapTracker t;
  t.on_event(alloc("a.c:1 x", 0x1000, 0x100));
  t.on_event(dealloc(0x1000));
  EXPECT_EQ(t.object_of(0x1000), kUnknownObject);
  EXPECT_EQ(t.objects()[0].live_bytes, 0u);
  EXPECT_EQ(t.objects()[0].frees, 1u);
  EXPECT_EQ(t.live_range_count(), 0u);
}

TEST(HeapTracker, PeakBytesSurvivesFree) {
  HeapTracker t;
  t.on_event(alloc("a.c:1 x", 0x1000, 0x300));
  t.on_event(dealloc(0x1000));
  t.on_event(alloc("a.c:1 x", 0x1000, 0x100));
  EXPECT_EQ(t.objects()[0].peak_bytes, 0x300u);
  EXPECT_EQ(t.objects()[0].live_bytes, 0x100u);
}

TEST(HeapTracker, FreeOfUntrackedPointerThrows) {
  HeapTracker t;
  EXPECT_THROW(t.on_event(dealloc(0xdead)), Error);
  EXPECT_THROW(t.object(5), Error);
}

/// Runs `event` through `t`, expecting Error(kCorruptArtifact); returns the
/// message.
std::string corrupt_message(HeapTracker& t, const AllocationEvent& event) {
  try {
    t.on_event(event);
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptArtifact) << e.what();
    return e.what();
  }
  ADD_FAILURE() << "event accepted";
  return "";
}

TEST(HeapTracker, FreeOfNeverAllocatedBaseIsACorruptArtifact) {
  // A trace that frees a block it never allocated is damaged input (exit
  // 68), not an internal invariant failure.
  HeapTracker t;
  t.on_event(alloc("a.c:1 x", 0x1000, 0x100));
  ErrorCode code = ErrorCode::kGeneric;
  std::string message;
  try {
    t.on_event(dealloc(0x10000));
  } catch (const Error& e) {
    code = e.code();
    message = e.what();
  }
  EXPECT_EQ(code, ErrorCode::kCorruptArtifact);
  EXPECT_NE(message.find("0x10000"), std::string::npos) << message;
  EXPECT_NE(message.find("no matching allocation"), std::string::npos)
      << message;
  EXPECT_EQ(t.live_range_count(), 1u);
}

TEST(HeapTracker, LiveBaseAllocatedAgainIsACorruptArtifact) {
  // Overwriting the live range would let the later free subtract bytes the
  // site no longer counts, wrapping live_bytes into a failed check.
  HeapTracker t;
  t.on_event(alloc("x", 0, 0x8000000000000000ull));
  const std::string message =
      corrupt_message(t, alloc("x", 0, 0x8000000000000000ull));
  EXPECT_NE(message.find("still live"), std::string::npos) << message;
  EXPECT_EQ(t.objects()[0].allocations, 1u);
  EXPECT_EQ(t.objects()[0].live_bytes, 0x8000000000000000ull);
  t.on_event(dealloc(0));
  EXPECT_EQ(t.objects()[0].live_bytes, 0u);
}

TEST(HeapTracker, RangePastTheAddressSpaceIsACorruptArtifact) {
  HeapTracker t;
  const std::string message =
      corrupt_message(t, alloc("x", 18446744073709551000ull, 4096));
  EXPECT_NE(message.find("past the 64-bit address space"), std::string::npos)
      << message;
  EXPECT_EQ(t.live_range_count(), 0u);
  // The last byte of the address space is still allocatable.
  t.on_event(alloc("x", 0xffffffffffffff00ull, 0xff));
  EXPECT_EQ(t.object_of(0xfffffffffffffffeull), 0u);
}

TEST(HeapTracker, OverlappingRangesThatOverflowLiveBytesAreCorrupt) {
  HeapTracker t;
  t.on_event(alloc("x", 0, 0x8000000000000000ull));
  const std::string message =
      corrupt_message(t, alloc("x", 1, 0x8000000000000000ull));
  EXPECT_NE(message.find("overflow"), std::string::npos) << message;
  t.on_event(dealloc(0));
  EXPECT_EQ(t.objects()[0].live_bytes, 0u);
}

TEST(HeapTracker, FreedBaseMayBeAllocatedAgainByAnotherSite) {
  // Only a *live* base is refused: once freed, any site may reuse it, and
  // its bytes count toward the new site alone.
  HeapTracker t;
  t.on_event(alloc("a.c:1 x", 0x1000, 0x100));
  t.on_event(dealloc(0x1000));
  t.on_event(alloc("b.c:2 y", 0x1000, 0x200));
  ASSERT_EQ(t.objects().size(), 2u);
  EXPECT_EQ(t.object_of(0x1000), 1u);
  EXPECT_EQ(t.object_of(0x11ff), 1u);
  EXPECT_EQ(t.objects()[0].live_bytes, 0u);
  EXPECT_EQ(t.objects()[1].live_bytes, 0x200u);
  t.on_event(dealloc(0x1000));
  EXPECT_EQ(t.objects()[1].live_bytes, 0u);
  EXPECT_EQ(t.live_range_count(), 0u);
}

TEST(HeapTracker, FinderAnswersAsObjectOfInAnyLookupOrder) {
  // Nested ranges (a damaged but accepted stream), gaps, the address-space
  // ends, and lookups that move forward, backward and stay put, so the
  // finder's last-hit check is taken and refused in every direction.
  HeapTracker t;
  t.on_event(alloc("outer", 0x1000, 0x1000));
  t.on_event(alloc("inner", 0x1400, 0x100));
  t.on_event(alloc("next", 0x3000, 0x10));
  t.on_event(alloc("top", 0xffffffffffffff00ull, 0xff));
  HeapTracker::Finder finder = t.finder();
  const mem::Addr probes[] = {
      0x0,    0x1000, 0x13ff, 0x1400, 0x14ff, 0x1500, 0x1fff, 0x2000,
      0x1450, 0x1450, 0x1001, 0x3000, 0x300f, 0x3010, 0x0fff, 0x1500,
      0xffffffffffffff00ull,  0xfffffffffffffffeull, 0xffffffffffffffffull,
      0x1400};
  for (const mem::Addr addr : probes) {
    EXPECT_EQ(finder.object_of(addr), t.object_of(addr)) << std::hex << addr;
  }
  // With no live ranges every address is unknown.
  HeapTracker empty;
  HeapTracker::Finder none = empty.finder();
  EXPECT_EQ(none.object_of(0x1000), kUnknownObject);
}

// profile() borrows its samples, so it takes them only as lvalues or views:
// a temporary vector or sample array does not compile.
template <class Samples>
concept Profiles = requires(const Profiler& profiler,
                            const std::vector<AllocationEvent>& events,
                            Samples&& samples) {
  profiler.profile(events, std::forward<Samples>(samples));
};
static_assert(Profiles<std::vector<pebs::MemorySample>&>);
static_assert(Profiles<const std::vector<pebs::MemorySample>&>);
static_assert(Profiles<pebs::SampleArray&>);
static_assert(Profiles<const pebs::SampleArray&>);
static_assert(Profiles<std::span<const pebs::MemorySample>>);
static_assert(!Profiles<std::vector<pebs::MemorySample>>);
static_assert(!Profiles<pebs::SampleArray>);

class ProfilerTest : public ::testing::Test {
 protected:
  Machine machine_ = Machine::xeon_e5_4650();
  AddressSpace space_{machine_};
  Profiler profiler_{machine_};

  /// A sample homed where the sampler would have homed it.
  pebs::MemorySample sample(mem::Addr addr, topology::CpuId cpu,
                            pebs::MemLevel level, float lat) {
    pebs::MemorySample s;
    s.address = addr;
    s.cpu = cpu;
    s.level = level;
    s.latency_cycles = lat;
    s.home = static_cast<std::uint8_t>(
        space_.resolve_home(addr, machine_.node_of_cpu(cpu)));
    return s;
  }
};

TEST_F(ProfilerTest, AssociatesSamplesWithDirectedChannels) {
  const auto obj = space_.allocate("a.c:1 d", 1 << 20, PlacementSpec::bind(2));
  const mem::Addr base = space_.object(obj).base;
  const auto events = space_.drain_events();

  // cpu 0 -> node 0 accessing node-2 data: channel N0->N2.
  // cpu 17 -> node 2 accessing node-2 data: local channel N2.
  const std::vector<pebs::MemorySample> samples = {
      sample(base, 0, pebs::MemLevel::kRemoteDram, 600.0f),
      sample(base + 64, 17, pebs::MemLevel::kLocalDram, 210.0f)};
  const auto result = profiler_.profile(events, samples);

  const auto& remote =
      result.channels[static_cast<std::size_t>(machine_.channel_index({0, 2}))];
  const auto& local =
      result.channels[static_cast<std::size_t>(machine_.channel_index({2, 2}))];
  ASSERT_EQ(remote.samples.size(), 1u);
  ASSERT_EQ(local.samples.size(), 1u);
  EXPECT_TRUE(remote.samples[0].is_remote());
  EXPECT_FALSE(local.samples[0].is_remote());
  EXPECT_EQ(result.total_samples, 2u);
}

TEST_F(ProfilerTest, AttributesSamplesToHeapObjects) {
  const auto a = space_.allocate("amg.c:120 diag_j", 1 << 16,
                                 PlacementSpec::bind(0));
  const auto b = space_.allocate("amg.c:150 RAP", 1 << 16, PlacementSpec::bind(0));
  const mem::Addr base_a = space_.object(a).base;
  const mem::Addr base_b = space_.object(b).base;
  const auto events = space_.drain_events();

  const std::vector<pebs::MemorySample> samples = {
      sample(base_a + 8, 0, pebs::MemLevel::kLocalDram, 200.0f),
      sample(base_b + 8, 0, pebs::MemLevel::kLocalDram, 200.0f),
      sample(base_b + 16, 0, pebs::MemLevel::kL1, 4.0f)};
  const auto result = profiler_.profile(events, samples);

  EXPECT_EQ(result.attributed_samples, 3u);
  const auto local0 =
      result.channels[static_cast<std::size_t>(machine_.channel_index({0, 0}))];
  ASSERT_EQ(local0.samples.size(), 3u);
  EXPECT_EQ(result.tracker.object(local0.samples[0].object).site,
            "amg.c:120 diag_j");
  EXPECT_EQ(result.tracker.object(local0.samples[1].object).site,
            "amg.c:150 RAP");
}

TEST_F(ProfilerTest, StaticRegionsRemainUnattributed) {
  const auto s = space_.allocate_static("sp.f:1 globals", 1 << 16,
                                        PlacementSpec::bind(1));
  const mem::Addr base = space_.object(s).base;
  const std::vector<pebs::MemorySample> samples = {
      sample(base, 0, pebs::MemLevel::kRemoteDram, 700.0f)};
  const auto result = profiler_.profile(space_.drain_events(), samples);
  EXPECT_EQ(result.total_samples, 1u);
  EXPECT_EQ(result.attributed_samples, 0u);
  const auto& ch =
      result.channels[static_cast<std::size_t>(machine_.channel_index({0, 1}))];
  ASSERT_EQ(ch.samples.size(), 1u);
  EXPECT_EQ(ch.samples[0].object, kUnknownObject);
}

TEST_F(ProfilerTest, ReplicatedDataResolvesLocalEverywhere) {
  const auto r = space_.allocate("sc.c:7 block", 1 << 16,
                                 PlacementSpec::replicate());
  const mem::Addr base = space_.object(r).base;
  const std::vector<pebs::MemorySample> samples = {
      sample(base, 0, pebs::MemLevel::kLocalDram, 200.0f),
      sample(base, 25, pebs::MemLevel::kLocalDram, 200.0f)};  // node 3
  const auto result = profiler_.profile(space_.drain_events(), samples);
  for (const auto& channel : result.channels) {
    for (const auto& s : channel.samples) {
      EXPECT_FALSE(s.is_remote());
    }
  }
}

TEST_F(ProfilerTest, SamplesFromGroupsBySourceNode) {
  // Featurization reads src_node/home_node instead of re-locating, so each
  // sample must carry the nodes of the channel it is filed under.
  const auto obj = space_.allocate("x.c:1 d", 1 << 20, PlacementSpec::bind(3));
  const mem::Addr base = space_.object(obj).base;
  const std::vector<pebs::MemorySample> samples = {
      sample(base, 0, pebs::MemLevel::kRemoteDram, 500.0f),
      sample(base + 64, 1, pebs::MemLevel::kRemoteDram, 500.0f),
      sample(base + 128, 8, pebs::MemLevel::kRemoteDram, 500.0f)};
  const auto result = profiler_.profile(space_.drain_events(), samples);
  const auto& from0 =
      result.channels[static_cast<std::size_t>(machine_.channel_index({0, 3}))];
  const auto& from1 =
      result.channels[static_cast<std::size_t>(machine_.channel_index({1, 3}))];
  ASSERT_EQ(from0.samples.size(), 2u);
  ASSERT_EQ(from1.samples.size(), 1u);
  for (const auto& channel : result.channels) {
    for (const auto& s : channel.samples) {
      EXPECT_EQ(s.src_node, channel.channel.src);
      EXPECT_EQ(s.home_node, channel.channel.dst);
    }
  }
}

}  // namespace
}  // namespace drbw::core
