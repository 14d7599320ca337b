// DR-BW's profiler (§IV): sample ingestion, channel association, and
// data-object attribution.
//
// The profiler receives the raw PEBS sample stream plus the intercepted
// allocation events, and produces per-channel batches of attributed samples:
//
//   * the *accessing node* comes from the sample's CPU id and the machine
//     topology (§IV-B),
//   * the *locating node* comes from a libnuma-style page lookup on the
//     sampled effective address (PageLocator), and
//   * the touched *data object* comes from the heap tracker's range table
//     (§IV-C).
//
// Detection downstream is per directed channel: "we use only samples
// observed between nodes 0 and 1 to diagnose performance problems on the
// bus connecting nodes 0 and 1".
//
// A profile holds each sample once: the samples stay in the caller's
// vector, and the profile keeps one 8-byte SampleRef (index, object) per
// sample, since the channel itself names the src and home nodes.  All refs
// live in a single exact-size array, grouped by channel and in sample order
// within each: profile() counts each channel's samples in one read pass and
// then scatters the refs into place (a counting sort), so the array is
// allocated once, never regrown, and huge-page advised.  Every
// ChannelSamples views its slice of that array through shared ownership, so
// a copied ProfileResult stays valid after the original is gone.  The
// profile borrows the sample vector and must not outlive it; the profile()
// overloads that take a temporary are deleted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "drbw/core/heap_tracker.hpp"
#include "drbw/pebs/sample.hpp"
#include "drbw/sim/engine.hpp"
#include "drbw/topology/machine.hpp"

namespace drbw::core {

/// Page-location oracle: the tool's view of libnuma's move_pages query.
/// `accessing_node` matters only for replicated ranges (where the kernel
/// would report the local replica).
class PageLocator {
 public:
  virtual ~PageLocator() = default;
  virtual topology::NodeId locate(mem::Addr addr,
                                  topology::NodeId accessing_node) = 0;
};

/// Adapter over the simulated address space.
class AddressSpaceLocator final : public PageLocator {
 public:
  explicit AddressSpaceLocator(mem::AddressSpace& space) : space_(space) {}
  topology::NodeId locate(mem::Addr addr,
                          topology::NodeId accessing_node) override {
    return space_.resolve_home(addr, accessing_node);
  }

 private:
  mem::AddressSpace& space_;
};

/// The one offline locator, for analysis of a recorded trace (analyze,
/// explain, serve): every address is homed on node 0, the master-allocation
/// default the tool targets.  Sound for verdicts: remote/local
/// classification of each sample comes from its recorded level; only the
/// home-node attribution of the channel needs this locator.  Stateless, so
/// concurrent locate() calls are safe.
class ReplayLocator final : public PageLocator {
 public:
  topology::NodeId locate(mem::Addr, topology::NodeId) override { return 0; }
};

/// A sample annotated with everything the classifier and diagnoser need.
/// A profile stores only a SampleRef per sample; iterating a channel's
/// samples yields this view by value.
struct AttributedSample {
  pebs::MemorySample sample;
  topology::NodeId src_node = 0;   // node of the CPU that issued the access
  topology::NodeId home_node = 0;  // node where the data resides
  std::uint32_t object = kUnknownObject;  // heap object index, if tracked

  bool is_remote() const { return src_node != home_node; }
};

/// What a profile keeps per sample: the sample's index in the profiled
/// vector and its heap object.  Its src and home nodes are the channel's.
struct SampleRef {
  std::uint32_t index = 0;
  std::uint32_t object = kUnknownObject;
};
static_assert(sizeof(SampleRef) == 8, "a profiled sample costs 8 bytes");

/// Most samples one profile can index (SampleRef::index is 32-bit).
inline constexpr std::uint64_t kMaxProfileSamples = 0xffffffffu;

/// One channel's samples: its slice of the profile's shared ref array, refs
/// into the borrowed sample vector, iterated in sample order as
/// AttributedSample values.
class ChannelSamples {
 public:
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = AttributedSample;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = AttributedSample;

    const_iterator() = default;
    const_iterator(const ChannelSamples* owner, const SampleRef* ref)
        : owner_(owner), ref_(ref) {}

    AttributedSample operator*() const { return owner_->at(*ref_); }
    const_iterator& operator++() {
      ++ref_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++ref_;
      return before;
    }
    bool operator==(const const_iterator& o) const { return ref_ == o.ref_; }
    bool operator!=(const const_iterator& o) const { return ref_ != o.ref_; }

   private:
    const ChannelSamples* owner_ = nullptr;
    const SampleRef* ref_ = nullptr;
  };

  ChannelSamples() = default;

  std::size_t size() const { return static_cast<std::size_t>(last_ - first_); }
  bool empty() const { return first_ == last_; }
  AttributedSample operator[](std::size_t i) const { return at(first_[i]); }
  const_iterator begin() const { return {this, first_}; }
  const_iterator end() const { return {this, last_}; }

 private:
  friend class Profiler;

  ChannelSamples(const pebs::MemorySample* base, topology::ChannelId channel,
                 std::shared_ptr<const std::vector<SampleRef>> refs,
                 std::size_t first, std::size_t last)
      : base_(base),
        channel_(channel),
        refs_(std::move(refs)),
        first_(refs_->data() + first),
        last_(refs_->data() + last) {}

  AttributedSample at(SampleRef ref) const {
    return AttributedSample{base_[ref.index], channel_.src, channel_.dst,
                            ref.object};
  }

  const pebs::MemorySample* base_ = nullptr;
  topology::ChannelId channel_;
  /// The profile's one ref array, owned jointly by every channel of every
  /// copy; this channel's refs are [first_, last_).
  std::shared_ptr<const std::vector<SampleRef>> refs_;
  const SampleRef* first_ = nullptr;
  const SampleRef* last_ = nullptr;
};

/// All samples whose (src, home) pair maps to one directed channel.
struct ChannelProfile {
  topology::ChannelId channel;
  ChannelSamples samples;
};

/// A profile borrows the sample vector it was built from: it stays valid,
/// and may be copied, only while that vector lives unmodified.  Copies share
/// the ref array, so copying costs one reference count per channel.
struct ProfileResult {
  /// One entry per machine channel index (possibly with zero samples).
  std::vector<ChannelProfile> channels;
  HeapTracker tracker;
  std::uint64_t total_samples = 0;
  /// Samples attributed to tracked heap objects (vs static/stack).
  std::uint64_t attributed_samples = 0;
};

class Profiler {
 public:
  Profiler(const topology::Machine& machine, PageLocator& locator);

  /// Ingests a run's allocation events and samples.  The result borrows
  /// `run.samples`.
  ProfileResult profile(const sim::RunResult& run) const;
  ProfileResult profile(sim::RunResult&& run) const = delete;

  /// Lower-level entry point for callers with a raw stream (tests,
  /// replayed traces).  The result borrows `samples`; more than
  /// kMaxProfileSamples of them throw Error(kCorruptArtifact).
  ProfileResult profile(const std::vector<mem::AllocationEvent>& events,
                        const std::vector<pebs::MemorySample>& samples) const;
  ProfileResult profile(const std::vector<mem::AllocationEvent>& events,
                        std::vector<pebs::MemorySample>&& samples) const =
      delete;

 private:
  const topology::Machine& machine_;
  PageLocator& locator_;
};

}  // namespace drbw::core
