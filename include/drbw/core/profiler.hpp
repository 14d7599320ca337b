// DR-BW's profiler (§IV): sample ingestion, channel association, and
// data-object attribution.
//
// The profiler receives the raw PEBS sample stream plus the intercepted
// allocation events, and produces per-channel batches of attributed samples:
//
//   * the *accessing node* comes from the sample's CPU id and the machine
//     topology (§IV-B),
//   * the *locating node* is the sample's home byte, the page's node as
//     the sampler's move_pages-style lookup saw it when the sample was
//     taken (pebs/sample.hpp), and
//   * the touched *data object* comes from the heap tracker's range table
//     (§IV-C).
//
// Detection downstream is per directed channel: "we use only samples
// observed between nodes 0 and 1 to diagnose performance problems on the
// bus connecting nodes 0 and 1".
//
// The read pass that finds each sample's channel also adds the sample to
// the profile's Table I tallies (tallies.hpp): per source node, the count,
// latency sum and latency-threshold counters of all its samples, and the
// count and latency sum of its local-DRAM, LFB and per-home remote-DRAM
// samples.  features::extract_channels reads the features off them and
// never walks the samples again.  The tallies take the samples in stream
// order.
//
// A profile holds each sample once: the samples stay in the caller's
// array, and the profile keeps one 8-byte SampleRef (index, object) per
// sample, since the channel itself names the src and home nodes.  All refs
// live in a single exact-size array, grouped by channel and in sample order
// within each: profile() counts each channel's samples in one read pass and
// then scatters the refs into place (a counting sort), so the array is
// allocated once, never regrown, and huge-page advised.  Every
// ChannelSamples views its slice of that array through shared ownership, so
// a copied ProfileResult stays valid after the original is gone.  The
// profile borrows the samples and must not outlive them; the profile()
// overloads that take a temporary run, vector or sample array are deleted.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "drbw/core/heap_tracker.hpp"
#include "drbw/core/tallies.hpp"
#include "drbw/pebs/sample.hpp"
#include "drbw/sim/engine.hpp"
#include "drbw/topology/machine.hpp"

namespace drbw::core {

/// A libnuma-style page-location oracle.  Nothing calls it any more: each
/// sample carries its home node.  It stays declared only because
/// perfbench/pipebench.cpp still compiles against it and against the
/// Profiler and DrBw::analyze_windows overloads that take one.
class PageLocator {
 public:
  virtual ~PageLocator() = default;
  virtual topology::NodeId locate(mem::Addr addr,
                                  topology::NodeId accessing_node) = 0;
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
/// into the borrowed samples, iterated in sample order as
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

/// A profile borrows the samples it was built from: it stays valid, and may
/// be copied, only while they live unmodified.  Copies share
/// the ref array, so copying costs one reference count per channel.
struct ProfileResult {
  /// One entry per machine channel index (possibly with zero samples).
  std::vector<ChannelProfile> channels;
  HeapTracker tracker;
  std::uint64_t total_samples = 0;
  /// Samples attributed to tracked heap objects (vs static/stack).
  std::uint64_t attributed_samples = 0;
  /// Table I tallies of every sample, one source per machine node (no
  /// nodes in a default-constructed profile).
  SourceTallies tallies;
};

class Profiler {
 public:
  explicit Profiler(const topology::Machine& machine);
  /// Ignores the locator: the home node comes from each sample.  Kept only
  /// for perfbench/pipebench.cpp.
  Profiler(const topology::Machine& machine, PageLocator& /*unused*/)
      : Profiler(machine) {}

  /// Ingests a run's allocation events and samples.  The result borrows
  /// `run.samples`.
  ProfileResult profile(const sim::RunResult& run) const;
  ProfileResult profile(sim::RunResult&& run) const = delete;

  /// Lower-level entry point for callers with a raw stream (tests,
  /// replayed traces).  The result borrows `samples`; more than
  /// kMaxProfileSamples of them throw Error(kCorruptArtifact).
  ProfileResult profile(const std::vector<mem::AllocationEvent>& events,
                        std::span<const pebs::MemorySample> samples) const;
  /// A temporary vector or sample array would die under the result.  An
  /// lvalue deduces a reference type, fails the constraint and reaches the
  /// span overload.
  template <class Samples>
    requires std::same_as<Samples, std::vector<pebs::MemorySample>> ||
             std::same_as<Samples, pebs::SampleArray>
  ProfileResult profile(const std::vector<mem::AllocationEvent>& events,
                        Samples&& samples) const = delete;

 private:
  const topology::Machine& machine_;
};

}  // namespace drbw::core
