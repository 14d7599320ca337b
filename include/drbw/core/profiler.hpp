// DR-BW's profiler (§IV): sample ingestion, channel association, and
// data-object attribution.
//
// The profiler receives the raw PEBS sample stream plus the intercepted
// allocation events, and files every sample under a directed channel with
// a data object:
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
// A profile stores nothing per sample: it counts each channel's samples
// and keeps the samples where the caller holds them, with a copy of the
// machine's cpu->node table (NodeMap).  A consumer that needs the samples
// of some channels (the diagnoser, the Table I selection study, the cache
// extension) re-walks the borrowed samples in stream order and re-derives
// each one's channel and heap object; for_each_in_channel does it for one
// channel.  The profile borrows the samples and must not outlive them; the
// profile() overloads that take a temporary run, vector or sample array
// are deleted.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
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

/// A sample with its channel's nodes and its heap object, as
/// for_each_in_channel yields it.
struct AttributedSample {
  pebs::MemorySample sample;
  topology::NodeId src_node = 0;   // node of the CPU that issued the access
  topology::NodeId home_node = 0;  // node where the data resides
  std::uint32_t object = kUnknownObject;  // heap object index, if tracked

  bool is_remote() const { return src_node != home_node; }
};

/// What a profile keeps of its machine: the cpu->node table, so a sample's
/// channel can be re-derived without the Machine.
class NodeMap {
 public:
  /// No nodes and no cpus: what a default-constructed ProfileResult holds.
  NodeMap() = default;
  explicit NodeMap(const topology::Machine& machine);

  int nodes() const { return nodes_; }

  /// The node of the sample's cpu.  Throws drbw::Error when the cpu or the
  /// home node lies outside the machine.
  topology::NodeId src_of(const pebs::MemorySample& s) const {
    if (s.cpu < 0 || static_cast<std::size_t>(s.cpu) >= cpu_node_.size() ||
        s.home >= nodes_) {
      out_of_range(s);
    }
    return cpu_node_[static_cast<std::size_t>(s.cpu)];
  }
  /// The sample's channel index, row-major by (src, home) as
  /// Machine::channel_index.  Throws as src_of.
  std::size_t channel_of(const pebs::MemorySample& s) const {
    return static_cast<std::size_t>(src_of(s) * nodes_ + s.home);
  }

 private:
  [[noreturn]] void out_of_range(const pebs::MemorySample& s) const;

  int nodes_ = 0;
  std::vector<topology::NodeId> cpu_node_;  ///< indexed by cpu id
};

/// One directed channel and how many of the profile's samples it carries.
struct ChannelProfile {
  topology::ChannelId channel;
  std::uint64_t samples = 0;
};

/// A profile borrows the samples it was built from: it stays valid, and may
/// be copied, only while they live unmodified.
struct ProfileResult {
  /// The profiled samples, in stream order.
  std::span<const pebs::MemorySample> samples;
  /// One entry per machine channel index (possibly with zero samples).
  std::vector<ChannelProfile> channels;
  HeapTracker tracker;
  std::uint64_t total_samples = 0;
  /// Samples attributed to tracked heap objects (vs static/stack).
  std::uint64_t attributed_samples = 0;
  /// Table I tallies of every sample, one source per machine node (no
  /// nodes in a default-constructed profile).
  SourceTallies tallies;
  /// The profiled machine's nodes and cpus.
  NodeMap nodes;
};

/// Calls visit(const AttributedSample&) for every sample of `profile` on
/// channel index `channel`, in stream order, each with its heap object.
/// One pass over all the profile's samples; nothing is stored.
template <class Visit>
void for_each_in_channel(const ProfileResult& profile, std::size_t channel,
                         Visit&& visit) {
  HeapTracker::Finder objects = profile.tracker.finder();
  for (const pebs::MemorySample& sample : profile.samples) {
    if (profile.nodes.channel_of(sample) != channel) continue;
    visit(AttributedSample{sample, profile.nodes.src_of(sample), sample.home,
                           objects.object_of(sample.address)});
  }
}

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
  /// replayed traces).  The result borrows `samples`.
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
