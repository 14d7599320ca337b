#include "drbw/core/profiler.hpp"

#include <string>
#include <utility>

#include "drbw/obs/trace.hpp"
#include "drbw/util/error.hpp"

namespace drbw::core {

namespace {

struct ProfilerMetrics {
  obs::Counter& calls;
  obs::Counter& attributed;
  obs::Counter& unattributed;

  static ProfilerMetrics& get() {
    auto& reg = obs::Registry::global();
    static ProfilerMetrics m{
        reg.counter("drbw_core_profile_calls_total", "Profiler::profile calls"),
        reg.counter("drbw_core_samples_attributed_total",
                    "Samples mapped to a tracked data object"),
        reg.counter("drbw_core_samples_unattributed_total",
                    "Samples whose address matched no tracked object"),
    };
    return m;
  }
};

}  // namespace

NodeMap::NodeMap(const topology::Machine& machine)
    : nodes_(machine.num_nodes()),
      cpu_node_(static_cast<std::size_t>(machine.num_hw_threads())) {
  for (std::size_t cpu = 0; cpu < cpu_node_.size(); ++cpu) {
    cpu_node_[cpu] = machine.node_of_cpu(static_cast<topology::CpuId>(cpu));
  }
}

void NodeMap::out_of_range(const pebs::MemorySample& s) const {
  throw Error("sample on cpu " + std::to_string(s.cpu) + " homed on node " +
                  std::to_string(s.home) + " lies outside the profiled " +
                  std::to_string(cpu_node_.size()) + "-cpu, " +
                  std::to_string(nodes_) + "-node machine",
              ErrorCode::kCorruptArtifact);
}

Profiler::Profiler(const topology::Machine& machine) : machine_(machine) {}

ProfileResult Profiler::profile(const sim::RunResult& run) const {
  return profile(run.alloc_events, run.samples);
}

ProfileResult Profiler::profile(
    const std::vector<mem::AllocationEvent>& events,
    std::span<const pebs::MemorySample> samples) const {
  obs::Span span("profile");
  span.arg("samples", static_cast<double>(samples.size()));
  ProfileResult result;
  result.samples = samples;
  result.nodes = NodeMap(machine_);
  result.tracker.on_events(events);
  const auto channels = static_cast<std::size_t>(machine_.num_channels());

  // One read pass: each sample's channel count, its object for the
  // attributed count, and its Table I tallies.
  std::vector<std::uint64_t> counts(channels, 0);
  SourceTallies tallies(machine_.num_nodes());
  std::uint64_t attributed = 0;
  HeapTracker::Finder objects = result.tracker.finder();
  for (const pebs::MemorySample& sample : samples) {
    const topology::NodeId src = machine_.node_of_cpu(sample.cpu);
    const topology::NodeId home = sample.home;
    ++counts[static_cast<std::size_t>(
        machine_.channel_index(topology::ChannelId{src, home}))];
    attributed += objects.object_of(sample.address) != kUnknownObject;
    tallies.apply<1>(sample.latency_cycles, sample.level,
                     static_cast<std::size_t>(src),
                     static_cast<std::size_t>(home));
  }
  result.attributed_samples = attributed;
  result.tallies = std::move(tallies);
  result.channels.reserve(channels);
  for (std::size_t c = 0; c < channels; ++c) {
    result.channels.push_back(ChannelProfile{
        machine_.channel_at(static_cast<int>(c)), counts[c]});
  }
  result.total_samples = samples.size();
  ProfilerMetrics& metrics = ProfilerMetrics::get();
  metrics.calls.add(1);
  metrics.attributed.add(result.attributed_samples);
  metrics.unattributed.add(result.total_samples - result.attributed_samples);
  return result;
}

}  // namespace drbw::core
