#include "drbw/core/profiler.hpp"

#include <string>

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

Profiler::Profiler(const topology::Machine& machine, PageLocator& locator)
    : machine_(machine), locator_(locator) {}

ProfileResult Profiler::profile(const sim::RunResult& run) const {
  return profile(run.alloc_events, run.samples);
}

ProfileResult Profiler::profile(
    const std::vector<mem::AllocationEvent>& events,
    const std::vector<pebs::MemorySample>& samples) const {
  obs::Span span("profile");
  span.arg("samples", static_cast<double>(samples.size()));
  if (samples.size() > kMaxProfileSamples) {
    throw Error("cannot profile " + std::to_string(samples.size()) +
                    " samples: a profile indexes at most " +
                    std::to_string(kMaxProfileSamples),
                ErrorCode::kCorruptArtifact);
  }
  ProfileResult result;
  result.channels.resize(static_cast<std::size_t>(machine_.num_channels()));
  for (int i = 0; i < machine_.num_channels(); ++i) {
    const topology::ChannelId channel = machine_.channel_at(i);
    result.channels[static_cast<std::size_t>(i)] =
        ChannelProfile{channel, ChannelSamples(samples.data(), channel)};
  }
  result.tracker.on_events(events);

  for (std::size_t i = 0; i < samples.size(); ++i) {
    const pebs::MemorySample& sample = samples[i];
    const topology::NodeId src = machine_.node_of_cpu(sample.cpu);
    const topology::NodeId home = locator_.locate(sample.address, src);
    const std::uint32_t object = result.tracker.object_of(sample.address);
    const int index = machine_.channel_index(topology::ChannelId{src, home});
    if (object != kUnknownObject) ++result.attributed_samples;
    result.channels[static_cast<std::size_t>(index)].samples.refs_.push_back(
        SampleRef{static_cast<std::uint32_t>(i), object});
  }
  result.total_samples = samples.size();
  ProfilerMetrics& metrics = ProfilerMetrics::get();
  metrics.calls.add(1);
  metrics.attributed.add(result.attributed_samples);
  metrics.unattributed.add(result.total_samples - result.attributed_samples);
  return result;
}

}  // namespace drbw::core
