#include "drbw/core/profiler.hpp"

#include <algorithm>
#include <memory>
#include <string>

#include "drbw/obs/trace.hpp"
#include "drbw/util/error.hpp"
#include "drbw/util/huge_pages.hpp"

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

/// The read pass's per-sample scratch: where the scatter sends the sample.
struct Routed {
  std::uint32_t channel = 0;
  std::uint32_t object = 0;
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
  result.tracker.on_events(events);
  const auto channels = static_cast<std::size_t>(machine_.num_channels());
  const std::size_t n = samples.size();

  // Read pass: each sample's channel and object, and a count per channel in
  // offsets[channel + 1].
  std::vector<Routed> routed;
  util::reserve_huge(routed, n);
  std::vector<std::uint32_t> offsets(channels + 1, 0);
  HeapTracker::Finder objects = result.tracker.finder();
  for (const pebs::MemorySample& sample : samples) {
    const topology::NodeId src = machine_.node_of_cpu(sample.cpu);
    const topology::NodeId home = locator_.locate(sample.address, src);
    const std::uint32_t object = objects.object_of(sample.address);
    const auto channel = static_cast<std::uint32_t>(
        machine_.channel_index(topology::ChannelId{src, home}));
    if (object != kUnknownObject) ++result.attributed_samples;
    ++offsets[channel + 1];
    routed.push_back(Routed{channel, object});
  }
  for (std::size_t c = 0; c < channels; ++c) offsets[c + 1] += offsets[c];

  // Scatter pass: each ref to its channel's next free slot, so every
  // channel keeps its samples in stream order.
  auto refs = std::make_shared<std::vector<SampleRef>>();
  util::reserve_huge(*refs, n);
  refs->resize(n);
  std::vector<std::uint32_t> next(offsets.begin(), offsets.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    (*refs)[next[routed[i].channel]++] =
        SampleRef{static_cast<std::uint32_t>(i), routed[i].object};
  }

  result.channels.reserve(channels);
  for (std::size_t c = 0; c < channels; ++c) {
    const topology::ChannelId channel =
        machine_.channel_at(static_cast<int>(c));
    result.channels.push_back(ChannelProfile{
        channel, ChannelSamples(samples.data(), channel, refs, offsets[c],
                                offsets[c + 1])});
  }
  result.total_samples = samples.size();
  ProfilerMetrics& metrics = ProfilerMetrics::get();
  metrics.calls.add(1);
  metrics.attributed.add(result.attributed_samples);
  metrics.unattributed.add(result.total_samples - result.attributed_samples);
  return result;
}

}  // namespace drbw::core
