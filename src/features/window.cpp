#include "drbw/features/window.hpp"

namespace drbw::features {

ChannelWindow::ChannelWindow(const topology::Machine& machine)
    : machine_(machine), tallies_(machine.num_nodes()) {}

WindowSample ChannelWindow::add(const pebs::MemorySample& sample) {
  const topology::NodeId src = machine_.node_of_cpu(sample.cpu);
  // Validates the home: the tallies index by it unchecked.
  (void)machine_.channel_index(topology::ChannelId{src, sample.home});
  const WindowSample record{sample.latency_cycles, sample.level,
                            static_cast<std::uint8_t>(src), sample.home};
  add(record);
  return record;
}

void ChannelWindow::add(const WindowSample& sample) {
  tallies_.apply<1>(sample.latency, sample.level, sample.src, sample.home);
}

void ChannelWindow::evict(const WindowSample& sample) {
  tallies_.apply<-1>(sample.latency, sample.level, sample.src, sample.home);
}

void ChannelWindow::clear() { tallies_.clear(); }

std::vector<ChannelFeatures> ChannelWindow::channels() const {
  return channel_features(tallies_);
}

}  // namespace drbw::features
