#include "drbw/features/window.hpp"

namespace drbw::features {

ChannelWindow::ChannelWindow(const topology::Machine& machine,
                             core::PageLocator& locator)
    : machine_(machine), locator_(locator), tallies_(machine.num_nodes()) {
  DRBW_CHECK_MSG(machine.num_nodes() <= 256,
                 "a channel window names nodes in one byte; the machine has "
                     << machine.num_nodes() << " nodes");
}

WindowSample ChannelWindow::add(const pebs::MemorySample& sample) {
  const topology::NodeId src = machine_.node_of_cpu(sample.cpu);
  const WindowSample record{
      sample.latency_cycles, sample.level, static_cast<std::uint8_t>(src),
      static_cast<std::uint8_t>(locator_.locate(sample.address, src))};
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
