#include "drbw/sim/bandwidth_model.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace drbw::sim {

double latency_multiplier(double u, const BandwidthModelConfig& config) {
  DRBW_CHECK_MSG(u >= 0.0, "utilization must be nonnegative");
  const double uc = std::min(u, config.u_max);
  const double u4 = uc * uc * uc * uc;
  return 1.0 + config.k * u4 / (1.0 - uc);
}

ChannelLoad::ChannelLoad(const topology::Machine& machine,
                         BandwidthModelConfig config)
    : machine_(machine), config_(config) {
  const auto n = static_cast<std::size_t>(machine.num_channels());
  capacity_.resize(n);
  for (int i = 0; i < machine.num_channels(); ++i) {
    const topology::ChannelId ch = machine.channel_at(i);
    // Per-channel *link* capacity; the shared-MC constraint is applied in
    // finalize_round.  Local channels have no link of their own.
    capacity_[static_cast<std::size_t>(i)] =
        ch.is_local()
            ? machine.spec().mc_bandwidth
            : std::min(machine.spec().link_bandwidth
                           [static_cast<std::size_t>(ch.src)]
                           [static_cast<std::size_t>(ch.dst)],
                       machine.spec().mc_bandwidth);
  }
  demand_.assign(n, 0.0);
  outstanding_.assign(n, 0.0);
  utilization_.assign(n, 0.0);
  multiplier_.assign(n, 1.0);
  service_fraction_.assign(n, 1.0);
  mc_u_.resize(static_cast<std::size_t>(machine.num_nodes()));
  mc_outstanding_.resize(static_cast<std::size_t>(machine.num_nodes()));
  link_demand_.resize(n);
  link_outstanding_.resize(n);
}

void ChannelLoad::reset_round() {
  std::fill(demand_.begin(), demand_.end(), 0.0);
  std::fill(outstanding_.begin(), outstanding_.end(), 0.0);
}

void ChannelLoad::add_demand(topology::ChannelId ch, double bytes,
                             double outstanding) {
  add_demand_index(machine_.channel_index(ch), bytes, outstanding);
}

void ChannelLoad::add_demand_index(int channel_index, double bytes,
                                   double outstanding) {
  DRBW_CHECK(bytes >= 0.0);
  demand_[static_cast<std::size_t>(channel_index)] += bytes;
  outstanding_[static_cast<std::size_t>(channel_index)] += outstanding;
}

bool ChannelLoad::finalize_round(double epoch_cycles) {
  DRBW_CHECK(epoch_cycles > 0.0);
  const int nodes = machine_.num_nodes();
  // Aggregate sink demand and in-flight requests per destination memory
  // controller.
  std::fill(mc_u_.begin(), mc_u_.end(), 0.0);
  std::fill(mc_outstanding_.begin(), mc_outstanding_.end(), 0.0);
  const double mc_capacity = machine_.spec().mc_bandwidth * epoch_cycles;
  for (int src = 0; src < nodes; ++src) {
    for (int dst = 0; dst < nodes; ++dst) {
      mc_u_[static_cast<std::size_t>(dst)] +=
          demand_[static_cast<std::size_t>(src * nodes + dst)] / mc_capacity;
    }
  }
  for (int src = 0; src < nodes; ++src) {
    for (int dst = 0; dst < nodes; ++dst) {
      mc_outstanding_[static_cast<std::size_t>(dst)] +=
          outstanding_[static_cast<std::size_t>(src * nodes + dst)];
    }
  }

  // Aggregate bytes and in-flight requests per *physical link*: a channel's
  // traffic loads every hop of its path (one hop on fully connected
  // machines, possibly more on partial meshes like the 8-node Opteron).
  std::fill(link_demand_.begin(), link_demand_.end(), 0.0);
  std::fill(link_outstanding_.begin(), link_outstanding_.end(), 0.0);
  for (int src = 0; src < nodes; ++src) {
    for (int dst = 0; dst < nodes; ++dst) {
      const auto i = static_cast<std::size_t>(src * nodes + dst);
      if (demand_[i] <= 0.0 && outstanding_[i] <= 0.0) continue;
      for (const topology::ChannelId link :
           machine_.path_links(topology::ChannelId{src, dst})) {
        const auto l =
            static_cast<std::size_t>(machine_.channel_index(link));
        link_demand_[l] += demand_[i];
        link_outstanding_[l] += outstanding_[i];
      }
    }
  }

  const double line = machine_.spec().l1.line_bytes;
  bool changed = false;
  for (int src = 0; src < nodes; ++src) {
    for (int dst = 0; dst < nodes; ++dst) {
      const auto i = static_cast<std::size_t>(src * nodes + dst);
      const topology::ChannelId ch{src, dst};
      // The binding link along the path, by utilization.
      double link_u = 0.0;
      double link_delay = 0.0;
      for (const topology::ChannelId link : machine_.path_links(ch)) {
        const auto l = static_cast<std::size_t>(machine_.channel_index(link));
        const double cap = machine_.link_capacity(link);
        link_u = std::max(link_u, link_demand_[l] / (cap * epoch_cycles));
        link_delay = std::max(link_delay, link_outstanding_[l] * line / cap);
      }
      const double u = std::max(link_u, mc_u_[static_cast<std::size_t>(dst)]);
      utilization_[i] = u;
      double mult = latency_multiplier(u, config_);
      // Little's-law bound: the queueing delay cannot exceed the time to
      // drain every in-flight request ahead of a newcomer through the
      // binding resource.
      if (outstanding_[i] > 0.0) {
        const double mc_delay = mc_outstanding_[static_cast<std::size_t>(dst)] *
                                line / machine_.spec().mc_bandwidth;
        const double idle = machine_.idle_dram_latency(ch);
        const double bound = 1.0 + std::max(link_delay, mc_delay) / idle;
        mult = std::min(mult, bound);
      }
      changed |= std::bit_cast<std::uint64_t>(mult) !=
                 std::bit_cast<std::uint64_t>(multiplier_[i]);
      multiplier_[i] = mult;
      service_fraction_[i] = u > 1.0 ? 1.0 / u : 1.0;
    }
  }
  return changed;
}

double ChannelLoad::utilization(topology::ChannelId ch) const {
  return utilization_[static_cast<std::size_t>(machine_.channel_index(ch))];
}

double ChannelLoad::multiplier(topology::ChannelId ch) const {
  return multiplier_[static_cast<std::size_t>(machine_.channel_index(ch))];
}

double ChannelLoad::multiplier_index(int channel_index) const {
  return multiplier_[static_cast<std::size_t>(channel_index)];
}

double ChannelLoad::demand_bytes_index(int channel_index) const {
  return demand_[static_cast<std::size_t>(channel_index)];
}

double ChannelLoad::service_fraction_index(int channel_index) const {
  return service_fraction_[static_cast<std::size_t>(channel_index)];
}

}  // namespace drbw::sim
