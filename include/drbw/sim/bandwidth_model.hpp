// Channel bandwidth and queueing-delay model.
//
// Each directed channel (accessing node -> home node) has a finite capacity
// in bytes/cycle (topology::Machine::channel_capacity).  As offered load
// approaches capacity, memory requests queue and the observed DRAM latency
// inflates.  We use an M/M/1-flavoured inflation curve
//
//     multiplier(u) = 1 + k * u^4 / (1 - min(u, u_max))
//
// which is ~1 at low utilization, bends up past u ≈ 0.7, and grows steeply
// toward saturation — matching the empirically sharp "bandwidth cliff" that
// makes contention detectable in latency statistics (the very signal the
// paper's selected features 1-5 and 7 capture).  The u^4 factor keeps the
// curve flat in the friendly regime so moderate bandwidth consumers are NOT
// flagged (high consumption != contention, §I).
#pragma once

#include <vector>

#include "drbw/topology/machine.hpp"

namespace drbw::sim {

struct BandwidthModelConfig {
  /// Queueing-delay gain.
  double k = 0.75;
  /// Utilization clamp: beyond this the multiplier saturates (the engine
  /// separately rations served traffic to capacity).
  double u_max = 0.97;
};

/// Latency inflation factor at utilization `u` (offered bytes per cycle /
/// capacity).  u may transiently exceed 1 during fixed-point iteration.
double latency_multiplier(double u, const BandwidthModelConfig& config = {});

/// Per-epoch state of every channel: offered demand, served bytes, and the
/// resulting latency multiplier.  One instance is reused across epochs.
///
/// Two resources constrain a directed channel (src -> dst): the inter-socket
/// link (remote channels only) and the destination node's memory controller,
/// which is *shared* by every channel homing on that node — local traffic
/// and all three incoming remote flows queue at the same DRAM banks.  A
/// channel's utilization is the max of the two, and a saturated MC rations
/// every flow that sinks into it.
class ChannelLoad {
 public:
  explicit ChannelLoad(const topology::Machine& machine,
                       BandwidthModelConfig config = {});

  /// Clears offered demand for a new fixed-point round.
  void reset_round();

  /// Adds offered DRAM traffic on a channel for the current round.
  /// `outstanding` is the contributor's sustained in-flight request count on
  /// this channel (its MLP weighted by the share of its traffic homed
  /// here).  Queueing delay on a channel is bounded by Little's law —
  /// total outstanding requests x line transfer time — so a channel that is
  /// only barely oversubscribed by a few low-MLP threads cannot exhibit the
  /// asymptotic latency blow-up of a deeply queued one.  Passing 0 leaves
  /// the contributor out of the bound (used by unit tests that exercise the
  /// pure utilization curve).
  void add_demand(topology::ChannelId ch, double bytes, double outstanding = 0.0);
  void add_demand_index(int channel_index, double bytes,
                        double outstanding = 0.0);

  /// Recomputes utilizations and multipliers for an epoch of `epoch_cycles`.
  /// Returns whether any multiplier changed its bits: when none did, a
  /// further round over the same thread states would repeat this one.
  bool finalize_round(double epoch_cycles);

  double utilization(topology::ChannelId ch) const;
  double multiplier(topology::ChannelId ch) const;
  double multiplier_index(int channel_index) const;
  double demand_bytes_index(int channel_index) const;

  /// Fraction of the offered traffic a saturated channel can actually carry
  /// this epoch (1.0 when below capacity).
  double service_fraction_index(int channel_index) const;

  const topology::Machine& machine() const { return machine_; }
  const BandwidthModelConfig& config() const { return config_; }

 private:
  const topology::Machine& machine_;
  BandwidthModelConfig config_;
  std::vector<double> capacity_;     // bytes/cycle per channel index
  std::vector<double> demand_;       // offered bytes this round
  std::vector<double> outstanding_;  // in-flight requests this round
  std::vector<double> utilization_;  // demand / (capacity * cycles)
  std::vector<double> multiplier_;
  std::vector<double> service_fraction_;
  // finalize_round scratch, refilled each round: per destination memory
  // controller, then per physical link (channel index).
  std::vector<double> mc_u_;
  std::vector<double> mc_outstanding_;
  std::vector<double> link_demand_;
  std::vector<double> link_outstanding_;
};

}  // namespace drbw::sim
