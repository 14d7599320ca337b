// DR-BW's diagnoser (§VI): root-cause attribution via Contribution
// Fractions.
//
// Once the classifier marks channels as contended, every sample on those
// channels is charged to the data object it touched.  For a channel c and
// object A:
//
//     CF_c(A) = Samples(c, A) / Samples(c, ALL)
//
// and across the N contended channels:
//
//     CF(A) = sum_c Samples(c, A) / sum_c Samples(c, ALL)
//
// The CFs over all data objects sum to 1; ranking by CF yields the
// optimization targets (§VI-B).  Samples that fall outside every tracked
// heap range (static or stack data — which the paper's tool does not trace,
// see the SP and LULESH case studies) are reported as a separate
// "untracked" bucket so the heap CFs remain honest fractions of the
// channel's total traffic.
#pragma once

#include <string>
#include <vector>

#include "drbw/core/profiler.hpp"

namespace drbw::diagnoser {

struct ObjectContribution {
  std::uint32_t object = core::kUnknownObject;
  std::string site;
  std::uint64_t samples = 0;
  double cf = 0.0;
};

struct Diagnosis {
  /// Tracked heap objects, ranked by CF descending.
  std::vector<ObjectContribution> ranking;
  /// Samples on contended channels touching untracked (static/stack) data.
  std::uint64_t untracked_samples = 0;
  double untracked_cf = 0.0;
  std::uint64_t total_samples = 0;  // all samples on contended channels
  /// The contended channels the diagnosis aggregated over.
  std::vector<topology::ChannelId> channels;
};

/// The profile's channels named by `contended`, in that order (a repeated
/// id repeats its channel).  Throws drbw::Error if one is absent; diagnose
/// and collect_evidence both resolve their channels through this.
std::vector<const core::ChannelProfile*> resolve_channels(
    const core::ProfileResult& profile,
    const std::vector<topology::ChannelId>& contended);

/// Per-channel CF distribution (§VI-A "metrics per channel").
std::vector<ObjectContribution> contributions_in_channel(
    const core::ProfileResult& profile, topology::ChannelId channel);

/// Cross-channel CF over the given contended channels (§VI-A "metrics
/// cross channels").  Channels without contention are ignored by design.
Diagnosis diagnose(const core::ProfileResult& profile,
                   const std::vector<topology::ChannelId>& contended);

/// Human-readable root-cause report: ranked objects with CF bars.
std::string render(const Diagnosis& diagnosis, std::size_t top_n = 10);

}  // namespace drbw::diagnoser
