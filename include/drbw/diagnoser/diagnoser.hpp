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
//
// The same pass gathers each object's evidence for the advice engine
// (advice.hpp): its writes, its accessing nodes and how many of its 64 KiB
// regions more than one software thread touched.  Region sharing lives in
// one flat open-addressed table keyed by the exact (object, addr >> 16)
// pair, probed per sample and never iterated, so no hash order reaches the
// result.  advise() reads the diagnosis, not the samples.
#pragma once

#include <string>
#include <vector>

#include "drbw/core/profiler.hpp"

namespace drbw::diagnoser {

/// One tracked heap object's share of the contended traffic, and the
/// evidence the advice engine reads.
struct ObjectEvidence {
  std::uint32_t object = core::kUnknownObject;
  std::string site;
  double cf = 0.0;
  std::uint64_t samples = 0;
  double write_fraction = 0.0;
  /// Number of distinct accessing nodes observed.
  int accessing_nodes = 0;
  /// Fraction of the object's sampled 64 KiB regions touched by more than
  /// one software thread (1.0 = fully shared, 0.0 = perfectly partitioned).
  /// Regions, not cache lines: at a 1/2000 sampling rate two threads
  /// essentially never sample the same line, but partitioned arrays keep
  /// whole regions single-threaded while shared arrays mix threads within
  /// every region.
  double shared_line_fraction = 0.0;
};

struct Diagnosis {
  /// Tracked heap objects, ranked by CF descending (equal counts by site).
  std::vector<ObjectEvidence> ranking;
  /// Samples on contended channels touching untracked (static/stack) data.
  std::uint64_t untracked_samples = 0;
  double untracked_cf = 0.0;
  std::uint64_t total_samples = 0;  // all samples on contended channels
  /// The contended channels the diagnosis aggregated over.
  std::vector<topology::ChannelId> channels;
};

/// Per-channel CF distribution (§VI-A "metrics per channel").  Throws
/// drbw::Error if the profile lacks the channel.
std::vector<ObjectEvidence> contributions_in_channel(
    const core::ProfileResult& profile, topology::ChannelId channel);

/// Cross-channel CF over the given contended channels (§VI-A "metrics
/// cross channels"), with each object's evidence, in one pass over their
/// samples.  Channels without contention are ignored by design; a repeated
/// channel counts twice, and one the profile lacks throws drbw::Error.
Diagnosis diagnose(const core::ProfileResult& profile,
                   const std::vector<topology::ChannelId>& contended);

/// Human-readable root-cause report: ranked objects with CF bars.
std::string render(const Diagnosis& diagnosis, std::size_t top_n = 10);

}  // namespace drbw::diagnoser
