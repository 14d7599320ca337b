// Optimization-advice engine.
//
// DR-BW's value proposition is that the diagnosis leads directly to a fix
// (§VI-B, §VIII): co-locate partitioned data with its computation,
// replicate read-shared data, or interleave when nothing finer is
// available.  This module turns a diagnosis into that recommendation by
// inspecting, per top-CF object, the evidence diagnose() gathered from the
// samples (diagnoser.hpp's ObjectEvidence):
//
//   * write fraction  — replication is only sound for data that is not
//     written after initialization (the paper replicates Streamcluster's
//     `block` precisely because "the data is never overwritten after the
//     initialization");
//   * accessing-node spread — data touched from one remote node wants
//     migration/binding; data touched from every node wants co-location
//     (if partitioned per thread) or replication (if read-shared);
//   * address-sharing across threads — threads touching disjoint regions
//     indicate a partitioned array (co-locate); threads overlapping on the
//     same addresses indicate genuine sharing (replicate/interleave).
#pragma once

#include <string>
#include <vector>

#include "drbw/core/profiler.hpp"
#include "drbw/diagnoser/diagnoser.hpp"

namespace drbw::diagnoser {

enum class Remedy : std::uint8_t {
  kColocate,    // partition-aligned placement at the allocation site
  kReplicate,   // per-node shadow copies (read-only data)
  kMigrate,     // bind to the single consuming node
  kInterleave,  // balance when access is shared and written
};

const char* remedy_name(Remedy remedy);

struct Advice {
  ObjectEvidence evidence;
  Remedy remedy = Remedy::kInterleave;
  std::string rationale;
};

struct AdviceConfig {
  /// Only objects at or above this CF are worth acting on.
  double min_cf = 0.05;
  /// Write fraction below which data counts as read-only (replicable).
  double read_only_threshold = 0.02;
  /// Shared-line fraction above which an object counts as genuinely shared.
  double sharing_threshold = 0.25;
};

/// Recommends a remedy for each actionable object of the diagnosis, in its
/// rank order.  Reads no samples.
std::vector<Advice> advise(const Diagnosis& diagnosis,
                           const AdviceConfig& config = {});

/// advise(diagnose(profile, contended), config).
std::vector<Advice> advise(const core::ProfileResult& profile,
                           const std::vector<topology::ChannelId>& contended,
                           const AdviceConfig& config = {});

/// Human-readable advice report.
std::string render_advice(const std::vector<Advice>& advice);

}  // namespace drbw::diagnoser
