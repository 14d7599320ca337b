// DR-BW — the end-to-end tool (Fig. 2's workflow).
//
//   profiler -> per-channel features -> decision-tree classifier
//            -> (if contended) root-cause diagnoser
//
// DrBw wraps a trained ml::Classifier and, given a run's sample stream,
// produces a Report: a per-remote-channel verdict, the overall good/rmc
// call, and — when contention is detected — the ranked Contribution
// Fractions of the data objects responsible.  This is the class the example
// programs and the evaluation harnesses drive; everything below it
// (sampling, channel association, attribution) is reusable on its own.
#pragma once

#include <string>
#include <vector>

#include "drbw/core/profiler.hpp"
#include "drbw/diagnoser/advice.hpp"
#include "drbw/diagnoser/diagnoser.hpp"
#include "drbw/features/selected.hpp"
#include "drbw/ml/decision_tree.hpp"
#include "drbw/ml/metrics.hpp"
#include "drbw/sim/engine.hpp"
#include "drbw/topology/machine.hpp"

namespace drbw {

struct ChannelVerdict {
  topology::ChannelId channel;
  features::FeatureVector features;
  ml::Label verdict = ml::Label::kGood;
  /// True when the channel had too few samples and was defaulted to good
  /// without consulting the model.
  bool sparse = false;
};

struct AnalysisConfig {
  /// Channels the guard calls sparse are defaulted to "good" without
  /// consulting the model (see features::kAnalysisGuard).
  features::SparseGuard sparse_guard = features::kAnalysisGuard;
};

struct Report {
  /// The paper's per-case rule 1 (§VII-A): rmc iff at least one remote
  /// channel is detected contended.
  bool rmc = false;
  std::vector<ChannelVerdict> channels;
  std::vector<topology::ChannelId> contended;
  diagnoser::Diagnosis diagnosis;          // populated when rmc
  std::vector<diagnoser::Advice> advice;   // populated when rmc

  /// Full human-readable report.
  std::string to_string(const topology::Machine& machine) const;
};

/// Verdict for one time window of a run (phase-aware detection): programs
/// like AMG2006 contend only in some phases, and a whole-run verdict blurs
/// that.  Windows with too few samples are reported as sparse/good.
struct WindowVerdict {
  std::uint64_t start_cycle = 0;
  std::uint64_t end_cycle = 0;
  std::size_t samples = 0;
  bool rmc = false;
  std::vector<topology::ChannelId> contended;
};

class DrBw {
 public:
  DrBw(const topology::Machine& machine, ml::Classifier model,
       AnalysisConfig config = {});

  /// Profiles a finished run (its samples + allocation events) and
  /// classifies/diagnoses it.
  Report analyze(const sim::RunResult& run, core::PageLocator& locator) const;

  /// Same, for a pre-built profile (replayed traces, tests).  The report
  /// copies what it needs, so it may outlive the profile and its samples.
  Report analyze_profile(const core::ProfileResult& profile) const;

  /// Phase-aware detection: slices the run's sample stream into fixed
  /// windows of `window_cycles` and classifies each window's channels
  /// independently.  Latency-profile features are duration-free, so the
  /// whole-run model applies; count features shrink with the window, which
  /// only makes windowed detection more conservative.  Verdicts only: each
  /// window is featurized by a features::ChannelWindow (no profile, no
  /// diagnosis).
  std::vector<WindowVerdict> analyze_windows(const sim::RunResult& run,
                                             core::PageLocator& locator,
                                             std::uint64_t window_cycles) const;

  const ml::Classifier& model() const { return model_; }
  const topology::Machine& machine() const { return machine_; }

 private:
  const topology::Machine& machine_;
  ml::Classifier model_;
  AnalysisConfig config_;
};

}  // namespace drbw
