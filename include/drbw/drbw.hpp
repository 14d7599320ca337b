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

#include <span>
#include <string>
#include <vector>

#include "drbw/core/profiler.hpp"
#include "drbw/diagnoser/advice.hpp"
#include "drbw/diagnoser/diagnoser.hpp"
#include "drbw/features/selected.hpp"
#include "drbw/features/window.hpp"
#include "drbw/ml/decision_tree.hpp"
#include "drbw/ml/metrics.hpp"
#include "drbw/pebs/session.hpp"
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

/// A window's channel that the sparse guard let through, and the model's
/// explained verdict on it.
struct WindowChannel {
  topology::ChannelId channel;
  features::FeatureVector features;
  ml::Explanation explanation;
};

/// Verdict for one time window of a run (phase-aware detection): programs
/// like AMG2006 contend only in some phases, and a whole-run verdict blurs
/// that.  Sparse channels are neither classified nor listed.
struct WindowVerdict {
  std::uint64_t start_cycle = 0;
  std::uint64_t end_cycle = 0;
  std::size_t samples = 0;
  bool rmc = false;
  std::vector<topology::ChannelId> contended;
  /// Every non-sparse channel, in channel index order.
  std::vector<WindowChannel> channels;
};

class DrBw {
 public:
  DrBw(const topology::Machine& machine, ml::Classifier model,
       AnalysisConfig config = {});

  /// Profiles a finished run (its samples + allocation events) and
  /// classifies/diagnoses it.
  Report analyze(const sim::RunResult& run) const;

  /// Same, for a pre-built profile (replayed traces, tests).  The report
  /// copies what it needs, so it may outlive the profile and its samples.
  Report analyze_profile(const core::ProfileResult& profile) const;

  /// Phase-aware detection: analyze_window, serially, over the windows of
  /// `window_cycles` that tile [0, total_cycles).  Latency-profile features
  /// are duration-free, so the whole-run model applies; count features
  /// shrink with the window, which only makes windowed detection more
  /// conservative.
  std::vector<WindowVerdict> analyze_windows(const sim::RunResult& run,
                                             std::uint64_t window_cycles) const;
  /// Ignores the locator: the home node comes from each sample.  Kept only
  /// for perfbench/pipebench.cpp.
  std::vector<WindowVerdict> analyze_windows(const sim::RunResult& run,
                                             core::PageLocator& /*unused*/,
                                             std::uint64_t window_cycles) const {
    return analyze_windows(run, window_cycles);
  }

  /// Featurizes window `w` of `windows` (ordinals into `samples`) with an
  /// add-only features::ChannelWindow — no profile, no diagnosis — sets the
  /// verdict's cycle bounds and sample count, and classifies it with
  /// classify_window.  Windows may be classified concurrently.
  WindowVerdict analyze_window(std::span<const pebs::MemorySample> samples,
                               const pebs::CycleWindows& windows,
                               std::size_t w) const;

  /// The one window classifier (analyze --windows, explain, serve): explains
  /// every channel of a filled `window` that this DrBw's sparse guard lets
  /// through.  The verdict's bounds and sample count are left at zero; an
  /// empty window yields no channels.
  WindowVerdict classify_window(const features::ChannelWindow& window) const;

  /// Buckets every channel `verdict` classified into `serving`, the way the
  /// model bucketed its training rows (ml::Classifier::observe_drift).
  void observe_drift(const WindowVerdict& verdict,
                     ml::DriftBaseline& serving) const;

  const ml::Classifier& model() const { return model_; }
  const topology::Machine& machine() const { return machine_; }

 private:
  const topology::Machine& machine_;
  ml::Classifier model_;
  AnalysisConfig config_;
};

/// Loads a model artifact (ml::Classifier::load) for DR-BW: a model whose
/// feature count is not features::kNumSelected cannot classify a channel,
/// so it fails here with Error(kCorruptArtifact) naming `path`.
ml::Classifier load_classifier(const std::string& path,
                               const util::LoadPolicy& policy);

}  // namespace drbw
