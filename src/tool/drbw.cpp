#include "drbw/drbw.hpp"

#include <span>
#include <sstream>

#include "drbw/obs/trace.hpp"
#include "drbw/util/strings.hpp"
#include "drbw/util/table.hpp"

namespace drbw {

namespace {

obs::Counter& channels_classified_counter() {
  static obs::Counter& counter = obs::Registry::global().counter(
      "drbw_pipeline_channels_classified_total",
      "Channel verdicts produced by DrBw::analyze_profile (incl. sparse)");
  return counter;
}

}  // namespace

DrBw::DrBw(const topology::Machine& machine, ml::Classifier model,
           AnalysisConfig config)
    : machine_(machine), model_(std::move(model)), config_(config) {
  DRBW_CHECK_MSG(model_.feature_names().size() == features::kNumSelected,
                 "model expects " << model_.feature_names().size()
                                  << " features; DR-BW extracts "
                                  << features::kNumSelected);
}

ml::Classifier load_classifier(const std::string& path,
                               const util::LoadPolicy& policy) {
  ml::Classifier model = ml::Classifier::load(path, policy);
  if (model.feature_names().size() !=
      static_cast<std::size_t>(features::kNumSelected)) {
    throw Error(path + ": model expects " +
                    std::to_string(model.feature_names().size()) +
                    " features; DR-BW extracts " +
                    std::to_string(features::kNumSelected),
                ErrorCode::kCorruptArtifact);
  }
  return model;
}

Report DrBw::analyze(const sim::RunResult& run) const {
  return analyze_profile(core::Profiler(machine_).profile(run));
}

Report DrBw::analyze_profile(const core::ProfileResult& profile) const {
  Report report;
  std::vector<features::ChannelFeatures> channel_features;
  {
    obs::Span span("featurize");
    span.arg("samples", static_cast<double>(profile.total_samples));
    channel_features = features::extract_channels(profile, machine_);
  }
  {
    obs::Span span("classify");
    span.arg("channels", static_cast<double>(channel_features.size()));
    for (features::ChannelFeatures& cf : channel_features) {
      ChannelVerdict verdict;
      verdict.channel = cf.channel;
      verdict.features = cf.features;
      if (config_.sparse_guard.sparse(cf.features)) {
        verdict.sparse = true;
        verdict.verdict = ml::Label::kGood;
      } else {
        verdict.verdict = model_.predict(cf.features.as_row());
      }
      if (verdict.verdict == ml::Label::kRmc) {
        report.contended.push_back(cf.channel);
      }
      report.channels.push_back(std::move(verdict));
    }
    channels_classified_counter().add(report.channels.size());
  }
  report.rmc = !report.contended.empty();
  if (report.rmc) {
    obs::Span span("diagnose");
    span.arg("contended_channels", static_cast<double>(report.contended.size()));
    report.diagnosis = diagnoser::diagnose(profile, report.contended);
    report.advice = diagnoser::advise(report.diagnosis);
  }
  return report;
}

std::vector<WindowVerdict> DrBw::analyze_windows(
    const sim::RunResult& run, std::uint64_t window_cycles) const {
  DRBW_CHECK_MSG(window_cycles > 0, "window length must be positive");
  const std::uint64_t count =
      run.total_cycles / window_cycles + (run.total_cycles % window_cycles != 0);
  const pebs::CycleWindows windows = pebs::bucket_by_cycle(
      run.samples, window_cycles, std::max<std::uint64_t>(count, 1),
      run.total_cycles);
  std::vector<WindowVerdict> verdicts;
  verdicts.reserve(windows.count());
  for (std::size_t w = 0; w < windows.count(); ++w) {
    verdicts.push_back(analyze_window(run.samples, windows, w));
  }
  return verdicts;
}

WindowVerdict DrBw::analyze_window(
    std::span<const pebs::MemorySample> samples,
    const pebs::CycleWindows& windows, std::size_t w) const {
  features::ChannelWindow window(machine_);
  const std::span<const std::uint32_t> ordinals = windows.window(w);
  for (const std::uint32_t o : ordinals) window.add(samples[o]);
  WindowVerdict verdict = classify_window(window);
  verdict.start_cycle = windows.start_cycle(w);
  verdict.end_cycle = windows.end_cycle(w);
  verdict.samples = ordinals.size();
  return verdict;
}

WindowVerdict DrBw::classify_window(
    const features::ChannelWindow& window) const {
  WindowVerdict verdict;
  const std::vector<features::ChannelFeatures> channels = window.channels();
  verdict.channels.reserve(channels.size());
  for (const features::ChannelFeatures& cf : channels) {
    if (config_.sparse_guard.sparse(cf.features)) continue;
    ml::Explanation explanation = model_.predict_explained(cf.features.values);
    if (explanation.label == ml::Label::kRmc) {
      verdict.contended.push_back(cf.channel);
    }
    verdict.channels.push_back(
        WindowChannel{cf.channel, cf.features, std::move(explanation)});
  }
  verdict.rmc = !verdict.contended.empty();
  return verdict;
}

void DrBw::observe_drift(const WindowVerdict& verdict,
                         ml::DriftBaseline& serving) const {
  for (const WindowChannel& ch : verdict.channels) {
    model_.observe_drift(ch.features.values, serving);
  }
}

std::string Report::to_string(const topology::Machine& machine) const {
  std::ostringstream os;
  os << "DR-BW verdict: " << (rmc ? "rmc (remote bandwidth contention)"
                                  : "good (no remote bandwidth contention)")
     << '\n';
  TablePrinter t({{"channel", Align::kLeft},
                  {"samples@src", Align::kRight},
                  {"remote samples", Align::kRight},
                  {"avg remote lat", Align::kRight},
                  {"verdict", Align::kLeft}});
  for (const ChannelVerdict& v : channels) {
    t.add_row({machine.channel_name(v.channel),
               std::to_string(v.features.scope_samples),
               format_fixed(v.features.values[5], 0),
               format_fixed(v.features.values[6], 1),
               v.sparse ? "good (sparse)"
                        : (v.verdict == ml::Label::kRmc ? "RMC" : "good")});
  }
  os << t.render();
  if (rmc) {
    os << '\n' << diagnoser::render(diagnosis);
    os << '\n' << diagnoser::render_advice(advice);
  }
  return os.str();
}

}  // namespace drbw
