#include "drbw/drbw.hpp"

#include <sstream>

#include "drbw/features/window.hpp"
#include "drbw/obs/trace.hpp"
#include "drbw/pebs/session.hpp"
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

Report DrBw::analyze(const sim::RunResult& run,
                     core::PageLocator& locator) const {
  core::Profiler profiler(machine_, locator);
  return analyze_profile(profiler.profile(run));
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
    report.advice = diagnoser::advise(profile, report.contended);
  }
  return report;
}

std::vector<WindowVerdict> DrBw::analyze_windows(
    const sim::RunResult& run, core::PageLocator& locator,
    std::uint64_t window_cycles) const {
  DRBW_CHECK_MSG(window_cycles > 0, "window length must be positive");
  const std::uint64_t windows =
      run.total_cycles / window_cycles + (run.total_cycles % window_cycles != 0);
  const std::vector<std::vector<pebs::MemorySample>> buckets =
      pebs::bucket_by_cycle(run.samples, window_cycles,
                            std::max<std::uint64_t>(windows, 1));

  std::vector<WindowVerdict> verdicts;
  for (std::uint64_t w = 0; w < buckets.size(); ++w) {
    WindowVerdict verdict;
    verdict.start_cycle = w * window_cycles;
    verdict.end_cycle =
        std::min(run.total_cycles, (w + 1) * window_cycles);
    verdict.samples = buckets[w].size();
    // A verdict needs only the channel features: no heap attribution, and
    // no diagnosis of the contended channels.
    features::ChannelWindow window(machine_, locator);
    for (const pebs::MemorySample& sample : buckets[w]) window.add(sample);
    for (const features::ChannelFeatures& cf : window.channels()) {
      if (config_.sparse_guard.sparse(cf.features)) continue;
      if (model_.predict(cf.features.as_row()) == ml::Label::kRmc) {
        verdict.contended.push_back(cf.channel);
      }
    }
    verdict.rmc = !verdict.contended.empty();
    verdicts.push_back(std::move(verdict));
  }
  return verdicts;
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
