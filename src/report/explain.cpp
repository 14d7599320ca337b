#include "drbw/report/explain.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <utility>

#include "drbw/obs/metrics.hpp"
#include "drbw/util/json.hpp"
#include "drbw/util/stats.hpp"
#include "drbw/util/strings.hpp"

namespace drbw::report {

ExplainArtifacts render_explain(const std::vector<WindowVerdict>& windows,
                                const topology::Machine& machine,
                                const ExplainSource& source, bool markdown) {
  // Tally in window order: verdict rows, decision-path frequency (count,
  // rmc) and per-feature attribution sums.
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> paths;
  std::vector<double> attr_sum(features::kNumSelected, 0.0);
  std::vector<double> attr_abs(features::kNumSelected, 0.0);
  std::vector<double> confidences;
  std::uint64_t rows = 0, rmc_rows = 0;
  std::uint64_t windows_explained = 0, windows_rmc = 0;
  auto& conf_hist = obs::Registry::global().histogram(
      "drbw_model_confidence_bucket",
      "Per-window classification confidence (leaf purity, percent)",
      {50, 60, 70, 80, 90, 95, 100});
  for (const WindowVerdict& window : windows) {
    if (window.channels.empty()) continue;
    ++windows_explained;
    if (window.rmc) ++windows_rmc;
    for (const WindowChannel& channel : window.channels) {
      const ml::Explanation& exp = channel.explanation;
      const bool is_rmc = exp.label == ml::Label::kRmc;
      ++rows;
      if (is_rmc) ++rmc_rows;
      confidences.push_back(exp.confidence);
      conf_hist.observe(static_cast<std::uint64_t>(exp.confidence * 100.0 + 0.5));
      auto& tally = paths[exp.path_signature()];
      ++tally.first;
      if (is_rmc) ++tally.second;
      for (std::size_t f = 0; f < exp.attributions.size(); ++f) {
        attr_sum[f] += exp.attributions[f];
        attr_abs[f] += std::abs(exp.attributions[f]);
      }
    }
  }
  const double per_row = rows > 0 ? static_cast<double>(rows) : 1.0;
  const double confidence_p50 = lower_median(confidences);
  const double confidence_min =
      confidences.empty()
          ? 0.0
          : *std::min_element(confidences.begin(), confidences.end());
  // Path frequency: most common first, signature as the tie-break.
  std::vector<std::pair<std::string, std::pair<std::uint64_t, std::uint64_t>>>
      ranked(paths.begin(), paths.end());
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     if (a.second.first != b.second.first) {
                       return a.second.first > b.second.first;
                     }
                     return a.first < b.first;
                   });
  const auto& keys = features::selected_feature_keys();

  // The JSON document: a golden block, then the source paths as context.
  // Nothing in either depends on --jobs.
  JsonArray window_list;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    JsonArray verdicts;
    for (const WindowChannel& channel : windows[w].channels) {
      const ml::Explanation& exp = channel.explanation;
      verdicts.push_back(JsonObject{
          {"channel", machine.channel_name(channel.channel)},
          {"label", ml::label_name(exp.label)},
          {"confidence", exp.confidence},
          {"path", exp.path_signature()},
          {"leaf", exp.leaf}});
    }
    window_list.push_back(JsonObject{{"window", w},
                                     {"start", windows[w].start_cycle},
                                     {"end", windows[w].end_cycle},
                                     {"samples", windows[w].samples},
                                     {"verdicts", std::move(verdicts)}});
  }
  JsonArray path_list;
  for (const auto& [signature, tally] : ranked) {
    path_list.push_back(JsonObject{
        {"signature", signature}, {"count", tally.first}, {"rmc", tally.second}});
  }
  JsonArray attribution_list;
  for (std::size_t f = 0; f < attr_sum.size(); ++f) {
    attribution_list.push_back(JsonObject{{"feature", keys[f]},
                                          {"mean", attr_sum[f] / per_row},
                                          {"mean_abs", attr_abs[f] / per_row}});
  }
  const Json doc = JsonObject{
      {"drbw_explain", kExplainVersion},
      {"golden",
       JsonObject{{"summary", JsonObject{{"windows", windows.size()},
                                         {"windows_explained", windows_explained},
                                         {"windows_rmc", windows_rmc},
                                         {"rows", rows},
                                         {"rmc_rows", rmc_rows},
                                         {"confidence_p50", confidence_p50},
                                         {"confidence_min", confidence_min}}},
                  {"windows", std::move(window_list)},
                  {"paths", std::move(path_list)},
                  {"attributions", std::move(attribution_list)}}},
      {"context",
       JsonObject{{"trace", source.trace},
                  {"model", source.model.empty() ? "(trained in-process)"
                                                 : source.model}}}};
  ExplainArtifacts out;
  out.json = doc.dump(2) + "\n";

  std::ostringstream line;
  line << "explained " << rows << " channel verdict(s) across "
       << windows_explained << " of " << windows.size() << " window(s): "
       << rmc_rows << " rmc, " << paths.size()
       << " distinct decision path(s), confidence p50 "
       << format_fixed(confidence_p50, 3);
  out.summary = line.str();
  if (!markdown) return out;

  std::ostringstream md;
  md << "# DR-BW explain report\n\n`" << source.trace << "` vs "
     << (source.model.empty() ? std::string("an in-process model")
                              : "`" + source.model + "`")
     << ": " << windows_explained << " of " << windows.size()
     << " window(s) explained, " << rows << " channel verdict(s) ("
     << rmc_rows << " rmc), confidence p50 " << format_fixed(confidence_p50, 3)
     << ", min " << format_fixed(confidence_min, 3) << "\n";
  md << "\n## Decision paths\n\n| path | count | rmc |\n|---|---:|---:|\n";
  for (const auto& [signature, tally] : ranked) {
    md << "| `" << signature << "` | " << tally.first << " | " << tally.second
       << " |\n";
  }
  md << "\n## Feature attribution (mean delta-P(rmc) per verdict)\n\n"
        "| feature | mean | mean abs |\n|---|---:|---:|\n";
  for (std::size_t f = 0; f < attr_sum.size(); ++f) {
    md << "| " << keys[f] << " | " << format_fixed(attr_sum[f] / per_row, 4)
       << " | " << format_fixed(attr_abs[f] / per_row, 4) << " |\n";
  }
  md << "\n## Windows\n";
  for (std::size_t w = 0; w < windows.size(); ++w) {
    md << "\n### window " << w << " [" << windows[w].start_cycle << ", "
       << windows[w].end_cycle << ") — " << windows[w].samples
       << " sample(s)\n\n";
    if (windows[w].channels.empty()) {
      md << "no explainable channel (sparse window)\n";
      continue;
    }
    md << "| channel | verdict | confidence | path |\n|---|---|---:|---|\n";
    for (const WindowChannel& channel : windows[w].channels) {
      const ml::Explanation& exp = channel.explanation;
      md << "| " << machine.channel_name(channel.channel) << " | "
         << (exp.label == ml::Label::kRmc ? "RMC" : "good") << " | "
         << format_fixed(exp.confidence, 3) << " | `"
         << exp.path_signature() << "` |\n";
    }
  }
  out.markdown = md.str();
  return out;
}

}  // namespace drbw::report
