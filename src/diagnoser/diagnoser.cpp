#include "drbw/diagnoser/diagnoser.hpp"

#include <algorithm>
#include <sstream>

#include "drbw/fault/injector.hpp"
#include "drbw/util/ascii_chart.hpp"
#include "drbw/util/strings.hpp"

namespace drbw::diagnoser {

namespace {

/// Shared tally: samples per object over a set of channel profiles.
Diagnosis tally(const core::ProfileResult& profile,
                const std::vector<const core::ChannelProfile*>& channels) {
  Diagnosis d;
  std::vector<std::uint64_t> per_object(profile.tracker.objects().size(), 0);
  for (const core::ChannelProfile* channel : channels) {
    d.channels.push_back(channel->channel);
    d.total_samples += channel->samples.size();
    for (const core::AttributedSample& s : channel->samples) {
      if (s.object == core::kUnknownObject) {
        ++d.untracked_samples;
      } else {
        DRBW_CHECK_MSG(s.object < per_object.size(),
                       "unknown tracked object " << s.object);
        ++per_object[s.object];
      }
    }
  }
  // Ascending object id, as the sort below is not stable.
  for (std::uint32_t object = 0; object < per_object.size(); ++object) {
    const std::uint64_t samples = per_object[object];
    if (samples == 0) continue;
    ObjectContribution c;
    c.object = object;
    c.site = profile.tracker.object(object).site;
    c.samples = samples;
    c.cf = static_cast<double>(samples) /
           static_cast<double>(d.total_samples);
    d.ranking.push_back(std::move(c));
  }
  d.untracked_cf = d.total_samples > 0
                       ? static_cast<double>(d.untracked_samples) /
                             static_cast<double>(d.total_samples)
                       : 0.0;
  std::sort(d.ranking.begin(), d.ranking.end(),
            [](const ObjectContribution& a, const ObjectContribution& b) {
              if (a.samples != b.samples) return a.samples > b.samples;
              return a.site < b.site;  // deterministic tie-break
            });
  return d;
}

}  // namespace

std::vector<const core::ChannelProfile*> resolve_channels(
    const core::ProfileResult& profile,
    const std::vector<topology::ChannelId>& contended) {
  std::vector<const core::ChannelProfile*> channels;
  channels.reserve(contended.size());
  for (const topology::ChannelId want : contended) {
    const auto it = std::find_if(
        profile.channels.begin(), profile.channels.end(),
        [&](const core::ChannelProfile& cp) { return cp.channel == want; });
    DRBW_CHECK_MSG(it != profile.channels.end(),
                   "contended channel N" << want.src << "->N" << want.dst
                                         << " not present in profile");
    channels.push_back(&*it);
  }
  return channels;
}

std::vector<ObjectContribution> contributions_in_channel(
    const core::ProfileResult& profile, topology::ChannelId channel) {
  return tally(profile, resolve_channels(profile, {channel})).ranking;
}

Diagnosis diagnose(const core::ProfileResult& profile,
                   const std::vector<topology::ChannelId>& contended) {
  // Fault site "diagnose.cf": chaos coverage for the Contribution-Fraction
  // stage.  Keyed by jobs-independent content (channel count and total
  // attributed samples), so the decision is identical at any --jobs value.
  std::uint64_t key = contended.size();
  for (const core::ChannelProfile& cp : profile.channels) {
    key += cp.samples.size();
  }
  fault::maybe_fail("diagnose.cf", key,
                    "injected diagnoser failure while ranking Contribution "
                    "Fractions over " +
                        std::to_string(contended.size()) + " channel(s)");
  return tally(profile, resolve_channels(profile, contended));
}

std::string render(const Diagnosis& diagnosis, std::size_t top_n) {
  std::ostringstream os;
  os << "Root-cause diagnosis over " << diagnosis.channels.size()
     << " contended channel(s), " << diagnosis.total_samples << " samples\n";
  BarChart chart("Contribution Fraction", 44);
  std::size_t shown = 0;
  for (const ObjectContribution& c : diagnosis.ranking) {
    if (shown++ >= top_n) break;
    chart.add(c.site, c.cf);
  }
  if (diagnosis.untracked_samples > 0) {
    chart.add("(untracked static/stack data)", diagnosis.untracked_cf);
  }
  os << chart.render();
  if (!diagnosis.ranking.empty()) {
    os << "Top object: " << diagnosis.ranking.front().site << "  (CF "
       << format_percent(diagnosis.ranking.front().cf)
       << ") — co-locate or replicate this allocation first.\n";
  } else if (diagnosis.untracked_samples > 0) {
    os << "All contended traffic touches untracked (static/stack) data; "
          "heap-level co-location is not applicable — consider interleaving "
          "(cf. the SP case study, §VIII-F).\n";
  }
  return os.str();
}

}  // namespace drbw::diagnoser
