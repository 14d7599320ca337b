#include "drbw/diagnoser/diagnoser.hpp"

#include <algorithm>
#include <sstream>

#include "drbw/fault/injector.hpp"
#include "drbw/util/ascii_chart.hpp"
#include "drbw/util/strings.hpp"

namespace drbw::diagnoser {

namespace {

/// The (object, 64 KiB region) pairs a walk has seen, each with the first
/// software thread that touched it and whether another thread touched it
/// since.  Open addressing with linear probing over a power-of-two array,
/// kept at most half full; a slot holds the exact pair, so two pairs never
/// share an entry whatever their hash.  Probed per sample, never iterated.
class RegionTable {
 public:
  enum class Touch { kNewRegion, kNewlyShared, kNoChange };

  Touch touch(std::uint32_t object, mem::Addr region, std::uint32_t tid) {
    Slot& slot = find(object, region);
    if (slot.object == core::kUnknownObject) {
      slot = Slot{region, object, tid};
      if (++used_ * 2 > slots_.size()) grow();
      return Touch::kNewRegion;
    }
    if ((slot.region & kShared) != 0 || slot.first_tid == tid) {
      return Touch::kNoChange;
    }
    slot.region |= kShared;
    return Touch::kNewlyShared;
  }

 private:
  /// A region number is addr >> 16, below 2^48, so bit 63 of a slot's
  /// region is free to carry the shared flag.
  static constexpr mem::Addr kShared = mem::Addr{1} << 63;
  struct Slot {
    mem::Addr region = 0;  ///< with kShared set once the region is shared
    /// kUnknownObject marks an empty slot: untracked samples never probe.
    std::uint32_t object = core::kUnknownObject;
    std::uint32_t first_tid = 0;
  };
  static constexpr int kInitialBits = 11;

  /// The pair's slot, or the empty slot where it belongs.  Multiplicative
  /// hashing: the top bits of the two products index the array.
  Slot& find(std::uint32_t object, mem::Addr region) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(
        (region * 0x9E3779B97F4A7C15ull ^
         std::uint64_t{object} * 0xC2B2AE3D27D4EB4Full) >>
        (64 - bits_));
    for (;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.object == core::kUnknownObject ||
          (slot.object == object && (slot.region & ~kShared) == region)) {
        return slot;
      }
    }
  }

  void grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    ++bits_;
    for (const Slot& slot : old) {
      if (slot.object != core::kUnknownObject) {
        find(slot.object, slot.region & ~kShared) = slot;
      }
    }
  }

  int bits_ = kInitialBits;
  std::vector<Slot> slots_ = std::vector<Slot>(std::size_t{1} << kInitialBits);
  std::size_t used_ = 0;
};

/// The profile's channels named by `contended`, in that order (a repeated
/// id repeats its channel).  Throws drbw::Error if one is absent.
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

/// Nodes the profile's channels span: accessing-node ids lie below this.
std::size_t node_count(const core::ProfileResult& profile) {
  int nodes = 0;
  for (const core::ChannelProfile& channel : profile.channels) {
    nodes = std::max({nodes, channel.channel.src + 1, channel.channel.dst + 1});
  }
  return static_cast<std::size_t>(nodes);
}

/// The one walk: CF ranking and evidence over the named channels.
Diagnosis walk(const core::ProfileResult& profile,
               const std::vector<topology::ChannelId>& contended) {
  struct Accum {
    std::uint64_t writes = 0;
    std::uint64_t regions = 0;
    std::uint64_t shared_regions = 0;
  };
  const std::vector<const core::ChannelProfile*> channels =
      resolve_channels(profile, contended);
  const std::size_t num_objects = profile.tracker.objects().size();
  const std::size_t num_nodes = node_count(profile);
  std::vector<Accum> per_object(num_objects);
  /// node_samples[object * num_nodes + node]: samples per accessing node.
  std::vector<std::uint64_t> node_samples(num_objects * num_nodes, 0);
  RegionTable regions;
  Diagnosis d;
  for (const core::ChannelProfile* channel : channels) {
    d.channels.push_back(channel->channel);
    d.total_samples += channel->samples.size();
    // Every sample of a channel was issued from the channel's source.
    const auto src = static_cast<std::size_t>(channel->channel.src);
    for (const core::AttributedSample& s : channel->samples) {
      if (s.object == core::kUnknownObject) {
        ++d.untracked_samples;
        continue;
      }
      DRBW_CHECK_MSG(s.object < num_objects,
                     "unknown tracked object " << s.object);
      ++node_samples[s.object * num_nodes + src];
      Accum& acc = per_object[s.object];
      acc.writes += s.sample.is_write ? 1 : 0;
      switch (regions.touch(s.object, s.sample.address >> 16, s.sample.tid)) {
        case RegionTable::Touch::kNewRegion:
          ++acc.regions;
          break;
        case RegionTable::Touch::kNewlyShared:
          ++acc.shared_regions;
          break;
        case RegionTable::Touch::kNoChange:
          break;
      }
    }
  }

  // Ascending object id, as the sort below is not stable.
  for (std::uint32_t object = 0; object < num_objects; ++object) {
    std::uint64_t samples = 0;
    int nodes = 0;
    for (std::size_t node = 0; node < num_nodes; ++node) {
      const std::uint64_t n = node_samples[object * num_nodes + node];
      samples += n;
      nodes += n > 0 ? 1 : 0;
    }
    if (samples == 0) continue;
    const Accum& acc = per_object[object];
    ObjectEvidence e;
    e.object = object;
    e.site = profile.tracker.object(object).site;
    e.samples = samples;
    e.cf = static_cast<double>(samples) / static_cast<double>(d.total_samples);
    e.write_fraction =
        static_cast<double>(acc.writes) / static_cast<double>(samples);
    e.accessing_nodes = nodes;
    e.shared_line_fraction = static_cast<double>(acc.shared_regions) /
                             static_cast<double>(acc.regions);
    d.ranking.push_back(std::move(e));
  }
  d.untracked_cf = d.total_samples > 0
                       ? static_cast<double>(d.untracked_samples) /
                             static_cast<double>(d.total_samples)
                       : 0.0;
  std::sort(d.ranking.begin(), d.ranking.end(),
            [](const ObjectEvidence& a, const ObjectEvidence& b) {
              if (a.samples != b.samples) return a.samples > b.samples;
              return a.site < b.site;  // deterministic tie-break
            });
  return d;
}

}  // namespace

std::vector<ObjectEvidence> contributions_in_channel(
    const core::ProfileResult& profile, topology::ChannelId channel) {
  return walk(profile, {channel}).ranking;
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
  return walk(profile, contended);
}

std::string render(const Diagnosis& diagnosis, std::size_t top_n) {
  std::ostringstream os;
  os << "Root-cause diagnosis over " << diagnosis.channels.size()
     << " contended channel(s), " << diagnosis.total_samples << " samples\n";
  BarChart chart("Contribution Fraction", 44);
  std::size_t shown = 0;
  for (const ObjectEvidence& c : diagnosis.ranking) {
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
