#include "drbw/diagnoser/advice.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "drbw/util/strings.hpp"

namespace drbw::diagnoser {

const char* remedy_name(Remedy remedy) {
  switch (remedy) {
    case Remedy::kColocate: return "co-locate";
    case Remedy::kReplicate: return "replicate";
    case Remedy::kMigrate: return "migrate";
    case Remedy::kInterleave: return "interleave";
  }
  return "?";
}

namespace {

/// Nodes the profile's channels span: accessing-node ids lie below this.
std::size_t node_count(const core::ProfileResult& profile) {
  int nodes = 0;
  for (const core::ChannelProfile& channel : profile.channels) {
    nodes = std::max({nodes, channel.channel.src + 1, channel.channel.dst + 1});
  }
  return static_cast<std::size_t>(nodes);
}

}  // namespace

std::vector<ObjectEvidence> collect_evidence(
    const core::ProfileResult& profile,
    const std::vector<topology::ChannelId>& contended) {
  /// 64 KiB region owner: the first software thread seen touching it, and
  /// whether any other thread touched it since.  Region granularity (not
  /// cache lines): at a 1/2000 sampling rate two threads essentially never
  /// sample the same line, but partitioned arrays keep whole regions
  /// single-threaded while shared arrays mix threads within every region.
  struct RegionOwner {
    std::uint32_t first_tid = 0;
    bool shared = false;
  };
  struct Accum {
    std::uint64_t samples = 0;
    std::uint64_t writes = 0;
    int nodes = 0;
    std::uint64_t regions = 0;
    std::uint64_t shared_regions = 0;
    /// Probed per sample, never iterated: the counts above carry the
    /// result, so hash order cannot reach the evidence.
    std::unordered_map<mem::Addr, RegionOwner> region_owner;
  };
  const std::vector<const core::ChannelProfile*> channels =
      resolve_channels(profile, contended);
  const std::size_t num_objects = profile.tracker.objects().size();
  const std::size_t num_nodes = node_count(profile);
  std::vector<Accum> per_object(num_objects);
  /// node_seen[object * num_nodes + node]: accessing-node flags.
  std::vector<std::uint8_t> node_seen(num_objects * num_nodes, 0);
  std::uint64_t total = 0;

  for (const core::ChannelProfile* channel : channels) {
    total += channel->samples.size();
    for (const core::AttributedSample& s : channel->samples) {
      if (s.object == core::kUnknownObject) continue;
      DRBW_CHECK_MSG(s.object < num_objects,
                     "unknown tracked object " << s.object);
      DRBW_CHECK_MSG(s.src_node >= 0 &&
                         static_cast<std::size_t>(s.src_node) < num_nodes,
                     "accessing node " << s.src_node << " outside the profile");
      Accum& acc = per_object[s.object];
      ++acc.samples;
      acc.writes += s.sample.is_write ? 1 : 0;
      std::uint8_t& seen = node_seen[s.object * num_nodes +
                                     static_cast<std::size_t>(s.src_node)];
      if (seen == 0) {
        seen = 1;
        ++acc.nodes;
      }
      const auto [it, inserted] = acc.region_owner.try_emplace(
          s.sample.address >> 16, RegionOwner{s.sample.tid, false});
      if (inserted) {
        ++acc.regions;
      } else if (!it->second.shared && it->second.first_tid != s.sample.tid) {
        it->second.shared = true;
        ++acc.shared_regions;
      }
    }
  }

  // Ascending object id, as the sort below is not stable.
  std::vector<ObjectEvidence> out;
  for (std::uint32_t object = 0; object < num_objects; ++object) {
    const Accum& acc = per_object[object];
    if (acc.samples == 0) continue;
    ObjectEvidence e;
    e.object = object;
    e.site = profile.tracker.object(object).site;
    e.samples = acc.samples;
    e.cf = total > 0 ? static_cast<double>(acc.samples) /
                           static_cast<double>(total)
                     : 0.0;
    e.write_fraction = static_cast<double>(acc.writes) /
                       static_cast<double>(acc.samples);
    e.accessing_nodes = acc.nodes;
    e.shared_line_fraction = static_cast<double>(acc.shared_regions) /
                             static_cast<double>(acc.regions);
    out.push_back(std::move(e));
  }
  std::sort(out.begin(), out.end(),
            [](const ObjectEvidence& a, const ObjectEvidence& b) {
              if (a.samples != b.samples) return a.samples > b.samples;
              return a.site < b.site;
            });
  return out;
}

std::vector<Advice> advise(const core::ProfileResult& profile,
                           const std::vector<topology::ChannelId>& contended,
                           const AdviceConfig& config) {
  std::vector<Advice> out;
  for (ObjectEvidence& e : collect_evidence(profile, contended)) {
    if (e.cf < config.min_cf) continue;
    Advice advice;
    std::ostringstream why;
    if (e.accessing_nodes <= 1) {
      advice.remedy = Remedy::kMigrate;
      why << "accessed from a single remote node; bind the allocation to "
             "that node (numa_alloc_onnode)";
    } else if (e.shared_line_fraction >= config.sharing_threshold) {
      if (e.write_fraction <= config.read_only_threshold) {
        advice.remedy = Remedy::kReplicate;
        why << "read-shared by " << e.accessing_nodes
            << " nodes and (almost) never written — per-node shadow "
               "replicas make every access local";
      } else {
        advice.remedy = Remedy::kInterleave;
        why << "shared AND written (" << format_percent(e.write_fraction)
            << " writes) — replication would need coherence; interleave "
               "the pages to balance the load";
      }
    } else {
      advice.remedy = Remedy::kColocate;
      why << "threads touch disjoint regions — split the allocation and "
             "co-locate each segment with its computation";
    }
    advice.rationale = why.str();
    advice.evidence = std::move(e);
    out.push_back(std::move(advice));
  }
  return out;
}

std::string render_advice(const std::vector<Advice>& advice) {
  std::ostringstream os;
  if (advice.empty()) {
    os << "No heap object carries enough of the contended traffic to act "
          "on (statics/stack suspected - consider numactl --interleave).\n";
    return os.str();
  }
  os << "Optimization guidance (highest Contribution Fraction first):\n";
  for (const Advice& a : advice) {
    os << "  * " << a.evidence.site << "  [CF "
       << format_percent(a.evidence.cf) << ", writes "
       << format_percent(a.evidence.write_fraction) << ", "
       << a.evidence.accessing_nodes << " accessing node(s)]\n"
       << "      -> " << remedy_name(a.remedy) << ": " << a.rationale << '\n';
  }
  return os.str();
}

}  // namespace drbw::diagnoser
