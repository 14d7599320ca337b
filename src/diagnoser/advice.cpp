#include "drbw/diagnoser/advice.hpp"

#include <sstream>

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

std::vector<Advice> advise(const Diagnosis& diagnosis,
                           const AdviceConfig& config) {
  std::vector<Advice> out;
  for (const ObjectEvidence& e : diagnosis.ranking) {
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
    advice.evidence = e;
    out.push_back(std::move(advice));
  }
  return out;
}

std::vector<Advice> advise(const core::ProfileResult& profile,
                           const std::vector<topology::ChannelId>& contended,
                           const AdviceConfig& config) {
  return advise(diagnose(profile, contended), config);
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
