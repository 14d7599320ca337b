#include "drbw/ext/cache_contention.hpp"

#include "drbw/util/stats.hpp"
#include "drbw/workloads/config.hpp"

namespace drbw::ext {

const std::array<std::string, kNumCacheFeatures>& cache_feature_names() {
  static const std::array<std::string, kNumCacheFeatures> names = {
      "# of L3 hit samples",
      "# of local dram access samples",
      "Local dram share of on-socket L3 traffic",
      "Average local dram access latency",
      "Average L3 access latency",
      "Total # of memory access samples",
      "Average memory access latency",
  };
  return names;
}

std::vector<NodeFeatures> extract_node_features(
    const core::ProfileResult& profile, const topology::Machine& machine) {
  struct Accum {
    OnlineStats all;
    OnlineStats l3;
    OnlineStats local_dram;
  };
  std::vector<Accum> accs(static_cast<std::size_t>(machine.num_nodes()));
  // Channel by channel, as the OnlineStats sums round in visiting order.
  for (std::size_t c = 0; c < profile.channels.size(); ++c) {
    core::for_each_in_channel(profile, c, [&](const core::AttributedSample& s) {
      Accum& acc = accs[static_cast<std::size_t>(s.src_node)];
      const double lat = s.sample.latency_cycles;
      acc.all.add(lat);
      if (s.sample.level == pebs::MemLevel::kL3) acc.l3.add(lat);
      if (s.sample.level == pebs::MemLevel::kLocalDram) acc.local_dram.add(lat);
    });
  }

  std::vector<NodeFeatures> out;
  for (int node = 0; node < machine.num_nodes(); ++node) {
    const Accum& acc = accs[static_cast<std::size_t>(node)];
    NodeFeatures f;
    f.node = node;
    const auto l3 = static_cast<double>(acc.l3.count());
    const auto dram = static_cast<double>(acc.local_dram.count());
    f.values[0] = l3;
    f.values[1] = dram;
    f.values[2] = l3 + dram > 0.0 ? dram / (l3 + dram) : 0.0;
    f.values[3] = acc.local_dram.mean();
    f.values[4] = acc.l3.mean();
    f.values[5] = static_cast<double>(acc.all.count());
    f.values[6] = acc.all.mean();
    f.node_samples = acc.all.count();
    out.push_back(f);
  }
  return out;
}

workloads::ProxySpec cachemix_spec(std::uint64_t per_thread_bytes) {
  using namespace workloads;
  ProxySpec spec;
  spec.name = "cachemix";
  spec.suite = "ext";
  spec.inputs = {{"tuned", 1.0}};
  spec.master_alloc = false;  // co-located: the signal must be cache-only
  spec.base_accesses = 5'000'000;
  spec.compute_cpa = 1.2;
  // One partitioned pool; each thread's share is its private working set,
  // so per-thread footprint = pool / threads.  The builder wires the
  // l3_share for co-residency, which is exactly the effect under study.
  // The pool is sized per run via this factory so that share == the
  // requested per-thread working set at every thread count (the training
  // generator recomputes it per configuration).
  spec.arrays = {{"cachemix.c:31 ws_pool", per_thread_bytes}};
  PhaseSpec walk;
  walk.name = "walk";
  ArrayUse use;
  use.site = "cachemix.c:31 ws_pool";
  use.weight = 1.0;
  use.pattern = sim::Pattern::kRandom;
  walk.uses.push_back(use);
  spec.phases = {std::move(walk)};
  return spec;
}

std::vector<CacheTrainingInstance> generate_cache_training_set(
    const topology::Machine& machine, const CacheTrainingOptions& options) {
  std::vector<CacheTrainingInstance> out;
  std::uint64_t seed = options.seed;

  const auto l3 = machine.spec().l3.size_bytes;
  struct Setup {
    double ws_fraction_of_l3;  // per-thread working set as a share of L3
    int threads_per_node;
    int nodes;
    bool contended;
  };
  // good: the co-resident working sets still fit (sum <= ~0.9 L3).
  // lcc: the sum overflows the cache 2-6x — per-thread hit rates collapse.
  const Setup setups[] = {
      {0.05, 1, 1, false}, {0.05, 4, 2, false}, {0.10, 2, 4, false},
      {0.10, 4, 1, false}, {0.20, 2, 2, false}, {0.20, 4, 4, false},
      {0.40, 1, 4, false}, {0.40, 2, 1, false},
      {0.40, 6, 2, true},  {0.40, 8, 4, true},  {0.60, 4, 1, true},
      {0.60, 8, 2, true},  {0.80, 4, 4, true},  {0.80, 6, 1, true},
      {1.00, 4, 2, true},  {1.00, 8, 1, true},
  };
  for (int rep = 0; rep < 3; ++rep) {
    for (const Setup& setup : setups) {
      const int total_threads = setup.threads_per_node * setup.nodes;
      const auto per_thread = static_cast<std::uint64_t>(
          setup.ws_fraction_of_l3 * static_cast<double>(l3));
      mem::AddressSpace space(machine);
      const workloads::ProxyBenchmark bench(
          cachemix_spec(per_thread * static_cast<std::uint64_t>(total_threads)));
      sim::EngineConfig engine = options.engine;
      engine.seed = ++seed + static_cast<std::uint64_t>(rep) * 7919;
      const auto built = bench.build(
          space, machine, workloads::RunConfig{total_threads, setup.nodes},
          workloads::PlacementMode::kOriginal, 0);
      const auto run = workloads::execute(machine, space, built, engine);
      core::Profiler profiler(machine);
      const auto profile = profiler.profile(run);

      // One instance per *active* node (all nodes behave alike here, so
      // take node 0 — the training scope equals the detection scope).
      const auto features = extract_node_features(profile, machine);
      CacheTrainingInstance instance;
      instance.config = "ws=" + std::to_string(per_thread >> 10) + "KiB tpn=" +
                        std::to_string(setup.threads_per_node) + " n=" +
                        std::to_string(setup.nodes);
      instance.contended = setup.contended;
      instance.features = features[0];
      out.push_back(std::move(instance));
    }
  }
  return out;
}

ml::Classifier train_cache_classifier(const topology::Machine& machine,
                                      std::uint64_t seed) {
  CacheTrainingOptions options;
  options.seed = seed;
  const auto set = generate_cache_training_set(machine, options);
  ml::Dataset data(std::vector<std::string>(cache_feature_names().begin(),
                                            cache_feature_names().end()));
  for (const auto& inst : set) {
    data.add(inst.features.as_row(),
             inst.contended ? ml::Label::kRmc : ml::Label::kGood,
             inst.config);
  }
  ml::TreeParams params;
  params.max_depth = 2;
  params.min_samples_leaf = 2;
  params.min_samples_split = 4;
  return ml::Classifier::train(data, params);
}

CacheContentionDetector::CacheContentionDetector(
    const topology::Machine& machine, ml::Classifier model,
    std::size_t min_node_samples)
    : machine_(machine), model_(std::move(model)),
      min_node_samples_(min_node_samples) {
  DRBW_CHECK_MSG(model_.feature_names().size() == kNumCacheFeatures,
                 "cache model expects " << kNumCacheFeatures << " features");
}

std::vector<NodeVerdict> CacheContentionDetector::analyze(
    const core::ProfileResult& profile) const {
  std::vector<NodeVerdict> out;
  for (NodeFeatures& f : extract_node_features(profile, machine_)) {
    NodeVerdict verdict;
    verdict.node = f.node;
    verdict.contended = f.node_samples >= min_node_samples_ &&
                        model_.predict(f.as_row()) == ml::Label::kRmc;
    verdict.features = std::move(f);
    out.push_back(std::move(verdict));
  }
  return out;
}

}  // namespace drbw::ext
