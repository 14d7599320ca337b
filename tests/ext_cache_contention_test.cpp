// Tests for the §IX extension: shared-cache contention detection.
#include <gtest/gtest.h>

#include "drbw/ext/cache_contention.hpp"

namespace drbw::ext {
namespace {

using topology::Machine;

class CacheContentionTest : public ::testing::Test {
 protected:
  static const Machine& machine() {
    static const Machine m = Machine::xeon_e5_4650();
    return m;
  }
  static const ml::Classifier& model() {
    static const ml::Classifier m = train_cache_classifier(machine(), 909);
    return m;
  }

  /// Runs cachemix with `tpn` threads per node on `nodes` nodes, each with
  /// a working set of `ws_fraction` of the L3, and returns node verdicts.
  static std::vector<NodeVerdict> run_case(double ws_fraction, int tpn,
                                           int nodes, std::uint64_t seed) {
    const auto per_thread = static_cast<std::uint64_t>(
        ws_fraction * static_cast<double>(machine().spec().l3.size_bytes));
    const int threads = tpn * nodes;
    mem::AddressSpace space(machine());
    const workloads::ProxyBenchmark bench(
        cachemix_spec(per_thread * static_cast<std::uint64_t>(threads)));
    sim::EngineConfig engine;
    engine.seed = seed;
    const auto built =
        bench.build(space, machine(), workloads::RunConfig{threads, nodes},
                    workloads::PlacementMode::kOriginal, 0);
    const auto run = workloads::execute(machine(), space, built, engine);
    core::Profiler profiler(machine());
    const auto profile = profiler.profile(run);
    const CacheContentionDetector detector(machine(), model());
    return detector.analyze(profile);
  }
};

TEST_F(CacheContentionTest, TrainingSetIsBalancedAndLabelled) {
  const auto set = generate_cache_training_set(machine());
  EXPECT_EQ(set.size(), 48u);  // 16 setups x 3 repetitions
  int contended = 0;
  for (const auto& inst : set) contended += inst.contended ? 1 : 0;
  EXPECT_EQ(contended, 24);
}

TEST_F(CacheContentionTest, FeatureExtractionPerNode) {
  const auto set = generate_cache_training_set(machine());
  for (const auto& inst : set) {
    EXPECT_GT(inst.features.node_samples, 0u);
    EXPECT_DOUBLE_EQ(inst.features.values[5],
                     static_cast<double>(inst.features.node_samples));
    EXPECT_GE(inst.features.values[2], 0.0);
    EXPECT_LE(inst.features.values[2], 1.0);
  }
}

TEST_F(CacheContentionTest, DetectsThrashingCoRunners) {
  // Eight threads per node, each walking 60% of the L3: 4.8x overflow.
  const auto verdicts = run_case(0.6, 8, 2, 77);
  EXPECT_TRUE(verdicts[0].contended);
  EXPECT_TRUE(verdicts[1].contended);
  // Idle nodes are never flagged (no samples).
  EXPECT_FALSE(verdicts[2].contended);
  EXPECT_FALSE(verdicts[3].contended);
}

TEST_F(CacheContentionTest, CleanCoRunnersStayGood) {
  // Four threads per node, each 10% of the L3: everything fits.
  for (const auto& v : run_case(0.1, 4, 4, 88)) {
    EXPECT_FALSE(v.contended) << "node " << v.node;
  }
}

TEST_F(CacheContentionTest, HeldOutSweepIsAccurate) {
  // Configurations not in the training grid.
  struct Case {
    double ws;
    int tpn;
    bool expect_contended;
  };
  const Case cases[] = {
      {0.08, 3, false}, {0.15, 5, false}, {0.70, 7, true}, {0.90, 5, true},
  };
  int correct = 0;
  std::uint64_t seed = 500;
  for (const Case& c : cases) {
    const auto verdicts = run_case(c.ws, c.tpn, 2, ++seed);
    correct += verdicts[0].contended == c.expect_contended ? 1 : 0;
  }
  EXPECT_GE(correct, 3);  // >= 75% on held-out configurations
}

TEST_F(CacheContentionTest, RemoteBandwidthContentionIsNotCacheContention) {
  // The classic DR-BW scenario — node-0-bound remote streaming with small
  // per-thread working sets — must NOT be misread as cache contention on
  // the *remote* nodes (their accesses miss because the data is far away,
  // not because the L3 thrashes; they surface as remote-DRAM, which this
  // detector ignores).
  mem::AddressSpace space(machine());
  const auto obj = space.allocate("x.c:1 hot", 1ull << 30,
                                  mem::PlacementSpec::bind(0));
  std::vector<sim::SimThread> threads;
  sim::Phase phase{"main", {}};
  std::uint32_t tid = 0;
  for (int n = 1; n < 4; ++n) {
    for (int t = 0; t < 4; ++t) {
      threads.push_back(
          {tid++, machine().cpus_of_node(n)[static_cast<std::size_t>(t)]});
      phase.work.push_back(sim::ThreadWork{{sim::seq_read(obj, 400'000)}, 1.0});
    }
  }
  sim::EngineConfig engine;
  engine.seed = 3;
  sim::Engine eng(machine(), space, engine);
  const auto run = eng.run(threads, {phase});
  core::Profiler profiler(machine());
  const CacheContentionDetector detector(machine(), model());
  for (const auto& v : detector.analyze(profiler.profile(run))) {
    EXPECT_FALSE(v.contended) << "node " << v.node;
  }
}

TEST_F(CacheContentionTest, DetectorValidatesModelArity) {
  ml::Dataset d({"one", "two"});
  d.add({0.0, 0.0}, ml::Label::kGood);
  d.add({1.0, 1.0}, ml::Label::kRmc);
  EXPECT_THROW(CacheContentionDetector(machine(), ml::Classifier::train(d)),
               Error);
}

TEST_F(CacheContentionTest, FeatureNamesStable) {
  EXPECT_EQ(cache_feature_names().size(),
            static_cast<std::size_t>(kNumCacheFeatures));
  EXPECT_EQ(cache_feature_names()[2], "Local dram share of on-socket L3 traffic");
}

}  // namespace
}  // namespace drbw::ext
