// Parameterized property tests: invariants swept over wide parameter grids
// with TEST_P / INSTANTIATE_TEST_SUITE_P.
#include <gtest/gtest.h>

#include <cmath>

#include "drbw/core/profiler.hpp"
#include "drbw/diagnoser/diagnoser.hpp"
#include "drbw/features/selected.hpp"
#include "drbw/features/window.hpp"
#include "drbw/ml/decision_tree.hpp"
#include "drbw/sim/engine.hpp"
#include "drbw/util/rng.hpp"
#include "drbw/util/stats.hpp"

namespace drbw {
namespace {

using mem::AddressSpace;
using mem::PlacementSpec;
using topology::Machine;

const Machine& machine() {
  static const Machine m = Machine::xeon_e5_4650();
  return m;
}

// ---------------------------------------------------------------------- //
// Cache model: the hit profile is a probability distribution for every
// combination of pattern, span, and cache-sharing configuration.

struct CacheCase {
  sim::Pattern pattern;
  std::uint64_t span;
  double l12_share;
  double l3_share;
};

class CacheProfileProperty : public ::testing::TestWithParam<CacheCase> {};

TEST_P(CacheProfileProperty, ProfileIsDistributionWithSaneTraffic) {
  const CacheCase& c = GetParam();
  sim::AccessBurst burst;
  burst.pattern = c.pattern;
  burst.count = 1;
  burst.elem_bytes = 8;
  burst.stride_bytes = 32;
  burst.l12_share = c.l12_share;
  burst.l3_share = c.l3_share;
  const sim::CacheModel model(machine());
  const sim::HitProfile p = model.classify(burst, c.span);
  EXPECT_NEAR(p.sum(), 1.0, 1e-9);
  for (const double f : {p.l1, p.l2, p.l3, p.lfb, p.dram}) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0 + 1e-12);
  }
  EXPECT_GE(p.mlp, 1.0);
  EXPECT_GT(p.prefetch_hide, 0.0);
  EXPECT_LE(p.prefetch_hide, 1.0);
  // DRAM traffic only when DRAM accesses exist, and at most a line each.
  if (p.dram == 0.0) {
    EXPECT_DOUBLE_EQ(p.dram_bytes_per_access, 0.0);
  } else {
    EXPECT_GT(p.dram_bytes_per_access, 0.0);
    EXPECT_LE(p.dram_bytes_per_access, 64.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PatternSpanShareGrid, CacheProfileProperty,
    ::testing::ValuesIn([] {
      std::vector<CacheCase> cases;
      for (const auto pattern :
           {sim::Pattern::kSequential, sim::Pattern::kStrided,
            sim::Pattern::kRandom, sim::Pattern::kPointerChaseConflict}) {
        for (const std::uint64_t span :
             {4096ull, 1ull << 15, 1ull << 18, 1ull << 21, 1ull << 24,
              1ull << 27, 1ull << 31}) {
          for (const double l3 : {1.0, 0.25, 1.0 / 16.0}) {
            cases.push_back(CacheCase{pattern, span, l3 < 1.0 ? 0.5 : 1.0, l3});
          }
        }
      }
      return cases;
    }()));

// ---------------------------------------------------------------------- //
// Cache model: more cache pressure never decreases the DRAM fraction.

class CachePressureProperty
    : public ::testing::TestWithParam<std::tuple<sim::Pattern, std::uint64_t>> {};

TEST_P(CachePressureProperty, DramFractionMonotoneInPressure) {
  const auto [pattern, span] = GetParam();
  sim::AccessBurst burst;
  burst.pattern = pattern;
  burst.count = 1;
  const sim::CacheModel model(machine());
  double prev = -1.0;
  for (const double share : {1.0, 0.5, 0.25, 0.125, 1.0 / 16.0}) {
    burst.l3_share = share;
    burst.l12_share = std::max(0.5, share);
    const double dram = model.classify(burst, span).dram;
    EXPECT_GE(dram, prev - 1e-12) << "share " << share;
    prev = dram;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PressureGrid, CachePressureProperty,
    ::testing::Combine(::testing::Values(sim::Pattern::kSequential,
                                         sim::Pattern::kRandom),
                       ::testing::Values(1ull << 18, 1ull << 22, 1ull << 25)));

// ---------------------------------------------------------------------- //
// Bandwidth model: the multiplier curve is monotone and bounded for any
// reasonable gain constant.

class MultiplierProperty : public ::testing::TestWithParam<double> {};

TEST_P(MultiplierProperty, MonotoneBoundedCurve) {
  sim::BandwidthModelConfig config;
  config.k = GetParam();
  double prev = 0.0;
  for (double u = 0.0; u <= 2.0; u += 0.02) {
    const double m = sim::latency_multiplier(u, config);
    EXPECT_GE(m, 1.0);
    EXPECT_GE(m, prev);
    EXPECT_LE(m, 1.0 + config.k / (1.0 - config.u_max) + 1e-9);
    prev = m;
  }
}

INSTANTIATE_TEST_SUITE_P(GainGrid, MultiplierProperty,
                         ::testing::Values(0.1, 0.5, 0.75, 1.5, 3.0));

// ---------------------------------------------------------------------- //
// Engine: for every standard thread-count, total served accesses equal the
// requested work, samples stay in-range, and channel traffic respects
// capacity.

class EngineConservationProperty : public ::testing::TestWithParam<int> {};

TEST_P(EngineConservationProperty, WorkIsConservedAndBounded) {
  const int threads_per_node = GetParam();
  AddressSpace space(machine());
  const auto obj = space.allocate("prop.c:1 data", 1ull << 29,
                                  PlacementSpec::bind(0));
  std::vector<sim::SimThread> threads;
  sim::Phase phase{"main", {}};
  const std::uint64_t per_thread = 150'000;
  std::uint32_t tid = 0;
  for (int n = 0; n < 4; ++n) {
    for (int t = 0; t < threads_per_node; ++t) {
      threads.push_back(
          {tid++, machine().cpus_of_node(n)[static_cast<std::size_t>(t)]});
      phase.work.push_back(sim::ThreadWork{{sim::seq_read(obj, per_thread)}, 1.0});
    }
  }
  sim::EngineConfig cfg;
  cfg.epoch_cycles = 50'000;
  cfg.seed = 17;
  sim::Engine engine(machine(), space, cfg);
  const auto r = engine.run(threads, {phase});

  EXPECT_EQ(r.total_accesses, per_thread * threads.size());
  const auto& object = space.object(obj);
  for (const auto& s : r.samples) {
    EXPECT_GE(s.address, object.base);
    EXPECT_LT(s.address, object.base + object.size_bytes);
    EXPECT_GT(s.latency_cycles, 0.0f);
  }
  for (int idx = 0; idx < machine().num_channels(); ++idx) {
    const double cap = machine().channel_capacity(machine().channel_at(idx));
    EXPECT_LE(r.channels[static_cast<std::size_t>(idx)].bytes,
              cap * static_cast<double>(r.total_cycles) * 1.05);
    EXPECT_GE(r.channels[static_cast<std::size_t>(idx)].peak_utilization, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadGrid, EngineConservationProperty,
                         ::testing::Values(1, 2, 4, 8, 16));

// ---------------------------------------------------------------------- //
// Sampler: over long streams the empirical rate matches 1/period for any
// period, and batching never changes the outcome.

class SamplerRateProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SamplerRateProperty, RateMatchesPeriod) {
  const std::uint64_t period = GetParam();
  pebs::PeriodSampler whole(period, 3), batched(period, 3);
  const std::uint64_t total = period * 5000;
  const std::uint64_t n_whole = whole.count_only(total);
  std::uint64_t n_batched = 0;
  std::uint64_t left = total;
  Rng rng(5);
  while (left > 0) {
    const std::uint64_t chunk = std::min<std::uint64_t>(left, rng.bounded(3 * period) + 1);
    n_batched += batched.count_only(chunk);
    left -= chunk;
  }
  EXPECT_EQ(n_whole, n_batched);
  EXPECT_NEAR(static_cast<double>(n_whole), 5000.0, 1.0);
}

INSTANTIATE_TEST_SUITE_P(PeriodGrid, SamplerRateProperty,
                         ::testing::Values(1, 7, 100, 2000, 65537));

// ---------------------------------------------------------------------- //
// Diagnoser: CF values always form a probability distribution, whatever
// the mix of objects, channels, and untracked samples.

class CfDistributionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CfDistributionProperty, CfSumsToOne) {
  Rng rng(GetParam());
  AddressSpace space(machine());
  std::vector<mem::ObjectId> objects;
  const int num_objects = 1 + static_cast<int>(rng.bounded(6));
  for (int i = 0; i < num_objects; ++i) {
    objects.push_back(space.allocate(
        "prop.c:" + std::to_string(10 + i) + " obj", 1 << 16,
        PlacementSpec::bind(static_cast<int>(rng.bounded(4)))));
  }
  const auto st = space.allocate_static("prop.c:99 static", 1 << 16,
                                        PlacementSpec::bind(0));
  std::vector<pebs::MemorySample> samples;
  const int n = 50 + static_cast<int>(rng.bounded(200));
  for (int i = 0; i < n; ++i) {
    pebs::MemorySample s;
    const bool static_hit = rng.bernoulli(0.2);
    const auto id = static_hit
                        ? st
                        : objects[rng.bounded(objects.size())];
    s.address = space.object(id).base + rng.bounded(1 << 16);
    s.cpu = static_cast<topology::CpuId>(rng.bounded(64));
    s.level = pebs::MemLevel::kRemoteDram;
    s.latency_cycles = static_cast<float>(rng.uniform(300.0, 2000.0));
    samples.push_back(s);
  }
  core::AddressSpaceLocator locator(space);
  core::Profiler profiler(machine(), locator);
  const auto profile = profiler.profile(space.drain_events(), samples);

  std::vector<topology::ChannelId> contended;
  for (int c = 0; c < machine().num_channels(); ++c) {
    contended.push_back(machine().channel_at(c));
  }
  const auto d = diagnoser::diagnose(profile, contended);
  double sum = d.untracked_cf;
  for (const auto& c : d.ranking) {
    sum += c.cf;
    EXPECT_GT(c.samples, 0u);
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_EQ(d.total_samples, static_cast<std::uint64_t>(n));
  // Ranking is sorted by CF descending.
  for (std::size_t i = 1; i < d.ranking.size(); ++i) {
    EXPECT_GE(d.ranking[i - 1].cf, d.ranking[i].cf);
  }
}

INSTANTIATE_TEST_SUITE_P(SeedGrid, CfDistributionProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------- //
// Classifier: training is invariant to row order, and JSON round-trips
// preserve every prediction, across random datasets.

class ClassifierProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClassifierProperty, OrderInvarianceAndRoundTrip) {
  Rng rng(GetParam());
  ml::Dataset forward, backward;
  std::vector<std::pair<std::vector<double>, ml::Label>> rows;
  for (int i = 0; i < 80; ++i) {
    std::vector<double> row{rng.uniform(), rng.uniform(), rng.uniform()};
    const ml::Label label =
        row[0] + 0.3 * row[1] > 0.8 ? ml::Label::kRmc : ml::Label::kGood;
    rows.emplace_back(std::move(row), label);
  }
  for (const auto& [row, label] : rows) forward.add(row, label);
  for (auto it = rows.rbegin(); it != rows.rend(); ++it) {
    backward.add(it->first, it->second);
  }
  const ml::Classifier a = ml::Classifier::train(forward);
  const ml::Classifier b = ml::Classifier::train(backward);
  const ml::Classifier c = ml::Classifier::from_json(a.to_json());
  for (int i = 0; i < 300; ++i) {
    const std::vector<double> probe{rng.uniform(), rng.uniform(), rng.uniform()};
    EXPECT_EQ(a.predict(probe), b.predict(probe));
    EXPECT_EQ(a.predict(probe), c.predict(probe));
  }
}

INSTANTIATE_TEST_SUITE_P(SeedGrid, ClassifierProperty,
                         ::testing::Values(11, 22, 33, 44, 55));

// ---------------------------------------------------------------------- //
// Placement: for every policy, every page of an allocation resolves to a
// node inside the machine, and resolution is stable on re-query.

class PlacementProperty
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(PlacementProperty, ResolutionTotalAndStable) {
  const auto [policy_index, bytes] = GetParam();
  const PlacementSpec specs[] = {
      PlacementSpec::bind(2), PlacementSpec::first_touch(),
      PlacementSpec::interleave(), PlacementSpec::colocate({0, 1, 2, 3}),
      PlacementSpec::replicate()};
  AddressSpace space(machine());
  const auto id = space.allocate("prop.c:7 x", bytes,
                                 specs[static_cast<std::size_t>(policy_index)]);
  const auto& obj = space.object(id);
  for (std::uint64_t off = 0; off < obj.size_bytes; off += 4096) {
    const auto home1 = space.resolve_home(obj.base + off, 1);
    const auto home2 = space.resolve_home(obj.base + off, 3);
    EXPECT_GE(home1, 0);
    EXPECT_LT(home1, machine().num_nodes());
    if (obj.placement.policy != mem::Placement::kReplicate) {
      EXPECT_EQ(home1, home2);  // sticky once resolved
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PolicySizeGrid, PlacementProperty,
    ::testing::Combine(::testing::Range(0, 5),
                       ::testing::Values(100ull, 4096ull, 10 * 4096ull,
                                         1ull << 20)));

// ---------------------------------------------------------------------- //
// ChannelWindow: over random add/evict sequences on a simulator trace, the
// incremental features equal (==) those of a fresh window holding the same
// samples; against the Welford extract_channels() on a profile of those
// samples the counts are identical, the means agree to 1e-12 relative, and
// the committed model's verdicts match.

class ChannelWindowProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChannelWindowProperty, IncrementalMatchesFreshAndProfiled) {
  AddressSpace space(machine());
  const auto spread = space.allocate("prop.c:20 spread", 1ull << 26,
                                     PlacementSpec::interleave());
  const auto master = space.allocate("prop.c:21 master", 1ull << 26,
                                     PlacementSpec::bind(0));
  std::vector<sim::SimThread> threads;
  sim::Phase phase{"main", {}};
  std::uint32_t tid = 0;
  for (int n = 0; n < 4; ++n) {
    for (int t = 0; t < 4; ++t) {
      threads.push_back(
          {tid++, machine().cpus_of_node(n)[static_cast<std::size_t>(t)]});
      phase.work.push_back(sim::ThreadWork{
          {sim::random_read(spread, 150'000), sim::seq_read(master, 150'000)},
          1.0});
    }
  }
  sim::EngineConfig cfg;
  cfg.epoch_cycles = 50'000;
  cfg.seed = GetParam();
  sim::Engine engine(machine(), space, cfg);
  const auto run = engine.run(threads, {phase});
  ASSERT_GT(run.samples.size(), 500u);

  // Every sampled page was homed during the run, so the locator now answers
  // statelessly — evict()'s precondition.
  core::AddressSpaceLocator locator(space);
  const core::Profiler profiler(machine(), locator);
  const ml::Classifier model =
      ml::Classifier::load(std::string(DRBW_SOURCE_ROOT) + "/drbw_model.json");
  features::ChannelWindow window(machine(), locator);
  std::vector<pebs::MemorySample> held;
  Rng rng(GetParam());
  std::size_t checks = 0;
  for (int step = 0; step < 3000; ++step) {
    if (held.empty() || rng.bernoulli(0.6)) {
      const auto& s = run.samples[rng.bounded(run.samples.size())];
      window.add(s);
      held.push_back(s);
    } else {
      const std::size_t at = rng.bounded(held.size());
      window.evict(held[at]);
      held[at] = held.back();
      held.pop_back();
    }
    if (step % 97 != 0) continue;
    ++checks;
    features::ChannelWindow fresh(machine(), locator);
    for (const auto& s : held) fresh.add(s);
    const auto incremental = window.channels();
    const auto rebuilt = fresh.channels();
    const auto profiled = features::extract_channels(
        profiler.profile(run.alloc_events, held), machine());
    ASSERT_EQ(incremental.size(), profiled.size());
    ASSERT_EQ(rebuilt.size(), profiled.size());
    for (std::size_t c = 0; c < incremental.size(); ++c) {
      const auto& inc = incremental[c];
      const auto& ref = profiled[c];
      EXPECT_EQ(inc.channel, rebuilt[c].channel);
      EXPECT_EQ(inc.channel, ref.channel);
      EXPECT_EQ(inc.features.values, rebuilt[c].features.values);
      EXPECT_EQ(inc.features.scope_samples, ref.features.scope_samples);
      for (int f = 0; f < features::kNumSelected; ++f) {
        const auto i = static_cast<std::size_t>(f);
        const bool is_mean = f == 6 || f == 8 || f == 10 || f == 12;
        if (is_mean) {
          EXPECT_NEAR(inc.features.values[i], ref.features.values[i],
                      1e-12 * std::abs(ref.features.values[i]))
              << "feature " << f << " step " << step;
        } else {
          EXPECT_EQ(inc.features.values[i], ref.features.values[i])
              << "feature " << f << " step " << step;
        }
      }
      EXPECT_EQ(model.predict(inc.features.as_row()),
                model.predict(ref.features.as_row()));
    }
  }
  EXPECT_GT(checks, 20u);
  // Evicting everything returns the window to the empty state exactly.
  for (const auto& s : held) window.evict(s);
  for (const auto& cf : window.channels()) {
    for (const double v : cf.features.values) EXPECT_EQ(v, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(SeedGrid, ChannelWindowProperty,
                         ::testing::Values(3, 17, 2017));

}  // namespace
}  // namespace drbw
