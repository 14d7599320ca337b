// Parameterized property tests: invariants swept over wide parameter grids
// with TEST_P / INSTANTIATE_TEST_SUITE_P.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <utility>

#include "drbw/core/profiler.hpp"
#include "drbw/drbw.hpp"
#include "drbw/diagnoser/advice.hpp"
#include "drbw/diagnoser/diagnoser.hpp"
#include "drbw/features/selected.hpp"
#include "drbw/features/window.hpp"
#include "drbw/ml/decision_tree.hpp"
#include "drbw/pebs/session.hpp"
#include "drbw/pebs/trace_io.hpp"
#include "drbw/sim/engine.hpp"
#include "drbw/util/csv.hpp"
#include "drbw/util/artifact.hpp"
#include "drbw/util/strings.hpp"
#include "drbw/util/rng.hpp"

namespace drbw {
namespace {

using mem::AddressSpace;
using mem::PlacementSpec;
using topology::Machine;

const Machine& machine() {
  static const Machine m = Machine::xeon_e5_4650();
  return m;
}

/// Stamps `s` with the home node the sampler would have given it: the
/// page's node in `space` as the sample's cpu sees it.
void stamp_home(pebs::MemorySample& s, AddressSpace& space) {
  s.home = static_cast<std::uint8_t>(
      space.resolve_home(s.address, machine().node_of_cpu(s.cpu)));
}

/// The samples `profile` files under channel index `channel`, in stream
/// order, as core::for_each_in_channel yields them.
std::vector<core::AttributedSample> samples_in(
    const core::ProfileResult& profile, std::size_t channel) {
  std::vector<core::AttributedSample> out;
  core::for_each_in_channel(profile, channel,
                            [&](const core::AttributedSample& s) {
                              out.push_back(s);
                            });
  return out;
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
    stamp_home(s, space);
    samples.push_back(s);
  }
  const core::Profiler profiler(machine());
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
// samples, and to those of extract_channels() on a profile of those
// samples — the exactness bound makes every sum order-free — so the
// committed model's verdicts match too.

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

  // Each sample carries its home node, so the rebuilt window and the
  // profile file each held sample under the nodes the incremental window
  // recorded.
  const core::Profiler profiler(machine());
  const ml::Classifier model =
      ml::Classifier::load(std::string(DRBW_SOURCE_ROOT) + "/drbw_model.json");
  features::ChannelWindow window(machine());
  std::vector<pebs::MemorySample> held;
  // The records add() returned, index-aligned with `held`: evict() takes
  // them back as they are.
  std::vector<features::WindowSample> held_records;
  Rng rng(GetParam());
  std::size_t checks = 0;
  for (int step = 0; step < 3000; ++step) {
    if (held.empty() || rng.bernoulli(0.6)) {
      const auto& s = run.samples[rng.bounded(run.samples.size())];
      held_records.push_back(window.add(s));
      held.push_back(s);
    } else {
      const std::size_t at = rng.bounded(held.size());
      window.evict(held_records[at]);
      held[at] = held.back();
      held.pop_back();
      held_records[at] = held_records.back();
      held_records.pop_back();
    }
    if (step % 97 != 0) continue;
    ++checks;
    features::ChannelWindow fresh(machine());
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
        EXPECT_EQ(inc.features.values[i], ref.features.values[i])
            << "feature " << f << " step " << step;
      }
      EXPECT_EQ(model.predict(inc.features.as_row()),
                model.predict(ref.features.as_row()));
    }
  }
  EXPECT_GT(checks, 20u);
  // Evicting everything returns the window to the empty state exactly.
  for (const auto& r : held_records) window.evict(r);
  for (const auto& cf : window.channels()) {
    for (const double v : cf.features.values) EXPECT_EQ(v, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(SeedGrid, ChannelWindowProperty,
                         ::testing::Values(3, 17, 2017));

// ---------------------------------------------------------------------- //
// Cycle windows: DrBw::analyze_window over bucket_by_cycle's ordinal ranges
// equals, window by window, a reference that copies every window's samples
// into a vector of its own (the bucketer the ordinal ranges replaced) —
// the grid, the sample counts, every feature value (==) and every verdict,
// on random traces with unsorted cycles and 1 to 300 windows.

/// The copying reference bucketer: one sample vector per window, stream
/// order inside each, samples past the last window clamped into it.
std::vector<std::vector<pebs::MemorySample>> copy_buckets(
    std::span<const pebs::MemorySample> samples, std::uint64_t width,
    std::size_t count) {
  std::vector<std::vector<pebs::MemorySample>> buckets(count);
  for (const pebs::MemorySample& s : samples) {
    buckets[std::min<std::uint64_t>(s.cycle / width, count - 1)].push_back(s);
  }
  return buckets;
}

class CycleWindowOracleProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CycleWindowOracleProperty, OrdinalWindowsMatchCopyingReference) {
  Rng rng(GetParam());
  pebs::Trace trace;
  const std::uint64_t cycle_bound = 1 + rng.bounded(2'000'000);
  const std::size_t n = 500 + rng.bounded(2500);
  std::vector<pebs::MemorySample> samples;
  for (std::size_t i = 0; i < n; ++i) {
    pebs::MemorySample s;
    s.address = rng.bounded(1ull << 30) & ~63ull;
    s.cpu = static_cast<topology::CpuId>(
        rng.bounded(static_cast<std::uint64_t>(machine().num_hw_threads())));
    s.tid = static_cast<std::uint32_t>(rng.bounded(64));
    s.level = static_cast<pebs::MemLevel>(rng.bounded(6));
    if (rng.bernoulli(0.5)) s.level = pebs::MemLevel::kRemoteDram;
    s.latency_cycles = static_cast<float>(rng.bounded(2500));
    s.cycle = rng.bounded(cycle_bound);  // unsorted
    s.home = static_cast<std::uint8_t>(rng.bounded(
        static_cast<std::uint64_t>(machine().num_nodes())));
    samples.push_back(s);
  }
  trace.samples = std::move(samples);
  std::uint64_t span = 0;
  for (const pebs::MemorySample& s : trace.samples) {
    span = std::max(span, s.cycle);
  }
  const ml::Classifier model =
      ml::Classifier::load(std::string(DRBW_SOURCE_ROOT) + "/drbw_model.json");
  std::size_t rmc_windows = 0;
  for (const features::SparseGuard guard :
       {features::SparseGuard{0, 0}, features::kWindowGuard}) {
    const DrBw tool(machine(), model, {guard});
    for (std::size_t count = 1; count <= 300; ++count) {
      const std::uint64_t width = span / count + 1;
      const auto reference = copy_buckets(trace.samples, width, count);
      const pebs::CycleWindows grid =
          pebs::split_cycle_windows(trace.samples, count);
      ASSERT_EQ(grid.count(), count);
      ASSERT_EQ(grid.width, width);
      ASSERT_EQ(grid.ordinals.size(), trace.samples.size());
      for (std::size_t w = 0; w < count; ++w) {
        const WindowVerdict got =
            tool.analyze_window(trace.samples, grid, w);
        ASSERT_EQ(got.start_cycle, std::min(w * width, span + 1)) << count;
        ASSERT_EQ(got.end_cycle, std::min((w + 1) * width, span + 1)) << count;
        ASSERT_EQ(got.samples, reference[w].size()) << count << " " << w;
        // The copy's samples, in its (stream) order.
        const std::span<const std::uint32_t> ordinals = grid.window(w);
        ASSERT_TRUE(std::is_sorted(ordinals.begin(), ordinals.end()));
        for (std::size_t k = 0; k < ordinals.size(); ++k) {
          const pebs::MemorySample& sample = trace.samples[ordinals[k]];
          ASSERT_EQ(sample.cycle, reference[w][k].cycle);
          ASSERT_EQ(sample.address, reference[w][k].address);
        }
        features::ChannelWindow window(machine());
        for (const pebs::MemorySample& s : reference[w]) window.add(s);
        std::vector<topology::ChannelId> contended;
        std::size_t c = 0;
        for (const features::ChannelFeatures& cf : window.channels()) {
          if (guard.sparse(cf.features)) continue;
          ASSERT_LT(c, got.channels.size());
          const WindowChannel& mine = got.channels[c++];
          ASSERT_EQ(mine.channel, cf.channel);
          ASSERT_EQ(mine.features.scope_samples, cf.features.scope_samples);
          for (std::size_t f = 0; f < cf.features.values.size(); ++f) {
            ASSERT_EQ(mine.features.values[f], cf.features.values[f])
                << "feature " << f << ", window " << w << " of " << count;
          }
          const ml::Explanation want =
              model.predict_explained(cf.features.as_row());
          ASSERT_EQ(want.label, model.predict(cf.features.as_row()));
          ASSERT_EQ(mine.explanation.label, want.label);
          ASSERT_EQ(mine.explanation.confidence, want.confidence);
          ASSERT_EQ(mine.explanation.path_signature(), want.path_signature());
          if (want.label == ml::Label::kRmc) contended.push_back(cf.channel);
        }
        ASSERT_EQ(c, got.channels.size());
        ASSERT_EQ(got.contended, contended);
        ASSERT_EQ(got.rmc, !contended.empty());
        rmc_windows += got.rmc ? 1 : 0;
      }
    }
  }
  // The traces are hot enough that some windows contend, so the verdict
  // comparison is not vacuous.
  EXPECT_GT(rmc_windows, 0u);
}

INSTANTIATE_TEST_SUITE_P(SeedGrid, CycleWindowOracleProperty,
                         ::testing::Values(5, 23, 2017));

// ---------------------------------------------------------------------- //
// Profiler: the profile's per-channel counts and its channel walk
// (core::for_each_in_channel over the borrowed vector) yield, per channel
// and in order, exactly the attributed samples of a reference profile built
// here with one AttributedSample copy per sample.

class IndexProfileProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IndexProfileProperty, ViewsMatchReferenceCopyProfile) {
  Rng rng(GetParam());
  AddressSpace space(machine());
  const PlacementSpec placements[] = {
      PlacementSpec::bind(static_cast<int>(rng.bounded(4))),
      PlacementSpec::interleave(), PlacementSpec::first_touch(),
      PlacementSpec::replicate()};
  std::vector<mem::ObjectId> objects;
  for (int i = 0; i < 6; ++i) {
    objects.push_back(space.allocate("index.c:" + std::to_string(i) + " obj",
                                     1 << 20, placements[i % 4]));
  }
  // Static data is not intercepted, so its samples stay untracked.
  objects.push_back(space.allocate_static("index.c:99 static", 1 << 16,
                                          PlacementSpec::bind(1)));
  const std::vector<mem::AllocationEvent> events = space.drain_events();

  std::vector<pebs::MemorySample> samples;
  const int n = 500 + static_cast<int>(rng.bounded(4000));
  for (int i = 0; i < n; ++i) {
    pebs::MemorySample s;
    const mem::ObjectId id = objects[rng.bounded(objects.size())];
    s.address = space.object(id).base + rng.bounded(1 << 16);
    s.cycle = rng.next();
    s.cpu = static_cast<topology::CpuId>(
        rng.bounded(static_cast<std::uint64_t>(machine().num_hw_threads())));
    s.tid = static_cast<std::uint32_t>(rng.next());
    s.latency_cycles = static_cast<float>(rng.uniform(4.0, 3000.0));
    s.level = static_cast<pebs::MemLevel>(rng.bounded(6));
    s.is_write = rng.bernoulli(0.3);
    stamp_home(s, space);
    samples.push_back(s);
  }

  // Reference: one AttributedSample copy per sample, filed by channel.
  core::HeapTracker tracker;
  tracker.on_events(events);
  std::vector<std::vector<core::AttributedSample>> want(
      static_cast<std::size_t>(machine().num_channels()));
  for (const pebs::MemorySample& s : samples) {
    core::AttributedSample a;
    a.sample = s;
    a.src_node = machine().node_of_cpu(s.cpu);
    a.home_node = space.resolve_home(s.address, a.src_node);
    a.object = tracker.object_of(s.address);
    want[static_cast<std::size_t>(machine().channel_index(
             topology::ChannelId{a.src_node, a.home_node}))]
        .push_back(a);
  }

  const core::ProfileResult profile =
      core::Profiler(machine()).profile(events, samples);
  ASSERT_EQ(profile.channels.size(), want.size());
  EXPECT_EQ(profile.total_samples, samples.size());
  std::uint64_t attributed = 0;
  for (std::size_t c = 0; c < want.size(); ++c) {
    const core::ChannelProfile& channel = profile.channels[c];
    EXPECT_EQ(channel.channel, machine().channel_at(static_cast<int>(c)));
    EXPECT_EQ(channel.samples, want[c].size());
    const std::vector<core::AttributedSample> walked = samples_in(profile, c);
    ASSERT_EQ(walked.size(), want[c].size());
    for (std::size_t i = 0; i < walked.size(); ++i) {
      const core::AttributedSample& got = walked[i];
      const core::AttributedSample& ref = want[c][i];
      EXPECT_EQ(got.sample.address, ref.sample.address);
      EXPECT_EQ(got.sample.cycle, ref.sample.cycle);
      EXPECT_EQ(got.sample.cpu, ref.sample.cpu);
      EXPECT_EQ(got.sample.tid, ref.sample.tid);
      std::uint32_t got_bits = 0;
      std::uint32_t ref_bits = 0;
      std::memcpy(&got_bits, &got.sample.latency_cycles, sizeof got_bits);
      std::memcpy(&ref_bits, &ref.sample.latency_cycles, sizeof ref_bits);
      EXPECT_EQ(got_bits, ref_bits);
      EXPECT_EQ(got.sample.level, ref.sample.level);
      EXPECT_EQ(got.sample.is_write, ref.sample.is_write);
      EXPECT_EQ(got.src_node, ref.src_node);
      EXPECT_EQ(got.home_node, ref.home_node);
      EXPECT_EQ(got.object, ref.object);
      attributed += ref.object != core::kUnknownObject;
    }
  }
  EXPECT_EQ(profile.attributed_samples, attributed);
  // Both tracked and untracked samples occur.
  EXPECT_GT(attributed, 0u);
  EXPECT_LT(attributed, samples.size());

  // A copied profile borrows the same samples and walks them the same way.
  const core::ProfileResult copy = profile;
  for (std::size_t c = 0; c < want.size(); ++c) {
    const std::vector<core::AttributedSample> walked = samples_in(copy, c);
    ASSERT_EQ(walked.size(), want[c].size());
    for (std::size_t i = 0; i < walked.size(); ++i) {
      EXPECT_EQ(walked[i].sample.cycle, want[c][i].sample.cycle);
      EXPECT_EQ(walked[i].object, want[c][i].object);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SeedGrid, IndexProfileProperty,
                         ::testing::Values(1, 7, 42, 2017));

// ---------------------------------------------------------------------- //
// Profiler: the read pass counts each channel's samples, and the channel
// walk finds each sample exactly where a per-channel push_back reference
// built here files it, in the same order and with the same object, over
// homes spread on every node, freed ranges, untracked addresses and an
// empty stream; a copy of the profile keeps walking after the original is
// gone.

namespace counting_sort {

/// Per channel, (sample index, object) in the order a push_back profile
/// files them.
using Reference = std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>;

Reference push_back_reference(const std::vector<mem::AllocationEvent>& events,
                              const std::vector<pebs::MemorySample>& samples,
                              std::uint64_t* attributed) {
  core::HeapTracker tracker;
  tracker.on_events(events);
  Reference want(static_cast<std::size_t>(machine().num_channels()));
  *attributed = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const topology::NodeId src = machine().node_of_cpu(samples[i].cpu);
    const topology::NodeId home = samples[i].home;
    const std::uint32_t object = tracker.object_of(samples[i].address);
    *attributed += object != core::kUnknownObject;
    want[static_cast<std::size_t>(
             machine().channel_index(topology::ChannelId{src, home}))]
        .emplace_back(static_cast<std::uint32_t>(i), object);
  }
  return want;
}

/// Asserts `profile` files every sample as `want` does; samples carry their
/// index in `cycle`, so a walked sample names its position.
void expect_matches(const core::ProfileResult& profile, const Reference& want,
                    const std::vector<pebs::MemorySample>& samples) {
  ASSERT_EQ(profile.channels.size(), want.size());
  EXPECT_EQ(profile.total_samples, samples.size());
  for (std::size_t c = 0; c < want.size(); ++c) {
    const core::ChannelProfile& channel = profile.channels[c];
    EXPECT_EQ(channel.channel, machine().channel_at(static_cast<int>(c)));
    EXPECT_EQ(channel.samples, want[c].size()) << "channel " << c;
    const std::vector<core::AttributedSample> walked = samples_in(profile, c);
    ASSERT_EQ(walked.size(), want[c].size()) << "channel " << c;
    for (std::size_t k = 0; k < walked.size(); ++k) {
      const core::AttributedSample& got = walked[k];
      const auto [index, object] = want[c][k];
      EXPECT_EQ(got.sample.cycle, samples[index].cycle);
      EXPECT_EQ(got.sample.address, samples[index].address);
      EXPECT_EQ(got.object, object);
      EXPECT_EQ(got.src_node, channel.channel.src);
      EXPECT_EQ(got.home_node, channel.channel.dst);
    }
  }
}

pebs::MemorySample sample_at(mem::Addr address, std::uint64_t index, Rng& rng) {
  pebs::MemorySample s;
  s.address = address;
  s.cycle = index;
  s.cpu = static_cast<topology::CpuId>(
      rng.bounded(static_cast<std::uint64_t>(machine().num_hw_threads())));
  s.level = pebs::MemLevel::kRemoteDram;
  s.latency_cycles = 300.0f;
  return s;
}

}  // namespace counting_sort

class CountingSortProfileProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CountingSortProfileProperty, SimulatedHomesMatchPushBackReference) {
  Rng rng(GetParam());
  AddressSpace space(machine());
  const PlacementSpec placements[] = {PlacementSpec::interleave(),
                                      PlacementSpec::first_touch(),
                                      PlacementSpec::bind(3)};
  std::vector<mem::ObjectId> live;
  std::vector<mem::ObjectId> freed;
  for (int i = 0; i < 9; ++i) {
    const mem::ObjectId id = space.allocate(
        "sort.c:" + std::to_string(i % 5) + " obj", 1 << 20, placements[i % 3]);
    (i % 4 == 3 ? freed : live).push_back(id);
  }
  for (const mem::ObjectId id : freed) space.free(id);
  // Static data is mapped but never intercepted: untracked addresses.
  live.push_back(space.allocate_static("sort.c:99 static", 1 << 16,
                                       PlacementSpec::bind(1)));
  const std::vector<mem::AllocationEvent> events = space.drain_events();

  // Runs of samples on one object, as a real stream has, so the last-hit
  // check both answers and misses.
  std::vector<pebs::MemorySample> samples;
  const auto n = 2000 + rng.bounded(3000);
  while (samples.size() < n) {
    const mem::ObjectId id = live[rng.bounded(live.size())];
    for (std::uint64_t run = 1 + rng.bounded(8); run > 0; --run) {
      samples.push_back(counting_sort::sample_at(
          space.object(id).base + rng.bounded(1 << 16), samples.size(), rng));
      stamp_home(samples.back(), space);
    }
  }

  std::optional<core::ProfileResult> original =
      core::Profiler(machine()).profile(events, samples);
  std::uint64_t attributed = 0;
  const counting_sort::Reference want =
      counting_sort::push_back_reference(events, samples, &attributed);
  counting_sort::expect_matches(*original, want, samples);
  EXPECT_EQ(original->attributed_samples, attributed);
  EXPECT_GT(attributed, 0u);
  EXPECT_LT(attributed, samples.size());

  // Homes land on every node, on remote and local channels alike.
  std::set<topology::NodeId> homes;
  for (const core::ChannelProfile& channel : original->channels) {
    if (channel.samples > 0) homes.insert(channel.channel.dst);
  }
  EXPECT_EQ(homes.size(), static_cast<std::size_t>(machine().num_nodes()));

  // A copy outlives the original.
  const core::ProfileResult copy = *original;
  original.reset();
  counting_sort::expect_matches(copy, want, samples);
  EXPECT_EQ(copy.attributed_samples, attributed);
}

TEST_P(CountingSortProfileProperty, OverlappingAndFreedRangesMatchReference) {
  // A raw event stream, as a replayed trace carries: ranges that nest, ranges
  // freed and reallocated, and addresses in the gaps between them.
  Rng rng(GetParam());
  std::vector<mem::AllocationEvent> events;
  std::vector<mem::Addr> bases;
  for (int i = 0; i < 40; ++i) {
    const mem::Addr base = 0x10000 + rng.bounded(1 << 20);
    if (std::find(bases.begin(), bases.end(), base) != bases.end()) continue;
    events.push_back(mem::AllocationEvent{
        mem::AllocationEvent::Kind::kAlloc,
        {"raw.c:" + std::to_string(i % 7) + " r"}, base, 1 + rng.bounded(1 << 16)});
    bases.push_back(base);
    if (rng.bernoulli(0.3)) {
      const std::size_t k = rng.bounded(bases.size());
      events.push_back(mem::AllocationEvent{mem::AllocationEvent::Kind::kFree,
                                            {""}, bases[k], 0});
      bases.erase(bases.begin() + static_cast<std::ptrdiff_t>(k));
    }
  }
  std::vector<pebs::MemorySample> samples;
  mem::Addr address = 0;
  for (std::uint64_t i = 0; i < 4000; ++i) {
    // Mostly a short stride from the last address, sometimes a jump.
    address = rng.bernoulli(0.1) ? rng.bounded(0x10000 + (2 << 20))
                                 : address + rng.bounded(256);
    samples.push_back(counting_sort::sample_at(address, i, rng));
    samples.back().home = static_cast<std::uint8_t>(
        rng.bounded(static_cast<std::uint64_t>(machine().num_nodes())));
  }

  const core::ProfileResult profile =
      core::Profiler(machine()).profile(events, samples);
  std::uint64_t attributed = 0;
  const counting_sort::Reference want =
      counting_sort::push_back_reference(events, samples, &attributed);
  counting_sort::expect_matches(profile, want, samples);
  EXPECT_EQ(profile.attributed_samples, attributed);
  EXPECT_GT(attributed, 0u);
  EXPECT_LT(attributed, samples.size());
}

INSTANTIATE_TEST_SUITE_P(SeedGrid, CountingSortProfileProperty,
                         ::testing::Values(3, 11, 2017));

TEST(CountingSortProfile, EmptyStreamHasEveryChannelEmpty) {
  AddressSpace space(machine());
  space.allocate("empty.c:1 obj", 1 << 16, PlacementSpec::interleave());
  const std::vector<pebs::MemorySample> samples;
  const core::ProfileResult profile =
      core::Profiler(machine()).profile(space.drain_events(), samples);
  ASSERT_EQ(profile.channels.size(),
            static_cast<std::size_t>(machine().num_channels()));
  for (std::size_t c = 0; c < profile.channels.size(); ++c) {
    EXPECT_EQ(profile.channels[c].samples, 0u);
    EXPECT_TRUE(samples_in(profile, c).empty());
  }
  EXPECT_EQ(profile.total_samples, 0u);
  EXPECT_EQ(profile.attributed_samples, 0u);
  EXPECT_EQ(profile.tracker.live_range_count(), 1u);
}

// ---------------------------------------------------------------------- //
// Post-profile stages against brute-force references: a diagnosis built
// straight from the raw samples with ordered containers (one std::set
// insert per sample, the channel from Machine::node_of_cpu and the home,
// the object from HeapTracker::object_of), and one full count + sum tally
// per destination channel.  The real stages must reproduce every field bit
// for bit.

namespace reference {

/// For each channel of `contended` in turn (a repeated one counts twice),
/// every raw sample on it.
diagnoser::Diagnosis diagnose(const std::vector<mem::AllocationEvent>& events,
                              const std::vector<pebs::MemorySample>& samples,
                              const std::vector<topology::ChannelId>& contended) {
  core::HeapTracker tracker;
  tracker.on_events(events);
  struct Accum {
    std::uint64_t samples = 0;
    std::uint64_t writes = 0;
    std::set<topology::NodeId> nodes;
    std::map<mem::Addr, std::set<std::uint32_t>> region_threads;
  };
  std::map<std::uint32_t, Accum> per_object;
  diagnoser::Diagnosis d;
  d.channels = contended;
  for (const topology::ChannelId want : contended) {
    for (const pebs::MemorySample& s : samples) {
      const topology::NodeId src = machine().node_of_cpu(s.cpu);
      if (!(topology::ChannelId{src, s.home} == want)) continue;
      ++d.total_samples;
      const std::uint32_t object = tracker.object_of(s.address);
      if (object == core::kUnknownObject) {
        ++d.untracked_samples;
        continue;
      }
      Accum& acc = per_object[object];
      ++acc.samples;
      acc.writes += s.is_write ? 1 : 0;
      acc.nodes.insert(src);
      acc.region_threads[s.address >> 16].insert(s.tid);
    }
  }
  const auto total = static_cast<double>(d.total_samples);
  d.untracked_cf =
      d.total_samples > 0 ? static_cast<double>(d.untracked_samples) / total
                          : 0.0;
  for (const auto& [object, acc] : per_object) {
    diagnoser::ObjectEvidence e;
    e.object = object;
    e.site = tracker.object(object).site;
    e.samples = acc.samples;
    e.cf = static_cast<double>(acc.samples) / total;
    e.write_fraction =
        static_cast<double>(acc.writes) / static_cast<double>(acc.samples);
    e.accessing_nodes = static_cast<int>(acc.nodes.size());
    std::size_t shared_regions = 0;
    for (const auto& [region, threads] : acc.region_threads) {
      if (threads.size() > 1) ++shared_regions;
    }
    e.shared_line_fraction = static_cast<double>(shared_regions) /
                             static_cast<double>(acc.region_threads.size());
    d.ranking.push_back(std::move(e));
  }
  std::sort(d.ranking.begin(), d.ranking.end(),
            [](const diagnoser::ObjectEvidence& a,
               const diagnoser::ObjectEvidence& b) {
              if (a.samples != b.samples) return a.samples > b.samples;
              return a.site < b.site;
            });
  return d;
}

class Accumulator {
 public:
  explicit Accumulator(int remote_home) : remote_home_(remote_home) {}

  void add(const core::AttributedSample& s) {
    const double lat = s.sample.latency_cycles;
    all_.add(lat);
    for (std::size_t i = 0; i < features::kLatencyThresholds.size(); ++i) {
      if (lat > features::kLatencyThresholds[i]) ++above_[i];
    }
    switch (s.sample.level) {
      case pebs::MemLevel::kRemoteDram:
        if (s.home_node == remote_home_) remote_.add(lat);
        break;
      case pebs::MemLevel::kLocalDram:
        local_.add(lat);
        break;
      case pebs::MemLevel::kLfb:
        lfb_.add(lat);
        break;
      default:
        break;
    }
  }

  features::FeatureVector finish() const {
    features::FeatureVector v;
    const auto n = static_cast<double>(all_.count);
    for (std::size_t i = 0; i < 5; ++i) {
      v.values[i] = n > 0.0 ? static_cast<double>(above_[i]) / n : 0.0;
    }
    v.values[5] = static_cast<double>(remote_.count);
    v.values[6] = remote_.mean();
    v.values[7] = static_cast<double>(local_.count);
    v.values[8] = local_.mean();
    v.values[9] = n;
    v.values[10] = all_.mean();
    v.values[11] = static_cast<double>(lfb_.count);
    v.values[12] = lfb_.mean();
    v.scope_samples = all_.count;
    return v;
  }

 private:
  struct Tally {
    std::uint64_t count = 0;
    double sum = 0.0;
    void add(double x) {
      ++count;
      sum += x;
    }
    double mean() const {
      return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }
  };

  int remote_home_;
  Tally all_;
  Tally remote_;
  Tally local_;
  Tally lfb_;
  std::array<std::uint64_t, features::kLatencyThresholds.size()> above_{};
};

std::vector<features::ChannelFeatures> extract_channels(
    const core::ProfileResult& profile, const Machine& m) {
  std::vector<features::ChannelFeatures> out;
  for (int src = 0; src < m.num_nodes(); ++src) {
    std::vector<Accumulator> accs;
    for (int dst = 0; dst < m.num_nodes(); ++dst) accs.emplace_back(dst);
    for (std::size_t c = 0; c < profile.channels.size(); ++c) {
      if (profile.channels[c].channel.src != src) continue;
      core::for_each_in_channel(profile, c, [&](const core::AttributedSample& s) {
        for (auto& acc : accs) acc.add(s);
      });
    }
    for (int dst = 0; dst < m.num_nodes(); ++dst) {
      if (dst == src) continue;
      features::ChannelFeatures cf;
      cf.channel = topology::ChannelId{src, dst};
      cf.features = accs[static_cast<std::size_t>(dst)].finish();
      out.push_back(std::move(cf));
    }
  }
  return out;
}

}  // namespace reference

/// The raw stream a profile is built from: allocation events and samples,
/// each sample stamped with its home node.
struct ProfileInput {
  std::vector<mem::AllocationEvent> events;
  std::vector<pebs::MemorySample> samples;
};

/// A real Profiler pass over machine(); the result borrows input.samples.
core::ProfileResult profile_of(const ProfileInput& input) {
  return core::Profiler(machine()).profile(input.events, input.samples);
}

/// Base of the untracked range: below every object empty_profile lays out.
constexpr mem::Addr kUntrackedBase = 1ull << 20;

/// No samples yet, and one tracked object per entry of `sizes`
/// ("oracle.c:<i> obj", object id i), laid out back to back from 1 GiB so
/// objects smaller than 64 KiB share regions with their neighbours.
/// Returns the object bases through `bases`.
ProfileInput empty_profile(const std::vector<std::uint64_t>& sizes,
                           std::vector<mem::Addr>& bases) {
  ProfileInput input;
  mem::Addr base = 1ull << 30;
  bases.clear();
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    mem::AllocationEvent event;
    event.site.label = "oracle.c:" + std::to_string(i) + " obj";
    event.base = base;
    event.size_bytes = sizes[i];
    input.events.push_back(event);
    bases.push_back(base);
    base += sizes[i];
  }
  return input;
}

/// Appends `s` so the Profiler files it under (src, home): its cpu is the
/// first of the src node, and it is stamped with the home.  The object is
/// the one its address falls in.
void add_sample(ProfileInput& input, const core::AttributedSample& s) {
  pebs::MemorySample sample = s.sample;
  sample.cpu = machine().cpus_of_node(s.src_node).front();
  sample.home = static_cast<std::uint8_t>(s.home_node);
  input.samples.push_back(sample);
}

core::AttributedSample attributed(mem::Addr addr, std::uint32_t tid,
                                  topology::NodeId src,
                                  topology::NodeId home = 0) {
  core::AttributedSample s;
  s.sample.address = addr;
  s.sample.tid = tid;
  s.sample.level = pebs::MemLevel::kRemoteDram;
  s.sample.latency_cycles = 700.0f;
  s.src_node = src;
  s.home_node = home;
  return s;
}

/// A seeded random profile input: every level in every channel
/// (remote-DRAM samples on the diagonal, local and LFB samples on remote
/// channels), untracked samples, tids including 0xFFFFFFFF, and objects
/// from 16 KiB (several per 64 KiB region) to 1 MiB.
ProfileInput random_profile(Rng& rng) {
  std::vector<std::uint64_t> sizes;
  const int num_objects = 1 + static_cast<int>(rng.bounded(8));
  for (int i = 0; i < num_objects; ++i) {
    const std::uint64_t choices[] = {16 << 10, 32 << 10, 1 << 20};
    sizes.push_back(choices[rng.bounded(3)]);
  }
  std::vector<mem::Addr> bases;
  ProfileInput input = empty_profile(sizes, bases);
  const std::uint32_t tids[] = {0, 1, 2, 3, 0xFFFFFFFFu};
  const int n = 200 + static_cast<int>(rng.bounded(3000));
  for (int i = 0; i < n; ++i) {
    const auto obj = static_cast<std::uint32_t>(rng.bounded(sizes.size()));
    const bool untracked = rng.bernoulli(0.15);
    const mem::Addr offset = rng.bounded(sizes[obj]);
    // Mostly one thread per object, so both shared and private regions
    // occur.
    const std::uint32_t tid =
        rng.bernoulli(0.8) ? tids[obj % 5] : tids[rng.bounded(5)];
    const auto src = static_cast<topology::NodeId>(rng.bounded(4));
    const auto home = static_cast<topology::NodeId>(rng.bounded(4));
    core::AttributedSample s = attributed(
        (untracked ? kUntrackedBase : bases[obj]) + offset, tid, src, home);
    s.sample.level = static_cast<pebs::MemLevel>(rng.bounded(6));
    s.sample.latency_cycles = static_cast<float>(rng.uniform(20.0, 2500.0));
    s.sample.is_write = rng.bernoulli(0.3);
    add_sample(input, s);
  }
  return input;
}

void expect_same_evidence(const std::vector<diagnoser::ObjectEvidence>& got,
                          const std::vector<diagnoser::ObjectEvidence>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].object, want[i].object) << "rank " << i;
    EXPECT_EQ(got[i].site, want[i].site) << "rank " << i;
    EXPECT_EQ(got[i].cf, want[i].cf) << "rank " << i;
    EXPECT_EQ(got[i].samples, want[i].samples) << "rank " << i;
    EXPECT_EQ(got[i].write_fraction, want[i].write_fraction) << "rank " << i;
    EXPECT_EQ(got[i].accessing_nodes, want[i].accessing_nodes) << "rank " << i;
    EXPECT_EQ(got[i].shared_line_fraction, want[i].shared_line_fraction)
        << "rank " << i;
  }
}

class PostProfileOracleProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PostProfileOracleProperty, EvidenceAndTallyMatchOrderedReference) {
  Rng rng(GetParam());
  const ProfileInput input = random_profile(rng);
  const core::ProfileResult profile = profile_of(input);
  std::vector<topology::ChannelId> contended;
  for (int c = 0; c < machine().num_channels(); ++c) {
    if (rng.bernoulli(0.4)) contended.push_back(machine().channel_at(c));
  }
  const diagnoser::Diagnosis d = diagnoser::diagnose(profile, contended);
  expect_same_evidence(
      d.ranking,
      reference::diagnose(input.events, input.samples, contended).ranking);
  // The untracked bucket and the ranked objects account for every sample.
  std::uint64_t ranked = 0;
  for (const diagnoser::ObjectEvidence& e : d.ranking) ranked += e.samples;
  EXPECT_EQ(ranked + d.untracked_samples, d.total_samples);
}

// diagnose re-walks the raw samples: with cpus drawn from every node,
// homes on every node and untracked addresses, and with channel lists
// empty, shuffled, repeated or naming every channel, it must match the
// brute-force reference field for field, whatever the sample order.
TEST_P(PostProfileOracleProperty, DiagnoseMatchesBruteForceReference) {
  Rng rng(GetParam());
  ProfileInput input = random_profile(rng);
  for (pebs::MemorySample& s : input.samples) {
    s.cpu = static_cast<topology::CpuId>(
        rng.bounded(static_cast<std::uint64_t>(machine().num_hw_threads())));
  }
  const core::ProfileResult profile = profile_of(input);

  std::vector<topology::ChannelId> every;
  for (int c = 0; c < machine().num_channels(); ++c) {
    every.push_back(machine().channel_at(c));
  }
  std::vector<std::vector<topology::ChannelId>> lists = {{}, every};
  for (std::size_t i = every.size(); i > 1; --i) {
    std::swap(lists[1][i - 1], lists[1][rng.bounded(i)]);
  }
  for (int k = 0; k < 6; ++k) {
    std::vector<topology::ChannelId> picked;
    const auto n = 1 + rng.bounded(2 * every.size());
    while (picked.size() < n) picked.push_back(every[rng.bounded(every.size())]);
    lists.push_back(std::move(picked));
  }
  // A list that certainly repeats a channel, and one reordered.
  lists.push_back({every[5], every[9], every[5]});
  lists.push_back({every[9], every[5]});

  // The same samples in another order profile and diagnose the same.
  ProfileInput shuffled = input;
  for (std::size_t i = shuffled.samples.size(); i > 1; --i) {
    std::swap(shuffled.samples[i - 1], shuffled.samples[rng.bounded(i)]);
  }
  const core::ProfileResult reordered = profile_of(shuffled);

  std::uint64_t untracked = 0;
  for (const std::vector<topology::ChannelId>& contended : lists) {
    SCOPED_TRACE(contended.size());
    const diagnoser::Diagnosis want =
        reference::diagnose(input.events, input.samples, contended);
    for (const core::ProfileResult* p : {&profile, &reordered}) {
      const diagnoser::Diagnosis got = diagnoser::diagnose(*p, contended);
      EXPECT_EQ(got.total_samples, want.total_samples);
      EXPECT_EQ(got.untracked_samples, want.untracked_samples);
      EXPECT_EQ(got.untracked_cf, want.untracked_cf);
      EXPECT_EQ(got.channels, contended);
      expect_same_evidence(got.ranking, want.ranking);
    }
    untracked += want.untracked_samples;
  }
  // Untracked samples reach the diagnosis, and naming every channel once
  // counts every sample once.
  EXPECT_GT(untracked, 0u);
  EXPECT_EQ(reference::diagnose(input.events, input.samples, every)
                .total_samples,
            input.samples.size());

  for (const topology::ChannelId channel : every) {
    expect_same_evidence(diagnoser::contributions_in_channel(profile, channel),
                         diagnoser::diagnose(profile, {channel}).ranking);
  }
}

TEST_P(PostProfileOracleProperty, FeaturesMatchPerDestinationReference) {
  Rng rng(GetParam());
  const ProfileInput input = random_profile(rng);
  const core::ProfileResult profile = profile_of(input);
  std::size_t diagonal_remote = 0;
  std::size_t remote_local_or_lfb = 0;
  for (std::size_t c = 0; c < profile.channels.size(); ++c) {
    const bool local = profile.channels[c].channel.is_local();
    core::for_each_in_channel(profile, c, [&](const core::AttributedSample& s) {
      if (local) {
        diagonal_remote += s.sample.level == pebs::MemLevel::kRemoteDram;
      } else {
        remote_local_or_lfb += s.sample.level == pebs::MemLevel::kLocalDram ||
                               s.sample.level == pebs::MemLevel::kLfb;
      }
    });
  }
  ASSERT_GT(diagonal_remote, 0u);
  ASSERT_GT(remote_local_or_lfb, 0u);
  // Sources whose samples span several homes: the read pass tallies them
  // in stream order, the reference channel by channel.
  int multi_home_sources = 0;
  for (int src = 0; src < machine().num_nodes(); ++src) {
    int homes = 0;
    for (const core::ChannelProfile& channel : profile.channels) {
      homes += channel.channel.src == src && channel.samples > 0;
    }
    multi_home_sources += homes > 1;
  }
  ASSERT_GT(multi_home_sources, 1);

  const auto got = features::extract_channels(profile, machine());
  const auto want = reference::extract_channels(profile, machine());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t c = 0; c < got.size(); ++c) {
    EXPECT_EQ(got[c].channel, want[c].channel);
    EXPECT_EQ(std::memcmp(&got[c].features, &want[c].features,
                          sizeof(features::FeatureVector)),
              0)
        << machine().channel_name(want[c].channel);
  }
}

// Latencies far outside ChannelWindow's exactness bound: zero, denormals,
// FLT_MAX and 3.4e38 mixed with ordinary values, so the sums round and
// their order shows in the bits.  With every sample homed on node 0 (as a
// trace older than v5 loads), every sample of a source sits in channel
// (src, 0), so the read pass's stream order is the order a window fed the
// profile channel by channel sees.
TEST_P(PostProfileOracleProperty, ReplayFeaturesMatchAChannelOrderWindow) {
  Rng rng(GetParam());
  const ProfileInput input = random_profile(rng);
  std::vector<pebs::MemorySample> samples = input.samples;
  const float hostile[] = {0.0f,
                           std::numeric_limits<float>::denorm_min(),
                           1e-40f,
                           FLT_MIN,
                           0.5f,
                           1.0f,
                           123.456f,
                           FLT_MAX,
                           3.4e38f};
  for (pebs::MemorySample& s : samples) {
    s.latency_cycles =
        rng.bernoulli(0.5)
            ? hostile[rng.bounded(std::size(hostile))]
            : static_cast<float>(rng.uniform(0.0, 1e30));
    s.home = 0;
  }
  const core::ProfileResult profile =
      core::Profiler(machine()).profile(input.events, samples);
  features::ChannelWindow window(machine());
  for (std::size_t c = 0; c < profile.channels.size(); ++c) {
    core::for_each_in_channel(profile, c, [&](const core::AttributedSample& s) {
      window.add(features::WindowSample{
          s.sample.latency_cycles, s.sample.level,
          static_cast<std::uint8_t>(s.src_node),
          static_cast<std::uint8_t>(s.home_node)});
    });
  }
  const auto got = features::extract_channels(profile, machine());
  const auto want = window.channels();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t c = 0; c < got.size(); ++c) {
    EXPECT_EQ(got[c].channel, want[c].channel);
    EXPECT_EQ(std::memcmp(&got[c].features, &want[c].features,
                          sizeof(features::FeatureVector)),
              0)
        << machine().channel_name(want[c].channel);
  }
}

INSTANTIATE_TEST_SUITE_P(SeedGrid, PostProfileOracleProperty,
                         ::testing::Values(1, 7, 42, 2017, 65537, 900001));

TEST(PostProfileOracle, EvidenceEdgeCases) {
  // Objects 0 and 1 are 32 KiB each, so they share the 64 KiB region at
  // 1 GiB; object 2 is a third 32 KiB object in the next region.
  std::vector<mem::Addr> bases;
  ProfileInput input = empty_profile({32 << 10, 32 << 10, 32 << 10}, bases);
  const std::uint32_t kMaxTid = 0xFFFFFFFFu;
  // Object 0: its region only ever sees tid 0xFFFFFFFF -> one thread, not
  // shared.  Object 1 touches the same region from tid 7, which does not
  // make object 0's region shared: sharing is per (object, region).
  for (mem::Addr i = 0; i < 3; ++i) {
    add_sample(input, attributed(bases[0] + 64 * i, kMaxTid, 1));
    add_sample(input, attributed(bases[1] + 64 * i, 7, 2));
  }
  // Object 2: tids 0xFFFFFFFF and 0 share its region -> shared.
  add_sample(input, attributed(bases[2], kMaxTid, 1));
  add_sample(input, attributed(bases[2] + 64, 0, 3));
  add_sample(input, attributed(bases[2] + 128, 0, 3));
  // Untracked samples count toward the total but belong to no object.
  for (int i = 0; i < 4; ++i) {
    add_sample(input, attributed(kUntrackedBase, 1, 2));
  }
  const core::ProfileResult profile = profile_of(input);
  const std::vector<topology::ChannelId> contended = {
      {1, 0}, {2, 0}, {3, 0}};

  const auto got = diagnoser::diagnose(profile, contended).ranking;
  expect_same_evidence(
      got, reference::diagnose(input.events, input.samples, contended).ranking);
  // Three objects with 3 samples each tie, so the site breaks the tie.
  ASSERT_EQ(got.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(got[i].object, i);
    EXPECT_EQ(got[i].samples, 3u);
    EXPECT_EQ(got[i].cf, 3.0 / 13.0);
  }
  EXPECT_EQ(got[0].shared_line_fraction, 0.0);
  EXPECT_EQ(got[1].shared_line_fraction, 0.0);
  EXPECT_EQ(got[2].shared_line_fraction, 1.0);
  EXPECT_EQ(got[0].accessing_nodes, 1);
  EXPECT_EQ(got[2].accessing_nodes, 2);

  // No contended channel: no evidence, as the reference.
  EXPECT_TRUE(diagnoser::diagnose(profile, {}).ranking.empty());
  EXPECT_TRUE(
      reference::diagnose(input.events, input.samples, {}).ranking.empty());
  // HeapTracker interns sites, so two objects can never share one: the
  // (samples, site) sort key is a total order over any evidence list.
}

// The region table holds far more pairs than it starts with, so it grows
// and rehashes, and its keys would collide if they were packed or XORed
// into 64 bits: 65,544 objects of 1 KiB above 2^63, object i alone in
// region R + i for i < 65,536, and object 65,536 + k next to object k in
// region R + k (so `object << 48 | region` collides), while objects 2m and
// 2m + 1 in regions R + 2m and R + 2m + 1 give equal `object ^ region` for
// R divisible by 4.
TEST(PostProfileOracle, EvidenceKeepsEveryObjectRegionPairApart) {
  constexpr std::uint32_t kLow = 1u << 16;
  constexpr std::uint32_t kHigh = 8;
  constexpr mem::Addr kBase = (1ull << 63) + (1ull << 40);
  constexpr mem::Addr kRegion = 1ull << 16;
  ProfileInput input;
  std::vector<mem::Addr> bases;
  for (std::uint32_t i = 0; i < kLow + kHigh; ++i) {
    mem::AllocationEvent event;
    event.site.label = "oracle.c:" + std::to_string(i) + " obj";
    event.base = i < kLow ? kBase + i * kRegion
                          : kBase + (i - kLow) * kRegion + 1024;
    event.size_bytes = 1024;
    input.events.push_back(event);
    bases.push_back(event.base);
  }
  // 1,500 low objects (object i from node 1 + i % 3) and every high one;
  // a second sample from another thread shares every third region.
  std::vector<std::uint32_t> sampled;
  for (std::uint32_t i = 0; i < 1500; ++i) sampled.push_back(i);
  for (std::uint32_t k = 0; k < kHigh; ++k) sampled.push_back(kLow + k);
  for (const std::uint32_t object : sampled) {
    const auto src = static_cast<topology::NodeId>(1 + object % 3);
    core::AttributedSample s = attributed(bases[object], object % 5, src);
    s.sample.is_write = object % 7 == 0;
    add_sample(input, s);
    s.sample.address += 64;
    if (object % 3 == 0) ++s.sample.tid;
    add_sample(input, s);
  }
  const core::ProfileResult profile = profile_of(input);
  const std::vector<topology::ChannelId> contended = {{1, 0}, {2, 0}, {3, 0}};
  const diagnoser::Diagnosis d = diagnoser::diagnose(profile, contended);
  expect_same_evidence(
      d.ranking,
      reference::diagnose(input.events, input.samples, contended).ranking);
  ASSERT_EQ(d.ranking.size(), sampled.size());
  for (const diagnoser::ObjectEvidence& e : d.ranking) {
    EXPECT_EQ(e.samples, 2u) << e.site;
    EXPECT_EQ(e.shared_line_fraction, e.object % 3 == 0 ? 1.0 : 0.0)
        << e.site;
  }
}

// ---------------------------------------------------------------------- //
// CSV trace codec against the reference implementation it replaced: a
// vector<string> field split per line, std::stoull / std::stof per field,
// and an ostream renderer.  The renderer must match byte for byte, the
// loader must match record for record wherever the reference can load the
// body at all, and every single-byte damage to a sample line must either
// load identically in both or fall in the field grammar's narrowing list
// (trace_io.hpp), where only the new loader rejects it.

namespace reference {

std::string render_csv(const pebs::Trace& trace) {
  std::ostringstream os;
  for (const mem::AllocationEvent& e : trace.events) {
    if (e.kind == mem::AllocationEvent::Kind::kAlloc) {
      os << "A," << CsvWriter::escape(e.site.label) << ',' << e.base << ','
         << e.size_bytes << '\n';
    } else {
      os << "F," << e.base << '\n';
    }
  }
  for (const pebs::MemorySample& s : trace.samples) {
    os << "S," << s.address << ',' << s.cpu << ',' << s.tid << ','
       << pebs::level_token(s.level) << ',' << s.latency_cycles << ','
       << (s.is_write ? 1 : 0) << ',' << s.cycle << ','
       << static_cast<unsigned>(s.home) << '\n';
  }
  return os.str();
}

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else {
      field += c;
    }
  }
  fields.push_back(std::move(field));
  return fields;
}

std::uint64_t to_u64(const std::string& s) {
  std::size_t pos = 0;
  std::uint64_t v = 0;
  try {
    v = std::stoull(s, &pos);
  } catch (const std::exception&) {
    pos = std::string::npos;
  }
  if (pos != s.size() || s.empty()) {
    throw Error("malformed number '" + s + "'", ErrorCode::kParse);
  }
  return v;
}

float to_latency(const std::string& s) {
  std::size_t pos = 0;
  float v = 0.0f;
  try {
    v = std::stof(s, &pos);
  } catch (const std::exception&) {
    pos = std::string::npos;
  }
  if (pos != s.size() || s.empty()) {
    throw Error("malformed latency '" + s + "'", ErrorCode::kParse);
  }
  return v;
}

void require_arity(const std::vector<std::string>& fields, std::size_t want) {
  if (fields.size() != want) {
    throw Error("record has " + std::to_string(fields.size()) +
                    " fields, expected " + std::to_string(want),
                ErrorCode::kParse);
  }
}

void parse_record(const std::string& line,
                  std::vector<mem::AllocationEvent>& events,
                  std::vector<pebs::MemorySample>& samples) {
  const auto fields = split_csv(line);
  const std::string& kind = fields[0];
  if (kind == "A") {
    require_arity(fields, 4);
    events.push_back(mem::AllocationEvent{
        mem::AllocationEvent::Kind::kAlloc, {fields[1]}, to_u64(fields[2]),
        to_u64(fields[3])});
  } else if (kind == "F") {
    require_arity(fields, 2);
    events.push_back(mem::AllocationEvent{
        mem::AllocationEvent::Kind::kFree, {""}, to_u64(fields[1]), 0});
  } else if (kind == "S") {
    require_arity(fields, 9);
    pebs::MemorySample s;
    s.address = to_u64(fields[1]);
    s.cpu = static_cast<topology::CpuId>(to_u64(fields[2]));
    s.tid = static_cast<std::uint32_t>(to_u64(fields[3]));
    s.level = pebs::level_from_token(fields[4]);
    s.latency_cycles = to_latency(fields[5]);
    s.is_write = fields[6] == "1";
    s.cycle = to_u64(fields[7]);
    s.home = static_cast<std::uint8_t>(to_u64(fields[8]));
    samples.push_back(s);
  } else {
    throw Error("unknown record kind '" + kind + "'", ErrorCode::kParse);
  }
}

/// The reference's lenient loop over a CSV body (one record per line).
pebs::Trace parse_records(const std::string& body, util::LoadStats& st) {
  pebs::Trace trace;
  std::vector<pebs::MemorySample> samples;
  std::istringstream is(body);
  std::string line;
  while (std::getline(is, line)) {
    if (trim(line).empty()) continue;
    ++st.records_seen;
    try {
      parse_record(line, trace.events, samples);
      ++st.records_ok;
    } catch (const Error&) {
      ++st.records_quarantined;
    }
  }
  trace.samples = std::move(samples);
  return trace;
}

}  // namespace reference

/// A seeded random trace.  Latencies include 0, denormals, FLT_MAX and
/// arbitrary finite bit patterns; labels include ',', '"' and (unless
/// `reference_loadable`) newlines.  The reference loader cannot read a
/// newline in a label or a denormal latency (stof reports ERANGE), so
/// `reference_loadable` leaves both out.
pebs::Trace random_trace(Rng& rng, bool reference_loadable) {
  static const char* const kLabels[] = {
      "plain.c:1 buf", "comma.c:2 a,b", "quote.c:3 \"q\"", "both.c:4 \"x\",y",
      "", "crlf.c:5 a\r\nb", "newline.c:6 \n", "\n\n\"\"\n"};
  const std::size_t label_choices = reference_loadable ? 5 : 8;
  pebs::Trace trace;
  const int events = 1 + static_cast<int>(rng.bounded(8));
  for (int i = 0; i < events; ++i) {
    mem::AllocationEvent e;
    if (rng.bernoulli(0.25)) {
      e.kind = mem::AllocationEvent::Kind::kFree;
    } else {
      e.kind = mem::AllocationEvent::Kind::kAlloc;
      e.site.label = kLabels[rng.bounded(label_choices)];
      e.size_bytes = rng.bernoulli(0.5) ? rng.next() : rng.bounded(1 << 20);
    }
    e.base = rng.bernoulli(0.5) ? rng.next() : rng.bounded(1 << 30);
    trace.events.push_back(e);
  }
  const std::uint32_t tids[] = {0, 7, 0xFFFFFFFFu};
  const int count = 50 + static_cast<int>(rng.bounded(400));
  std::vector<pebs::MemorySample> samples;
  for (int i = 0; i < count; ++i) {
    pebs::MemorySample s;
    s.address = rng.bernoulli(0.5) ? rng.next() : rng.bounded(1 << 30);
    s.cpu = static_cast<topology::CpuId>(rng.bounded(64));
    s.tid = tids[rng.bounded(3)];
    s.level = static_cast<pebs::MemLevel>(rng.bounded(6));
    switch (rng.bounded(reference_loadable ? 5 : 7)) {
      case 0: s.latency_cycles = 0.0f; break;
      case 1: s.latency_cycles = FLT_MAX; break;
      case 2: s.latency_cycles = 3.4e38f; break;
      case 3: s.latency_cycles = static_cast<float>(rng.uniform(0.0, 5e3)); break;
      case 4: {
        // Any finite non-negative normal float.
        const auto bits = static_cast<std::uint32_t>(
            0x00800000u + rng.bounded(0x7F000000u - 0x00800000u));
        std::memcpy(&s.latency_cycles, &bits, sizeof bits);
        break;
      }
      case 5: s.latency_cycles = std::numeric_limits<float>::denorm_min(); break;
      default: s.latency_cycles = FLT_MIN / 3.0f; break;
    }
    s.is_write = rng.bernoulli(0.3);
    s.cycle = rng.bernoulli(0.5) ? rng.next() : rng.bounded(1 << 30);
    s.home = static_cast<std::uint8_t>(rng.bounded(256));
    samples.push_back(s);
  }
  trace.samples = std::move(samples);
  return trace;
}

void expect_same_trace(const pebs::Trace& got, const pebs::Trace& want) {
  ASSERT_EQ(got.events.size(), want.events.size());
  for (std::size_t i = 0; i < got.events.size(); ++i) {
    EXPECT_EQ(got.events[i].kind, want.events[i].kind) << "event " << i;
    EXPECT_EQ(got.events[i].site.label, want.events[i].site.label)
        << "event " << i;
    EXPECT_EQ(got.events[i].base, want.events[i].base) << "event " << i;
    EXPECT_EQ(got.events[i].size_bytes, want.events[i].size_bytes)
        << "event " << i;
  }
  ASSERT_EQ(got.samples.size(), want.samples.size());
  for (std::size_t i = 0; i < got.samples.size(); ++i) {
    const pebs::MemorySample& a = got.samples[i];
    const pebs::MemorySample& b = want.samples[i];
    std::uint32_t a_bits = 0;
    std::uint32_t b_bits = 0;
    std::memcpy(&a_bits, &a.latency_cycles, sizeof a_bits);
    std::memcpy(&b_bits, &b.latency_cycles, sizeof b_bits);
    EXPECT_TRUE(a.address == b.address && a.cpu == b.cpu && a.tid == b.tid &&
                a.level == b.level && a_bits == b_bits &&
                a.is_write == b.is_write && a.cycle == b.cycle &&
                a.home == b.home)
        << "sample " << i;
  }
}

void expect_same_stats(const util::LoadStats& got,
                       const util::LoadStats& want) {
  EXPECT_EQ(got.records_seen, want.records_seen);
  EXPECT_EQ(got.records_ok, want.records_ok);
  EXPECT_EQ(got.records_quarantined, want.records_quarantined);
  EXPECT_EQ(got.checksum_ok, want.checksum_ok);
}

/// The body of the artifact at `path`: everything after the header line.
std::string artifact_body(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  return content.substr(content.find('\n') + 1);
}

class CsvCodecOracleProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  std::string path(const std::string& name) const {
    return ::testing::TempDir() + "/drbw_csv_oracle_" +
           std::to_string(GetParam()) + "_" + name;
  }
};

TEST_P(CsvCodecOracleProperty, RendererMatchesStreamReferenceBytes) {
  Rng rng(GetParam());
  for (const bool loadable : {true, false}) {
    const pebs::Trace trace = random_trace(rng, loadable);
    const std::string file = path("render.csv");
    pebs::save_trace(file, trace);
    EXPECT_EQ(artifact_body(file), reference::render_csv(trace));
    std::remove(file.c_str());
  }
  // Rounding ties and the extremes of the latency format.
  pebs::Trace edges;
  std::vector<pebs::MemorySample> edges_samples;
  for (const float f : {1234565.0f, 1234575.0f, 0.5f, 2.5f, 1e-45f, -0.0f,
                        FLT_MIN, FLT_MAX, 100000.0f, 999999.5f, 1e6f}) {
    pebs::MemorySample s;
    s.latency_cycles = f;
    s.cpu = -1;
    edges_samples.push_back(s);
  }
  edges.samples = std::move(edges_samples);
  const std::string file = path("edges.csv");
  pebs::save_trace(file, edges);
  EXPECT_EQ(artifact_body(file), reference::render_csv(edges));
  std::remove(file.c_str());
}

TEST_P(CsvCodecOracleProperty, LoaderMatchesReferenceAndBinaryRoundTrip) {
  Rng rng(GetParam());
  // Records both loaders reject, mixed into the body to exercise the
  // quarantine accounting.
  static const char* const kBad[] = {
      "Z,1", "S,1,2,3", "S,x,0,0,L1,5,0,1", "S,1,0,0,XYZ,5,0,1",
      "S,1,0,0,L1,5e99,0,1", "F,12junk", "A,x,1", "   ", ""};
  const pebs::Trace trace = random_trace(rng, true);
  std::string body = reference::render_csv(trace);
  for (const char* bad : kBad) {
    const std::size_t at = body.find('\n', rng.bounded(body.size()));
    body.insert(at + 1, std::string(bad) + "\n");
  }
  const std::string file = path("load.csv");
  util::atomic_write_file(file, util::format_artifact_header(
                                    "trace", pebs::kTraceVersion, body) +
                                    "\n" + body);
  const util::LoadPolicy lenient{util::LoadMode::kLenient, 0.9};
  util::LoadStats got_stats;
  const pebs::Trace got = pebs::load_trace(file, lenient, &got_stats);
  util::LoadStats want_stats;
  const pebs::Trace want = reference::parse_records(body, want_stats);
  expect_same_trace(got, want);
  expect_same_stats(got_stats, want_stats);
  EXPECT_EQ(got_stats.records_quarantined, 7u);  // 9 lines, 2 of them blank
  std::remove(file.c_str());

  // With newlines in labels and denormal latencies only the new loader can
  // read the CSV; its trace must survive a binary round trip unchanged and
  // re-render to the same CSV bytes.
  for (const bool loadable : {true, false}) {
    const pebs::Trace original = random_trace(rng, loadable);
    const std::string csv = path("trip.csv");
    const std::string bin = path("trip.bin");
    pebs::save_trace(csv, original);
    const pebs::Trace from_csv = pebs::load_trace(csv);
    pebs::SaveOptions binary;
    binary.format = pebs::TraceFormat::kBinary;
    pebs::save_trace(bin, from_csv, binary);
    expect_same_trace(pebs::load_trace(bin), from_csv);
    const std::string csv_bytes = artifact_body(csv);
    pebs::save_trace(csv, from_csv);
    EXPECT_EQ(artifact_body(csv), csv_bytes);
    std::remove(csv.c_str());
    std::remove(bin.c_str());
  }
}

/// True when the damaged sample `line` (damage at byte `at`) is outside the
/// field grammar in a way the reference loader tolerated: whitespace or a
/// sign before a number, a quote in a field, a write flag other than 0/1,
/// a non-finite or negative latency, a cpu/tid past u32, or a home past u8.
bool in_narrowing_list(const std::string& line, std::size_t at) {
  std::size_t index = 0;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < at; ++i) {
    if (line[i] == ',') {
      ++index;
      begin = i + 1;
    }
  }
  const std::string field = line.substr(begin, line.find(',', begin) - begin);
  if (field.find('"') != std::string::npos) return true;
  if (!field.empty() &&
      (std::isspace(static_cast<unsigned char>(field[0])) ||
       field[0] == '+' || field[0] == '-')) {
    return true;
  }
  if (index == 6) return true;  // the write flag
  if (index == 5) {
    try {
      const float latency = reference::to_latency(field);
      return !std::isfinite(latency) || latency < 0.0f;
    } catch (const Error&) {
      return false;
    }
  }
  if (index == 2 || index == 3 || index == 8) {
    try {
      return reference::to_u64(field) > (index == 8 ? 0xFFu : 0xFFFFFFFFu);
    } catch (const Error&) {
      return false;
    }
  }
  return false;
}

TEST_P(CsvCodecOracleProperty, SingleByteDamageAgreesOrIsNarrowed) {
  Rng rng(GetParam());
  pebs::Trace trace = random_trace(rng, true);
  trace.events.clear();
  std::vector<pebs::MemorySample> kept(trace.samples.begin(),
                                       trace.samples.end());
  kept.resize(24);
  trace.samples = std::move(kept);
  const std::string body = reference::render_csv(trace);
  const std::string file = path("damage.csv");
  std::istringstream lines(body);
  std::string line;
  std::size_t mutations = 0;
  std::size_t narrowed = 0;
  while (std::getline(lines, line)) {
    for (std::size_t at = 0; at < line.size(); ++at) {
      std::string damaged = line;
      damaged[at] = static_cast<char>(damaged[at] ^ 0x11);
      ++mutations;
      pebs::Trace want;
      std::vector<pebs::MemorySample> want_samples;
      bool want_ok = true;
      try {
        reference::parse_record(damaged, want.events, want_samples);
      } catch (const Error&) {
        want_ok = false;
      }
      want.samples = std::move(want_samples);
      pebs::Trace got;
      bool got_ok = true;
      util::write_versioned_artifact(file, "trace", pebs::kTraceVersion,
                                     damaged + "\n");
      try {
        got = pebs::load_trace(file);
      } catch (const Error& e) {
        got_ok = false;
        EXPECT_EQ(e.code(), ErrorCode::kParse) << damaged;
      }
      if (got_ok == want_ok) {
        if (got_ok) expect_same_trace(got, want);
        continue;
      }
      ++narrowed;
      EXPECT_FALSE(got_ok) << "new loader accepts what the reference "
                              "rejects: "
                           << damaged;
      EXPECT_TRUE(in_narrowing_list(damaged, at)) << damaged;
    }
  }
  EXPECT_GT(mutations, 500u);
  EXPECT_GT(narrowed, 0u);
  std::remove(file.c_str());
}

INSTANTIATE_TEST_SUITE_P(SeedGrid, CsvCodecOracleProperty,
                         ::testing::Values(1, 17, 2017));

}  // namespace
}  // namespace drbw
