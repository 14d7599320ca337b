// google-benchmark microbenchmarks for the hot components: the simulation
// engine, PEBS sampling, feature extraction, the profiler's attribution
// path, and decision-tree training/prediction.
#include <benchmark/benchmark.h>

#include "drbw/core/profiler.hpp"
#include "drbw/features/selected.hpp"
#include "drbw/ml/metrics.hpp"
#include "drbw/sim/engine.hpp"
#include "drbw/util/rng.hpp"

namespace {

using namespace drbw;

const topology::Machine& machine() {
  static const topology::Machine m = topology::Machine::xeon_e5_4650();
  return m;
}

void BM_EngineContendedRun(benchmark::State& state) {
  const auto threads_per_node = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mem::AddressSpace space(machine());
    const auto obj = space.allocate("bench.c:1 data", 1ull << 30,
                                    mem::PlacementSpec::bind(0));
    std::vector<sim::SimThread> threads;
    sim::Phase phase{"main", {}};
    std::uint32_t tid = 0;
    for (int n = 0; n < 4; ++n) {
      for (int t = 0; t < threads_per_node; ++t) {
        threads.push_back(
            {tid++, machine().cpus_of_node(n)[static_cast<std::size_t>(t)]});
        phase.work.push_back(
            sim::ThreadWork{{sim::seq_read(obj, 200'000)}, 1.0});
      }
    }
    sim::EngineConfig cfg;
    cfg.epoch_cycles = 100'000;
    sim::Engine engine(machine(), space, cfg);
    const auto result = engine.run(threads, {phase});
    benchmark::DoNotOptimize(result.total_cycles);
    state.counters["sim_accesses/s"] = benchmark::Counter(
        static_cast<double>(result.total_accesses), benchmark::Counter::kIsRate);
  }
}
BENCHMARK(BM_EngineContendedRun)->Arg(2)->Arg(8)->Arg(16);

// count_only is O(1) in the access count, so the honest item is a drawn
// sample (~500 per call at period 2000), not an access.
void BM_PeriodSampler(benchmark::State& state) {
  pebs::PeriodSampler sampler(2000, 7);
  std::int64_t samples = 0;
  for (auto _ : state) {
    const std::uint64_t drawn = sampler.count_only(1'000'000);
    benchmark::DoNotOptimize(drawn);
    samples += static_cast<std::int64_t>(drawn);
  }
  state.SetItemsProcessed(samples);
}
BENCHMARK(BM_PeriodSampler);

/// Profiles `samples` fresh samples, which it leaves in `raw`: the profile
/// borrows them.
core::ProfileResult make_profile(std::size_t samples,
                                 std::vector<pebs::MemorySample>& raw) {
  static mem::AddressSpace space(machine());
  static const mem::ObjectId obj = space.allocate(
      "bench.c:2 hot", 64 << 20, mem::PlacementSpec::bind(1));
  static core::AddressSpaceLocator locator(space);
  const mem::Addr base = space.object(obj).base;

  Rng rng(9);
  raw.clear();
  raw.reserve(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    pebs::MemorySample s;
    s.address = base + rng.bounded(64 << 20);
    s.cpu = static_cast<topology::CpuId>(rng.bounded(64));
    s.level = rng.bernoulli(0.2) ? pebs::MemLevel::kRemoteDram
                                 : pebs::MemLevel::kL1;
    s.latency_cycles = static_cast<float>(rng.uniform(4.0, 900.0));
    raw.push_back(s);
  }
  core::Profiler profiler(machine(), locator);
  return profiler.profile(space.drain_events(), raw);
}

void BM_ProfilerAttribution(benchmark::State& state) {
  Rng rng(9);
  static mem::AddressSpace space(machine());
  static const mem::ObjectId obj =
      space.allocate("bench.c:3 x", 64 << 20, mem::PlacementSpec::bind(1));
  static core::AddressSpaceLocator locator(space);
  const mem::Addr base = space.object(obj).base;
  std::vector<pebs::MemorySample> raw(static_cast<std::size_t>(state.range(0)));
  for (auto& s : raw) {
    s.address = base + rng.bounded(64 << 20);
    s.cpu = static_cast<topology::CpuId>(rng.bounded(64));
    s.level = pebs::MemLevel::kRemoteDram;
    s.latency_cycles = 500.0f;
  }
  core::Profiler profiler(machine(), locator);
  for (auto _ : state) {
    benchmark::DoNotOptimize(profiler.profile({}, raw).total_samples);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ProfilerAttribution)->Arg(1000)->Arg(50000);

void BM_FeatureExtraction(benchmark::State& state) {
  std::vector<pebs::MemorySample> raw;
  const auto profile =
      make_profile(static_cast<std::size_t>(state.range(0)), raw);
  for (auto _ : state) {
    benchmark::DoNotOptimize(features::extract_channels(profile, machine()));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FeatureExtraction)->Arg(1000)->Arg(50000);

ml::Dataset synthetic_dataset(std::size_t rows) {
  Rng rng(4);
  ml::Dataset data;
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<double> row(13);
    for (double& v : row) v = rng.uniform();
    data.add(std::move(row),
             rng.bernoulli(0.4) ? ml::Label::kRmc : ml::Label::kGood);
  }
  return data;
}

void BM_TreeTrain(benchmark::State& state) {
  const ml::Dataset data = synthetic_dataset(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::Classifier::train(data));
  }
}
BENCHMARK(BM_TreeTrain)->Arg(192)->Arg(2048);

void BM_TreePredict(benchmark::State& state) {
  const ml::Dataset data = synthetic_dataset(512);
  const ml::Classifier model = ml::Classifier::train(data);
  Rng rng(6);
  std::vector<double> row(13);
  for (double& v : row) v = rng.uniform();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(row));
  }
}
BENCHMARK(BM_TreePredict);

}  // namespace

BENCHMARK_MAIN();
