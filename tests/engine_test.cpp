// Integration tests of the epoch engine: time accounting, contention
// dynamics, sampling fidelity, and placement effects.
#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "drbw/obs/metrics.hpp"
#include "drbw/sim/engine.hpp"
#include "drbw/util/artifact.hpp"
#include "drbw/util/error.hpp"
#include "drbw/util/stats.hpp"

namespace drbw::sim {
namespace {

using mem::AddressSpace;
using mem::PlacementSpec;
using topology::Machine;

class EngineTest : public ::testing::Test {
 protected:
  Machine machine_ = Machine::xeon_e5_4650();

  static EngineConfig fast_config() {
    EngineConfig cfg;
    cfg.epoch_cycles = 50'000;
    cfg.seed = 99;
    return cfg;
  }

  /// One thread per entry of `cpus`, each running `burst`.
  static RunResult run_uniform(const Machine& machine, AddressSpace& space,
                               const std::vector<topology::CpuId>& cpus,
                               const AccessBurst& burst,
                               EngineConfig cfg = fast_config()) {
    std::vector<SimThread> threads;
    Phase phase{"main", {}};
    for (std::size_t i = 0; i < cpus.size(); ++i) {
      threads.push_back(SimThread{static_cast<std::uint32_t>(i), cpus[i]});
      phase.work.push_back(ThreadWork{{burst}, 1.0});
    }
    Engine engine(machine, space, cfg);
    return engine.run(threads, {phase});
  }
};

TEST_F(EngineTest, SingleThreadCachedRunIsFast) {
  AddressSpace space(machine_);
  const auto obj = space.allocate("t.c:1 small", 16 * 1024, PlacementSpec::bind(0));
  const auto r = run_uniform(machine_, space, {0}, seq_read(obj, 1'000'000));
  EXPECT_EQ(r.total_accesses, 1'000'000u);
  // L1-resident: ~2 cycles/access -> well under 4M cycles.
  EXPECT_LT(r.total_cycles, 4'000'000u);
  EXPECT_DOUBLE_EQ(r.dram_accesses, 0.0);
}

TEST_F(EngineTest, DramStreamSlowerThanCached) {
  AddressSpace space(machine_);
  const auto small = space.allocate("t.c:2 a", 16 * 1024, PlacementSpec::bind(0));
  const auto big = space.allocate("t.c:3 b", 256ull << 20, PlacementSpec::bind(0));
  const auto fast = run_uniform(machine_, space, {0}, seq_read(small, 500'000));
  const auto slow = run_uniform(machine_, space, {0}, seq_read(big, 500'000));
  EXPECT_GT(slow.total_cycles, fast.total_cycles);
  EXPECT_GT(slow.dram_accesses, 0.0);
}

TEST_F(EngineTest, RemoteAccessSlowerThanLocal) {
  AddressSpace space(machine_);
  const auto local = space.allocate("t.c:4 l", 256ull << 20, PlacementSpec::bind(0));
  const auto remote = space.allocate("t.c:5 r", 256ull << 20, PlacementSpec::bind(1));
  const auto rl = run_uniform(machine_, space, {0}, random_read(local, 300'000));
  const auto rr = run_uniform(machine_, space, {0}, random_read(remote, 300'000));
  EXPECT_GT(rr.total_cycles, rl.total_cycles);
  EXPECT_GT(rr.remote_dram_accesses, 0.0);
  EXPECT_DOUBLE_EQ(rl.remote_dram_accesses, 0.0);
}

TEST_F(EngineTest, SamplingRateMatchesPeriod) {
  AddressSpace space(machine_);
  const auto obj = space.allocate("t.c:6 x", 64ull << 20, PlacementSpec::bind(0));
  const auto r = run_uniform(machine_, space, {0}, seq_read(obj, 2'000'000));
  // 2M accesses at 1/2000 -> ~1000 samples (a few L1 samples may fall under
  // the latency threshold; jitter sigma keeps that rare).
  EXPECT_NEAR(static_cast<double>(r.samples.size()), 1000.0, 120.0);
}

TEST_F(EngineTest, SamplesCarryCorrectIdentity) {
  AddressSpace space(machine_);
  const auto obj = space.allocate("t.c:7 x", 64ull << 20, PlacementSpec::bind(2));
  // CPU 9 lives on node 1.
  const auto r = run_uniform(machine_, space, {9}, seq_read(obj, 2'000'000));
  const auto& object = space.object(obj);
  ASSERT_FALSE(r.samples.empty());
  for (const auto& s : r.samples) {
    EXPECT_EQ(s.cpu, 9);
    EXPECT_EQ(s.tid, 0u);
    EXPECT_GE(s.address, object.base);
    EXPECT_LT(s.address, object.base + object.size_bytes);
    EXPECT_FALSE(s.is_write);
    EXPECT_LE(s.cycle, r.total_cycles + 50'000);
    if (pebs::is_dram(s.level)) {
      EXPECT_EQ(s.level, pebs::MemLevel::kRemoteDram);  // data is on node 2
    }
  }
}

TEST_F(EngineTest, NoSamplesWhenProfilingDisabled) {
  AddressSpace space(machine_);
  const auto obj = space.allocate("t.c:8 x", 64ull << 20, PlacementSpec::bind(0));
  EngineConfig cfg = fast_config();
  cfg.profiling = false;
  const auto r = run_uniform(machine_, space, {0}, seq_read(obj, 1'000'000), cfg);
  EXPECT_TRUE(r.samples.empty());
}

TEST_F(EngineTest, ContentionInflatesRemoteLatencyAndUtilization) {
  AddressSpace space(machine_);
  // Eight node-1 threads all streaming from node 0's DRAM: the N1->N0
  // channel (capacity ~5 B/cyc) is saturated several times over.
  const auto obj = space.allocate("t.c:9 hot", 1ull << 30, PlacementSpec::bind(0));
  std::vector<topology::CpuId> cpus;
  for (int c = 8; c < 16; ++c) cpus.push_back(c);  // node 1 cores
  const auto r = run_uniform(machine_, space, cpus, seq_read(obj, 1'000'000));

  const int ch = machine_.channel_index(topology::ChannelId{1, 0});
  EXPECT_GT(r.channels[static_cast<std::size_t>(ch)].peak_utilization, 0.9);

  OnlineStats remote_lat;
  for (const auto& s : r.samples) {
    if (s.level == pebs::MemLevel::kRemoteDram) remote_lat.add(s.latency_cycles);
  }
  ASSERT_GT(remote_lat.count(), 50u);
  // Idle remote latency is 310; under saturation the multiplier pushes the
  // mean far beyond it.
  EXPECT_GT(remote_lat.mean(), 600.0);
}

TEST_F(EngineTest, UncontendedRemoteLatencyStaysNearIdle) {
  AddressSpace space(machine_);
  const auto obj = space.allocate("t.c:10 cold", 1ull << 30, PlacementSpec::bind(0));
  // A single random-access thread consumes far less than link capacity.
  const auto r = run_uniform(machine_, space, {8}, random_read(obj, 400'000));
  OnlineStats remote_lat;
  for (const auto& s : r.samples) {
    if (s.level == pebs::MemLevel::kRemoteDram) remote_lat.add(s.latency_cycles);
  }
  ASSERT_GT(remote_lat.count(), 20u);
  EXPECT_LT(remote_lat.mean(), 420.0);
}

TEST_F(EngineTest, SaturationStopsThroughputScaling) {
  // Time for 2x the accesses on a saturated channel should be ~2x; but
  // adding threads beyond saturation must NOT speed things up — per-thread
  // throughput collapses instead (the paper's §V-A labelling signal).
  AddressSpace space(machine_);
  const auto obj = space.allocate("t.c:11 hot", 1ull << 30, PlacementSpec::bind(0));
  const std::uint64_t per_thread = 600'000;

  std::vector<topology::CpuId> two{8, 9};
  std::vector<topology::CpuId> eight{8, 9, 10, 11, 12, 13, 14, 15};
  AddressSpace s1(machine_), s2(machine_);
  const auto o1 = s1.allocate("t.c:11 hot", 1ull << 30, PlacementSpec::bind(0));
  const auto o2 = s2.allocate("t.c:11 hot", 1ull << 30, PlacementSpec::bind(0));
  const auto r2 = run_uniform(machine_, s1, two, seq_read(o1, per_thread));
  const auto r8 = run_uniform(machine_, s2, eight, seq_read(o2, per_thread));
  // 8 threads move 4x the data of 2 threads over the same saturated link:
  // total time must grow markedly (no free scaling).
  EXPECT_GT(static_cast<double>(r8.total_cycles),
            2.0 * static_cast<double>(r2.total_cycles));
  (void)obj;
}

TEST_F(EngineTest, InterleaveSpreadsTrafficAcrossChannels) {
  AddressSpace bound_space(machine_);
  AddressSpace interleaved_space(machine_);
  const auto bound = bound_space.allocate("t.c:12 d", 1ull << 30,
                                          PlacementSpec::bind(0));
  const auto inter = interleaved_space.allocate("t.c:12 d", 1ull << 30,
                                                PlacementSpec::interleave());
  // 16 threads across all four nodes, all reading the shared array.
  std::vector<topology::CpuId> cpus;
  for (int n = 0; n < 4; ++n)
    for (int c = 0; c < 4; ++c) cpus.push_back(n * 8 + c);

  const auto rb =
      run_uniform(machine_, bound_space, cpus, seq_read(bound, 400'000));
  const auto ri =
      run_uniform(machine_, interleaved_space, cpus, seq_read(inter, 400'000));

  double peak_b = 0.0, peak_i = 0.0;
  for (const auto& ch : rb.channels) peak_b = std::max(peak_b, ch.peak_utilization);
  for (const auto& ch : ri.channels) peak_i = std::max(peak_i, ch.peak_utilization);
  EXPECT_GT(peak_b, peak_i);
  EXPECT_LT(ri.total_cycles, rb.total_cycles);  // interleave relieves hotspot
}

TEST_F(EngineTest, ReplicatedObjectAlwaysLocal) {
  AddressSpace space(machine_);
  const auto obj = space.allocate("t.c:13 rep", 256ull << 20,
                                  PlacementSpec::replicate());
  std::vector<topology::CpuId> cpus{0, 8, 16, 24};  // one per node
  const auto r = run_uniform(machine_, space, cpus, random_read(obj, 400'000));
  EXPECT_DOUBLE_EQ(r.remote_dram_accesses, 0.0);
  for (const auto& s : r.samples) {
    EXPECT_NE(s.level, pebs::MemLevel::kRemoteDram);
  }
}

TEST_F(EngineTest, PhasesRunInOrderAndSumToTotal) {
  AddressSpace space(machine_);
  const auto a = space.allocate("t.c:14 a", 64ull << 20, PlacementSpec::bind(0));
  const auto b = space.allocate("t.c:15 b", 64ull << 20, PlacementSpec::bind(0));
  std::vector<SimThread> threads{{0, 0}, {1, 1}};
  Phase p1{"init", {ThreadWork{{seq_write(a, 200'000)}, 1.0},
                    ThreadWork{{}, 1.0}}};  // thread 1 idle in init
  Phase p2{"solve", {ThreadWork{{seq_read(a, 400'000)}, 1.0},
                     ThreadWork{{seq_read(b, 400'000)}, 1.0}}};
  Engine engine(machine_, space, fast_config());
  const auto r = engine.run(threads, {p1, p2});
  ASSERT_EQ(r.phases.size(), 2u);
  EXPECT_EQ(r.phases[0].name, "init");
  EXPECT_EQ(r.phases[1].name, "solve");
  EXPECT_GT(r.phases[0].cycles, 0u);
  EXPECT_GT(r.phases[1].cycles, 0u);
  EXPECT_EQ(r.phases[0].cycles + r.phases[1].cycles, r.total_cycles);
}

TEST_F(EngineTest, AllocationEventsForwardedToResult) {
  AddressSpace space(machine_);
  const auto obj = space.allocate("t.c:16 x", 4096, PlacementSpec::bind(0));
  const auto r = run_uniform(machine_, space, {0}, seq_read(obj, 10'000));
  ASSERT_EQ(r.alloc_events.size(), 1u);
  EXPECT_EQ(r.alloc_events[0].site.label, "t.c:16 x");
}

TEST_F(EngineTest, DeterministicAcrossRuns) {
  auto once = [&] {
    AddressSpace space(machine_);
    const auto obj = space.allocate("t.c:17 x", 256ull << 20,
                                    PlacementSpec::bind(0));
    return run_uniform(machine_, space, {0, 8}, random_read(obj, 300'000));
  };
  const auto r1 = once();
  const auto r2 = once();
  EXPECT_EQ(r1.total_cycles, r2.total_cycles);
  ASSERT_EQ(r1.samples.size(), r2.samples.size());
  for (std::size_t i = 0; i < r1.samples.size(); ++i) {
    EXPECT_EQ(r1.samples[i].address, r2.samples[i].address);
    EXPECT_EQ(r1.samples[i].latency_cycles, r2.samples[i].latency_cycles);
  }
}

TEST_F(EngineTest, ChannelBytesRespectCapacity) {
  AddressSpace space(machine_);
  const auto obj = space.allocate("t.c:18 hot", 1ull << 30, PlacementSpec::bind(0));
  std::vector<topology::CpuId> cpus{8, 9, 10, 11};
  const auto r = run_uniform(machine_, space, cpus, seq_read(obj, 800'000));
  for (int idx = 0; idx < machine_.num_channels(); ++idx) {
    const double cap = machine_.channel_capacity(machine_.channel_at(idx));
    const double bytes = r.channels[static_cast<std::size_t>(idx)].bytes;
    // Served traffic can never exceed capacity x elapsed time (5% slack for
    // the final fractional epoch).
    EXPECT_LE(bytes, cap * static_cast<double>(r.total_cycles) * 1.05);
  }
}

TEST_F(EngineTest, IbsMemorySampleRateMatchesPebsButCostsMore) {
  // At an equal numeric period, IBS op sampling delivers the SAME memory-
  // sample rate as PEBS (op fires are 1+cpa times more frequent, but only
  // 1 in 1+cpa tags the memory op) — what differs is the interrupt cost,
  // which IBS pays on every op fire.
  auto run_with = [&](sim::SamplingFlavor flavor, double cpa) {
    AddressSpace local(machine_);
    const auto o = local.allocate("t.c:30 x", 64ull << 20, PlacementSpec::bind(0));
    EngineConfig cfg = fast_config();
    cfg.sampling_flavor = flavor;
    Engine engine(machine_, local, cfg);
    std::vector<SimThread> threads{{0, 0}};
    Phase phase{"main", {ThreadWork{{sim::seq_read(o, 2'000'000)}, cpa}}};
    return engine.run(threads, {phase});
  };
  const auto pebs = run_with(sim::SamplingFlavor::kPebs, 4.0);
  const auto ibs = run_with(sim::SamplingFlavor::kIbs, 4.0);
  EXPECT_NEAR(static_cast<double>(ibs.samples.size()),
              static_cast<double>(pebs.samples.size()),
              0.25 * static_cast<double>(pebs.samples.size()));
  // The 5x interrupt rate is visible as longer profiled execution.
  EXPECT_GT(ibs.total_cycles, pebs.total_cycles);
  for (const auto& s : ibs.samples) {
    EXPECT_EQ(s.cpu, 0);
    EXPECT_GT(s.latency_cycles, 0.0f);
  }
}

TEST_F(EngineTest, IbsIgnoresLatencyThreshold) {
  // With an absurd PEBS threshold nothing survives; IBS has no threshold.
  AddressSpace space(machine_);
  const auto obj = space.allocate("t.c:31 x", 16 * 1024, PlacementSpec::bind(0));
  EngineConfig cfg = fast_config();
  cfg.sample_latency_threshold = 1e9;
  cfg.sampling_flavor = sim::SamplingFlavor::kPebs;
  {
    AddressSpace local(machine_);
    const auto o = local.allocate("t.c:31 x", 16 * 1024, PlacementSpec::bind(0));
    Engine engine(machine_, local, cfg);
    const auto r = engine.run({{0, 0}},
                              {Phase{"m", {ThreadWork{{sim::seq_read(o, 1'000'000)}, 1.0}}}});
    EXPECT_TRUE(r.samples.empty());
  }
  cfg.sampling_flavor = sim::SamplingFlavor::kIbs;
  {
    AddressSpace local(machine_);
    const auto o = local.allocate("t.c:31 x", 16 * 1024, PlacementSpec::bind(0));
    Engine engine(machine_, local, cfg);
    const auto r = engine.run({{0, 0}},
                              {Phase{"m", {ThreadWork{{sim::seq_read(o, 1'000'000)}, 1.0}}}});
    EXPECT_FALSE(r.samples.empty());
  }
  (void)obj;
}

TEST_F(EngineTest, MismatchedPhaseArityThrows) {
  AddressSpace space(machine_);
  Engine engine(machine_, space, fast_config());
  std::vector<SimThread> threads{{0, 0}, {1, 1}};
  Phase bad{"p", {ThreadWork{}}};  // work for 1 thread, run has 2
  EXPECT_THROW(engine.run(threads, {bad}), Error);
  EXPECT_THROW(engine.run({}, {}), Error);
}

TEST_F(EngineTest, BurstValidation) {
  AddressSpace space(machine_);
  const auto obj = space.allocate("t.c:19 x", 4096, PlacementSpec::bind(0));
  Engine engine(machine_, space, fast_config());
  std::vector<SimThread> threads{{0, 0}};

  AccessBurst zero = seq_read(obj, 0);
  EXPECT_THROW(engine.run(threads, {Phase{"p", {ThreadWork{{zero}, 1.0}}}}),
               Error);

  AccessBurst oob = seq_read(obj, 100, /*offset=*/0, /*span=*/8192);
  EXPECT_THROW(engine.run(threads, {Phase{"p", {ThreadWork{{oob}, 1.0}}}}),
               Error);
}

// ---------------------------------------------------------------------------
// Pinned results.  Each config below is hashed over every sample's fields,
// total cycles, per-channel bytes and utilizations, and phase cycles; the
// constants were captured before the fixed point learned to stop early, so
// any change to what a round computes (or whether its answer is used) shows
// up here as a changed checksum.

/// CRC-32 over the result's observable bytes.  Sample fields are appended
/// one by one: the struct's padding bytes are not part of the result.
std::uint32_t result_crc(const RunResult& r) {
  std::string bytes;
  auto put = [&bytes](const auto& v) {
    char buf[sizeof(v)];
    std::memcpy(buf, &v, sizeof(v));
    bytes.append(buf, sizeof(v));
  };
  put(r.total_cycles);
  for (const pebs::MemorySample& s : r.samples) {
    put(s.address);
    put(s.cycle);
    put(s.cpu);
    put(s.tid);
    put(s.latency_cycles);
    put(static_cast<std::uint8_t>(s.level));
    put(static_cast<std::uint8_t>(s.is_write));
  }
  for (const ChannelStats& ch : r.channels) {
    put(ch.bytes);
    put(ch.peak_utilization);
    put(ch.busy_utilization);
  }
  for (const PhaseResult& ph : r.phases) put(ph.cycles);
  return util::crc32(bytes);
}

class EnginePinTest : public ::testing::Test {
 protected:
  static EngineConfig config() {
    EngineConfig cfg;
    cfg.epoch_cycles = 50'000;
    cfg.seed = 2017;
    return cfg;
  }

  /// Threads on `cpus`, tids in order, each running `bursts` in one phase.
  static std::vector<SimThread> threads_on(const std::vector<topology::CpuId>& cpus) {
    std::vector<SimThread> threads;
    for (std::size_t i = 0; i < cpus.size(); ++i) {
      threads.push_back(SimThread{static_cast<std::uint32_t>(i), cpus[i]});
    }
    return threads;
  }

  static void expect_pinned(const RunResult& r, std::uint32_t want) {
    const std::uint32_t got = result_crc(r);
    EXPECT_EQ(got, want) << "crc 0x" << std::hex << got << " over "
                         << std::dec << r.samples.size() << " samples, "
                         << r.total_cycles << " cycles";
  }
};

// PEBS, bound placement: eight node-1 threads saturate the N1->N0 channel,
// so the fixed point iterates on a contended multiplier.
TEST_F(EnginePinTest, PebsBoundSaturatedChannel) {
  const Machine machine = Machine::xeon_e5_4650();
  AddressSpace space(machine);
  const auto obj = space.allocate("pin.c:1 hot", 1ull << 30, PlacementSpec::bind(0));
  Phase phase{"main", {}};
  for (int i = 0; i < 8; ++i) {
    phase.work.push_back(ThreadWork{{seq_read(obj, 400'000)}, 1.0});
  }
  Engine engine(machine, space, config());
  expect_pinned(engine.run(threads_on({8, 9, 10, 11, 12, 13, 14, 15}), {phase}),
                0x0da421dbu);
}

// PEBS, interleaved placement: sixteen threads over all four nodes spread
// random reads across every channel.
TEST_F(EnginePinTest, PebsInterleavedRandomReads) {
  const Machine machine = Machine::xeon_e5_4650();
  AddressSpace space(machine);
  const auto obj = space.allocate("pin.c:2 shared", 1ull << 30,
                                  PlacementSpec::interleave());
  std::vector<topology::CpuId> cpus;
  Phase phase{"main", {}};
  for (int n = 0; n < 4; ++n) {
    for (int c = 0; c < 4; ++c) {
      cpus.push_back(n * 8 + c);
      phase.work.push_back(ThreadWork{{random_read(obj, 150'000)}, 2.0});
    }
  }
  Engine engine(machine, space, config());
  expect_pinned(engine.run(threads_on(cpus), {phase}), 0xa567bc34u);
}

// PEBS, first-touch placement: an init phase writes each thread's slice
// from its own node, then every thread reads the whole array.
TEST_F(EnginePinTest, PebsFirstTouchInitThenShare) {
  const Machine machine = Machine::xeon_e5_4650();
  AddressSpace space(machine);
  constexpr std::uint64_t kSlice = 16ull << 20;
  const auto obj = space.allocate("pin.c:3 ft", 4 * kSlice,
                                  PlacementSpec::first_touch());
  const std::vector<topology::CpuId> cpus{0, 8, 16, 24};
  Phase init{"init", {}};
  Phase solve{"solve", {}};
  for (std::uint64_t i = 0; i < 4; ++i) {
    init.work.push_back(
        ThreadWork{{seq_write(obj, kSlice / 8, i * kSlice, kSlice)}, 1.0});
    solve.work.push_back(ThreadWork{{seq_read(obj, 300'000)}, 1.0});
  }
  Engine engine(machine, space, config());
  expect_pinned(engine.run(threads_on(cpus), {init, solve}), 0x3cf04f88u);
}

// IBS on the 8-node Opteron: op-counting samples, no latency threshold,
// and multi-hop links between some node pairs.
TEST_F(EnginePinTest, IbsOpteronMultiHop) {
  const Machine machine = Machine::opteron_6174();
  AddressSpace space(machine);
  const auto obj = space.allocate("pin.c:4 far", 512ull << 20, PlacementSpec::bind(0));
  std::vector<topology::CpuId> cpus;
  Phase phase{"main", {}};
  for (int n = 1; n < 8; n += 2) {
    for (int c = 0; c < 3; ++c) {
      cpus.push_back(machine.cpus_of_node(n)[static_cast<std::size_t>(c)]);
      phase.work.push_back(ThreadWork{{seq_read(obj, 200'000)}, 3.0});
    }
  }
  EngineConfig cfg = config();
  cfg.sampling_flavor = SamplingFlavor::kIbs;
  Engine engine(machine, space, cfg);
  expect_pinned(engine.run(threads_on(cpus), {phase}), 0xd7f75ddeu);
}

// Several phases of short, unaligned bursts: bursts end and the next one
// activates in the middle of an epoch, and threads finish at different times.
TEST_F(EnginePinTest, MultiPhaseBurstsEndMidEpoch) {
  const Machine machine = Machine::xeon_e5_4650();
  AddressSpace space(machine);
  const auto a = space.allocate("pin.c:5 a", 256ull << 20, PlacementSpec::bind(0));
  const auto b = space.allocate("pin.c:6 b", 256ull << 20, PlacementSpec::bind(1));
  const auto c = space.allocate("pin.c:7 c", 64 * 1024, PlacementSpec::bind(2));
  const std::vector<topology::CpuId> cpus{0, 1, 8, 9, 16, 24};
  Phase p1{"p1", {}};
  Phase p2{"p2", {}};
  Phase p3{"p3", {}};
  for (std::uint64_t i = 0; i < cpus.size(); ++i) {
    p1.work.push_back(ThreadWork{{seq_read(a, 37'111 + 5'003 * i),
                                  random_read(b, 12'345 + 777 * i),
                                  seq_read(c, 91'001)},
                                 1.0 + 0.5 * static_cast<double>(i)});
    p2.work.push_back(i % 2 == 0 ? ThreadWork{{}, 1.0}
                                 : ThreadWork{{seq_write(b, 54'321 * i)}, 1.0});
    p3.work.push_back(ThreadWork{{random_read(a, 9'999), seq_read(b, 23'456 + i)},
                                 2.0});
  }
  Engine engine(machine, space, config());
  expect_pinned(engine.run(threads_on(cpus), {p1, p2, p3}), 0xf9c06fffu);
}

// Saturated channel with bursts of different lengths: rationing serves
// less than was planned, so a thread's plan is clamped to its remaining
// count for several epochs before the burst ends.
TEST_F(EnginePinTest, RemainingClampBindsUnderRationing) {
  const Machine machine = Machine::xeon_e5_4650();
  AddressSpace space(machine);
  const auto obj = space.allocate("pin.c:8 hot", 1ull << 30, PlacementSpec::bind(0));
  Phase phase{"main", {}};
  for (std::uint64_t i = 0; i < 8; ++i) {
    phase.work.push_back(ThreadWork{
        {seq_read(obj, 20'000 + 3'001 * i), seq_read(obj, 150'000 - 9'000 * i)},
        0.5});
  }
  EngineConfig cfg = config();
  cfg.epoch_cycles = 200'000;
  Engine engine(machine, space, cfg);
  expect_pinned(engine.run(threads_on({8, 9, 10, 11, 12, 13, 14, 15}), {phase}),
                0xeecd187au);
}

// No profiler attached: no samples, no interrupt cost, no buffer traffic.
TEST_F(EnginePinTest, UnprofiledRun) {
  const Machine machine = Machine::xeon_e5_4650();
  AddressSpace space(machine);
  const auto obj = space.allocate("pin.c:9 x", 512ull << 20, PlacementSpec::bind(1));
  Phase phase{"main", {}};
  for (int i = 0; i < 6; ++i) {
    phase.work.push_back(ThreadWork{{seq_read(obj, 250'000), random_read(obj, 40'000)},
                                    1.0});
  }
  EngineConfig cfg = config();
  cfg.profiling = false;
  Engine engine(machine, space, cfg);
  const RunResult r = engine.run(threads_on({0, 1, 2, 16, 17, 18}), {phase});
  EXPECT_TRUE(r.samples.empty());
  expect_pinned(r, 0x3c592e33u);
}

// The rounds counter tallies executed rounds: at least one, and never more
// than the configured cap in every epoch.
TEST_F(EnginePinTest, RoundsCounterIsBoundedByTheCap) {
  auto& reg = obs::Registry::global();
  const obs::Counter& epochs =
      reg.counter("drbw_sim_epochs_total", "Epochs simulated");
  const obs::Counter& rounds = reg.counter(
      "drbw_sim_fixed_point_rounds_total", "Rate/multiplier fixed-point iterations");
  const std::uint64_t epochs_before = epochs.value();
  const std::uint64_t rounds_before = rounds.value();

  const Machine machine = Machine::xeon_e5_4650();
  AddressSpace space(machine);
  const auto obj = space.allocate("pin.c:10 hot", 1ull << 30, PlacementSpec::bind(0));
  Phase phase{"main", {}};
  for (int i = 0; i < 8; ++i) {
    phase.work.push_back(ThreadWork{{seq_read(obj, 300'000)}, 1.0});
  }
  const EngineConfig cfg = config();
  Engine engine(machine, space, cfg);
  engine.run(threads_on({8, 9, 10, 11, 12, 13, 14, 15}), {phase});

  const std::uint64_t ran_epochs = epochs.value() - epochs_before;
  const std::uint64_t ran_rounds = rounds.value() - rounds_before;
  ASSERT_GT(ran_epochs, 1u);
  EXPECT_GT(ran_rounds, 0u);
  EXPECT_LE(ran_rounds,
            ran_epochs * static_cast<std::uint64_t>(cfg.fixed_point_rounds));
}

}  // namespace
}  // namespace drbw::sim
