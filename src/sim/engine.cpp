#include "drbw/sim/engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "drbw/fault/injector.hpp"
#include "drbw/obs/flight_recorder.hpp"
#include "drbw/obs/trace.hpp"

namespace drbw::sim {

namespace {

constexpr std::array<std::uint64_t, 7> kSampleLatencyBounds = {
    100, 200, 300, 500, 800, 1300, 2100};

/// Engine-side instruments, resolved once.  Every value is a commutative sum
/// or integer histogram over per-run quantities, so totals are identical at
/// any --jobs count.
struct SimMetrics {
  obs::Counter& runs;
  obs::Counter& epochs;
  obs::Counter& fixed_point_rounds;
  obs::Counter& accesses;
  obs::Counter& demand_bytes;
  obs::Counter& samples;
  obs::Counter& samples_below_threshold;
  obs::Counter& samples_fault_dropped;
  obs::Counter& samples_fault_corrupted;
  obs::Histogram& utilization_pct;
  obs::Histogram& sample_latency;

  static SimMetrics& get() {
    auto& reg = obs::Registry::global();
    static SimMetrics m{
        reg.counter("drbw_sim_runs_total", "Engine runs completed"),
        reg.counter("drbw_sim_epochs_total", "Epochs simulated"),
        reg.counter("drbw_sim_fixed_point_rounds_total",
                    "Rate/multiplier fixed-point iterations"),
        reg.counter("drbw_sim_accesses_total", "Memory accesses committed"),
        reg.counter("drbw_sim_demand_bytes_total",
                    "DRAM channel demand offered (bytes, truncated per epoch)"),
        reg.counter("drbw_sim_samples_total", "PEBS/IBS samples emitted"),
        reg.counter("drbw_sim_samples_below_threshold_total",
                    "PEBS draws dropped by the latency threshold"),
        reg.counter("drbw_sim_samples_fault_dropped_total",
                    "Samples discarded by the pebs.sample drop fault site"),
        reg.counter("drbw_sim_samples_fault_corrupted_total",
                    "Samples bit-damaged by the pebs.sample corrupt fault "
                    "site"),
        reg.histogram("drbw_sim_epoch_channel_utilization_pct",
                      "Per-epoch utilization of each demanded channel (%)",
                      {10, 25, 50, 75, 90, 95, 99, 100}),
        reg.histogram("drbw_sim_sample_latency_cycles",
                      "Latency of emitted memory samples (cycles)",
                      {kSampleLatencyBounds.begin(), kSampleLatencyBounds.end()}),
    };
    return m;
  }
};

}  // namespace

/// Per-sample instruments of one run, tallied in plain locals: emit_samples
/// runs once per sampled access, where even relaxed atomics are measurable.
/// The destructor flushes once per run, also when an injected engine failure
/// unwinds it, so the exported totals equal per-sample updates.
struct Engine::SampleTally {
  std::uint64_t emitted = 0;
  std::uint64_t below_threshold = 0;
  std::uint64_t fault_dropped = 0;
  std::uint64_t fault_corrupted = 0;
  std::array<std::uint64_t, kSampleLatencyBounds.size() + 1> latency_buckets{};
  std::uint64_t latency_sum = 0;

  SampleTally() = default;
  SampleTally(const SampleTally&) = delete;
  SampleTally& operator=(const SampleTally&) = delete;
  ~SampleTally() {
    SimMetrics& m = SimMetrics::get();
    m.samples.add(emitted);
    m.samples_below_threshold.add(below_threshold);
    m.samples_fault_dropped.add(fault_dropped);
    m.samples_fault_corrupted.add(fault_corrupted);
    m.sample_latency.add_buckets(latency_buckets, latency_sum);
  }
};

/// Resolved state of a thread's active burst.
struct Engine::BurstState {
  AccessBurst burst;
  std::uint64_t remaining = 0;
  std::uint64_t span = 0;
  mem::Addr base = 0;
  HitProfile profile;
  /// One entry per home node actually holding pages of this burst, with the
  /// channel index and idle DRAM latency resolved once at activation.  The
  /// epoch loops (cost, demand, rationing, accounting, sampling) iterate
  /// this sparse list instead of scanning every node of the machine.
  struct HomeTerm {
    double fraction = 0.0;     // of the burst's pages homed here
    int channel_index = 0;     // accessing node -> home, machine index
    double idle_latency = 0.0; // idle DRAM latency on that channel
    int home = 0;
  };
  std::vector<HomeTerm> homes;
  bool active = false;
};

struct Engine::ThreadState {
  SimThread thread;
  topology::NodeId node = 0;
  const std::vector<AccessBurst>* queue = nullptr;
  std::size_t next_burst = 0;
  double compute_cpa = 1.0;
  BurstState current;
  bool phase_done = true;
  pebs::PeriodSampler sampler{2000, 0};
  Rng rng;
  /// Fixed-point scratch: accesses planned this epoch, and the plan before
  /// the clamp to `current.remaining`.
  std::uint64_t planned = 0;
  std::uint64_t unclamped_plan = 0;
  /// Channel index of the thread's node-local channel (PEBS buffer flushes).
  int self_channel = 0;
  /// Phase constants hoisted out of the epoch loop: retired ops per memory
  /// access (IBS inflation) and the amortized profiling interrupt cost.
  double ops_per_access = 1.0;
  double profiling_cost_per_access = 0.0;
};

Engine::Engine(const topology::Machine& machine, mem::AddressSpace& space,
               EngineConfig config)
    : machine_(machine), space_(space), config_(config),
      cache_model_(machine, config.cache) {
  DRBW_CHECK(config_.epoch_cycles > 0);
  DRBW_CHECK(config_.sample_period > 0);
  DRBW_CHECK(config_.fixed_point_rounds >= 1);
}

void Engine::activate_burst(ThreadState& ts, const AccessBurst& burst) {
  BurstState& bs = ts.current;
  bs.burst = burst;
  DRBW_CHECK_MSG(burst.count > 0, "burst with zero accesses");
  const mem::DataObject& obj = space_.object(burst.object);
  const std::uint64_t span =
      burst.span_bytes != 0 ? burst.span_bytes : obj.size_bytes - burst.offset_bytes;
  bs.span = span;
  bs.base = obj.base + burst.offset_bytes;
  bs.remaining = burst.count;
  bs.profile = cache_model_.classify(burst, span);
  const std::vector<double> home_fraction = space_.touch_and_home_fractions(
      burst.object, burst.offset_bytes, span, ts.node);
  bs.homes.clear();
  const int n = machine_.num_nodes();
  for (int home = 0; home < n; ++home) {
    const double fh = home_fraction[static_cast<std::size_t>(home)];
    if (fh <= 0.0) continue;
    bs.homes.push_back(BurstState::HomeTerm{
        fh, ts.node * n + home,
        machine_.idle_dram_latency(topology::ChannelId{ts.node, home}), home});
  }
  bs.active = true;
}

double Engine::access_cost(const ThreadState& ts, const ChannelLoad& load) const {
  const BurstState& bs = ts.current;
  const HitProfile& p = bs.profile;
  const auto& spec = machine_.spec();

  // Observed DRAM latency averaged over the burst's home nodes, including
  // the per-channel contention multiplier.
  double dram_obs = 0.0;
  double avg_mult = 1.0;
  if (p.dram > 0.0 || p.lfb > 0.0) {
    avg_mult = 0.0;
    double fsum = 0.0;
    for (const BurstState::HomeTerm& h : bs.homes) {
      const double mult = load.multiplier_index(h.channel_index);
      dram_obs += h.fraction * h.idle_latency * mult;
      avg_mult += h.fraction * mult;
      fsum += h.fraction;
    }
    if (fsum > 0.0) avg_mult /= fsum;
    else avg_mult = 1.0;
  }

  // Cache hits overlap well in the pipeline; DRAM/LFB overlap is bounded by
  // the pattern's MLP, and prefetching hides part of the DRAM cost.
  constexpr double kCacheOverlap = 4.0;
  const double cache_cost = (p.l1 * spec.l1.latency_cycles +
                             p.l2 * spec.l2.latency_cycles +
                             p.l3 * spec.l3.latency_cycles) /
                            kCacheOverlap;
  const double lfb_cost = p.lfb * spec.lfb_latency_cycles * avg_mult;
  const double dram_cost = p.dram * dram_obs * p.prefetch_hide;
  double cost = ts.compute_cpa + cache_cost + (lfb_cost + dram_cost) / p.mlp;

  // IBS interrupts fire on every op, not only the memory ones, so the
  // per-access interrupt overhead scales with the op inflation; the whole
  // term is a phase constant precomputed in run() (0 when not profiling).
  cost += ts.profiling_cost_per_access;
  return cost;
}

void Engine::emit_samples(ThreadState& ts, std::uint64_t served,
                          std::uint64_t epoch_start, double /*cost*/,
                          const ChannelLoad& load, SampleTally& tally,
                          RunResult& result) {
  DRBW_CHECK_MSG(served >= 1,
                 "emit_samples requires served >= 1 (offset mapping divides "
                 "by served and clamps to served - 1)");
  const BurstState& bs = ts.current;
  const HitProfile& p = bs.profile;
  const auto& spec = machine_.spec();
  const std::uint64_t done_before = bs.burst.count - bs.remaining;
  const std::uint64_t elem = std::max<std::uint32_t>(bs.burst.elem_bytes, 1);
  const std::uint64_t slots = std::max<std::uint64_t>(bs.span / elem, 1);

  // IBS counts every retired op, not just memory accesses: feed the
  // counter the op stream (≈ 1 + compute-cycles worth of ops per access)
  // and map firing offsets back to the access they landed on.
  const double ops_per_access = ts.ops_per_access;
  const auto counted = static_cast<std::uint64_t>(
      static_cast<double>(served) * ops_per_access);

  // LFB waits ride on the stream's (home-weighted) channel delay, which is
  // fixed for the epoch — computed once, not per sample.
  double lfb_mult = 1.0;
  if (p.lfb > 0.0) {
    double avg_mult = 0.0;
    for (const BurstState::HomeTerm& h : bs.homes) {
      avg_mult += h.fraction * load.multiplier_index(h.channel_index);
    }
    lfb_mult = std::max(1.0, avg_mult);
  }

  const obs::Histogram& latency_histogram = SimMetrics::get().sample_latency;
  const pebs::SampleFires fires = ts.sampler.consume(counted);
  for (std::uint64_t i = 0; i < fires.count; ++i) {
    std::uint64_t offset = fires.at(i);
    if (ops_per_access > 1.0) {
      // Each access contributes one memory op among ~1+cpa retired ops; an
      // IBS fire yields a memory record only when it tags the memory op.
      // IBS hardware randomizes the counter start, so the tag is a fair
      // 1-in-(ops/access) draw rather than a fixed stride (which would
      // alias against the op pattern).
      if (!ts.rng.bernoulli(1.0 / ops_per_access)) continue;
      offset = static_cast<std::uint64_t>(static_cast<double>(offset) /
                                          ops_per_access);
    }
    if (offset >= served) offset = served - 1;
    // --- address ---
    std::uint64_t slot;
    switch (bs.burst.pattern) {
      case Pattern::kSequential:
      case Pattern::kStrided: {
        const double frac = static_cast<double>(done_before + offset) /
                            static_cast<double>(bs.burst.count);
        slot = std::min<std::uint64_t>(
            static_cast<std::uint64_t>(frac * static_cast<double>(slots)),
            slots - 1);
        break;
      }
      case Pattern::kRandom:
      case Pattern::kPointerChaseConflict:
        slot = ts.rng.bounded(slots);
        break;
      default:
        slot = 0;
    }
    const mem::Addr addr = bs.base + slot * elem;

    // --- hit level ---
    pebs::MemLevel level;
    double idle_latency;
    double mult = 1.0;
    const double u = ts.rng.uniform() * p.sum();
    if (u < p.l1) {
      level = pebs::MemLevel::kL1;
      idle_latency = spec.l1.latency_cycles;
    } else if (u < p.l1 + p.l2) {
      level = pebs::MemLevel::kL2;
      idle_latency = spec.l2.latency_cycles;
    } else if (u < p.l1 + p.l2 + p.l3) {
      level = pebs::MemLevel::kL3;
      idle_latency = spec.l3.latency_cycles;
    } else if (u < p.l1 + p.l2 + p.l3 + p.lfb) {
      level = pebs::MemLevel::kLfb;
      idle_latency = spec.lfb_latency_cycles;
      mult = lfb_mult;
    } else {
      // DRAM: the page home of the sampled address decides local vs remote,
      // exactly as the tool will later rediscover via its libnuma lookup.
      const topology::NodeId home =
          space_.resolve_home(bs.burst.object, addr, ts.node);
      level = home == ts.node ? pebs::MemLevel::kLocalDram
                              : pebs::MemLevel::kRemoteDram;
      idle_latency =
          machine_.idle_dram_latency(topology::ChannelId{ts.node, home});
      mult = load.multiplier_index(ts.node * machine_.num_nodes() + home);
    }

    const double latency = ts.rng.lognormal_median(
        idle_latency * mult, config_.latency_jitter_sigma);
    // The latency threshold is a PEBS facility; IBS samples every op it
    // lands on regardless of latency.
    if (config_.sampling_flavor == SamplingFlavor::kPebs &&
        latency < config_.sample_latency_threshold) {
      ++tally.below_threshold;
      continue;
    }
    const auto rounded = static_cast<std::uint64_t>(std::llround(latency));
    ++tally.emitted;
    ++tally.latency_buckets[latency_histogram.bucket_index(rounded)];
    tally.latency_sum += rounded;

    pebs::MemorySample sample;
    sample.address = addr;
    sample.cpu = ts.thread.cpu;
    sample.tid = ts.thread.tid;
    sample.level = level;
    sample.latency_cycles = static_cast<float>(latency);
    sample.is_write = bs.burst.is_write;
    sample.cycle = epoch_start +
                   static_cast<std::uint64_t>(
                       static_cast<double>(offset) /
                       static_cast<double>(std::max<std::uint64_t>(served, 1)) *
                       static_cast<double>(config_.epoch_cycles));
    // PEBS fault sites (buffer-overflow drops, DMA bit damage).  The key is
    // derived from the sample's own content — address, cycle, tid — which
    // is identical at any --jobs count, so the same samples drop or corrupt
    // regardless of run scheduling.
    const std::uint64_t fault_key =
        sample.address ^ (sample.cycle * 0x9e3779b97f4a7c15ULL) ^
        sample.tid;
    if (fault::should_inject("pebs.sample", fault::Kind::kDropSample,
                             fault_key)) {
      ++tally.fault_dropped;
      continue;
    }
    if (fault::should_inject("pebs.sample", fault::Kind::kCorruptField,
                             fault_key)) {
      sample.address =
          fault::corrupt_bits("pebs.sample", fault_key, sample.address);
      ++tally.fault_corrupted;
    }
    result.samples.push_back(sample);
  }
}

RunResult Engine::run(const std::vector<SimThread>& threads,
                      const std::vector<Phase>& phases) {
  DRBW_CHECK_MSG(!threads.empty(), "run needs at least one thread");
  RunResult result;
  result.channels.assign(static_cast<std::size_t>(machine_.num_channels()), {});
  result.alloc_events = space_.drain_events();

  const int num_nodes = machine_.num_nodes();
  std::vector<ThreadState> states(threads.size());
  for (std::size_t i = 0; i < threads.size(); ++i) {
    ThreadState& ts = states[i];
    ts.thread = threads[i];
    ts.node = machine_.node_of_cpu(threads[i].cpu);
    ts.self_channel = ts.node * num_nodes + ts.node;
    ts.sampler = pebs::PeriodSampler(
        config_.sample_period, config_.seed ^ (0x9e37u + threads[i].tid));
    ts.rng = Rng(config_.seed).fork(threads[i].tid);
  }

  if (config_.profiling) {
    // One sample per sample_period accesses is the expected density; the
    // latency threshold only thins it.  Reserving up front keeps the commit
    // loop free of vector growth.
    std::uint64_t total_accesses = 0;
    for (const Phase& phase : phases) {
      for (const ThreadWork& work : phase.work) {
        for (const AccessBurst& burst : work.bursts) total_accesses += burst.count;
      }
    }
    result.samples.reserve(static_cast<std::size_t>(
        total_accesses / config_.sample_period + 64));
  }

  ChannelLoad load(machine_, config_.bandwidth);
  SimMetrics& metrics = SimMetrics::get();
  // Hoisted: one relaxed load per run, not per epoch.  Channel arg keys for
  // the per-epoch counter event are built once, only when tracing.
  const bool tracing = obs::Trace::instance().enabled();
  const bool flight = obs::flight().enabled();
  std::vector<std::string> channel_keys;
  if (tracing) {
    channel_keys.reserve(static_cast<std::size_t>(machine_.num_channels()));
    for (int idx = 0; idx < machine_.num_channels(); ++idx) {
      const topology::ChannelId ch = machine_.channel_at(idx);
      channel_keys.push_back("N" + std::to_string(ch.src) + "->N" +
                             std::to_string(ch.dst));
    }
  }
  const auto epoch_cycles = static_cast<double>(config_.epoch_cycles);
  const bool profiling_demand =
      config_.profiling && config_.profiling_bytes_per_sample > 0.0;
  // Per-epoch instruments accumulate into plain locals and flush to the
  // registry once per run: epochs are ~1us of work each, so even relaxed
  // atomics in this loop are measurable.  The flushed totals are identical
  // to per-epoch updates (sums and bucket counts are commutative).
  std::uint64_t local_epochs = 0;
  std::uint64_t local_rounds = 0;
  std::uint64_t local_demand_bytes = 0;
  std::array<std::uint64_t, 101> local_util_pct{};  // llround(u*100) in [0,100]
  SampleTally sample_tally;
  std::uint64_t clock = 0;
  std::uint64_t epochs_used = 0;
  double latency_weight = 0.0;
  double latency_sum = 0.0;

  for (const Phase& phase : phases) {
    DRBW_CHECK_MSG(phase.work.size() == threads.size(),
                   "phase '" << phase.name << "' has work for "
                             << phase.work.size() << " threads, run has "
                             << threads.size());
    const std::uint64_t phase_start = clock;
    std::size_t live = 0;
    // Whether the multipliers are the fixed point of the live threads'
    // current inputs, so that a round would only reproduce them.  A round
    // reads the multipliers and, per live thread, its burst and its plan
    // clamp; it is cleared whenever one of those changes.
    bool settled = false;
    for (std::size_t i = 0; i < threads.size(); ++i) {
      ThreadState& ts = states[i];
      ts.queue = &phase.work[i].bursts;
      ts.compute_cpa = phase.work[i].compute_cycles_per_access;
      ts.ops_per_access = config_.sampling_flavor == SamplingFlavor::kIbs
                              ? 1.0 + std::max(0.0, ts.compute_cpa)
                              : 1.0;
      ts.profiling_cost_per_access =
          config_.profiling
              ? config_.profiling_interrupt_cycles * ts.ops_per_access /
                    static_cast<double>(config_.sample_period)
              : 0.0;
      ts.next_burst = 0;
      ts.current.active = false;
      ts.phase_done = ts.queue->empty();
      if (!ts.phase_done) {
        activate_burst(ts, (*ts.queue)[0]);
        ts.next_burst = 1;
        ++live;
      }
    }

    while (live > 0) {
      DRBW_CHECK_MSG(++epochs_used <= config_.max_epochs,
                     "simulation exceeded max_epochs = " << config_.max_epochs);
      // Epoch-granular hard failure (keyed by the serial epoch counter, so
      // the same epoch fails at any --jobs count).
      fault::maybe_fail("engine.epoch", epochs_used,
                        "injected engine failure at epoch " +
                            std::to_string(epochs_used));
      // Coarse epoch milestone for the flight recorder: cheap enough to
      // leave on (one note per 1024 epochs), keyed by the serial epoch
      // counter, so dumps are identical at any --jobs count.
      if (flight && (epochs_used & 1023u) == 1u) {
        obs::flight().note_at("epoch", phase.name, epochs_used, clock);
      }

      // --- fixed point: rates <-> channel multipliers ---
      // Rounds stop at the first one that leaves every multiplier's bits
      // unchanged: the next would read the same inputs and repeat it.  An
      // epoch that starts settled runs none, and `load` still holds what
      // its first round would have computed.
      for (int round = 0; !settled && round < config_.fixed_point_rounds;
           ++round) {
        load.reset_round();
        for (ThreadState& ts : states) {
          if (ts.phase_done) continue;
          const double cost = access_cost(ts, load);
          ts.unclamped_plan = std::max<std::uint64_t>(
              static_cast<std::uint64_t>(epoch_cycles / cost), 1);
          ts.planned =
              std::min<std::uint64_t>(ts.unclamped_plan, ts.current.remaining);
          if (profiling_demand) {
            // PEBS buffer flushes land in the thread's local DRAM.
            load.add_demand_index(
                ts.self_channel,
                static_cast<double>(ts.planned) /
                    static_cast<double>(config_.sample_period) *
                    config_.profiling_bytes_per_sample);
          }
          const double bpa = ts.current.profile.dram_bytes_per_access;
          if (bpa > 0.0) {
            for (const BurstState::HomeTerm& h : ts.current.homes) {
              load.add_demand_index(h.channel_index,
                                    static_cast<double>(ts.planned) * bpa *
                                        h.fraction,
                                    ts.current.profile.mlp * h.fraction);
            }
          }
        }
        ++local_rounds;
        settled = !load.finalize_round(epoch_cycles);
      }

      // --- ration saturated channels, then commit the epoch ---
      double max_used_fraction = 0.0;
      for (ThreadState& ts : states) {
        if (ts.phase_done) continue;
        BurstState& bs = ts.current;
        double service = 1.0;
        if (bs.profile.dram_bytes_per_access > 0.0) {
          for (const BurstState::HomeTerm& h : bs.homes) {
            service =
                std::min(service, load.service_fraction_index(h.channel_index));
          }
        }
        const auto served = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(static_cast<double>(ts.planned) * service));
        const std::uint64_t n = std::min<std::uint64_t>(served, bs.remaining);

        const double cost = access_cost(ts, load);
        max_used_fraction = std::max(
            max_used_fraction,
            std::min(1.0, static_cast<double>(n) * cost / epoch_cycles));

        if (config_.profiling) {
          emit_samples(ts, n, clock, cost, load, sample_tally, result);
        }

        // Traffic + latency accounting.
        const HitProfile& p = bs.profile;
        const auto& spec = machine_.spec();
        double dram_obs = 0.0;
        double remote_f = 0.0;
        if (p.dram > 0.0) {
          for (const BurstState::HomeTerm& h : bs.homes) {
            const double bytes =
                static_cast<double>(n) * p.dram_bytes_per_access * h.fraction;
            result.channels[static_cast<std::size_t>(h.channel_index)].bytes +=
                bytes;
            dram_obs +=
                h.fraction * h.idle_latency * load.multiplier_index(h.channel_index);
            if (h.home != ts.node) remote_f += h.fraction;
          }
          result.dram_accesses += static_cast<double>(n) * p.dram;
          result.remote_dram_accesses += static_cast<double>(n) * p.dram * remote_f;
          result.avg_dram_latency += static_cast<double>(n) * p.dram * dram_obs;
        }
        const double obs_latency =
            p.l1 * spec.l1.latency_cycles + p.l2 * spec.l2.latency_cycles +
            p.l3 * spec.l3.latency_cycles + p.lfb * spec.lfb_latency_cycles +
            p.dram * dram_obs;
        latency_sum += static_cast<double>(n) * obs_latency;
        latency_weight += static_cast<double>(n);

        result.total_accesses += n;
        bs.remaining -= n;
        if (bs.remaining == 0) {
          settled = false;
          if (ts.next_burst < ts.queue->size()) {
            activate_burst(ts, (*ts.queue)[ts.next_burst++]);
          } else {
            ts.phase_done = true;
            --live;
          }
        } else if (ts.unclamped_plan > bs.remaining) {
          // Next epoch's clamp binds where this one's may not have.
          settled = false;
        }
      }

      // Channel utilization bookkeeping from *served* traffic.
      ++local_epochs;
      std::vector<std::pair<std::string, double>> epoch_args;
      double max_mult = 1.0;
      for (int idx = 0; idx < machine_.num_channels(); ++idx) {
        const double cap =
            machine_.channel_capacity(machine_.channel_at(idx)) * epoch_cycles;
        const double offered = load.demand_bytes_index(idx);
        const double u = std::min(offered, cap) / cap;
        auto& ch = result.channels[static_cast<std::size_t>(idx)];
        ch.peak_utilization = std::max(ch.peak_utilization, u);
        if (offered > 0.0) {
          local_demand_bytes += static_cast<std::uint64_t>(offered);
          ++local_util_pct[static_cast<std::size_t>(std::llround(u * 100.0))];
          max_mult = std::max(max_mult, load.multiplier_index(idx));
          if (tracing) {
            epoch_args.emplace_back(channel_keys[static_cast<std::size_t>(idx)],
                                    u);
          }
        }
      }
      if (tracing && !epoch_args.empty()) {
        epoch_args.emplace_back("max_latency_multiplier", max_mult);
        obs::Trace::instance().counter("epoch", clock, std::move(epoch_args));
      }

      // Advance the clock; the phase's final epoch only costs the fraction
      // its busiest thread actually used.
      if (live == 0) {
        clock += static_cast<std::uint64_t>(
            std::max(1.0, max_used_fraction * epoch_cycles));
      } else {
        clock += config_.epoch_cycles;
      }
    }

    result.phases.push_back(PhaseResult{phase.name, clock - phase_start});
    if (tracing) {
      obs::Trace::instance().complete("phase", phase_start, clock - phase_start,
                                      {}, {{"name", phase.name}});
    }
    if (flight) {
      // Phase completion breadcrumb: sim-cycle timestamped, value = cycles
      // spent, aggregated into the manifest's span stats as "phase:<name>".
      obs::flight().note_at("phase", phase.name, clock - phase_start,
                            phase_start);
    }
  }

  metrics.runs.add(1);
  metrics.accesses.add(result.total_accesses);
  metrics.epochs.add(local_epochs);
  metrics.fixed_point_rounds.add(local_rounds);
  metrics.demand_bytes.add(local_demand_bytes);
  for (std::size_t pct = 0; pct < local_util_pct.size(); ++pct) {
    metrics.utilization_pct.observe_n(pct, local_util_pct[pct]);
  }
  result.total_cycles = clock;
  if (result.dram_accesses > 0.0) {
    result.avg_dram_latency /= result.dram_accesses;
  }
  if (latency_weight > 0.0) {
    result.avg_access_latency = latency_sum / latency_weight;
  }
  for (int idx = 0; idx < machine_.num_channels(); ++idx) {
    auto& ch = result.channels[static_cast<std::size_t>(idx)];
    const double cap = machine_.channel_capacity(machine_.channel_at(idx));
    const double total_epoch_bytes =
        cap * static_cast<double>(result.total_cycles);
    ch.busy_utilization =
        total_epoch_bytes > 0.0 ? ch.bytes / total_epoch_bytes : 0.0;
  }
  return result;
}

}  // namespace drbw::sim
