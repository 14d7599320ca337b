#include "drbw/workloads/training.hpp"

#include <algorithm>
#include <tuple>

#include "drbw/core/profiler.hpp"
#include "drbw/util/task_pool.hpp"
#include "drbw/workloads/mini.hpp"

namespace drbw::workloads {

namespace {

constexpr std::uint64_t kMiB = 1ull << 20;

/// One planned mini-program run: everything run_instance needs, enumerated
/// up front so the runs themselves can execute in any order.  The seed is
/// assigned during (serial) enumeration, which is what makes the generated
/// set independent of the worker count.
struct PlannedRun {
  ProxySpec spec;
  RunConfig config;
  bool rmc = false;
  std::uint64_t seed = 0;
  std::string description;
};

/// Runs one mini-program spec and turns it into a training instance.
TrainingInstance run_instance(const topology::Machine& machine,
                              const ProxySpec& spec, const RunConfig& config,
                              bool rmc, const TrainingOptions& options,
                              std::uint64_t run_seed,
                              const std::string& description) {
  mem::AddressSpace space(machine);
  ProxyBenchmark bench(spec);
  const BuiltWorkload built =
      bench.build(space, machine, config, PlacementMode::kOriginal, 0);
  sim::EngineConfig engine = options.engine;
  engine.seed = run_seed;
  const sim::RunResult run = execute(machine, space, built, engine);

  core::Profiler profiler(machine);
  const core::ProfileResult profile = profiler.profile(run);

  TrainingInstance instance;
  instance.program = spec.name;
  instance.config = description;
  instance.rmc = rmc;
  // Each run contributes the features of its most heavily loaded remote
  // channel — the channel a manual "rmc" judgment refers to.  Training on
  // the same per-channel scope the detector uses (§IV-B) keeps feature
  // magnitudes comparable between training and deployment.
  const auto channels = features::extract_channels(profile, machine);
  const features::ChannelFeatures* best = nullptr;
  for (const features::ChannelFeatures& cf : channels) {
    if (best == nullptr || cf.features.values[5] > best->features.values[5] ||
        (cf.features.values[5] == best->features.values[5] &&
         cf.features.scope_samples > best->features.scope_samples)) {
      best = &cf;
    }
  }
  DRBW_CHECK_MSG(best != nullptr,
                 "run '" << spec.name << ' ' << description
                         << "' produced no per-channel features — the machine "
                            "reports no channels to extract from");
  instance.features = best->features;
  if (options.with_candidates) {
    instance.candidates = features::extract_candidates(profile);
  }
  for (int idx = 0; idx < machine.num_channels(); ++idx) {
    if (machine.channel_at(idx).is_local()) continue;
    instance.peak_remote_utilization =
        std::max(instance.peak_remote_utilization,
                 run.channels[static_cast<std::size_t>(idx)].peak_utilization);
  }
  return instance;
}

using SpecFactory = ProxySpec (*)(std::uint64_t, bool);

void add_vector_runs(std::vector<PlannedRun>& out, SpecFactory factory,
                     bool compute_bound, std::uint64_t& seed) {
  // 24 "good" runs in two families:
  //  * 16 parallel-first-touch runs, including T8-N1 at the largest size,
  //    which saturates node 0's *local* memory controller — loud latency,
  //    zero remote contention (the consumption-vs-contention confound);
  //  * 8 master-allocated runs with only one or two remote threads per
  //    link: real remote traffic, mildly elevated latency, but no
  //    saturation.  These land near the class boundary, as the paper's
  //    tuned-but-manually-examined configurations did.
  const std::uint64_t good_sizes[] = {16 * kMiB, 256 * kMiB};
  const RunConfig good_local_configs[] = {{1, 1}, {2, 1}, {4, 1}, {8, 1},
                                          {4, 2}, {8, 2}, {12, 3}, {16, 4}};
  for (const std::uint64_t size : good_sizes) {
    for (const RunConfig& config : good_local_configs) {
      out.push_back(PlannedRun{
          factory(size, /*master_alloc=*/false), config,
          /*rmc=*/false, ++seed,
          config.name() + " " + std::to_string(size / kMiB) + "MiB local"});
    }
  }
  // For the compute-bound program (countv), {12,4} runs three remote
  // streamers per link at ~88% utilization — judged good on inspection, but
  // with latencies that overlap countv's own most marginal rmc runs.  The
  // memory-bound programs saturate outright at three streamers, so they get
  // the lighter {6,3} instead.  This boundary population is what keeps the
  // learned tree honest (and mirrors the judgment calls behind the paper's
  // manually labelled 192 runs).
  const RunConfig good_master_configs[] = {
      {2, 2}, {4, 4}, {8, 4}, compute_bound ? RunConfig{12, 4} : RunConfig{6, 3}};
  for (const std::uint64_t size : good_sizes) {
    for (const RunConfig& config : good_master_configs) {
      out.push_back(PlannedRun{
          factory(size, /*master_alloc=*/true), config,
          /*rmc=*/false, ++seed,
          config.name() + " " + std::to_string(size / kMiB) + "MiB master-light"});
    }
  }
  // 24 "rmc" runs: master-thread allocation homes the vectors on node 0
  // while threads on the other nodes stream them — the channels into node 0
  // saturate.
  // The {8,2} configuration sits right at the saturation knee: four remote
  // streamers hold the reverse link at its Little's-law-bounded latency —
  // contended, but only ~2x over idle.  Together with countv's {12,4}
  // "good" runs just below it, this reproduces the boundary noise the
  // paper's manual labelling carried (its own CV loses 5 of 192 instances,
  // Table III).
  const std::uint64_t rmc_sizes[] = {256 * kMiB, 512 * kMiB, 1024 * kMiB};
  const RunConfig rmc_configs[] = {{8, 2},  {16, 2}, {32, 2}, {16, 4},
                                   {24, 4}, {32, 4}, {64, 4}, {24, 3}};
  for (const std::uint64_t size : rmc_sizes) {
    for (const RunConfig& config : rmc_configs) {
      out.push_back(PlannedRun{
          factory(size, /*master_alloc=*/true), config,
          /*rmc=*/true, ++seed,
          config.name() + " " + std::to_string(size / kMiB) + "MiB master"});
    }
  }
}

void add_bandit_runs(std::vector<PlannedRun>& out, std::uint64_t& seed) {
  // 48 "good" runs (Table II lists no rmc bandit runs): stream counts and
  // co-running instance counts tuned to exercise different bandwidth
  // demand levels while staying clear of saturation; buffers placed on the
  // local node or an explicit remote node.
  const std::uint32_t stream_counts[] = {1, 2, 4, 8};
  const int instance_counts[] = {1, 2};
  const topology::NodeId homes[] = {0, 1};
  const std::uint64_t sizes[] = {64 * kMiB, 128 * kMiB, 256 * kMiB};
  for (const std::uint64_t size : sizes) {
    for (const std::uint32_t streams : stream_counts) {
      for (const int instances : instance_counts) {
        for (const topology::NodeId home : homes) {
          const RunConfig config{instances, 1};  // instances co-run on node 0
          out.push_back(PlannedRun{
              bandit_spec(streams, home, size), config,
              /*rmc=*/false, ++seed,
              config.name() + " s" + std::to_string(streams) + " " +
                  (home == 0 ? "local" : "remote") + " " +
                  std::to_string(size / kMiB) + "MiB"});
        }
      }
    }
  }
}

}  // namespace

TrainingSet generate_training_set(const topology::Machine& machine,
                                  const TrainingOptions& options) {
  // Enumerate all runs serially — the Table II composition and per-run
  // seeds never depend on the worker count — then execute them on the
  // pool.  Each run writes only its own slot, so the resulting set is
  // bitwise identical for any `jobs` value.
  std::vector<PlannedRun> planned;
  std::uint64_t seed = options.seed;
  add_vector_runs(planned, sumv_spec, /*compute_bound=*/false, seed);
  add_vector_runs(planned, dotv_spec, /*compute_bound=*/false, seed);
  add_vector_runs(planned, countv_spec, /*compute_bound=*/true, seed);
  add_bandit_runs(planned, seed);

  TrainingSet set;
  set.instances.resize(planned.size());
  util::TaskPool pool(options.jobs);
  pool.parallel_for(planned.size(), [&](std::size_t i) {
    const PlannedRun& run = planned[i];
    set.instances[i] = run_instance(machine, run.spec, run.config, run.rmc,
                                    options, run.seed, run.description);
  });
  return set;
}

ml::Dataset TrainingSet::dataset() const {
  ml::Dataset data(std::vector<std::string>(
      features::selected_feature_names().begin(),
      features::selected_feature_names().end()));
  for (const TrainingInstance& inst : instances) {
    data.add(inst.features.as_row(),
             inst.rmc ? ml::Label::kRmc : ml::Label::kGood,
             inst.program + " " + inst.config);
  }
  return data;
}

std::vector<features::LabelledRun> TrainingSet::labelled_runs() const {
  std::vector<features::LabelledRun> runs;
  for (const TrainingInstance& inst : instances) {
    DRBW_CHECK_MSG(!inst.candidates.empty(),
                   "training set generated without candidates; set "
                   "TrainingOptions::with_candidates");
    runs.push_back(features::LabelledRun{inst.program, inst.rmc, inst.candidates});
  }
  return runs;
}

std::vector<std::tuple<std::string, int, int>> TrainingSet::composition() const {
  std::vector<std::tuple<std::string, int, int>> rows;
  for (const TrainingInstance& inst : instances) {
    auto it = std::find_if(rows.begin(), rows.end(), [&](const auto& r) {
      return std::get<0>(r) == inst.program;
    });
    if (it == rows.end()) {
      rows.emplace_back(inst.program, 0, 0);
      it = rows.end() - 1;
    }
    (inst.rmc ? std::get<2>(*it) : std::get<1>(*it))++;
  }
  return rows;
}

ml::TreeParams default_tree_params() {
  // A Fig. 3-sized tree: two levels are enough to express "many remote
  // samples at high latency"; deeper trees only memorize the handful of
  // deliberately ambiguous boundary runs and lose cross-validation accuracy.
  ml::TreeParams params;
  params.max_depth = 2;
  params.min_samples_leaf = 1;
  params.min_samples_split = 3;
  return params;
}

ml::Classifier train_default_classifier(const topology::Machine& machine,
                                        std::uint64_t seed, int jobs) {
  TrainingOptions options;
  options.seed = seed;
  options.jobs = jobs;
  const TrainingSet set = generate_training_set(machine, options);
  return ml::Classifier::train(set.dataset(), default_tree_params());
}

}  // namespace drbw::workloads
