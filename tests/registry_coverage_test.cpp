// Registry coverage: every name in tools/analyze/registry.json must be
// *observably* emitted by a real execution, not just registered.  This suite
// drives one small end-to-end slice of each subsystem — engine run, profile,
// train, cross-validate, model save/load, trace save/load, task
// pool, full DrBw analyze with a diagnosis — and then asserts the metric
// registry export and the structured trace actually contain every contract
// name.  drbw_analyze's `untested-name` rule checks these names appear in a
// test; this file is where they are earned, with behavior attached.
//
// The two chaos-only fault sites ("diagnose.cf", "model.write") are armed
// and proven to fire here as well.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "drbw/drbw.hpp"
#include "drbw/fault/injector.hpp"
#include "drbw/ml/metrics.hpp"
#include "drbw/obs/metrics.hpp"
#include "drbw/obs/trace.hpp"
#include "drbw/pebs/trace_io.hpp"
#include "drbw/util/task_pool.hpp"

namespace drbw {
namespace {

using mem::AddressSpace;
using mem::PlacementSpec;
using sim::Engine;
using sim::EngineConfig;
using sim::Phase;
using sim::SimThread;
using sim::ThreadWork;
using topology::Machine;

std::string fresh_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + "/drbw_registry_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

ErrorCode code_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected a drbw::Error";
  return ErrorCode::kGeneric;
}

struct ArmGuard {
  explicit ArmGuard(const std::string& spec) {
    fault::Injector::global().arm(fault::Plan::parse(spec));
  }
  ~ArmGuard() { fault::Injector::global().disarm(); }
  ArmGuard(const ArmGuard&) = delete;
  ArmGuard& operator=(const ArmGuard&) = delete;
};

/// Bound run: threads on every node stream one node-0 array — the paper's
/// problematic placement, guaranteeing remote traffic into node 0.
sim::RunResult bound_run(const Machine& machine, AddressSpace& space,
                         int threads_per_node, std::uint64_t accesses,
                         std::uint64_t seed) {
  const auto obj =
      space.allocate("app.c:42 data", 1ull << 30, PlacementSpec::bind(0));
  std::vector<SimThread> threads;
  Phase phase{"main", {}};
  std::uint32_t tid = 0;
  for (int n = 0; n < 4; ++n) {
    for (int t = 0; t < threads_per_node; ++t) {
      threads.push_back(
          SimThread{tid++, machine.cpus_of_node(n)[static_cast<std::size_t>(t)]});
      phase.work.push_back(ThreadWork{{sim::seq_read(obj, accesses)}, 1.0});
    }
  }
  EngineConfig cfg;
  cfg.epoch_cycles = 50'000;
  cfg.seed = seed;
  Engine engine(machine, space, cfg);
  return engine.run(threads, {phase});
}

/// A classifier that calls every channel contended: a single-class training
/// set collapses to one kRmc leaf.  Coverage needs the *pipeline* executed,
/// not a clever model.
ml::Classifier always_rmc_model() {
  ml::Dataset data(std::vector<std::string>(
      features::selected_feature_names().begin(),
      features::selected_feature_names().end()));
  const std::size_t arity = features::selected_feature_names().size();
  for (int r = 0; r < 4; ++r) {
    data.add(std::vector<double>(arity, static_cast<double>(r)),
             ml::Label::kRmc);
  }
  return ml::Classifier::train(data);
}

pebs::Trace small_trace() {
  pebs::Trace trace;
  trace.events.push_back(mem::AllocationEvent{
      mem::AllocationEvent::Kind::kAlloc, {"cov.c:1 buf"}, 0x10000, 4096});
  std::vector<pebs::MemorySample> samples;
  for (std::size_t i = 0; i < 64; ++i) {
    pebs::MemorySample s;
    s.address = 0x10000 + (i * 64) % 4096;
    s.cpu = static_cast<topology::CpuId>(i % 8);
    s.tid = static_cast<std::uint32_t>(i % 4);
    s.level = static_cast<pebs::MemLevel>(i % 6);
    s.latency_cycles = 20.0f + static_cast<float>(i);
    s.is_write = i % 3 == 0;
    s.cycle = 100 + i * 10;
    samples.push_back(s);
  }
  trace.samples = std::move(samples);
  return trace;
}

class RegistryCoverageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Trace::instance().clear();
    obs::Trace::instance().enable(obs::TimingMode::kSim);
  }
  void TearDown() override {
    obs::Trace::instance().disable();
    obs::Trace::instance().clear();
  }
  Machine machine_ = Machine::xeon_e5_4650();
};

TEST_F(RegistryCoverageTest, EveryRegisteredNameIsEmittedByThePipeline) {
  const std::string dir = fresh_dir("pipeline");

  // Engine + profile + classify + diagnose: sim, pebs, core, ml-predict,
  // tool, and diagnoser instrumentation.
  AddressSpace space(machine_);
  const auto run = bound_run(machine_, space, 2, 150'000, 42);
  AnalysisConfig config;
  config.sparse_guard = {1, 1};
  const DrBw tool(machine_, always_rmc_model(), config);
  const Report report = tool.analyze(run);
  ASSERT_TRUE(report.rmc);  // always-rmc model ⇒ the diagnose stage ran

  // Train/cross-validate on a separable two-class set: ml training metrics
  // and the cross_validate span.
  ml::Dataset cv({"signal", "noise"});
  for (int i = 0; i < 8; ++i) {
    cv.add({static_cast<double>(i % 2), static_cast<double>(i) / 8.0},
           i % 2 == 0 ? ml::Label::kGood : ml::Label::kRmc);
  }
  const auto cv_result = ml::stratified_kfold(cv, 2, ml::TreeParams{}, 7);
  EXPECT_EQ(cv_result.folds, 2);

  // Model persistence round trip ("model.write" site, clean path).
  const ml::Classifier model = always_rmc_model();
  model.save(dir + "/model.json");
  (void)ml::Classifier::load(dir + "/model.json");

  // Trace round trip: the trace loader's metrics.
  pebs::SaveOptions save;
  save.format = pebs::TraceFormat::kBinary;
  pebs::save_trace(dir + "/t.bin", small_trace(), save);
  (void)pebs::load_trace(dir + "/t.bin");

  // Task pool: worker/enqueue/run instrumentation.
  util::TaskPool pool(2);
  std::vector<int> hits(8, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i] = 1; });

  // --- the actual contract check -------------------------------------
  const std::string metrics =
      obs::Registry::global().prometheus_text(/*include_diagnostic=*/true);
  const char* const kMetricNames[] = {
      "drbw_core_heap_alloc_bytes_total", "drbw_core_heap_allocs_total",
      "drbw_core_heap_frees_total", "drbw_core_heap_live_bytes_peak",
      "drbw_core_profile_calls_total", "drbw_core_samples_attributed_total",
      "drbw_core_samples_unattributed_total", "drbw_ml_cv_folds_total",
      "drbw_ml_leaf_nodes_total", "drbw_ml_split_nodes_total",
      "drbw_ml_trees_trained_total", "drbw_pebs_draws_total",
      "drbw_pipeline_channels_classified_total",
      "drbw_pool_tasks_enqueued_total", "drbw_pool_tasks_run_total",
      "drbw_pool_workers", "drbw_sim_accesses_total",
      "drbw_sim_demand_bytes_total", "drbw_sim_epoch_channel_utilization_pct",
      "drbw_sim_epochs_total", "drbw_sim_fixed_point_rounds_total",
      "drbw_sim_runs_total", "drbw_sim_sample_latency_cycles",
      "drbw_sim_samples_below_threshold_total",
      "drbw_sim_samples_fault_corrupted_total",
      "drbw_sim_samples_fault_dropped_total", "drbw_sim_samples_total",
      "drbw_trace_bytes_loaded_total", "drbw_trace_checksum_failures_total",
      "drbw_trace_records_quarantined_total", "drbw_trace_records_total"};
  for (const char* name : kMetricNames) {
    EXPECT_NE(metrics.find(name), std::string::npos)
        << "metric '" << name << "' missing from the registry export — "
        << "either dead instrumentation or this test no longer drives its "
        << "subsystem";
  }

  const std::string trace_json = obs::Trace::instance().to_json();
  const char* const kSpanNames[] = {"profile", "featurize", "classify",
                                    "diagnose", "cross_validate",
                                    "tree_train"};
  for (const char* name : kSpanNames) {
    EXPECT_NE(trace_json.find(std::string("\"") + name + "\""),
              std::string::npos)
        << "span '" << name << "' missing from the structured trace";
  }
}

TEST_F(RegistryCoverageTest, DiagnoseCfFaultSiteFires) {
  AddressSpace space(machine_);
  const auto run = bound_run(machine_, space, 2, 100'000, 7);
  AnalysisConfig config;
  config.sparse_guard = {1, 1};
  const DrBw tool(machine_, always_rmc_model(), config);

  const ArmGuard guard("seed=1,diagnose.cf:fail:1");
  EXPECT_EQ(code_of([&] { (void)tool.analyze(run); }),
            ErrorCode::kFaultInjected);
}

TEST_F(RegistryCoverageTest, ModelWriteFaultSiteTruncatesArtifact) {
  const std::string dir = fresh_dir("modelfault");
  const ml::Classifier model = always_rmc_model();
  {
    const ArmGuard guard("seed=1,model.write:truncate:1");
    model.save(dir + "/model.json");
  }
  // The truncated artifact must be detected on load, not parsed blindly.
  EXPECT_EQ(code_of([&] { (void)ml::Classifier::load(dir + "/model.json"); }),
            ErrorCode::kCorruptArtifact);
}

}  // namespace
}  // namespace drbw
