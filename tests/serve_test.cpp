// drbw::serve — online contention detection with bounded ingest.
//
// The serve contract this suite pins down:
//   * exact admission accounting per overload policy (block / shed-oldest /
//     reject) at a fixed queue depth — the counts are pure functions of the
//     stream, so they are asserted exactly, not approximately;
//   * injected ingest drops ("serve.ingest") match independent direct draws
//     of the same keys — fault patterns are content-keyed, never call-order
//     keyed;
//   * the circuit breaker trips after exactly breaker_threshold consecutive
//     faults ("serve.session"), and retry/backoff accounting is exact;
//   * results and snapshots are byte-identical at any --jobs value, at both
//     window-capacity extremes and through a quarantine that clears a
//     client's sliding window mid-run;
//   * --max-cycles shutdown still drains: every sample is accounted and the
//     final snapshot ("serve.snapshot" span) is written;
//   * a missing/corrupt model degrades the run (exit 0, degraded manifest)
//     instead of failing it — through the real CLI binary;
//   * doctor and fleet read serve runs back: DEGRADED / quarantine /
//     overflow findings, and the fleet "## Serve" section that only appears
//     when the corpus actually contains serve runs.
//
// The registry names earned here (paired with registry_coverage_test):
// metrics drbw_serve_samples_ingested_total, drbw_serve_samples_admitted_total,
// drbw_serve_samples_shed_total, drbw_serve_samples_rejected_total,
// drbw_serve_samples_deferred_total, drbw_serve_samples_dropped_total,
// drbw_serve_windows_classified_total, drbw_serve_windows_rmc_total,
// drbw_serve_ticks_total, drbw_serve_faults_total, drbw_serve_retries_total,
// drbw_serve_clients_quarantined_total, drbw_serve_window_updates_total,
// drbw_serve_queue_depth_peak,
// drbw_model_confidence_bucket, drbw_model_drift_score; spans
// serve.tick and serve.snapshot; fault sites serve.ingest, serve.session,
// serve.window, serve.classify; stage serve.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "drbw/fault/injector.hpp"
#include "drbw/features/selected.hpp"
#include "drbw/features/window.hpp"
#include "drbw/ml/dataset.hpp"
#include "drbw/ml/decision_tree.hpp"
#include "drbw/obs/metrics.hpp"
#include "drbw/obs/trace.hpp"
#include "drbw/pebs/session.hpp"
#include "drbw/pebs/trace_io.hpp"
#include "drbw/report/fleet.hpp"
#include "drbw/report/postmortem.hpp"
#include "drbw/serve/queue.hpp"
#include "drbw/serve/server.hpp"
#include "drbw/topology/machine.hpp"
#include "drbw/util/artifact.hpp"
#include "drbw/util/error.hpp"
#include "drbw/util/rng.hpp"
#include "drbw/util/stats.hpp"

namespace drbw {
namespace {

using topology::Machine;

// ctest runs every discovered test in its own process, and the CliWorld
// fixture below is rebuilt per process — key the tree by pid so parallel
// test processes never remove_all each other's world mid-record.
std::string fresh_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + "/drbw_serve_" +
                          std::to_string(::getpid()) + "_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
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

int run_cli(const std::string& args, const std::string& shell_prefix = "") {
  const std::string cmd = shell_prefix + std::string(DRBW_CLI_PATH) + " " +
                          args + " >/dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

/// A classifier that calls every channel contended: a single-class training
/// set collapses to one kRmc leaf.  The suite tests the serve *loop*, not a
/// clever model.
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

/// `n` samples on one CPU / memory level, cycles 100..100+n-1, one tracked
/// allocation covering every address.  With clients=1 this becomes a single
/// dense stream with exactly predictable admission counts.
pebs::Trace flat_trace(std::size_t n, topology::CpuId cpu,
                       pebs::MemLevel level) {
  pebs::Trace trace;
  trace.events.push_back(mem::AllocationEvent{
      mem::AllocationEvent::Kind::kAlloc, {"serve.c:1 buf"}, 0x10000, 4096});
  for (std::size_t i = 0; i < n; ++i) {
    pebs::MemorySample s;
    s.address = 0x10000 + (i * 64) % 4096;
    s.cpu = cpu;
    s.tid = static_cast<std::uint32_t>(i % 4);
    s.level = level;
    s.latency_cycles = 600.0f;
    s.is_write = i % 3 == 0;
    s.cycle = 100 + i;
    trace.samples.push_back(s);
  }
  return trace;
}

/// Multi-node, multi-level stream for the jobs-identity test: 8 tids over
/// `clients` sessions, CPUs spread across all four nodes.
pebs::Trace mixed_trace(const Machine& machine, std::size_t n) {
  pebs::Trace trace;
  trace.events.push_back(mem::AllocationEvent{
      mem::AllocationEvent::Kind::kAlloc, {"serve.c:2 grid"}, 0x20000,
      64 * 1024});
  for (std::size_t i = 0; i < n; ++i) {
    pebs::MemorySample s;
    s.address = 0x20000 + (i * 64) % (64 * 1024);
    s.cpu = machine.cpus_of_node(static_cast<topology::NodeId>(i % 4))[0];
    s.tid = static_cast<std::uint32_t>(i % 8);
    s.level = i % 3 == 0 ? pebs::MemLevel::kRemoteDram
                         : pebs::MemLevel::kLocalDram;
    s.latency_cycles = 80.0f + static_cast<float>(i % 7) * 100.0f;
    s.is_write = i % 5 == 0;
    s.cycle = 100 + i * 5;
    trace.samples.push_back(s);
  }
  return trace;
}

/// Pops up to `max` ordinals off `q`, oldest first.
std::vector<std::uint32_t> drain_ordinals(serve::BoundedQueue& q,
                                          std::size_t max) {
  std::vector<std::uint32_t> out;
  q.drain(max, [&](std::uint32_t ordinal) { out.push_back(ordinal); });
  return out;
}

// ---------------------------------------------------------------------------
// Session slicing
// ---------------------------------------------------------------------------

TEST(ServeSessionTest, SlicesByTidAndStampsGlobalOrdinals) {
  // flat_trace gives sample i tid i % 4, so with 2 clients client c owns
  // exactly the ordinals c, c + 2, c + 4, ... — ascending, in trace order.
  const pebs::Trace trace = flat_trace(12, 0, pebs::MemLevel::kLocalDram);
  const pebs::Sessions sessions = pebs::slice_sessions(trace, 2);
  ASSERT_EQ(sessions.clients.size(), 2u);
  for (std::uint32_t c = 0; c < 2; ++c) {
    const pebs::ClientSession& session = sessions.clients[c];
    EXPECT_EQ(session.client, c);
    std::vector<std::uint32_t> expected;
    for (std::uint32_t i = c; i < 12; i += 2) expected.push_back(i);
    EXPECT_EQ(session.ordinals, expected);
    for (const std::uint32_t ordinal : session.ordinals) {
      EXPECT_EQ(trace.samples[ordinal].tid % 2, c);
    }
  }
  // The slicing pass also takes the cycle span the serve loop needs.
  EXPECT_EQ(sessions.cycle_span, 111u);

  const pebs::Sessions empty = pebs::slice_sessions(pebs::Trace{}, 3);
  ASSERT_EQ(empty.clients.size(), 3u);
  EXPECT_EQ(empty.clients[2].client, 2u);
  EXPECT_TRUE(empty.clients[2].ordinals.empty());
  EXPECT_EQ(empty.cycle_span, 0u);
  EXPECT_EQ(code_of([&] { (void)pebs::slice_sessions(trace, 0); }),
            ErrorCode::kUsage);
}

// ---------------------------------------------------------------------------
// Bounded queue policies
// ---------------------------------------------------------------------------

TEST(BoundedQueueTest, BlockDefersWhenFull) {
  serve::BoundedQueue q(2, serve::OverloadPolicy::kBlock);
  EXPECT_EQ(q.push(0), serve::AdmitResult::kAdmitted);
  EXPECT_EQ(q.push(1), serve::AdmitResult::kAdmitted);
  EXPECT_EQ(q.push(2), serve::AdmitResult::kDeferred);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.admitted(), 2u);
  EXPECT_EQ(q.deferred(), 1u);
}

TEST(BoundedQueueTest, ShedOldestEvictsTheOldestSample) {
  serve::BoundedQueue q(2, serve::OverloadPolicy::kShedOldest);
  EXPECT_EQ(q.push(0), serve::AdmitResult::kAdmitted);
  EXPECT_EQ(q.push(1), serve::AdmitResult::kAdmitted);
  EXPECT_EQ(q.push(2), serve::AdmitResult::kShed);
  EXPECT_EQ(q.admitted(), 3u);
  EXPECT_EQ(q.shed(), 1u);
  // Ordinal 0 was evicted.
  EXPECT_EQ(drain_ordinals(q, 10), (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueueTest, RejectRefusesTheIncomingSample) {
  serve::BoundedQueue q(2, serve::OverloadPolicy::kReject);
  EXPECT_EQ(q.push(0), serve::AdmitResult::kAdmitted);
  EXPECT_EQ(q.push(1), serve::AdmitResult::kAdmitted);
  EXPECT_EQ(q.push(2), serve::AdmitResult::kRejected);
  EXPECT_EQ(q.rejected(), 1u);
  EXPECT_EQ(q.peak(), 2u);
  // The newest data was lost, the oldest kept.
  EXPECT_EQ(drain_ordinals(q, 10), (std::vector<std::uint32_t>{0, 1}));
}

TEST(BoundedQueueTest, RingMatchesADequeModelUnderRandomTraffic) {
  // Random push/drain traffic against a std::deque reference queue.  Pushes
  // outnumber drained samples, so every queue keeps overflowing and the
  // ring's head wraps around its slots many times under shed-oldest.
  Rng rng(2017);
  for (std::size_t depth = 1; depth <= 9; ++depth) {
    for (const serve::OverloadPolicy policy :
         {serve::OverloadPolicy::kBlock, serve::OverloadPolicy::kShedOldest,
          serve::OverloadPolicy::kReject}) {
      SCOPED_TRACE(std::string(serve::overload_policy_name(policy)) +
                   " depth " + std::to_string(depth));
      serve::BoundedQueue q(depth, policy);
      std::deque<std::uint32_t> model;
      std::uint64_t admitted = 0, shed = 0, rejected = 0, deferred = 0;
      std::size_t peak = 0;
      std::uint32_t next = 0;
      for (int step = 0; step < 2000; ++step) {
        if (rng.bounded(3) != 0) {
          const std::uint32_t ordinal = next++;
          serve::AdmitResult expected = serve::AdmitResult::kAdmitted;
          if (model.size() < depth) {
            model.push_back(ordinal);
            ++admitted;
            peak = std::max(peak, model.size());
          } else if (policy == serve::OverloadPolicy::kBlock) {
            ++deferred;
            expected = serve::AdmitResult::kDeferred;
          } else if (policy == serve::OverloadPolicy::kShedOldest) {
            model.pop_front();
            model.push_back(ordinal);
            ++admitted;
            ++shed;
            expected = serve::AdmitResult::kShed;
          } else {
            ++rejected;
            expected = serve::AdmitResult::kRejected;
          }
          ASSERT_EQ(q.push(ordinal), expected) << "step " << step;
        } else {
          const std::size_t max = rng.bounded(depth + 2);
          std::vector<std::uint32_t> expected;
          while (expected.size() < max && !model.empty()) {
            expected.push_back(model.front());
            model.pop_front();
          }
          ASSERT_EQ(drain_ordinals(q, max), expected) << "step " << step;
        }
        ASSERT_EQ(q.size(), model.size()) << "step " << step;
      }
      EXPECT_EQ(q.admitted(), admitted);
      EXPECT_EQ(q.shed(), shed);
      EXPECT_EQ(q.rejected(), rejected);
      EXPECT_EQ(q.deferred(), deferred);
      EXPECT_EQ(q.peak(), peak);
    }
  }
}

TEST(OrdinalRingTest, GrowsWhileWrappedAndKeepsFifoOrder) {
  // Leave the head mid-ring, wrap the tail past the end, then push past
  // the slot count: growth must keep the order.
  Rng rng(7);
  serve::OrdinalRing ring;
  std::deque<std::uint32_t> model;
  std::uint32_t next = 0;
  for (int step = 0; step < 5000; ++step) {
    // Net growth: the ring passes 16, 32, ... slots with its head anywhere.
    if (model.empty() || rng.bounded(5) < 3) {
      ring.push_back(next);
      model.push_back(next++);
    } else {
      ASSERT_EQ(ring.pop_front(), model.front()) << "step " << step;
      model.pop_front();
    }
    ASSERT_EQ(ring.size(), model.size());
  }
  ASSERT_GT(model.size(), 64u);
  while (!model.empty()) {
    ASSERT_EQ(ring.pop_front(), model.front());
    model.pop_front();
  }
  EXPECT_EQ(ring.size(), 0u);
  ring.push_back(42);
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
}

TEST(BoundedQueueTest, PolicyAndAdmitTokensRoundTrip) {
  for (const serve::OverloadPolicy policy :
       {serve::OverloadPolicy::kBlock, serve::OverloadPolicy::kShedOldest,
        serve::OverloadPolicy::kReject}) {
    EXPECT_EQ(serve::overload_policy_from_name(
                  serve::overload_policy_name(policy)),
              policy);
  }
  EXPECT_STREQ(serve::overload_policy_name(serve::OverloadPolicy::kShedOldest),
               "shed-oldest");
  EXPECT_EQ(code_of([] { (void)serve::overload_policy_from_name("bogus"); }),
            ErrorCode::kUsage);
  EXPECT_STREQ(serve::admit_result_name(serve::AdmitResult::kAdmitted),
               "admitted");
  EXPECT_STREQ(serve::admit_result_name(serve::AdmitResult::kDeferred),
               "deferred");
}

// ---------------------------------------------------------------------------
// Serve loop: exact overload accounting (100 samples, 1 client, depth 16,
// one giant ingest window, drain = depth).
// ---------------------------------------------------------------------------

serve::ServeOptions one_client_options(serve::OverloadPolicy policy) {
  serve::ServeOptions opts;
  opts.clients = 1;
  opts.queue_depth = 16;
  opts.overload = policy;
  opts.window_cycles = 1'000'000'000;  // everything arrives in tick 0
  return opts;
}

TEST(ServeLoopTest, ShedOldestExactCounts) {
  const Machine machine = Machine::xeon_e5_4650();
  const pebs::Trace trace = flat_trace(100, 0, pebs::MemLevel::kLocalDram);
  serve::Server server(machine, nullptr,
                       one_client_options(serve::OverloadPolicy::kShedOldest));
  const serve::ServeResult r = server.run(trace);
  EXPECT_EQ(r.samples_in, 100u);
  EXPECT_EQ(r.samples_admitted, 100u);  // every sample entered the queue...
  EXPECT_EQ(r.samples_shed, 84u);       // ...evicting 100 - depth old ones
  EXPECT_EQ(r.samples_rejected, 0u);
  EXPECT_EQ(r.samples_deferred, 0u);
  EXPECT_EQ(r.samples_dropped, 0u);
  EXPECT_EQ(r.ticks, 1u);
  ASSERT_EQ(r.clients.size(), 1u);
  EXPECT_EQ(r.clients[0].peak_depth, 16u);
  EXPECT_TRUE(r.drained);
  // No model: pass-through telemetry, fully accounted but never classified.
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.windows_classified, 0u);
  EXPECT_NE(r.snapshot_json.find("\"degraded\": true"), std::string::npos);
}

TEST(ServeLoopTest, RejectExactCounts) {
  const Machine machine = Machine::xeon_e5_4650();
  const pebs::Trace trace = flat_trace(100, 0, pebs::MemLevel::kLocalDram);
  serve::Server server(machine, nullptr,
                       one_client_options(serve::OverloadPolicy::kReject));
  const serve::ServeResult r = server.run(trace);
  EXPECT_EQ(r.samples_admitted, 16u);  // the queue fills once...
  EXPECT_EQ(r.samples_rejected, 84u);  // ...and refuses the rest
  EXPECT_EQ(r.samples_shed, 0u);
  EXPECT_EQ(r.samples_dropped, 0u);
  EXPECT_EQ(r.ticks, 1u);
}

TEST(ServeLoopTest, BlockBackpressureIsLossless) {
  const Machine machine = Machine::xeon_e5_4650();
  const pebs::Trace trace = flat_trace(100, 0, pebs::MemLevel::kLocalDram);
  serve::Server server(machine, nullptr,
                       one_client_options(serve::OverloadPolicy::kBlock));
  const serve::ServeResult r = server.run(trace);
  // 16 admitted per tick; the remainder is pushed back and re-offered:
  // deferred events 84 + 68 + 52 + 36 + 20 + 4 across 7 ticks.
  EXPECT_EQ(r.samples_admitted, 100u);
  EXPECT_EQ(r.samples_deferred, 264u);
  EXPECT_EQ(r.samples_shed, 0u);
  EXPECT_EQ(r.samples_rejected, 0u);
  EXPECT_EQ(r.samples_dropped, 0u);
  EXPECT_EQ(r.ticks, 7u);
  EXPECT_TRUE(r.drained);
}

TEST(ServeLoopTest, ClassifiesWindowsWithAModel) {
  const Machine machine = Machine::xeon_e5_4650();
  // Remote traffic: node-1 CPU reading node-0 homed pages (the replay
  // locator homes every recorded allocation on node 0).
  const pebs::Trace trace =
      flat_trace(64, machine.cpus_of_node(1)[0], pebs::MemLevel::kRemoteDram);
  const ml::Classifier model = always_rmc_model();
  serve::ServeOptions opts = one_client_options(serve::OverloadPolicy::kBlock);
  opts.queue_depth = 64;
  opts.sparse_guard = {1, 1};
  serve::Server server(machine, &model, opts);
  const serve::ServeResult r = server.run(trace);
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(r.windows_classified, 1u);
  EXPECT_EQ(r.windows_rmc, 1u);  // always-rmc model + a populated channel
  EXPECT_NE(r.snapshot_json.find("\"degraded\": false"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Model observability: timeline, confidence, drift
// ---------------------------------------------------------------------------

TEST(ServeModelObsTest, SnapshotCarriesTimelineAndDriftSection) {
  const Machine machine = Machine::xeon_e5_4650();
  const pebs::Trace trace =
      flat_trace(64, machine.cpus_of_node(1)[0], pebs::MemLevel::kRemoteDram);
  const ml::Classifier model = always_rmc_model();
  ASSERT_TRUE(model.has_drift_baseline());
  serve::ServeOptions opts = one_client_options(serve::OverloadPolicy::kBlock);
  opts.queue_depth = 64;
  opts.sparse_guard = {1, 1};
  serve::Server server(machine, &model, opts);
  const serve::ServeResult r = server.run(trace);
  EXPECT_TRUE(r.drift_available);
  EXPECT_GT(r.confidence_p50, 0.0);
  ASSERT_FALSE(r.timeline.empty());
  EXPECT_EQ(r.timeline[0].windows, 1u);
  EXPECT_NE(r.snapshot_json.find("\"timeline\": ["), std::string::npos);
  EXPECT_NE(r.snapshot_json.find("\"drift\": {"), std::string::npos);
  EXPECT_NE(r.snapshot_json.find("\"confidence_p50\""), std::string::npos);
}

TEST(ServeModelObsTest, ModellessRunsOmitDriftButKeepTheTimelineField) {
  const Machine machine = Machine::xeon_e5_4650();
  const pebs::Trace trace = flat_trace(64, 0, pebs::MemLevel::kLocalDram);
  serve::Server server(machine, nullptr,
                       one_client_options(serve::OverloadPolicy::kBlock));
  const serve::ServeResult r = server.run(trace);
  EXPECT_FALSE(r.drift_available);
  EXPECT_EQ(r.drift_suspected_clients, 0u);
  // The timeline key is always present (empty here — nothing classified),
  // the drift section only when a baseline-carrying model served.
  EXPECT_NE(r.snapshot_json.find("\"timeline\": []"), std::string::npos);
  EXPECT_EQ(r.snapshot_json.find("\"drift\": {"), std::string::npos);
}

TEST(ServeModelObsTest, DriftThresholdFlagsDivergingClientsDeterministically) {
  const Machine machine = Machine::xeon_e5_4650();
  const pebs::Trace trace =
      flat_trace(64, machine.cpus_of_node(1)[0], pebs::MemLevel::kRemoteDram);
  // always_rmc_model's training distribution (4 synthetic rows) is nothing
  // like the served stream, so the PSI score is large by construction.
  const ml::Classifier model = always_rmc_model();
  const auto run_with = [&](double threshold) {
    serve::ServeOptions opts =
        one_client_options(serve::OverloadPolicy::kBlock);
    opts.queue_depth = 64;
    opts.sparse_guard = {1, 1};
    opts.drift_threshold = threshold;
    serve::Server server(machine, &model, opts);
    return server.run(trace);
  };
  const serve::ServeResult quiet = run_with(1e9);
  EXPECT_TRUE(quiet.drift_available);
  EXPECT_GT(quiet.drift_score, 0.0);
  EXPECT_EQ(quiet.drift_suspected_clients, 0u);

  const serve::ServeResult loud = run_with(0.001);
  EXPECT_EQ(loud.drift_score, quiet.drift_score);  // score is threshold-free
  EXPECT_EQ(loud.drift_suspected_clients, 1u);
  ASSERT_EQ(loud.model_health.size(), 1u);
  EXPECT_TRUE(loud.model_health[0].drift_suspected);
  EXPECT_NE(loud.snapshot_json.find("\"suspected\": true"),
            std::string::npos);

  // Threshold 0 disables flagging entirely.
  EXPECT_EQ(run_with(0.0).drift_suspected_clients, 0u);
}

// ---------------------------------------------------------------------------
// Shutdown and snapshots
// ---------------------------------------------------------------------------

TEST(ServeLoopTest, MaxCyclesCutsReplayButStillAccountsAndSnapshots) {
  const Machine machine = Machine::xeon_e5_4650();
  const pebs::Trace trace = flat_trace(100, 0, pebs::MemLevel::kLocalDram);
  const std::string dir = fresh_dir("maxcycles");
  serve::ServeOptions opts = one_client_options(serve::OverloadPolicy::kBlock);
  opts.window_cycles = 10;
  opts.max_cycles = 150;  // cycles run 100..199: exactly half get served
  opts.snapshot_path = dir + "/serve_snapshot.json";
  serve::Server server(machine, nullptr, opts);
  const serve::ServeResult r = server.run(trace);
  EXPECT_FALSE(r.drained);
  EXPECT_EQ(r.samples_admitted, 50u);
  EXPECT_EQ(r.samples_dropped, 50u);
  EXPECT_EQ(r.samples_admitted + r.samples_dropped, r.samples_in);
  EXPECT_EQ(r.ticks, 15u);
  // Drain-on-shutdown: the final snapshot is still written and validates.
  EXPECT_EQ(r.snapshots_written, 1u);
  const util::VersionedArtifact art = util::read_versioned_artifact(
      opts.snapshot_path, "serve-snapshot", serve::kServeSnapshotVersion,
      util::LoadPolicy{});
  EXPECT_EQ(art.body, r.snapshot_json);
  EXPECT_NE(art.body.find("\"drained\": false"), std::string::npos);
}

TEST(ServeLoopTest, SnapshotEveryRewritesPeriodically) {
  const Machine machine = Machine::xeon_e5_4650();
  const pebs::Trace trace = flat_trace(40, 0, pebs::MemLevel::kLocalDram);
  const std::string dir = fresh_dir("periodic");
  serve::ServeOptions opts = one_client_options(serve::OverloadPolicy::kBlock);
  opts.snapshot_path = dir + "/serve_snapshot.json";
  opts.snapshot_every = 1;
  serve::Server server(machine, nullptr, opts);
  const serve::ServeResult r = server.run(trace);
  // 40 samples through a depth-16 queue: 3 ticks (16 + 16 + 8), one
  // periodic snapshot per tick plus the final one.
  EXPECT_EQ(r.ticks, 3u);
  EXPECT_EQ(r.samples_admitted, 40u);
  EXPECT_EQ(r.samples_deferred, 32u);  // 24 + 8 push-back events
  EXPECT_EQ(r.snapshots_written, 4u);
}

// ---------------------------------------------------------------------------
// Fault sites, retries, and the circuit breaker
// ---------------------------------------------------------------------------

TEST(ServeFaultTest, IngestDropsMatchIndependentDirectDraws) {
  const Machine machine = Machine::xeon_e5_4650();
  const pebs::Trace trace = flat_trace(100, 0, pebs::MemLevel::kLocalDram);
  for (const char* rate : {"0.25", "0.5", "1"}) {
    const ArmGuard guard(std::string("seed=3,serve.ingest:drop:") + rate);
    // The serve.ingest drop decision is keyed by the sample's global trace
    // ordinal, so re-drawing the same keys here must reproduce the run's
    // drop set exactly — independent of queues, ticks, or jobs.
    std::uint64_t expected_drops = 0;
    for (std::uint64_t i = 0; i < 100; ++i) {
      if (fault::should_inject("serve.ingest", fault::Kind::kDropSample, i)) {
        ++expected_drops;
      }
    }
    serve::Server server(machine, nullptr,
                         one_client_options(serve::OverloadPolicy::kReject));
    const serve::ServeResult r = server.run(trace);
    EXPECT_EQ(r.samples_dropped, expected_drops) << "rate " << rate;
    const std::uint64_t live = 100 - expected_drops;
    EXPECT_EQ(r.samples_admitted, std::min<std::uint64_t>(16, live));
    EXPECT_EQ(r.samples_rejected, live - r.samples_admitted);
  }
  {  // rate 1: every sample drops, nothing reaches the queue
    const ArmGuard guard("seed=3,serve.ingest:drop:1");
    serve::Server server(machine, nullptr,
                         one_client_options(serve::OverloadPolicy::kReject));
    const serve::ServeResult r = server.run(trace);
    EXPECT_EQ(r.samples_dropped, 100u);
    EXPECT_EQ(r.samples_admitted, 0u);
  }
}

TEST(ServeFaultTest, BreakerTripsAtExactlyTheConsecutiveThreshold) {
  const Machine machine = Machine::xeon_e5_4650();
  const pebs::Trace trace = flat_trace(100, 0, pebs::MemLevel::kLocalDram);
  const ArmGuard guard("seed=1,serve.session:fail:1");
  for (const int k : {3, 4}) {
    serve::ServeOptions opts = one_client_options(serve::OverloadPolicy::kBlock);
    opts.max_retries = 0;
    opts.breaker_threshold = k;
    serve::Server server(machine, nullptr, opts);
    const serve::ServeResult r = server.run(trace);
    // One session fault per tick; the k-th consecutive one quarantines the
    // client and discards its whole pending stream.
    EXPECT_EQ(r.faults, static_cast<std::uint64_t>(k));
    EXPECT_EQ(r.retries, 0u);
    EXPECT_EQ(r.ticks, static_cast<std::uint64_t>(k));
    EXPECT_EQ(r.quarantined_clients, 1u);
    ASSERT_EQ(r.clients.size(), 1u);
    EXPECT_TRUE(r.clients[0].quarantined);
    EXPECT_EQ(r.clients[0].quarantined_tick, static_cast<std::uint64_t>(k - 1));
    EXPECT_EQ(r.samples_admitted, 0u);
    EXPECT_EQ(r.samples_dropped, 100u);
  }
}

TEST(ServeFaultTest, RetriesAccrueExactDeterministicBackoff) {
  const Machine machine = Machine::xeon_e5_4650();
  const pebs::Trace trace = flat_trace(100, 0, pebs::MemLevel::kLocalDram);
  const ArmGuard guard("seed=1,serve.session:fail:1");
  serve::ServeOptions opts = one_client_options(serve::OverloadPolicy::kBlock);
  opts.max_retries = 2;
  opts.backoff_cycles = 100;
  opts.breaker_threshold = 3;
  serve::Server server(machine, nullptr, opts);
  const serve::ServeResult r = server.run(trace);
  // Each of the 3 session gates burns 2 retries at 100 + 200 backoff cycles.
  EXPECT_EQ(r.faults, 3u);
  EXPECT_EQ(r.retries, 6u);
  ASSERT_EQ(r.clients.size(), 1u);
  EXPECT_EQ(r.clients[0].backoff_cycles, 900u);
}

TEST(ServeFaultTest, JobsCountLeavesResultsByteIdentical) {
  const Machine machine = Machine::xeon_e5_4650();
  const pebs::Trace trace = mixed_trace(machine, 200);
  const ml::Classifier model = always_rmc_model();
  const ArmGuard guard(
      "seed=5,serve.ingest:drop:0.05,serve.session:fail:0.02,"
      "serve.window:fail:0.02,serve.classify:fail:0.02");
  serve::ServeResult results[2];
  const int jobs[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    serve::ServeOptions opts;
    opts.clients = 4;
    opts.queue_depth = 8;
    opts.overload = serve::OverloadPolicy::kShedOldest;
    opts.drain_per_tick = 4;
    opts.sparse_guard = {1, 1};
    opts.jobs = jobs[i];
    serve::Server server(machine, &model, opts);
    results[i] = server.run(trace);
  }
  EXPECT_EQ(results[0].snapshot_json, results[1].snapshot_json);
  EXPECT_GT(results[0].windows_classified, 0u);
  EXPECT_EQ(results[0].faults, results[1].faults);
  EXPECT_EQ(results[0].retries, results[1].retries);
  EXPECT_EQ(results[0].samples_dropped, results[1].samples_dropped);
  EXPECT_EQ(results[0].ticks, results[1].ticks);
}

// ---------------------------------------------------------------------------
// Sliding windows: incremental add/evict accounting and capacity extremes
// ---------------------------------------------------------------------------

TEST(ServeWindowTest, WindowUpdatesCountEveryAddAndEvict) {
  const Machine machine = Machine::xeon_e5_4650();
  const pebs::Trace trace = flat_trace(100, 0, pebs::MemLevel::kLocalDram);
  const ml::Classifier model = always_rmc_model();
  obs::Counter& updates = obs::Registry::global().counter(
      "drbw_serve_window_updates_total",
      "Samples added to or evicted from client classify windows");
  const std::uint64_t before = updates.value();
  serve::ServeOptions opts = one_client_options(serve::OverloadPolicy::kBlock);
  opts.window_capacity = 10;
  serve::Server server(machine, &model, opts);
  const serve::ServeResult r = server.run(trace);
  ASSERT_EQ(r.samples_admitted, 100u);
  // 100 samples enter the window; all but the last 10 are evicted again.
  EXPECT_EQ(updates.value() - before, 100u + 90u);
}

TEST(ServeWindowTest, ZeroCapacityEvictsEveryDrainedSample) {
  const Machine machine = Machine::xeon_e5_4650();
  // Remote traffic, so a one-sample window already yields a contended row.
  const pebs::Trace trace =
      flat_trace(64, machine.cpus_of_node(1)[0], pebs::MemLevel::kRemoteDram);
  const ml::Classifier model = always_rmc_model();
  obs::Counter& updates = obs::Registry::global().counter(
      "drbw_serve_window_updates_total",
      "Samples added to or evicted from client classify windows");
  const auto run_with = [&](std::size_t capacity) {
    serve::ServeOptions opts =
        one_client_options(serve::OverloadPolicy::kBlock);
    opts.window_capacity = capacity;
    opts.sparse_guard = {1, 1};
    serve::Server server(machine, &model, opts);
    return server.run(trace);
  };
  const std::uint64_t before = updates.value();
  const serve::ServeResult empty = run_with(0);
  ASSERT_EQ(empty.samples_admitted, 64u);
  // Every drained sample is added and evicted at once, so each window is
  // empty when it is classified: no row, no contended verdict.
  EXPECT_EQ(updates.value() - before, 64u + 64u);
  EXPECT_EQ(empty.ticks, 4u);  // 64 samples through a depth-16 queue
  EXPECT_EQ(empty.windows_classified, 4u);
  EXPECT_EQ(empty.windows_rmc, 0u);
  const serve::ServeResult one = run_with(1);
  EXPECT_EQ(one.windows_classified, 4u);
  EXPECT_EQ(one.windows_rmc, 4u);
}

TEST(ServeWindowTest, CapacityExtremesStayJobsIdenticalThroughQuarantine) {
  const Machine machine = Machine::xeon_e5_4650();
  const pebs::Trace trace = mixed_trace(machine, 400);
  const ml::Classifier model = always_rmc_model();
  // A one-fault breaker: the first window fault quarantines its client,
  // which by then has classified windows, and clears its window.
  const ArmGuard guard("seed=3,serve.window:fail:0.1");
  // Capacity 1 evicts on every drained sample; 1000 exceeds any session,
  // so nothing is ever evicted.
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{1000}}) {
    serve::ServeResult results[2];
    const int jobs[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
      serve::ServeOptions opts;
      opts.clients = 4;
      opts.queue_depth = 8;
      opts.overload = serve::OverloadPolicy::kShedOldest;
      opts.window_cycles = 100;
      opts.drain_per_tick = 4;
      opts.window_capacity = capacity;
      opts.max_retries = 0;
      opts.breaker_threshold = 1;
      opts.sparse_guard = {1, 1};
      opts.jobs = jobs[i];
      serve::Server server(machine, &model, opts);
      results[i] = server.run(trace);
    }
    EXPECT_EQ(results[0].snapshot_json, results[1].snapshot_json)
        << "capacity " << capacity;
    bool quarantined_mid_run = false;
    for (const serve::ClientStats& c : results[0].clients) {
      quarantined_mid_run |= c.quarantined && c.windows_classified > 0;
    }
    EXPECT_TRUE(quarantined_mid_run) << "capacity " << capacity;
    EXPECT_GT(results[0].windows_classified, 0u);
  }
}

// ---------------------------------------------------------------------------
// Golden snapshots: the serve loop's bytes, pinned across refactors
// ---------------------------------------------------------------------------

/// Seeded pseudo-random stream for the golden snapshots: 8 tids, CPUs on
/// every node, every memory level, latencies 40..1239 cycles, and 1..9
/// cycles between samples.
pebs::Trace random_trace(const Machine& machine, std::size_t n,
                         std::uint64_t seed) {
  Rng rng(seed);
  pebs::Trace trace;
  trace.events.push_back(mem::AllocationEvent{
      mem::AllocationEvent::Kind::kAlloc, {"serve.c:3 heap"}, 0x40000,
      64 * 1024});
  std::uint64_t cycle = 100;
  for (std::size_t i = 0; i < n; ++i) {
    pebs::MemorySample s;
    s.address = 0x40000 + rng.bounded(1024) * 64;
    const std::vector<topology::CpuId>& cpus = machine.cpus_of_node(
        static_cast<topology::NodeId>(rng.bounded(4)));
    s.cpu = cpus[rng.bounded(cpus.size())];
    s.tid = static_cast<std::uint32_t>(rng.bounded(8));
    s.level = static_cast<pebs::MemLevel>(rng.bounded(6));
    s.latency_cycles = static_cast<float>(40 + rng.bounded(1200));
    s.is_write = rng.bounded(4) == 0;
    cycle += 1 + rng.bounded(9);
    s.cycle = cycle;
    trace.samples.push_back(s);
  }
  return trace;
}

/// A depth-3 tree trained on `trace`'s own channel rows (64-sample chunks):
/// a row is contended when its first feature is above the rows' median,
/// with one label in five flipped, so leaves are impure and window
/// confidences vary.
ml::Classifier fixture_model(const Machine& machine, const pebs::Trace& trace) {
  core::ReplayLocator locator;
  features::ChannelWindow window(machine, locator);
  std::vector<std::vector<double>> rows;
  for (std::size_t i = 0; i < trace.samples.size(); ++i) {
    window.add(trace.samples[i]);
    if ((i + 1) % 64 != 0) continue;
    for (const features::ChannelFeatures& ch : window.channels()) {
      if (!features::kWindowGuard.sparse(ch.features)) {
        rows.push_back(ch.features.as_row());
      }
    }
    window.clear();
  }
  std::vector<double> firsts;
  for (const std::vector<double>& row : rows) firsts.push_back(row[0]);
  const double median = lower_median(firsts);
  ml::Dataset data(std::vector<std::string>(
      features::selected_feature_names().begin(),
      features::selected_feature_names().end()));
  Rng flip(11);
  for (std::vector<double>& row : rows) {
    const bool rmc = (row[0] > median) != (flip.bounded(5) == 0);
    data.add(std::move(row), rmc ? ml::Label::kRmc : ml::Label::kGood);
  }
  ml::TreeParams params;
  params.max_depth = 3;
  return ml::Classifier::train(data, params);
}

TEST(ServeGoldenTest, SnapshotsMatchPinnedChecksums) {
  const Machine machine = Machine::xeon_e5_4650();
  const pebs::Trace trace = random_trace(machine, 3000, 2017);
  const ml::Classifier model = fixture_model(machine, trace);
  // CRC-32 of snapshot_json for policy x window_capacity x fault plan.  The
  // constants were generated on the commit before sessions, queues and
  // classify windows became ordinal rings into the trace, and must not be
  // edited to make a refactor pass: any change here is a byte change.
  struct Golden {
    serve::OverloadPolicy policy;
    std::size_t capacity;
    bool armed;
    std::uint32_t crc;
  };
  const Golden kGolden[] = {
      {serve::OverloadPolicy::kBlock, 1, false, 0x85a0fe0fu},
      {serve::OverloadPolicy::kBlock, 1, true, 0xbd5b4f02u},
      {serve::OverloadPolicy::kBlock, 37, false, 0x952aca25u},
      {serve::OverloadPolicy::kBlock, 37, true, 0xf31de5a2u},
      {serve::OverloadPolicy::kBlock, 4096, false, 0xeebf151bu},
      {serve::OverloadPolicy::kBlock, 4096, true, 0x5d043015u},
      {serve::OverloadPolicy::kShedOldest, 1, false, 0xeb224f0au},
      {serve::OverloadPolicy::kShedOldest, 1, true, 0x0bb66211u},
      {serve::OverloadPolicy::kShedOldest, 37, false, 0x351ff82bu},
      {serve::OverloadPolicy::kShedOldest, 37, true, 0x6a7e9a2fu},
      {serve::OverloadPolicy::kShedOldest, 4096, false, 0xd10afdf7u},
      {serve::OverloadPolicy::kShedOldest, 4096, true, 0x4a0d84f9u},
      {serve::OverloadPolicy::kReject, 1, false, 0xb885f59au},
      {serve::OverloadPolicy::kReject, 1, true, 0x6ae32947u},
      {serve::OverloadPolicy::kReject, 37, false, 0x389c81a6u},
      {serve::OverloadPolicy::kReject, 37, true, 0x16d2fb1du},
      {serve::OverloadPolicy::kReject, 4096, false, 0xd990aeecu},
      {serve::OverloadPolicy::kReject, 4096, true, 0xd249f5ecu},
  };
  for (const Golden& g : kGolden) {
    serve::ServeOptions opts;
    opts.clients = 4;
    opts.queue_depth = 8;
    opts.drain_per_tick = 3;  // below the depth: queues defer and shed
    opts.overload = g.policy;
    opts.window_cycles = 200;
    opts.window_capacity = g.capacity;
    serve::ServeResult r;
    if (g.armed) {
      const ArmGuard guard(
          "seed=5,serve.ingest:drop:0.1,serve.session:fail:0.1,"
          "serve.window:fail:0.1,serve.classify:fail:0.1");
      r = serve::Server(machine, &model, opts).run(trace);
    } else {
      r = serve::Server(machine, &model, opts).run(trace);
    }
    EXPECT_EQ(util::crc32(r.snapshot_json), g.crc)
        << serve::overload_policy_name(g.policy) << " capacity "
        << g.capacity << (g.armed ? " armed" : " unarmed");
  }
}

TEST(ServeGoldenTest, UnevenTenantsMatchPinnedChecksums) {
  const Machine machine = Machine::xeon_e5_4650();
  pebs::Trace trace = random_trace(machine, 3000, 2017);
  const ml::Classifier model = fixture_model(machine, trace);
  // Three tenants under reject: clients 0 and 1 get ten samples each for
  // every one client 2 gets, so client 2 sits out many classifying ticks
  // and its drift score must carry over unchanged.  The armed plan also
  // trips the breaker, so quarantined tenants keep their last score.
  for (std::size_t i = 0; i < trace.samples.size(); ++i) {
    trace.samples[i].tid =
        i % 21 == 20 ? 2u : static_cast<std::uint32_t>(i % 2);
  }
  // CRC-32 of snapshot_json, generated on the commit before the timeline
  // kept a per-client drift score; must not be edited to make a change pass.
  struct Golden {
    bool armed;
    std::uint32_t crc;
  };
  const Golden kGolden[] = {
      {false, 0x49c62151u},
      {true, 0xba989d74u},
  };
  for (const Golden& g : kGolden) {
    serve::ServeOptions opts;
    opts.clients = 3;
    opts.queue_depth = 8;
    opts.drain_per_tick = 3;
    opts.overload = serve::OverloadPolicy::kReject;
    opts.window_cycles = 40;
    opts.window_capacity = 37;
    opts.max_retries = 0;
    opts.breaker_threshold = 3;
    serve::ServeResult r;
    if (g.armed) {
      const ArmGuard guard(
          "seed=9,serve.session:fail:0.1,serve.window:fail:0.1,"
          "serve.classify:fail:0.1");
      r = serve::Server(machine, &model, opts).run(trace);
    } else {
      r = serve::Server(machine, &model, opts).run(trace);
    }
    ASSERT_TRUE(r.drift_available);
    // What the case is about: client 2 skips classifying ticks, and the
    // armed run quarantines some tenants while others keep serving.
    ASSERT_EQ(r.clients.size(), 3u);
    EXPECT_LT(r.clients[2].windows_classified, r.timeline.size());
    if (g.armed) {
      EXPECT_GT(r.quarantined_clients, 0u);
      EXPECT_LT(r.quarantined_clients, 3u);
    }
    EXPECT_EQ(util::crc32(r.snapshot_json), g.crc)
        << (g.armed ? "armed" : "unarmed");
  }
}

// ---------------------------------------------------------------------------
// Snapshot reader: load_snapshot reads back every byte render_snapshot wrote
// ---------------------------------------------------------------------------

/// Writes `r`'s snapshot as the checksummed artifact at `path`, loads it
/// back, and returns the re-rendered body.
std::string reload(const serve::ServeResult& r, const std::string& path) {
  util::write_versioned_artifact(path, serve::kSnapshotKind,
                                 serve::kServeSnapshotVersion, r.snapshot_json);
  const serve::Snapshot snapshot = serve::load_snapshot(path);
  EXPECT_EQ(snapshot.version, serve::kServeSnapshotVersion);
  return serve::render_snapshot(snapshot.result);
}

TEST(ServeSnapshotTest, LoadRendersEveryGoldenConfigBackByteForByte) {
  const Machine machine = Machine::xeon_e5_4650();
  const pebs::Trace trace = random_trace(machine, 3000, 2017);
  const ml::Classifier model = fixture_model(machine, trace);
  ASSERT_TRUE(model.has_drift_baseline());
  const std::string path = fresh_dir("reload") + "/snapshot.json";
  for (const serve::OverloadPolicy policy :
       {serve::OverloadPolicy::kBlock, serve::OverloadPolicy::kShedOldest,
        serve::OverloadPolicy::kReject}) {
    for (const std::size_t capacity :
         {std::size_t{1}, std::size_t{37}, std::size_t{4096}}) {
      for (const bool armed : {false, true}) {
        serve::ServeOptions opts;
        opts.clients = 4;
        opts.queue_depth = 8;
        opts.drain_per_tick = 3;
        opts.overload = policy;
        opts.window_cycles = 200;
        opts.window_capacity = capacity;
        serve::ServeResult r;
        if (armed) {
          const ArmGuard guard(
              "seed=5,serve.ingest:drop:0.1,serve.session:fail:0.1,"
              "serve.window:fail:0.1,serve.classify:fail:0.1");
          r = serve::Server(machine, &model, opts).run(trace);
        } else {
          r = serve::Server(machine, &model, opts).run(trace);
        }
        ASSERT_NE(r.snapshot_json.find("\"drift\": {"), std::string::npos);
        EXPECT_EQ(reload(r, path), r.snapshot_json)
            << serve::overload_policy_name(policy) << " capacity "
            << capacity << (armed ? " armed" : " unarmed");
      }
    }
  }
}

TEST(ServeSnapshotTest, LoadRendersDriftFlagsAndDownsampledTimelinesBack) {
  const Machine machine = Machine::xeon_e5_4650();
  const std::string path = fresh_dir("reload_drift") + "/snapshot.json";
  // A drift-suspected client: every model-health field is set.
  const pebs::Trace flat =
      flat_trace(64, machine.cpus_of_node(1)[0], pebs::MemLevel::kRemoteDram);
  const ml::Classifier rmc_model = always_rmc_model();
  serve::ServeOptions opts = one_client_options(serve::OverloadPolicy::kBlock);
  opts.queue_depth = 64;
  opts.sparse_guard = {1, 1};
  opts.drift_threshold = 0.001;
  const serve::ServeResult drifted =
      serve::Server(machine, &rmc_model, opts).run(flat);
  ASSERT_NE(drifted.snapshot_json.find("\"suspected\": true"),
            std::string::npos);
  EXPECT_EQ(reload(drifted, path), drifted.snapshot_json);
  const serve::Snapshot loaded = serve::load_snapshot(path);
  EXPECT_TRUE(loaded.result.drift_available);
  EXPECT_EQ(loaded.result.drift_suspected_clients, 1u);

  // More classifying ticks than the snapshot keeps rows: the rendered
  // timeline is merged, and reading it back keeps the merged rows as-is.
  const pebs::Trace trace = random_trace(machine, 3000, 2017);
  const ml::Classifier model = fixture_model(machine, trace);
  serve::ServeOptions fine;
  fine.clients = 4;
  fine.window_cycles = 20;
  const serve::ServeResult r = serve::Server(machine, &model, fine).run(trace);
  ASSERT_GT(r.timeline.size(), 256u);
  EXPECT_EQ(reload(r, path), r.snapshot_json);
  const serve::Snapshot merged = serve::load_snapshot(path);
  ASSERT_LE(merged.result.timeline.size(), 256u);
  EXPECT_GT(merged.result.timeline[0].merged, 1u);
  // A degraded run has no drift section and reads back without one.
  const serve::ServeResult degraded =
      serve::Server(machine, nullptr, fine).run(trace);
  EXPECT_EQ(reload(degraded, path), degraded.snapshot_json);
  EXPECT_FALSE(serve::load_snapshot(path).result.drift_available);
  // Counts past 2^53 read back exactly, not rounded through a double.
  serve::ServeResult big = degraded;
  big.samples_dropped = (std::uint64_t{1} << 53) + 1;
  big.snapshot_json = serve::render_snapshot(big);
  EXPECT_EQ(reload(big, path), big.snapshot_json);
  EXPECT_EQ(serve::load_snapshot(path).result.samples_dropped,
            (std::uint64_t{1} << 53) + 1);
}

/// Checksum-valid snapshots whose bodies render_snapshot cannot have
/// written: each is a corrupt artifact, never a crash or a zero.
TEST(ServeSnapshotTest, TypeConfusedBodiesAreCorruptArtifacts) {
  const std::string path = fresh_dir("confused") + "/snapshot.json";
  const auto load = [&](const std::string& body) {
    util::write_versioned_artifact(path, serve::kSnapshotKind,
                                   serve::kServeSnapshotVersion, body);
    return code_of([&] { serve::load_snapshot(path); });
  };
  for (const char* body : {
           "[]",
           R"({"drbw_serve_snapshot": "2"})",
           R"({"timeline": []})",
           R"({"drbw_serve_snapshot": 1})",
           R"({"drbw_serve_snapshot": 2, "timeline": [{"tick": "x"}]})",
           R"({"drbw_serve_snapshot": 2, "timeline": [[1]]})",
           R"({"drbw_serve_snapshot": 2, "timeline": {}})",
           R"({"drbw_serve_snapshot": 2, "ticks": -1})",
           R"({"drbw_serve_snapshot": 2, "ticks": 1.5})",
           R"({"drbw_serve_snapshot": 2, "degraded": 0})",
           R"({"drbw_serve_snapshot": 2, "samples": {"in": "7"}})",
           R"({"drbw_serve_snapshot": 2, "drift": {"clients": [)"
           R"({"client": 4294967296}]}})",
           R"({"drbw_serve_snapshot": 2, "clients": [{"quarantined": 1}]})",
       }) {
    EXPECT_EQ(load(body), ErrorCode::kCorruptArtifact) << body;
  }
  // Absent members keep their defaults: the minimal snapshot loads.
  util::write_versioned_artifact(path, serve::kSnapshotKind,
                                 serve::kServeSnapshotVersion,
                                 R"({"drbw_serve_snapshot": 2})");
  const serve::Snapshot minimal = serve::load_snapshot(path);
  EXPECT_TRUE(minimal.result.drained);
  EXPECT_TRUE(minimal.result.clients.empty());
  // A v1 snapshot (no timeline, no drift section) still loads.
  util::write_versioned_artifact(path, serve::kSnapshotKind, 1,
                                 R"({"drbw_serve_snapshot": 1, "ticks": 3})");
  const serve::Snapshot v1 = serve::load_snapshot(path);
  EXPECT_EQ(v1.version, 1);
  EXPECT_EQ(v1.result.ticks, 3u);
}

// ---------------------------------------------------------------------------
// Observable-name contract for the serve layer
// ---------------------------------------------------------------------------

TEST(ServeObsTest, EveryServeMetricAndSpanIsEmitted) {
  obs::Trace::instance().clear();
  obs::Trace::instance().enable(obs::TimingMode::kSim);
  const Machine machine = Machine::xeon_e5_4650();
  const pebs::Trace trace =
      flat_trace(64, machine.cpus_of_node(1)[0], pebs::MemLevel::kRemoteDram);
  const ml::Classifier model = always_rmc_model();
  const std::string dir = fresh_dir("obs");
  serve::ServeOptions opts = one_client_options(serve::OverloadPolicy::kBlock);
  opts.sparse_guard = {1, 1};
  opts.snapshot_path = dir + "/serve_snapshot.json";
  serve::Server server(machine, &model, opts);
  (void)server.run(trace);

  const std::string metrics =
      obs::Registry::global().prometheus_text(/*include_diagnostic=*/true);
  const char* const kServeMetricNames[] = {
      "drbw_serve_samples_ingested_total",
      "drbw_serve_samples_admitted_total",
      "drbw_serve_samples_shed_total",
      "drbw_serve_samples_rejected_total",
      "drbw_serve_samples_deferred_total",
      "drbw_serve_samples_dropped_total",
      "drbw_serve_windows_classified_total",
      "drbw_serve_windows_rmc_total",
      "drbw_serve_ticks_total",
      "drbw_serve_faults_total",
      "drbw_serve_retries_total",
      "drbw_serve_clients_quarantined_total",
      "drbw_serve_window_updates_total",
      "drbw_serve_queue_depth_peak",
      // Model observability (always_rmc_model carries a drift baseline).
      "drbw_model_confidence_bucket",
      "drbw_model_drift_score"};
  for (const char* name : kServeMetricNames) {
    EXPECT_NE(metrics.find(name), std::string::npos)
        << "metric '" << name << "' missing from the registry export";
  }

  const std::string trace_json = obs::Trace::instance().to_json();
  obs::Trace::instance().disable();
  obs::Trace::instance().clear();
  for (const char* name : {"serve.tick", "serve.snapshot"}) {
    EXPECT_NE(trace_json.find(std::string("\"") + name + "\""),
              std::string::npos)
        << "span '" << name << "' missing from the structured trace";
  }
}

// ---------------------------------------------------------------------------
// End to end through the real CLI binary, plus doctor/fleet read-back
// ---------------------------------------------------------------------------

/// Shared CLI fixtures, built once: a recorded trace, a saved model, and a
/// corpus of three serve runs (jobs 1, jobs 4, degraded) for the fleet and
/// doctor assertions.
struct CliWorld {
  bool ok = false;
  std::string dir;
  std::string trace;
  std::string model;
  std::string corpus;
};

const CliWorld& cli_world() {
  static const CliWorld world = [] {
    CliWorld w;
    w.dir = fresh_dir("cli");
    w.trace = w.dir + "/trace.csv";
    w.model = w.dir + "/model.json";
    w.corpus = w.dir + "/corpus";
    always_rmc_model().save(w.model);
    if (run_cli("record --benchmark streamcluster --config T8-N4 --seed 7 "
                "--out " +
                w.trace + " --run-dir " + w.dir + "/record_corpus/rec") != 0) {
      return w;
    }
    const std::string common = "serve --replay " + w.trace + " --clients 2 " +
                               "--queue-depth 32 --overload shed-oldest ";
    if (run_cli(common + "--model " + w.model + " --jobs 1 --run-dir " +
                w.corpus + "/jobs1") != 0) {
      return w;
    }
    if (run_cli(common + "--model " + w.model + " --jobs 4 --run-dir " +
                w.corpus + "/jobs4") != 0) {
      return w;
    }
    // A missing model file must degrade the run, not fail it.
    if (run_cli(common + "--model " + w.dir + "/no_such_model.json" +
                " --run-dir " + w.corpus + "/degraded") != 0) {
      return w;
    }
    w.ok = true;
    return w;
  }();
  return world;
}

TEST(ServeCliTest, WritesProvenanceAndSnapshot) {
  const CliWorld& w = cli_world();
  ASSERT_TRUE(w.ok) << "CLI fixture runs failed";
  const std::string run = w.corpus + "/jobs1";
  ASSERT_TRUE(std::filesystem::exists(run + "/run.json"));
  const std::string manifest = read_file(run + "/run.json");
  EXPECT_NE(manifest.find("\"subcommand\": \"serve\""), std::string::npos);
  EXPECT_NE(manifest.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_EQ(manifest.find("\"degraded\": true"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(run + "/flight.log"));
  // The default snapshot lands in the run dir and validates as a v1
  // serve-snapshot artifact.
  const util::VersionedArtifact art = util::read_versioned_artifact(
      run + "/serve_snapshot.json", "serve-snapshot",
      serve::kServeSnapshotVersion, util::LoadPolicy{});
  EXPECT_NE(art.body.find("\"drained\": true"), std::string::npos);
}

TEST(ServeCliTest, SnapshotIsByteIdenticalAcrossJobs) {
  const CliWorld& w = cli_world();
  ASSERT_TRUE(w.ok) << "CLI fixture runs failed";
  const std::string a = read_file(w.corpus + "/jobs1/serve_snapshot.json");
  const std::string b = read_file(w.corpus + "/jobs4/serve_snapshot.json");
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(ServeCliTest, MaximumBoundsServeLikeTheTraceSize) {
  const CliWorld& w = cli_world();
  ASSERT_TRUE(w.ok) << "CLI fixture runs failed";
  // --queue-depth and --window-capacity accept up to 2^32-1.  Rings sized
  // from the option would need 16 GiB each; they must instead grow with
  // what they hold, so the maximum serves exactly like a bound equal to the
  // trace's sample count (neither bound is reached at either value).
  const std::string samples =
      std::to_string(pebs::load_trace(w.trace).samples.size());
  const std::string common = "serve --replay " + w.trace + " --clients 2 " +
                             "--model " + w.model + " --run-dir ";
  // A 4 GB address-space cap (as in CI's serve-chaos job) turns such an
  // allocation into a failed run instead of an OOM kill.  ASan and TSan
  // reserve terabytes of shadow address space, so they run uncapped.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const std::string cap;
#else
  const std::string cap = "ulimit -v 4000000; ";
#endif
  ASSERT_EQ(run_cli(common + w.dir + "/max_bounds --queue-depth 4294967295 "
                    "--window-capacity 4294967295",
                    cap),
            0);
  ASSERT_EQ(run_cli(common + w.dir + "/count_bounds --queue-depth " + samples +
                    " --window-capacity " + samples),
            0);
  const std::string max_snapshot =
      read_file(w.dir + "/max_bounds/serve_snapshot.json");
  EXPECT_NE(max_snapshot.find("\"drained\": true"), std::string::npos);
  EXPECT_EQ(max_snapshot,
            read_file(w.dir + "/count_bounds/serve_snapshot.json"));
}

TEST(ServeCliTest, MissingOrCorruptModelDegradesWithExitZero) {
  const CliWorld& w = cli_world();
  ASSERT_TRUE(w.ok) << "CLI fixture runs failed";
  const std::string manifest = read_file(w.corpus + "/degraded/run.json");
  EXPECT_NE(manifest.find("\"degraded\": true"), std::string::npos);
  EXPECT_NE(manifest.find("\"status\": \"ok\""), std::string::npos);
  // Degraded runs cannot measure drift: the manifest says so, the snapshot
  // simply omits the drift section.
  EXPECT_NE(manifest.find("\"drift\": \"unavailable\""), std::string::npos);
  const std::string snapshot =
      read_file(w.corpus + "/degraded/serve_snapshot.json");
  EXPECT_NE(snapshot.find("\"degraded\": true"), std::string::npos);
  EXPECT_EQ(snapshot.find("\"drift\": {"), std::string::npos);

  // Corrupt model body: same contract, exercised end to end.
  const std::string corrupt = w.dir + "/corrupt_model.json";
  {
    std::ofstream out(corrupt, std::ios::binary | std::ios::trunc);
    out << "this is not a model";
  }
  const std::string run = w.dir + "/corrupt_run";
  ASSERT_EQ(run_cli("serve --replay " + w.trace + " --clients 2 --model " +
                    corrupt + " --run-dir " + run),
            0);
  const std::string corrupt_manifest = read_file(run + "/run.json");
  EXPECT_NE(corrupt_manifest.find("\"degraded\": true"), std::string::npos);
  EXPECT_NE(corrupt_manifest.find("\"drift\": \"unavailable\""),
            std::string::npos);

  // A loadable model body without its checksummed header is not a model
  // artifact: serve degrades exactly as for any unloadable model.
  const std::string headerless = w.dir + "/headerless_model.json";
  {
    std::ofstream out(headerless, std::ios::binary | std::ios::trunc);
    out << always_rmc_model().to_json().dump() << '\n';
  }
  const std::string headerless_run = w.dir + "/headerless_model_run";
  ASSERT_EQ(run_cli("serve --replay " + w.trace + " --clients 2 --model " +
                    headerless + " --run-dir " + headerless_run),
            0);
  EXPECT_NE(read_file(headerless_run + "/run.json").find("\"degraded\": true"),
            std::string::npos);
}

TEST(ServeCliTest, V2ModelServesWithDriftCleanlyDisabled) {
  const CliWorld& w = cli_world();
  ASSERT_TRUE(w.ok) << "CLI fixture runs failed";
  // A v2-era artifact: same tree, no embedded drift baseline.
  Json doc = always_rmc_model().to_json();
  JsonObject& fields = doc.as_object();
  fields.erase(std::remove_if(fields.begin(), fields.end(),
                              [](const auto& field) {
                                return field.first == "drift_baseline";
                              }),
               fields.end());
  const std::string v2_model = w.dir + "/v2_model.json";
  util::write_versioned_artifact(v2_model, "model", 2, doc.dump() + "\n");
  const std::string run = w.dir + "/v2_run";
  ASSERT_EQ(run_cli("serve --replay " + w.trace + " --clients 2 --model " +
                    v2_model + " --drift-threshold 5 --run-dir " + run),
            0);
  // Not degraded — the model classifies fine — but drift is unavailable:
  // the manifest records it, the snapshot omits the section, and the
  // classified timeline is still there.
  const std::string manifest = read_file(run + "/run.json");
  EXPECT_EQ(manifest.find("\"degraded\": true"), std::string::npos);
  EXPECT_NE(manifest.find("\"drift\": \"unavailable\""), std::string::npos);
  const std::string snapshot = read_file(run + "/serve_snapshot.json");
  EXPECT_EQ(snapshot.find("\"drift\": {"), std::string::npos);
  EXPECT_NE(snapshot.find("\"timeline\": ["), std::string::npos);

  // doctor surfaces the gap with re-train advice.
  const report::DoctorReport report = report::doctor(run);
  bool saw_unavailable = false;
  for (const report::Finding& f : report.findings) {
    if (f.title.find("drift detection unavailable") != std::string::npos) {
      saw_unavailable = true;
      EXPECT_NE(f.advice.find("drbw train"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_unavailable) << render_doctor(report);
}

TEST(ServeCliTest, DriftThresholdRaisesDoctorVisibleFinding) {
  const CliWorld& w = cli_world();
  ASSERT_TRUE(w.ok) << "CLI fixture runs failed";
  // always_rmc_model's synthetic baseline vs a real recorded stream: PSI is
  // large, so a small threshold plants a deterministic DriftSuspected.
  const std::string run = w.dir + "/drift_run";
  ASSERT_EQ(run_cli("serve --replay " + w.trace + " --clients 2 --model " +
                    w.model + " --drift-threshold 0.5 --run-dir " + run),
            0);
  const std::string manifest = read_file(run + "/run.json");
  EXPECT_NE(manifest.find("\"drift\": \"suspected\""), std::string::npos);
  const std::string snapshot = read_file(run + "/serve_snapshot.json");
  EXPECT_NE(snapshot.find("\"suspected\": true"), std::string::npos);
  const report::DoctorReport report = report::doctor(run);
  bool saw_drift = false;
  for (const report::Finding& f : report.findings) {
    if (f.title.find("DriftSuspected") != std::string::npos) {
      saw_drift = true;
      EXPECT_NE(f.advice.find("--drift-threshold"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_drift) << render_doctor(report);
}

TEST(ServeCliTest, DoctorExplainsDegradedAndOverflowedRuns) {
  const CliWorld& w = cli_world();
  ASSERT_TRUE(w.ok) << "CLI fixture runs failed";
  const report::DoctorReport degraded = report::doctor(w.corpus + "/degraded");
  bool saw_degraded = false;
  for (const report::Finding& f : degraded.findings) {
    if (f.title.find("DEGRADED") != std::string::npos) saw_degraded = true;
  }
  EXPECT_TRUE(saw_degraded) << render_doctor(degraded);

  // shed-oldest at depth 32 over ~10k samples overflows by construction.
  const report::DoctorReport overflowed = report::doctor(w.corpus + "/jobs1");
  bool saw_overflow = false;
  for (const report::Finding& f : overflowed.findings) {
    if (f.title.find("ingest queues overflowed") != std::string::npos) {
      saw_overflow = true;
      EXPECT_NE(f.advice.find("--queue-depth"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_overflow) << render_doctor(overflowed);
}

TEST(ServeCliTest, DoctorExplainsQuarantinedClients) {
  const CliWorld& w = cli_world();
  ASSERT_TRUE(w.ok) << "CLI fixture runs failed";
  const std::string run = w.dir + "/quarantine_run";
  ASSERT_EQ(
      run_cli("serve --replay " + w.trace + " --clients 2 --model " + w.model +
              " --max-retries 0 --inject-faults 'seed=1,serve.session:fail:1'"
              " --run-dir " + run),
      0);
  const std::string snapshot = read_file(run + "/serve_snapshot.json");
  EXPECT_NE(snapshot.find("\"quarantined_clients\": 2"), std::string::npos);
  const report::DoctorReport report = report::doctor(run);
  bool saw_breaker = false;
  for (const report::Finding& f : report.findings) {
    if (f.title.find("quarantined by the circuit breaker") !=
        std::string::npos) {
      saw_breaker = true;
      EXPECT_NE(f.advice.find("--breaker-threshold"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_breaker) << render_doctor(report);
}

TEST(ServeFleetTest, AggregatesServeRunsIntoTheServeSection) {
  const CliWorld& w = cli_world();
  ASSERT_TRUE(w.ok) << "CLI fixture runs failed";
  const report::FleetReport fleet =
      report::fleet_scan(w.corpus, report::FleetOptions{});
  EXPECT_EQ(fleet.serve_runs, 3u);
  EXPECT_EQ(fleet.serve_degraded_runs, 1u);
  EXPECT_EQ(fleet.serve_snapshots_missing, 0u);
  EXPECT_GT(fleet.serve_shed, 0u);  // shed-oldest at depth 32 overflows
  EXPECT_EQ(fleet.serve_clients.size(), 6u);  // 3 runs x 2 clients
  const std::string markdown = report::render_fleet_markdown(fleet);
  EXPECT_NE(markdown.find("## Serve"), std::string::npos);
  EXPECT_NE(markdown.find("degraded"), std::string::npos);
  const std::string json = report::render_fleet_json(fleet);
  EXPECT_NE(json.find("\"serve\":"), std::string::npos);
}

TEST(ServeFleetTest, HeaderlessSnapshotIsTalliedAsDamaged) {
  const CliWorld& w = cli_world();
  ASSERT_TRUE(w.ok) << "CLI fixture runs failed";
  // A copy of a good serve run whose snapshot lost its header line.
  const std::string root = fresh_dir("headerless_fleet");
  const std::string run = root + "/jobs1";
  std::filesystem::copy(w.corpus + "/jobs1", run,
                        std::filesystem::copy_options::recursive);
  const std::string snapshot = read_file(run + "/serve_snapshot.json");
  {
    std::ofstream out(run + "/serve_snapshot.json",
                      std::ios::binary | std::ios::trunc);
    out << snapshot.substr(snapshot.find('\n') + 1);
  }
  const report::FleetReport fleet =
      report::fleet_scan(root, report::FleetOptions{});
  EXPECT_EQ(fleet.serve_runs, 1u);
  EXPECT_EQ(fleet.serve_snapshots_missing, 1u);
  EXPECT_TRUE(fleet.serve_clients.empty());
}

/// The four checksum-valid, type-confused snapshots of a real serve run:
/// `stats --serve` rejects each as a corrupt artifact (68) and fleet counts
/// each as a missing snapshot.
TEST(ServeFleetTest, TypeConfusedSnapshotsExit68AndCountAsMissing) {
  const CliWorld& w = cli_world();
  ASSERT_TRUE(w.ok) << "CLI fixture runs failed";
  const std::string good = util::read_versioned_artifact(
      w.corpus + "/jobs1/serve_snapshot.json", serve::kSnapshotKind,
      serve::kServeSnapshotVersion, util::LoadPolicy{}).body;
  ASSERT_NE(good.find("\"clients\": [\n"), std::string::npos);
  // Prepends `row` to the body's timeline.
  const auto with_row = [&](const std::string& row) {
    const std::string key = "\"timeline\": [";
    std::string body = good;
    const std::size_t at = body.find(key) + key.size();
    body.insert(at, body[at] == ']' ? row : row + ", ");
    return body;
  };
  std::string quoted_version = good;
  const std::string version = "\"drbw_serve_snapshot\": 2,";
  const std::size_t version_at = quoted_version.find(version);
  ASSERT_NE(version_at, std::string::npos);
  quoted_version.replace(version_at, version.size(),
                         "\"drbw_serve_snapshot\": \"2\",");
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"array_body", "[]"},
      {"string_tick", with_row(R"({"tick": "x"})")},
      {"string_version", quoted_version},
      {"array_row", with_row("[1]")},
  };
  for (const auto& [name, body] : cases) {
    const std::string root = fresh_dir(("confused_" + name).c_str());
    const std::string run = root + "/jobs1";
    std::filesystem::copy(w.corpus + "/jobs1", run,
                          std::filesystem::copy_options::recursive);
    util::write_versioned_artifact(run + "/serve_snapshot.json",
                                   serve::kSnapshotKind,
                                   serve::kServeSnapshotVersion, body);
    EXPECT_EQ(run_cli("stats --serve --trace " + run + "/serve_snapshot.json"),
              68)
        << name;
    const report::FleetReport fleet =
        report::fleet_scan(root, report::FleetOptions{});
    EXPECT_EQ(fleet.serve_runs, 1u) << name;
    EXPECT_EQ(fleet.serve_snapshots_missing, 1u) << name;
    EXPECT_TRUE(fleet.serve_clients.empty()) << name;
  }
}

TEST(ServeFleetTest, AggregatesModelHealthAcrossServeRuns) {
  const CliWorld& w = cli_world();
  ASSERT_TRUE(w.ok) << "CLI fixture runs failed";
  const report::FleetReport fleet =
      report::fleet_scan(w.corpus, report::FleetOptions{});
  // jobs1 + jobs4 served with a baseline-carrying model; degraded did not.
  EXPECT_EQ(fleet.model_health_runs, 2u);
  EXPECT_EQ(fleet.drift_unavailable_runs, 1u);
  EXPECT_EQ(fleet.model_health.size(), 4u);  // 2 runs x 2 clients
  ASSERT_TRUE(fleet.has_model_health);
  EXPECT_GT(fleet.max_drift, 0.0);
  EXPECT_FALSE(fleet.max_drift_dir.empty());
  EXPECT_GE(fleet.min_confidence, 0.5);
  const std::string markdown = report::render_fleet_markdown(fleet);
  EXPECT_NE(markdown.find("## Model health"), std::string::npos);
  EXPECT_NE(markdown.find("lowest confidence"), std::string::npos);
  const std::string json = report::render_fleet_json(fleet);
  EXPECT_NE(json.find("\"model_health\":"), std::string::npos);
  EXPECT_NE(json.find("\"max_drift\":"), std::string::npos);
}

TEST(ServeFleetTest, CorporaWithoutServeRunsRenderNoServeSection) {
  const CliWorld& w = cli_world();
  ASSERT_TRUE(w.ok) << "CLI fixture runs failed";
  const report::FleetReport fleet =
      report::fleet_scan(w.dir + "/record_corpus", report::FleetOptions{});
  EXPECT_EQ(fleet.serve_runs, 0u);
  const std::string markdown = report::render_fleet_markdown(fleet);
  EXPECT_EQ(markdown.find("## Serve"), std::string::npos);
  EXPECT_EQ(markdown.find("## Model health"), std::string::npos);
  const std::string json = report::render_fleet_json(fleet);
  EXPECT_EQ(json.find("\"serve\":"), std::string::npos);
  EXPECT_EQ(json.find("\"model_health\":"), std::string::npos);
}

}  // namespace
}  // namespace drbw
