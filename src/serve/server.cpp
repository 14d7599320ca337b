#include "drbw/serve/server.hpp"

#include <algorithm>

#include "drbw/core/profiler.hpp"
#include "drbw/fault/injector.hpp"
#include "drbw/features/window.hpp"
#include "drbw/obs/metrics.hpp"
#include "drbw/obs/trace.hpp"
#include "drbw/util/artifact.hpp"
#include "drbw/util/error.hpp"
#include "drbw/util/stats.hpp"
#include "drbw/util/task_pool.hpp"

namespace drbw::serve {

namespace {

/// One deterministic retry loop: `draw(attempt)` returns true when the
/// injected fault fires for that attempt.  Success on any attempt makes the
/// operation ok; every extra attempt costs an exponentially growing
/// simulated-cycle backoff penalty.  With no plan armed nothing can fire,
/// so the loop succeeds without drawing.
struct RetryOutcome {
  bool ok = false;
  std::uint64_t retries = 0;
  std::uint64_t backoff_cycles = 0;
};

template <typename Draw>
RetryOutcome attempt_with_backoff(bool armed, int max_retries,
                                  std::uint64_t backoff_base, Draw&& draw) {
  RetryOutcome out;
  for (int attempt = 0; attempt <= max_retries; ++attempt) {
    if (!armed || !draw(static_cast<std::uint64_t>(attempt))) {
      out.ok = true;
      return out;
    }
    if (attempt < max_retries) {
      ++out.retries;
      out.backoff_cycles += backoff_base << static_cast<unsigned>(attempt);
    }
  }
  return out;
}

/// Mutable per-client replay state around the public ClientStats.
struct ClientState {
  ClientState(const topology::Machine& machine, core::PageLocator& locator,
              std::size_t queue_depth, OverloadPolicy overload)
      : queue(queue_depth, overload), window(machine, locator) {}

  ClientStats stats;
  BoundedQueue queue;
  std::size_t cursor = 0;  ///< next unconsumed session ordinal
  std::vector<std::uint32_t> deferred;  ///< pushed back under block
  std::vector<std::uint32_t> offers;    ///< this tick's admission batch
  /// Sliding classify window: `buffer` holds the records `window` applied,
  /// oldest first, and `window` their running channel features (add on
  /// push, evict on pop).
  Ring<features::WindowSample> buffer;
  features::ChannelWindow window;
  std::uint64_t window_updates = 0;  ///< window adds + evicts
  int consecutive_faults = 0;
  // Model-health accounting (touched only when a model is present).
  std::vector<double> window_confidences;
  std::uint64_t rows_classified = 0;
  ml::DriftBaseline serving;  ///< serving-side drift histograms
  /// Max per-feature divergence of `serving`, refreshed when it changes.
  double drift_score = 0.0;
};

/// Renders `result`'s snapshot body into result.snapshot_json and, when
/// `path` is set, writes it there as the checksummed artifact.  Returns
/// whether it wrote.
bool write_snapshot(ServeResult& result, const std::string& path) {
  if (path.empty()) {
    result.snapshot_json = render_snapshot(result);
    return false;
  }
  obs::Span snap_span("serve.snapshot");
  result.snapshot_json = render_snapshot(result);
  util::write_versioned_artifact(path, kSnapshotKind, kServeSnapshotVersion,
                                 result.snapshot_json);
  return true;
}

}  // namespace

Server::Server(const topology::Machine& machine, const ml::Classifier* model,
               ServeOptions options)
    : machine_(machine), options_(std::move(options)) {
  if (model != nullptr) {
    tool_.emplace(machine_, *model, AnalysisConfig{options_.sparse_guard});
  }
  DRBW_CHECK_MSG(options_.max_retries >= 0 &&
                     options_.max_retries <= kMaxServeRetries,
                 "serve max_retries must be between 0 and "
                     << kMaxServeRetries << ", got " << options_.max_retries);
  DRBW_CHECK_MSG(options_.backoff_cycles <= kMaxBackoffCycles,
                 "serve backoff_cycles must be at most " << kMaxBackoffCycles);
}

ServeResult Server::run(const pebs::Trace& trace) {
  const std::uint32_t clients = std::max<std::uint32_t>(1, options_.clients);
  const std::size_t queue_depth = std::max<std::size_t>(1, options_.queue_depth);
  const std::size_t drain_n =
      options_.drain_per_tick == 0 ? queue_depth : options_.drain_per_tick;
  const int breaker = std::max(1, options_.breaker_threshold);
  const pebs::Sessions sessions = pebs::slice_sessions(trace, clients);
  const std::uint64_t span = sessions.cycle_span;
  const std::uint64_t window = options_.window_cycles == 0
                                   ? pebs::cycle_window_width(span, 8)
                                   : options_.window_cycles;
  // Read once: arm/disarm never race a run, and an unarmed run skips every
  // fault draw on the per-sample path.
  const bool armed = fault::armed();
  const auto retry = [&](const auto& draw) {
    return attempt_with_backoff(armed, options_.max_retries,
                                options_.backoff_cycles, draw);
  };

  core::ReplayLocator locator;
  util::TaskPool pool(options_.jobs);

  std::vector<ClientState> states;
  states.reserve(clients);
  for (std::uint32_t c = 0; c < clients; ++c) {
    states.emplace_back(machine_, locator, queue_depth, options_.overload);
    states[c].stats.client = c;
  }
  const auto discard = [](std::uint32_t) {};

  ServeResult result;
  result.degraded = !tool_.has_value();
  result.window_cycles = window;
  result.samples_in = trace.samples.size();
  // Drift needs a v3 model with an embedded training baseline; without one
  // the run still serves (and still records the confidence timeline), the
  // drift section is just unavailable.
  const ml::Classifier* model = tool_.has_value() ? &tool_->model() : nullptr;
  const bool drift_on = model != nullptr && model->has_drift_baseline();
  const std::size_t num_features =
      model != nullptr ? model->feature_names().size() : 0;
  const ml::DriftBaseline::Proportions baseline =
      drift_on ? model->drift_baseline().proportions()
               : ml::DriftBaseline::Proportions{};
  result.drift_available = drift_on;
  result.drift_threshold = options_.drift_threshold;

  // Trip the circuit breaker: quarantine the client and discard everything
  // it still holds (queued, deferred, and unconsumed session samples).
  const auto record_fault = [&](std::uint32_t c, std::uint64_t tick) {
    ClientState& st = states[c];
    ++st.stats.faults;
    ++st.consecutive_faults;
    if (!st.stats.quarantined && st.consecutive_faults >= breaker) {
      st.stats.quarantined = true;
      st.stats.quarantined_tick = tick;
      st.stats.dropped += st.queue.drain(queue_depth, discard);
      st.stats.dropped += st.deferred.size();
      st.deferred.clear();
      const std::size_t stream = sessions.clients[c].ordinals.size();
      st.stats.dropped += stream - st.cursor;
      st.cursor = stream;
      st.buffer.clear();
      st.window.clear();
    }
  };

  // Per-client model health + run-level drift/confidence rollup — pure
  // function of the accumulated state, shared by partial and final
  // snapshots.
  const auto fill_model_health = [&](ServeResult& out) {
    if (!drift_on) return;
    out.model_health.clear();
    out.drift_score = 0.0;
    out.drift_suspected_clients = 0;
    std::vector<double> all_confidences;
    for (std::uint32_t c = 0; c < clients; ++c) {
      const ClientState& st = states[c];
      ClientModelHealth mh;
      mh.client = c;
      mh.windows = st.window_confidences.size();
      mh.rows = st.rows_classified;
      if (!st.window_confidences.empty()) {
        mh.confidence_p50 = lower_median(st.window_confidences);
        mh.confidence_min = *std::min_element(st.window_confidences.begin(),
                                              st.window_confidences.end());
      }
      mh.drift_score = st.drift_score;
      mh.drift_suspected = options_.drift_threshold > 0.0 && mh.windows > 0 &&
                           mh.drift_score >= options_.drift_threshold;
      if (mh.drift_suspected) ++out.drift_suspected_clients;
      out.drift_score = std::max(out.drift_score, mh.drift_score);
      all_confidences.insert(all_confidences.end(),
                             st.window_confidences.begin(),
                             st.window_confidences.end());
      out.model_health.push_back(mh);
    }
    out.confidence_p50 = lower_median(std::move(all_confidences));
  };

  // Generous termination backstop: the loop below always makes progress
  // (every tick consumes arrivals, drains queues, or trips a breaker), but
  // a hard cap turns any future regression into a truncated-run result
  // instead of a hang.
  const std::uint64_t hard_cap =
      span / window + static_cast<std::uint64_t>(trace.samples.size()) + 16;

  struct Slot {
    bool candidate = false;
    bool window_fault = false;
    bool classify_fault = false;
    bool rmc = false;
    std::uint64_t retries = 0;
    std::uint64_t backoff_cycles = 0;
    // Model-health payload, merged serially after the fan-out (the drift
    // histogram sits in `drifts`, whose buffers live across ticks).
    bool has_confidence = false;
    double confidence = 0.0;  ///< min row confidence in the window
    std::uint64_t rows = 0;
  };
  std::vector<Slot> slots;
  std::vector<ml::DriftBaseline> drifts(clients);
  std::vector<double> tick_confidences;

  std::uint64_t tick = 0;
  for (;; ++tick) {
    bool pending = false;
    for (std::uint32_t c = 0; c < clients; ++c) {
      const ClientState& st = states[c];
      if (st.stats.quarantined) continue;
      if (st.cursor < sessions.clients[c].ordinals.size() ||
          !st.deferred.empty() || st.queue.size() > 0) {
        pending = true;
        break;
      }
    }
    if (!pending) break;
    const std::uint64_t window_start = tick * window;
    if ((options_.max_cycles != 0 && window_start >= options_.max_cycles) ||
        tick >= hard_cap) {
      // Replay cut short: account every unserved sample so the snapshot
      // still balances, then stop cleanly (the caller still snapshots).
      result.drained = false;
      for (std::uint32_t c = 0; c < clients; ++c) {
        ClientState& st = states[c];
        if (st.stats.quarantined) continue;
        st.stats.dropped += st.queue.drain(queue_depth, discard);
        st.stats.dropped += st.deferred.size();
        st.deferred.clear();
        const std::size_t stream = sessions.clients[c].ordinals.size();
        st.stats.dropped += stream - st.cursor;
        st.cursor = stream;
      }
      break;
    }
    const std::uint64_t window_end = window_start + window;

    obs::Span tick_span("serve.tick");
    tick_span.arg("tick", static_cast<double>(tick));

    // -- admission (serial, client then ordinal order) ---------------------
    for (std::uint32_t c = 0; c < clients; ++c) {
      ClientState& st = states[c];
      if (st.stats.quarantined) continue;
      const std::vector<std::uint32_t>& stream = sessions.clients[c].ordinals;
      const auto arrives = [&] {
        return st.cursor < stream.size() &&
               trace.samples[stream[st.cursor]].cycle < window_end;
      };
      if (!arrives() && st.deferred.empty()) continue;

      // Session-level gate: one retryable draw per client-window.
      const std::uint64_t session_key =
          tick * static_cast<std::uint64_t>(clients) + c;
      const RetryOutcome session = retry([&](std::uint64_t attempt) {
        return fault::should_inject("serve.session", fault::Kind::kFail,
                                    session_key * 16 + attempt);
      });
      st.stats.retries += session.retries;
      st.stats.backoff_cycles += session.backoff_cycles;
      if (!session.ok) {
        // The whole window's admission is skipped; arrivals stay pending
        // and are re-offered next tick (the breaker bounds how long).
        record_fault(c, tick);
        continue;
      }
      st.consecutive_faults = 0;

      // Last tick's push-backs go first, then this window's arrivals; both
      // buffers keep their capacity across ticks.
      st.offers.swap(st.deferred);
      st.deferred.clear();
      for (; arrives(); ++st.cursor) st.offers.push_back(stream[st.cursor]);
      for (const std::uint32_t ordinal : st.offers) {
        if (st.stats.quarantined) {
          ++st.stats.dropped;
          continue;
        }
        ++st.stats.offered;
        if (armed && fault::should_inject("serve.ingest",
                                          fault::Kind::kDropSample, ordinal)) {
          ++st.stats.dropped;
          continue;
        }
        const RetryOutcome ingest = retry([&](std::uint64_t attempt) {
          return fault::should_inject("serve.ingest", fault::Kind::kFail,
                                      std::uint64_t{ordinal} * 16 + attempt);
        });
        st.stats.retries += ingest.retries;
        st.stats.backoff_cycles += ingest.backoff_cycles;
        if (!ingest.ok) {
          ++st.stats.dropped;
          record_fault(c, tick);
          continue;
        }
        switch (st.queue.push(ordinal)) {
          case AdmitResult::kAdmitted:
          case AdmitResult::kShed:
            st.consecutive_faults = 0;
            break;
          case AdmitResult::kDeferred:
            st.deferred.push_back(ordinal);
            break;
          case AdmitResult::kRejected:
            break;
        }
      }
    }

    // -- drain into sliding windows (serial) -------------------------------
    slots.assign(clients, Slot{});
    for (std::uint32_t c = 0; c < clients; ++c) {
      ClientState& st = states[c];
      if (st.stats.quarantined) continue;
      // Add before evict, the order the window has always used: outside
      // ChannelWindow's exactness bound the order can move feature bits.
      // The evicted record comes from the ring, not from the trace.
      const std::size_t drained =
          st.queue.drain(drain_n, [&](std::uint32_t ordinal) {
            st.buffer.push_back(st.window.add(trace.samples[ordinal]));
            ++st.window_updates;
            if (st.buffer.size() > options_.window_capacity) {
              st.window.evict(st.buffer.pop_front());
              ++st.window_updates;
            }
          });
      if (drained > 0 && model != nullptr) slots[c].candidate = true;
    }

    // -- classify (indexed fan-out; applied serially below) ----------------
    pool.parallel_for(clients, [&](std::size_t i) {
      Slot& slot = slots[i];
      if (!slot.candidate) return;
      const std::uint64_t key =
          tick * static_cast<std::uint64_t>(clients) + i;
      const RetryOutcome featurize = retry([&](std::uint64_t attempt) {
        return fault::should_inject("serve.window", fault::Kind::kFail,
                                    key * 16 + attempt);
      });
      slot.retries += featurize.retries;
      slot.backoff_cycles += featurize.backoff_cycles;
      if (!featurize.ok) {
        slot.window_fault = true;
        return;
      }
      const RetryOutcome classify = retry([&](std::uint64_t attempt) {
        return fault::should_inject("serve.classify", fault::Kind::kFail,
                                    key * 16 + attempt);
      });
      slot.retries += classify.retries;
      slot.backoff_cycles += classify.backoff_cycles;
      if (!classify.ok) {
        slot.classify_fault = true;
        return;
      }
      const WindowVerdict verdict = tool_->classify_window(states[i].window);
      if (verdict.channels.empty()) return;
      slot.rmc = verdict.rmc;
      slot.rows = verdict.channels.size();
      slot.confidence = 1.0;
      for (const WindowChannel& ch : verdict.channels) {
        slot.confidence =
            std::min(slot.confidence, ch.explanation.confidence);
      }
      slot.has_confidence = true;
      if (drift_on) {
        drifts[i].resize(num_features);
        tool_->observe_drift(verdict, drifts[i]);
      }
    });

    tick_confidences.clear();
    std::uint64_t tick_windows = 0;
    std::uint64_t tick_rmc = 0;
    for (std::uint32_t c = 0; c < clients; ++c) {
      const Slot& slot = slots[c];
      if (!slot.candidate) continue;
      ClientState& st = states[c];
      st.stats.retries += slot.retries;
      st.stats.backoff_cycles += slot.backoff_cycles;
      if (slot.window_fault || slot.classify_fault) {
        record_fault(c, tick);
        continue;
      }
      st.consecutive_faults = 0;
      ++st.stats.windows_classified;
      ++tick_windows;
      if (slot.rmc) {
        ++st.stats.windows_rmc;
        ++tick_rmc;
      }
      if (slot.has_confidence) {
        st.window_confidences.push_back(slot.confidence);
        tick_confidences.push_back(slot.confidence);
        st.rows_classified += slot.rows;
        if (drift_on) {
          // Only a client whose histograms changed gets a new score.
          st.serving.merge(drifts[c]);
          st.drift_score = 0.0;
          for (const double d : ml::DriftBaseline::divergence(baseline,
                                                              st.serving)) {
            st.drift_score = std::max(st.drift_score, d);
          }
        }
      }
    }

    if (tick_windows > 0) {
      // One windowed-timeline row per classifying tick; the drift column is
      // the running max across clients so the rendered timeline shows when
      // serving traffic left the training distribution.
      double drift_now = 0.0;
      for (const ClientState& st : states) {
        drift_now = std::max(drift_now, st.drift_score);
      }
      result.timeline.push_back(TimelineRow{tick, 1, tick_windows, tick_rmc,
                                            lower_median(tick_confidences),
                                            drift_now});
    }

    result.ticks = tick + 1;
    if (!options_.snapshot_path.empty() && options_.snapshot_every != 0 &&
        (tick + 1) % options_.snapshot_every == 0) {
      ServeResult partial = result;
      for (std::uint32_t c = 0; c < clients; ++c) {
        states[c].stats.peak_depth = states[c].queue.peak();
        partial.clients.push_back(states[c].stats);
      }
      fill_model_health(partial);
      if (write_snapshot(partial, options_.snapshot_path)) {
        ++result.snapshots_written;
      }
    }
  }

  // -- final accounting ----------------------------------------------------
  for (ClientState& state : states) {
    const BoundedQueue& queue = state.queue;
    ClientStats& st = state.stats;
    st.admitted = queue.admitted();
    st.shed = queue.shed();
    st.rejected = queue.rejected();
    st.deferred = queue.deferred();
    st.peak_depth = queue.peak();
    result.samples_admitted += st.admitted;
    result.samples_shed += st.shed;
    result.samples_rejected += st.rejected;
    result.samples_deferred += st.deferred;
    result.samples_dropped += st.dropped;
    result.windows_classified += st.windows_classified;
    result.windows_rmc += st.windows_rmc;
    result.faults += st.faults;
    result.retries += st.retries;
    if (st.quarantined) ++result.quarantined_clients;
    result.clients.push_back(st);
  }
  fill_model_health(result);

  auto& registry = obs::Registry::global();
  registry
      .counter("drbw_serve_samples_ingested_total",
               "Trace samples routed into client sessions by drbw serve")
      .add(result.samples_in);
  registry
      .counter("drbw_serve_samples_admitted_total",
               "Samples admitted through the bounded client queues")
      .add(result.samples_admitted);
  registry
      .counter("drbw_serve_samples_shed_total",
               "Oldest queued samples evicted under the shed-oldest policy")
      .add(result.samples_shed);
  registry
      .counter("drbw_serve_samples_rejected_total",
               "Samples refused by a full queue under the reject policy")
      .add(result.samples_rejected);
  registry
      .counter("drbw_serve_samples_deferred_total",
               "Push-back events on a full queue under the block policy")
      .add(result.samples_deferred);
  registry
      .counter("drbw_serve_samples_dropped_total",
               "Samples lost to injected drops, exhausted retries, "
               "quarantine, or a --max-cycles cutoff")
      .add(result.samples_dropped);
  registry
      .counter("drbw_serve_windows_classified_total",
               "Sliding windows featurized and classified by drbw serve")
      .add(result.windows_classified);
  registry
      .counter("drbw_serve_windows_rmc_total",
               "Classified windows with at least one contended channel")
      .add(result.windows_rmc);
  registry
      .counter("drbw_serve_ticks_total",
               "Replay ticks (ingest windows) executed by drbw serve")
      .add(result.ticks);
  registry
      .counter("drbw_serve_faults_total",
               "Serve operations that exhausted their retries")
      .add(result.faults);
  registry
      .counter("drbw_serve_retries_total",
               "Extra attempts taken by the serve retry-with-backoff loops")
      .add(result.retries);
  registry
      .counter("drbw_serve_clients_quarantined_total",
               "Clients tripped into quarantine by the circuit breaker")
      .add(result.quarantined_clients);
  auto& window_updates = registry.counter(
      "drbw_serve_window_updates_total",
      "Samples added to or evicted from client classify windows");
  for (const ClientState& st : states) window_updates.add(st.window_updates);
  std::uint64_t peak = 0;
  for (const ClientStats& st : result.clients) {
    peak = std::max(peak, st.peak_depth);
  }
  registry
      .gauge("drbw_serve_queue_depth_peak",
             "High-water mark across every client ingest queue")
      .set_max(static_cast<double>(peak));
  if (model != nullptr) {
    auto& confidence_hist = registry.histogram(
        "drbw_model_confidence_bucket",
        "Per-window classification confidence (leaf purity, percent)",
        {50, 60, 70, 80, 90, 95, 100});
    for (const ClientState& st : states) {
      for (const double c : st.window_confidences) {
        confidence_hist.observe(static_cast<std::uint64_t>(c * 100.0 + 0.5));
      }
    }
    registry
        .gauge("drbw_model_drift_score",
               "Max per-feature PSI divergence of serving traffic from the "
               "model's training baseline (0 when the model has none)")
        .set_max(result.drift_score);
  }

  if (write_snapshot(result, options_.snapshot_path)) {
    ++result.snapshots_written;
  }
  return result;
}

}  // namespace drbw::serve
