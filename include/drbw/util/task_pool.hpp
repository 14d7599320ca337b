// Fixed-worker thread pool for run-level fan-out.
//
// DR-BW's pipeline is embarrassingly parallel above the simulator: every
// training-set run, every evaluation case, and every forest tree consumes
// its own explicit seed and writes its own output slot, so results are
// bitwise independent of scheduling.  TaskPool exploits that: a small fixed
// set of workers drains an index range (`parallel_for`) or a task queue
// (`submit`), and the *calling* thread always participates in its own
// parallel_for, which makes nested fan-outs deadlock-free even when every
// worker is busy.
//
// Determinism contract: callers must make each task a pure function of its
// index (own RNG stream, own output slot).  Under that contract a pool with
// any worker count produces output identical to a serial loop — the
// property `tests/task_pool_test.cpp` pins down for the training-set
// generator and the random forest.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "drbw/obs/trace.hpp"
#include "drbw/util/error.hpp"

namespace drbw::util {

namespace detail {

/// Tasks executed across all pools.  parallel_for adds `n` up front, so the
/// total is a pure function of the workload — jobs-independent, hence golden.
inline obs::Counter& pool_tasks_run_counter() {
  static obs::Counter& counter = obs::Registry::global().counter(
      "drbw_pool_tasks_run_total",
      "Tasks executed by util::TaskPool (parallel_for indices + submits)");
  return counter;
}

}  // namespace detail

/// Largest `--jobs` any front end accepts: far above any real core count,
/// and small enough that a typo cannot ask for a billion workers.
inline constexpr int kMaxJobs = 1024;

class TaskPool {
 public:
  /// `jobs` is the total concurrency, *including* the calling thread during
  /// parallel_for: the pool spawns `jobs - 1` workers.  jobs <= 0 means one
  /// job per hardware thread.  jobs == 1 spawns no threads at all and every
  /// API runs inline — the serial reference the determinism tests compare
  /// against.
  explicit TaskPool(int jobs = 0);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Total concurrency (worker threads + the participating caller).
  unsigned jobs() const { return static_cast<unsigned>(threads_.size()) + 1; }

  /// Maps the 0-means-hardware-concurrency convention used by every `jobs`
  /// knob (ForestParams, TrainingOptions, EvaluationOptions, --jobs).
  static unsigned resolve_jobs(int jobs);

  /// Runs fn(0) ... fn(n-1), each exactly once, and blocks until all have
  /// finished.  Indices are claimed atomically; the caller drains alongside
  /// the workers.  The first exception thrown by any fn is rethrown here
  /// (remaining indices still run).
  template <typename Fn>
  void parallel_for(std::size_t n, Fn&& fn) {
    if (n == 0) return;
    // One fork key per fan-out, derived from the *calling* scope before any
    // dispatch: the serial and parallel paths below install byte-identical
    // child trace tracks, so --jobs never leaks into trace output.
    const std::uint64_t fork = obs::fork_key();
    detail::pool_tasks_run_counter().add(n);
    if (threads_.empty() || n == 1) {
      for (std::size_t i = 0; i < n; ++i) {
        obs::TraceTrack track(fork, i);
        fn(i);
      }
      return;
    }

    struct Shared {
      std::atomic<std::size_t> next{0};
      std::atomic<std::size_t> done{0};
      std::mutex mutex;
      std::condition_variable cv;
      std::exception_ptr error;
    };
    auto shared = std::make_shared<Shared>();
    // Helpers reference `fn`, which outlives them: parallel_for does not
    // return before `done == n`, and a helper that wakes later only claims
    // an out-of-range index and exits without touching fn.
    auto drain = [shared, n, &fn, fork] {
      for (;;) {
        const std::size_t i = shared->next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        try {
          obs::TraceTrack track(fork, i);
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(shared->mutex);
          if (!shared->error) shared->error = std::current_exception();
        }
        if (shared->done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
          std::lock_guard<std::mutex> lock(shared->mutex);
          shared->cv.notify_all();
        }
      }
    };

    const std::size_t helpers = std::min<std::size_t>(threads_.size(), n - 1);
    for (std::size_t h = 0; h < helpers; ++h) enqueue(drain);
    drain();  // the caller claims indices too — nested fan-outs cannot starve

    std::unique_lock<std::mutex> lock(shared->mutex);
    shared->cv.wait(lock, [&] { return shared->done.load() >= n; });
    if (shared->error) std::rethrow_exception(shared->error);
  }

  /// Runs fn(*it) over [first, last) (random-access iterators).
  template <typename It, typename Fn>
  void parallel_for_each(It first, It last, Fn&& fn) {
    const auto n = static_cast<std::size_t>(last - first);
    parallel_for(n, [&](std::size_t i) { fn(*(first + static_cast<std::ptrdiff_t>(i))); });
  }

  /// Futures API: schedules one task and returns its future.  On a
  /// single-job pool the task runs inline before submit returns.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<std::decay_t<Fn>&>> {
    using R = std::invoke_result_t<std::decay_t<Fn>&>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> future = task->get_future();
    const std::uint64_t fork = obs::fork_key();
    detail::pool_tasks_run_counter().add(1);
    if (threads_.empty()) {
      obs::TraceTrack track(fork, 0);
      (*task)();
    } else {
      enqueue([task, fork] {
        obs::TraceTrack track(fork, 0);
        (*task)();
      });
    }
    return future;
  }

 private:
  void enqueue(std::function<void()> task);
  void worker_loop();

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
};

}  // namespace drbw::util
