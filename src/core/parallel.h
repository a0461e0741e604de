// Work-stealing thread pool and tile scheduler: the parallel substrate
// for the heavy DFM passes (tiled litho simulation, window capture,
// per-rule DRC).
//
// Determinism contract: every parallel entry point in the toolkit
// decomposes its work into an *ordered* list of independent items
// (tiles in row-major order, capture windows in scan order, rules in
// deck order), computes each item's result in isolation, and merges the
// per-item results back in item-index order. Because each item is
// itself computed serially, the merged output is bit-identical to the
// serial pass regardless of thread count or scheduling order.
//
// Concurrency note: Region normalizes lazily through `mutable` state,
// so a raw Region shared across tasks would race on its first query.
// The toolkit closes this by construction: shared geometry travels as a
// LayoutSnapshot (core/snapshot.h), whose layers are normalized when the
// snapshot is built, or as a NormalizedRegion view
// (geometry/normalized_region.h), which performs the one mutating step
// in its constructor. Everything a task can reach through either is a
// pure read.
#pragma once

#include "geometry/rect.h"

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

namespace dfm {

/// Work-stealing pool: each worker owns a deque (owner pushes/pops the
/// back, thieves take the front), idle workers sleep on a shared
/// condition. `threads` is the *total* parallelism: the pool spawns
/// threads-1 workers and the submitting thread lends a hand inside
/// parallel_for, so threads == 1 means no background threads at all and
/// every entry point degenerates to the plain serial loop.
class ThreadPool {
 public:
  /// threads == 0 picks std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned threads = 0);
  /// Drains every submitted task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Resolved total parallelism (>= 1).
  unsigned concurrency() const { return concurrency_; }
  /// Background worker count (concurrency() - 1).
  unsigned worker_count() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueues a task. Called from a worker it lands on that worker's own
  /// deque (depth-first, cache-friendly); from outside it round-robins.
  void submit(std::function<void()> task);

  /// submit() wrapped in a packaged_task; exceptions surface on get().
  /// Join futures from outside the pool (a worker blocking on get()
  /// cannot help; use parallel_for for blocking fan-out inside tasks).
  template <typename F, typename R = std::invoke_result_t<F&>>
  std::future<R> async(F&& f) {
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    submit([task] { (*task)(); });
    return fut;
  }

  /// Runs fn(i) for every i in [0, n), distributing indices dynamically
  /// across the workers *and* the calling thread; returns when all n ran.
  /// The first exception is rethrown after the loop drains (remaining
  /// indices are skipped once a task has thrown). Safe to call from
  /// inside a pool task: the nested call helps execute pending work while
  /// it waits, so it cannot deadlock.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Steals and runs one pending task on the calling thread, if any.
  bool run_one();

 private:
  struct WorkerQueue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void worker_loop(std::size_t self);
  /// `stolen` reports whether the task came off a victim's deque rather
  /// than the caller's own (telemetry: per-worker steal accounting).
  bool try_get(std::size_t self, std::function<void()>& out, bool& stolen);

  unsigned concurrency_ = 1;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  std::atomic<std::size_t> pending_{0};
  std::atomic<unsigned> next_{0};
  std::atomic<bool> stop_{false};
};

/// Deterministic ordered map: out[i] = fn(i). With a null/serial pool the
/// loop runs inline; otherwise indices run concurrently but the result
/// vector is always in index order, so downstream merges are stable.
template <typename F>
auto parallel_map(ThreadPool* pool, std::size_t n, F&& fn)
    -> std::vector<std::invoke_result_t<F&, std::size_t>> {
  using R = std::invoke_result_t<F&, std::size_t>;
  std::vector<R> out(n);
  if (pool == nullptr || pool->concurrency() <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) out[i] = fn(i);
    return out;
  }
  pool->parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

/// Row-major tile decomposition of `extent` (y-outer scan order, partial
/// tiles clamped at the hi edges): the cores of TileGrid(extent, tile),
/// the canonical item ordering every tiled pass schedules and merges by.
std::vector<Rect> make_tiles(const Rect& extent, Coord tile);

}  // namespace dfm
