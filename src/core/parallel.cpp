#include "core/parallel.h"

#include "core/telemetry.h"
#include "layout/tile_grid.h"

#include <algorithm>

namespace dfm {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  concurrency_ = threads;
  const unsigned workers = threads - 1;
  queues_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  // Drain before stopping: every submitted task runs (futures stay valid).
  while (run_one()) {
  }
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    stop_.store(true, std::memory_order_relaxed);
  }
  sleep_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

namespace {
thread_local const ThreadPool* tl_pool = nullptr;
thread_local std::size_t tl_worker = 0;
}  // namespace

void ThreadPool::submit(std::function<void()> task) {
  if (queues_.empty()) {
    // Serial pool: run inline — there is nobody else to run it.
    task();
    return;
  }
  std::size_t target;
  if (tl_pool == this) {
    target = tl_worker;  // nested submission: stay on the owner's deque
  } else {
    target = next_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  }
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mu);
    queues_[target]->tasks.push_back(std::move(task));
  }
  const std::size_t depth = pending_.fetch_add(1, std::memory_order_release);
  TELEM_COUNTER_ADD("pool.tasks_submitted", 1);
  TELEM_HIST_OBSERVE("pool.queue_depth", ({0, 1, 2, 4, 8, 16, 32, 64}),
                     depth + 1);
  sleep_cv_.notify_one();
}

bool ThreadPool::try_get(std::size_t self, std::function<void()>& out,
                         bool& stolen) {
  const std::size_t n = queues_.size();
  if (n == 0) return false;
  // Own deque from the back (LIFO: depth-first on nested work)...
  if (self < n) {
    std::lock_guard<std::mutex> lock(queues_[self]->mu);
    if (!queues_[self]->tasks.empty()) {
      out = std::move(queues_[self]->tasks.back());
      queues_[self]->tasks.pop_back();
      stolen = false;
      return true;
    }
  }
  // ...then steal from the victims' front (FIFO: oldest, largest work).
  for (std::size_t k = 1; k <= n; ++k) {
    const std::size_t victim = (self + k) % n;
    std::lock_guard<std::mutex> lock(queues_[victim]->mu);
    if (!queues_[victim]->tasks.empty()) {
      out = std::move(queues_[victim]->tasks.front());
      queues_[victim]->tasks.pop_front();
      stolen = true;
      TELEM_COUNTER_ADD("pool.steals", 1);
      return true;
    }
  }
  return false;
}

bool ThreadPool::run_one() {
  std::function<void()> task;
  bool stolen = false;
  const std::size_t self = (tl_pool == this) ? tl_worker : queues_.size();
  if (!try_get(self, task, stolen)) return false;
  pending_.fetch_sub(1, std::memory_order_acquire);
  TELEM_SPAN_ARG("pool/task", stolen ? 1 : 0);
  TELEM_COUNTER_ADD("pool.tasks_run", 1);
  task();
  return true;
}

void ThreadPool::worker_loop(std::size_t self) {
  tl_pool = this;
  tl_worker = self;
  telemetry::set_thread_name("pool worker " + std::to_string(self));
  for (;;) {
    std::function<void()> task;
    bool stolen = false;
    if (try_get(self, task, stolen)) {
      pending_.fetch_sub(1, std::memory_order_acquire);
      {
        // Busy span: one per executed task, arg 1 when work-stolen, so
        // the trace shows each worker's busy/steal mix between idles.
        TELEM_SPAN_ARG("pool/task", stolen ? 1 : 0);
        TELEM_COUNTER_ADD("pool.tasks_run", 1);
        task();
      }
      continue;
    }
    {
      // Idle span: brackets exactly the sleep on the shared condition.
      TELEM_SPAN("pool/idle");
      std::unique_lock<std::mutex> lock(sleep_mu_);
      sleep_cv_.wait(lock, [this] {
        return pending_.load(std::memory_order_acquire) > 0 ||
               stop_.load(std::memory_order_relaxed);
      });
    }
    if (stop_.load(std::memory_order_relaxed) &&
        pending_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (queues_.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  TELEM_SPAN_ARG("pool/parallel_for", n);

  struct Shared {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<bool> failed{false};
    std::mutex err_mu;
    std::exception_ptr err;
    std::size_t n = 0;
    const std::function<void(std::size_t)>* fn = nullptr;
  };
  auto shared = std::make_shared<Shared>();
  shared->n = n;
  shared->fn = &fn;

  const auto drain = [](const std::shared_ptr<Shared>& s) {
    for (;;) {
      const std::size_t i = s->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= s->n) return;
      if (!s->failed.load(std::memory_order_acquire)) {
        try {
          (*s->fn)(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(s->err_mu);
          if (!s->err) s->err = std::current_exception();
          s->failed.store(true, std::memory_order_release);
        }
      }
      s->done.fetch_add(1, std::memory_order_release);
    }
  };

  // One helper task per worker; surplus helpers find next >= n and exit.
  const std::size_t helpers = std::min<std::size_t>(queues_.size(), n - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    submit([shared, drain] { drain(shared); });
  }
  // The calling thread participates instead of blocking...
  drain(shared);
  // ...and while stragglers finish their claimed index, helps with any
  // other pending work (this is what makes nested parallel_for safe).
  while (shared->done.load(std::memory_order_acquire) < n) {
    if (!run_one()) std::this_thread::yield();
  }
  if (shared->failed.load(std::memory_order_acquire)) {
    std::rethrow_exception(shared->err);
  }
}

std::vector<Rect> make_tiles(const Rect& extent, Coord tile) {
  return TileGrid(extent, tile).cores();
}

}  // namespace dfm
