#ifndef PROVDB_COMMON_THREAD_POOL_H_
#define PROVDB_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/thread_annotations.h"
#include "observability/metrics.h"

namespace provdb {

/// How much parallelism a verification/audit component may use. The
/// default (one thread) is bit-for-bit equivalent to the historical
/// sequential code path: no pool is created, no tasks are spawned, and
/// every loop runs inline in the caller's thread (OrderedFanOut).
struct ParallelismConfig {
  int num_threads = 1;

  bool sequential() const { return num_threads <= 1; }

  /// One thread per hardware core (at least 1).
  static ParallelismConfig Hardware() {
    unsigned n = std::thread::hardware_concurrency();
    return ParallelismConfig{n == 0 ? 1 : static_cast<int>(n)};
  }
};

/// A fixed-size pool of worker threads executing submitted tasks FIFO.
///
/// `Submit` packages any nullary callable and returns a `std::future` for
/// its result; exceptions thrown by the task are captured and rethrown
/// from `future::get()`. `Shutdown` (also run by the destructor) is
/// graceful: every task already queued is executed before the workers
/// exit. Tasks submitted after shutdown began run inline in the
/// submitting thread, so their futures are still fulfilled.
///
/// Tasks must not block on futures of tasks queued on the *same* pool
/// (no nested fan-out): with all workers waiting, the queued subtasks
/// would never be picked up.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 is clamped to 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  size_t size() const { return workers_.size(); }

  /// Enqueues `fn` and returns a future for its result.
  template <typename Fn>
  auto Submit(Fn&& fn)
      -> std::future<std::invoke_result_t<std::decay_t<Fn>>> {
    using R = std::invoke_result_t<std::decay_t<Fn>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> future = task->get_future();
    {
      MutexLock lock(&mu_);
      if (!stopping_) {
        queue_.emplace_back([task] { (*task)(); });
        queue_depth_->Add(1);
        wake_.Signal();
        return future;
      }
    }
    // Pool is draining or drained: run inline so the future is usable.
    (*task)();
    return future;
  }

  /// Executes every queued task, then joins all workers. Idempotent.
  void Shutdown();

  /// Tasks completed so far (drained from the queue and executed by a
  /// worker; inline post-shutdown executions are not counted).
  uint64_t tasks_executed() const;

 private:
  void WorkerLoop();

  mutable Mutex mu_;
  CondVar wake_{&mu_};
  std::deque<std::function<void()>> queue_ PROVDB_GUARDED_BY(mu_);
  // Written only by the constructor and joined by Shutdown — the spawn
  // and the join order against every worker, so no lock guards the vector
  // itself.
  std::vector<std::thread> workers_;
  uint64_t executed_ PROVDB_GUARDED_BY(mu_) = 0;
  bool stopping_ PROVDB_GUARDED_BY(mu_) = false;

  // Pool observability (docs/OBSERVABILITY.md): registered once at
  // construction; shared across every pool in the process.
  observability::Counter* tasks_total_;
  observability::Gauge* queue_depth_;
  observability::Histogram* task_latency_;
};

/// Calls `fn` on every element of `items` and returns the results in
/// `items` order. Runs inline, in the calling thread, when `pool` is null,
/// has one worker, or `items` holds fewer than two elements; otherwise as
/// one pool task per element. Results are collected in input order, so
/// the output never depends on scheduling. The tasks share `fn` and
/// `items` by reference and may run concurrently, so both must be safe
/// to read from several threads. Must not be called from a task running
/// on `pool` (no nested fan-out).
template <typename Items, typename Fn>
auto OrderedFanOut(ThreadPool* pool, const Items& items, const Fn& fn)
    -> std::vector<
        std::invoke_result_t<const Fn&, const typename Items::value_type&>> {
  using R =
      std::invoke_result_t<const Fn&, const typename Items::value_type&>;
  std::vector<R> results;
  results.reserve(items.size());
  if (pool == nullptr || pool->size() <= 1 || items.size() < 2) {
    for (const auto& item : items) {
      results.push_back(fn(item));
    }
    return results;
  }
  std::vector<std::future<R>> futures;
  futures.reserve(items.size());
  for (const auto& item : items) {
    futures.push_back(pool->Submit([&fn, &item] { return fn(item); }));
  }
  for (std::future<R>& future : futures) {
    results.push_back(future.get());
  }
  return results;
}

}  // namespace provdb

#endif  // PROVDB_COMMON_THREAD_POOL_H_
