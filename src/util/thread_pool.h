// Copyright (c) the semis authors.
// A minimal fixed-size thread pool, and the one rule for how a pass over
// shards uses it: MakeShardPool sizes the pool and ForEachItem runs the
// pass's items. Workers pull indices from a shared atomic counter, so
// items of uneven cost (adjacency shards) balance automatically. Without
// a pool, ForEachItem runs the items in order on the calling thread: the
// sequential reference path of every algorithm built on top. Either way
// it returns the first error in item order, whatever the schedule.
#ifndef SEMIS_UTIL_THREAD_POOL_H_
#define SEMIS_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "util/status.h"
#include "util/thread_annotations.h"

namespace semis {

/// The worker count a `num_threads` knob asks for: the value itself, or
/// std::thread::hardware_concurrency() (at least 1) when it is 0.
uint32_t ResolveThreadCount(uint32_t num_threads);

/// Fixed pool of worker threads executing parallel-for jobs.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 = ResolveThreadCount(0)).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  size_t size() const { return threads_.size(); }

  /// Runs `fn(item, worker)` for every item in [0, num_items), distributing
  /// items over the workers, and returns when all items are done. `worker`
  /// is a stable index in [0, size()) identifying the executing thread, so
  /// callers can keep per-worker scratch state without synchronization.
  /// Not reentrant: one job at a time, and a second job started while one
  /// runs aborts the program. Passes call ForEachItem instead.
  void ParallelFor(size_t num_items,
                   const std::function<void(size_t item, size_t worker)>& fn)
      EXCLUDES(mu_);

 private:
  void WorkerLoop(size_t worker_index) EXCLUDES(mu_);

  std::vector<std::thread> threads_;
  Mutex mu_;
  CondVar job_cv_;   // workers wait for a new job epoch
  CondVar done_cv_;  // ParallelFor waits here for the workers
  // Set under mu_ by ParallelFor; workers invoke it OUTSIDE mu_ via a
  // pointer taken under the lock. Safe because ParallelFor does not
  // return, and so cannot end `fn`'s lifetime, until every worker has
  // passed the workers_done_ barrier (see WorkerLoop).
  const std::function<void(size_t, size_t)>* job_fn_ GUARDED_BY(mu_) =
      nullptr;
  bool job_active_ GUARDED_BY(mu_) = false;
  size_t job_items_ GUARDED_BY(mu_) = 0;
  std::atomic<size_t> next_item_{0};
  size_t workers_done_ GUARDED_BY(mu_) = 0;
  uint64_t epoch_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
};

/// The pool of a pass over `num_shards` shards: null when
/// min(ResolveThreadCount(num_threads), num_shards) <= 1, else a pool of
/// that many workers. Workers beyond the shard count add no parallelism;
/// they only spread freed memory over more malloc arenas, which stay
/// resident.
std::unique_ptr<ThreadPool> MakeShardPool(uint32_t num_threads,
                                          uint64_t num_shards);

/// Runs `fn(item, worker)`, which returns a Status, for every item in
/// [0, num_items): on `pool`, or in item order on the calling thread as
/// worker 0 when `pool` is null or there is at most one item. Every item
/// runs to its end or its first error; the first error in item order is
/// returned, whichever worker ran which item.
template <typename Fn>
Status ForEachItem(ThreadPool* pool, size_t num_items, Fn&& fn) {
  if (pool == nullptr || num_items <= 1) {
    Status first;
    for (size_t item = 0; item < num_items; ++item) {
      Status s = fn(item, size_t{0});
      if (first.ok()) first = std::move(s);
    }
    return first;
  }
  std::vector<Status> status(num_items);
  pool->ParallelFor(num_items, [&](size_t item, size_t worker) {
    status[item] = fn(item, worker);
  });
  for (Status& s : status) {
    if (!s.ok()) return std::move(s);
  }
  return Status::OK();
}

}  // namespace semis

#endif  // SEMIS_UTIL_THREAD_POOL_H_
