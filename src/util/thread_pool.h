// Copyright (c) the semis authors.
// A minimal fixed-size thread pool for the parallel executors (swap rounds
// and the sharded greedy prefetcher). Its primitive is a parallel-for over
// an index range: workers pull indices from a shared atomic counter, so
// work items of uneven cost (adjacency shards) balance automatically. With
// one worker the items are processed strictly in ascending order, which
// makes the single-threaded execution the sequential reference path of
// every algorithm built on top.
//
// The parallel-for comes in two flavors sharing one work queue: the
// blocking ParallelFor, and a BeginParallelFor/WaitForCompletion split for
// producer-consumer pipelines where the submitting thread keeps consuming
// results (e.g. the manifest-ordered shard cursor commits records while
// the pool decodes shards ahead of it).
#ifndef SEMIS_UTIL_THREAD_POOL_H_
#define SEMIS_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

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
  /// Not reentrant: one job at a time.
  void ParallelFor(size_t num_items,
                   const std::function<void(size_t item, size_t worker)>& fn)
      EXCLUDES(mu_);

  /// Non-blocking half of ParallelFor: hands the job to the workers and
  /// returns immediately, so the calling thread can consume what the
  /// workers produce. The pool keeps its own copy of `fn`. Exactly one
  /// job may be in flight; every Begin must be paired with a
  /// WaitForCompletion before the next Begin (or destruction).
  void BeginParallelFor(size_t num_items,
                        std::function<void(size_t item, size_t worker)> fn)
      EXCLUDES(mu_);

  /// Blocks until the job started by BeginParallelFor has finished (all
  /// items processed by all workers). No-op when no job is in flight.
  void WaitForCompletion() EXCLUDES(mu_);

 private:
  void WorkerLoop(size_t worker_index) EXCLUDES(mu_);

  std::vector<std::thread> threads_;
  Mutex mu_;
  CondVar job_cv_;   // workers wait for a new job epoch
  CondVar done_cv_;  // WaitForCompletion waits here
  // Written under mu_ by Begin/Wait; workers invoke it OUTSIDE mu_ via a
  // pointer taken under the lock. Safe because Wait cannot clear it until
  // every worker has passed the workers_done_ barrier (see WorkerLoop).
  std::function<void(size_t, size_t)> job_fn_ GUARDED_BY(mu_);
  bool job_active_ GUARDED_BY(mu_) = false;
  size_t job_items_ GUARDED_BY(mu_) = 0;
  std::atomic<size_t> next_item_{0};
  size_t workers_done_ GUARDED_BY(mu_) = 0;
  uint64_t epoch_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
};

}  // namespace semis

#endif  // SEMIS_UTIL_THREAD_POOL_H_
