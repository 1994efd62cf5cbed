#include "util/thread_pool.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace semis {

uint32_t ResolveThreadCount(uint32_t num_threads) {
  if (num_threads != 0) return num_threads;
  return std::max(1u, std::thread::hardware_concurrency());
}

std::unique_ptr<ThreadPool> MakeShardPool(uint32_t num_threads,
                                          uint64_t num_shards) {
  const uint64_t workers =
      std::min<uint64_t>(ResolveThreadCount(num_threads), num_shards);
  if (workers <= 1) return nullptr;
  return std::make_unique<ThreadPool>(workers);
}

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = ResolveThreadCount(0);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  job_cv_.NotifyAll();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::ParallelFor(
    size_t num_items, const std::function<void(size_t, size_t)>& fn) {
  if (num_items == 0) return;
  MutexLock lock(&mu_);
  // One job at a time: a second job would reset the completion barrier
  // mid-job and re-issue in-flight items under the new fn. Abort
  // unconditionally (not assert) so the contract holds under NDEBUG too.
  if (job_active_) {
    std::fprintf(stderr,
                 "ThreadPool::ParallelFor called while a job is in flight\n");
    std::abort();
  }
  job_fn_ = &fn;
  job_items_ = num_items;
  next_item_.store(0, std::memory_order_relaxed);
  workers_done_ = 0;
  job_active_ = true;
  epoch_++;
  job_cv_.NotifyAll();
  while (workers_done_ != threads_.size()) done_cv_.Wait(&mu_);
  job_active_ = false;
  job_fn_ = nullptr;
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  uint64_t seen_epoch = 0;
  while (true) {
    size_t items = 0;
    const std::function<void(size_t, size_t)>* fn = nullptr;
    {
      MutexLock lock(&mu_);
      while (!stop_ && epoch_ == seen_epoch) job_cv_.Wait(&mu_);
      if (stop_) return;
      seen_epoch = epoch_;
      items = job_items_;
      // The pointer (not the guarded member) crosses the lock boundary:
      // the job's fn stays alive until ParallelFor returns, which cannot
      // happen before every worker has passed the workers_done_ barrier
      // below, so invoking through `fn` unlocked is safe.
      fn = job_fn_;
    }
    while (true) {
      const size_t item = next_item_.fetch_add(1, std::memory_order_relaxed);
      if (item >= items) break;
      (*fn)(item, worker_index);
    }
    {
      MutexLock lock(&mu_);
      workers_done_++;
      if (workers_done_ == threads_.size()) done_cv_.NotifyAll();
    }
  }
}

}  // namespace semis
