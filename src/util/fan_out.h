// Copyright (c) the semis authors.
// The one rule for how a pass over shards or record ranges uses threads:
// ResolveThreadCount sizes the pass and ForEachItem runs its items on at
// most min(workers, items) workers. A pass with more than one worker and
// more than one item is fork-join: it starts its extra workers, the
// calling thread works as worker 0, and it joins them before it returns,
// so no thread outlives its pass. Workers pull item indices from a
// shared atomic counter, so items of uneven cost (adjacency shards)
// balance automatically. With one worker or one item the items run in
// order on the calling thread: the sequential reference path of every
// algorithm built on top. Either way ForEachItem returns the first error
// in item order, whatever the schedule. State that each worker or item
// writes on every record (counters above all) sits on cache lines of its
// own, CacheAligned, so workers never write each other's lines.
#ifndef SEMIS_UTIL_FAN_OUT_H_
#define SEMIS_UTIL_FAN_OUT_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "util/status.h"

namespace semis {

/// The worker count a `num_threads` knob asks for: the value itself, or
/// std::thread::hardware_concurrency() (at least 1) when it is 0.
inline uint32_t ResolveThreadCount(uint32_t num_threads) {
  if (num_threads != 0) return num_threads;
  return std::max(1u, std::thread::hardware_concurrency());
}

/// The cache line size of the x86-64 and arm64 targets the library is
/// built for.
inline constexpr size_t kCacheLineBytes = 64;

/// A `T` on cache lines no other slot shares: the slot type of per-worker
/// and per-item state in a vector, such as the IoStats every record read
/// bumps. Without it, neighbouring workers' counters share a line, and
/// each record's update takes the line from the other worker.
template <typename T>
struct alignas(kCacheLineBytes) CacheAligned {
  T value{};
};

/// Runs `fn(item, worker)`, which returns a Status, for every item in
/// [0, num_items), with `worker` < min(workers, num_items) naming the
/// thread, so callers can keep per-worker scratch without
/// synchronization. Worker 0 is the calling thread; with at most one
/// worker or one item it runs every item in item order. Every item runs
/// to its end or its first error; the first error in item order is
/// returned, whichever worker ran which item. A worker thread that
/// cannot start is not an error: the workers already running take its
/// items. The join is the happens-before edge between the items' writes
/// and the caller's reads. An exception `fn` throws on any worker stops
/// that worker and is rethrown here after the join, as on one thread.
template <typename Fn>
Status ForEachItem(size_t workers, size_t num_items, Fn&& fn) {
  if (workers <= 1 || num_items <= 1) {
    Status first;
    for (size_t item = 0; item < num_items; ++item) {
      Status s = fn(item, size_t{0});
      if (first.ok()) first = std::move(s);
    }
    return first;
  }
  const size_t count = std::min(workers, num_items);
  std::vector<Status> status(num_items);
  std::vector<std::exception_ptr> thrown(count);
  std::atomic<size_t> next_item{0};
  const auto work = [&](size_t worker) {
    try {
      for (size_t item = next_item.fetch_add(1, std::memory_order_relaxed);
           item < num_items;
           item = next_item.fetch_add(1, std::memory_order_relaxed)) {
        status[item] = fn(item, worker);
      }
    } catch (...) {
      thrown[worker] = std::current_exception();
    }
  };
  {
    // jthreads join when they go out of scope, also when starting one
    // throws something other than system_error.
    std::vector<std::jthread> threads;
    threads.reserve(count - 1);
    for (size_t worker = 1; worker < count; ++worker) {
      try {
        threads.emplace_back(work, worker);
      } catch (const std::system_error&) {
        break;  // the threads already running take the rest
      }
    }
    work(0);
  }
  for (const std::exception_ptr& e : thrown) {
    if (e) std::rethrow_exception(e);
  }
  for (Status& s : status) {
    if (!s.ok()) return std::move(s);
  }
  return Status::OK();
}

}  // namespace semis

#endif  // SEMIS_UTIL_FAN_OUT_H_
