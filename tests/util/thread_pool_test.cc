#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace semis {
namespace {

TEST(ThreadPoolTest, RunsEveryItemExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  constexpr size_t kItems = 1000;
  std::vector<std::atomic<int>> hits(kItems);
  pool.ParallelFor(kItems, [&](size_t item, size_t worker) {
    EXPECT_LT(worker, 4u);
    hits[item].fetch_add(1);
  });
  for (size_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "item " << i;
  }
}

TEST(ThreadPoolTest, SingleWorkerProcessesInOrder) {
  // One worker takes the items in ascending order. (The sequential
  // reference path is ForEachItem without a pool, tested below.)
  ThreadPool pool(1);
  std::vector<size_t> order;
  pool.ParallelFor(100, [&](size_t item, size_t) { order.push_back(item); });
  ASSERT_EQ(order.size(), 100u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, ReusableAcrossJobs) {
  ThreadPool pool(3);
  std::atomic<size_t> total{0};
  for (int job = 0; job < 50; ++job) {
    pool.ParallelFor(17, [&](size_t, size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 50u * 17u);
}

TEST(ThreadPoolTest, EmptyJobReturnsImmediately) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(0, [&](size_t, size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, ZeroThreadsMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  std::atomic<size_t> count{0};
  pool.ParallelFor(10, [&](size_t, size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10u);
}

TEST(ThreadPoolTest, ResolveThreadCountKeepsExplicitCounts) {
  EXPECT_EQ(ResolveThreadCount(1), 1u);
  EXPECT_EQ(ResolveThreadCount(3), 3u);
  EXPECT_EQ(ResolveThreadCount(4096), 4096u);
  // 0 asks for the hardware: never fewer than one worker, and the same
  // count a 0-thread pool spawns.
  const uint32_t hardware = ResolveThreadCount(0);
  EXPECT_GE(hardware, 1u);
  EXPECT_EQ(hardware, std::max(1u, std::thread::hardware_concurrency()));
  EXPECT_EQ(ThreadPool(0).size(), hardware);
}

TEST(ThreadPoolTest, ForEachItemReturnsTheFirstErrorInItemOrder) {
  // Items 3 and 5 fail, 5 typically first on a pool. Every item still
  // runs, and the error is item 3's at every pool size, also without one.
  constexpr size_t kItems = 12;
  for (size_t workers : {0u, 1u, 2u, 8u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    std::unique_ptr<ThreadPool> pool;
    if (workers > 0) pool = std::make_unique<ThreadPool>(workers);
    const size_t max_worker = workers > 0 ? workers : 1;
    for (int repeat = 0; repeat < 20; ++repeat) {
      std::vector<std::atomic<int>> ran(kItems);
      Status s = ForEachItem(pool.get(), kItems, [&](size_t item,
                                                     size_t worker) {
        EXPECT_LT(worker, max_worker);
        ran[item].fetch_add(1);
        if (item == 3) return Status::IOError("item 3");
        if (item == 5) return Status::Corruption("item 5");
        return Status::OK();
      });
      EXPECT_TRUE(s.IsIOError()) << s.ToString();
      EXPECT_EQ(s.message(), "item 3");
      for (size_t i = 0; i < kItems; ++i) {
        EXPECT_EQ(ran[i].load(), 1) << "item " << i;
      }
    }
  }
}

TEST(ThreadPoolTest, ForEachItemRunsInOrderOnTheCallingThreadWithoutAPool) {
  // The sequential reference path: no pool, or a single item, runs on
  // the calling thread as worker 0, in item order.
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const size_t items = p == nullptr ? 50 : 1;
    std::vector<size_t> order;
    ASSERT_TRUE(ForEachItem(p, items, [&](size_t item, size_t worker) {
                  EXPECT_EQ(worker, 0u);
                  EXPECT_EQ(std::this_thread::get_id(), caller);
                  order.push_back(item);
                  return Status::OK();
                }).ok());
    ASSERT_EQ(order.size(), items);
    for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  }
  EXPECT_TRUE(ForEachItem(&pool, 0, [](size_t, size_t) {
                return Status::IOError("never runs");
              }).ok());
}

TEST(ThreadPoolTest, MakeShardPoolSizesByTheSmallerOfThreadsAndShards) {
  EXPECT_EQ(MakeShardPool(1, 8), nullptr);
  EXPECT_EQ(MakeShardPool(8, 1), nullptr);
  EXPECT_EQ(MakeShardPool(1, 1), nullptr);
  EXPECT_EQ(MakeShardPool(4, 0), nullptr);
  for (uint32_t threads : {2u, 3u, 8u}) {
    for (uint64_t shards : {2u, 3u, 7u}) {
      const std::unique_ptr<ThreadPool> pool = MakeShardPool(threads, shards);
      ASSERT_NE(pool, nullptr) << threads << " x " << shards;
      EXPECT_EQ(pool->size(), std::min<uint64_t>(threads, shards));
    }
  }
  // 0 threads asks for the hardware, still capped by the shards.
  const uint64_t hardware = ResolveThreadCount(0);
  const std::unique_ptr<ThreadPool> pool = MakeShardPool(0, 64);
  EXPECT_EQ(pool == nullptr ? 1 : pool->size(),
            std::min<uint64_t>(hardware, 64));
}

}  // namespace
}  // namespace semis
