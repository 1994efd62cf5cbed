#include "util/fan_out.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace semis {
namespace {

constexpr size_t kWorkerCounts[] = {2, 4, 8};
constexpr size_t kItemCounts[] = {1, 3, 7, 64};

TEST(FanOutTest, RunsEveryItemExactlyOnce) {
  for (size_t workers : kWorkerCounts) {
    for (size_t items : kItemCounts) {
      SCOPED_TRACE(std::to_string(workers) + " workers x " +
                   std::to_string(items) + " items");
      std::vector<std::atomic<int>> hits(items);
      ASSERT_TRUE(ForEachItem(workers, items, [&](size_t item, size_t worker) {
                    EXPECT_LT(worker, std::min(workers, items));
                    hits[item].fetch_add(1);
                    return Status::OK();
                  }).ok());
      for (size_t i = 0; i < items; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "item " << i;
      }
    }
  }
}

TEST(FanOutTest, WorkerZeroIsTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  for (size_t workers : kWorkerCounts) {
    for (size_t items : kItemCounts) {
      SCOPED_TRACE(std::to_string(workers) + " workers x " +
                   std::to_string(items) + " items");
      std::vector<std::thread::id> ran_on(items);
      std::vector<size_t> ran_as(items);
      ASSERT_TRUE(ForEachItem(workers, items, [&](size_t item, size_t worker) {
                    ran_on[item] = std::this_thread::get_id();
                    ran_as[item] = worker;
                    return Status::OK();
                  }).ok());
      for (size_t i = 0; i < items; ++i) {
        EXPECT_EQ(ran_as[i] == 0, ran_on[i] == caller) << "item " << i;
      }
    }
  }
}

TEST(FanOutTest, ReturnsTheFirstErrorInItemOrder) {
  // The last item fails, and so does item 1 when there is one: the error
  // is item 1's, whichever worker ran which, and every item still runs.
  for (size_t workers : kWorkerCounts) {
    for (size_t items : kItemCounts) {
      SCOPED_TRACE(std::to_string(workers) + " workers x " +
                   std::to_string(items) + " items");
      const size_t first_bad = items > 2 ? 1 : items - 1;
      for (int repeat = 0; repeat < 10; ++repeat) {
        std::vector<std::atomic<int>> ran(items);
        const Status s =
            ForEachItem(workers, items, [&](size_t item, size_t) {
              ran[item].fetch_add(1);
              if (item == first_bad) {
                return Status::IOError("item " + std::to_string(item));
              }
              if (item == items - 1) return Status::Corruption("last item");
              return Status::OK();
            });
        EXPECT_TRUE(s.IsIOError()) << s.ToString();
        EXPECT_EQ(s.message(), "item " + std::to_string(first_bad));
        for (size_t i = 0; i < items; ++i) {
          EXPECT_EQ(ran[i].load(), 1) << "item " << i;
        }
      }
    }
  }
}

TEST(FanOutTest, RethrowsAnItemsExceptionAfterTheJoin) {
  // An exception on any worker, the calling thread included, leaves
  // ForEachItem after every started thread has been joined, as it leaves
  // the one-thread loop.
  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    for (size_t throwing : {size_t{0}, size_t{5}}) {
      SCOPED_TRACE(std::to_string(workers) + " workers, item " +
                   std::to_string(throwing) + " throws");
      EXPECT_THROW(
          ForEachItem(workers, 8,
                      [&](size_t item, size_t) {
                        if (item == throwing) {
                          throw std::runtime_error("item failed");
                        }
                        return Status::OK();
                      })
              .IgnoreError(),
          std::runtime_error);
    }
  }
}

TEST(FanOutTest, SingleWorkerProcessesInOrder) {
  // The sequential reference path: one worker runs every item on the
  // calling thread as worker 0, in item order.
  const std::thread::id caller = std::this_thread::get_id();
  for (size_t items : {size_t{1}, size_t{3}, size_t{7}, size_t{64},
                       size_t{100}}) {
    SCOPED_TRACE(std::to_string(items) + " items");
    std::vector<size_t> order;
    ASSERT_TRUE(ForEachItem(1, items, [&](size_t item, size_t worker) {
                  EXPECT_EQ(worker, 0u);
                  EXPECT_EQ(std::this_thread::get_id(), caller);
                  order.push_back(item);
                  return Status::OK();
                }).ok());
    ASSERT_EQ(order.size(), items);
    for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  }
}

TEST(FanOutTest, ZeroWorkersOrOneItemRunOnTheCallingThread) {
  // Zero workers over many items, and many workers over a single item,
  // take the same sequential path: no thread starts, and the items run
  // on the calling thread as worker 0, in item order.
  const std::thread::id caller = std::this_thread::get_id();
  const std::pair<size_t, size_t> cases[] = {{0, 50}, {2, 1}, {4, 1}, {8, 1}};
  for (const auto& [workers, items] : cases) {
    SCOPED_TRACE(std::to_string(workers) + " workers x " +
                 std::to_string(items) + " items");
    std::vector<size_t> order;
    ASSERT_TRUE(ForEachItem(workers, items, [&](size_t item, size_t worker) {
                  EXPECT_EQ(worker, 0u);
                  EXPECT_EQ(std::this_thread::get_id(), caller);
                  order.push_back(item);
                  return Status::OK();
                }).ok());
    ASSERT_EQ(order.size(), items);
    for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  }
}

TEST(FanOutTest, ZeroThreadsMeansHardwareConcurrency) {
  // threads = 0 sizes a pass by the hardware, and that pass runs every
  // item exactly once, on at most min(workers, items) workers.
  constexpr size_t kItems = 10;
  const size_t workers = ResolveThreadCount(0);
  EXPECT_GE(workers, 1u);
  std::vector<std::atomic<int>> hits(kItems);
  ASSERT_TRUE(ForEachItem(workers, kItems, [&](size_t item, size_t worker) {
                EXPECT_LT(worker, std::min(workers, kItems));
                hits[item].fetch_add(1);
                return Status::OK();
              }).ok());
  for (size_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "item " << i;
  }
}

TEST(FanOutTest, ZeroItemsReturnAtOnce) {
  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    EXPECT_TRUE(ForEachItem(workers, 0, [](size_t, size_t) {
                  return Status::IOError("never runs");
                }).ok());
  }
}

TEST(FanOutTest, ResolveThreadCountKeepsExplicitCounts) {
  EXPECT_EQ(ResolveThreadCount(1), 1u);
  EXPECT_EQ(ResolveThreadCount(3), 3u);
  EXPECT_EQ(ResolveThreadCount(4096), 4096u);
  // 0 asks for the hardware: never fewer than one worker.
  const uint32_t hardware = ResolveThreadCount(0);
  EXPECT_GE(hardware, 1u);
  EXPECT_EQ(hardware, std::max(1u, std::thread::hardware_concurrency()));
}

}  // namespace
}  // namespace semis
