#include "util/flat_key_set.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "util/random.h"

namespace semis {
namespace {

uint64_t EdgeKey(uint32_t u, uint32_t v) {
  return (uint64_t{u} << 32) | v;
}

TEST(FlatKeySetTest, StartsEmptyWithoutMemory) {
  FlatKeySet set;
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.Contains(0));
  EXPECT_FALSE(set.Erase(0));
  EXPECT_EQ(set.MemoryBytes(), 0u);
}

TEST(FlatKeySetTest, InsertEraseContains) {
  FlatKeySet set;
  EXPECT_TRUE(set.Insert(7));
  EXPECT_FALSE(set.Insert(7));
  EXPECT_TRUE(set.Insert(0));
  EXPECT_TRUE(set.Insert(FlatKeySet::kEmptyKey - 1));
  EXPECT_EQ(set.size(), 3u);
  EXPECT_TRUE(set.Contains(0));
  EXPECT_TRUE(set.Contains(7));
  EXPECT_TRUE(set.Contains(FlatKeySet::kEmptyKey - 1));
  EXPECT_FALSE(set.Contains(8));
  EXPECT_TRUE(set.Erase(7));
  EXPECT_FALSE(set.Erase(7));
  EXPECT_FALSE(set.Contains(7));
  EXPECT_EQ(set.size(), 2u);
}

TEST(FlatKeySetTest, AgreesWithStdSetUnderChurn) {
  // Keys come and go from small and large pools (edge keys of a few
  // vertices, so clusters form), and every answer and size must match an
  // ordered set. Erasure shifts keys back into holes; a wrong shift loses
  // a key that a later Contains or duplicate Insert would miss.
  for (uint64_t pool : {40u, 5000u}) {
    FlatKeySet set;
    std::set<uint64_t> model;
    Random rng(pool);
    for (int step = 0; step < 200000; ++step) {
      const auto u = static_cast<uint32_t>(rng.Uniform(pool));
      const auto v = static_cast<uint32_t>(rng.Uniform(pool));
      const uint64_t key = EdgeKey(u, v);
      switch (rng.Uniform(3)) {
        case 0:
          ASSERT_EQ(set.Insert(key), model.insert(key).second) << step;
          break;
        case 1:
          ASSERT_EQ(set.Erase(key), model.erase(key) == 1) << step;
          break;
        default:
          ASSERT_EQ(set.Contains(key), model.count(key) == 1) << step;
      }
      ASSERT_EQ(set.size(), model.size());
    }
    for (uint64_t key : model) ASSERT_TRUE(set.Contains(key));
  }
}

TEST(FlatKeySetTest, ErasingEverythingLeavesNoResidue) {
  // Without tombstones, a set emptied by erasure is indistinguishable
  // from a fresh one of the same capacity: nothing is found and every key
  // inserts again.
  FlatKeySet set;
  std::vector<uint64_t> keys;
  for (uint32_t i = 0; i < 3000; ++i) keys.push_back(EdgeKey(i % 17, i));
  for (uint64_t key : keys) ASSERT_TRUE(set.Insert(key));
  const size_t bytes = set.MemoryBytes();
  for (uint64_t key : keys) ASSERT_TRUE(set.Erase(key));
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.MemoryBytes(), bytes);
  for (uint64_t key : keys) ASSERT_FALSE(set.Contains(key));
  for (uint64_t key : keys) ASSERT_TRUE(set.Insert(key));
  EXPECT_EQ(set.size(), keys.size());
  EXPECT_EQ(set.MemoryBytes(), bytes);
}

TEST(FlatKeySetTest, ReserveClearAndMemoryCharge) {
  FlatKeySet set;
  set.Reserve(1000);
  const size_t bytes = set.MemoryBytes();
  // At most half full: 1000 keys need 2048 slots (a power of two), which
  // hold up to 1024 keys, charged exactly.
  EXPECT_EQ(bytes, 2048 * sizeof(uint64_t));
  for (uint64_t key = 0; key < 1024; ++key) ASSERT_TRUE(set.Insert(key * 3));
  EXPECT_EQ(set.MemoryBytes(), bytes) << "Reserve should have sufficed";
  ASSERT_TRUE(set.Insert(1));  // the 1025th key outgrows it
  EXPECT_EQ(set.MemoryBytes(), 2 * bytes);
  for (uint64_t key = 0; key < 1024; ++key) ASSERT_TRUE(set.Contains(key * 3));
  set.Clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.Contains(3));
  EXPECT_EQ(set.MemoryBytes(), 2 * bytes);
  EXPECT_TRUE(set.Insert(3));
}

TEST(FlatKeyMapTest, FindOrInsertKeepsTheFirstValue) {
  FlatKeyMap map;
  uint32_t value = 0;
  EXPECT_FALSE(map.Find(5, &value));
  EXPECT_EQ(map.MemoryBytes(), 0u);
  bool inserted = false;
  EXPECT_EQ(map.FindOrInsert(5, 10, &inserted), 10u);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(map.FindOrInsert(5, 11, &inserted), 10u);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(map.FindOrInsert(FlatKeyMap::kEmptyKey - 1, 0, &inserted), 0u);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(map.size(), 2u);
  ASSERT_TRUE(map.Find(5, &value));
  EXPECT_EQ(value, 10u);
  EXPECT_FALSE(map.Find(6, &value));
}

TEST(FlatKeyMapTest, AgreesWithStdMapAcrossGrowth) {
  // Clustered edge keys inserted and looked up while the table doubles
  // many times: every value must follow its key through each rehash.
  FlatKeyMap map;
  std::map<uint64_t, uint32_t> model;
  Random rng(17);
  for (int step = 0; step < 100000; ++step) {
    const uint64_t key = EdgeKey(static_cast<uint32_t>(rng.Uniform(300)),
                                 static_cast<uint32_t>(rng.Uniform(300)));
    if (rng.Uniform(2) == 0) {
      bool inserted = false;
      const auto [it, added] = model.emplace(key, static_cast<uint32_t>(step));
      ASSERT_EQ(map.FindOrInsert(key, static_cast<uint32_t>(step), &inserted),
                it->second)
          << step;
      ASSERT_EQ(inserted, added) << step;
    } else {
      uint32_t value = 0;
      const auto it = model.find(key);
      ASSERT_EQ(map.Find(key, &value), it != model.end()) << step;
      if (it != model.end()) {
        ASSERT_EQ(value, it->second) << step;
      }
    }
    ASSERT_EQ(map.size(), model.size());
  }
  for (const auto& [key, expected] : model) {
    uint32_t value = 0;
    ASSERT_TRUE(map.Find(key, &value));
    ASSERT_EQ(value, expected);
  }
}

TEST(FlatKeyMapTest, MemoryChargeIsBothArrays) {
  // At most half full, like the set: 1024 keys fit 2048 slots, each an
  // 8-byte key and a 4-byte value; the 1025th doubles both arrays.
  FlatKeyMap map;
  bool inserted = false;
  for (uint64_t key = 0; key < 1024; ++key) map.FindOrInsert(key, 0, &inserted);
  EXPECT_EQ(map.MemoryBytes(), 2048 * (sizeof(uint64_t) + sizeof(uint32_t)));
  map.FindOrInsert(1024, 0, &inserted);
  EXPECT_EQ(map.MemoryBytes(), 4096 * (sizeof(uint64_t) + sizeof(uint32_t)));
}

}  // namespace
}  // namespace semis
