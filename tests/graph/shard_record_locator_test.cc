// ShardRecordLocator and ShardFrontierReader (graph/shard_record_locator.h):
// the locator agrees with a full scan, a frontier read yields exactly the
// records a scan yields for the ids asked for, at every pool size and
// without a pool, and the reader's forward-only and identity checks hold.
#include "graph/shard_record_locator.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gen/generators.h"
#include "gen/plrg.h"
#include "graph/degree_sort.h"
#include "graph/sharded_adjacency_file.h"
#include "io/io_stats.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace semis {
namespace {

using testing_util::ScratchTest;
using testing_util::WriteGraphFile;

struct ScannedRecord {
  VertexId id = 0;
  std::vector<VertexId> neighbors;
  uint64_t offset = 0;  // byte offset in its shard
};

class ShardRecordLocatorTest : public ScratchTest {
 protected:
  // A degree-sorted PLRG split into `shards` shards, its manifest, and
  // every record per shard in scan order.
  void MakeStore(uint32_t shards) {
    const Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(3000, 2.0), 91);
    const std::string mono = WriteGraphFile(&scratch_, g);
    const std::string sorted = NewPath("sorted");
    ASSERT_OK(
        BuildDegreeSortedAdjacencyFile(mono, sorted, DegreeSortOptions{}));
    manifest_path_ = NewPath("store");
    ASSERT_OK(ShardAdjacencyFile(sorted, manifest_path_, shards));
    ASSERT_OK(ReadShardedAdjacencyManifest(manifest_path_, &manifest_));
    scanned_.assign(shards, {});
    for (uint32_t k = 0; k < shards; ++k) {
      AdjacencyShardReader reader;
      ASSERT_OK(reader.Open(manifest_path_, manifest_, k));
      uint64_t offset = kAdjacencyShardHeaderBytes;
      VertexRecordView rec;
      bool has_next = false;
      while (true) {
        ASSERT_OK(reader.Next(&rec, &has_next));
        if (!has_next) break;
        scanned_[k].push_back({rec.id, {rec.begin(), rec.end()}, offset});
        offset += AdjacencyRecordBytes(rec.degree);
      }
      ASSERT_OK(reader.Close());
    }
  }

  std::string manifest_path_;
  ShardedAdjacencyManifest manifest_;
  std::vector<std::vector<ScannedRecord>> scanned_;
};

TEST_F(ShardRecordLocatorTest, LocatorAgreesWithTheScan) {
  MakeStore(3);
  ShardRecordLocator locator;
  IoStats io;
  ASSERT_OK(locator.Build(manifest_path_, manifest_, &io));
  EXPECT_EQ(io.sequential_scans, 1u);
  uint64_t rank = 0;
  for (uint32_t k = 0; k < scanned_.size(); ++k) {
    EXPECT_EQ(locator.first_rank(k), rank);
    for (const ScannedRecord& r : scanned_[k]) {
      EXPECT_EQ(locator.rank(r.id), rank);
      EXPECT_EQ(locator.ShardOf(r.id), k);
      rank++;
    }
  }
  EXPECT_EQ(locator.first_rank(manifest_.num_shards()), rank);
  EXPECT_GE(locator.MemoryBytes(), rank * sizeof(uint32_t));

  // SortByRank orders by record position and drops repeats.
  std::vector<VertexId> ids = {scanned_[2][5].id, scanned_[0][7].id,
                               scanned_[2][5].id, scanned_[0][3].id};
  locator.SortByRank(&ids);
  EXPECT_EQ(ids, (std::vector<VertexId>{scanned_[0][3].id, scanned_[0][7].id,
                                        scanned_[2][5].id}));
}

TEST_F(ShardRecordLocatorTest, FrontierReadMatchesTheScanAtEveryPoolSize) {
  MakeStore(3);
  ShardRecordLocator locator;
  ASSERT_OK(locator.Build(manifest_path_, manifest_, nullptr));
  // Ids in rank order across all shards, with gaps of 1..40 records:
  // some stay inside one checkpoint block, some jump several.
  std::vector<VertexId> ids;
  std::vector<const ScannedRecord*> want;
  for (const std::vector<ScannedRecord>& shard : scanned_) {
    uint64_t gap = 1;
    for (uint64_t i = 0; i < shard.size(); i += gap, gap = gap % 40 + 3) {
      ids.push_back(shard[i].id);
      want.push_back(&shard[i]);
    }
  }
  ASSERT_GT(ids.size(), 100u);

  for (size_t pool_size : {size_t{0}, size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE("pool size " + std::to_string(pool_size));
    std::unique_ptr<ThreadPool> pool;
    if (pool_size > 0) pool = std::make_unique<ThreadPool>(pool_size);
    const ShardFrontierReader reader(manifest_path_, manifest_, locator,
                                     pool.get());
    std::vector<std::vector<ScannedRecord>> got(manifest_.num_shards());
    IoStats io;
    ASSERT_OK(reader.Read(ids, &io,
                          [&](uint32_t shard, const VertexRecordView& rec) {
                            got[shard].push_back(
                                {rec.id, {rec.begin(), rec.end()}, 0});
                          }));
    size_t next = 0;
    for (uint32_t k = 0; k < got.size(); ++k) {
      for (const ScannedRecord& r : got[k]) {
        ASSERT_LT(next, want.size());
        EXPECT_EQ(r.id, want[next]->id);
        EXPECT_EQ(r.neighbors, want[next]->neighbors) << "vertex " << r.id;
        EXPECT_EQ(locator.ShardOf(r.id), k);
        next++;
      }
    }
    EXPECT_EQ(next, want.size());
    EXPECT_EQ(io.records_decoded, ids.size());
    EXPECT_EQ(io.sequential_scans, 0u);
  }
}

TEST_F(ShardRecordLocatorTest, IdsOutOfRankOrderAreInvalidArgument) {
  MakeStore(3);
  ShardRecordLocator locator;
  ASSERT_OK(locator.Build(manifest_path_, manifest_, nullptr));
  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const ShardFrontierReader reader(manifest_path_, manifest_, locator, p);
    const auto ignore = [](uint32_t, const VertexRecordView&) {};
    // An id behind its shard's read position.
    const std::vector<VertexId> behind = {scanned_[1][20].id,
                                          scanned_[1][3].id};
    EXPECT_TRUE(reader.Read(behind, nullptr, ignore).IsInvalidArgument());
    // A shard's ids after a later shard's.
    const std::vector<VertexId> shards_back = {
        scanned_[0][1].id, scanned_[2][1].id, scanned_[0][9].id};
    EXPECT_TRUE(
        reader.Read(shards_back, nullptr, ignore).IsInvalidArgument());
  }
}

TEST_F(ShardRecordLocatorTest, CheckpointNamingTheWrongRecordIsCorruption) {
  MakeStore(3);
  ShardRecordLocator locator;
  ASSERT_OK(locator.Build(manifest_path_, manifest_, nullptr));
  // Shard 1's checkpoints each name the record after the right one.
  const std::vector<ScannedRecord>& shard = scanned_[1];
  std::vector<uint64_t> shifted;
  for (size_t i = 0; i < shard.size(); i += kLocatorCheckpointStride) {
    shifted.push_back(shard[std::min(i + 1, shard.size() - 1)].offset);
  }
  locator.ReplaceCheckpoints(1, std::move(shifted));
  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const ShardFrontierReader reader(manifest_path_, manifest_, locator, p);
    const std::vector<VertexId> ids = {scanned_[0][2].id, shard[40].id,
                                       scanned_[2][2].id};
    std::vector<VertexId> visited;
    const Status s = reader.Read(
        ids, nullptr, [&](uint32_t shard_index, const VertexRecordView& rec) {
          if (shard_index == 1) visited.push_back(rec.id);
        });
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_TRUE(visited.empty());
  }
}

}  // namespace
}  // namespace semis
