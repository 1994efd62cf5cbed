#include "graph/sharded_adjacency_file.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "gen/generators.h"
#include "gen/plrg.h"
#include "graph/degree_sort.h"
#include "test_util.h"

namespace semis {
namespace {

using testing_util::ScratchTest;
using testing_util::WriteGraphFile;

class ShardedAdjacencyFileTest : public ScratchTest {};

// Reads every record of every shard in index order into (id, neighbors).
std::vector<std::pair<VertexId, std::vector<VertexId>>> DrainSharded(
    const std::string& manifest_path) {
  std::vector<std::pair<VertexId, std::vector<VertexId>>> out;
  ShardedAdjacencyScanner scanner;
  Status s = scanner.Open(manifest_path);
  EXPECT_TRUE(s.ok()) << s.ToString();
  if (!s.ok()) return out;
  VertexRecord rec;
  bool has_next = false;
  while (scanner.Next(&rec, &has_next).ok() && has_next) {
    out.emplace_back(rec.id, std::vector<VertexId>(
                                 rec.neighbors, rec.neighbors + rec.degree));
  }
  return out;
}

std::vector<std::pair<VertexId, std::vector<VertexId>>> DrainMonolithic(
    const std::string& path) {
  std::vector<std::pair<VertexId, std::vector<VertexId>>> out;
  AdjacencyFileScanner scanner;
  Status s = scanner.Open(path);
  EXPECT_TRUE(s.ok()) << s.ToString();
  if (!s.ok()) return out;
  VertexRecord rec;
  bool has_next = false;
  while (scanner.Next(&rec, &has_next).ok() && has_next) {
    out.emplace_back(rec.id, std::vector<VertexId>(
                                 rec.neighbors, rec.neighbors + rec.degree));
  }
  return out;
}

TEST_F(ShardedAdjacencyFileTest, RoundtripPreservesGlobalOrder) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(5000, 2.0), 21);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("sharded");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 7));
  auto expected = DrainMonolithic(mono);
  auto actual = DrainSharded(manifest);
  ASSERT_EQ(actual.size(), expected.size());
  // Concatenating the shards must reproduce the monolithic record stream
  // exactly -- ids, order, and neighbor lists.
  EXPECT_EQ(actual, expected);
}

TEST_F(ShardedAdjacencyFileTest, ManifestTotalsMatchHeader) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(3000, 2.2), 22);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("sharded");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 4));
  ShardedAdjacencyManifest m;
  ASSERT_OK(ReadShardedAdjacencyManifest(manifest, &m));
  ASSERT_EQ(m.num_shards(), 4u);
  uint64_t records = 0, edges = 0;
  for (const ShardInfo& s : m.shards) {
    records += s.num_records;
    edges += s.num_directed_edges;
  }
  EXPECT_EQ(records, m.header.num_vertices);
  EXPECT_EQ(edges, m.header.num_directed_edges);
  EXPECT_EQ(m.header.num_vertices, g.NumVertices());
}

TEST_F(ShardedAdjacencyFileTest, ShardsAreBalancedByPayload) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(20000, 2.0), 23);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("sharded");
  const uint32_t kShards = 8;
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, kShards));
  ShardedAdjacencyManifest m;
  ASSERT_OK(ReadShardedAdjacencyManifest(manifest, &m));
  const uint64_t total_words =
      2 * m.header.num_vertices + m.header.num_directed_edges;
  const uint64_t budget = (total_words + kShards - 1) / kShards;
  for (uint32_t i = 0; i < kShards; ++i) {
    const uint64_t words =
        2 * m.shards[i].num_records + m.shards[i].num_directed_edges;
    // Every shard stays within budget + one max-size record of slack.
    EXPECT_LE(words, budget + 2 + m.header.max_degree) << "shard " << i;
    EXPECT_GT(m.shards[i].num_records, 0u) << "shard " << i;
  }
}

TEST_F(ShardedAdjacencyFileTest, DegreeSortedFlagSurvivesSharding) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(2000, 2.0), 24);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string sorted = NewPath("sorted");
  ASSERT_OK(BuildDegreeSortedAdjacencyFile(mono, sorted, DegreeSortOptions{}));
  std::string manifest = NewPath("sharded");
  ASSERT_OK(ShardAdjacencyFile(sorted, manifest, 3));
  ShardedAdjacencyScanner scanner;
  ASSERT_OK(scanner.Open(manifest));
  EXPECT_TRUE(scanner.header().IsDegreeSorted());
  // And the records really are in ascending (degree, id) order globally.
  VertexRecord rec;
  bool has_next = false;
  uint64_t prev_key = 0;
  while (true) {
    ASSERT_OK(scanner.Next(&rec, &has_next));
    if (!has_next) break;
    uint64_t key = (static_cast<uint64_t>(rec.degree) << 32) | rec.id;
    EXPECT_GE(key, prev_key);
    prev_key = key;
  }
}

TEST_F(ShardedAdjacencyFileTest, MoreShardsThanRecordsYieldsEmptyShards) {
  Graph g = GenerateErdosRenyi(5, 4, 25);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("sharded");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 16));
  ShardedAdjacencyManifest m;
  ASSERT_OK(ReadShardedAdjacencyManifest(manifest, &m));
  ASSERT_EQ(m.num_shards(), 16u);
  auto records = DrainSharded(manifest);
  EXPECT_EQ(records.size(), 5u);
}

TEST_F(ShardedAdjacencyFileTest, SingleShardIsValid) {
  Graph g = GenerateErdosRenyi(100, 300, 26);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("sharded");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 1));
  EXPECT_EQ(DrainSharded(manifest), DrainMonolithic(mono));
}

TEST_F(ShardedAdjacencyFileTest, ShardCountOutOfRangeRejected) {
  Graph g = GenerateErdosRenyi(10, 9, 27);
  std::string mono = WriteGraphFile(&scratch_, g);
  EXPECT_TRUE(
      ShardAdjacencyFile(mono, NewPath("sharded"), 0).IsInvalidArgument());
  // A wrapped-negative or fat-fingered count must not ask the writer to
  // materialize millions of files.
  EXPECT_TRUE(ShardAdjacencyFile(mono, NewPath("sharded"),
                                 kMaxAdjacencyShards + 1)
                  .IsInvalidArgument());
  EXPECT_TRUE(ShardAdjacencyFile(mono, NewPath("sharded"), 0xFFFFFFFFu)
                  .IsInvalidArgument());
}

TEST_F(ShardedAdjacencyFileTest, SplitRuleAgreesWithTheWriter) {
  // The split rule, restated here, against the shards AppendVertex rolls:
  // budget ceil((2|V| + |E|) / N) words, an empty shard never rolls, the
  // last shard takes the rest, trailing shards still get files. A star's
  // hub record outweighs one shard's budget at 7 and 20 shards; three
  // vertices leave trailing shards empty.
  struct Case {
    std::string name;
    Graph graph;
  };
  std::vector<Case> cases;
  cases.push_back({"star", GenerateStar(200)});
  cases.push_back({"tiny", GeneratePath(3)});
  cases.push_back(
      {"plrg", GeneratePlrg(PlrgSpec::ForVertexCount(3000, 1.9), 33)});
  for (const Case& c : cases) {
    const Graph& g = c.graph;
    // Degree-sorted record order, as the sort emits it.
    std::vector<VertexId> order(g.NumVertices());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
      return g.Degree(a) < g.Degree(b);
    });
    for (uint32_t shards : {1u, 3u, 7u, 20u}) {
      SCOPED_TRACE(c.name + ", " + std::to_string(shards) + " shards");
      const uint64_t budget = std::max<uint64_t>(
          (2 * g.NumVertices() + g.NumDirectedEdges() + shards - 1) / shards,
          1);
      std::vector<ShardInfo> planned(shards);
      uint32_t shard = 0;
      uint64_t shard_words = 0;
      for (VertexId v : order) {
        const uint64_t words = 2 + g.Degree(v);
        if (shard_words > 0 && shard_words + words > budget &&
            shard + 1 < shards) {
          shard++;
          shard_words = 0;
        }
        shard_words += words;
        planned[shard].num_records++;
        planned[shard].num_directed_edges += g.Degree(v);
      }
      const std::string manifest = NewPath("appended");
      ShardedAdjacencyFileWriter w;
      ASSERT_OK(w.Open(manifest, g.NumVertices(), g.NumDirectedEdges(),
                       g.MaxDegree(), 0, shards));
      for (VertexId v : order) {
        auto nbrs = g.Neighbors(v);
        ASSERT_OK(w.AppendVertex(v, nbrs.data(),
                                 static_cast<uint32_t>(nbrs.size())));
      }
      ASSERT_OK(w.Finish());
      ShardedAdjacencyManifest m;
      ASSERT_OK(ReadShardedAdjacencyManifest(manifest, &m));
      ASSERT_EQ(m.num_shards(), shards);
      for (uint32_t k = 0; k < shards; ++k) {
        EXPECT_EQ(m.shards[k].num_records, planned[k].num_records) << k;
        EXPECT_EQ(m.shards[k].num_directed_edges,
                  planned[k].num_directed_edges)
            << k;
        EXPECT_TRUE(std::filesystem::exists(ShardFilePath(manifest, k))) << k;
      }
      if (c.name == "star" && shards >= 7) {
        EXPECT_GT(2 + g.MaxDegree(), budget);
      }
      if (c.name == "tiny" && shards >= 7) {
        EXPECT_EQ(m.shards.back().num_records, 0u);
      }
    }
  }
}

TEST_F(ShardedAdjacencyFileTest, WriterRejectsRepeatedIds) {
  ShardedAdjacencyFileWriter w;
  ASSERT_OK(w.Open(NewPath("twice"), 3, 0, 1, 0, 2));
  ASSERT_OK(w.AppendVertex(2, nullptr, 0));
  EXPECT_TRUE(w.AppendVertex(2, nullptr, 0).IsInvalidArgument());
}

TEST_F(ShardedAdjacencyFileTest, CorruptManifestRejected) {
  // A monolithic adjacency file is not a manifest.
  Graph g = GenerateErdosRenyi(10, 9, 28);
  std::string mono = WriteGraphFile(&scratch_, g);
  ShardedAdjacencyManifest m;
  EXPECT_TRUE(ReadShardedAdjacencyManifest(mono, &m).IsCorruption());
}

TEST_F(ShardedAdjacencyFileTest, CursorYieldsManifestOrderAtEveryPoolSize) {
  // The manifest-ordered cursor contract: identical record stream to the
  // sequential sharded scanner, for any pool size and buffer window.
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(5000, 2.0), 30);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("sharded");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 5));
  auto expected = DrainSharded(manifest);

  for (size_t pool_size : {1u, 2u, 4u}) {
    ThreadPool pool(pool_size);
    ManifestOrderedShardCursor cursor;
    ASSERT_OK(cursor.Open(manifest, &pool));
    std::vector<std::pair<VertexId, std::vector<VertexId>>> got;
    VertexRecord rec;
    bool has_next = false;
    while (true) {
      ASSERT_OK(cursor.Next(&rec, &has_next));
      if (!has_next) break;
      got.emplace_back(rec.id, std::vector<VertexId>(
                                   rec.neighbors, rec.neighbors + rec.degree));
    }
    ASSERT_OK(cursor.Close());
    EXPECT_EQ(got, expected) << "pool size " << pool_size;
    EXPECT_GT(cursor.peak_buffered_bytes(), 0u);
  }
}

TEST_F(ShardedAdjacencyFileTest, CursorBoundedWindowAndEarlyClose) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(4000, 2.0), 31);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("sharded");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 8));
  {
    // A budget of one byte must still drain everything, even with more
    // workers than the ring can hold (the starvation override keeps the
    // consumer's shard publishable).
    ThreadPool pool(4);
    ManifestOrderedShardCursor cursor;
    BlockRingOptions ring;
    ring.max_buffered_bytes = 1;
    ASSERT_OK(cursor.Open(manifest, &pool, ring));
    uint64_t records = 0;
    VertexRecord rec;
    bool has_next = false;
    while (true) {
      ASSERT_OK(cursor.Next(&rec, &has_next));
      if (!has_next) break;
      records++;
    }
    EXPECT_EQ(records, g.NumVertices());
    ASSERT_OK(cursor.Close());
  }
  {
    // Abandoning a scan mid-way (destructor-driven Close) must not hang
    // on workers blocked at the window.
    ThreadPool pool(4);
    ManifestOrderedShardCursor cursor;
    BlockRingOptions ring;
    ring.max_buffered_bytes = 1;
    ASSERT_OK(cursor.Open(manifest, &pool, ring));
    VertexRecord rec;
    bool has_next = false;
    ASSERT_OK(cursor.Next(&rec, &has_next));
    EXPECT_TRUE(has_next);
  }
}

TEST_F(ShardedAdjacencyFileTest, CursorMergesWorkerIoAndCountsOneScan) {
  Graph g = GenerateErdosRenyi(1000, 3000, 32);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("sharded");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 4));
  IoStats io;
  ThreadPool pool(3);
  ManifestOrderedShardCursor cursor(&io);
  ASSERT_OK(cursor.Open(manifest, &pool));
  VertexRecord rec;
  bool has_next = false;
  while (true) {
    ASSERT_OK(cursor.Next(&rec, &has_next));
    if (!has_next) break;
  }
  ASSERT_OK(cursor.Close());
  EXPECT_EQ(io.sequential_scans, 1u);
  EXPECT_GE(io.files_opened, 5u);  // manifest + 4 shards
  uint64_t manifest_size = 0, shard0_size = 0;
  ASSERT_OK(GetFileSize(manifest, &manifest_size));
  ASSERT_OK(GetFileSize(ShardFilePath(manifest, 0), &shard0_size));
  EXPECT_GT(io.bytes_read, manifest_size + shard0_size);
}

TEST_F(ShardedAdjacencyFileTest, CursorRequiresPoolAndRejectsDoubleOpen) {
  Graph g = GenerateErdosRenyi(10, 9, 33);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("sharded");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 2));
  ManifestOrderedShardCursor cursor;
  EXPECT_TRUE(cursor.Open(manifest, nullptr).IsInvalidArgument());
  ThreadPool pool(2);
  ASSERT_OK(cursor.Open(manifest, &pool));
  EXPECT_TRUE(cursor.Open(manifest, &pool).IsInvalidArgument());
  ASSERT_OK(cursor.Close());
}

// Drains `cursor` through the view API into (id, neighbors).
std::vector<std::pair<VertexId, std::vector<VertexId>>> DrainCursor(
    ManifestOrderedShardCursor* cursor) {
  std::vector<std::pair<VertexId, std::vector<VertexId>>> got;
  VertexRecordView view;
  bool has_next = false;
  while (cursor->Next(&view, &has_next).ok() && has_next) {
    got.emplace_back(view.id,
                     std::vector<VertexId>(view.begin(), view.end()));
  }
  return got;
}

// Degenerate block geometry: a block capacity smaller than one record's
// neighbor list (a star center has degree ~ |V|) must still deliver the
// exact sequential stream -- the block grows for the oversized record.
TEST_F(ShardedAdjacencyFileTest, CursorBlockSmallerThanOneRecord) {
  Graph g = GenerateStar(300);  // center degree 299 >> 8-byte blocks
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("sharded");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 3));
  auto expected = DrainSharded(manifest);
  for (size_t budget : {size_t{1}, size_t{1} << 20}) {
    ThreadPool pool(4);
    ManifestOrderedShardCursor cursor;
    BlockRingOptions ring;
    ring.block_bytes = 8;
    ring.max_buffered_bytes = budget;
    ASSERT_OK(cursor.Open(manifest, &pool, ring));
    EXPECT_EQ(DrainCursor(&cursor), expected) << "budget " << budget;
    ASSERT_OK(cursor.Close());
  }
}

// A single-block ring (the budget admits exactly one block at a time)
// degenerates to strict hand-over-hand pipelining and must stay
// byte-identical to the sequential scan.
TEST_F(ShardedAdjacencyFileTest, CursorSingleBlockRing) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(3000, 2.0), 35);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("sharded");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 6));
  auto expected = DrainSharded(manifest);
  ThreadPool pool(3);
  ManifestOrderedShardCursor cursor;
  BlockRingOptions ring;
  ring.block_bytes = 512;
  ring.max_buffered_bytes = 512;  // one block in flight
  ASSERT_OK(cursor.Open(manifest, &pool, ring));
  EXPECT_EQ(DrainCursor(&cursor), expected);
  ASSERT_OK(cursor.Close());
  EXPECT_GT(cursor.blocks_decoded(), 1u);
}

// Empty shards in the MIDDLE of the manifest (the sharding writer only
// produces trailing empties, but compaction can empty any shard): both
// the sequential scanner and the cursor must cross them transparently.
TEST_F(ShardedAdjacencyFileTest, InteriorEmptyShardsYieldSequentialStream) {
  Graph g = GenerateErdosRenyi(200, 600, 36);
  std::string mono = WriteGraphFile(&scratch_, g);
  auto expected = DrainMonolithic(mono);
  ASSERT_EQ(expected.size(), 200u);

  // Hand-build a 4-shard file: [records 0..99][empty][records 100..199]
  // [empty] so one empty shard sits inside and one trails.
  std::string manifest = NewPath("holey");
  ShardedAdjacencyManifest m;
  AdjacencyFileScanner probe;
  ASSERT_OK(probe.Open(mono));
  m.header = probe.header();
  ASSERT_OK(probe.Close());
  m.shards.resize(4);
  const size_t split = 100;
  for (uint32_t k = 0; k < 4; ++k) {
    SequentialFileWriter writer;
    ASSERT_OK(writer.Open(ShardFilePath(manifest, k)));
    ASSERT_OK(WriteAdjacencyShardHeader(&writer, k, m.header.num_vertices));
    const size_t begin = k == 0 ? 0 : (k == 2 ? split : expected.size());
    const size_t end = k == 0 ? split : (k == 2 ? expected.size() : begin);
    for (size_t i = begin; i < end; ++i) {
      ASSERT_OK(writer.AppendU32(expected[i].first));
      ASSERT_OK(writer.AppendU32(
          static_cast<uint32_t>(expected[i].second.size())));
      if (!expected[i].second.empty()) {
        ASSERT_OK(writer.Append(expected[i].second.data(),
                                expected[i].second.size() *
                                    sizeof(VertexId)));
      }
      m.shards[k].num_records++;
      m.shards[k].num_directed_edges += expected[i].second.size();
    }
    ASSERT_OK(writer.Close());
  }
  ASSERT_OK(WriteShardedAdjacencyManifest(manifest, m));

  EXPECT_EQ(DrainSharded(manifest), expected);
  for (size_t pool_size : {1u, 2u, 4u}) {
    ThreadPool pool(pool_size);
    ManifestOrderedShardCursor cursor;
    ASSERT_OK(cursor.Open(manifest, &pool));
    EXPECT_EQ(DrainCursor(&cursor), expected) << "pool " << pool_size;
    ASSERT_OK(cursor.Close());
  }
}

// Close() racing workers blocked on the ring's byte budget (and a
// consumer mid-scan): must neither hang nor crash, at any pool size, under
// ASan/TSan-style repetition. The concurrent Next either keeps yielding
// records or fails cleanly once the cancel lands.
TEST_F(ShardedAdjacencyFileTest, CursorConcurrentCloseStress) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(3000, 2.0), 37);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("sharded");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 8));
  for (size_t pool_size : {1u, 2u, 8u}) {
    for (int rep = 0; rep < 20; ++rep) {
      ThreadPool pool(pool_size);
      ManifestOrderedShardCursor cursor;
      BlockRingOptions ring;
      ring.block_bytes = 256;
      ring.max_buffered_bytes = 256;  // keeps decoders parked on space_cv_
      ASSERT_OK(cursor.Open(manifest, &pool, ring));
      VertexRecordView view;
      bool has_next = false;
      ASSERT_OK(cursor.Next(&view, &has_next));
      std::atomic<bool> closed{false};
      std::thread closer([&] {
        Status s = cursor.Close();
        EXPECT_TRUE(s.ok()) << s.ToString();
        closed.store(true);
      });
      // Keep consuming into the teeth of the concurrent Close; every
      // outcome except a hang or a crash is legal.
      uint64_t drained = 0;
      while (true) {
        Status s = cursor.Next(&view, &has_next);
        if (!s.ok() || !has_next) break;
        drained++;
      }
      closer.join();
      EXPECT_TRUE(closed.load());
      ASSERT_OK(cursor.Close());  // idempotent after the race
      (void)drained;
    }
  }
}

// An abandoned scan must hand the consumer's in-flight block back to an
// external pool (via destruction or reopen) instead of stranding its
// warmed arena -- otherwise every early-closed scan erodes the pool's
// steady-state zero-allocation property.
TEST_F(ShardedAdjacencyFileTest, ExternalPoolRecyclesAbandonedBlock) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(4000, 2.0), 39);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("sharded");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 4));
  RecordBlockPool shared_pool;
  {
    ThreadPool pool(2);
    ManifestOrderedShardCursor cursor;
    BlockRingOptions ring;
    ring.pool = &shared_pool;
    ASSERT_OK(cursor.Open(manifest, &pool, ring));
    VertexRecordView view;
    bool has_next = false;
    ASSERT_OK(cursor.Next(&view, &has_next));  // consumer now holds a block
    ASSERT_TRUE(has_next);
    ASSERT_OK(cursor.Close());
  }  // destructor must return the held block to shared_pool
  const uint64_t created_after_abandon = shared_pool.blocks_created();
  EXPECT_GT(shared_pool.pooled_capacity_bytes(), 0u);

  // A full second scan over the same pool reuses the recycled arenas.
  ThreadPool pool(2);
  ManifestOrderedShardCursor cursor;
  BlockRingOptions ring;
  ring.pool = &shared_pool;
  ASSERT_OK(cursor.Open(manifest, &pool, ring));
  uint64_t records = 0;
  VertexRecordView view;
  bool has_next = false;
  while (true) {
    ASSERT_OK(cursor.Next(&view, &has_next));
    if (!has_next) break;
    records++;
  }
  ASSERT_OK(cursor.Close());
  EXPECT_EQ(records, g.NumVertices());
  EXPECT_GE(shared_pool.blocks_created(), created_after_abandon);
}

TEST_F(ShardedAdjacencyFileTest, CursorCountersSurfaceInIoStats) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(20000, 2.0), 38);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("sharded");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 4));
  IoStats io;
  ThreadPool pool(2);
  ManifestOrderedShardCursor cursor(&io);
  BlockRingOptions ring;
  ring.block_bytes = 1024;
  ASSERT_OK(cursor.Open(manifest, &pool, ring));
  uint64_t records = 0;
  VertexRecordView view;
  bool has_next = false;
  while (true) {
    ASSERT_OK(cursor.Next(&view, &has_next));
    if (!has_next) break;
    records++;
  }
  ASSERT_OK(cursor.Close());
  EXPECT_EQ(records, g.NumVertices());
  EXPECT_EQ(io.records_decoded, g.NumVertices());
  EXPECT_GT(io.blocks_decoded, 0u);
  EXPECT_EQ(io.blocks_decoded, cursor.blocks_decoded());
  EXPECT_GT(io.arena_bytes, 0u);
  EXPECT_GT(io.peak_buffered_bytes, 0u);
  // The ring budget, not the largest shard, bounds the buffering: with
  // 1 KiB blocks the default budget (plus the bounded overshoot of the
  // starvation override) stays far below one shard of this graph.
  uint64_t min_shard_bytes = UINT64_MAX;
  for (const ShardInfo& s : cursor.manifest().shards) {
    min_shard_bytes = std::min(
        min_shard_bytes,
        (2 * s.num_records + s.num_directed_edges) * sizeof(VertexId));
  }
  EXPECT_LT(io.peak_buffered_bytes, min_shard_bytes);
}

TEST_F(ShardedAdjacencyFileTest, CloseReportsErrorOfUnconsumedShard) {
  // Regression: an abandoned scan used to swallow a decode error in a
  // shard the consumer never reached -- Close() returned OK and a
  // truncated shard went entirely unreported. Close must surface the
  // first such error.
  Graph g = GenerateErdosRenyi(2000, 6000, 34);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("sharded");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 4));
  // Chop the tail off the LAST shard, so the damage sits in a shard the
  // consumer (which reads nothing at all here) never gets near.
  const std::string shard3 = ShardFilePath(manifest, 3);
  uint64_t size = 0;
  ASSERT_OK(GetFileSize(shard3, &size));
  ASSERT_GT(size, 16u);
  std::filesystem::resize_file(shard3, size - 7);

  ThreadPool pool(2);
  ManifestOrderedShardCursor cursor;
  BlockRingOptions ring;
  // A budget far above the whole file: no decoder ever stalls on
  // back-pressure, so WaitForCompletion below is deterministic.
  ring.max_buffered_bytes = 16u << 20;
  ASSERT_OK(cursor.Open(manifest, &pool, ring));
  // Let every decoder run to completion, so shard 3 has recorded its
  // error before Close inspects the streams.
  pool.WaitForCompletion();
  Status closed = cursor.Close();
  EXPECT_FALSE(closed.ok()) << "truncated unconsumed shard reported OK";
  // Close stays idempotent: the error is reported once, not latched.
  EXPECT_OK(cursor.Close());
}

TEST_F(ShardedAdjacencyFileTest, TruncatedShardSurfacesThroughNext) {
  // The in-band flavor of the same contract: a consumer that DOES reach
  // the damaged shard gets the error from Next, after every record of
  // the healthy shards before it.
  Graph g = GenerateErdosRenyi(2000, 6000, 35);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("sharded");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 3));
  ShardedAdjacencyManifest m;
  ASSERT_OK(ReadShardedAdjacencyManifest(manifest, &m));
  const std::string shard1 = ShardFilePath(manifest, 1);
  uint64_t size = 0;
  ASSERT_OK(GetFileSize(shard1, &size));
  std::filesystem::resize_file(shard1, size - 7);

  ThreadPool pool(2);
  ManifestOrderedShardCursor cursor;
  ASSERT_OK(cursor.Open(manifest, &pool));
  VertexRecordView view;
  bool has_next = false;
  uint64_t yielded = 0;
  Status s;
  while ((s = cursor.Next(&view, &has_next)).ok() && has_next) yielded++;
  EXPECT_FALSE(s.ok()) << "scan over a truncated shard completed OK";
  // Every record of the healthy shard 0 was delivered before the error.
  EXPECT_GE(yielded, m.shards[0].num_records);
  // The scan never reached the end, so Close re-reports the failure.
  EXPECT_FALSE(cursor.Close().ok());
}

TEST_F(ShardedAdjacencyFileTest, ShardReaderValidatesIndex) {
  Graph g = GenerateErdosRenyi(50, 100, 29);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("sharded");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 2));
  ShardedAdjacencyManifest m;
  ASSERT_OK(ReadShardedAdjacencyManifest(manifest, &m));
  AdjacencyShardReader reader;
  EXPECT_TRUE(reader.Open(manifest, m, 2).IsInvalidArgument());
}

// Every record of shard `index`, with its byte offset, by a full scan.
struct ScannedRecord {
  VertexId id;
  std::vector<VertexId> neighbors;
  uint64_t offset;
};
std::vector<ScannedRecord> ScanShard(const std::string& manifest_path,
                                     const ShardedAdjacencyManifest& m,
                                     uint32_t index) {
  std::vector<ScannedRecord> out;
  AdjacencyShardReader reader;
  EXPECT_OK(reader.Open(manifest_path, m, index));
  uint64_t offset = kAdjacencyShardHeaderBytes;
  VertexRecordView rec;
  bool has_next = false;
  while (reader.Next(&rec, &has_next).ok() && has_next) {
    out.push_back({rec.id, {rec.begin(), rec.end()}, offset});
    offset += AdjacencyRecordBytes(rec.degree);
  }
  EXPECT_OK(reader.Close());
  return out;
}

TEST_F(ShardedAdjacencyFileTest, SparseRecordReaderMatchesTheScan) {
  // Records reached from checkpoints (every 16th offset) and by stepping
  // over headers are the records a full scan yields, and reading them
  // counts decodes but no scan.
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(3000, 2.0), 33);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("sparse");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 3));
  ShardedAdjacencyManifest m;
  ASSERT_OK(ReadShardedAdjacencyManifest(manifest, &m));
  IoStats io;
  uint64_t reads = 0;
  for (uint32_t k = 0; k < m.num_shards(); ++k) {
    const std::vector<ScannedRecord> scanned = ScanShard(manifest, m, k);
    ASSERT_EQ(scanned.size(), m.shards[k].num_records);
    AdjacencyShardRecordReader reader(&io);
    ASSERT_OK(reader.Open(manifest, m, k));
    // Gaps of 1..40 records: some stay inside one checkpoint block, some
    // jump several.
    uint64_t gap = 1;
    for (uint64_t i = 0; i < scanned.size(); i += gap, gap = gap % 40 + 3) {
      const uint64_t checkpoint = i / 16 * 16;
      VertexRecordView view;
      ASSERT_OK(reader.ReadRecord(i, checkpoint, scanned[checkpoint].offset,
                                  scanned[i].id, &view));
      EXPECT_EQ(view.id, scanned[i].id);
      EXPECT_EQ(std::vector<VertexId>(view.begin(), view.end()),
                scanned[i].neighbors)
          << "shard " << k << " record " << i;
      reads++;
    }
    ASSERT_OK(reader.Close());
  }
  EXPECT_EQ(io.records_decoded, reads);
  EXPECT_EQ(io.sequential_scans, 0u);
}

TEST_F(ShardedAdjacencyFileTest, SparseRecordReaderRejectsAnotherVertex) {
  Graph g = GenerateErdosRenyi(200, 600, 34);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("sparse");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 2));
  ShardedAdjacencyManifest m;
  ASSERT_OK(ReadShardedAdjacencyManifest(manifest, &m));
  const std::vector<ScannedRecord> scanned = ScanShard(manifest, m, 0);
  ASSERT_GT(scanned.size(), 20u);

  // Vertex v is asked for at a position that holds another id.
  AdjacencyShardRecordReader reader;
  ASSERT_OK(reader.Open(manifest, m, 0));
  VertexRecordView view;
  Status s = reader.ReadRecord(5, 0, scanned[0].offset, scanned[6].id, &view);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  // The position is unknown after a failure, so the reader stays failed.
  EXPECT_TRUE(
      reader.ReadRecord(20, 16, scanned[16].offset, scanned[20].id, &view)
          .IsCorruption());
  ASSERT_OK(reader.Close());

  // A checkpoint offset that belongs to another record is caught too.
  ASSERT_OK(reader.Open(manifest, m, 0));
  s = reader.ReadRecord(17, 16, scanned[15].offset, scanned[17].id, &view);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  ASSERT_OK(reader.Close());

  // Reads only move forward.
  ASSERT_OK(reader.Open(manifest, m, 0));
  ASSERT_OK(reader.ReadRecord(10, 0, scanned[0].offset, scanned[10].id,
                              &view));
  EXPECT_TRUE(reader.ReadRecord(3, 0, scanned[0].offset, scanned[3].id, &view)
                  .IsInvalidArgument());
  ASSERT_OK(reader.Close());
}

}  // namespace
}  // namespace semis
