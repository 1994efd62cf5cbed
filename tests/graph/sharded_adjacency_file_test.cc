#include "graph/sharded_adjacency_file.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "gen/generators.h"
#include "gen/plrg.h"
#include "graph/degree_sort.h"
#include "graph/shard_record_locator.h"
#include "graph/shard_store.h"
#include "test_util.h"

namespace semis {
namespace {

using testing_util::ScratchTest;
using testing_util::WriteGraphFile;

class ShardedAdjacencyFileTest : public ScratchTest {};

// Reads every record of every shard in index order into (id, neighbors),
// through the cursor.
std::vector<std::pair<VertexId, std::vector<VertexId>>> DrainSharded(
    const std::string& manifest_path) {
  std::vector<std::pair<VertexId, std::vector<VertexId>>> out;
  ManifestOrderedShardCursor cursor;
  Status s = cursor.Open(manifest_path);
  EXPECT_TRUE(s.ok()) << s.ToString();
  if (!s.ok()) return out;
  VertexRecordView rec;
  bool has_next = false;
  while ((s = cursor.Next(&rec, &has_next)).ok() && has_next) {
    out.emplace_back(rec.id, std::vector<VertexId>(
                                 rec.neighbors, rec.neighbors + rec.degree));
  }
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_OK(cursor.Close());
  return out;
}

std::vector<std::pair<VertexId, std::vector<VertexId>>> DrainMonolithic(
    const std::string& path) {
  std::vector<std::pair<VertexId, std::vector<VertexId>>> out;
  AdjacencyFileScanner scanner;
  Status s = scanner.Open(path);
  EXPECT_TRUE(s.ok()) << s.ToString();
  if (!s.ok()) return out;
  VertexRecordView rec;
  bool has_next = false;
  while (scanner.Next(&rec, &has_next).ok() && has_next) {
    out.emplace_back(rec.id, std::vector<VertexId>(
                                 rec.neighbors, rec.neighbors + rec.degree));
  }
  return out;
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
  ManifestOrderedShardCursor cursor;
  ASSERT_OK(cursor.Open(manifest));
  EXPECT_TRUE(cursor.header().IsDegreeSorted());
  // And the records really are in ascending (degree, id) order globally.
  VertexRecordView rec;
  bool has_next = false;
  uint64_t prev_key = 0;
  while (true) {
    ASSERT_OK(cursor.Next(&rec, &has_next));
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
  // The manifest-ordered cursor contract: the record stream of the
  // monolithic file. The cursor starts no worker; it reads the shards on the
  // calling thread, so every thread count gets this one stream.
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(5000, 2.0), 30);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("sharded");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 5));
  auto expected = DrainMonolithic(mono);

  ManifestOrderedShardCursor cursor;
  ASSERT_OK(cursor.Open(manifest));
  EXPECT_EQ(DrainCursor(&cursor), expected);
  ASSERT_OK(cursor.Close());
}

TEST_F(ShardedAdjacencyFileTest, CursorMergesWorkerIoAndCountsOneScan) {
  // The cursor's reads are charged as one scan of the store: the manifest
  // and every shard opened once, every record decoded and every byte of
  // the store read once.
  Graph g = GenerateErdosRenyi(1000, 3000, 32);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("sharded");
  constexpr uint32_t kShards = 4;
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, kShards));
  IoStats manifest_io;
  ShardedAdjacencyManifest m;
  ASSERT_OK(ReadShardStoreManifest(manifest, &m, &manifest_io));
  uint64_t store_bytes = manifest_io.bytes_read;
  for (uint32_t k = 0; k < kShards; ++k) {
    uint64_t size = 0;
    ASSERT_OK(GetFileSize(ShardFilePath(manifest, k), &size));
    store_bytes += size;
  }

  IoStats io;
  ManifestOrderedShardCursor cursor(&io);
  ASSERT_OK(cursor.Open(manifest));
  EXPECT_EQ(DrainCursor(&cursor).size(), g.NumVertices());
  ASSERT_OK(cursor.Close());
  EXPECT_EQ(io.sequential_scans, 1u);
  EXPECT_EQ(io.files_opened, manifest_io.files_opened + kShards);
  EXPECT_EQ(io.records_decoded, g.NumVertices());
  EXPECT_EQ(io.bytes_read, store_bytes);
}

TEST_F(ShardedAdjacencyFileTest, CursorWithoutPoolAndRejectsDoubleOpen) {
  // The cursor reads the shards on the calling thread: the monolithic
  // stream, charged as one scan of the store per Open.
  Graph g = GenerateErdosRenyi(200, 600, 33);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("sharded");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 3));
  const auto expected = DrainMonolithic(mono);
  IoStats io;
  ManifestOrderedShardCursor cursor(&io);
  ASSERT_OK(cursor.Open(manifest));
  EXPECT_EQ(cursor.path(), manifest);
  EXPECT_EQ(DrainCursor(&cursor), expected);
  EXPECT_TRUE(cursor.Open(manifest).IsInvalidArgument());
  ASSERT_OK(cursor.Close());
  EXPECT_EQ(io.sequential_scans, 1u);
  // Reopened after Close; a second Open is rejected again.
  ASSERT_OK(cursor.Open(manifest));
  EXPECT_TRUE(cursor.Open(manifest).IsInvalidArgument());
  EXPECT_EQ(DrainCursor(&cursor), expected);
  ASSERT_OK(cursor.Close());
  EXPECT_EQ(io.sequential_scans, 2u);
}

TEST_F(ShardedAdjacencyFileTest, CursorEarlyCloseEndsTheScan) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(4000, 2.0), 31);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("sharded");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 8));
  {
    // Abandoning a scan mid-way: Close ends it cleanly, and a second
    // Close is a no-op.
    ManifestOrderedShardCursor cursor;
    ASSERT_OK(cursor.Open(manifest));
    VertexRecordView rec;
    bool has_next = false;
    ASSERT_OK(cursor.Next(&rec, &has_next));
    EXPECT_TRUE(has_next);
    ASSERT_OK(cursor.Close());
    ASSERT_OK(cursor.Close());
  }
  {
    // The same, with the destructor closing the scan.
    ManifestOrderedShardCursor cursor;
    ASSERT_OK(cursor.Open(manifest));
    VertexRecordView rec;
    bool has_next = false;
    ASSERT_OK(cursor.Next(&rec, &has_next));
    EXPECT_TRUE(has_next);
  }
}

// Empty shards in the MIDDLE of the manifest (the sharding writer only
// produces trailing empties, but compaction can empty any shard): the
// cursor must cross them transparently.
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
}

TEST_F(ShardedAdjacencyFileTest, TruncatedShardSurfacesThroughNext) {
  // A consumer that reaches a damaged shard gets the error from Next,
  // after every record of the healthy shards before it.
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

  ManifestOrderedShardCursor cursor;
  ASSERT_OK(cursor.Open(manifest));
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
  AdjacencyFileScanner scanner;
  EXPECT_TRUE(scanner.OpenShard(manifest, m, 2).IsInvalidArgument());
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
  AdjacencyFileScanner scanner;
  EXPECT_OK(scanner.OpenShard(manifest_path, m, index));
  uint64_t offset = kAdjacencyShardHeaderBytes;
  VertexRecordView rec;
  bool has_next = false;
  while (scanner.Next(&rec, &has_next).ok() && has_next) {
    out.push_back({rec.id, {rec.begin(), rec.end()}, offset});
    offset += AdjacencyRecordBytes(rec.degree);
  }
  EXPECT_OK(scanner.Close());
  return out;
}

TEST_F(ShardedAdjacencyFileTest, SparseRecordReaderMatchesTheScan) {
  // Single records read through the scanner's SkipTo, from checkpoints
  // (every 16th offset) and by stepping over headers, are the records a
  // full scan yields. Each read counts one decoded record and no scan;
  // the skipped bytes are not charged, each stepped header is (8 B).
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(3000, 2.0), 33);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("sparse");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 3));
  ShardedAdjacencyManifest m;
  ASSERT_OK(ReadShardedAdjacencyManifest(manifest, &m));
  IoStats io;
  uint64_t reads = 0, charged = 0;
  for (uint32_t k = 0; k < m.num_shards(); ++k) {
    const std::vector<ScannedRecord> scanned = ScanShard(manifest, m, k);
    ASSERT_EQ(scanned.size(), m.shards[k].num_records);
    AdjacencyFileScanner scanner(&io, 4096);
    ASSERT_OK(scanner.OpenShard(manifest, m, k));
    charged += kAdjacencyShardHeaderBytes;
    // Gaps of 1..40 records: some stay inside one checkpoint block, some
    // jump several.
    uint64_t gap = 1, next = 0;
    for (uint64_t i = 0; i < scanned.size(); i += gap, gap = gap % 40 + 3) {
      const uint64_t checkpoint = i / 16 * 16;
      ASSERT_OK(scanner.SkipTo(i, checkpoint, scanned[checkpoint].offset));
      VertexRecordView view;
      bool has_next = false;
      ASSERT_OK(scanner.Next(&view, &has_next));
      ASSERT_TRUE(has_next);
      EXPECT_EQ(view.id, scanned[i].id);
      EXPECT_EQ(std::vector<VertexId>(view.begin(), view.end()),
                scanned[i].neighbors)
          << "shard " << k << " record " << i;
      charged += 8 * (i - std::max(checkpoint, next)) +
                 AdjacencyRecordBytes(view.degree);
      next = i + 1;
      reads++;
    }
    ASSERT_OK(scanner.Close());
  }
  EXPECT_EQ(io.records_decoded, reads);
  EXPECT_EQ(io.bytes_read, charged);
  EXPECT_EQ(io.sequential_scans, 0u);
}

TEST_F(ShardedAdjacencyFileTest, SparseRecordReaderRejectsAnotherVertex) {
  // The locator's identity check on what SkipTo and Next read: a position
  // holding another vertex is Corruption and leaves the scanner failed.
  // A checkpoint behind the read position is Corruption, and reads only
  // move forward.
  Graph g = GenerateErdosRenyi(200, 600, 34);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("sparse");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 2));
  ShardedAdjacencyManifest m;
  ASSERT_OK(ReadShardedAdjacencyManifest(manifest, &m));
  const std::vector<ScannedRecord> scanned = ScanShard(manifest, m, 0);
  ASSERT_GT(scanned.size(), 40u);
  ShardRecordLocator locator;
  ASSERT_OK(locator.Build(manifest, m, nullptr));

  // Shard 0's checkpoints each name the record after the right one, so
  // record 20 is read where record 21 sits.
  ShardRecordLocator shifted = locator;
  std::vector<uint64_t> offsets;
  for (size_t i = 0; i < scanned.size(); i += kLocatorCheckpointStride) {
    offsets.push_back(scanned[std::min(i + 1, scanned.size() - 1)].offset);
  }
  shifted.ReplaceCheckpoints(0, std::move(offsets));
  AdjacencyFileScanner scanner;
  ASSERT_OK(scanner.OpenShard(manifest, m, 0));
  VertexRecordView view;
  Status s = shifted.ReadRecord(0, scanned[20].id, &scanner, &view);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  // The position is unknown after a failure, so the scanner stays failed.
  EXPECT_TRUE(scanner.SkipTo(40, 32, scanned[32].offset).IsCorruption());
  bool has_next = false;
  EXPECT_TRUE(scanner.Next(&view, &has_next).IsCorruption());
  ASSERT_OK(scanner.Close());

  // Reopened, it reads again. A checkpoint ahead of the read position in
  // records but behind it in bytes is stale.
  ASSERT_OK(scanner.OpenShard(manifest, m, 0));
  ASSERT_OK(locator.ReadRecord(0, scanned[20].id, &scanner, &view));
  EXPECT_EQ(view.id, scanned[20].id);
  s = scanner.SkipTo(40, 32, scanned[5].offset);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  ASSERT_OK(scanner.Close());

  // Reads only move forward.
  ASSERT_OK(scanner.OpenShard(manifest, m, 0));
  ASSERT_OK(locator.ReadRecord(0, scanned[10].id, &scanner, &view));
  EXPECT_TRUE(locator.ReadRecord(0, scanned[3].id, &scanner, &view)
                  .IsInvalidArgument());
  ASSERT_OK(scanner.Close());
}

}  // namespace
}  // namespace semis
