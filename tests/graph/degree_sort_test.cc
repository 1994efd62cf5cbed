#include "graph/degree_sort.h"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "gen/generators.h"
#include "gen/plrg.h"
#include "graph/adjacency_file.h"
#include "graph/graph_io.h"
#include "graph/sharded_adjacency_file.h"
#include "test_util.h"
#include "util/random.h"

namespace semis {
namespace {

using testing_util::ReadAllBytes;
using testing_util::ScratchTest;
using testing_util::WriteGraphFile;
using testing_util::WriteGraphFileInOrder;

class DegreeSortTest : public ScratchTest {};

TEST_F(DegreeSortTest, RecordsComeOutInDegreeIdOrder) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(2000, 2.0), 17);
  std::string input = WriteGraphFile(&scratch_, g);
  std::string output = NewPath("sorted");
  DegreeSortOptions opts;
  ASSERT_OK(BuildDegreeSortedAdjacencyFile(input, output, opts));

  AdjacencyFileScanner scanner;
  ASSERT_OK(scanner.Open(output));
  EXPECT_TRUE(scanner.header().IsDegreeSorted());
  EXPECT_EQ(scanner.header().num_vertices, g.NumVertices());
  EXPECT_EQ(scanner.header().num_directed_edges, g.NumDirectedEdges());

  VertexRecordView rec;
  bool has_next = false;
  uint64_t prev_key = 0;
  uint64_t records = 0;
  BitVector seen(g.NumVertices());
  while (true) {
    ASSERT_OK(scanner.Next(&rec, &has_next));
    if (!has_next) break;
    uint64_t key = (static_cast<uint64_t>(rec.degree) << 32) | rec.id;
    EXPECT_GE(key, prev_key);
    prev_key = key;
    EXPECT_EQ(rec.degree, g.Degree(rec.id));  // lists travel with their id
    EXPECT_FALSE(seen.Test(rec.id));          // each vertex exactly once
    seen.Set(rec.id);
    records++;
  }
  EXPECT_EQ(records, g.NumVertices());
}

TEST_F(DegreeSortTest, GraphContentUnchanged) {
  Graph g = GenerateErdosRenyi(500, 2000, 3);
  std::string input = WriteGraphFile(&scratch_, g);
  std::string output = NewPath("sorted");
  ASSERT_OK(BuildDegreeSortedAdjacencyFile(input, output, {}));
  Graph back;
  ASSERT_OK(ReadGraphFromAdjacencyFile(output, &back));
  ASSERT_EQ(back.NumVertices(), g.NumVertices());
  ASSERT_EQ(back.NumEdges(), g.NumEdges());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    auto na = g.Neighbors(v);
    auto nb = back.Neighbors(v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()));
  }
}

TEST_F(DegreeSortTest, TinyMemoryBudgetForcesExternalRuns) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(3000, 1.9), 5);
  std::string input = WriteGraphFile(&scratch_, g);
  std::string output = NewPath("sorted");
  DegreeSortOptions opts;
  opts.memory_budget_bytes = 2048;  // many spill runs
  opts.fan_in = 3;                  // and multiple merge passes
  IoStats stats;
  opts.stats = &stats;
  ASSERT_OK(BuildDegreeSortedAdjacencyFile(input, output, opts));
  EXPECT_GT(stats.sort_passes, 1u);

  AdjacencyFileScanner scanner;
  ASSERT_OK(scanner.Open(output));
  VertexRecordView rec;
  bool has_next = false;
  uint32_t prev_degree = 0;
  while (true) {
    ASSERT_OK(scanner.Next(&rec, &has_next));
    if (!has_next) break;
    EXPECT_GE(rec.degree, prev_degree);
    prev_degree = rec.degree;
  }
}

TEST_F(DegreeSortTest, IoCostPropotionalToScans) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(5000, 2.1), 29);
  std::string input = WriteGraphFile(&scratch_, g);
  uint64_t file_size = 0;
  ASSERT_OK(GetFileSize(input, &file_size));
  std::string output = NewPath("sorted");
  DegreeSortOptions opts;
  IoStats stats;
  opts.stats = &stats;
  ASSERT_OK(BuildDegreeSortedAdjacencyFile(input, output, opts));
  // One read of the input + one write of the output, +- headers and runs:
  // with an in-memory-sized budget the total traffic stays within 3x the
  // file size (the paper's "few sequential scans" claim).
  EXPECT_LE(stats.bytes_read, 3 * file_size);
  EXPECT_LE(stats.bytes_written, 3 * file_size);
}

TEST_F(DegreeSortTest, EmptyGraph) {
  Graph g = Graph::FromEdges(0, {});
  std::string input = WriteGraphFile(&scratch_, g);
  std::string output = NewPath("sorted");
  ASSERT_OK(BuildDegreeSortedAdjacencyFile(input, output, {}));
  AdjacencyFileScanner scanner;
  ASSERT_OK(scanner.Open(output));
  EXPECT_EQ(scanner.header().num_vertices, 0u);
}

// Sorts the SADJ file `input` into a `shards`-shard store at `manifest`,
// as MisEngine::Open does.
Status SortIntoShards(const std::string& input, const std::string& manifest,
                      uint32_t shards, const DegreeSortOptions& opts) {
  AdjacencyFileScanner scanner(opts.stats);
  SEMIS_RETURN_IF_ERROR(scanner.Open(input));
  return BuildDegreeSortedShardStore(&scanner, manifest, shards, opts);
}

// The store's manifest followed by every shard file, for byte equality.
std::vector<std::vector<char>> StoreBytes(const std::string& manifest,
                                          uint32_t shards) {
  std::vector<std::vector<char>> files{ReadAllBytes(manifest)};
  for (uint32_t k = 0; k < shards; ++k) {
    files.push_back(ReadAllBytes(ShardFilePath(manifest, k)));
  }
  return files;
}

TEST_F(DegreeSortTest, PlacementAndMergeWriteTheSameBytes) {
  // The placement regime against the merge regime, forced by a budget one
  // byte under the placement footprint: both writers, every shard count,
  // byte for byte. Inputs come in a shuffled record order.
  struct Case {
    std::string name;
    Graph graph;
  };
  std::vector<Case> cases;
  cases.push_back(
      {"plrg", GeneratePlrg(PlrgSpec::ForVertexCount(3000, 1.9), 61)});
  cases.push_back({"er", GenerateErdosRenyi(1500, 6000, 62)});
  cases.push_back({"empty", Graph::FromEdges(0, {})});
  cases.push_back({"isolated", Graph::FromEdges(50, {})});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<VertexId> order(c.graph.NumVertices());
    std::iota(order.begin(), order.end(), 0);
    Random rng(63);
    rng.Shuffle(order.data(), order.size());
    const std::string input = WriteGraphFileInOrder(&scratch_, c.graph, order);
    AdjacencyFileScanner probe;
    ASSERT_OK(probe.Open(input));
    const AdjacencyFileHeader h = probe.header();
    const uint64_t footprint = DegreeSorter::PlacementBytes(
        h.num_vertices, h.num_directed_edges, h.max_degree);
    // Each sort gets its own tracker: the regime it ran in shows in its
    // placement charge, the footprint when it placed and 0 when it merged.
    MemoryTracker placement_memory;
    DegreeSortOptions placement_opts;
    placement_opts.memory_budget_bytes = footprint;
    placement_opts.memory = &placement_memory;
    MemoryTracker merge_memory;
    DegreeSortOptions merge_opts;
    merge_opts.memory_budget_bytes = footprint - 1;
    merge_opts.fan_in = 2;
    merge_opts.memory = &merge_memory;
    auto expect_regimes = [&] {
      EXPECT_EQ(placement_memory.CategoryPeakBytes("sort-placement"),
                footprint);
      EXPECT_EQ(merge_memory.CategoryPeakBytes("sort-placement"), 0u);
      placement_memory = MemoryTracker();
      merge_memory = MemoryTracker();
    };

    const std::string placed = NewPath("placed.sadj");
    const std::string merged = NewPath("merged.sadj");
    ASSERT_OK(BuildDegreeSortedAdjacencyFile(input, placed, placement_opts));
    ASSERT_OK(BuildDegreeSortedAdjacencyFile(input, merged, merge_opts));
    EXPECT_EQ(ReadAllBytes(placed), ReadAllBytes(merged));
    expect_regimes();

    for (uint32_t shards : {1u, 3u, 7u, 20u}) {
      SCOPED_TRACE(std::to_string(shards) + " shards");
      const std::string reference = NewPath("merged.sadjs");
      ASSERT_OK(SortIntoShards(input, reference, shards, merge_opts));
      const std::string manifest = NewPath("placed.sadjs");
      ASSERT_OK(SortIntoShards(input, manifest, shards, placement_opts));
      EXPECT_EQ(StoreBytes(manifest, shards), StoreBytes(reference, shards));
      expect_regimes();
    }
  }
}

TEST_F(DegreeSortTest, PlacementReadsOnceWritesOnceAndChargesItsBuffers) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(4000, 2.0), 64);
  const std::string input = WriteGraphFile(&scratch_, g);
  uint64_t file_size = 0;
  ASSERT_OK(GetFileSize(input, &file_size));
  IoStats io;
  MemoryTracker memory;
  DegreeSortOptions opts;
  opts.stats = &io;
  opts.memory = &memory;
  const std::string manifest = NewPath("sorted.sadjs");
  ASSERT_OK(SortIntoShards(input, manifest, 7, opts));
  EXPECT_EQ(io.sort_passes, 0u);
  EXPECT_EQ(io.sequential_scans, 1u);
  EXPECT_EQ(io.bytes_read, file_size);
  uint64_t written = 0;
  for (uint32_t k = 0; k < 7; ++k) {
    uint64_t size = 0;
    ASSERT_OK(GetFileSize(ShardFilePath(manifest, k), &size));
    written += size;
  }
  uint64_t manifest_size = 0;
  ASSERT_OK(GetFileSize(manifest, &manifest_size));
  EXPECT_EQ(io.bytes_written, written + manifest_size);
  AdjacencyFileScanner probe;
  ASSERT_OK(probe.Open(input));
  const AdjacencyFileHeader& h = probe.header();
  EXPECT_EQ(memory.PeakBytes(),
            DegreeSorter::PlacementBytes(h.num_vertices, h.num_directed_edges,
                                         h.max_degree));
  EXPECT_EQ(memory.CurrentBytes(), 0u);
}

}  // namespace
}  // namespace semis
