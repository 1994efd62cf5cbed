#include <gtest/gtest.h>

#include <algorithm>

#include "core/engine.h"
#include "core/greedy.h"
#include "core/verify.h"
#include "gen/generators.h"
#include "gen/plrg.h"
#include "graph/degree_sort.h"
#include "graph/graph_io.h"
#include "graph/sharded_adjacency_file.h"
#include "io/scratch.h"
#include "test_util.h"

namespace semis {
namespace {

using testing_util::ScratchTest;
using testing_util::WriteGraphFile;

// A one-shot solve is MisEngine::Open plus open_result(); these cases
// hold the engine for as long as they read its result.
class SolverTest : public ScratchTest {};

TEST_F(SolverTest, FullPipelineOnPowerLawGraph) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(20000, 2.0), 8);
  std::string path = WriteGraphFile(&scratch_, g);
  MisEngineOptions opts;
  opts.verify = true;  // paranoid self-check must pass
  MisEngine engine(opts);
  ASSERT_OK(engine.Open(path));
  const SolveResult& res = engine.open_result();
  EXPECT_GT(res.set_size, 0u);
  EXPECT_EQ(res.set.Count(), res.set_size);
  EXPECT_GE(res.set_size, res.greedy.set_size);
  EXPECT_GT(res.sort_seconds, 0.0);  // input was unsorted
  VerifyResult vr = VerifyIndependentSet(g, res.set);
  EXPECT_TRUE(vr.independent);
  EXPECT_TRUE(vr.maximal);
}

TEST_F(SolverTest, SwapModesOrdering) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(10000, 2.0), 9);
  std::string path = WriteGraphFile(&scratch_, g);
  auto run = [&](SwapMode mode) {
    MisEngineOptions opts;
    opts.swap = mode;
    MisEngine engine(opts);
    Status s = engine.Open(path);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return engine.open_result().set_size;
  };
  uint64_t none = run(SwapMode::kNone);
  uint64_t one_k = run(SwapMode::kOneK);
  uint64_t two_k = run(SwapMode::kTwoK);
  EXPECT_GE(one_k, none);
  EXPECT_GE(two_k, none);
  // two-k subsumes one-k swaps; allow 1% noise from order effects.
  EXPECT_GE(two_k + two_k / 100, one_k);
}

TEST_F(SolverTest, BaselineModeSkipsSorting) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(5000, 2.0), 10);
  std::string path = WriteGraphFile(&scratch_, g);
  MisEngineOptions opts;
  opts.degree_sort = false;
  opts.swap = SwapMode::kNone;
  MisEngine engine(opts);
  ASSERT_OK(engine.Open(path));
  const SolveResult& res = engine.open_result();
  EXPECT_EQ(res.sort_seconds, 0.0);
  EXPECT_EQ(res.io.sort_passes, 0u);
}

TEST_F(SolverTest, AlreadySortedInputNotResorted) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(5000, 2.0), 11);
  std::string path = WriteGraphFile(&scratch_, g);
  MisEngine first_engine(MisEngineOptions{});
  ASSERT_OK(first_engine.Open(path));
  const SolveResult& first = first_engine.open_result();
  EXPECT_GT(first.sort_seconds, 0.0);

  // Feed back the same graph, degree-sorted by the library call: its
  // header flag must suppress the sort, and the solve must not change.
  std::string sorted = NewPath("sorted.sadj");
  ASSERT_OK(BuildDegreeSortedAdjacencyFile(path, sorted, DegreeSortOptions{}));
  MisEngine engine(MisEngineOptions{});
  ASSERT_OK(engine.Open(sorted));
  const SolveResult& res = engine.open_result();
  EXPECT_EQ(res.sort_seconds, 0.0);  // header says degree-sorted
  EXPECT_EQ(res.set_size, first.set_size);
}

TEST_F(SolverTest, SolveGraphConvenience) {
  // The pattern of the examples for an in-memory graph: write it with
  // WriteGraphToAdjacencyFile into a ScratchDir and open an engine on the
  // file. The set must equal the solve of the same graph's test file.
  Graph g = GenerateErdosRenyi(500, 1500, 12);
  ScratchDir scratch;
  ASSERT_OK(ScratchDir::Create("semis-solveg", &scratch));
  const std::string path = scratch.NewFilePath("graph.adj");
  ASSERT_OK(WriteGraphToAdjacencyFile(g, path));
  MisEngine engine(MisEngineOptions{});
  ASSERT_OK(engine.Open(path));
  const SolveResult& res = engine.open_result();
  VerifyResult vr = VerifyIndependentSet(g, res.set);
  EXPECT_TRUE(vr.independent);
  EXPECT_TRUE(vr.maximal);

  MisEngine file_engine(MisEngineOptions{});
  ASSERT_OK(file_engine.Open(WriteGraphFile(&scratch_, g)));
  EXPECT_EQ(testing_util::SetToVector(res.set),
            testing_util::SetToVector(file_engine.open_result().set));
}

TEST_F(SolverTest, MissingFileSurfacesError) {
  MisEngine engine(MisEngineOptions{});
  Status s = engine.Open(NewPath("nope"));
  EXPECT_FALSE(s.ok());
}

TEST_F(SolverTest, EarlyStopOptionPropagates) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(10000, 1.9), 13);
  std::string path = WriteGraphFile(&scratch_, g);
  MisEngineOptions opts;
  opts.max_swap_rounds = 1;
  MisEngine engine(opts);
  ASSERT_OK(engine.Open(path));
  EXPECT_LE(engine.open_result().swap.rounds, 1u);
}

TEST_F(SolverTest, AggregatedIoCoversAllStages) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(5000, 2.0), 14);
  std::string path = WriteGraphFile(&scratch_, g);
  MisEngine engine(MisEngineOptions{});
  ASSERT_OK(engine.Open(path));
  const SolveResult& res = engine.open_result();
  EXPECT_GE(res.io.sequential_scans,
            res.greedy.io.sequential_scans + res.swap.io.sequential_scans);
  EXPECT_GT(res.io.bytes_read, 0u);
  EXPECT_GT(res.peak_memory_bytes, 0u);
}

TEST_F(SolverTest, HeaderProbeReadIsAccounted) {
  // The degree-sort header probe must charge its I/O to the aggregate:
  // on an already-sorted input (no sort stage) the aggregate still
  // exceeds the algorithm stages by the probe's header bytes.
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(3000, 2.0), 15);
  std::string path = WriteGraphFile(&scratch_, g);
  std::string sorted = NewPath("sorted.sadj");
  ASSERT_OK(BuildDegreeSortedAdjacencyFile(path, sorted, DegreeSortOptions{}));
  MisEngine first_engine(MisEngineOptions{});
  ASSERT_OK(first_engine.Open(path));
  MisEngine engine(MisEngineOptions{});
  ASSERT_OK(engine.Open(sorted));
  const SolveResult& res = engine.open_result();
  ASSERT_EQ(res.sort_seconds, 0.0);  // presorted: probe only, no sort
  EXPECT_GE(res.io.bytes_read,
            res.greedy.io.bytes_read + res.swap.io.bytes_read + 32);
  EXPECT_GE(res.io.files_opened,
            res.greedy.io.files_opened + res.swap.io.files_opened + 1);
}

TEST_F(SolverTest, ShardedGreedySolveMatchesSequentialSolve) {
  // With SwapMode::kNone the pipeline is GREEDY alone, whose commit order
  // over the shards equals the monolithic scan order -- so the solve must
  // reproduce the paper's sequential Algorithm 1 (RunGreedy on the sorted
  // file) bit for bit at every shard and thread count.
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(12000, 2.0), 17);
  std::string path = WriteGraphFile(&scratch_, g);
  std::string sorted = NewPath("sorted.sadj");
  ASSERT_OK(BuildDegreeSortedAdjacencyFile(path, sorted,
                                           DegreeSortOptions{}));
  AlgoResult oracle;
  ASSERT_OK(RunGreedy(sorted, GreedyOptions{}, &oracle));

  for (uint32_t shards : {0u, 1u, 3u, 5u}) {
    for (uint32_t threads : {1u, 2u, 4u}) {
      MisEngineOptions opts;
      opts.swap = SwapMode::kNone;
      opts.pipeline.num_shards = shards;
      opts.pipeline.num_threads = threads;
      MisEngine engine(opts);
      ASSERT_OK(engine.Open(path));
      const SolveResult& res = engine.open_result();
      EXPECT_EQ(testing_util::SetToVector(res.set),
                testing_util::SetToVector(oracle.in_set))
          << shards << " shards, " << threads << " threads";
      EXPECT_GT(res.shard_seconds, 0.0);
    }
  }
}

TEST_F(SolverTest, ShardedFullPipelineDeterministicAcrossThreads) {
  // greedy -> two-k over shards: the full pipeline result may differ from
  // the monolithic swap (conflict resolution is by vertex id there), but
  // it must be byte-identical across thread counts and verify maximal.
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(12000, 2.0), 18);
  std::string path = WriteGraphFile(&scratch_, g);
  MisEngineOptions opts;
  opts.pipeline.num_shards = 4;
  opts.pipeline.num_threads = 1;
  opts.verify = true;
  MisEngine engine1(opts);
  ASSERT_OK(engine1.Open(path));
  const SolveResult& res1 = engine1.open_result();
  EXPECT_GE(res1.set_size, res1.greedy.set_size);

  for (uint32_t threads : {2u, 8u}) {
    MisEngineOptions optsN = opts;
    optsN.pipeline.num_threads = threads;
    MisEngine engineN(optsN);
    ASSERT_OK(engineN.Open(path));
    const SolveResult& resN = engineN.open_result();
    EXPECT_EQ(testing_util::SetToVector(resN.set),
              testing_util::SetToVector(res1.set))
        << threads << " threads";
  }
}

TEST_F(SolverTest, ManifestSolveMatchesMonolithicSolve) {
  // Open consumes an existing SADJS manifest directly and must
  // reproduce the solve of the monolithic file split into the same
  // shards -- it is the re-solve entry point of the streaming update
  // path (e.g. after a compaction).
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(9000, 2.0), 23);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string sorted = NewPath("sorted.sadj");
  ASSERT_OK(BuildDegreeSortedAdjacencyFile(mono, sorted,
                                           DegreeSortOptions{}));
  std::string manifest = NewPath("sharded.sadjs");
  ASSERT_OK(ShardAdjacencyFile(sorted, manifest, 4));

  MisEngineOptions opts;
  opts.pipeline.num_shards = 4;
  opts.pipeline.num_threads = 2;
  opts.verify = true;
  MisEngine ref_engine(opts);
  ASSERT_OK(ref_engine.Open(mono));
  const SolveResult& ref = ref_engine.open_result();

  MisEngine direct_engine(opts);
  ASSERT_OK(direct_engine.Open(manifest));
  const SolveResult& direct = direct_engine.open_result();
  EXPECT_EQ(testing_util::SetToVector(direct.set),
            testing_util::SetToVector(ref.set));
  EXPECT_EQ(direct.set_size, ref.set_size);
  EXPECT_GT(direct.io.bytes_read, 0u);

  // degree_sort demands the sorted flag on sharded input (shards cannot
  // be sorted in place)...
  std::string unsorted_manifest = NewPath("unsorted.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, unsorted_manifest, 4));
  MisEngine rejecting_engine(opts);
  EXPECT_TRUE(rejecting_engine.Open(unsorted_manifest).IsInvalidArgument());
  // ...while degree_sort = false consumes the records as-is.
  MisEngineOptions baseline = opts;
  baseline.degree_sort = false;
  MisEngine baseline_engine(baseline);
  ASSERT_OK(baseline_engine.Open(unsorted_manifest));
  EXPECT_GT(baseline_engine.open_result().set_size, 0u);
}

TEST_F(SolverTest, ShardedGreedyCountersFoldIntoSolveResult) {
  // The sharded greedy stage's I/O and peak memory must aggregate into
  // SolveResult exactly like the sequential stage's counters do.
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(8000, 2.0), 19);
  std::string path = WriteGraphFile(&scratch_, g);
  MisEngineOptions opts;
  opts.pipeline.num_shards = 4;
  opts.pipeline.num_threads = 3;
  MisEngine engine(opts);
  ASSERT_OK(engine.Open(path));
  const SolveResult& res = engine.open_result();
  EXPECT_GT(res.greedy.io.bytes_read, 0u);
  EXPECT_EQ(res.greedy.io.sequential_scans, 1u);
  EXPECT_GE(res.io.sequential_scans,
            res.greedy.io.sequential_scans + res.swap.io.sequential_scans);
  EXPECT_GE(res.io.bytes_read,
            res.greedy.io.bytes_read + res.swap.io.bytes_read);
  EXPECT_GE(res.peak_memory_bytes, res.greedy.peak_memory_bytes);
  // state array + result bitset
  EXPECT_GT(res.greedy.peak_memory_bytes, g.NumVertices());
}

TEST_F(SolverTest, PeakMemoryIncludesSortStage) {
  // Dense-ish graph: the sort's run buffer (~payload bytes) dwarfs the
  // O(|V|) state arrays of greedy and the swaps, so a peak that ignores
  // the sort stage would be several times smaller.
  Graph g = GenerateErdosRenyi(2000, 40000, 16);
  std::string path = WriteGraphFile(&scratch_, g);
  MisEngine engine(MisEngineOptions{});
  ASSERT_OK(engine.Open(path));
  const SolveResult& res = engine.open_result();
  EXPECT_GT(res.sort_seconds, 0.0);
  EXPECT_GT(res.peak_memory_bytes,
            std::max(res.greedy.peak_memory_bytes,
                     res.swap.peak_memory_bytes));
}

}  // namespace
}  // namespace semis
