#include "core/parallel_greedy.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/greedy.h"
#include "core/verify.h"
#include "gen/generators.h"
#include "gen/plrg.h"
#include "graph/degree_sort.h"
#include "graph/sharded_adjacency_file.h"
#include "test_util.h"

namespace semis {
namespace {

using testing_util::ScratchTest;
using testing_util::SetToVector;
using testing_util::WriteGraphFile;

class ParallelGreedyTest : public ScratchTest {
 protected:
  // Shards `mono` into `num_shards` and returns the manifest path.
  std::string Shard(const std::string& mono, uint32_t num_shards) {
    std::string manifest =
        NewPath("sharded" + std::to_string(num_shards));
    Status s = ShardAdjacencyFile(mono, manifest, num_shards);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return manifest;
  }

  // Degree-sorts `mono` and returns the sorted path.
  std::string Sort(const std::string& mono) {
    std::string sorted = NewPath("sorted");
    Status s = BuildDegreeSortedAdjacencyFile(mono, sorted,
                                              DegreeSortOptions{});
    EXPECT_TRUE(s.ok()) << s.ToString();
    return sorted;
  }
};

// The acceptance contract: for every shard/thread combination the sharded
// executor reproduces sequential RunGreedy byte for byte -- both the set
// and the full state array.
TEST_F(ParallelGreedyTest, ByteIdenticalAcrossShardAndThreadCounts) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(20000, 2.0), 41);
  std::string sorted = Sort(WriteGraphFile(&scratch_, g));

  AlgoResult ref;
  std::vector<VState> ref_states;
  ASSERT_OK(RunGreedyWithStates(sorted, {}, &ref, &ref_states));

  for (uint32_t shards : {1u, 3u, 7u}) {
    std::string manifest = Shard(sorted, shards);
    for (uint32_t threads : {1u, 2u, 8u}) {
      ParallelGreedyOptions opts;
      opts.pipeline.num_threads = threads;
      AlgoResult res;
      std::vector<VState> states;
      ASSERT_OK(
          RunParallelGreedyWithStates(manifest, opts, &res, &states));
      EXPECT_EQ(res.set_size, ref.set_size)
          << shards << " shards, " << threads << " threads";
      EXPECT_EQ(SetToVector(res.in_set), SetToVector(ref.in_set))
          << shards << " shards, " << threads << " threads";
      EXPECT_EQ(states, ref_states)
          << "state array differs at " << shards << " shards, " << threads
          << " threads";
    }
  }
}

// Same matrix on id-ordered (BASELINE) input: the executor must not care
// whether the global order is the degree-sorted one.
TEST_F(ParallelGreedyTest, IdOrderedBaselineInputAlsoByteIdentical) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(15000, 2.1), 42);
  std::string mono = WriteGraphFile(&scratch_, g);

  AlgoResult ref;
  ASSERT_OK(RunGreedy(mono, {}, &ref));

  for (uint32_t shards : {1u, 3u, 7u}) {
    std::string manifest = Shard(mono, shards);
    for (uint32_t threads : {1u, 2u, 8u}) {
      ParallelGreedyOptions opts;
      opts.pipeline.num_threads = threads;
      AlgoResult res;
      ASSERT_OK(RunParallelGreedy(manifest, opts, &res));
      EXPECT_EQ(SetToVector(res.in_set), SetToVector(ref.in_set))
          << shards << " shards, " << threads << " threads";
    }
  }
}

TEST_F(ParallelGreedyTest, ResultIsMaximalIndependentSet) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(10000, 2.0), 43);
  std::string manifest = Shard(Sort(WriteGraphFile(&scratch_, g)), 5);
  ParallelGreedyOptions opts;
  opts.pipeline.num_threads = 4;
  AlgoResult res;
  ASSERT_OK(RunParallelGreedy(manifest, opts, &res));
  VerifyResult vr = VerifyIndependentSet(g, res.in_set);
  EXPECT_TRUE(vr.independent);
  EXPECT_TRUE(vr.maximal);
  EXPECT_EQ(res.in_set.Count(), res.set_size);
}

TEST_F(ParallelGreedyTest, EmptyGraph) {
  Graph g = Graph::FromEdges(0, {});
  std::string manifest = Shard(WriteGraphFile(&scratch_, g), 3);
  for (uint32_t threads : {1u, 2u, 8u}) {
    ParallelGreedyOptions opts;
    opts.pipeline.num_threads = threads;
    AlgoResult res;
    ASSERT_OK(RunParallelGreedy(manifest, opts, &res));
    EXPECT_EQ(res.set_size, 0u) << threads << " threads";
  }
}

TEST_F(ParallelGreedyTest, SingleShardManifest) {
  Graph g = GenerateErdosRenyi(2000, 6000, 44);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = Shard(mono, 1);
  AlgoResult ref;
  ASSERT_OK(RunGreedy(mono, {}, &ref));
  for (uint32_t threads : {1u, 4u}) {
    ParallelGreedyOptions opts;
    opts.pipeline.num_threads = threads;
    AlgoResult res;
    ASSERT_OK(RunParallelGreedy(manifest, opts, &res));
    EXPECT_EQ(SetToVector(res.in_set), SetToVector(ref.in_set)) << threads;
  }
}

// require_degree_sorted must reject an unsorted SADJS manifest at every
// thread count, with the same error text as the monolithic reader.
TEST_F(ParallelGreedyTest, RequireDegreeSortedEnforcedOnShardedPath) {
  Graph g = GenerateStar(50);
  std::string manifest = Shard(WriteGraphFile(&scratch_, g), 3);
  for (uint32_t threads : {1u, 4u}) {
    ParallelGreedyOptions opts;
    opts.pipeline.num_threads = threads;
    opts.greedy.require_degree_sorted = true;
    AlgoResult res;
    Status s = RunParallelGreedy(manifest, opts, &res);
    EXPECT_TRUE(s.IsInvalidArgument()) << threads << " threads";
    EXPECT_NE(s.ToString().find(
                  "greedy requires a degree-sorted adjacency file: "),
              std::string::npos)
        << s.ToString();
  }
  // A sorted manifest passes the same check.
  Graph g2 = GeneratePlrg(PlrgSpec::ForVertexCount(2000, 2.0), 45);
  std::string sorted_manifest = Shard(Sort(WriteGraphFile(&scratch_, g2)), 3);
  ParallelGreedyOptions opts;
  opts.pipeline.num_threads = 2;
  opts.greedy.require_degree_sorted = true;
  AlgoResult res;
  EXPECT_OK(RunParallelGreedy(sorted_manifest, opts, &res));
}

TEST_F(ParallelGreedyTest, IoAndMemoryCountersFold) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(10000, 2.0), 46);
  std::string manifest = Shard(Sort(WriteGraphFile(&scratch_, g)), 4);
  ParallelGreedyOptions opts;
  opts.pipeline.num_threads = 3;
  AlgoResult res;
  ASSERT_OK(RunParallelGreedy(manifest, opts, &res));
  // One logical scan of the graph, all shard bytes charged.
  EXPECT_EQ(res.io.sequential_scans, 1u);
  EXPECT_GT(res.io.bytes_read, 0u);
  EXPECT_GE(res.io.files_opened, 4u);  // manifest + at least the shards
  const uint64_t n = g.NumVertices();
  EXPECT_EQ(res.memory.CategoryBytes("state"), n);
  EXPECT_GT(res.peak_memory_bytes, n);  // state + result bitset
}

// The scan runs on the calling thread whatever the thread count, so the
// thread count moves neither the I/O counters nor the memory charged.
TEST_F(ParallelGreedyTest, ThreadCountLeavesCountersAndMemoryAlone) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(20000, 2.0), 47);
  std::string sorted = Sort(WriteGraphFile(&scratch_, g));
  for (uint32_t shards : {1u, 3u, 7u}) {
    std::string manifest = Shard(sorted, shards);
    AlgoResult one;
    ASSERT_OK(RunParallelGreedy(manifest, {}, &one));
    for (uint32_t threads : {2u, 8u}) {
      ParallelGreedyOptions opts;
      opts.pipeline.num_threads = threads;
      AlgoResult res;
      ASSERT_OK(RunParallelGreedy(manifest, opts, &res));
      EXPECT_EQ(res.io, one.io) << shards << " shards, " << threads
                                << " threads";
      EXPECT_EQ(res.peak_memory_bytes, one.peak_memory_bytes)
          << shards << " shards, " << threads << " threads";
    }
  }
}

// A hub whose record is longer than 256 KiB must stay byte-identical to
// the sequential reference at every shard and thread count. The input is
// id-ordered with the hub first, so the hub's record decides half the
// graph; in degree order the hub comes last, already excluded by its
// neighbors.
TEST_F(ParallelGreedyTest, BlockGeometrySweepStaysByteIdentical) {
  Graph base = GeneratePlrg(PlrgSpec::ForVertexCount(140000, 2.0), 48);
  const VertexId hub = 0;
  std::vector<Edge> edges;
  for (VertexId v = 0; v < base.NumVertices(); ++v) {
    for (VertexId u : base.Neighbors(v)) {
      if (v < u) edges.emplace_back(v + 1, u + 1);
    }
    if (v % 2 == 1) edges.emplace_back(hub, v + 1);
  }
  Graph g = Graph::FromEdges(base.NumVertices() + 1, std::move(edges));
  ASSERT_GT((2 + uint64_t{g.Degree(hub)}) * sizeof(VertexId), 256u * 1024);
  std::string mono = WriteGraphFile(&scratch_, g);
  AlgoResult ref;
  std::vector<VState> ref_states;
  ASSERT_OK(RunGreedyWithStates(mono, {}, &ref, &ref_states));
  for (uint32_t shards : {1u, 5u}) {
    std::string manifest = Shard(mono, shards);
    for (uint32_t threads : {2u, 8u}) {
      ParallelGreedyOptions opts;
      opts.pipeline.num_threads = threads;
      AlgoResult res;
      std::vector<VState> states;
      ASSERT_OK(RunParallelGreedyWithStates(manifest, opts, &res, &states));
      EXPECT_EQ(states, ref_states)
          << shards << " shards, " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace semis
