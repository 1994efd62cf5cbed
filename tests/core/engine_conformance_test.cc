// Copyright (c) the semis authors.
// Cross-engine conformance: every solve engine, present and future,
// registers in ONE table here and is held to the same contract over the
// same corpus -- the output is an independent AND maximal set, it is
// byte-identical across 1/2/8 threads x 1/3/7 shards (threads-only for
// the swap pipelines, whose contract pins the result per shard layout),
// and the rounds engine additionally matches its sequential reference
// loop bit for bit.
// Adding an engine means adding one EngineSpec entry; every suite below
// picks it up.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/parallel_greedy.h"
#include "core/parallel_swap.h"
#include "core/rounds_engine.h"
#include "core/verify.h"
#include "gen/generators.h"
#include "gen/plrg.h"
#include "graph/sharded_adjacency_file.h"
#include "test_util.h"

namespace semis {
namespace {

using testing_util::ScratchTest;
using testing_util::SetToVector;
using testing_util::WriteGraphFile;

// One registered engine: a name and a runner that solves the manifest
// with the given thread count. Runners must not read any other global
// knob -- the suite's whole point is that (manifest, threads) pins the
// output.
struct EngineSpec {
  std::string name;
  // True when the output is pinned by the graph alone; false when the
  // documented contract pins it per shard layout (the swap stage's SC
  // buckets are shard-local by design, see parallel_swap.h), in which
  // case only thread-count invariance is required.
  bool shard_invariant = true;
  std::function<Status(const std::string& manifest, uint32_t threads,
                       BitVector* set)>
      run;
};

std::vector<EngineSpec> Engines() {
  std::vector<EngineSpec> engines;
  engines.push_back({"greedy", true,
                     [](const std::string& manifest,
                                  uint32_t threads, BitVector* set) {
                       ParallelGreedyOptions opts;
                       opts.pipeline.num_threads = threads;
                       AlgoResult res;
                       SEMIS_RETURN_IF_ERROR(
                           RunParallelGreedy(manifest, opts, &res));
                       *set = std::move(res.in_set);
                       return Status::OK();
                     }});
  engines.push_back({"rounds", true,
                     [](const std::string& manifest,
                                  uint32_t threads, BitVector* set) {
                       MinIdRoundsOptions opts;
                       opts.pipeline.num_threads = threads;
                       AlgoResult res;
                       SEMIS_RETURN_IF_ERROR(
                           RunMinIdRounds(manifest, opts, &res));
                       *set = std::move(res.in_set);
                       return Status::OK();
                     }});
  // The full pipelines (engine + two-k swap) through the same
  // MisEngine::RunShardPipeline wiring the CLI uses.
  for (const SolveEngine engine :
       {SolveEngine::kGreedySwap, SolveEngine::kRounds}) {
    const std::string name = engine == SolveEngine::kRounds
                                 ? "rounds+twok"
                                 : "greedy+twok";
    engines.push_back({name, false,
                       [engine](const std::string& manifest,
                                      uint32_t threads, BitVector* set) {
                         MisEngineOptions opts;
                         opts.degree_sort = false;  // corpus is id-ordered
                         opts.swap = SwapMode::kTwoK;
                         opts.pipeline.engine = engine;
                         opts.pipeline.num_threads = threads;
                         MisEngine mis(opts);
                         SEMIS_RETURN_IF_ERROR(mis.Open(manifest));
                         *set = mis.open_result().set;
                         return Status::OK();
                       }});
  }
  return engines;
}

// The shared corpus: the generator families the repo benchmarks plus the
// gadgets that historically break scan logic (hub fan-out, all-mutual
// conflicts, long dependency chains, nothing at all).
struct Gadget {
  std::string name;
  Graph graph;
};

std::vector<Gadget> Corpus() {
  std::vector<Gadget> corpus;
  corpus.push_back({"er", GenerateErdosRenyi(3000, 9000, 7)});
  corpus.push_back(
      {"plrg", GeneratePlrg(PlrgSpec::ForVertexCount(3000, 2.2), 11)});
  corpus.push_back({"star", GenerateStar(64)});
  corpus.push_back({"clique", GenerateComplete(24)});
  corpus.push_back({"path", GeneratePath(97)});
  corpus.push_back({"empty", Graph::FromEdges(0, {})});
  corpus.push_back({"single", Graph::FromEdges(1, {})});
  return corpus;
}

class EngineConformanceTest : public ScratchTest {
 protected:
  std::string Shard(const std::string& mono, uint32_t num_shards,
                    const std::string& tag) {
    std::string manifest = NewPath(tag + std::to_string(num_shards));
    Status s = ShardAdjacencyFile(mono, manifest, num_shards);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return manifest;
  }
};

// Contract 1: every engine emits an independent and maximal set on every
// corpus graph.
TEST_F(EngineConformanceTest, EveryEngineIndependentAndMaximal) {
  for (const Gadget& gadget : Corpus()) {
    std::string manifest =
        Shard(WriteGraphFile(&scratch_, gadget.graph), 2, gadget.name);
    for (const EngineSpec& engine : Engines()) {
      BitVector set;
      ASSERT_OK(engine.run(manifest, 4, &set));
      VerifyResult vr = VerifyIndependentSet(gadget.graph, set);
      EXPECT_TRUE(vr.independent) << engine.name << " on " << gadget.name;
      EXPECT_TRUE(vr.maximal) << engine.name << " on " << gadget.name;
    }
  }
}

// Contract 2: every engine is byte-identical at every thread count, and
// shard-invariant engines additionally at every shard count (anchor: the
// 1-shard/1-thread run). Engines flagged !shard_invariant (the swap
// pipelines, whose SC buckets are shard-local by documented design) are
// anchored per shard layout instead.
TEST_F(EngineConformanceTest, ByteIdenticalAcrossShardAndThreadCounts) {
  for (const Gadget& gadget : Corpus()) {
    std::string mono = WriteGraphFile(&scratch_, gadget.graph);
    for (const EngineSpec& engine : Engines()) {
      BitVector global_reference;
      ASSERT_OK(engine.run(Shard(mono, 1, gadget.name + engine.name), 1,
                           &global_reference));
      for (uint32_t shards : {1u, 3u, 7u}) {
        std::string manifest =
            Shard(mono, shards, gadget.name + engine.name);
        BitVector reference;
        if (engine.shard_invariant) {
          reference = global_reference;
        } else {
          ASSERT_OK(engine.run(manifest, 1, &reference));
        }
        for (uint32_t threads : {1u, 2u, 8u}) {
          BitVector set;
          ASSERT_OK(engine.run(manifest, threads, &set));
          EXPECT_EQ(SetToVector(set), SetToVector(reference))
              << engine.name << " on " << gadget.name << " at " << shards
              << " shards, " << threads << " threads";
        }
      }
    }
  }
}

// Contract 3 (rounds only): the parallel executor reproduces the
// sequential reference loop exactly -- the set, the final state array,
// the round count, and every per-round winner/frontier counter.
TEST_F(EngineConformanceTest, RoundsMatchSequentialReference) {
  for (const Gadget& gadget : Corpus()) {
    std::string mono = WriteGraphFile(&scratch_, gadget.graph);
    AlgoResult ref;
    std::vector<VState> ref_states;
    ASSERT_OK(RunMinIdRoundsReference(Shard(mono, 3, gadget.name), {}, &ref,
                                      &ref_states));
    for (uint32_t shards : {1u, 3u, 7u}) {
      std::string manifest = Shard(mono, shards, gadget.name + "r");
      for (uint32_t threads : {1u, 2u, 8u}) {
        MinIdRoundsOptions opts;
        opts.pipeline.num_threads = threads;
        AlgoResult res;
        std::vector<VState> states;
        ASSERT_OK(RunMinIdRoundsWithStates(manifest, opts, &res, &states));
        EXPECT_EQ(SetToVector(res.in_set), SetToVector(ref.in_set))
            << gadget.name << " at " << shards << "/" << threads;
        EXPECT_EQ(res.set_size, ref.set_size) << gadget.name;
        EXPECT_EQ(states, ref_states)
            << gadget.name << " state array at " << shards << "/" << threads;
        ASSERT_EQ(res.rounds, ref.rounds)
            << gadget.name << " at " << shards << "/" << threads;
        for (size_t r = 0; r < res.round_stats.size(); ++r) {
          EXPECT_EQ(res.round_stats[r].new_is_vertices,
                    ref.round_stats[r].new_is_vertices)
              << gadget.name << " round " << r;
          EXPECT_EQ(res.round_stats[r].is_size_after,
                    ref.round_stats[r].is_size_after)
              << gadget.name << " round " << r;
          EXPECT_EQ(res.round_stats[r].frontier_after,
                    ref.round_stats[r].frontier_after)
              << gadget.name << " round " << r;
        }
      }
    }
  }
}

// Overwrites the first neighbor id of the first record with neighbors in
// shard file `path` with `bad_id`; the file keeps its size.
void CorruptFirstNeighbor(const std::string& path, VertexId bad_id) {
  std::vector<char> bytes = testing_util::ReadAllBytes(path);
  size_t at = kAdjacencyShardHeaderBytes;
  while (at + 8 <= bytes.size()) {
    uint32_t degree = 0;
    std::memcpy(&degree, bytes.data() + at + 4, sizeof(degree));
    if (degree > 0) {
      std::memcpy(bytes.data() + at + 8, &bad_id, sizeof(bad_id));
      SequentialFileWriter w;
      ASSERT_OK(w.Open(path));
      ASSERT_OK(w.Append(bytes.data(), bytes.size()));
      ASSERT_OK(w.Close());
      return;
    }
    at += AdjacencyRecordBytes(degree);
  }
  FAIL() << "no record with neighbors in " << path;
}

// A failed pass reports its first failing shard, whichever worker read
// which shard: with a record of shards 1 and 5 of 8 corrupt, the swap
// stage and the rounds engine return shard 1's Corruption at every
// thread count, every time.
TEST_F(EngineConformanceTest, FirstFailingShardReportedAtEveryThreadCount) {
  const Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(4000, 2.2), 5);
  const std::string manifest =
      Shard(WriteGraphFile(&scratch_, g), 8, "corrupt");
  const auto bad_id = static_cast<VertexId>(g.NumVertices());
  CorruptFirstNeighbor(ShardFilePath(manifest, 1), bad_id);
  CorruptFirstNeighbor(ShardFilePath(manifest, 5), bad_id);
  const std::string shard1 = '\'' + ShardFilePath(manifest, 1) + '\'';
  std::string swap_error, rounds_error;
  for (uint32_t threads : {1u, 2u, 8u}) {
    for (int repeat = 0; repeat < 20; ++repeat) {
      SCOPED_TRACE(std::to_string(threads) + " threads, repeat " +
                   std::to_string(repeat));
      ParallelSwapOptions swap_opts;
      swap_opts.num_threads = threads;
      AlgoResult swap;
      Status s = RunParallelSwap(manifest, BitVector(g.NumVertices()),
                                 swap_opts, &swap);
      ASSERT_TRUE(s.IsCorruption()) << s.ToString();
      EXPECT_NE(s.message().find(shard1), std::string::npos) << s.ToString();
      if (swap_error.empty()) swap_error = s.ToString();
      EXPECT_EQ(s.ToString(), swap_error);

      MinIdRoundsOptions rounds_opts;
      rounds_opts.pipeline.num_threads = threads;
      AlgoResult rounds;
      s = RunMinIdRounds(manifest, rounds_opts, &rounds);
      ASSERT_TRUE(s.IsCorruption()) << s.ToString();
      EXPECT_NE(s.message().find(shard1), std::string::npos) << s.ToString();
      if (rounds_error.empty()) rounds_error = s.ToString();
      EXPECT_EQ(s.ToString(), rounds_error);
    }
  }
}

}  // namespace
}  // namespace semis
