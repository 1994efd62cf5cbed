// Copyright (c) the semis authors.
// Property/fuzz suite for the min-id rounds engine: 200+ seeded random
// graphs at mixed shard/thread geometries, checking the per-round
// invariants through the observer hook --
//
//   * every round's winners are pairwise non-adjacent,
//   * the frontier strictly shrinks every round until it is empty,
//   * the round count never exceeds the vertex count (and stays small on
//     the random corpus),
//   * the final set is independent, maximal, and equal to the sequential
//     reference,
//
// plus the hostile geometries the cursor tests taught us to fear (more
// shards than records, interior empty shards, degenerate block knobs)
// and record-order independence (a shuffled file yields the same set).
#include "core/rounds_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/verify.h"
#include "gen/generators.h"
#include "gen/plrg.h"
#include "graph/adjacency_file.h"
#include "graph/sharded_adjacency_file.h"
#include "io/file.h"
#include "test_util.h"
#include "util/random.h"

namespace semis {
namespace {

using testing_util::ScratchTest;
using testing_util::SetToVector;
using testing_util::WriteGraphFile;
using testing_util::WriteGraphFileInOrder;

class RoundsPropertyTest : public ScratchTest {
 protected:
  std::string Shard(const std::string& mono, uint32_t num_shards) {
    std::string manifest =
        NewPath("sharded" + std::to_string(num_shards));
    Status s = ShardAdjacencyFile(mono, manifest, num_shards);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return manifest;
  }

  // Checks every per-round invariant of one run and returns the result.
  // `threads` sizes the executor's workers; at one, the calling thread
  // runs every pass.
  AlgoResult CheckedRun(const Graph& g, const std::string& manifest,
                        uint32_t threads, const std::string& tag) {
    const uint64_t n = g.NumVertices();
    MinIdRoundsOptions opts;
    opts.pipeline.num_threads = threads;
    uint64_t prev_frontier = n;
    uint64_t rounds_seen = 0;
    uint64_t winners_total = 0;
    opts.observer = [&](const RoundObservation& obs) {
      rounds_seen++;
      EXPECT_EQ(obs.round, rounds_seen) << tag;
      EXPECT_FALSE(obs.winners.empty()) << tag << " round " << obs.round;
      EXPECT_TRUE(
          std::is_sorted(obs.winners.begin(), obs.winners.end()))
          << tag << " round " << obs.round;
      // Winners are pairwise non-adjacent: no winner may see another
      // winner in its (sorted) neighbor list.
      for (const VertexId w : obs.winners) {
        for (const VertexId u : g.Neighbors(w)) {
          EXPECT_FALSE(std::binary_search(obs.winners.begin(),
                                          obs.winners.end(), u))
              << tag << " round " << obs.round << ": adjacent winners "
              << w << " and " << u;
        }
      }
      // The frontier loses at least the winners each round.
      EXPECT_LT(obs.frontier_after, prev_frontier)
          << tag << " round " << obs.round;
      prev_frontier = obs.frontier_after;
      winners_total += obs.winners.size();
    };
    AlgoResult res;
    Status s = RunMinIdRounds(manifest, opts, &res);
    EXPECT_TRUE(s.ok()) << tag << ": " << s.ToString();
    EXPECT_EQ(res.rounds, rounds_seen) << tag;
    EXPECT_EQ(res.set_size, winners_total) << tag;
    EXPECT_LE(res.rounds, n == 0 ? 0 : n) << tag;
    if (n > 0) {
      EXPECT_EQ(prev_frontier, 0u) << tag;
    }
    VerifyResult vr = VerifyIndependentSet(g, res.in_set);
    EXPECT_TRUE(vr.independent) << tag;
    EXPECT_TRUE(vr.maximal) << tag;
    return res;
  }
};

// The fuzz sweep: 200 seeded ER/Gnp graphs, geometry varied with the
// seed, parallel run cross-checked against the sequential reference.
// Everything is seed-pinned, so a failure replays exactly.
TEST_F(RoundsPropertyTest, SeededRandomGraphSweep) {
  uint64_t max_rounds_seen = 0;
  for (uint64_t i = 0; i < 200; ++i) {
    const VertexId n = static_cast<VertexId>(2 + (i * 13) % 150);
    Graph g;
    if (i % 2 == 0) {
      const uint64_t m = (i * 37) % (static_cast<uint64_t>(n) * 3);
      g = GenerateErdosRenyi(n, m, 1000 + i);
    } else {
      const double p = 0.02 + 0.3 * static_cast<double>(i % 7) / 7.0;
      g = GenerateGnp(n, p, 2000 + i);
    }
    const std::string tag = "seed " + std::to_string(i);
    std::string mono = WriteGraphFile(&scratch_, g);
    std::string manifest = Shard(mono, 1 + i % 4);
    const uint32_t threads = 2 + i % 3;

    AlgoResult res = CheckedRun(g, manifest, threads, tag);
    AlgoResult ref;
    ASSERT_OK(RunMinIdRoundsReference(manifest, {}, &ref, nullptr));
    EXPECT_EQ(SetToVector(res.in_set), SetToVector(ref.in_set)) << tag;
    EXPECT_EQ(res.rounds, ref.rounds) << tag;
    max_rounds_seen = std::max(max_rounds_seen, res.rounds);
  }
  // The corpus is fixed, so its round counts are too: min-id on these
  // random graphs settles in a handful of rounds. A jump past this bound
  // means the round rule changed -- update deliberately, never silently.
  EXPECT_LE(max_rounds_seen, 16u);
}

// Record order must not matter: the same graph written in shuffled
// record order yields the identical set (greedy cannot say that --
// min-id rounds can, it is the whole determinism argument).
TEST_F(RoundsPropertyTest, RecordOrderIndependence) {
  for (uint64_t seed : {3u, 17u, 91u}) {
    Graph g = GenerateErdosRenyi(600, 1800, seed);
    std::string manifest = Shard(WriteGraphFile(&scratch_, g), 3);
    AlgoResult ref;
    ASSERT_OK(RunMinIdRounds(manifest, {}, &ref));

    std::vector<VertexId> order(g.NumVertices());
    std::iota(order.begin(), order.end(), 0);
    Random rng(seed);
    rng.Shuffle(order.data(), order.size());
    std::string shuffled =
        Shard(WriteGraphFileInOrder(&scratch_, g, order), 3);
    for (uint32_t threads : {1u, 4u}) {
      MinIdRoundsOptions opts;
      opts.pipeline.num_threads = threads;
      AlgoResult res;
      ASSERT_OK(RunMinIdRounds(shuffled, opts, &res));
      EXPECT_EQ(SetToVector(res.in_set), SetToVector(ref.in_set))
          << "seed " << seed << ", " << threads << " threads";
    }
  }
}

// More shards than records: trailing empty shards must be skipped
// harmlessly at every thread count.
TEST_F(RoundsPropertyTest, MoreShardsThanRecords) {
  Graph g = GeneratePath(3);
  std::string manifest = Shard(WriteGraphFile(&scratch_, g), 7);
  for (uint32_t threads : {1u, 2u, 8u}) {
    MinIdRoundsOptions opts;
    opts.pipeline.num_threads = threads;
    AlgoResult res = CheckedRun(g, manifest, threads,
                                "3 records / 7 shards");
    EXPECT_EQ(res.set_size, 2u);  // path 0-1-2: {0, 2}
    EXPECT_TRUE(res.in_set.Test(0));
    EXPECT_TRUE(res.in_set.Test(2));
  }
}

// Interior empty shards (the cursor tests' hand-built hole geometry):
// shard 1 and shard 3 of four hold no records at all.
TEST_F(RoundsPropertyTest, InteriorEmptyShards) {
  Graph g = GenerateErdosRenyi(200, 600, 36);
  std::string mono = WriteGraphFile(&scratch_, g);

  // Drain the monolithic records, then rewrite them as
  // [0..99][empty][100..199][empty].
  std::vector<std::pair<VertexId, std::vector<VertexId>>> records;
  AdjacencyFileHeader header;
  {
    AdjacencyFileScanner scanner;
    ASSERT_OK(scanner.Open(mono));
    header = scanner.header();
    VertexRecordView rec;
    bool has_next = false;
    while (true) {
      ASSERT_OK(scanner.Next(&rec, &has_next));
      if (!has_next) break;
      records.emplace_back(
          rec.id, std::vector<VertexId>(rec.begin(), rec.end()));
    }
    ASSERT_OK(scanner.Close());
  }
  ASSERT_EQ(records.size(), 200u);

  std::string manifest = NewPath("holey");
  ShardedAdjacencyManifest m;
  m.header = header;
  m.shards.resize(4);
  const size_t split = 100;
  for (uint32_t k = 0; k < 4; ++k) {
    SequentialFileWriter writer;
    ASSERT_OK(writer.Open(ShardFilePath(manifest, k)));
    ASSERT_OK(WriteAdjacencyShardHeader(&writer, k, m.header.num_vertices));
    const size_t begin = k == 0 ? 0 : (k == 2 ? split : records.size());
    const size_t end = k == 0 ? split : (k == 2 ? records.size() : begin);
    for (size_t i = begin; i < end; ++i) {
      ASSERT_OK(writer.AppendU32(records[i].first));
      ASSERT_OK(writer.AppendU32(
          static_cast<uint32_t>(records[i].second.size())));
      if (!records[i].second.empty()) {
        ASSERT_OK(writer.Append(
            records[i].second.data(),
            records[i].second.size() * sizeof(VertexId)));
      }
      m.shards[k].num_records++;
      m.shards[k].num_directed_edges += records[i].second.size();
    }
    ASSERT_OK(writer.Close());
  }
  ASSERT_OK(WriteShardedAdjacencyManifest(manifest, m));

  AlgoResult ref;
  ASSERT_OK(RunMinIdRoundsReference(Shard(mono, 2), {}, &ref, nullptr));
  for (uint32_t threads : {1u, 2u, 8u}) {
    AlgoResult res =
        CheckedRun(g, manifest, threads, "interior empty shards");
    EXPECT_EQ(SetToVector(res.in_set), SetToVector(ref.in_set))
        << threads << " threads";
  }
}

// The rounds engine through the full MisEngine pipeline at 8 threads, swap
// stage included: the set stays the 1-thread reference one.
TEST_F(RoundsPropertyTest, HostilePipelineKnobsThroughSolver) {
  Graph g = GenerateErdosRenyi(1500, 4500, 77);
  std::string manifest = Shard(WriteGraphFile(&scratch_, g), 5);
  BitVector reference;
  {
    MisEngineOptions opts;
    opts.degree_sort = false;
    opts.swap = SwapMode::kTwoK;
    opts.pipeline.engine = SolveEngine::kRounds;
    opts.pipeline.num_threads = 1;
    MisEngine engine(opts);
    ASSERT_OK(engine.Open(manifest));
    reference = engine.open_result().set;
  }
  MisEngineOptions opts;
  opts.degree_sort = false;
  opts.swap = SwapMode::kTwoK;
  opts.verify = true;
  opts.pipeline.engine = SolveEngine::kRounds;
  opts.pipeline.num_threads = 8;
  MisEngine engine(opts);
  ASSERT_OK(engine.Open(manifest));
  const SolveResult& res = engine.open_result();
  EXPECT_EQ(SetToVector(res.set), SetToVector(reference));
  EXPECT_GT(res.rounds.rounds, 0u);
  EXPECT_EQ(res.rounds.round_stats.back().frontier_after, 0u);
}

// The work of a run is a function of the graph and its shard layout,
// never of the thread count: one thread skips the shards whose frontier
// is empty like every multi-threaded run, so it reads the same bytes,
// decodes the same records, counts the same scans and charges the same
// peak.
TEST_F(RoundsPropertyTest, WorkCountersIdenticalAtEveryThreadCount) {
  const Graph g =
      GeneratePlrg(PlrgSpec::ForVerticesAndAvgDegree(20000, 8.0), 42);
  const std::string mono = WriteGraphFile(&scratch_, g);
  for (uint32_t shards : {1u, 3u, 7u}) {
    const std::string manifest = Shard(mono, shards);
    MinIdRoundsOptions opts;
    opts.pipeline.num_threads = 1;
    AlgoResult one;
    ASSERT_OK(RunMinIdRounds(manifest, opts, &one));
    for (uint32_t threads : {2u, 8u}) {
      const std::string tag = std::to_string(shards) + " shards, " +
                              std::to_string(threads) + " threads";
      opts.pipeline.num_threads = threads;
      AlgoResult res;
      ASSERT_OK(RunMinIdRounds(manifest, opts, &res));
      EXPECT_EQ(SetToVector(res.in_set), SetToVector(one.in_set)) << tag;
      EXPECT_EQ(res.io.records_decoded, one.io.records_decoded) << tag;
      EXPECT_EQ(res.io.bytes_read, one.io.bytes_read) << tag;
      EXPECT_EQ(res.io.sequential_scans, one.io.sequential_scans) << tag;
      EXPECT_EQ(res.peak_memory_bytes, one.peak_memory_bytes) << tag;
    }
    if (shards == 7) {
      // The reference reads every shard in every pass; one thread skips
      // the settled ones.
      AlgoResult ref;
      ASSERT_OK(RunMinIdRoundsReference(manifest, {}, &ref, nullptr));
      EXPECT_EQ(SetToVector(ref.in_set), SetToVector(one.in_set));
      EXPECT_LT(one.io.records_decoded, ref.io.records_decoded);
    }
  }
}

// A capped run (max_rounds) must stop early, stay independent, and
// report the surviving frontier in its last round's stats.
TEST_F(RoundsPropertyTest, MaxRoundsCapStopsEarly) {
  Graph g = GeneratePath(40);  // ids increase along the path: many rounds
  std::string manifest = Shard(WriteGraphFile(&scratch_, g), 2);
  AlgoResult full;
  ASSERT_OK(RunMinIdRounds(manifest, {}, &full));
  ASSERT_GT(full.rounds, 2u);
  MinIdRoundsOptions opts;
  opts.max_rounds = 1;
  opts.pipeline.num_threads = 4;
  AlgoResult res;
  ASSERT_OK(RunMinIdRounds(manifest, opts, &res));
  EXPECT_EQ(res.rounds, 1u);
  EXPECT_GT(res.round_stats.back().frontier_after, 0u);
  VerifyResult vr = VerifyIndependentSet(g, res.in_set);
  EXPECT_TRUE(vr.independent);
  EXPECT_FALSE(vr.maximal);  // the cap left undecided vertices behind
}

}  // namespace
}  // namespace semis
