#include "core/parallel_swap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/greedy.h"
#include "core/two_k_swap.h"
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

class ParallelSwapTest : public ScratchTest {
 protected:
  // Writes `g` degree-sorted, shards it, and runs greedy for the initial
  // set. Returns the manifest path.
  std::string Prepare(const Graph& g, uint32_t num_shards) {
    std::string mono = WriteGraphFile(&scratch_, g);
    std::string sorted = NewPath("sorted");
    Status s = BuildDegreeSortedAdjacencyFile(mono, sorted,
                                              DegreeSortOptions{});
    EXPECT_TRUE(s.ok()) << s.ToString();
    std::string manifest = NewPath("sharded");
    s = ShardAdjacencyFile(sorted, manifest, num_shards);
    EXPECT_TRUE(s.ok()) << s.ToString();
    s = RunGreedy(sorted, GreedyOptions{}, &greedy_);
    EXPECT_TRUE(s.ok()) << s.ToString();
    sorted_path_ = sorted;
    return manifest;
  }

  AlgoResult greedy_;
  std::string sorted_path_;
};

TEST_F(ParallelSwapTest, ByteIdenticalAcrossThreadCounts) {
  // The acceptance contract of the parallel executor: the independent set
  // is byte-identical to the sequential path (num_threads == 1) at every
  // thread count, on a non-trivial power-law graph. Per-worker scratch is
  // bounded by the degree of the record in hand, so the accounted peak
  // memory is the same at every thread count too.
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(30000, 2.0), 31);
  std::string manifest = Prepare(g, 8);

  AlgoResult sequential;
  ParallelSwapOptions opts;
  opts.num_threads = 1;
  ASSERT_OK(RunParallelSwap(manifest, greedy_.in_set, opts, &sequential));
  EXPECT_GE(sequential.set_size, greedy_.set_size);
  EXPECT_GT(sequential.memory.CategoryPeakBytes("sc"), 0u);

  for (uint32_t threads : {2u, 8u}) {
    AlgoResult parallel;
    ParallelSwapOptions popts;
    popts.num_threads = threads;
    ASSERT_OK(RunParallelSwap(manifest, greedy_.in_set, popts, &parallel));
    EXPECT_EQ(parallel.set_size, sequential.set_size) << threads;
    EXPECT_EQ(SetToVector(parallel.in_set), SetToVector(sequential.in_set))
        << "result depends on thread count at " << threads << " threads";
    EXPECT_EQ(parallel.rounds, sequential.rounds) << threads;
    EXPECT_EQ(parallel.peak_memory_bytes, sequential.peak_memory_bytes)
        << threads;
  }
}

// FNV-1a over a byte stream.
class Fnv1a {
 public:
  void Byte(uint8_t b) { hash_ = (hash_ ^ b) * 0x100000001b3ull; }
  void U64(uint64_t x) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(x >> (8 * i)));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

// Digest of everything the executor decides: the member bitmap (eight
// vertices per byte, lowest id in the lowest bit), the round count, and
// every RoundStats counter. Only the wall-clock `seconds` is left out.
uint64_t ResultDigest(const AlgoResult& res) {
  Fnv1a d;
  for (size_t base = 0; base < res.in_set.size(); base += 8) {
    uint8_t byte = 0;
    for (size_t i = 0; i < 8 && base + i < res.in_set.size(); ++i) {
      if (res.in_set.Test(base + i)) byte |= static_cast<uint8_t>(1u << i);
    }
    d.Byte(byte);
  }
  d.U64(res.set_size);
  d.U64(res.rounds);
  for (const RoundStats& r : res.round_stats) {
    for (uint64_t x :
         {r.one_k_swaps, r.two_k_swaps, r.follower_joins, r.zero_one_swaps,
          r.conflicts, r.denied_promotions, r.new_is_vertices,
          r.removed_is_vertices, r.is_size_after, r.frontier_after}) {
      d.U64(x);
    }
  }
  return d.value();
}

// The pinned corpus. The PLRG fires 2<->k skeletons (a different number
// per shard count) and never joins; the ER graph's commit pass denies
// enough promotions that 0<->1 joins fire in rounds 1 and 2.
enum class CorpusGraph { kPlrg, kEr };

Graph MakeCorpusGraph(CorpusGraph which) {
  return which == CorpusGraph::kPlrg
             ? GeneratePlrg(PlrgSpec::ForVertexCount(8000, 1.8), 1)
             : GenerateErdosRenyi(4000, 12000, 1);
}

// Which branches of the round schedule a case must exercise, checked on
// every run so a corpus drift cannot silently drop coverage.
enum class Expect {
  kNoJoins,         // no 0<->1 join anywhere, final loop idle
  kJoinsInRounds,   // some round's join pass joins a vertex
  kFinalLoopJoins,  // the final maximality loop adds vertices
};

struct DigestCase {
  const char* name;
  CorpusGraph graph;
  bool two_k;
  // 0 = start from the greedy set; k = drop every k-th greedy member, so
  // round 1 starts with free vertices.
  uint32_t holes_every;
  uint32_t max_rounds;
  Expect expect;
  uint64_t digest[3];  // at 1, 3 and 7 shards
  // SC bucket pair cap (ParallelSwapOptions::max_pairs_per_bucket).
  uint32_t max_pairs = ParallelSwapOptions{}.max_pairs_per_bucket;
};

constexpr uint32_t kDigestShards[3] = {1, 3, 7};

const DigestCase kDigestCases[] = {
    {"plrg-twok", CorpusGraph::kPlrg, true, 0, 0, Expect::kNoJoins,
     {0x582a1d54a2e7ad17ull, 0x1b1435d399ea82b2ull, 0x66f3ed49dd07dbe3ull}},
    {"plrg-onek", CorpusGraph::kPlrg, false, 0, 0, Expect::kNoJoins,
     {0x24b46fe07c2c03ecull, 0x8c58c5beb30df730ull, 0x66f3ed49dd07dbe3ull}},
    {"er-twok", CorpusGraph::kEr, true, 0, 0, Expect::kJoinsInRounds,
     {0x0a5c9857e821f898ull, 0x2b8a3d22c8034f5bull, 0xb09664d405458c33ull}},
    {"er-onek", CorpusGraph::kEr, false, 0, 0, Expect::kJoinsInRounds,
     {0xa8527d2272b20429ull, 0xd07ffcbffe80b49dull, 0xbc7d5fb2f0d7b6b2ull}},
    {"plrg-twok-holes", CorpusGraph::kPlrg, true, 5, 0, Expect::kJoinsInRounds,
     {0x4b9961b7d347c85dull, 0x9aafac46a26aeb04ull, 0x1840e3a0dada1bb7ull}},
    {"plrg-twok-holes-1round", CorpusGraph::kPlrg, true, 5, 1,
     Expect::kFinalLoopJoins,
     {0xc4fe58b241ce2b56ull, 0x58dad6ad78c8a9b9ull, 0x493868ac519feb18ull}},
    {"er-onek-holes-1round", CorpusGraph::kEr, false, 3, 1,
     Expect::kFinalLoopJoins,
     {0xd47d3a604a75f693ull, 0x625648c9a2f32a2full, 0x21e44990d3efdcf2ull}},
    // The cap never binds on this corpus: these equal plrg-twok's digests.
    // PairCapBoundsEachBucket below is a graph on which it does.
    {"plrg-twok-pair-cap-1", CorpusGraph::kPlrg, true, 0, 0, Expect::kNoJoins,
     {0x582a1d54a2e7ad17ull, 0x1b1435d399ea82b2ull, 0x66f3ed49dd07dbe3ull},
     1},
};

TEST_F(ParallelSwapTest, PinnedDigestsAcrossShardAndThreadCounts) {
  // Pins the executor's exact output -- set, rounds and per-round
  // counters -- so a change to the pass schedule must reproduce every
  // decision, not just an independent maximal set.
  for (CorpusGraph which : {CorpusGraph::kPlrg, CorpusGraph::kEr}) {
    const Graph g = MakeCorpusGraph(which);
    const std::string mono = WriteGraphFile(&scratch_, g);
    const std::string sorted = NewPath("sorted");
    ASSERT_OK(
        BuildDegreeSortedAdjacencyFile(mono, sorted, DegreeSortOptions{}));
    AlgoResult greedy;
    ASSERT_OK(RunGreedy(sorted, GreedyOptions{}, &greedy));
    for (size_t s = 0; s < 3; ++s) {
      const std::string manifest = NewPath("sharded");
      ASSERT_OK(ShardAdjacencyFile(sorted, manifest, kDigestShards[s]));
      for (const DigestCase& c : kDigestCases) {
        if (c.graph != which) continue;
        BitVector initial = greedy.in_set;
        uint64_t members = 0;
        for (size_t v = 0; c.holes_every > 0 && v < initial.size(); ++v) {
          if (initial.Test(v) && members++ % c.holes_every == 0) {
            initial.Clear(v);
          }
        }
        // The 1-thread run's charge: every shard's SC tables are counted as
        // if live at once, so the figure must not move with the threads.
        uint64_t peak_at_one = 0, sc_at_one = 0;
        for (uint32_t threads : {1u, 8u}) {
          SCOPED_TRACE(std::string(c.name) + " at " +
                       std::to_string(kDigestShards[s]) + " shards, " +
                       std::to_string(threads) + " threads");
          ParallelSwapOptions opts;
          opts.enable_two_k = c.two_k;
          opts.max_rounds = c.max_rounds;
          opts.max_pairs_per_bucket = c.max_pairs;
          opts.num_threads = threads;
          AlgoResult res;
          ASSERT_OK(RunParallelSwap(manifest, initial, opts, &res));
          ASSERT_FALSE(res.round_stats.empty());
          uint64_t round_joins = 0;
          for (const RoundStats& r : res.round_stats) {
            round_joins += r.zero_one_swaps;
          }
          const uint64_t final_loop_joins =
              res.set_size - res.round_stats.back().is_size_after;
          switch (c.expect) {
            case Expect::kNoJoins:
              EXPECT_EQ(round_joins, 0u);
              EXPECT_EQ(final_loop_joins, 0u);
              break;
            case Expect::kJoinsInRounds:
              EXPECT_GT(round_joins, 0u);
              break;
            case Expect::kFinalLoopJoins:
              EXPECT_GT(final_loop_joins, 0u);
              break;
          }
          EXPECT_EQ(ResultDigest(res), c.digest[s])
              << "0x" << std::hex << ResultDigest(res);
          const uint64_t sc_peak = res.memory.CategoryPeakBytes("sc");
          if (threads == 1) {
            peak_at_one = res.peak_memory_bytes;
            sc_at_one = sc_peak;
          } else {
            EXPECT_EQ(res.peak_memory_bytes, peak_at_one);
            EXPECT_EQ(sc_peak, sc_at_one);
          }
        }
      }
    }
  }
}

TEST_F(ParallelSwapTest, PairCapBoundsEachBucket) {
  // IS {w1, w2, w3}; a1..a4 each see exactly w1 and w2, so they share the
  // SC bucket {w1, w2}, and the degree sort scans them a1, a2, a3, a4
  // (degrees 4, 5, 6, 6). a2 pairs with a1. a3 and a4 are adjacent to a1,
  // so (a2, a1) never completes a skeleton, and a3 pairs with the second
  // anchor, a2. Only that second pair lets a4 fire (a3, a2, a4) for
  // (w1, w2); a1 then loses its promotion to the lower ids a3 and a4.
  // z1..z3 see three IS vertices and only lift the degrees of a2..a4.
  enum : VertexId { a3, a4, a1, a2, w1, w2, w3, z1, z2, z3, kCount };
  std::vector<Edge> edges = {{a1, w1}, {a1, w2}, {a1, a3}, {a1, a4},
                             {a2, w1}, {a2, w2}, {a3, w1}, {a3, w2},
                             {a4, w1}, {a4, w2}};
  for (VertexId z : {z1, z2, z3}) {
    for (VertexId v : {w1, w2, w3, a2, a3, a4}) edges.emplace_back(z, v);
  }
  const Graph g = Graph::FromEdges(kCount, std::move(edges));
  const std::string mono = WriteGraphFile(&scratch_, g);
  const std::string sorted = NewPath("sorted");
  ASSERT_OK(BuildDegreeSortedAdjacencyFile(mono, sorted, DegreeSortOptions{}));
  const std::string manifest = NewPath("sharded");
  ASSERT_OK(ShardAdjacencyFile(sorted, manifest, 1));
  BitVector initial(kCount);
  for (VertexId w : {w1, w2, w3}) initial.Set(w);

  AlgoResult uncapped;
  ASSERT_OK(RunParallelSwap(manifest, initial, ParallelSwapOptions{},
                            &uncapped));
  EXPECT_EQ(SetToVector(uncapped.in_set),
            (std::vector<VertexId>{a3, a4, a2, w3}));
  ASSERT_FALSE(uncapped.round_stats.empty());
  EXPECT_EQ(uncapped.round_stats[0].two_k_swaps, 1u);
  EXPECT_EQ(uncapped.round_stats[0].denied_promotions, 1u);

  ParallelSwapOptions capped;
  capped.max_pairs_per_bucket = 1;
  AlgoResult one_pair;
  ASSERT_OK(RunParallelSwap(manifest, initial, capped, &one_pair));
  EXPECT_EQ(SetToVector(one_pair.in_set), (std::vector<VertexId>{w1, w2, w3}));
  EXPECT_EQ(one_pair.rounds, 1u);
  EXPECT_EQ(one_pair.round_stats[0].two_k_swaps, 0u);
}

TEST_F(ParallelSwapTest, ResultIsIndependentAndMaximal) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(20000, 2.2), 32);
  std::string manifest = Prepare(g, 6);
  AlgoResult res;
  ParallelSwapOptions opts;
  opts.num_threads = 4;
  ASSERT_OK(RunParallelSwap(manifest, greedy_.in_set, opts, &res));
  VerifyResult vr = VerifyIndependentSet(g, res.in_set);
  EXPECT_TRUE(vr.independent);
  EXPECT_TRUE(vr.maximal);
  EXPECT_EQ(res.in_set.Count(), res.set_size);
}

TEST_F(ParallelSwapTest, ImprovesOnGreedyLikeSequentialTwoK) {
  // The parallel executor resolves conflicts differently from the
  // monolithic two-k-swap, but it must land in the same quality band.
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(20000, 2.0), 33);
  std::string manifest = Prepare(g, 6);

  AlgoResult parallel;
  ParallelSwapOptions opts;
  opts.num_threads = 2;
  ASSERT_OK(RunParallelSwap(manifest, greedy_.in_set, opts, &parallel));

  AlgoResult twok;
  ASSERT_OK(
      RunTwoKSwap(sorted_path_, greedy_.in_set, TwoKSwapOptions{}, &twok));

  EXPECT_GT(parallel.set_size, greedy_.set_size);
  // Within 1% of the sequential two-k result.
  EXPECT_GE(parallel.set_size + twok.set_size / 100, twok.set_size);
}

TEST_F(ParallelSwapTest, OneKModeAlsoDeterministic) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(15000, 2.1), 34);
  std::string manifest = Prepare(g, 5);
  AlgoResult base;
  ParallelSwapOptions opts;
  opts.enable_two_k = false;
  opts.num_threads = 1;
  ASSERT_OK(RunParallelSwap(manifest, greedy_.in_set, opts, &base));
  ParallelSwapOptions opts4 = opts;
  opts4.num_threads = 4;
  AlgoResult res4;
  ASSERT_OK(RunParallelSwap(manifest, greedy_.in_set, opts4, &res4));
  EXPECT_EQ(SetToVector(res4.in_set), SetToVector(base.in_set));
  VerifyResult vr = VerifyIndependentSet(g, base.in_set);
  EXPECT_TRUE(vr.independent);
  EXPECT_TRUE(vr.maximal);
}

TEST_F(ParallelSwapTest, MaxRoundsRespected) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(10000, 2.0), 35);
  std::string manifest = Prepare(g, 4);
  AlgoResult res;
  ParallelSwapOptions opts;
  opts.max_rounds = 1;
  opts.num_threads = 2;
  ASSERT_OK(RunParallelSwap(manifest, greedy_.in_set, opts, &res));
  EXPECT_LE(res.rounds, 1u);
}

TEST_F(ParallelSwapTest, MergesPerThreadIoIntoAggregate) {
  Graph g = MakeCorpusGraph(CorpusGraph::kPlrg);
  std::string manifest = Prepare(g, 4);
  AlgoResult res;
  ParallelSwapOptions opts;
  opts.num_threads = 3;
  ASSERT_OK(RunParallelSwap(manifest, greedy_.in_set, opts, &res));
  for (const RoundStats& r : res.round_stats) {
    ASSERT_EQ(r.zero_one_swaps, 0u) << "the schedule below assumes no joins";
  }
  // With no joins a run is one label pass up front, then propose, commit
  // and relabel per round, except that the last round proposes nothing
  // and so skips its commit and relabel: 3R - 1 full passes for R rounds,
  // and every byte of them must land in the merged counters.
  ASSERT_GT(res.rounds, 0u);
  EXPECT_EQ(res.round_stats.back().one_k_swaps +
                res.round_stats.back().two_k_swaps,
            0u);
  EXPECT_GT(res.io.bytes_read, 0u);
  EXPECT_EQ(res.io.sequential_scans, 3u * res.rounds - 1);
  EXPECT_GT(res.io.files_opened, 0u);
  EXPECT_GT(res.peak_memory_bytes, 0u);
}

TEST_F(ParallelSwapTest, TerminatesOnMapLabelsAtTheBestRoundsSet) {
  // examples/map_labeling's conflict graph. Its rounds are not monotone:
  // from round 5 on the set swings between two sizes, so a stall counter
  // that compares a round with the one before never fires and the stage
  // runs forever. Counted against the largest size seen, it stops, and
  // the result is the best round's set made maximal.
  const Graph g = GenerateMapLabels(4000, 0.022, 0.008, 7);
  ASSERT_EQ(g.NumVertices(), 16000u);
  ASSERT_EQ(g.NumEdges(), 112312u);
  for (uint32_t shards : {1u, 3u}) {
    const std::string manifest = Prepare(g, shards);
    std::vector<VertexId> at_one_thread;
    for (uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::to_string(shards) + " shards, " +
                   std::to_string(threads) + " threads");
      ParallelSwapOptions opts;
      opts.num_threads = threads;
      AlgoResult res;
      ASSERT_OK(RunParallelSwap(manifest, greedy_.in_set, opts, &res));
      uint64_t best_round = 0;
      bool shrank = false;
      uint64_t before = greedy_.set_size;
      for (const RoundStats& r : res.round_stats) {
        best_round = std::max(best_round, r.is_size_after);
        shrank = shrank || r.is_size_after < before;
        before = r.is_size_after;
      }
      EXPECT_GE(res.set_size, best_round);
      EXPECT_GE(res.set_size, greedy_.set_size);
      EXPECT_EQ(res.set_size, res.in_set.Count());
      VerifyResult vr = VerifyIndependentSet(g, res.in_set);
      EXPECT_TRUE(vr.independent && vr.maximal);
      if (threads == 1) {
        // The graph still exercises the case this test is about.
        EXPECT_TRUE(shrank) << "no round shrank the set";
        at_one_thread = SetToVector(res.in_set);
      } else {
        EXPECT_EQ(SetToVector(res.in_set), at_one_thread);
      }
    }
  }
}

TEST_F(ParallelSwapTest, InitialSetSizeMismatchRejected) {
  Graph g = GenerateErdosRenyi(100, 200, 37);
  std::string manifest = Prepare(g, 2);
  BitVector wrong(50);
  AlgoResult res;
  EXPECT_TRUE(RunParallelSwap(manifest, wrong, ParallelSwapOptions{}, &res)
                  .IsInvalidArgument());
}

TEST_F(ParallelSwapTest, SolverIntegrationEndToEnd) {
  // MisEngine::Open runs the swap stage on the parallel executor at every
  // shard count; the result must verify and the thread count must not
  // change it.
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(15000, 2.0), 38);
  std::string path = WriteGraphFile(&scratch_, g);
  MisEngineOptions opts;
  opts.pipeline.num_shards = 4;
  opts.pipeline.num_threads = 2;
  opts.verify = true;
  MisEngine engine(opts);
  ASSERT_OK(engine.Open(path));
  const SolveResult& res = engine.open_result();
  EXPECT_GE(res.set_size, res.greedy.set_size);
  EXPECT_GT(res.shard_seconds, 0.0);

  MisEngineOptions opts1 = opts;
  opts1.pipeline.num_threads = 1;
  MisEngine engine1(opts1);
  ASSERT_OK(engine1.Open(path));
  EXPECT_EQ(SetToVector(engine1.open_result().set), SetToVector(res.set));
}

}  // namespace
}  // namespace semis
