// Tests for incremental MIS maintenance under edge updates (the paper's
// future-work scenario). Reference semantics: after any sequence of
// updates, set() must be independent on the UPDATED graph; after
// Repair(), also maximal.
#include <gtest/gtest.h>

#include <set>

#include "core/engine.h"
#include "core/incremental.h"
#include "core/verify.h"
#include "gen/generators.h"
#include "gen/plrg.h"
#include "test_util.h"

namespace semis {
namespace {

using testing_util::RandomMaximalSet;
using testing_util::ScratchTest;
using testing_util::WriteGraphFile;

class IncrementalTest : public ScratchTest {};

// Rebuilds the updated graph in memory for verification.
Graph ApplyDelta(const Graph& base, const std::set<Edge>& inserted,
                 const std::set<Edge>& deleted) {
  std::vector<Edge> edges;
  for (VertexId v = 0; v < base.NumVertices(); ++v) {
    for (VertexId u : base.Neighbors(v)) {
      if (v < u && deleted.find({v, u}) == deleted.end()) {
        edges.emplace_back(v, u);
      }
    }
  }
  for (const Edge& e : inserted) edges.push_back(e);
  return Graph::FromEdges(base.NumVertices(), std::move(edges));
}

TEST_F(IncrementalTest, InsertBetweenSetMembersEvicts) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {2, 3}});
  std::string path = WriteGraphFile(&scratch_, g);
  BitVector set(4);
  set.Set(0);
  set.Set(2);
  IncrementalMis inc;
  ASSERT_OK(inc.Initialize(path, set));
  ASSERT_OK(inc.InsertEdge(0, 2));
  EXPECT_EQ(inc.set_size(), 1u);
  EXPECT_TRUE(inc.set().Test(0));   // smaller id stays
  EXPECT_FALSE(inc.set().Test(2));
  EXPECT_EQ(inc.pending_evictions(), 1u);
  // Repair can re-add 3 (its set neighbor 2 left) but not 1 or 2.
  ASSERT_OK(inc.Repair());
  EXPECT_TRUE(inc.set().Test(3));
  EXPECT_EQ(inc.pending_evictions(), 0u);
}

TEST_F(IncrementalTest, DeleteOpensMaximalityGapRepairCloses) {
  Graph g = GenerateStar(5);  // center 0
  std::string path = WriteGraphFile(&scratch_, g);
  BitVector set(5);
  set.Set(0);  // {center} is maximal
  IncrementalMis inc;
  ASSERT_OK(inc.Initialize(path, set));
  ASSERT_OK(inc.DeleteEdge(0, 3));
  // Independence unaffected; 3 is now addable.
  ASSERT_OK(inc.Repair());
  EXPECT_TRUE(inc.set().Test(3));
  EXPECT_EQ(inc.set_size(), 2u);
}

TEST_F(IncrementalTest, DuplicateAndCancellingUpdates) {
  Graph g = GeneratePath(3);
  std::string path = WriteGraphFile(&scratch_, g);
  IncrementalMis inc;
  BitVector set(3);
  set.Set(0);
  set.Set(2);
  ASSERT_OK(inc.Initialize(path, set));
  ASSERT_OK(inc.InsertEdge(0, 2));  // evicts 2
  EXPECT_EQ(inc.set_size(), 1u);
  ASSERT_OK(inc.InsertEdge(0, 2));  // duplicate: no-op
  EXPECT_EQ(inc.set_size(), 1u);
  ASSERT_OK(inc.DeleteEdge(0, 2));  // cancels the insert
  ASSERT_OK(inc.Repair());          // 2 is addable again
  EXPECT_TRUE(inc.set().Test(2));
  EXPECT_EQ(inc.set_size(), 2u);
}

TEST_F(IncrementalTest, DuplicateBaseEdgeInsertThenDeleteRemovesTheEdge) {
  // Hand-traced gadget for the duplicate-edge accounting bug: the base
  // graph is the single edge {0,1} with set {0}.
  //   InsertEdge(0,1)  duplicates the base edge (the maintainer cannot
  //                    know that without scanning the base);
  //   DeleteEdge(0,1)  must remove the edge -- both copies.
  // The old accounting erased the duplicate from the insert delta and,
  // concluding the edge was delta-only, never recorded the delete, so
  // Repair's merge scan still saw the base copy alive and refused to add
  // vertex 1. The updated graph is edgeless: {0,1} is the only maximal
  // answer.
  Graph g = Graph::FromEdges(2, {{0, 1}});
  std::string path = WriteGraphFile(&scratch_, g);
  BitVector set(2);
  set.Set(0);
  IncrementalMis inc;
  ASSERT_OK(inc.Initialize(path, set));
  ASSERT_OK(inc.InsertEdge(0, 1));  // duplicate of a base edge
  EXPECT_EQ(inc.set_size(), 1u);
  ASSERT_OK(inc.DeleteEdge(0, 1));
  ASSERT_OK(inc.Repair());
  EXPECT_TRUE(inc.set().Test(0));
  EXPECT_TRUE(inc.set().Test(1)) << "delete after a duplicate insert left "
                                    "the base copy of the edge alive";
  EXPECT_EQ(inc.set_size(), 2u);
  // Re-inserting restores the edge: the eager rule evicts the larger id.
  ASSERT_OK(inc.InsertEdge(0, 1));
  EXPECT_FALSE(inc.set().Test(1));
  EXPECT_EQ(inc.set_size(), 1u);
  ASSERT_OK(inc.Repair());
  EXPECT_EQ(inc.set_size(), 1u);  // {0} is maximal again
}

TEST_F(IncrementalTest, RandomStormWithRedundantUpdatesKeepsInvariants) {
  // Like RandomUpdateStormKeepsInvariants, but the stream may re-insert
  // edges that already exist (in base or delta) and delete edges that do
  // not -- the redundant traffic the duplicate-accounting fix is about.
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Graph base = GenerateErdosRenyi(80, 200, seed + 40);
    std::string path = WriteGraphFile(&scratch_, base);
    BitVector initial = RandomMaximalSet(base, seed + 900);
    IncrementalMis inc;
    ASSERT_OK(inc.Initialize(path, initial));

    std::set<Edge> inserted, deleted;
    Random rng(seed * 17 + 3);
    for (int step = 0; step < 300; ++step) {
      VertexId u = static_cast<VertexId>(rng.Uniform(80));
      VertexId v = static_cast<VertexId>(rng.Uniform(80));
      if (u == v) continue;
      Edge e{std::min(u, v), std::max(u, v)};
      const bool in_base = base.HasEdge(u, v);
      // No `exists` gate: half the traffic is redundant on purpose.
      if (rng.OneIn(0.5)) {
        ASSERT_OK(inc.DeleteEdge(u, v));
        inserted.erase(e);
        if (in_base) deleted.insert(e);
      } else {
        ASSERT_OK(inc.InsertEdge(u, v));
        deleted.erase(e);
        if (!in_base) inserted.insert(e);
      }
      if (step % 60 == 59) ASSERT_OK(inc.Repair());
      Graph updated = ApplyDelta(base, inserted, deleted);
      VerifyResult vr = VerifyIndependentSet(updated, inc.set());
      ASSERT_TRUE(vr.independent)
          << "seed " << seed << " step " << step << " edge " << vr.witness_u
          << "-" << vr.witness_v;
    }
    ASSERT_OK(inc.Repair());
    Graph updated = ApplyDelta(base, inserted, deleted);
    VerifyResult vr = VerifyIndependentSet(updated, inc.set());
    EXPECT_TRUE(vr.independent) << "seed " << seed;
    EXPECT_TRUE(vr.maximal) << "seed " << seed << " vertex " << vr.witness_u;
  }
}

TEST_F(IncrementalTest, InvalidUpdatesRejected) {
  Graph g = GeneratePath(3);
  std::string path = WriteGraphFile(&scratch_, g);
  IncrementalMis inc;
  ASSERT_OK(inc.Initialize(path, BitVector(3)));
  EXPECT_TRUE(inc.InsertEdge(1, 1).IsInvalidArgument());
  EXPECT_TRUE(inc.InsertEdge(0, 9).IsInvalidArgument());
  EXPECT_TRUE(inc.DeleteEdge(2, 2).IsInvalidArgument());
}

TEST_F(IncrementalTest, RandomUpdateStormKeepsInvariants) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Graph base = GenerateErdosRenyi(120, 300, seed);
    std::string path = WriteGraphFile(&scratch_, base);
    BitVector initial = RandomMaximalSet(base, seed + 500);
    IncrementalMis inc;
    ASSERT_OK(inc.Initialize(path, initial));

    std::set<Edge> inserted, deleted;
    Random rng(seed * 31 + 7);
    for (int step = 0; step < 200; ++step) {
      VertexId u = static_cast<VertexId>(rng.Uniform(120));
      VertexId v = static_cast<VertexId>(rng.Uniform(120));
      if (u == v) continue;
      Edge e{std::min(u, v), std::max(u, v)};
      const bool in_base = base.HasEdge(u, v);
      const bool exists = (in_base && deleted.find(e) == deleted.end()) ||
                          inserted.find(e) != inserted.end();
      if (exists && rng.OneIn(0.5)) {
        ASSERT_OK(inc.DeleteEdge(u, v));
        if (inserted.erase(e) == 0) deleted.insert(e);
      } else if (!exists) {
        ASSERT_OK(inc.InsertEdge(u, v));
        if (deleted.erase(e) == 0) inserted.insert(e);
      }
      if (step % 50 == 49) {
        ASSERT_OK(inc.Repair());
      }
      // Independence must hold after EVERY update.
      Graph updated = ApplyDelta(base, inserted, deleted);
      VerifyResult vr = VerifyIndependentSet(updated, inc.set());
      ASSERT_TRUE(vr.independent)
          << "seed " << seed << " step " << step << " edge " << vr.witness_u
          << "-" << vr.witness_v;
    }
    ASSERT_OK(inc.Repair());
    Graph updated = ApplyDelta(base, inserted, deleted);
    VerifyResult vr = VerifyIndependentSet(updated, inc.set());
    EXPECT_TRUE(vr.independent) << "seed " << seed;
    EXPECT_TRUE(vr.maximal) << "seed " << seed << " vertex "
                            << vr.witness_u;
    EXPECT_EQ(inc.set().Count(), inc.set_size());
  }
}

TEST_F(IncrementalTest, StartsFromSolverResult) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(5000, 2.0), 3);
  std::string path = WriteGraphFile(&scratch_, g);
  MisEngine engine(MisEngineOptions{});
  ASSERT_OK(engine.Open(path));
  const SolveResult& solved = engine.open_result();
  IncrementalMis inc;
  ASSERT_OK(inc.Initialize(path, solved.set));
  EXPECT_EQ(inc.set_size(), solved.set_size);
  // A burst of random insertions then one repair.
  Random rng(11);
  for (int i = 0; i < 500; ++i) {
    VertexId u = static_cast<VertexId>(rng.Uniform(g.NumVertices()));
    VertexId v = static_cast<VertexId>(rng.Uniform(g.NumVertices()));
    if (u != v) ASSERT_OK(inc.InsertEdge(u, v));
  }
  ASSERT_OK(inc.Repair());
  // The maintained set stays close to the from-scratch quality (about
  // half of 500 random insertions land on two set members and evict one;
  // Repair recovers most of the loss).
  EXPECT_GT(inc.set_size(), solved.set_size * 90 / 100);
}

}  // namespace
}  // namespace semis
