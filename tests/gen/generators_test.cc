#include "gen/generators.h"

#include <gtest/gtest.h>

#include "gen/paper_figures.h"

namespace semis {
namespace {

TEST(GeneratorsTest, ErdosRenyiEdgeCount) {
  Graph g = GenerateErdosRenyi(100, 300, 1);
  EXPECT_EQ(g.NumVertices(), 100u);
  EXPECT_EQ(g.NumEdges(), 300u);
}

TEST(GeneratorsTest, ErdosRenyiClampsToCompleteGraph) {
  Graph g = GenerateErdosRenyi(5, 1000, 1);
  EXPECT_EQ(g.NumEdges(), 10u);
}

TEST(GeneratorsTest, GnpExtremes) {
  EXPECT_EQ(GenerateGnp(20, 0.0, 1).NumEdges(), 0u);
  EXPECT_EQ(GenerateGnp(20, 1.0, 1).NumEdges(), 190u);
}

TEST(GeneratorsTest, StarShape) {
  Graph g = GenerateStar(10);
  EXPECT_EQ(g.Degree(0), 9u);
  for (VertexId v = 1; v < 10; ++v) EXPECT_EQ(g.Degree(v), 1u);
}

TEST(GeneratorsTest, PathAndCycle) {
  Graph p = GeneratePath(5);
  EXPECT_EQ(p.NumEdges(), 4u);
  EXPECT_EQ(p.Degree(0), 1u);
  EXPECT_EQ(p.Degree(2), 2u);
  Graph c = GenerateCycle(5);
  EXPECT_EQ(c.NumEdges(), 5u);
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(c.Degree(v), 2u);
}

TEST(GeneratorsTest, CompleteAndBipartite) {
  Graph k = GenerateComplete(6);
  EXPECT_EQ(k.NumEdges(), 15u);
  Graph b = GenerateCompleteBipartite(3, 4);
  EXPECT_EQ(b.NumVertices(), 7u);
  EXPECT_EQ(b.NumEdges(), 12u);
  EXPECT_FALSE(b.HasEdge(0, 1));      // within left side
  EXPECT_FALSE(b.HasEdge(3, 4));      // within right side
  EXPECT_TRUE(b.HasEdge(0, 3));
}

TEST(GeneratorsTest, TrianglesStructure) {
  Graph g = GenerateTriangles(4);
  EXPECT_EQ(g.NumVertices(), 12u);
  EXPECT_EQ(g.NumEdges(), 12u);
  for (VertexId v = 0; v < 12; ++v) EXPECT_EQ(g.Degree(v), 2u);
}

TEST(GeneratorsTest, CascadeSwapStructure) {
  Graph g = GenerateCascadeSwap(3);
  ASSERT_EQ(g.NumVertices(), 9u);
  EXPECT_EQ(g.NumEdges(), 8u);  // 3*2 within triples + 2 bridges
  // a_i adjacent to b_i and c_i.
  for (VertexId i = 0; i < 3; ++i) {
    EXPECT_TRUE(g.HasEdge(3 * i, 3 * i + 1));
    EXPECT_TRUE(g.HasEdge(3 * i, 3 * i + 2));
  }
  // Bridges b_i - a_{i+1}.
  EXPECT_TRUE(g.HasEdge(1, 3));
  EXPECT_TRUE(g.HasEdge(4, 6));
  EXPECT_FALSE(g.HasEdge(7, 9 % 9));  // no wrap-around
}

TEST(GeneratorsTest, CaterpillarShape) {
  Graph g = GenerateCaterpillar(4, 3);
  EXPECT_EQ(g.NumVertices(), 16u);
  EXPECT_EQ(g.NumEdges(), 3u + 12u);
  EXPECT_EQ(g.Degree(0), 4u);  // spine end: 1 spine edge + 3 legs
  EXPECT_EQ(g.Degree(1), 5u);  // middle spine: 2 + 3
}

TEST(GeneratorsTest, UnitDiskIsSeededAndNearItsDegree) {
  Graph g = GenerateUnitDisk(6000, 6.0, 3);
  EXPECT_EQ(g.NumVertices(), 6000u);
  const double avg = 2.0 * static_cast<double>(g.NumEdges()) / 6000.0;
  // Points near the sides reach less area: a little short of 6.
  EXPECT_GT(avg, 5.5);
  EXPECT_LE(avg, 6.0);
  EXPECT_EQ(GenerateUnitDisk(6000, 6.0, 3).NumEdges(), g.NumEdges());
  EXPECT_NE(GenerateUnitDisk(6000, 6.0, 4).NumEdges(), g.NumEdges());
  EXPECT_EQ(GenerateUnitDisk(1, 6.0, 3).NumEdges(), 0u);
}

TEST(PaperFiguresTest, Figure1Shape) {
  PaperExample ex = Figure1Example();
  EXPECT_EQ(ex.graph.NumVertices(), 5u);
  EXPECT_EQ(ex.graph.NumEdges(), 3u);
  EXPECT_EQ(ex.graph.Degree(0), 3u);  // v1 is the star center
  EXPECT_EQ(ex.graph.Degree(1), 0u);  // v2 isolated
  EXPECT_EQ(ex.initial_set.size(), 2u);
}

TEST(PaperFiguresTest, Figure2Shape) {
  PaperExample ex = Figure2Example();
  EXPECT_EQ(ex.graph.NumVertices(), 6u);
  EXPECT_EQ(ex.graph.NumEdges(), 5u);
  EXPECT_TRUE(ex.graph.HasEdge(2, 5));  // the conflict edge v3 - v6
  EXPECT_EQ(ex.scan_order.size(), 6u);
}

TEST(PaperFiguresTest, Figure7Shape) {
  PaperExample ex = Figure7Example();
  EXPECT_EQ(ex.graph.NumVertices(), 8u);
  // v4 and v8 are anchors: adjacent to both v2 and v3.
  EXPECT_TRUE(ex.graph.HasEdge(3, 1));
  EXPECT_TRUE(ex.graph.HasEdge(3, 2));
  EXPECT_TRUE(ex.graph.HasEdge(7, 1));
  EXPECT_TRUE(ex.graph.HasEdge(7, 2));
  // v7 conflicts with v5 and v6.
  EXPECT_TRUE(ex.graph.HasEdge(6, 4));
  EXPECT_TRUE(ex.graph.HasEdge(6, 5));
}

}  // namespace
}  // namespace semis
