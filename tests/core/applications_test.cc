// Tests for the future-work extensions the paper's conclusion names:
// minimum vertex cover and graph coloring on top of the semi-external
// MIS machinery.
#include <gtest/gtest.h>

#include "baselines/exact.h"
#include "core/coloring.h"
#include "core/vertex_cover.h"
#include "gen/generators.h"
#include "gen/plrg.h"
#include "graph/degree_sort.h"
#include "test_util.h"

namespace semis {
namespace {

using testing_util::ScratchTest;
using testing_util::WriteGraphFile;

class VertexCoverTest : public ScratchTest {};

TEST_F(VertexCoverTest, CoverIsComplementOfSet) {
  Graph g = GenerateErdosRenyi(300, 900, 3);
  std::string path = WriteGraphFile(&scratch_, g);
  VertexCoverResult res;
  ASSERT_OK(ComputeVertexCoverFile(path, MisEngineOptions{}, &res));
  EXPECT_EQ(res.cover_size + res.mis.set_size, g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_NE(res.cover.Test(v), res.mis.set.Test(v));
  }
}

TEST_F(VertexCoverTest, CoverCoversEveryEdge) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(3000, 2.0), seed);
    std::string path = WriteGraphFile(&scratch_, g);
    VertexCoverResult res;
    ASSERT_OK(ComputeVertexCoverFile(path, MisEngineOptions{}, &res));
    uint64_t uncovered = 0;
    ASSERT_OK(VerifyVertexCoverFile(path, res.cover, &uncovered));
    EXPECT_EQ(uncovered, 0u) << "seed " << seed;
  }
}

TEST_F(VertexCoverTest, NearOptimalOnTinyGraphs) {
  // Optimal VC = |V| - alpha(G).
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Graph g = GenerateErdosRenyi(20, 50, seed);
    std::string path = WriteGraphFile(&scratch_, g);
    VertexCoverResult res;
    ASSERT_OK(ComputeVertexCoverFile(path, MisEngineOptions{}, &res));
    ExactResult exact;
    ASSERT_OK(ExactMaxIndependentSet(g, &exact));
    const uint64_t optimal = g.NumVertices() - exact.alpha;
    EXPECT_GE(res.cover_size, optimal);
    EXPECT_LE(res.cover_size, optimal + 2) << "seed " << seed;
  }
}

TEST_F(VertexCoverTest, VerifierDetectsUncoveredEdge) {
  Graph g = GeneratePath(4);  // edges 0-1, 1-2, 2-3
  std::string path = WriteGraphFile(&scratch_, g);
  BitVector bogus(4);
  bogus.Set(0);  // edge 1-2 and 2-3 uncovered
  uint64_t uncovered = 0;
  ASSERT_OK(VerifyVertexCoverFile(path, bogus, &uncovered));
  EXPECT_EQ(uncovered, 2u);
}

class ColoringTest : public ScratchTest {};

ColoringResult ColorGraph(ScratchDir* scratch, const Graph& g,
                          uint32_t mis_rounds = 8) {
  std::string unsorted = testing_util::WriteGraphFile(scratch, g);
  std::string sorted = scratch->NewFilePath("sorted");
  EXPECT_TRUE(BuildDegreeSortedAdjacencyFile(unsorted, sorted, {}).ok());
  ColoringOptions opts;
  opts.max_mis_rounds = mis_rounds;
  ColoringResult res;
  Status s = ComputeGreedyColoringFile(sorted, opts, &res);
  EXPECT_TRUE(s.ok()) << s.ToString();
  uint64_t conflicts = 1;
  EXPECT_TRUE(VerifyColoringFile(sorted, res.color, &conflicts).ok());
  EXPECT_EQ(conflicts, 0u);
  return res;
}

TEST_F(ColoringTest, BipartiteUsesTwoColors) {
  ColoringResult res = ColorGraph(&scratch_, GenerateCompleteBipartite(5, 9));
  EXPECT_EQ(res.num_colors, 2u);
}

TEST_F(ColoringTest, EvenCycleTwoOddCycleThree) {
  EXPECT_EQ(ColorGraph(&scratch_, GenerateCycle(10)).num_colors, 2u);
  EXPECT_EQ(ColorGraph(&scratch_, GenerateCycle(11)).num_colors, 3u);
}

TEST_F(ColoringTest, CompleteGraphNeedsNColors) {
  EXPECT_EQ(ColorGraph(&scratch_, GenerateComplete(7)).num_colors, 7u);
}

TEST_F(ColoringTest, EdgelessGraphOneColor) {
  ColoringResult res = ColorGraph(&scratch_, Graph::FromEdges(5, {}));
  EXPECT_EQ(res.num_colors, 1u);
}

TEST_F(ColoringTest, ColorsBoundedByMaxDegreePlusOne) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Graph g = GenerateErdosRenyi(200, 800, seed);
    ColoringResult res = ColorGraph(&scratch_, g);
    EXPECT_LE(res.num_colors, g.MaxDegree() + 1) << "seed " << seed;
  }
}

TEST_F(ColoringTest, PowerLawGraphsColorCheaply) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(20000, 2.0), 7);
  ColoringResult res = ColorGraph(&scratch_, g);
  // Power-law graphs have tiny chromatic number relative to max degree.
  EXPECT_LT(res.num_colors, g.MaxDegree() / 2);
  EXPECT_GT(res.colored_by_mis, g.NumVertices() / 2);
}

TEST_F(ColoringTest, ZeroMisRoundsIsPureFirstFit) {
  Graph g = GenerateErdosRenyi(100, 400, 1);
  ColoringResult res = ColorGraph(&scratch_, g, /*mis_rounds=*/0);
  EXPECT_EQ(res.colored_by_mis, 0u);
  EXPECT_GE(res.num_colors, 2u);
}

TEST_F(ColoringTest, VerifierCountsConflicts) {
  Graph g = GeneratePath(3);
  std::string path = WriteGraphFile(&scratch_, g);
  std::vector<uint32_t> bad = {0, 0, 0};  // both edges monochromatic
  uint64_t conflicts = 0;
  ASSERT_OK(VerifyColoringFile(path, bad, &conflicts));
  EXPECT_EQ(conflicts, 2u);
  std::vector<uint32_t> partial = {0, kUncolored, 0};
  ASSERT_OK(VerifyColoringFile(path, partial, &conflicts));
  EXPECT_EQ(conflicts, 1u);  // the uncolored vertex
}

}  // namespace
}  // namespace semis
