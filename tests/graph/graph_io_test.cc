#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "gen/plrg.h"
#include "test_util.h"

namespace semis {
namespace {

using testing_util::ScratchTest;

class GraphIoTest : public ScratchTest {};

bool GraphsEqual(const Graph& a, const Graph& b) {
  if (a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges()) {
    return false;
  }
  for (VertexId v = 0; v < a.NumVertices(); ++v) {
    auto na = a.Neighbors(v);
    auto nb = b.Neighbors(v);
    if (!std::equal(na.begin(), na.end(), nb.begin(), nb.end())) return false;
  }
  return true;
}

TEST_F(GraphIoTest, GraphFileRoundtrip) {
  Graph g = GenerateErdosRenyi(200, 600, 42);
  std::string path = NewPath("g");
  ASSERT_OK(WriteGraphToAdjacencyFile(g, path));
  Graph back;
  ASSERT_OK(ReadGraphFromAdjacencyFile(path, &back));
  EXPECT_TRUE(GraphsEqual(g, back));
}

TEST_F(GraphIoTest, ExplicitOrderPreservesContent) {
  Graph g = GenerateCycle(10);
  std::vector<VertexId> order = {9, 0, 8, 1, 7, 2, 6, 3, 5, 4};
  std::string path = NewPath("g");
  ASSERT_OK(WriteGraphToAdjacencyFileInOrder(g, order, 0, path));
  Graph back;
  ASSERT_OK(ReadGraphFromAdjacencyFile(path, &back));
  EXPECT_TRUE(GraphsEqual(g, back));
}

TEST_F(GraphIoTest, BadOrderRejected) {
  Graph g = GenerateCycle(4);
  std::string path = NewPath("g");
  EXPECT_TRUE(WriteGraphToAdjacencyFileInOrder(g, {0, 1, 2}, 0, path)
                  .IsInvalidArgument());
  EXPECT_TRUE(WriteGraphToAdjacencyFileInOrder(g, {0, 1, 2, 9}, 0, path)
                  .IsInvalidArgument());
}

TEST_F(GraphIoTest, EdgeListTextRoundtrip) {
  Graph g = GenerateErdosRenyi(50, 120, 7);
  std::string path = NewPath("edges.txt");
  ASSERT_OK(WriteEdgeListText(g, path));
  Graph back;
  ASSERT_OK(ReadEdgeListText(path, &back));
  // Vertex count may shrink if the top ids are isolated; this generator
  // keeps them only if they have edges, so compare edges per vertex.
  ASSERT_GE(g.NumVertices(), back.NumVertices());
  EXPECT_EQ(g.NumEdges(), back.NumEdges());
  for (VertexId v = 0; v < back.NumVertices(); ++v) {
    auto na = g.Neighbors(v);
    auto nb = back.Neighbors(v);
    EXPECT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()));
  }
}

TEST_F(GraphIoTest, EdgeListParserSkipsCommentsAndBlanks) {
  std::string path = NewPath("snap.txt");
  {
    SequentialFileWriter w;
    ASSERT_OK(w.Open(path));
    const char* text =
        "# Comment line\n"
        "\n"
        "0 1\n"
        "  2\t3 \n"
        "# trailing comment\n"
        "1 2\n";
    ASSERT_OK(w.Append(text, strlen(text)));
    ASSERT_OK(w.Close());
  }
  Graph g;
  ASSERT_OK(ReadEdgeListText(path, &g));
  EXPECT_EQ(g.NumVertices(), 4u);
  EXPECT_EQ(g.NumEdges(), 3u);
  EXPECT_TRUE(g.HasEdge(2, 3));
}

TEST_F(GraphIoTest, MalformedEdgeListRejected) {
  std::string path = NewPath("bad.txt");
  {
    SequentialFileWriter w;
    ASSERT_OK(w.Open(path));
    const char* text = "0 1\nnot numbers\n";
    ASSERT_OK(w.Append(text, strlen(text)));
    ASSERT_OK(w.Close());
  }
  Graph g;
  EXPECT_TRUE(ReadEdgeListText(path, &g).IsCorruption());
}

TEST_F(GraphIoTest, ConvertEdgeListMatchesInMemoryBuild) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(3000, 2.0), 99);
  std::string edges = NewPath("edges.txt");
  ASSERT_OK(WriteEdgeListText(g, edges));

  std::string adj = NewPath("conv.adj");
  EdgeListConvertOptions opts;
  opts.memory_budget_bytes = 4096;  // force external sorting
  ASSERT_OK(ConvertEdgeListToAdjacencyFile(edges, adj, opts));
  Graph back;
  ASSERT_OK(ReadGraphFromAdjacencyFile(adj, &back));
  // The conversion may materialize fewer trailing vertices (isolated ones
  // past the max edge id); PLRG assigns edges to all ids in practice.
  EXPECT_TRUE(GraphsEqual(g, back));
}

TEST_F(GraphIoTest, ConvertDeduplicatesAndDropsSelfLoops) {
  std::string edges = NewPath("dups.txt");
  {
    SequentialFileWriter w;
    ASSERT_OK(w.Open(edges));
    const char* text = "0 1\n1 0\n0 1\n2 2\n1 2\n";
    ASSERT_OK(w.Append(text, strlen(text)));
    ASSERT_OK(w.Close());
  }
  std::string adj = NewPath("dedup.adj");
  ASSERT_OK(ConvertEdgeListToAdjacencyFile(edges, adj, {}));
  Graph g;
  ASSERT_OK(ReadGraphFromAdjacencyFile(adj, &g));
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumEdges(), 2u);  // {0,1} and {1,2}
  EXPECT_FALSE(g.HasEdge(2, 2));
}

TEST_F(GraphIoTest, ConvertKeepsIsolatedVertexRecords) {
  // Vertex 1 never appears in an edge; id space is 0..3.
  std::string edges = NewPath("iso.txt");
  {
    SequentialFileWriter w;
    ASSERT_OK(w.Open(edges));
    const char* text = "0 2\n2 3\n";
    ASSERT_OK(w.Append(text, strlen(text)));
    ASSERT_OK(w.Close());
  }
  std::string adj = NewPath("iso.adj");
  ASSERT_OK(ConvertEdgeListToAdjacencyFile(edges, adj, {}));
  AdjacencyFileScanner scanner;
  ASSERT_OK(scanner.Open(adj));
  EXPECT_EQ(scanner.header().num_vertices, 4u);
  int records = 0;
  VertexRecordView rec;
  bool has_next = false;
  while (true) {
    ASSERT_OK(scanner.Next(&rec, &has_next));
    if (!has_next) break;
    records++;
    if (rec.id == 1) {
      EXPECT_EQ(rec.degree, 0u);
    }
  }
  EXPECT_EQ(records, 4);
}

}  // namespace
}  // namespace semis
