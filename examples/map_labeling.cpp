// Map labeling (paper Section 1): place as many non-overlapping labels as
// possible on a map. Each candidate label is a rectangle; two candidates
// conflict when their rectangles intersect. The conflict (intersection)
// graph's maximum independent set is the largest consistent labeling --
// exactly the application the paper cites [22].
//
// This example synthesizes candidate labels around random points of
// interest (4 anchor positions per POI, the classical 4-position model;
// GenerateMapLabels in gen/generators.h), writes the conflict graph to an
// adjacency file in a scratch directory, and labels the map with a
// MisEngine opened on it.
#include <cstdio>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/verify.h"
#include "gen/generators.h"
#include "graph/graph_io.h"
#include "io/scratch.h"

int main() {
  using namespace semis;
  const int kPois = 4000;          // points of interest on the map
  const double kWidth = 0.022;     // label width  (map units)
  const double kHeight = 0.008;    // label height

  // Candidate 4p + k is POI p's label anchored at its k-th corner; two
  // candidates conflict when they overlap or share their POI.
  Graph conflict_graph = GenerateMapLabels(kPois, kWidth, kHeight, 7);
  std::printf("map: %d POIs, %llu candidate labels, %llu conflicts\n", kPois,
              static_cast<unsigned long long>(conflict_graph.NumVertices()),
              static_cast<unsigned long long>(conflict_graph.NumEdges()));

  // Largest consistent labeling = maximum independent set.
  ScratchDir scratch;
  Status status = ScratchDir::Create("semis-map-labeling", &scratch);
  const std::string path = scratch.NewFilePath("conflicts.adj");
  if (status.ok()) status = WriteGraphToAdjacencyFile(conflict_graph, path);
  MisEngine engine(MisEngineOptions{});
  if (status.ok()) status = engine.Open(path);
  if (!status.ok()) {
    std::fprintf(stderr, "solve failed: %s\n", status.ToString().c_str());
    return 1;
  }
  const SolveResult& result = engine.open_result();
  VerifyResult vr = VerifyIndependentSet(conflict_graph, result.set);
  std::printf("placed %llu labels (%.1f%% of POIs), overlap-free: %s\n",
              static_cast<unsigned long long>(result.set_size),
              100.0 * static_cast<double>(result.set_size) / kPois,
              vr.independent ? "yes" : "NO (bug!)");
  std::printf("greedy alone placed %llu; swaps recovered %llu more\n",
              static_cast<unsigned long long>(result.greedy.set_size),
              static_cast<unsigned long long>(result.set_size -
                                              result.greedy.set_size));

  // How many POIs got at least one of their four candidates?
  std::vector<uint8_t> labeled(kPois, 0);
  for (VertexId i = 0; i < conflict_graph.NumVertices(); ++i) {
    if (result.set.Test(i)) labeled[i / 4] = 1;
  }
  int covered = 0;
  for (uint8_t l : labeled) covered += l;
  std::printf("%d/%d POIs carry a label\n", covered, kPois);
  return vr.independent ? 0 : 1;
}
