// Map labeling (paper Section 1): place as many non-overlapping labels as
// possible on a map. Each candidate label is a rectangle; two candidates
// conflict when their rectangles intersect. The conflict (intersection)
// graph's maximum independent set is the largest consistent labeling --
// exactly the application the paper cites [22].
//
// This example synthesizes candidate labels around random points of
// interest (4 anchor positions per POI, the classical 4-position model),
// builds the intersection graph, writes it to an adjacency file in a
// scratch directory, and labels the map with a MisEngine opened on it.
#include <cstdio>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/verify.h"
#include "graph/graph_io.h"
#include "io/scratch.h"
#include "util/random.h"

namespace {

struct Rect {
  double x0, y0, x1, y1;
  bool Intersects(const Rect& o) const {
    return x0 < o.x1 && o.x0 < x1 && y0 < o.y1 && o.y0 < y1;
  }
};

}  // namespace

int main() {
  using namespace semis;
  const int kPois = 4000;          // points of interest on the map
  const double kWidth = 0.022;     // label width  (map units)
  const double kHeight = 0.008;    // label height

  // 4 candidate positions per POI: label anchored at each corner.
  Random rng(7);
  std::vector<Rect> candidates;
  candidates.reserve(kPois * 4);
  for (int p = 0; p < kPois; ++p) {
    double x = rng.NextDouble();
    double y = rng.NextDouble();
    candidates.push_back({x, y, x + kWidth, y + kHeight});           // NE
    candidates.push_back({x - kWidth, y, x, y + kHeight});           // NW
    candidates.push_back({x, y - kHeight, x + kWidth, y});           // SE
    candidates.push_back({x - kWidth, y - kHeight, x, y});           // SW
  }

  // Intersection graph via a uniform grid (avoid O(n^2) pair tests).
  const int kGrid = 64;
  std::vector<std::vector<VertexId>> cells(kGrid * kGrid);
  auto cell_of = [&](double v) {
    int c = static_cast<int>(v * kGrid);
    if (c < 0) c = 0;
    if (c >= kGrid) c = kGrid - 1;
    return c;
  };
  for (VertexId i = 0; i < candidates.size(); ++i) {
    const Rect& r = candidates[i];
    for (int cx = cell_of(r.x0); cx <= cell_of(r.x1); ++cx) {
      for (int cy = cell_of(r.y0); cy <= cell_of(r.y1); ++cy) {
        cells[cx * kGrid + cy].push_back(i);
      }
    }
  }
  std::vector<Edge> conflicts;
  // A POI gets at most one label: its four candidates are mutually
  // exclusive (they only touch at the anchor, so geometry alone would
  // allow several).
  for (VertexId p = 0; p < static_cast<VertexId>(kPois); ++p) {
    for (VertexId a = 0; a < 4; ++a) {
      for (VertexId b = a + 1; b < 4; ++b) {
        conflicts.emplace_back(4 * p + a, 4 * p + b);
      }
    }
  }
  for (const auto& cell : cells) {
    for (size_t a = 0; a < cell.size(); ++a) {
      for (size_t b = a + 1; b < cell.size(); ++b) {
        if (candidates[cell[a]].Intersects(candidates[cell[b]])) {
          conflicts.emplace_back(cell[a], cell[b]);
        }
      }
    }
  }
  Graph conflict_graph = Graph::FromEdges(
      static_cast<VertexId>(candidates.size()), std::move(conflicts));
  std::printf("map: %d POIs, %zu candidate labels, %llu conflicts\n", kPois,
              candidates.size(),
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
  for (VertexId i = 0; i < candidates.size(); ++i) {
    if (result.set.Test(i)) labeled[i / 4] = 1;
  }
  int covered = 0;
  for (uint8_t l : labeled) covered += l;
  std::printf("%d/%d POIs carry a label\n", covered, kPois);
  return vr.independent ? 0 : 1;
}
