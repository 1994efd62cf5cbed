#include "core/upper_bound.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "graph/adjacency_file.h"
#include "util/bit_vector.h"

namespace semis {

Status ComputeIndependenceUpperBoundFile(const std::string& adjacency_path,
                                         uint64_t* bound, IoStats* stats) {
  AdjacencyFileScanner scanner(stats);
  SEMIS_RETURN_IF_ERROR(scanner.Open(adjacency_path));
  BitVector visited(scanner.header().num_vertices);
  uint64_t b = 0;
  VertexRecordView rec;
  bool has_next = false;
  while (true) {
    SEMIS_RETURN_IF_ERROR(scanner.Next(&rec, &has_next));
    if (!has_next) break;
    if (visited.Test(rec.id)) continue;
    visited.Set(rec.id);
    uint64_t leaves = 0;
    for (uint32_t i = 0; i < rec.degree; ++i) {
      VertexId u = rec.neighbors[i];
      if (!visited.Test(u)) {
        visited.Set(u);
        leaves++;
      }
    }
    b += std::max<uint64_t>(leaves, 1);
  }
  *bound = b;
  return Status::OK();
}

uint64_t ComputeIndependenceUpperBound(const Graph& graph) {
  const VertexId n = graph.NumVertices();
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return graph.Degree(a) < graph.Degree(b);
  });
  BitVector visited(n);
  uint64_t bound = 0;
  for (VertexId v : order) {
    if (visited.Test(v)) continue;
    visited.Set(v);
    uint64_t leaves = 0;
    for (VertexId u : graph.Neighbors(v)) {
      if (!visited.Test(u)) {
        visited.Set(u);
        leaves++;
      }
    }
    bound += std::max<uint64_t>(leaves, 1);
  }
  return bound;
}

}  // namespace semis
