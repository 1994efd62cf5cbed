#include "core/coloring.h"

#include <algorithm>

#include "graph/adjacency_file.h"
#include "util/bit_vector.h"

namespace semis {

Status ComputeGreedyColoringFile(const std::string& adjacency_path,
                                 const ColoringOptions& options,
                                 ColoringResult* result) {
  ColoringResult res;
  AdjacencyFileScanner scanner(&res.io);
  SEMIS_RETURN_IF_ERROR(scanner.Open(adjacency_path));
  const uint64_t n = scanner.header().num_vertices;
  res.color.assign(n, kUncolored);

  uint64_t uncolored = n;
  uint32_t next_color = 0;

  // Phase 1: one maximal independent set of the uncolored subgraph per
  // scan; its members all receive the same fresh color.
  for (uint32_t round = 0;
       round < options.max_mis_rounds && uncolored > 0; ++round) {
    if (round > 0) SEMIS_RETURN_IF_ERROR(scanner.Rewind());
    // blocked[v]: v is adjacent to a vertex selected in THIS round.
    BitVector blocked(n);
    VertexRecordView rec;
    bool has_next = false;
    uint64_t selected = 0;
    while (true) {
      SEMIS_RETURN_IF_ERROR(scanner.Next(&rec, &has_next));
      if (!has_next) break;
      if (res.color[rec.id] != kUncolored || blocked.Test(rec.id)) continue;
      res.color[rec.id] = next_color;
      selected++;
      for (uint32_t i = 0; i < rec.degree; ++i) {
        blocked.Set(rec.neighbors[i]);
      }
    }
    if (selected == 0) break;  // uncolored subgraph is empty
    uncolored -= selected;
    res.colored_by_mis += selected;
    next_color++;
  }

  // Phase 2: first-fit completion. Assignments earlier in the scan are
  // visible to later vertices, so the result is proper.
  if (uncolored > 0) {
    SEMIS_RETURN_IF_ERROR(scanner.Rewind());
    std::vector<uint32_t> neighbor_colors;
    VertexRecordView rec;
    bool has_next = false;
    while (true) {
      SEMIS_RETURN_IF_ERROR(scanner.Next(&rec, &has_next));
      if (!has_next) break;
      if (res.color[rec.id] != kUncolored) continue;
      neighbor_colors.clear();
      for (uint32_t i = 0; i < rec.degree; ++i) {
        uint32_t c = res.color[rec.neighbors[i]];
        if (c != kUncolored) neighbor_colors.push_back(c);
      }
      std::sort(neighbor_colors.begin(), neighbor_colors.end());
      uint32_t chosen = 0;
      for (uint32_t c : neighbor_colors) {
        if (c == chosen) {
          chosen++;
        } else if (c > chosen) {
          break;
        }
      }
      res.color[rec.id] = chosen;
      next_color = std::max(next_color, chosen + 1);
    }
  }

  res.num_colors = next_color;
  *result = std::move(res);
  return Status::OK();
}

Status VerifyColoringFile(const std::string& adjacency_path,
                          const std::vector<uint32_t>& color,
                          uint64_t* conflicts, IoStats* stats) {
  AdjacencyFileScanner scanner(stats);
  SEMIS_RETURN_IF_ERROR(scanner.Open(adjacency_path));
  if (scanner.header().num_vertices != color.size()) {
    return Status::InvalidArgument("color array size != vertex count");
  }
  uint64_t bad = 0;
  VertexRecordView rec;
  bool has_next = false;
  while (true) {
    SEMIS_RETURN_IF_ERROR(scanner.Next(&rec, &has_next));
    if (!has_next) break;
    if (color[rec.id] == kUncolored) {
      bad++;
      continue;
    }
    for (uint32_t i = 0; i < rec.degree; ++i) {
      if (rec.id < rec.neighbors[i] &&
          color[rec.id] == color[rec.neighbors[i]]) {
        bad++;
      }
    }
  }
  *conflicts = bad;
  return Status::OK();
}

}  // namespace semis
