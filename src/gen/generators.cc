#include "gen/generators.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "util/random.h"

namespace semis {

Graph GenerateErdosRenyi(VertexId n, uint64_t m, uint64_t seed) {
  Random rng(seed);
  uint64_t possible =
      n < 2 ? 0 : static_cast<uint64_t>(n) * (n - 1) / 2;
  if (m > possible) m = possible;
  std::set<Edge> chosen;
  while (chosen.size() < m) {
    VertexId u = static_cast<VertexId>(rng.Uniform(n));
    VertexId v = static_cast<VertexId>(rng.Uniform(n));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    chosen.insert({u, v});
  }
  return Graph::FromEdges(n, std::vector<Edge>(chosen.begin(), chosen.end()));
}

Graph GenerateGnp(VertexId n, double p, uint64_t seed) {
  Random rng(seed);
  std::vector<Edge> edges;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (rng.OneIn(p)) edges.emplace_back(u, v);
    }
  }
  return Graph::FromEdges(n, std::move(edges));
}

Graph GenerateStar(VertexId n) {
  std::vector<Edge> edges;
  for (VertexId v = 1; v < n; ++v) edges.emplace_back(0, v);
  return Graph::FromEdges(n, std::move(edges));
}

Graph GeneratePath(VertexId n) {
  std::vector<Edge> edges;
  for (VertexId v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  return Graph::FromEdges(n, std::move(edges));
}

Graph GenerateCycle(VertexId n) {
  std::vector<Edge> edges;
  for (VertexId v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  if (n >= 3) edges.emplace_back(n - 1, 0);
  return Graph::FromEdges(n, std::move(edges));
}

Graph GenerateComplete(VertexId n) {
  std::vector<Edge> edges;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) edges.emplace_back(u, v);
  }
  return Graph::FromEdges(n, std::move(edges));
}

Graph GenerateCompleteBipartite(VertexId a, VertexId b) {
  std::vector<Edge> edges;
  for (VertexId u = 0; u < a; ++u) {
    for (VertexId v = 0; v < b; ++v) edges.emplace_back(u, a + v);
  }
  return Graph::FromEdges(a + b, std::move(edges));
}

Graph GenerateTriangles(VertexId k) {
  std::vector<Edge> edges;
  for (VertexId i = 0; i < k; ++i) {
    VertexId base = 3 * i;
    edges.emplace_back(base, base + 1);
    edges.emplace_back(base, base + 2);
    edges.emplace_back(base + 1, base + 2);
  }
  return Graph::FromEdges(3 * k, std::move(edges));
}

Graph GenerateCascadeSwap(VertexId k) {
  std::vector<Edge> edges;
  for (VertexId i = 0; i < k; ++i) {
    VertexId a = 3 * i, b = 3 * i + 1, c = 3 * i + 2;
    edges.emplace_back(a, b);
    edges.emplace_back(a, c);
    if (i + 1 < k) edges.emplace_back(b, 3 * (i + 1));  // b_i - a_{i+1}
  }
  return Graph::FromEdges(3 * k, std::move(edges));
}

Graph GenerateCaterpillar(VertexId spine, VertexId legs) {
  std::vector<Edge> edges;
  VertexId next = spine;
  for (VertexId s = 0; s < spine; ++s) {
    if (s + 1 < spine) edges.emplace_back(s, s + 1);
    for (VertexId l = 0; l < legs; ++l) edges.emplace_back(s, next++);
  }
  return Graph::FromEdges(spine * (legs + 1), std::move(edges));
}

Graph GenerateMapLabels(VertexId pois, double width, double height,
                        uint64_t seed) {
  struct Rect {
    double x0, y0, x1, y1;
    bool Overlaps(const Rect& o) const {
      return x0 < o.x1 && o.x0 < x1 && y0 < o.y1 && o.y0 < y1;
    }
  };
  Random rng(seed);
  std::vector<Rect> labels;
  labels.reserve(static_cast<size_t>(pois) * 4);
  for (VertexId p = 0; p < pois; ++p) {
    const double x = rng.NextDouble();
    const double y = rng.NextDouble();
    labels.push_back({x, y, x + width, y + height});            // NE
    labels.push_back({x - width, y, x, y + height});            // NW
    labels.push_back({x, y - height, x + width, y});            // SE
    labels.push_back({x - width, y - height, x, y});            // SW
  }
  std::vector<Edge> edges;
  for (VertexId p = 0; p < pois; ++p) {
    for (VertexId a = 0; a < 4; ++a) {
      for (VertexId b = a + 1; b < 4; ++b) {
        edges.emplace_back(4 * p + a, 4 * p + b);
      }
    }
  }
  // Overlap tests only between labels that share a cell of a uniform
  // grid; a pair sharing several cells repeats, and FromEdges drops the
  // repeats.
  constexpr int kGrid = 64;
  const auto cell_of = [](double v) {
    const int c = static_cast<int>(v * kGrid);
    return c < 0 ? 0 : (c >= kGrid ? kGrid - 1 : c);
  };
  std::vector<std::vector<VertexId>> cells(kGrid * kGrid);
  for (VertexId i = 0; i < labels.size(); ++i) {
    const Rect& r = labels[i];
    for (int cx = cell_of(r.x0); cx <= cell_of(r.x1); ++cx) {
      for (int cy = cell_of(r.y0); cy <= cell_of(r.y1); ++cy) {
        cells[cx * kGrid + cy].push_back(i);
      }
    }
  }
  for (const std::vector<VertexId>& cell : cells) {
    for (size_t a = 0; a < cell.size(); ++a) {
      for (size_t b = a + 1; b < cell.size(); ++b) {
        if (labels[cell[a]].Overlaps(labels[cell[b]])) {
          edges.emplace_back(cell[a], cell[b]);
        }
      }
    }
  }
  return Graph::FromEdges(static_cast<VertexId>(labels.size()),
                          std::move(edges));
}

Graph GenerateUnitDisk(VertexId n, double avg_degree, uint64_t seed) {
  Random rng(seed);
  std::vector<double> x(n), y(n);
  for (VertexId v = 0; v < n; ++v) {
    x[v] = rng.NextDouble();
    y[v] = rng.NextDouble();
  }
  std::vector<Edge> edges;
  if (n < 2 || !(avg_degree > 0.0)) {
    return Graph::FromEdges(n, std::move(edges));
  }
  const double pi = std::acos(-1.0);
  const double radius = std::sqrt(avg_degree / (pi * (n - 1)));
  // Cells of side at least the radius, so a point's neighbors lie in its
  // own cell and the eight around it; at most about n cells.
  const double cells_per_side = std::min(
      std::floor(1.0 / radius), std::ceil(std::sqrt(static_cast<double>(n))));
  const int grid = std::max(1, static_cast<int>(cells_per_side));
  const auto cell_of = [grid](double v) {
    return std::min(grid - 1, static_cast<int>(v * grid));
  };
  std::vector<std::vector<VertexId>> cells(size_t{1} * grid * grid);
  for (VertexId v = 0; v < n; ++v) {
    cells[size_t{1} * cell_of(x[v]) * grid + cell_of(y[v])].push_back(v);
  }
  const double r2 = radius * radius;
  for (VertexId u = 0; u < n; ++u) {
    const int cx = cell_of(x[u]);
    const int cy = cell_of(y[u]);
    for (int nx = std::max(0, cx - 1); nx <= std::min(grid - 1, cx + 1); ++nx) {
      for (int ny = std::max(0, cy - 1); ny <= std::min(grid - 1, cy + 1);
           ++ny) {
        for (VertexId v : cells[size_t{1} * nx * grid + ny]) {
          const double dx = x[u] - x[v];
          const double dy = y[u] - y[v];
          if (u < v && dx * dx + dy * dy <= r2) edges.emplace_back(u, v);
        }
      }
    }
  }
  return Graph::FromEdges(n, std::move(edges));
}

}  // namespace semis
