// Copyright (c) the semis authors.
// Deterministic graph generators: classic families for tests and property
// sweeps, plus the adversarial cascade-swap family from Figure 5 of the
// paper (worst case for the number of one-k-swap rounds).
#ifndef SEMIS_GEN_GENERATORS_H_
#define SEMIS_GEN_GENERATORS_H_

#include <cstdint>

#include "graph/graph.h"

namespace semis {

/// G(n, m): `m` distinct uniform edges on `n` vertices (self-loops
/// resampled; if m exceeds the number of possible edges it is clamped).
Graph GenerateErdosRenyi(VertexId n, uint64_t m, uint64_t seed);

/// G(n, p): each of the n(n-1)/2 edges present independently with
/// probability p. Intended for small n (tests).
Graph GenerateGnp(VertexId n, double p, uint64_t seed);

/// Star: vertex 0 adjacent to 1..n-1.
Graph GenerateStar(VertexId n);

/// Simple path 0-1-...-n-1.
Graph GeneratePath(VertexId n);

/// Cycle 0-1-...-n-1-0.
Graph GenerateCycle(VertexId n);

/// Complete graph K_n.
Graph GenerateComplete(VertexId n);

/// Complete bipartite K_{a,b}: vertices [0,a) vs [a,a+b).
Graph GenerateCompleteBipartite(VertexId a, VertexId b);

/// Disjoint union of `k` triangles (3k vertices); alpha = k.
Graph GenerateTriangles(VertexId k);

/// Cascade-swap graph (paper Figure 5 generalized): `k` triples
/// (a_i; b_i, c_i) with edges a_i-b_i, a_i-c_i and b_i-a_{i+1}. With the
/// initial independent set {a_0..a_{k-1}}, exactly one 1-2 swap is enabled
/// per round, so one-k-swap needs k rounds -- the paper's worst case.
/// Vertex layout: a_i = 3i, b_i = 3i+1, c_i = 3i+2.
Graph GenerateCascadeSwap(VertexId k);

/// Caterpillar: path of length `spine` with `legs` pendant vertices per
/// spine vertex. Greedy-friendly family with known alpha.
Graph GenerateCaterpillar(VertexId spine, VertexId legs);

/// Map-labeling conflict graph (the paper's Section 1 application): `pois`
/// points of interest drawn uniformly from the unit square, each with four
/// candidate labels of `width` x `height` anchored at its corners (the
/// classical 4-position model). Candidate 4p + k belongs to point p. The
/// four candidates of a point conflict with each other (a point carries at
/// most one label), and two candidates conflict when their rectangles
/// overlap. An independent set is an overlap-free labeling. With 4000
/// points, 0.022 x 0.008 labels and seed 7 (examples/map_labeling) the
/// graph has 16 000 vertices and 112 312 edges.
Graph GenerateMapLabels(VertexId pois, double width, double height,
                        uint64_t seed);

/// Unit-disk graph (random geometric graph): `n` points drawn uniformly
/// from the unit square, vertex v being the v-th point, and two points
/// joined when they lie within the radius r at which (n - 1) pi r^2 =
/// `avg_degree`. Points near the square's sides reach less area, so the
/// realized average degree falls slightly short of `avg_degree`.
Graph GenerateUnitDisk(VertexId n, double avg_degree, uint64_t seed);

}  // namespace semis

#endif  // SEMIS_GEN_GENERATORS_H_
