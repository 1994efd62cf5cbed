// Copyright (c) the semis authors.
// Minimum vertex cover via maximum independent set -- the first of the
// "other graph problems" the paper's conclusion proposes to attack with
// the semi-external machinery (V \ IS is a vertex cover, and the smaller
// the cover the larger the IS, so near-optimal MIS gives near-optimal VC).
#ifndef SEMIS_CORE_VERTEX_COVER_H_
#define SEMIS_CORE_VERTEX_COVER_H_

#include <string>

#include "core/engine.h"
#include "io/io_stats.h"
#include "util/bit_vector.h"
#include "util/status.h"

namespace semis {

/// Result of a semi-external vertex-cover computation.
struct VertexCoverResult {
  /// Membership bit per vertex id (true = in the cover).
  BitVector cover;
  /// |cover| = |V| - |independent set|.
  uint64_t cover_size = 0;
  /// The underlying MIS run (timings, I/O, memory).
  SolveResult mis;
};

/// Computes a small vertex cover of the graph at `adjacency_path` as the
/// complement of the independent set a MisEngine opens with.
Status ComputeVertexCoverFile(const std::string& adjacency_path,
                              const MisEngineOptions& options,
                              VertexCoverResult* result);

/// Verifies with one sequential scan that every edge has at least one
/// endpoint in `cover`. `*uncovered_edges` counts violations (0 = valid).
Status VerifyVertexCoverFile(const std::string& adjacency_path,
                             const BitVector& cover,
                             uint64_t* uncovered_edges,
                             IoStats* stats = nullptr);

}  // namespace semis

#endif  // SEMIS_CORE_VERTEX_COVER_H_
