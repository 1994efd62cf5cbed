// Copyright (c) the semis authors.
// Algorithm 1: the semi-external greedy algorithm. One sequential scan of
// an adjacency file; a vertex whose state is still INITIAL when its record
// arrives joins the independent set and lazily knocks out its (unvisited)
// neighbors. On a degree-sorted file this is the paper's GREEDY; on an
// id-ordered file it is the paper's BASELINE (same code, weaker ordering).
#ifndef SEMIS_CORE_GREEDY_H_
#define SEMIS_CORE_GREEDY_H_

#include <string>
#include <vector>

#include "core/mis_common.h"
#include "graph/adjacency_file.h"
#include "util/status.h"

namespace semis {

/// Options for the greedy scan.
struct GreedyOptions {
  /// When true, a non-degree-sorted input file is rejected so callers
  /// cannot silently run GREEDY quality experiments on BASELINE input.
  bool require_degree_sorted = false;
};

/// Lines 3-8 of Algorithm 1 -- THE commit rule, shared by the sequential
/// scan and the sharded executor (core/parallel_greedy.h) so the
/// byte-identical contract between them is enforced by construction: a
/// still-INITIAL vertex joins the set and its INITIAL neighbors become
/// non-IS. (The paper's pseudo-code types line 8 as "IS"; the
/// surrounding text and the algorithm's correctness require non-IS.)
inline void GreedyCommitRecord(const VertexRecordView& rec,
                               std::vector<VState>* state) {
  std::vector<VState>& s = *state;
  if (s[rec.id] != VState::kInitial) return;
  s[rec.id] = VState::kI;
  for (uint32_t i = 0; i < rec.degree; ++i) {
    if (s[rec.neighbors[i]] == VState::kInitial) {
      s[rec.neighbors[i]] = VState::kN;
    }
  }
}

/// The scan skeleton of Algorithm 1, shared by the monolithic path
/// (RunGreedyWithStates) and both paths of the sharded executor: the
/// degree-sorted gate (one error text everywhere), the O(|V|) state-array
/// init (lines 1-2), and one pass applying GreedyCommitRecord to every
/// record. `Source` is any open record source exposing header() and the
/// view-API Next(&view, &has_next) (graph/adjacency_file.h) -- the paths
/// differ only in where records come from: the monolithic scanner, the
/// sequential sharded scanner, or the block-decode cursor. `path` is
/// quoted in the rejection error.
template <typename Source>
Status RunGreedyScan(Source* source, const std::string& path,
                     const GreedyOptions& options, AlgoResult* res,
                     std::vector<VState>* state_out) {
  if (options.require_degree_sorted && !source->header().IsDegreeSorted()) {
    return Status::InvalidArgument(
        "greedy requires a degree-sorted adjacency file: " + path);
  }
  const uint64_t n = source->header().num_vertices;
  std::vector<VState> state(n, VState::kInitial);
  res->memory.Add("state", n * sizeof(VState));
  VertexRecordView rec;
  bool has_next = false;
  while (true) {
    SEMIS_RETURN_IF_ERROR(source->Next(&rec, &has_next));
    if (!has_next) break;
    GreedyCommitRecord(rec, &state);
  }
  *state_out = std::move(state);
  return Status::OK();
}

/// Runs Algorithm 1 over the adjacency file at `path`.
/// On return `result->in_set` holds a maximal independent set.
Status RunGreedy(const std::string& path, const GreedyOptions& options,
                 AlgoResult* result);

/// As RunGreedy, but additionally exposes the final state array
/// (kI / kN per vertex) for callers that feed a swap algorithm.
Status RunGreedyWithStates(const std::string& path,
                           const GreedyOptions& options, AlgoResult* result,
                           std::vector<VState>* states);

}  // namespace semis

#endif  // SEMIS_CORE_GREEDY_H_
