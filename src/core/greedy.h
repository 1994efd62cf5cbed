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

/// The body of RunGreedyWithStates and RunParallelGreedyWithStates:
/// Algorithm 1 over `scanner`, open on a SADJ file or a store and not yet
/// read. The degree-sorted gate (one error text everywhere, quoting
/// `path`), the O(|V|) state-array init (lines 1-2), one pass applying
/// GreedyCommitRecord to every record, the scanner's Close, and the set,
/// memory and state outputs in `res` and `states` (may be null);
/// `res->seconds` is the caller's.
Status RunGreedyScan(AdjacencyFileScanner* scanner, const std::string& path,
                     const GreedyOptions& options, AlgoResult* res,
                     std::vector<VState>* states);

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
