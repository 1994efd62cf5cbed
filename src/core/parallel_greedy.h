// Copyright (c) the semis authors.
// Sharded executor for Algorithm 1 (GREEDY) over a SADJS file
// (graph/sharded_adjacency_file.h). The greedy scan is inherently
// sequential -- each record's outcome depends on every earlier record --
// so it runs on the calling thread, reading the shards in manifest order
// through one store scan (AdjacencyFileScanner::OpenStore): one scan, and
// O(|V|) memory at every thread count. The body is RunGreedyScan, the
// sequential greedy's.
//
// Determinism contract: the commit order equals the manifest order for
// every shard count, so the final state array (and therefore the
// independent set) is byte-identical to sequential RunGreedy on the
// equivalent monolithic file.
#ifndef SEMIS_CORE_PARALLEL_GREEDY_H_
#define SEMIS_CORE_PARALLEL_GREEDY_H_

#include <string>
#include <vector>

#include "core/greedy.h"
#include "core/mis_common.h"
#include "core/pipeline_options.h"
#include "util/status.h"

namespace semis {

/// Options for the sharded greedy executor.
struct ParallelGreedyOptions {
  /// Options shared with the sequential scan (require_degree_sorted is
  /// enforced against the SADJS manifest flags, with the same error as
  /// the monolithic path).
  GreedyOptions greedy;
  /// Shared pipeline knobs. This executor reads none of them: the scan
  /// runs on the calling thread and the manifest fixes the shard count.
  EnginePipelineOptions pipeline;
};

/// Runs Algorithm 1 over the sharded adjacency file rooted at
/// `manifest_path`. On return `result->in_set` holds a maximal
/// independent set identical to sequential RunGreedy on the equivalent
/// monolithic file.
Status RunParallelGreedy(const std::string& manifest_path,
                         const ParallelGreedyOptions& options,
                         AlgoResult* result);

/// As RunParallelGreedy, but additionally exposes the final state array
/// (kI / kN per vertex) so the engine can hand it straight to the
/// parallel swap executor without re-deriving it from the bit vector.
Status RunParallelGreedyWithStates(const std::string& manifest_path,
                                   const ParallelGreedyOptions& options,
                                   AlgoResult* result,
                                   std::vector<VState>* states);

}  // namespace semis

#endif  // SEMIS_CORE_PARALLEL_GREEDY_H_
