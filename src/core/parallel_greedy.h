// Copyright (c) the semis authors.
// Sharded executor for Algorithm 1 (GREEDY) over a SADJS file
// (graph/sharded_adjacency_file.h). The greedy scan is inherently
// sequential -- each record's outcome depends on every earlier record --
// so the parallelism is a pipeline, not a fan-out: worker threads
// prefetch and decode shards ahead of the scan while the calling thread
// commits records strictly in global manifest order.
//
// Concurrency contract: no mutex of its own -- all shared state is
// inside ManifestOrderedShardCursor's block ring, under its one mutex;
// the commit loop runs single-threaded on the calling thread. See
// docs/architecture.md ("Static analysis") for the conventions.
//
// Determinism contract: the commit order equals the manifest order for
// every shard/thread count, so the final state array (and therefore the
// independent set) is byte-identical to sequential RunGreedy on the
// equivalent monolithic file. At num_threads <= 1 the cursor has no pool
// and reads the shards on the calling thread, with no ring.
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
  /// Shared pipeline knobs. This executor reads only `num_threads`
  /// (decoder threads prefetching shards); the manifest fixes the shard
  /// count, so `num_shards` is ignored.
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
