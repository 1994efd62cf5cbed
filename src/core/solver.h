// Copyright (c) the semis authors.
// One-shot facade over the pipeline: this is the entry point a
// downstream user calls for a single solve. The stages themselves --
// degree-sort preprocessing (Section 4.1), the shard split, the
// greedy/baseline initial set (Algorithm 1), the optional swap stage
// (Algorithms 2-4), and streaming verification -- live in
// core/engine.h's MisEngine; a Solver is a throwaway engine that opens,
// copies out the open-time result, and closes. Callers that want to stay
// resident (serve membership queries, absorb update batches) should hold
// a MisEngine directly.
#ifndef SEMIS_CORE_SOLVER_H_
#define SEMIS_CORE_SOLVER_H_

#include <string>
#include <utility>

#include "core/engine.h"
#include "graph/graph.h"
#include "util/status.h"

namespace semis {

/// Solver configuration IS the engine configuration: the facade adds no
/// knobs of its own. Shard/thread/buffering fields live under
/// `.pipeline` (EnginePipelineOptions).
using SolverOptions = MisEngineOptions;

/// Facade over the pipeline. Stateless between calls; safe to reuse.
class Solver {
 public:
  /// Creates a solver with `options`.
  explicit Solver(SolverOptions options) : options_(std::move(options)) {}

  /// Solves the graph stored at `adjacency_path` -- a SADJ monolithic
  /// file or (detected by magic) a SADJS manifest -- with the pipeline
  /// of MisEngine::Open: a monolithic file is degree-sorted when
  /// `options.degree_sort` asks for it and split into
  /// max(1, `options.pipeline.num_shards`) shards; a manifest is
  /// consumed as-is (its file fixes the shard count, and degree_sort
  /// demands its degree-sorted flag). Greedy runs on the
  /// shard-pipelined executor and the swap stage on the parallel round
  /// executor, both byte-identical for every
  /// `options.pipeline.num_threads`.
  Status SolveFile(const std::string& adjacency_path, SolveResult* result);

  /// Convenience for in-memory graphs: writes `graph` to a scratch
  /// adjacency file and solves it semi-externally.
  Status SolveGraph(const Graph& graph, SolveResult* result);

  /// The options this solver was created with.
  const SolverOptions& options() const { return options_; }

 private:
  SolverOptions options_;
};

}  // namespace semis

#endif  // SEMIS_CORE_SOLVER_H_
