// Copyright (c) the semis authors.
// The one knob struct shared by every layer that drives the sharded
// execution pipeline: the engine, the sharded greedy executor, and the
// streaming maintainer. A caller fills it once
// and hands it down the stack. Each consumer documents which fields it
// reads; unread fields are ignored, never an error, so one filled-in
// struct can travel the whole stack.
#ifndef SEMIS_CORE_PIPELINE_OPTIONS_H_
#define SEMIS_CORE_PIPELINE_OPTIONS_H_

#include <cstdint>

namespace semis {

/// Which solve engine produces the initial independent set (the stage an
/// optional swap phase then improves). Both engines are deterministic at
/// every shard/thread count; they differ in HOW vertices are ordered and
/// therefore in which (equally valid) maximal set comes out. See
/// docs/architecture.md "Engines" for the trade-off.
enum class SolveEngine : uint8_t {
  /// The paper's pipeline: Algorithm 1's strictly-ordered greedy commit
  /// scan (degree order when sorted), over the shards in manifest order.
  kGreedySwap = 0,
  /// Min-id rounds (core/rounds_engine.h): synchronous rounds of
  /// "lowest-id active neighbor wins", fully parallel within a round.
  /// Ignores record order, so it neither needs nor exploits degree-
  /// sorted input.
  kRounds,
};

/// Execution-pipeline configuration shared across layers. Every knob
/// except `engine` preserves the byte-identical determinism contract: no
/// other field changes WHAT is computed, only how it is scheduled or
/// stored. `engine` selects WHICH deterministic pipeline
/// runs -- each engine then holds the contract on its own output.
struct EnginePipelineOptions {
  /// The solve engine behind MisEngine opens (and `semis_cli solve
  /// --engine`). Executors that implement a single engine
  /// (RunParallelGreedy, RunMinIdRounds) ignore it.
  SolveEngine engine = SolveEngine::kGreedySwap;

  /// Number of adjacency shards a monolithic input is split into before
  /// the solve (MisEngine monolithic opens); 0 and 1 both mean
  /// one shard. Ignored by consumers whose input is already sharded --
  /// the file fixes the shard count.
  uint32_t num_shards = 0;

  /// Worker threads of the swap stage, the rounds engine, and the
  /// streaming maintainer's frontier repair and compaction
  /// (0 = hardware concurrency). A pass runs its items (shards, or one
  /// shard's record ranges) on at most min(threads, items) workers
  /// (ForEachItem); above one, each pass forks its workers and joins
  /// them before it returns, and at one it runs on the calling thread.
  /// The greedy and the full repair read none: a scan in manifest order
  /// runs on the calling thread. The result, and every byte a store
  /// holds, is independent of this value by construction.
  uint32_t num_threads = 1;

  /// Streaming maintenance only: a shard whose delta log reaches this
  /// many live entries is saturated and compacted by the next Compact()
  /// (or automatically at the end of ApplyBatch). 0 disables automatic
  /// compaction; Compact(/*force=*/true) still compacts everything.
  uint64_t compact_threshold_entries = 0;

  /// Streaming maintenance only: when a compaction changes degrees and
  /// clears the degree-sorted flag, immediately run the background
  /// re-sort (ShardedStreamingMis::Resort) to restore global (degree, id)
  /// order, published through the same epoch commit. Storage-only like
  /// compaction itself: the effective graph and the maintained set are
  /// unchanged, so the determinism contract holds.
  bool auto_resort = false;
};

}  // namespace semis

#endif  // SEMIS_CORE_PIPELINE_OPTIONS_H_
