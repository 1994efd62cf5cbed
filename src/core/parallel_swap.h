// Copyright (c) the semis authors.
// Parallel round executor for the swap algorithms over a *sharded*
// adjacency file (graph/sharded_adjacency_file.h): every scan phase of a
// round fans the shards out over a thread pool, each worker scanning its
// shard with a private reader and proposing swaps against shared
// vertex-state tables.
//
// Round schedule: a round is three full passes, the paper's cost for a
// two-k round -- propose, commit, and a label pass that labels every
// non-IS vertex and also computes its free flag (no IS neighbor) for the
// 0<->1 join rule. One label pass runs before round 1. The commit pass
// runs only when the proposal pass marked an IS vertex for removal;
// otherwise every decision would be "none". After that the labels are
// recomputed only when a commit or a join moved a vertex; labels
// computed from vertex states that have not changed are still exact.
// The join pass runs only when the last label pass found a free vertex,
// and the final maximality loop starts from that count. So a run that
// joins nobody and stops because a round proposed nothing costs 3R - 1
// scans for R rounds. Rounds also stop after max_rounds, or after three
// rounds in a row that do not beat the largest set seen; the final
// maximality loop then always runs.
//
// A round can shrink the set: its removals commit even when the entrants
// that would replace them lose their conflicts. So the executor keeps the
// latest set of the largest size seen and, when the rounds end below it,
// goes back to it before the final maximality loop. That set is the
// current state until a round ends below it; only then is it copied into
// a bit vector (|V|/8 bytes, charged as "best-set"), rebuilt from the
// state by flipping back the round's moves (one u32 per move, "moves").
// The result is never smaller than any round's set, and a run whose
// rounds never shrink the set copies nothing. Termination: the largest
// size seen only grows and never passes |V|, so the stall counter resets
// at most |V| times, and between two resets at most three rounds run --
// at most 3(|V| + 1) rounds in all, without max_rounds. Counting stalls
// against the previous round instead lets a set that swings between two
// sizes run forever.
//
// Determinism contract (the reason results are byte-identical for every
// thread count, including one):
//   * each phase reads only state frozen by the previous phase barrier and
//     writes either (a) per-vertex slots owned by the record being scanned,
//     (b) commutative atomics (counters), or (c) idempotent atomic flags
//     (mark-removed); none of these depend on scan interleaving;
//   * swap-candidate discovery that needs scan-order context (the 2<->k
//     SC buckets of Algorithm 4) is shard-local: a worker only combines
//     records of the shard it is currently scanning, and shard contents
//     are fixed by the file, not by the thread count;
//   * conflicting promotions are resolved by a fixed priority: the lowest
//     vertex id wins, evaluated independently per vertex.
// Consequently the run without a pool (one thread or one shard) is the
// sequential path, and every other thread count reproduces its output
// and its first error in shard order bit for bit. This is the
// only swap stage MisEngine runs, at every shard count including one.
// Its result generally differs from RunOneKSwap/RunTwoKSwap, the paper's
// reference implementations over one monolithic file, which resolve
// conflicts by file position rather than vertex id; both satisfy the
// same invariants: the returned set is independent and, after the final
// maximality loop, maximal.
//
// Concurrency contract: no mutex -- shared per-vertex state is atomics
// with the ownership/commutativity rules above, per-worker scratch is
// indexed by worker id, and the phase barrier (ThreadPool completion) is
// the happens-before edge for everything a later phase reads. See
// docs/architecture.md ("Static analysis") for the conventions.
//
// Memory: the per-vertex tables are O(|V|) and shared. Per-worker scratch
// is bounded by the degree of the record in hand. Each shard's 2<->k
// discovery tables are flat arrays, built for the shard and freed at its
// end; their exact heap bytes are charged to the "sc" category summed
// over all shards, so the accounted peak does not depend on the thread
// count.
#ifndef SEMIS_CORE_PARALLEL_SWAP_H_
#define SEMIS_CORE_PARALLEL_SWAP_H_

#include <string>
#include <vector>

#include "core/mis_common.h"
#include "util/bit_vector.h"
#include "util/status.h"

namespace semis {

/// Options for the parallel swap executor.
struct ParallelSwapOptions {
  /// Stop after this many rounds (0 = until no proposals fire).
  uint32_t max_rounds = 0;
  /// Worker threads scanning shards (0 = hardware concurrency), capped
  /// at the shard count (MakeShardPool); at one, the calling thread runs
  /// every pass. The result is independent of this value by
  /// construction.
  uint32_t num_threads = 1;
  /// Enable 2<->k swap skeleton discovery (shard-local SC buckets) in
  /// addition to 1<->k swaps. Off reproduces one-k-swap semantics.
  bool enable_two_k = true;
  /// Safety valve carried over from TwoKSwapOptions: max pairs per SC
  /// bucket during one shard scan.
  uint32_t max_pairs_per_bucket = 64;
};

/// Runs parallel swap rounds on the sharded adjacency file rooted at
/// `manifest_path`, starting from `initial_set` (an independent set over
/// the same graph, e.g. the greedy result). Per-thread IoStats and
/// shard-local memory use are merged into `result`'s aggregates.
Status RunParallelSwap(const std::string& manifest_path,
                       const BitVector& initial_set,
                       const ParallelSwapOptions& options, AlgoResult* result);

/// As above, but seeded from a final greedy state array (kI per member)
/// so a sharded greedy -> parallel swap pipeline hands its states over
/// directly instead of round-tripping through a bit vector.
Status RunParallelSwap(const std::string& manifest_path,
                       const std::vector<VState>& initial_states,
                       const ParallelSwapOptions& options, AlgoResult* result);

}  // namespace semis

#endif  // SEMIS_CORE_PARALLEL_SWAP_H_
