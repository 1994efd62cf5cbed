// Copyright (c) the semis authors.
// Min-id rounds engine: the third solve engine (ROADMAP item 2). Instead
// of the paper's strictly-ordered commit scan, vertices are decided in
// synchronous rounds of "lowest-id active neighbor wins" (the
// vertex-centric MIS of libgrape-lite's mis-2 / deterministic Luby):
//
//   propose  an undecided vertex wins the round iff every undecided
//            neighbor has a larger id;
//   commit   winners enter the set, their undecided neighbors leave,
//            everyone else survives to the next round's frontier.
//
// Both passes are embarrassingly parallel -- a pass only READS the state
// frozen at the previous barrier and writes per-vertex slots owned by the
// record being scanned -- so shards are scanned concurrently with no
// commit order at all, and only per-shard frontier counts cross rounds.
// The result is a pure function of the graph and its vertex ids: it is
// byte-identical at every shard/thread count BY CONSTRUCTION, not by
// scheduling discipline. The price is set quality: min-id ignores
// degrees, so the set trails degree-greedy (rounds_quality_test pins the
// ratio); the swap phase accepts the rounds state array to close the gap.
//
// Termination: the smallest-id member of a non-empty frontier has no
// undecided smaller neighbor, so every round decides at least one vertex
// -- at most n rounds, O(polylog n) expected on the random-id graphs the
// corpus draws.
#ifndef SEMIS_CORE_ROUNDS_ENGINE_H_
#define SEMIS_CORE_ROUNDS_ENGINE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/mis_common.h"
#include "core/pipeline_options.h"
#include "graph/adjacency_file.h"
#include "util/status.h"

namespace semis {

/// What one finished round looked like, for tests that check per-round
/// invariants (rounds_property_test): winners are pairwise non-adjacent
/// and the frontier strictly shrinks until it is empty.
struct RoundObservation {
  uint64_t round = 0;                 // 1-based
  std::vector<VertexId> winners;      // this round's winners, ascending id
  uint64_t frontier_after = 0;        // undecided vertices after the round
};

struct MinIdRoundsOptions {
  /// num_threads drives the per-round shard fan-out, capped at the shard
  /// count (MakeShardPool); at one, the calling thread runs both passes
  /// in shard order, skipping settled shards as the pooled run does. The
  /// other pipeline knobs are accepted for uniformity and ignored.
  EnginePipelineOptions pipeline;
  /// Safety cap on rounds (0 = run until the frontier is empty). A capped
  /// run returns with undecided vertices still in the frontier; the
  /// result is then independent but possibly not maximal.
  uint32_t max_rounds = 0;
  /// Test hook: called after every round's commit barrier, on the calling
  /// thread, with that round's winners and surviving frontier. Building
  /// the winner list costs an O(n) sweep per round; leave unset outside
  /// tests.
  std::function<void(const RoundObservation&)> observer;
};

/// The per-record round rules, shared verbatim by the executor and the
/// sequential reference below, so the executor equals the reference by
/// construction at every thread count (the same move greedy.h makes with
/// GreedyCommitRecord).
///
/// Propose: an undecided vertex wins iff no undecided neighbor has a
/// smaller id. Reads only state frozen at the round's entry barrier.
inline bool MinIdProposeRecord(const VertexRecordView& rec,
                               const std::vector<VState>& state) {
  if (state[rec.id] != VState::kInitial) return false;
  for (uint32_t i = 0; i < rec.degree; ++i) {
    const VertexId nb = rec.neighbors[i];
    if (nb < rec.id && state[nb] == VState::kInitial) return false;
  }
  return true;
}

/// Commit: a winner enters the set, an undecided neighbor of a winner
/// leaves, anyone else stays undecided. `winner_round[v] == round` marks
/// this round's winners; versioning by round number lets both executors
/// skip clearing the array between rounds.
inline VState MinIdCommitRecord(const VertexRecordView& rec, uint32_t round,
                                const std::vector<uint32_t>& winner_round) {
  if (winner_round[rec.id] == round) return VState::kI;
  for (uint32_t i = 0; i < rec.degree; ++i) {
    if (winner_round[rec.neighbors[i]] == round) return VState::kN;
  }
  return VState::kInitial;
}

/// Runs min-id rounds over the SADJS manifest (or journaled store root)
/// at `manifest_path`. Shards are scanned in parallel within each round;
/// shards whose frontier count dropped to zero are skipped entirely, at
/// every thread count. A failed pass returns the first error in shard
/// order.
/// `result->rounds` counts executed rounds and `round_stats` carries
/// per-round winner/frontier counters (new_is_vertices, is_size_after,
/// frontier_after). Record order inside the file is irrelevant -- the
/// engine neither requires nor benefits from degree-sorted input.
Status RunMinIdRounds(const std::string& manifest_path,
                      const MinIdRoundsOptions& options, AlgoResult* result);

/// As RunMinIdRounds, also returning the final state array (kI/kN per
/// vertex; kInitial only if max_rounds capped the run) so the swap phase
/// can be seeded without re-deriving states from the bit vector.
Status RunMinIdRoundsWithStates(const std::string& manifest_path,
                                const MinIdRoundsOptions& options,
                                AlgoResult* result,
                                std::vector<VState>* states);

/// The sequential reference: the textbook round loop, one thread, one
/// full pass over all shards per phase, no frontier skipping. It is a
/// test and bench oracle, not an engine path: RunMinIdRounds must match
/// it bit for bit at every geometry and thread count, one included; the
/// conformance suite holds both to that.
Status RunMinIdRoundsReference(const std::string& manifest_path,
                               const MinIdRoundsOptions& options,
                               AlgoResult* result,
                               std::vector<VState>* states);

}  // namespace semis

#endif  // SEMIS_CORE_ROUNDS_ENGINE_H_
