// Copyright (c) the semis authors.
// Shard-native streaming maintenance of an independent set under edge
// updates: the incremental scenario of core/incremental.h lifted onto the
// sharded substrate (SADJS shards + SDELTA overlay logs), so dynamic
// workloads get the same deterministic parallelism as the solve pipeline.
//
// Model: the base graph lives in a sharded adjacency file; updates arrive
// as a stream of edge insertions/deletions. Each update is
//   * applied eagerly to the in-memory membership (an insertion between
//     two set members evicts the larger id, O(1), exactly like
//     IncrementalMis), and
//   * routed to the SDELTA log of every shard holding an endpoint's base
//     record, so each shard log carries the full delta incident to its
//     records and the logs double as a redo stream (see Durability).
//
// Repair() restores maximality. The first Repair() of a session is ONE
// pass over the base shards merged with the delta: it commits the exact
// sequential rule of IncrementalMis::Repair strictly in global manifest
// order, reading the shards on the calling thread through
// ManifestOrderedShardCursor -- the same scan (and the same determinism
// contract) as RunParallelGreedy. After it the set is
// maximal, so a non-member can only become free by losing its set
// neighbor: ApplyBatch records the endpoints of every delete that
// changes state and every evicted vertex, and later repairs read the
// evicted vertices' records to add their neighbors, then re-check only
// that frontier's non-members with the same rule, in manifest order,
// reading their records through graph/shard_record_locator.h's frontier
// reader, one forward reader per shard. Every vertex outside the
// frontier still has a set neighbor and the set only grows during a
// repair, so the result equals the full pass's. The frontier pass runs
// in two phases at every thread count: the frontier reader (on the
// repair's forked workers above one) reads the records and drops every
// candidate that the set at the start of the pass already blocks, then
// the calling thread commits the survivors in manifest order with the
// same rule. A failed read therefore commits nothing.
//
//   the repaired set is byte-identical for EVERY shard/thread count, and
//   equal to sequential IncrementalMis::Repair on the equivalent
//   monolithic file.
//
// A frontier with more than max(n / kRepairFrontierDivisor,
// kRepairFrontierFloor) entries takes the full pass instead, which also
// bounds the frontier's memory. docs/formats.md ("Determinism contract
// of the streaming Repair") has the argument.
//
// Compact() folds saturated shards' deltas into the base: each saturated
// shard is rewritten with deletions dropped and insertions appended to
// its records. A cross-shard edge compacts independently on each side --
// the routed log copies make that safe. Compaction never changes the
// effective graph, only where it is stored. Its work follows what
// changed: the records no pending entry names are validated and copied
// as byte runs, the ones it names fold from the shard's own entries, and
// the delta state drops only the edges no other shard still holds. The
// saturated shards are rewritten one after another, each cut into
// byte-balanced record ranges at the locator's checkpoints
// (kCompactRangesPerWorker per worker); the ranges are read, validated
// and folded on the compaction's forked workers, each into its slot of
// one buffer of the shard's size, and the calling thread writes the
// slots in order. The bytes written are the same at every thread count.
//
// Durability: every multi-file mutation (compaction, re-sort) is an epoch
// commit of the journaled store layout (graph/shard_store.h): the new
// shard, log, and manifest files are staged under `<root>.epoch<E+1>*`
// names (unchanged files are hard-linked, not copied), fsynced, and
// published by atomically replacing the root pointer. A crash at ANY
// point leaves the store resolvable to a consistent epoch; Initialize
// recovers it (falling back one epoch when the current one is torn) and
// garbage-collects orphans. A legacy store (SADM manifest at the root)
// converts to the journaled layout on its first commit. A batch's log
// appends and manifest rename issue no fsync: the batch survives a
// process crash once ApplyBatch returns, and a power loss from the next
// epoch commit on.
//
// Resort() restores the global (degree, id) record order that a
// degree-changing compaction invalidated: pending deltas are folded in
// (forced compaction), then one scan streams the base through the degree
// sort of graph/degree_sort.h into fresh shards -- byte-identical to a
// fresh unshard -> degree-sort -> shard rebuild -- published through the
// same epoch commit. The sort runs on the calling thread and spills to
// its private scratch dir under $TMPDIR, so a multi-shard re-sort needs
// about one graph of free space there.
#ifndef SEMIS_CORE_INCREMENTAL_STREAM_H_
#define SEMIS_CORE_INCREMENTAL_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline_options.h"
#include "graph/shard_record_locator.h"
#include "graph/shard_store.h"
#include "graph/sharded_adjacency_file.h"
#include "io/edge_delta_file.h"
#include "io/io_stats.h"
#include "util/bit_vector.h"
#include "util/common.h"
#include "util/flat_key_set.h"
#include "util/status.h"

namespace semis {

/// One update of the edge stream.
struct EdgeUpdate {
  EdgeDeltaOp op = EdgeDeltaOp::kInsert;
  VertexId u = 0;
  VertexId v = 0;

  static EdgeUpdate Insert(VertexId u, VertexId v) {
    return {EdgeDeltaOp::kInsert, u, v};
  }
  static EdgeUpdate Delete(VertexId u, VertexId v) {
    return {EdgeDeltaOp::kDelete, u, v};
  }
};

/// Statistics of a streaming session (cumulative since Initialize).
struct StreamingMisStats {
  uint64_t updates_applied = 0;
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  /// Updates that were state no-ops (duplicate insert / duplicate delete)
  /// and were therefore not logged.
  uint64_t redundant_updates = 0;
  /// Vertices evicted by insertions (eager independence maintenance).
  uint64_t evictions = 0;
  /// Repair() passes executed, and vertices they re-added.
  uint64_t repair_passes = 0;
  uint64_t repair_added = 0;
  /// The subset of repair_passes that scanned every record; the rest
  /// read only their frontier.
  uint64_t full_repair_passes = 0;
  /// Compact() passes that rewrote at least one shard, and shards
  /// rewritten in total.
  uint64_t compactions = 0;
  uint64_t shards_rewritten = 0;
  /// Resort() passes that republished a degree-sorted base.
  uint64_t resorts = 0;
  /// Initialize() recoveries that had to fall back to the previous epoch
  /// because the current one was torn.
  uint64_t epoch_fallbacks = 0;
  /// Orphaned store files removed by epoch GC (recovery + commits).
  uint64_t orphan_files_removed = 0;
  /// Crash-torn log tails dropped (and rewritten clean) by Initialize:
  /// entries a previous session appended but never covered with a delta
  /// manifest republish, i.e. its unflushed final batch.
  uint64_t recovered_log_tails = 0;
  /// Live (uncompacted) delta entries currently held, summed over shards.
  uint64_t pending_delta_entries = 0;
  /// I/O of the whole session (routing, repair scans, compaction).
  IoStats io;
  /// Peak logical bytes of the maintainer's in-memory structures,
  /// including the frontier repair's read buffers, a compaction's output
  /// buffer and fold list, and a re-sort's sort memory.
  size_t peak_memory_bytes = 0;
  /// Wall-clock seconds by stage.
  double apply_seconds = 0.0;
  double repair_seconds = 0.0;
  double compact_seconds = 0.0;
  double resort_seconds = 0.0;
};

/// Repair crossover: a frontier with more than max(n / divisor, floor)
/// entries takes the full pass instead. On a 4-vCPU VM with 16-shard
/// PLRGs the sequential frontier pass beat the full pass up to about 30%
/// of the records at 100k vertices (1 and 4 threads) and 18% at 1M
/// vertices (4 threads), and lost beyond; 1/8 keeps a margin on both.
/// Re-measured with the frontier read in parallel (BM_StreamApplyRepair,
/// 100k vertices, ms per 8 192-update batch at 1 / 4 threads, two runs
/// each): divisor 8, a full pass every batch, 12.3-12.5 / 10.5-11.0;
/// divisor 4, a mix, 10.1-10.8 / 9.2-10.6; divisor 2, a frontier pass of
/// about 9 000 records every batch, 11.7-12.0 / 11.0-12.8. The parallel
/// read did not move the crossover beyond the noise, so 1/8 stays.
/// 65 536-update batches take the full pass at all three. The same bound
/// caps the frontier's memory at n/8 ids. Below the floor either pass
/// takes well under a millisecond.
inline constexpr uint64_t kRepairFrontierDivisor = 8;
inline constexpr uint64_t kRepairFrontierFloor = 256;

/// Compaction cuts a saturated shard into at most this many record
/// ranges per worker (ShardRecordLocator::CutRanges), so that ranges of
/// uneven cost -- a long record, a run of folded ones -- still balance
/// over the workers. The cut never changes the bytes written.
inline constexpr size_t kCompactRangesPerWorker = 4;

/// Maintains an independent set over "sharded base file + SDELTA overlay".
///
/// Concurrency contract: this class holds no mutex on purpose. All
/// public methods are externally serialized per object (MisEngine is the
/// one concurrent caller and serializes them); the internal parallelism
/// of Repair and Compact hands each worker a private slice and merges
/// after the workers are joined, which is the happens-before edge.
/// Repair's workers only read the set and the delta state; a
/// compaction's workers read the locator and write only their range's
/// folds, output slot and checkpoints. See docs/architecture.md ("Static
/// analysis") for the conventions.
class ShardedStreamingMis {
 public:
  ShardedStreamingMis() = default;

  /// Binds the maintainer to the sharded store rooted at `manifest_path`
  /// (a legacy SADM manifest or a journaled SEPR root; see
  /// graph/shard_store.h) and a starting independent set over its BASE
  /// graph. Runs crash recovery first: resolves the root, falls back to
  /// the previous epoch if the current one is torn (making the fallback
  /// durable), and garbage-collects orphaned epoch files. Builds the
  /// record locator (each vertex's manifest rank plus per-shard
  /// checkpoint offsets) with one pass over the shards. If an SDELTA
  /// overlay already exists next to the manifest, its logs are replayed
  /// in sequence order on top of `initial_set`, reproducing the previous
  /// session's delta state and eager evictions exactly. Repair additions
  /// are NOT logged, so if the previous session ran Repair() mid-stream
  /// the replayed membership may lag it -- it is still independent w.r.t.
  /// the updated graph, and the next Repair() restores maximality.
  ///
  /// Every call starts a new session: the statistics, a wedge left by a
  /// failed flush and the repair frontier are reset. The frontier starts
  /// unknown (an adopted set need not be maximal, and a replayed overlay
  /// evicts), so the next Repair() is a full pass.
  ///
  /// `options` is the shared pipeline struct: this layer reads
  /// `num_threads` (each frontier repair reads its shards, and each
  /// compacted shard folds its ranges, on ResolveThreadCount of it,
  /// started and joined within the pass, so no thread outlives a call;
  /// the repaired set and the store's bytes are independent of it by
  /// construction),
  /// `compact_threshold_entries` and `auto_resort`;
  /// `num_shards` is ignored (the manifest fixes it).
  Status Initialize(const std::string& manifest_path,
                    const BitVector& initial_set,
                    const EnginePipelineOptions& options);

  /// Applies a batch of updates in order: eager eviction, delta-state
  /// bookkeeping, and routing to the shard logs (flushed, with the delta
  /// manifest republished, before returning). Self-loops and out-of-range
  /// ids fail the whole batch up front with InvalidArgument -- no partial
  /// application. A duplicate insert (edge already live in the delta) or
  /// duplicate delete is a state no-op and is not logged. When
  /// `compact_threshold_entries` is set, saturated shards are compacted
  /// after the batch.
  Status ApplyBatch(const std::vector<EdgeUpdate>& updates);

  /// Restores maximality (see the file comment for the determinism
  /// contract). A full merged pass over base shards + delta when the
  /// frontier is unknown (the first repair of a session) or too large;
  /// otherwise a pass over the frontier's records only, with no scan.
  /// The frontier is cleared only when the repair succeeds, so a failed
  /// repair can be retried, and a failed frontier repair leaves the set
  /// as it was. InvalidArgument before Initialize and on a wedged
  /// maintainer, like every mutating call.
  Status Repair();

  /// Rewrites every saturated shard (every shard with a non-empty log
  /// when `force` is set) with its delta folded in and publishes the
  /// result as a new epoch of the journaled store: compacted shards are
  /// written fresh under the next epoch's names, untouched shards and
  /// logs are hard-linked across, compacted logs restart empty, and the
  /// whole file set commits atomically via the root pointer (converting a
  /// legacy store on its first commit). Clears the degree-sorted flag
  /// when a rewrite changed any record, since the global (degree, id)
  /// order can no longer be guaranteed -- then runs Resort() when
  /// `options.auto_resort` is set. Saturated shards are rewritten one at
  /// a time; each is read as record ranges on up to `num_threads`
  /// workers, which fold into one buffer of about the shard's bytes, the
  /// compaction's transient memory. Every record read is validated, also
  /// the ones copied unchanged, and so is each range's place in the
  /// shard, so a corrupt base fails with Corruption naming the shard file
  /// before the flip. A failure before the root flip leaves both the
  /// store and the maintainer untouched (the staged files are orphans for
  /// GC); only a failure in the flip itself wedges.
  Status Compact(bool force = false);

  /// Restores the global (degree, id) record order after degree-changing
  /// compactions cleared the degree-sorted flag. Folds pending deltas in
  /// first (forced compaction), then scans the base through one
  /// DegreeSorter into a fresh sharded base published as a new epoch. The
  /// sorter's memory budget is the largest shard's decoded bytes; it
  /// spills the rest under $TMPDIR (about one graph of free space there),
  /// never into the store. The result is byte-identical to a fresh
  /// unshard -> degree-sort -> shard rebuild of the same store, for every
  /// shard/thread count. No-op when the base is already degree-sorted.
  /// The effective graph and the maintained set are unchanged.
  Status Resort();

  /// Current membership (independent w.r.t. the updated graph after every
  /// ApplyBatch; additionally maximal right after Repair()).
  const BitVector& set() const { return set_; }

  /// Current |set|.
  uint64_t set_size() const { return set_size_; }

  /// Session statistics so far.
  const StreamingMisStats& stats() const { return stats_; }

  /// The SADJS manifest as of the last Initialize/Compact/Resort.
  const ShardedAdjacencyManifest& manifest() const { return manifest_; }

  /// Where the store root resolved to (epoch numbers, fallback state).
  const ResolvedShardStore& store() const { return store_; }

 private:
  static uint64_t EdgeKey(VertexId u, VertexId v) {
    if (u > v) std::swap(u, v);
    return (static_cast<uint64_t>(u) << 32) | v;
  }

  // One node of the inserted-neighbor pool: a neighbor and the pool
  // index of the next node of the same vertex's list.
  struct InsertedNode {
    VertexId neighbor = 0;
    uint32_t next = 0;
  };
  static constexpr uint32_t kNoNode = ~uint32_t{0};

  // InvalidArgument unless Initialize succeeded and nothing has wedged
  // the maintainer since: the check every mutating call starts with.
  Status CheckUsable() const;
  Status ValidateUpdate(const EdgeUpdate& update) const;
  // Applies one validated update to the in-memory state; returns true if
  // it changed the delta state (and must be logged). Records what the
  // update may free in the repair frontier.
  bool ApplyToState(const EdgeUpdate& update);
  // Replays existing delta logs on top of the initial set (restart path):
  // merges the routed copies by sequence number, checking that the two
  // copies of a cross-shard update agree.
  Status ReplayExistingDelta();
  // Rewrites shard `shard`'s log from pending_[shard] (header + entries).
  Status RewriteShardLog(uint32_t shard);
  // The inserted edges (global delta state). InsertDeltaEdge returns
  // false when the edge was already there; EraseDeltaEdge is a no-op for
  // an edge that is not.
  bool InsertDeltaEdge(VertexId u, VertexId v);
  void EraseDeltaEdge(VertexId u, VertexId v);
  // Pool list maintenance of one direction of an inserted edge. Unlink
  // requires the node to be there.
  void LinkInserted(VertexId u, VertexId v);
  void UnlinkInserted(VertexId u, VertexId v);
  bool HasInsertedSetNeighbor(VertexId u) const;
  // Empties the delta state for `n_` vertices (keeps the tables' memory).
  void ClearDeltaState();
  // The Repair commit rule for one base record: a non-member with no
  // live set neighbor joins. Returns true when `rec.id` joined.
  bool TryJoin(const VertexRecordView& rec);
  // The full pass: the commit rule over every record, strictly in
  // manifest order.
  Status RepairFull(uint64_t* added);
  // The frontier pass; drops the frontier (leaving the work to the full
  // pass) when expanding the evictions overflows it.
  Status RepairFrontier(uint64_t* added);
  // Reads the evicted vertices' records and moves their neighbors into
  // the frontier. A failed read leaves the evictions pending.
  Status ExpandEvictions(const ShardFrontierReader& reader);
  // The two-phase commit of `candidates` (sorted by rank): the reader's
  // items drop the candidates the current set blocks, this thread runs
  // TryJoin on the rest in rank order. A failed read changes nothing.
  Status CommitCandidates(const ShardFrontierReader& reader,
                          const std::vector<VertexId>& candidates,
                          uint64_t* added);
  // Frontier bookkeeping (no-ops while the frontier is unknown).
  void AddToFrontier(VertexId v);
  void NoteEviction(VertexId v);
  void DropFrontier();
  uint64_t FrontierLimit() const;
  // Writes shard `shard` with its pending entries folded in to
  // `out_path` (a staged file of the next epoch), and its locator offsets
  // to `checkpoints`. The shard's record ranges fold on forked workers;
  // records no entry names go out as validated byte runs.
  Status CompactShard(uint32_t shard, const std::string& out_path,
                      ShardInfo* new_info, uint32_t* max_degree_seen,
                      bool* records_changed,
                      std::vector<uint64_t>* checkpoints);
  // After a compaction of the shards flagged in `compacted` committed:
  // drops from the delta state every edge their entries name that no
  // other shard still holds a pending copy of, then drops the entries.
  void RetireCompactedEntries(const std::vector<bool>& compacted);
  // The commit point of an epoch transaction: fsyncs the staged files of
  // epoch `next_epoch`, atomically flips the root pointer, and updates
  // store_/manifest_path_/delta_path_. Every staged path must be in
  // `staged_files`. GC of retired files is the caller's final step (after
  // its in-memory state matches the new epoch). A failure in the flip
  // itself wedges the maintainer -- disk may be either epoch.
  Status PublishEpoch(uint64_t next_epoch,
                      const std::vector<std::string>& staged_files);
  // Epoch GC + orphan accounting (after a successful commit).
  Status CollectStoreGarbage();
  Status ResortInternal();
  size_t CurrentMemoryBytes() const;
  void AccountMemory();
  // Raises the peak to the current state plus `transient` bytes a pass
  // holds on top of it.
  void AccountTransientMemory(size_t transient);

  // The store root as given to Initialize (SEPR pointer or legacy SADM).
  std::string root_path_;
  // Where the root resolved: epoch numbers and the serving manifest path.
  ResolvedShardStore store_;
  // The SADM manifest path serving this epoch (== store_.manifest_path).
  std::string manifest_path_;
  std::string delta_path_;
  ShardedAdjacencyManifest manifest_;
  EnginePipelineOptions options_;
  uint64_t n_ = 0;
  // Where each vertex's base record sits: built by one scan at Initialize
  // and after a re-sort; a compaction replaces the offsets of the shards
  // it rewrote.
  ShardRecordLocator locator_;
  BitVector set_;
  uint64_t set_size_ = 0;
  // Global delta state (the CURRENT effective delta, deduplicated): the
  // replay of every pending entry, in sequence order. Effective edges =
  // (base \ deleted_keys_) + inserted_keys_. Same conventions as
  // IncrementalMis: inserted edges may overlap base edges, deleted_keys_
  // may hold keys the base never had. An edge is in one of the two sets
  // exactly when some shard holds a pending entry for it, and which one
  // its newest entry says. The inserted edges are also kept as adjacency
  // lists in a node pool: inserted_head_[v] starts v's list (kNoNode when
  // empty) and free_node_ the list of recycled nodes.
  FlatKeySet inserted_keys_;
  FlatKeySet deleted_keys_;
  std::vector<uint32_t> inserted_head_;
  std::vector<InsertedNode> inserted_pool_;
  uint32_t free_node_ = kNoNode;
  // The repair frontier. While known, every non-member outside
  // frontier_ and outside the neighborhoods of evicted_ has a live set
  // neighbor, so a repair need only re-check those. Entries may repeat.
  bool frontier_known_ = false;
  std::vector<VertexId> frontier_;
  std::vector<VertexId> evicted_;
  // Pending (uncompacted) entries per shard, in sequence order -- the
  // in-memory mirror of the on-disk logs.
  std::vector<std::vector<EdgeDeltaEntry>> pending_;
  uint64_t next_sequence_ = 0;
  StreamingMisStats stats_;
  bool initialized_ = false;
  // True while Resort() runs its internal forced compaction, so that
  // compaction does not recurse into auto-resort.
  bool in_resort_ = false;
  // Set when a flush, an epoch flip or the reload after a re-sort's flip
  // failed, leaving the in-memory maintainer ahead of (or torn against)
  // the store on disk. Further mutations are refused; re-Initialize to
  // recover from disk.
  bool wedged_ = false;
};

}  // namespace semis

#endif  // SEMIS_CORE_INCREMENTAL_STREAM_H_
