// Copyright (c) the semis authors.
// MisEngine: the resident form of the pipeline. One object owns the full
// open -> serve -> mutate -> republish lifecycle over a graph snapshot:
//
//   Open()       loads a SADJS manifest, or turns a SADJ file into one
//                in the engine's scratch dir (the degree sort writes the
//                shards when one is needed), runs the solve pipeline over
//                the shards (greedy -> swaps) and publishes the result as
//                epoch 1.
//                Every open takes this one path; the paper's sequential
//                RunGreedy/RunOneKSwap/RunTwoKSwap stay library
//                algorithms and test oracles.
//   Snapshot()   hands out an immutable, refcounted view of the current
//                epoch (solution bit-vector + |IS| + per-epoch stats).
//                Readers on any thread query it without ever blocking on
//                mutation; an epoch retires when its last reader drops
//                the reference (RCU via shared_ptr).
//   ApplyBatch() / Repair() / Compact()
//                run the ShardedStreamingMis machinery against a private
//                successor state. Published epochs are never touched.
//   Publish()    freezes the successor into a new epoch and atomically
//                swaps it in as the current snapshot.
//
// A one-shot solve is Open() + open_result() (semis_cli `solve` and
// `cover`, ComputeVertexCoverFile); semis_cli's `update` and `engine`
// subcommands drive the full lifecycle.
//
// Threading contract: Snapshot() (and the views it returns) may be used
// concurrently from any number of threads. The mutating calls -- Open,
// Prepare, ApplyBatch, Repair, Compact, Publish, Close -- must be
// externally serialized (one mutator at a time); they are safe to run
// concurrently WITH readers. Snapshot() acquires the publication mutex
// only for the duration of one pointer copy, and no mutating call holds
// that mutex across I/O or compute, so a snapshot never waits on an
// in-flight repair.
//
// Determinism: every published epoch inherits the byte-identical
// contract of the underlying executors -- for a fixed input, shard count
// and update script the epoch sequence is identical for every thread
// count, and 1 thread equals the executors' sequential path. Only the
// swap stage depends on the shard count (its discovery is shard-local);
// greedy, baseline, the rounds engine and repair do not.
#ifndef SEMIS_CORE_ENGINE_H_
#define SEMIS_CORE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/incremental_stream.h"
#include "core/mis_common.h"
#include "core/pipeline_options.h"
#include "io/scratch.h"
#include "util/bit_vector.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace semis {

/// Which swap stage to run after the initial greedy scan.
enum class SwapMode {
  kNone,  // greedy / baseline only
  kOneK,  // Algorithm 2
  kTwoK,  // Algorithms 3-4
};

/// Configuration of a MisEngine.
struct MisEngineOptions {
  /// Degree-sort a monolithic input before the greedy scan (paper
  /// GREEDY). When false the file is consumed as-is (paper BASELINE).
  /// Sharded input cannot be sorted in place, so there degree_sort
  /// demands the manifest's degree-sorted flag instead of sorting.
  /// Ignored by pipeline.engine == SolveEngine::kRounds: min-id rounds
  /// are record-order-free, so sorting (or demanding the sorted flag)
  /// would cost I/O without changing the output.
  bool degree_sort = true;
  /// Swap stage of the open-time solve.
  SwapMode swap = SwapMode::kTwoK;
  /// Early-stop cap on swap rounds (0 = converge; Table 8 uses 1..3).
  uint32_t max_swap_rounds = 0;
  /// Memory budget of the preprocessing sort (the paper's M).
  size_t sort_memory_budget_bytes = 64ull << 20;
  /// Merge fan-in of the preprocessing sort.
  size_t sort_fan_in = 16;
  /// Directory for the shard store a monolithic open builds
  /// (`sharded.sadjs`; "" = a private temp dir owned by the engine until
  /// Close). The degree sort writes its shards directly, so nothing else
  /// is left there; its spills go to the sorter's own dir under $TMPDIR.
  std::string scratch_dir;
  /// Re-scan the graph after the open-time solve and fail on a
  /// non-independent or non-maximal result (paranoid mode).
  bool verify = false;
  /// Shard/thread/buffering knobs shared with every executor layer.
  EnginePipelineOptions pipeline;
};

/// Everything the open-time solve produced (MisEngine::open_result()).
struct SolveResult {
  /// The independent set (bit per vertex id).
  BitVector set;
  /// Number of vertices in the set.
  uint64_t set_size = 0;
  /// Stage results: exactly one of greedy/rounds ran (per
  /// pipeline.engine); swap untouched when SwapMode::kNone. The rounds
  /// result's round_stats carries the per-round winner/frontier counters
  /// `semis_cli solve --stats` reports.
  AlgoResult greedy;
  AlgoResult rounds;
  AlgoResult swap;
  /// Seconds spent in the preprocessing sort (0 when skipped).
  double sort_seconds = 0.0;
  /// Seconds spent turning a monolithic input into the shard store, a
  /// needed sort included (> 0 on every monolithic open, 0 on a manifest
  /// open).
  double shard_seconds = 0.0;
  /// Aggregated I/O over all stages (sort + shard + greedy + swaps).
  IoStats io;
  /// Peak logical memory over all stages, including the preprocessing
  /// sort's run buffer and merge cursors.
  size_t peak_memory_bytes = 0;
  /// Total wall-clock seconds.
  double seconds = 0.0;
  /// Whether the records actually consumed were degree-sorted: the flag
  /// of the consumed manifest, which a monolithic open sets when it sorts
  /// and otherwise copies from the file header. False means Algorithm 1
  /// ran in BASELINE order -- on a manifest this can happen silently
  /// after a compaction cleared the flag, so callers surface it
  /// (semis_cli warns on stderr).
  bool degree_sorted = false;
};

/// Per-epoch deltas: what happened between the previous publication and
/// the one that created this epoch. Epoch 1 (the open-time solve) has
/// all-zero deltas; its cost lives in MisEngine::open_result().
struct EpochStats {
  /// ApplyBatch() calls and the updates they carried.
  uint64_t batches = 0;
  uint64_t updates = 0;
  /// Repair() passes folded into this epoch and the vertices they
  /// re-added.
  uint64_t repair_passes = 0;
  uint64_t repair_added = 0;
  /// Wall-clock seconds spent applying and repairing for this epoch.
  double apply_seconds = 0.0;
  double repair_seconds = 0.0;
};

/// One published epoch: an immutable view of the solution at a
/// publication point. Refcounted -- hold the shared_ptr as long as the
/// view is needed; the epoch's memory retires when the last holder (or
/// the engine, on the next Publish) drops it.
class EpochSnapshot {
 public:
  EpochSnapshot(uint64_t epoch, BitVector set, uint64_t set_size,
                EpochStats stats)
      : epoch_(epoch),
        set_(std::move(set)),
        set_size_(set_size),
        stats_(stats) {}

  /// Publication counter: 1 for the open-time solve, +1 per Publish().
  uint64_t epoch() const { return epoch_; }
  /// The independent set of this epoch (bit per vertex id).
  const BitVector& set() const { return set_; }
  /// |set|.
  uint64_t set_size() const { return set_size_; }
  /// Membership query (false for out-of-range ids).
  bool Contains(VertexId v) const {
    return v < set_.size() && set_.Test(v);
  }
  /// What this epoch absorbed since the previous one.
  const EpochStats& stats() const { return stats_; }

 private:
  uint64_t epoch_;
  BitVector set_;
  uint64_t set_size_;
  EpochStats stats_;
};

using EpochSnapshotRef = std::shared_ptr<const EpochSnapshot>;

/// The resident engine. See the file comment for the lifecycle and the
/// threading contract. Not copyable or movable (readers may hold the
/// publication mutex's address across the object's lifetime).
class MisEngine {
 public:
  explicit MisEngine(MisEngineOptions options)
      : options_(std::move(options)) {}

  MisEngine(const MisEngine&) = delete;
  MisEngine& operator=(const MisEngine&) = delete;

  /// Opens `path` -- a SADJS manifest or an epoch-journaled store root
  /// (both detected by magic) or a SADJ monolithic file -- runs the
  /// solve pipeline on it, and publishes the result as epoch 1.
  /// Monolithic input is degree-sorted (when configured and needed) and
  /// split into max(1, pipeline.num_shards) shards first; both
  /// intermediates live in the engine's scratch directory until Close.
  /// A manifest cannot be sorted in place, so degree_sort demands its
  /// degree-sorted flag instead (InvalidArgument when cleared).
  Status Open(const std::string& path) EXCLUDES(publish_mu_);

  /// Binds to a SADJS manifest WITHOUT solving: `initial_set` (an
  /// independent set over the manifest's base graph, e.g. a previous
  /// session's output) becomes epoch 1 as-is. open_result() holds only
  /// the adopted set.
  Status OpenSharded(const std::string& manifest_path,
                     const BitVector& initial_set) EXCLUDES(publish_mu_);

  /// True between a successful Open and Close.
  bool is_open() const { return open_; }

  /// The current epoch. Never blocks on mutation; never returns a
  /// partially-published epoch. Null only before Open / after Close.
  EpochSnapshotRef Snapshot() const EXCLUDES(publish_mu_);

  /// Eagerly materializes the mutation arm: binds ShardedStreamingMis to
  /// the manifest and replays any existing SDELTA overlay on top of the
  /// current epoch's set. Called implicitly by the first mutating call;
  /// explicit use fronts the bind cost and surfaces replayed overlay
  /// state early.
  /// NOTE: a replayed overlay advances only the private successor state;
  /// the published epoch still shows the base-graph set until the next
  /// Publish().
  Status Prepare() EXCLUDES(publish_mu_);

  /// Applies one batch of edge updates to the private successor state
  /// (eager eviction + delta logging, ShardedStreamingMis semantics).
  /// Once it returns, the batch survives a process crash; the delta
  /// flush issues no fsync, so power-loss durability comes at the next
  /// epoch commit. Published epochs are unaffected until Publish().
  Status ApplyBatch(const std::vector<EdgeUpdate>& updates)
      EXCLUDES(publish_mu_);

  /// Restores maximality of the successor state: one merged pass over
  /// base shards + delta the first time after Prepare(), then a read of
  /// only the frontier the applied batches can have freed (see
  /// ShardedStreamingMis::Repair). Safe to run while readers hold
  /// snapshots.
  Status Repair() EXCLUDES(publish_mu_);

  /// Folds saturated (or, with `force`, all pending) shard deltas into
  /// the base files. Storage-only: the successor's effective graph and
  /// set are unchanged, so no new epoch is implied.
  Status Compact(bool force = false) EXCLUDES(publish_mu_);

  /// Restores global (degree, id) order after compactions cleared the
  /// manifest's degree-sorted flag: folds any pending deltas, rewrites
  /// the base shards fully sorted and publishes them through the same
  /// atomic epoch commit as Compact. Storage-only: the effective graph
  /// and the successor's set are unchanged. A no-op when the base is
  /// already sorted.
  Status Resort() EXCLUDES(publish_mu_);

  /// Freezes the successor state into a new epoch and atomically swaps
  /// it in as the current snapshot; the previous epoch retires when its
  /// last reader drops. Per-epoch stats carry the apply/repair deltas
  /// since the previous publication. A no-op (returning the current
  /// epoch) when nothing was mutated since the last publication.
  EpochSnapshotRef Publish() EXCLUDES(publish_mu_);

  /// Updates applied to the successor state since the last Publish() --
  /// how stale the served epoch is.
  uint64_t staleness() const { return pending_updates_; }

  /// True when a failed mutation commit latched the engine read-only:
  /// the store (or the private successor state) is suspect, so every
  /// later mutating call returns FailedPrecondition and Publish()
  /// returns the current epoch unchanged, while Snapshot() keeps
  /// serving the last published epoch. Sticky until Close(). Part of
  /// the mutator surface (call from the externally-serialized mutating
  /// thread, like the mutating calls themselves).
  bool read_only() const { return !degraded_.ok(); }

  /// The storage failure that tripped read-only mode (OK when healthy).
  const Status& degraded_reason() const { return degraded_; }

  /// What the open-time solve produced. A one-shot solve reads it and
  /// drops the engine.
  const SolveResult& open_result() const { return open_result_; }

  /// Cumulative streaming-session stats, or null before the mutation arm
  /// is materialized (see Prepare).
  const StreamingMisStats* streaming_stats() const {
    return mutant_ == nullptr ? nullptr : &mutant_->stats();
  }

  /// The store the open solved and the mutation arm binds to: the opened
  /// manifest, or the engine's shard copy of a monolithic input. Set by
  /// every successful open; "" only while closed.
  const std::string& manifest_path() const { return manifest_path_; }

  /// Drops the mutation arm and the current epoch (outstanding snapshot
  /// references stay valid) and releases the scratch directory. The
  /// engine can be reopened.
  Status Close() EXCLUDES(publish_mu_);

 private:
  // Lazily creates the intermediate-artifact directory.
  Status IntermediateDir(std::string* dir);
  // Prepare() minus the degradation wrapping.
  Status PrepareInner() EXCLUDES(publish_mu_);
  // Latches read-only mode when `s` is a storage failure (IOError or
  // Corruption: the store and/or the successor state are suspect).
  // InvalidArgument does NOT trip the latch -- a malformed request
  // leaves the store untouched. Returns `s` for propagation.
  Status NoteMutationResult(Status s);
  // FailedPrecondition naming `verb` when the engine is read-only.
  Status GuardMutable(const char* verb) const;
  // The solve pipeline of every open: the configured engine
  // (sharded greedy or min-id rounds) seeded into the parallel
  // swap executor.
  Status RunShardPipeline(const std::string& manifest_path,
                          SolveResult* res);
  // Turns a SADJ file into the engine's shard store: the degree sort
  // writes the shards when GREEDY order is configured and the header is
  // not sorted, otherwise the file is split as-is. Charges sort/split
  // I/O, time and the sort's peak memory to `res`.
  Status BuildShardStore(const std::string& adjacency_path, SolveResult* res,
                         std::string* manifest_path);
  // Rejects a second open and clears the previous open's result.
  Status BeginOpen();
  // Publishes `res` as epoch 1 over the store at `manifest_path`.
  void PublishFirstEpoch(const std::string& manifest_path, SolveResult res)
      EXCLUDES(publish_mu_);
  // Swaps `snapshot` in as the current epoch.
  void Install(EpochSnapshotRef snapshot) EXCLUDES(publish_mu_);
  // Stats of the successor session at the last publication, for
  // computing per-epoch deltas.
  struct PublishedMark {
    uint64_t repair_passes = 0;
    uint64_t repair_added = 0;
    double apply_seconds = 0.0;
    double repair_seconds = 0.0;
  };

  MisEngineOptions options_;
  bool open_ = false;
  // The engine-side shard store of a monolithic open lives here so it
  // outlives Open when the engine stays resident.
  ScratchDir scratch_;
  std::string inter_dir_;
  std::string manifest_path_;
  SolveResult open_result_;
  // The mutation arm, materialized on first use.
  std::unique_ptr<ShardedStreamingMis> mutant_;
  // Pending (unpublished) mutation bookkeeping.
  uint64_t pending_batches_ = 0;
  uint64_t pending_updates_ = 0;
  bool dirty_ = false;
  PublishedMark mark_;
  uint64_t epoch_ = 0;
  // OK while healthy; the tripping failure once read-only (sticky).
  Status degraded_;
  // Guards only `current_`: held for the pointer copy in Snapshot() and
  // the pointer swap in Install(), never across I/O or compute. That is
  // the whole RCU rule, and the EXCLUDES(publish_mu_) contract on every
  // mutating call above makes the compiler enforce it: a mutator that
  // tried to do its work while holding the publication mutex would fail
  // the thread-safety analysis.
  mutable Mutex publish_mu_;
  EpochSnapshotRef current_ GUARDED_BY(publish_mu_);
};

}  // namespace semis

#endif  // SEMIS_CORE_ENGINE_H_
