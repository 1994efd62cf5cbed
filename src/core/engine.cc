#include "core/engine.h"

#include <algorithm>
#include <utility>

#include "core/parallel_greedy.h"
#include "core/parallel_swap.h"
#include "core/rounds_engine.h"
#include "core/verify.h"
#include "graph/adjacency_file.h"
#include "graph/degree_sort.h"
#include "graph/shard_store.h"
#include "graph/sharded_adjacency_file.h"
#include "util/memory_tracker.h"
#include "util/timer.h"

namespace semis {

Status MisEngine::IntermediateDir(std::string* dir) {
  if (inter_dir_.empty()) {
    if (!options_.scratch_dir.empty()) {
      inter_dir_ = options_.scratch_dir;
    } else {
      SEMIS_RETURN_IF_ERROR(ScratchDir::Create("semis-engine", &scratch_));
      inter_dir_ = scratch_.path();
    }
  }
  *dir = inter_dir_;
  return Status::OK();
}

Status MisEngine::RunShardPipeline(const std::string& manifest_path,
                                   SolveResult* res) {
  std::vector<VState> seed_states;
  const AlgoResult* final_stage = nullptr;
  if (options_.pipeline.engine == SolveEngine::kRounds) {
    MinIdRoundsOptions rounds_opts;
    rounds_opts.pipeline = options_.pipeline;
    SEMIS_RETURN_IF_ERROR(RunMinIdRoundsWithStates(
        manifest_path, rounds_opts, &res->rounds, &seed_states));
    final_stage = &res->rounds;
  } else {
    ParallelGreedyOptions greedy_opts;
    greedy_opts.greedy.require_degree_sorted = options_.degree_sort;
    greedy_opts.pipeline = options_.pipeline;
    SEMIS_RETURN_IF_ERROR(RunParallelGreedyWithStates(
        manifest_path, greedy_opts, &res->greedy, &seed_states));
    final_stage = &res->greedy;
  }
  if (options_.swap != SwapMode::kNone) {
    ParallelSwapOptions swap_opts;
    swap_opts.max_rounds = options_.max_swap_rounds;
    swap_opts.num_threads = options_.pipeline.num_threads;
    swap_opts.enable_two_k = options_.swap == SwapMode::kTwoK;
    SEMIS_RETURN_IF_ERROR(RunParallelSwap(manifest_path, seed_states,
                                          swap_opts, &res->swap));
    final_stage = &res->swap;
  }
  res->set = final_stage->in_set;
  res->set_size = final_stage->set_size;
  return Status::OK();
}

Status MisEngine::BuildShardStore(const std::string& adjacency_path,
                                  SolveResult* res,
                                  std::string* manifest_path) {
  std::string dir;
  SEMIS_RETURN_IF_ERROR(IntermediateDir(&dir));
  *manifest_path = dir + "/sharded.sadjs";
  const uint32_t num_shards =
      std::max<uint32_t>(1, options_.pipeline.num_shards);
  WallTimer shard_timer;
  AdjacencyFileScanner scanner(&res->io);
  SEMIS_RETURN_IF_ERROR(scanner.Open(adjacency_path));
  const AdjacencyFileHeader header = scanner.header();
  if (!options_.degree_sort ||
      options_.pipeline.engine == SolveEngine::kRounds ||
      header.IsDegreeSorted()) {
    // Consumed as-is: the split copies the header flags, so the store is
    // degree-sorted exactly when the input is. The header probe is closed
    // first and its I/O is charged to the aggregate like every other read.
    SEMIS_RETURN_IF_ERROR(scanner.Close());
    SEMIS_RETURN_IF_ERROR(ShardAdjacencyFile(adjacency_path, *manifest_path,
                                             num_shards, &res->io));
  } else {
    // The degree sort writes the shards itself: no sorted intermediate.
    WallTimer sort_timer;
    MemoryTracker sort_memory;
    DegreeSortOptions sort_opts;
    sort_opts.memory_budget_bytes = options_.sort_memory_budget_bytes;
    sort_opts.fan_in = options_.sort_fan_in;
    sort_opts.stats = &res->io;
    sort_opts.memory = &sort_memory;
    SEMIS_RETURN_IF_ERROR(BuildDegreeSortedShardStore(
        &scanner, *manifest_path, num_shards, sort_opts));
    res->sort_seconds = sort_timer.ElapsedSeconds();
    res->peak_memory_bytes = sort_memory.PeakBytes();
  }
  res->shard_seconds = shard_timer.ElapsedSeconds();
  return Status::OK();
}

Status MisEngine::BeginOpen() {
  if (open_) {
    return Status::InvalidArgument("engine is already open; Close() first");
  }
  open_result_ = SolveResult();
  return Status::OK();
}

void MisEngine::PublishFirstEpoch(const std::string& manifest_path,
                                  SolveResult res) {
  manifest_path_ = manifest_path;
  open_result_ = std::move(res);
  epoch_ = 1;
  Install(std::make_shared<const EpochSnapshot>(
      epoch_, open_result_.set, open_result_.set_size, EpochStats{}));
  open_ = true;
}

Status MisEngine::Open(const std::string& path) {
  SEMIS_RETURN_IF_ERROR(BeginOpen());
  WallTimer timer;
  SolveResult res;
  std::string manifest_path = path;
  bool is_store = false;
  SEMIS_RETURN_IF_ERROR(ProbeShardStoreRoot(path, &is_store));
  if (!is_store) {
    SEMIS_RETURN_IF_ERROR(BuildShardStore(path, &res, &manifest_path));
  }
  // `manifest_path` is the store ROOT: a plain SADM manifest or a SEPR
  // epoch root pointer. Resolve here for the direct manifest read, but
  // keep passing the root downstream -- every consumer (executors,
  // verifier, streaming maintainer) resolves it itself, so epoch flips
  // between stages are impossible to mis-path.
  ShardedAdjacencyManifest manifest;
  SEMIS_RETURN_IF_ERROR(
      ReadShardStoreManifest(manifest_path, &manifest, &res.io));
  if (options_.degree_sort &&
      options_.pipeline.engine != SolveEngine::kRounds &&
      !manifest.header.IsDegreeSorted()) {
    return Status::InvalidArgument(
        "sharded input is not degree-sorted and cannot be sorted in place; "
        "sort before sharding or set degree_sort = false: " + manifest_path);
  }
  res.degree_sorted = manifest.header.IsDegreeSorted();

  SEMIS_RETURN_IF_ERROR(RunShardPipeline(manifest_path, &res));

  res.io.MergeFrom(res.greedy.io);
  res.io.MergeFrom(res.rounds.io);
  res.io.MergeFrom(res.swap.io);
  res.peak_memory_bytes =
      std::max({res.peak_memory_bytes, res.greedy.peak_memory_bytes,
                res.rounds.peak_memory_bytes, res.swap.peak_memory_bytes});

  if (options_.verify) {
    VerifyResult vr;
    SEMIS_RETURN_IF_ERROR(
        VerifyIndependentSetShardedFile(manifest_path, res.set, &vr));
    if (!vr.independent) {
      return Status::Corruption("solver produced a non-independent set");
    }
    if (!vr.maximal) {
      return Status::Corruption("solver produced a non-maximal set");
    }
  }

  res.seconds = timer.ElapsedSeconds();
  PublishFirstEpoch(manifest_path, std::move(res));
  return Status::OK();
}

Status MisEngine::OpenSharded(const std::string& manifest_path,
                              const BitVector& initial_set) {
  SEMIS_RETURN_IF_ERROR(BeginOpen());
  SolveResult res;
  ShardedAdjacencyManifest manifest;
  SEMIS_RETURN_IF_ERROR(
      ReadShardStoreManifest(manifest_path, &manifest, &res.io));
  if (initial_set.size() != manifest.header.num_vertices) {
    return Status::InvalidArgument(
        "initial set covers " + std::to_string(initial_set.size()) +
        " vertices but the manifest holds " +
        std::to_string(manifest.header.num_vertices) + ": " + manifest_path);
  }
  res.degree_sorted = manifest.header.IsDegreeSorted();
  res.set = initial_set;
  res.set_size = res.set.Count();
  PublishFirstEpoch(manifest_path, std::move(res));
  return Status::OK();
}

EpochSnapshotRef MisEngine::Snapshot() const {
  MutexLock lock(&publish_mu_);
  return current_;
}

void MisEngine::Install(EpochSnapshotRef snapshot) {
  MutexLock lock(&publish_mu_);
  current_ = std::move(snapshot);
}

Status MisEngine::NoteMutationResult(Status s) {
  if (!s.ok() && (s.IsIOError() || s.IsCorruption())) {
    degraded_ = s;
  }
  return s;
}

Status MisEngine::GuardMutable(const char* verb) const {
  if (degraded_.ok()) return Status::OK();
  return Status::FailedPrecondition(
      std::string(verb) +
      " rejected: engine is read-only after a storage failure (" +
      degraded_.ToString() + ")");
}

Status MisEngine::Prepare() {
  SEMIS_RETURN_IF_ERROR(GuardMutable("Prepare"));
  return NoteMutationResult(PrepareInner());
}

Status MisEngine::PrepareInner() {
  if (!open_) {
    return Status::InvalidArgument("engine is not open");
  }
  if (mutant_ != nullptr) return Status::OK();
  auto mutant = std::make_unique<ShardedStreamingMis>();
  // The successor starts from the served epoch's set; an existing SDELTA
  // overlay (a previous session's unfinished stream) is replayed on top.
  SEMIS_RETURN_IF_ERROR(mutant->Initialize(manifest_path_, Snapshot()->set(),
                                           options_.pipeline));
  mutant_ = std::move(mutant);
  mark_ = PublishedMark{};
  // A replayed overlay (a previous session's unfinished stream) may have
  // moved the successor away from the served epoch; make sure the next
  // Publish() surfaces it even if this session applies nothing itself.
  if (mutant_->stats().pending_delta_entries > 0 ||
      mutant_->set_size() != Snapshot()->set_size()) {
    dirty_ = true;
  }
  return Status::OK();
}

Status MisEngine::ApplyBatch(const std::vector<EdgeUpdate>& updates) {
  SEMIS_RETURN_IF_ERROR(Prepare());
  SEMIS_RETURN_IF_ERROR(NoteMutationResult(mutant_->ApplyBatch(updates)));
  pending_batches_ += 1;
  pending_updates_ += updates.size();
  dirty_ = true;
  return Status::OK();
}

Status MisEngine::Repair() {
  SEMIS_RETURN_IF_ERROR(Prepare());
  SEMIS_RETURN_IF_ERROR(NoteMutationResult(mutant_->Repair()));
  dirty_ = true;
  return Status::OK();
}

Status MisEngine::Compact(bool force) {
  SEMIS_RETURN_IF_ERROR(Prepare());
  // Storage-only: folding the delta never changes the effective graph or
  // the membership, so the published epoch stays truthful.
  return NoteMutationResult(mutant_->Compact(force));
}

Status MisEngine::Resort() {
  SEMIS_RETURN_IF_ERROR(Prepare());
  // Storage-only like Compact: records move, membership does not.
  return NoteMutationResult(mutant_->Resort());
}

EpochSnapshotRef MisEngine::Publish() {
  if (!open_) return nullptr;
  // Read-only: the successor state may hold a half-applied batch, so it
  // must never become an epoch. Keep serving the last good one.
  if (!degraded_.ok()) return Snapshot();
  if (!dirty_ || mutant_ == nullptr) return Snapshot();
  const StreamingMisStats& st = mutant_->stats();
  EpochStats stats;
  stats.batches = pending_batches_;
  stats.updates = pending_updates_;
  stats.repair_passes = st.repair_passes - mark_.repair_passes;
  stats.repair_added = st.repair_added - mark_.repair_added;
  stats.apply_seconds = st.apply_seconds - mark_.apply_seconds;
  stats.repair_seconds = st.repair_seconds - mark_.repair_seconds;
  epoch_ += 1;
  auto snapshot = std::make_shared<const EpochSnapshot>(
      epoch_, mutant_->set(), mutant_->set_size(), stats);
  Install(snapshot);
  mark_.repair_passes = st.repair_passes;
  mark_.repair_added = st.repair_added;
  mark_.apply_seconds = st.apply_seconds;
  mark_.repair_seconds = st.repair_seconds;
  pending_batches_ = 0;
  pending_updates_ = 0;
  dirty_ = false;
  return snapshot;
}

Status MisEngine::Close() {
  mutant_.reset();
  Install(nullptr);
  open_ = false;
  epoch_ = 0;
  pending_batches_ = 0;
  pending_updates_ = 0;
  dirty_ = false;
  degraded_ = Status::OK();  // a reopened engine starts healthy
  mark_ = PublishedMark{};
  manifest_path_.clear();
  inter_dir_.clear();
  return scratch_.Remove();
}

}  // namespace semis
