#include "core/incremental_stream.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>

#include "graph/degree_sort.h"
#include "io/epoch_journal.h"
#include "util/crash_point.h"
#include "util/fan_out.h"
#include "util/memory_tracker.h"
#include "util/timer.h"

namespace semis {

Status ShardedStreamingMis::Initialize(const std::string& manifest_path,
                                       const BitVector& initial_set,
                                       const EnginePipelineOptions& options) {
  // A new session: nothing of a previous one survives, including a wedge
  // left by a failed flush, and the frontier is unknown until the first
  // (full) repair.
  initialized_ = false;
  wedged_ = false;
  in_resort_ = false;
  stats_ = StreamingMisStats();
  DropFrontier();
  // Crash recovery first: resolve the root (legacy SADM or journaled
  // SEPR), fall back one epoch if the current one is torn, and remove
  // orphaned files a crashed commit left behind.
  ShardStoreRecovery recovery;
  SEMIS_RETURN_IF_ERROR(
      RecoverShardStore(manifest_path, &store_, &recovery, &stats_.io));
  if (recovery.fell_back) stats_.epoch_fallbacks++;
  stats_.orphan_files_removed += recovery.orphan_files_removed;
  root_path_ = manifest_path;
  manifest_path_ = store_.manifest_path;
  SEMIS_RETURN_IF_ERROR(
      ReadShardedAdjacencyManifest(manifest_path_, &manifest_, &stats_.io));
  if (manifest_.header.num_vertices != initial_set.size()) {
    return Status::InvalidArgument("set size != graph vertex count");
  }
  delta_path_ = EdgeDeltaManifestPath(manifest_path_);
  options_ = options;
  n_ = manifest_.header.num_vertices;
  set_ = initial_set;
  set_size_ = set_.Count();
  ClearDeltaState();
  pending_.assign(manifest_.num_shards(), {});
  next_sequence_ = 0;

  SEMIS_RETURN_IF_ERROR(locator_.Build(manifest_path_, manifest_, &stats_.io));

  // Resume from an existing overlay, or start a fresh (empty) one.
  uint64_t size = 0;
  const bool delta_exists = GetFileSize(delta_path_, &size).ok();
  if (delta_exists) {
    SEMIS_RETURN_IF_ERROR(ReplayExistingDelta());
  } else {
    EdgeDeltaManifest dm;
    dm.num_vertices = n_;
    dm.next_sequence = 0;
    dm.shard_entries.assign(manifest_.num_shards(), 0);
    for (uint32_t k = 0; k < manifest_.num_shards(); ++k) {
      SEMIS_RETURN_IF_ERROR(CreateEdgeDeltaShardLog(
          EdgeDeltaShardPath(delta_path_, k), k, n_, &stats_.io));
    }
    SEMIS_RETURN_IF_ERROR(
        WriteEdgeDeltaManifest(delta_path_, dm, &stats_.io));
  }
  initialized_ = true;
  AccountMemory();
  return Status::OK();
}

Status ShardedStreamingMis::RewriteShardLog(uint32_t shard) {
  // Write-new + rename rather than truncate in place: the live log may be
  // hard-linked into the previous epoch's namespace, and truncating the
  // shared inode would corrupt the fallback epoch the journal promises.
  const std::string log_path = EdgeDeltaShardPath(delta_path_, shard);
  const std::string tmp_path = log_path + ".tmp";
  SEMIS_RETURN_IF_ERROR(
      CreateEdgeDeltaShardLog(tmp_path, shard, n_, &stats_.io));
  if (!pending_[shard].empty()) {
    EdgeDeltaShardWriter writer(&stats_.io, pending_[shard].size());
    SEMIS_RETURN_IF_ERROR(writer.Open(tmp_path, n_));
    for (const EdgeDeltaEntry& entry : pending_[shard]) {
      SEMIS_RETURN_IF_ERROR(writer.Append(entry));
    }
    SEMIS_RETURN_IF_ERROR(writer.Close());
  }
  return RenameFile(tmp_path, log_path);
}

Status ShardedStreamingMis::ReplayExistingDelta() {
  EdgeDeltaManifest dm;
  SEMIS_RETURN_IF_ERROR(ReadEdgeDeltaManifest(delta_path_, &dm, &stats_.io));
  if (dm.num_vertices != n_) {
    return Status::Corruption("edge-delta overlay disagrees with the SADJS "
                              "manifest vertex count");
  }
  if (dm.num_shards() != manifest_.num_shards()) {
    return Status::Corruption("edge-delta overlay disagrees with the SADJS "
                              "manifest shard count");
  }
  uint64_t pending_total = 0;
  for (uint32_t k = 0; k < dm.num_shards(); ++k) {
    // Tolerate (and drop) bytes past the manifest-declared count: they
    // are a crashed session's unflushed final batch -- the manifest is
    // authoritative, and "a crash loses at most the unflushed tail" is
    // exactly this truncation. The log is rewritten clean so the dropped
    // junk cannot end up in the middle of future appends.
    bool had_tail = false;
    SEMIS_RETURN_IF_ERROR(ReadEdgeDeltaShardLog(
        delta_path_, dm, k, &pending_[k], &stats_.io,
        /*tolerate_trailing_bytes=*/true, &had_tail));
    if (pending_[k].size() != dm.shard_entries[k]) {
      return Status::Corruption("edge-delta shard log entry count "
                                "disagrees with the delta manifest");
    }
    if (had_tail) {
      SEMIS_RETURN_IF_ERROR(RewriteShardLog(k));
      stats_.recovered_log_tails++;
    }
    pending_total += pending_[k].size();
  }
  // Merge the routed copies back into the global stream: sort by sequence
  // number and drop (after cross-checking) the second copy of cross-shard
  // updates. Then replay in stream order. Replay reproduces the original
  // apply decisions exactly -- every logged entry changed state when it
  // was applied, so it changes state again here.
  std::vector<EdgeDeltaEntry> merged;
  merged.reserve(pending_total);
  for (const auto& shard_entries : pending_) {
    merged.insert(merged.end(), shard_entries.begin(), shard_entries.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const EdgeDeltaEntry& a, const EdgeDeltaEntry& b) {
              return a.seq < b.seq;
            });
  for (size_t i = 0; i < merged.size(); ++i) {
    const EdgeDeltaEntry& entry = merged[i];
    if (i > 0 && entry.seq == merged[i - 1].seq) {
      const EdgeDeltaEntry& first = merged[i - 1];
      if (first.op != entry.op || first.u != entry.u || first.v != entry.v) {
        return Status::Corruption("routed delta copies with the same "
                                  "sequence number disagree");
      }
      continue;  // second routed copy of a cross-shard update
    }
    (void)ApplyToState(EdgeUpdate{entry.op, entry.u, entry.v});
  }
  next_sequence_ = dm.next_sequence;
  stats_.pending_delta_entries = pending_total;
  return Status::OK();
}

Status ShardedStreamingMis::ValidateUpdate(const EdgeUpdate& update) const {
  if (update.op != EdgeDeltaOp::kInsert && update.op != EdgeDeltaOp::kDelete) {
    return Status::InvalidArgument("unknown edge update op");
  }
  if (update.u == update.v) {
    return Status::InvalidArgument("self-loop edge update");
  }
  if (update.u >= n_ || update.v >= n_) {
    return Status::InvalidArgument("edge update vertex id out of range");
  }
  return Status::OK();
}

void ShardedStreamingMis::ClearDeltaState() {
  inserted_keys_.Clear();
  deleted_keys_.Clear();
  inserted_head_.assign(n_, kNoNode);
  inserted_pool_.clear();
  free_node_ = kNoNode;
}

bool ShardedStreamingMis::InsertDeltaEdge(VertexId u, VertexId v) {
  if (!inserted_keys_.Insert(EdgeKey(u, v))) return false;
  LinkInserted(u, v);
  LinkInserted(v, u);
  return true;
}

void ShardedStreamingMis::EraseDeltaEdge(VertexId u, VertexId v) {
  if (!inserted_keys_.Erase(EdgeKey(u, v))) return;
  UnlinkInserted(u, v);
  UnlinkInserted(v, u);
}

void ShardedStreamingMis::LinkInserted(VertexId u, VertexId v) {
  // Freed nodes are reused first, so the pool never outgrows the most
  // inserted edges live at once.
  uint32_t node = free_node_;
  if (node != kNoNode) {
    free_node_ = inserted_pool_[node].next;
  } else {
    node = static_cast<uint32_t>(inserted_pool_.size());
    inserted_pool_.emplace_back();
  }
  inserted_pool_[node] = InsertedNode{v, inserted_head_[u]};
  inserted_head_[u] = node;
}

void ShardedStreamingMis::UnlinkInserted(VertexId u, VertexId v) {
  uint32_t* link = &inserted_head_[u];
  while (inserted_pool_[*link].neighbor != v) {
    link = &inserted_pool_[*link].next;
  }
  const uint32_t node = *link;
  *link = inserted_pool_[node].next;
  inserted_pool_[node].next = free_node_;
  free_node_ = node;
}

bool ShardedStreamingMis::HasInsertedSetNeighbor(VertexId u) const {
  for (uint32_t node = inserted_head_[u]; node != kNoNode;
       node = inserted_pool_[node].next) {
    if (set_.Test(inserted_pool_[node].neighbor)) return true;
  }
  return false;
}

bool ShardedStreamingMis::ApplyToState(const EdgeUpdate& update) {
  const uint64_t key = EdgeKey(update.u, update.v);
  if (update.op == EdgeDeltaOp::kInsert) {
    if (!InsertDeltaEdge(update.u, update.v)) return false;  // live in delta
    deleted_keys_.Erase(key);
    // Eager independence maintenance: the larger id leaves, as in
    // IncrementalMis (and the lowest-id-wins rule of the swap executor).
    if (set_.Test(update.u) && set_.Test(update.v)) {
      const VertexId evicted = update.u > update.v ? update.u : update.v;
      set_.Clear(evicted);
      set_size_--;
      stats_.evictions++;
      // It may now be free, and so may every neighbor it was the only
      // set neighbor of.
      NoteEviction(evicted);
    }
    return true;
  }
  if (!deleted_keys_.Insert(key)) return false;  // already deleted
  EraseDeltaEdge(update.u, update.v);
  // A deletion can only open a maximality gap, at one of its endpoints;
  // Repair() closes it.
  AddToFrontier(update.u);
  AddToFrontier(update.v);
  return true;
}

uint64_t ShardedStreamingMis::FrontierLimit() const {
  return std::max<uint64_t>(n_ / kRepairFrontierDivisor,
                            kRepairFrontierFloor);
}

void ShardedStreamingMis::AddToFrontier(VertexId v) {
  if (!frontier_known_) return;
  if (frontier_.size() + evicted_.size() >= FrontierLimit()) {
    DropFrontier();  // the full pass is cheaper now; stop collecting
    return;
  }
  frontier_.push_back(v);
}

void ShardedStreamingMis::NoteEviction(VertexId v) {
  AddToFrontier(v);
  if (frontier_known_) evicted_.push_back(v);
}

void ShardedStreamingMis::DropFrontier() {
  frontier_known_ = false;
  frontier_.clear();
  evicted_.clear();
}

Status ShardedStreamingMis::CheckUsable() const {
  if (!initialized_) {
    return Status::InvalidArgument("streaming maintainer not initialized");
  }
  if (wedged_) {
    return Status::InvalidArgument(
        "streaming maintainer wedged by an earlier flush, epoch flip or "
        "post-resort reload failure; re-Initialize to recover from disk");
  }
  return Status::OK();
}

Status ShardedStreamingMis::ApplyBatch(const std::vector<EdgeUpdate>& updates) {
  SEMIS_RETURN_IF_ERROR(CheckUsable());
  WallTimer timer;
  // Validate everything up front: a bad update fails the whole batch
  // before any state or log is touched, so callers never see a partially
  // applied batch.
  for (const EdgeUpdate& update : updates) {
    SEMIS_RETURN_IF_ERROR(ValidateUpdate(update));
  }
  // Apply in order and collect the logged tail per shard.
  std::vector<std::vector<EdgeDeltaEntry>> fresh(manifest_.num_shards());
  for (const EdgeUpdate& update : updates) {
    stats_.updates_applied++;
    if (update.op == EdgeDeltaOp::kInsert) {
      stats_.inserts++;
    } else {
      stats_.deletes++;
    }
    if (!ApplyToState(update)) {
      stats_.redundant_updates++;
      continue;
    }
    EdgeDeltaEntry entry{next_sequence_++, update.op, update.u, update.v};
    const uint32_t su = locator_.ShardOf(update.u);
    const uint32_t sv = locator_.ShardOf(update.v);
    fresh[su].push_back(entry);
    pending_[su].push_back(entry);
    if (sv != su) {
      fresh[sv].push_back(entry);
      pending_[sv].push_back(entry);
    }
  }
  // Flush: append the tails, then republish the (authoritative) counts.
  // A failure here leaves the in-memory state ahead of the on-disk
  // overlay; publishing counts for entries that never hit disk would
  // brick the redo stream, so the maintainer wedges instead: further
  // mutations are refused and a re-Initialize recovers from disk (the
  // unmanifested tail is dropped as a torn batch).
  const auto flush = [&]() -> Status {
    EdgeDeltaManifest dm;
    dm.num_vertices = n_;
    dm.next_sequence = next_sequence_;
    dm.shard_entries.resize(manifest_.num_shards());
    for (uint32_t k = 0; k < manifest_.num_shards(); ++k) {
      if (!fresh[k].empty()) {
        EdgeDeltaShardWriter writer(&stats_.io, fresh[k].size());
        SEMIS_RETURN_IF_ERROR(
            writer.Open(EdgeDeltaShardPath(delta_path_, k), n_));
        for (const EdgeDeltaEntry& entry : fresh[k]) {
          SEMIS_RETURN_IF_ERROR(writer.Append(entry));
        }
        SEMIS_RETURN_IF_ERROR(writer.Close());
      }
      dm.shard_entries[k] = pending_[k].size();
    }
    return WriteEdgeDeltaManifest(delta_path_, dm, &stats_.io);
  };
  Status flushed = flush();
  if (!flushed.ok()) {
    wedged_ = true;
    return flushed;
  }
  uint64_t pending_total = 0;
  for (const auto& shard_entries : pending_) {
    pending_total += shard_entries.size();
  }
  stats_.pending_delta_entries = pending_total;
  stats_.apply_seconds += timer.ElapsedSeconds();
  AccountMemory();
  if (options_.compact_threshold_entries > 0) {
    SEMIS_RETURN_IF_ERROR(Compact(/*force=*/false));
  }
  return Status::OK();
}

bool ShardedStreamingMis::TryJoin(const VertexRecordView& rec) {
  // The exact sequential rule of IncrementalMis::Repair: a non-member
  // with no live set neighbor (base edges masked by deletes, plus
  // inserted edges) joins, and later records observe the addition
  // through set_.
  const VertexId u = rec.id;
  if (set_.Test(u)) return false;
  for (uint32_t i = 0; i < rec.degree; ++i) {
    const VertexId nb = rec.neighbors[i];
    if (set_.Test(nb) && !deleted_keys_.Contains(EdgeKey(u, nb))) {
      return false;
    }
  }
  if (HasInsertedSetNeighbor(u)) return false;
  set_.Set(u);
  set_size_++;
  return true;
}

Status ShardedStreamingMis::RepairFull(uint64_t* added) {
  ManifestOrderedShardCursor cursor(&stats_.io);
  SEMIS_RETURN_IF_ERROR(cursor.Open(manifest_path_));
  VertexRecordView rec;
  bool has_next = false;
  while (true) {
    SEMIS_RETURN_IF_ERROR(cursor.Next(&rec, &has_next));
    if (!has_next) break;
    if (TryJoin(rec)) (*added)++;
  }
  return cursor.Close();
}

Status ShardedStreamingMis::RepairFrontier(uint64_t* added) {
  // Expanding an eviction adds about one entry per neighbor. When that
  // alone would overflow the frontier, skip the reads and leave the work
  // to the full pass.
  const uint64_t avg_degree =
      n_ == 0 ? 0 : manifest_.header.num_directed_edges / n_;
  if (frontier_.size() + evicted_.size() * avg_degree >= FrontierLimit()) {
    DropFrontier();
    return Status::OK();
  }
  const ShardFrontierReader reader(manifest_path_, manifest_, locator_,
                                   ResolveThreadCount(options_.num_threads));
  if (!evicted_.empty()) {
    SEMIS_RETURN_IF_ERROR(ExpandEvictions(reader));
    if (!frontier_known_) return Status::OK();  // overflowed: full pass
  }
  // Re-check the frontier's non-members in manifest order. One with an
  // inserted edge to a member stays out without a read: the set only
  // grows during a repair.
  std::vector<VertexId> candidates;
  candidates.reserve(frontier_.size());
  for (VertexId v : frontier_) {
    if (!set_.Test(v) && !HasInsertedSetNeighbor(v)) candidates.push_back(v);
  }
  locator_.SortByRank(&candidates);
  return CommitCandidates(reader, candidates, added);
}

Status ShardedStreamingMis::ExpandEvictions(const ShardFrontierReader& reader) {
  // An evicted vertex's neighbors may have lost their only set neighbor:
  // read its record and collect its base and inserted neighbors, one
  // list per shard, in rank order. Nothing shared is written until every
  // read succeeded.
  std::vector<VertexId> evicted = evicted_;
  locator_.SortByRank(&evicted);
  // Feeding more than `room` ids overflows the frontier, whatever else
  // is read. A visitor that sees more collected stops collecting; that
  // bounds the lists and leaves the overflow as certain as before.
  const uint64_t limit = FrontierLimit();
  const uint64_t room = limit > frontier_.size() ? limit - frontier_.size() : 0;
  std::atomic<uint64_t> collected{0};
  std::vector<std::vector<VertexId>> freed(manifest_.num_shards());
  SEMIS_RETURN_IF_ERROR(reader.Read(
      evicted, &stats_.io, [&](uint32_t shard, const VertexRecordView& rec) {
        if (collected > room) return;
        std::vector<VertexId>& out = freed[shard];
        const size_t before = out.size();
        out.insert(out.end(), rec.neighbors, rec.neighbors + rec.degree);
        for (uint32_t node = inserted_head_[rec.id]; node != kNoNode;
             node = inserted_pool_[node].next) {
          out.push_back(inserted_pool_[node].neighbor);
        }
        collected += out.size() - before;
      }));
  size_t bytes = evicted.capacity() * sizeof(VertexId);
  for (const std::vector<VertexId>& ids : freed) {
    bytes += ids.capacity() * sizeof(VertexId);
  }
  AccountTransientMemory(bytes);
  // Fed in shard order, the ids arrive in the evictions' rank order, and
  // whether the frontier overflows depends only on their count. From
  // here the evictions are accounted for, so a retry after a later
  // failure does not read them again.
  evicted_.clear();
  for (const std::vector<VertexId>& ids : freed) {
    for (VertexId v : ids) AddToFrontier(v);
  }
  return Status::OK();
}

Status ShardedStreamingMis::CommitCandidates(
    const ShardFrontierReader& reader, const std::vector<VertexId>& candidates,
    uint64_t* added) {
  // Phase 1, read-only, through the reader (on forked workers above
  // one). The set only grows during a repair, so a candidate with a live
  // set neighbor now stays out, and phase 1 drops it. A survivor can be
  // blocked later only by a candidate that joins before its turn, so it
  // keeps its record, per shard in rank order, as the words
  // [id, degree, neighbors...]. Nothing is committed until every read
  // succeeded, so a failed read changes nothing.
  std::vector<std::vector<VertexId>> survivors(manifest_.num_shards());
  SEMIS_RETURN_IF_ERROR(reader.Read(
      candidates, &stats_.io, [&](uint32_t shard, const VertexRecordView& rec) {
        for (const VertexId nb : rec) {
          if (set_.Test(nb) && !deleted_keys_.Contains(EdgeKey(rec.id, nb))) {
            return;
          }
        }
        std::vector<VertexId>& out = survivors[shard];
        out.push_back(rec.id);
        out.push_back(rec.degree);
        out.insert(out.end(), rec.begin(), rec.end());
      }));
  size_t bytes = candidates.capacity() * sizeof(VertexId);
  for (const std::vector<VertexId>& words : survivors) {
    bytes += words.capacity() * sizeof(VertexId);
  }
  AccountTransientMemory(bytes);
  // Phase 2, on this thread, in rank order: TryJoin on each survivor's
  // record, at the same point of the same sequence as the full pass.
  for (const std::vector<VertexId>& words : survivors) {
    for (size_t at = 0; at < words.size(); at += 2 + words[at + 1]) {
      if (TryJoin(VertexRecordView{words[at], words[at + 1],
                                   words.data() + at + 2})) {
        (*added)++;
      }
    }
  }
  return Status::OK();
}

Status ShardedStreamingMis::Repair() {
  SEMIS_RETURN_IF_ERROR(CheckUsable());
  WallTimer timer;
  uint64_t added = 0;
  if (frontier_known_) SEMIS_RETURN_IF_ERROR(RepairFrontier(&added));
  if (!frontier_known_) {
    SEMIS_RETURN_IF_ERROR(RepairFull(&added));
    stats_.full_repair_passes++;
  }
  // The set is maximal now: the next repair starts from an empty, known
  // frontier.
  frontier_known_ = true;
  frontier_.clear();
  evicted_.clear();
  stats_.repair_passes++;
  stats_.repair_added += added;
  stats_.repair_seconds += timer.ElapsedSeconds();
  AccountMemory();
  return Status::OK();
}

namespace {

// One edge that a pending entry names at a record of the shard being
// compacted: the record's manifest rank, the edge's other end, and what
// the fold does with it.
struct Fold {
  uint32_t rank;
  VertexId partner;
  bool deleted;
  bool in_base;  // an inserted partner the base record already lists
};

// One range of a compacted shard: the folds that name its records, its
// slot of the output buffer, and what its fold wrote.
struct FoldedRange {
  size_t fold_begin = 0;  // folds [fold_begin, fold_end) name its records
  size_t fold_end = 0;
  size_t slot = 0;   // first word of its slot in the output buffer
  size_t words = 0;  // words written to the slot
  ShardInfo info;  // its records, with their folded degrees
  uint32_t max_degree = 0;
  bool changed = false;  // a fold changed one of its records
  IoStats io;
};

// Reads `range` of shard `shard` and writes its records, folded, to
// `slot`, which holds the range's bytes plus one word per fold naming
// one of its records (a fold adds at most one word). The byte offset
// within the slot of the range's every kLocatorCheckpointStride-th
// record goes to `checkpoints`, one entry per checkpoint the range
// starts. Runs on a worker: it writes only its own range's folds, slot,
// checkpoints and `out`.
Status FoldRange(const std::string& manifest_path,
                 const ShardedAdjacencyManifest& manifest,
                 const ShardRecordLocator& locator, uint32_t shard,
                 const ShardRecordRange& range, Fold* folds,
                 FoldedRange* out, uint32_t* slot, uint64_t* checkpoints) {
  // The scanner's buffer holds the bytes the range reads, the shard
  // header included for a shard's first range, up to a scan's 1 MiB:
  // one fill reads a range of up to that size.
  const uint64_t start = range.first_record == 0 ? 0 : range.begin_offset;
  AdjacencyFileScanner scanner(
      &out->io, static_cast<size_t>(std::min<uint64_t>(
                    range.end_offset - start, kScanBufferBytes)));
  SEMIS_RETURN_IF_ERROR(scanner.OpenShard(manifest_path, manifest, shard,
                                          range));
  // Records no fold names are copied verbatim, a run of consecutive ones
  // per copy: their bytes lie back to back in the scanner's buffer until
  // it refills, so the run is copied before any Next that is not served
  // from the buffer (a refill, or the end) and before a folded record.
  // Every record is still decoded and validated by Next.
  uint32_t* dst = slot;
  const uint32_t* run = nullptr;
  size_t run_words = 0;
  const auto copy_run = [&] {
    if (run_words == 0) return;
    std::memcpy(dst, run, run_words * sizeof(uint32_t));
    dst += run_words;
    run_words = 0;
  };
  uint64_t rank = locator.first_rank(shard) + range.first_record;
  uint64_t record = 0;  // within the range, which starts at a checkpoint
  size_t next_fold = out->fold_begin;
  VertexRecordView rec;
  bool has_next = false;
  while (true) {
    const bool buffered = scanner.NextIsBuffered();
    if (!buffered) copy_run();
    SEMIS_RETURN_IF_ERROR(scanner.Next(&rec, &has_next));
    if (!has_next) break;
    if (record % kLocatorCheckpointStride == 0) {
      // The range starts at a checkpoint; only the locator knows which
      // vertex's record sits there.
      if (record == 0 && locator.rank(rec.id) != rank) {
        return Status::Corruption(
            "record " + std::to_string(range.first_record) + " of '" +
            scanner.path() + "' holds vertex " + std::to_string(rec.id) +
            ", which the locator ranks elsewhere");
      }
      checkpoints[record / kLocatorCheckpointStride] =
          (static_cast<size_t>(dst - slot) + run_words) * sizeof(uint32_t);
    }
    uint32_t degree = rec.degree;
    if (next_fold == out->fold_end || folds[next_fold].rank != rank) {
      // The decoder keeps the header words in front of the neighbors.
      const uint32_t* words = rec.neighbors - 2;
      if (run_words == 0) run = words;
      run_words += 2 + degree;
      // A record read across a refill sits alone in the decoder's spill
      // buffer, which the next Next may reuse.
      if (!buffered) copy_run();
    } else {
      copy_run();
      Fold* first = folds + next_fold;
      Fold* last = first;
      while (last != folds + out->fold_end && last->rank == rank) last++;
      next_fold = static_cast<size_t>(last - folds);
      // Base neighbors that are not deleted keep their base order, then
      // inserted partners follow in ascending id order, skipping those
      // the base record already lists -- an insert may duplicate a base
      // edge, and folding it twice would corrupt the record.
      degree = 0;
      for (const VertexId nb : rec) {
        Fold* fold = std::lower_bound(
            first, last, nb,
            [](const Fold& f, VertexId v) { return f.partner < v; });
        if (fold != last && fold->partner == nb) {
          if (fold->deleted) continue;
          fold->in_base = true;
        }
        dst[2 + degree++] = nb;
      }
      bool changed = degree != rec.degree;
      for (const Fold* fold = first; fold != last; ++fold) {
        if (fold->deleted || fold->in_base) continue;
        dst[2 + degree++] = fold->partner;
        changed = true;
      }
      dst[0] = rec.id;
      dst[1] = degree;
      dst += 2 + degree;
      if (changed) out->changed = true;
    }
    out->info.num_records++;
    out->info.num_directed_edges += degree;
    out->max_degree = std::max(out->max_degree, degree);
    rank++;
    record++;
  }
  out->words = static_cast<size_t>(dst - slot);
  return scanner.Close();
}

}  // namespace

Status ShardedStreamingMis::CompactShard(uint32_t shard,
                                         const std::string& out_path,
                                         ShardInfo* new_info,
                                         uint32_t* max_degree_seen,
                                         bool* records_changed,
                                         std::vector<uint64_t>* checkpoints) {
  // The fold list: one (rank, partner, deleted) per edge that a pending
  // entry of this shard names at one of its records, sorted by rank and
  // partner. Every entry touching an edge was routed to both endpoints'
  // shards, and a compaction retires all of its shard's entries, so what
  // this shard holds of an edge is a suffix of the edge's entries, the
  // newest included, and where it holds none its base record already
  // reflects the newest. The delta state keeps each edge as its newest
  // entry left it, so one lookup per entry says what the fold does.
  const uint64_t first_rank = locator_.first_rank(shard);
  const uint64_t end_rank = locator_.first_rank(shard + 1);
  std::vector<Fold> folds;
  folds.reserve(2 * pending_[shard].size());
  for (const EdgeDeltaEntry& entry : pending_[shard]) {
    const bool deleted = deleted_keys_.Contains(EdgeKey(entry.u, entry.v));
    const auto add = [&](VertexId x, VertexId partner) {
      const uint32_t rank = locator_.rank(x);
      if (rank >= first_rank && rank < end_rank) {
        folds.push_back(Fold{rank, partner, deleted, false});
      }
    };
    add(entry.u, entry.v);
    add(entry.v, entry.u);
  }
  std::sort(folds.begin(), folds.end(), [](const Fold& a, const Fold& b) {
    return a.rank != b.rank ? a.rank < b.rank : a.partner < b.partner;
  });
  folds.erase(std::unique(folds.begin(), folds.end(),
                          [](const Fold& a, const Fold& b) {
                            return a.rank == b.rank && a.partner == b.partner;
                          }),
              folds.end());

  // The shard's ranges fold on the workers, each into its own slot of
  // one buffer allocated here: the range's bytes plus a word per fold
  // naming one of its records. The buffer's size depends only on the
  // shard and its folds, not on the cut, so neither does the charge.
  const size_t workers = ResolveThreadCount(options_.num_threads);
  const std::vector<ShardRecordRange> ranges = locator_.CutRanges(
      shard, manifest_.shards[shard], kCompactRangesPerWorker * workers);
  std::vector<FoldedRange> out(ranges.size());
  size_t words = 0;
  for (size_t i = 0; i < ranges.size(); ++i) {
    out[i].fold_begin = i == 0 ? 0 : out[i - 1].fold_end;
    out[i].fold_end = static_cast<size_t>(
        std::lower_bound(folds.begin() + out[i].fold_begin, folds.end(),
                         first_rank + ranges[i].end_record,
                         [](const Fold& f, uint64_t r) { return f.rank < r; }) -
        folds.begin());
    out[i].slot = words;
    words += ranges[i].bytes() / sizeof(uint32_t) + out[i].fold_end -
             out[i].fold_begin;
  }
  const auto buffer = std::make_unique_for_overwrite<uint32_t[]>(words);
  AccountTransientMemory(words * sizeof(uint32_t) +
                         folds.capacity() * sizeof(Fold));
  // Records keep their order, so ranks and checkpoint positions do not
  // move; only the byte offsets of the rewritten records do. Each range
  // fills the entries of the checkpoints it holds.
  checkpoints->assign((manifest_.shards[shard].num_records +
                       kLocatorCheckpointStride - 1) /
                          kLocatorCheckpointStride,
                      0);
  Status folded = ForEachItem(workers, ranges.size(), [&](size_t i, size_t) {
    return FoldRange(manifest_path_, manifest_, locator_, shard, ranges[i],
                     folds.data(), &out[i], buffer.get() + out[i].slot,
                     checkpoints->data() +
                         ranges[i].first_record / kLocatorCheckpointStride);
  });
  for (const FoldedRange& range : out) stats_.io.MergeFrom(range.io);
  // The ranges run back to back from the shard's first record to the
  // manifest's length, and each one's records end at its end offset, so
  // the shard's edge total holds once every range read through.
  SEMIS_RETURN_IF_ERROR(folded);

  // On this thread: the slots in range order, after the shard header,
  // and each range's checkpoint offsets moved to where its slot lands.
  SequentialFileWriter writer(&stats_.io);
  SEMIS_RETURN_IF_ERROR(writer.Open(out_path));
  SEMIS_RETURN_IF_ERROR(WriteAdjacencyShardHeader(&writer, shard, n_));
  uint64_t offset = kAdjacencyShardHeaderBytes;
  for (size_t i = 0; i < ranges.size(); ++i) {
    const FoldedRange& range = out[i];
    SEMIS_RETURN_IF_ERROR(writer.Append(buffer.get() + range.slot,
                                        range.words * sizeof(uint32_t)));
    const uint64_t first = ranges[i].first_record / kLocatorCheckpointStride;
    const uint64_t end =
        (ranges[i].end_record + kLocatorCheckpointStride - 1) /
        kLocatorCheckpointStride;
    for (uint64_t j = first; j < end; ++j) (*checkpoints)[j] += offset;
    offset += range.words * sizeof(uint32_t);
    new_info->num_records += range.info.num_records;
    new_info->num_directed_edges += range.info.num_directed_edges;
    *max_degree_seen = std::max(*max_degree_seen, range.max_degree);
    if (range.changed) *records_changed = true;
  }
  return writer.Close();
}

Status ShardedStreamingMis::PublishEpoch(
    uint64_t next_epoch, const std::vector<std::string>& staged_files) {
  // Make every staged file durable, then the directory entries, THEN flip
  // the root -- the root must never name an epoch whose files could still
  // be lost by a power cut.
  for (const std::string& path : staged_files) {
    SEMIS_RETURN_IF_ERROR(SyncFile(path));
  }
  SEMIS_RETURN_IF_ERROR(SyncParentDirectory(root_path_));
  SEMIS_CRASH_POINT("epoch.staged-files-durable");
  EpochRootPointer root;
  root.current_epoch = next_epoch;
  root.previous_epoch = store_.journaled ? store_.current_epoch : 0;
  Status flipped = WriteEpochRootPointer(root_path_, root, &stats_.io);
  if (!flipped.ok()) {
    // The rename may or may not have happened; memory can no longer claim
    // to match disk on either assumption.
    wedged_ = true;
    return flipped;
  }
  store_.journaled = true;
  store_.fell_back = false;
  store_.previous_epoch = root.previous_epoch;
  store_.current_epoch = next_epoch;
  store_.manifest_path = EpochManifestPath(root_path_, next_epoch);
  manifest_path_ = store_.manifest_path;
  delta_path_ = EdgeDeltaManifestPath(manifest_path_);
  return Status::OK();
}

Status ShardedStreamingMis::CollectStoreGarbage() {
  uint64_t removed = 0;
  SEMIS_RETURN_IF_ERROR(GarbageCollectShardStore(store_, &removed));
  stats_.orphan_files_removed += removed;
  return Status::OK();
}

void ShardedStreamingMis::RetireCompactedEntries(
    const std::vector<bool>& compacted) {
  // The delta state must become the replay of the entries that stay
  // pending. An edge keeps its state exactly when a shard outside the
  // compacted set still holds a pending entry for it: that shard holds
  // the edge's newest entry then, and the newest entry alone sets an
  // edge's state. Shard j holds an entry routed to it iff the entry came
  // after j's last compaction, i.e. iff j's oldest pending entry is no
  // newer. Walking each compacted shard newest first decides every edge
  // at its newest entry; `visited` skips the older ones.
  size_t retiring = 0;
  for (uint32_t k = 0; k < pending_.size(); ++k) {
    if (compacted[k]) retiring += pending_[k].size();
  }
  FlatKeySet visited;
  visited.Reserve(retiring);
  const auto held_outside = [&](VertexId x, uint64_t seq) {
    const uint32_t j = locator_.ShardOf(x);
    return !compacted[j] && !pending_[j].empty() &&
           pending_[j].front().seq <= seq;
  };
  for (uint32_t k = 0; k < pending_.size(); ++k) {
    if (!compacted[k]) continue;
    for (auto it = pending_[k].rbegin(); it != pending_[k].rend(); ++it) {
      const uint64_t key = EdgeKey(it->u, it->v);
      if (!visited.Insert(key)) continue;
      if (held_outside(it->u, it->seq) || held_outside(it->v, it->seq)) {
        continue;
      }
      EraseDeltaEdge(it->u, it->v);
      deleted_keys_.Erase(key);
    }
  }
  for (uint32_t k = 0; k < pending_.size(); ++k) {
    if (!compacted[k]) continue;
    pending_[k].clear();
    pending_[k].shrink_to_fit();
  }
}

Status ShardedStreamingMis::Compact(bool force) {
  SEMIS_RETURN_IF_ERROR(CheckUsable());
  WallTimer timer;
  std::vector<uint32_t> saturated;
  for (uint32_t k = 0; k < manifest_.num_shards(); ++k) {
    if (pending_[k].empty()) continue;
    if (force || (options_.compact_threshold_entries > 0 &&
                  pending_[k].size() >= options_.compact_threshold_entries)) {
      saturated.push_back(k);
    }
  }
  if (saturated.empty()) return Status::OK();

  // Stage the whole next epoch under its own names, then commit by
  // flipping the root pointer. Until PublishEpoch flips it, nothing here
  // mutates the maintainer or the current epoch, so any failure (or
  // crash) before the flip simply abandons the staged files as orphans --
  // no wedging, no torn store.
  const uint32_t num_shards = manifest_.num_shards();
  const uint64_t next_epoch = store_.current_epoch + 1;
  const std::string new_manifest = EpochManifestPath(root_path_, next_epoch);
  const std::string new_delta = EdgeDeltaManifestPath(new_manifest);
  std::vector<bool> is_saturated(num_shards, false);
  for (uint32_t k : saturated) is_saturated[k] = true;

  ShardedAdjacencyManifest staged = manifest_;
  std::vector<std::vector<uint64_t>> staged_checkpoints(num_shards);
  bool records_changed = false;
  uint32_t max_degree_seen = 0;
  std::vector<std::string> staged_files;
  staged_files.reserve(2 * num_shards + 2);
  for (uint32_t k = 0; k < num_shards; ++k) {
    const std::string out_shard = ShardFilePath(new_manifest, k);
    // A retried commit of the same epoch may find leftovers of the failed
    // attempt; staging is idempotent.
    SEMIS_RETURN_IF_ERROR(RemoveFileIfExists(out_shard));
    if (is_saturated[k]) {
      ShardInfo new_info;
      SEMIS_RETURN_IF_ERROR(CompactShard(k, out_shard, &new_info,
                                         &max_degree_seen, &records_changed,
                                         &staged_checkpoints[k]));
      staged.shards[k] = new_info;
    } else {
      // Unchanged shards carry over as hard links: one directory entry,
      // zero copied bytes, and the previous epoch keeps its own name.
      SEMIS_RETURN_IF_ERROR(
          HardLinkFile(ShardFilePath(manifest_path_, k), out_shard));
    }
    staged_files.push_back(out_shard);
    SEMIS_CRASH_POINT("compact.shard-staged");
  }
  for (uint32_t k = 0; k < num_shards; ++k) {
    const std::string out_log = EdgeDeltaShardPath(new_delta, k);
    SEMIS_RETURN_IF_ERROR(RemoveFileIfExists(out_log));
    if (is_saturated[k]) {
      // The compacted shard's delta is folded in; its log restarts empty.
      SEMIS_RETURN_IF_ERROR(
          CreateEdgeDeltaShardLog(out_log, k, n_, &stats_.io));
    } else {
      SEMIS_RETURN_IF_ERROR(
          HardLinkFile(EdgeDeltaShardPath(delta_path_, k), out_log));
    }
    staged_files.push_back(out_log);
    SEMIS_CRASH_POINT("compact.log-staged");
  }
  EdgeDeltaManifest dm;
  dm.num_vertices = n_;
  dm.next_sequence = next_sequence_;
  dm.shard_entries.resize(num_shards);
  for (uint32_t k = 0; k < num_shards; ++k) {
    dm.shard_entries[k] = is_saturated[k] ? 0 : pending_[k].size();
  }
  SEMIS_RETURN_IF_ERROR(WriteEdgeDeltaManifest(new_delta, dm, &stats_.io));
  staged_files.push_back(new_delta);
  SEMIS_CRASH_POINT("compact.delta-manifest-staged");

  uint64_t total_edges = 0;
  for (const ShardInfo& s : staged.shards) {
    total_edges += s.num_directed_edges;
  }
  staged.header.num_directed_edges = total_edges;
  // max_degree stays an upper bound: compaction only sees the rewritten
  // shards, so it can raise the bound but never safely lower it.
  staged.header.max_degree =
      std::max(staged.header.max_degree, max_degree_seen);
  if (records_changed) {
    // Folded inserts/deletes change degrees, so the global (degree, id)
    // order can no longer be guaranteed; Resort() restores it.
    staged.header.flags &= ~kAdjFlagDegreeSorted;
  }
  SEMIS_RETURN_IF_ERROR(
      WriteShardedAdjacencyManifest(new_manifest, staged, &stats_.io));
  staged_files.push_back(new_manifest);
  SEMIS_CRASH_POINT("compact.manifest-staged");

  SEMIS_RETURN_IF_ERROR(PublishEpoch(next_epoch, staged_files));

  // The commit succeeded; bring the maintainer in line with the new
  // epoch, then retire the old one. Only now do the rewritten shards'
  // offsets replace the old ones.
  manifest_ = staged;
  for (uint32_t k : saturated) {
    locator_.ReplaceCheckpoints(k, std::move(staged_checkpoints[k]));
  }
  RetireCompactedEntries(is_saturated);
  uint64_t pending_total = 0;
  for (const auto& shard_entries : pending_) {
    pending_total += shard_entries.size();
  }
  stats_.compactions++;
  stats_.shards_rewritten += saturated.size();
  stats_.pending_delta_entries = pending_total;
  stats_.compact_seconds += timer.ElapsedSeconds();
  AccountMemory();
  SEMIS_RETURN_IF_ERROR(CollectStoreGarbage());
  if (options_.auto_resort && !in_resort_ &&
      !manifest_.header.IsDegreeSorted()) {
    return Resort();
  }
  return Status::OK();
}

Status ShardedStreamingMis::Resort() {
  SEMIS_RETURN_IF_ERROR(CheckUsable());
  if (manifest_.header.IsDegreeSorted()) return Status::OK();
  WallTimer timer;
  in_resort_ = true;
  Status resorted = ResortInternal();
  in_resort_ = false;
  if (!resorted.ok()) return resorted;
  stats_.resorts++;
  stats_.resort_seconds += timer.ElapsedSeconds();
  AccountMemory();
  return Status::OK();
}

Status ShardedStreamingMis::ResortInternal() {
  // Fold every pending delta into the base first: the re-sorted base must
  // BE the effective graph, and re-sorting moves records across shards,
  // which would strand routed log entries in the wrong shard.
  uint64_t pending_total = 0;
  for (const auto& shard_entries : pending_) {
    pending_total += shard_entries.size();
  }
  if (pending_total > 0) {
    SEMIS_RETURN_IF_ERROR(Compact(/*force=*/true));
  }
  const uint32_t num_shards = manifest_.num_shards();
  const uint64_t next_epoch = store_.current_epoch + 1;
  const std::string new_manifest = EpochManifestPath(root_path_, next_epoch);
  const std::string new_delta = EdgeDeltaManifestPath(new_manifest);

  // Sort the compacted base, read in manifest order on this thread, into
  // fresh shards under the next epoch's names, through the sorted-store
  // builder of a monolithic open. Totals, max_degree, and flags carry the
  // current manifest's values -- exactly what a fresh unshard ->
  // degree-sort -> shard rebuild would write -- so the published bytes
  // are identical to that rebuild's, shard split included. The sorter's
  // budget is the largest shard's decoded bytes (16 B per record plus its
  // neighbor words), the working set of sorting one shard in memory; the
  // rest spills to the sorter's private scratch dir under $TMPDIR, which
  // is removed before the epoch commits, so a crash leaves the store
  // nothing to collect.
  {
    uint64_t max_shard_bytes = 0;
    for (const ShardInfo& s : manifest_.shards) {
      max_shard_bytes = std::max(
          max_shard_bytes, s.num_records * 2 * sizeof(uint64_t) +
                               s.num_directed_edges * sizeof(VertexId));
    }
    MemoryTracker sort_memory;
    DegreeSortOptions sort_options;
    sort_options.memory_budget_bytes = std::max<uint64_t>(max_shard_bytes, 1);
    sort_options.stats = &stats_.io;
    sort_options.memory = &sort_memory;
    ManifestOrderedShardCursor base(&stats_.io);
    SEMIS_RETURN_IF_ERROR(base.Open(manifest_path_));
    SEMIS_RETURN_IF_ERROR(BuildDegreeSortedShardStore(
        &base, new_manifest, num_shards, sort_options));
    AccountTransientMemory(sort_memory.PeakBytes());
  }
  std::vector<std::string> staged_files;
  staged_files.reserve(2 * num_shards + 2);
  for (uint32_t k = 0; k < num_shards; ++k) {
    staged_files.push_back(ShardFilePath(new_manifest, k));
  }
  staged_files.push_back(new_manifest);
  // A fresh, empty overlay: the delta was fully folded by the compaction
  // above, and record placement changed anyway.
  for (uint32_t k = 0; k < num_shards; ++k) {
    const std::string out_log = EdgeDeltaShardPath(new_delta, k);
    SEMIS_RETURN_IF_ERROR(RemoveFileIfExists(out_log));
    SEMIS_RETURN_IF_ERROR(
        CreateEdgeDeltaShardLog(out_log, k, n_, &stats_.io));
    staged_files.push_back(out_log);
  }
  EdgeDeltaManifest dm;
  dm.num_vertices = n_;
  dm.next_sequence = next_sequence_;
  dm.shard_entries.assign(num_shards, 0);
  SEMIS_RETURN_IF_ERROR(WriteEdgeDeltaManifest(new_delta, dm, &stats_.io));
  staged_files.push_back(new_delta);
  SEMIS_CRASH_POINT("resort.epoch-staged");

  SEMIS_RETURN_IF_ERROR(PublishEpoch(next_epoch, staged_files));

  // Records moved shards: reload the manifest the writer computed and
  // rebuild the locator. The delta state is empty by construction. Disk
  // already serves the new epoch, so if that fails memory can no longer
  // route updates or locate records: wedge, as a failed flip does.
  pending_.assign(num_shards, {});
  ClearDeltaState();
  stats_.pending_delta_entries = 0;
  Status relocated =
      ReadShardedAdjacencyManifest(manifest_path_, &manifest_, &stats_.io);
  if (relocated.ok()) {
    relocated = locator_.Build(manifest_path_, manifest_, &stats_.io);
  }
  if (!relocated.ok()) {
    wedged_ = true;
    return relocated;
  }
  return CollectStoreGarbage();
}

size_t ShardedStreamingMis::CurrentMemoryBytes() const {
  size_t bytes = locator_.MemoryBytes() + set_.MemoryBytes() +
                 inserted_keys_.MemoryBytes() +
                 deleted_keys_.MemoryBytes() +
                 inserted_head_.capacity() * sizeof(uint32_t) +
                 inserted_pool_.capacity() * sizeof(InsertedNode) +
                 (frontier_.capacity() + evicted_.capacity()) *
                     sizeof(VertexId);
  for (const auto& shard_entries : pending_) {
    bytes += shard_entries.capacity() * sizeof(EdgeDeltaEntry);
  }
  return bytes;
}

void ShardedStreamingMis::AccountMemory() { AccountTransientMemory(0); }

void ShardedStreamingMis::AccountTransientMemory(size_t transient) {
  stats_.peak_memory_bytes =
      std::max(stats_.peak_memory_bytes, CurrentMemoryBytes() + transient);
}

}  // namespace semis
