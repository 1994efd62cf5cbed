#include "core/incremental_stream.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <queue>

#include "io/epoch_journal.h"
#include "util/crash_point.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace semis {

namespace {

// Approximate heap bytes of one hash-set slot holding a u64 key (bucket
// pointer + node). Accounting, not allocation truth.
constexpr size_t kHashSlotBytes = 4 * sizeof(uint64_t);

}  // namespace

Status ShardedStreamingMis::Initialize(const std::string& manifest_path,
                                       const BitVector& initial_set,
                                       const EnginePipelineOptions& options) {
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
  inserted_.clear();
  deleted_.clear();
  pending_.assign(manifest_.num_shards(), {});
  next_sequence_ = 0;

  SEMIS_RETURN_IF_ERROR(BuildRouteMap());

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
      SEMIS_RETURN_IF_ERROR(
          CreateEdgeDeltaShardLog(delta_path_, k, n_, &stats_.io));
    }
    SEMIS_RETURN_IF_ERROR(
        WriteEdgeDeltaManifest(delta_path_, dm, &stats_.io));
  }
  initialized_ = true;
  AccountMemory();
  return Status::OK();
}

Status ShardedStreamingMis::BuildRouteMap() {
  // Route map: records are permuted by the degree sort, so the shard
  // holding a vertex's record is only discoverable by scanning. One pass
  // over the shards; 2 bytes per vertex (kMaxAdjacencyShards = 4096).
  shard_of_.assign(n_, 0);
  stats_.io.sequential_scans++;
  for (uint32_t k = 0; k < manifest_.num_shards(); ++k) {
    AdjacencyShardReader reader(&stats_.io);
    SEMIS_RETURN_IF_ERROR(reader.Open(manifest_path_, manifest_, k));
    VertexRecordView rec;
    bool has_next = false;
    while (true) {
      SEMIS_RETURN_IF_ERROR(reader.Next(&rec, &has_next));
      if (!has_next) break;
      shard_of_[rec.id] = static_cast<uint16_t>(k);
    }
    SEMIS_RETURN_IF_ERROR(reader.Close());
  }
  return Status::OK();
}

template <typename Fn>
Status ShardedStreamingMis::ForEachMergedPendingEntry(Fn&& fn) const {
  // Merge the routed copies back into the global stream: sort by sequence
  // number and drop (after cross-checking) the second copy of cross-shard
  // updates.
  std::vector<EdgeDeltaEntry> merged;
  for (const auto& shard_entries : pending_) {
    merged.insert(merged.end(), shard_entries.begin(), shard_entries.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const EdgeDeltaEntry& a, const EdgeDeltaEntry& b) {
              return a.seq < b.seq;
            });
  for (size_t i = 0; i < merged.size(); ++i) {
    if (i > 0 && merged[i].seq == merged[i - 1].seq) {
      const EdgeDeltaEntry& a = merged[i - 1];
      const EdgeDeltaEntry& b = merged[i];
      if (a.op != b.op || a.u != b.u || a.v != b.v) {
        return Status::Corruption("routed delta copies with the same "
                                  "sequence number disagree");
      }
      continue;  // second routed copy of a cross-shard update
    }
    fn(merged[i]);
  }
  return Status::OK();
}

Status ShardedStreamingMis::RewriteShardLog(uint32_t shard) {
  // Write-new + rename rather than truncate in place: the live log may be
  // hard-linked into the previous epoch's namespace, and truncating the
  // shared inode would corrupt the fallback epoch the journal promises.
  const std::string log_path = EdgeDeltaShardPath(delta_path_, shard);
  const std::string tmp_path = log_path + ".tmp";
  SEMIS_RETURN_IF_ERROR(
      CreateEdgeDeltaShardLogAtPath(tmp_path, shard, n_, &stats_.io));
  if (!pending_[shard].empty()) {
    EdgeDeltaShardWriter writer(&stats_.io);
    SEMIS_RETURN_IF_ERROR(writer.OpenAtPath(tmp_path, n_));
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
  // Replay in stream order. Replay reproduces the original apply
  // decisions exactly -- every logged entry changed state when it was
  // applied, so it changes state again here.
  SEMIS_RETURN_IF_ERROR(ForEachMergedPendingEntry(
      [this](const EdgeDeltaEntry& entry) {
        (void)ApplyToState(EdgeUpdate{entry.op, entry.u, entry.v});
      }));
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

bool ShardedStreamingMis::ApplyToState(const EdgeUpdate& update) {
  const uint64_t key = EdgeKey(update.u, update.v);
  if (update.op == EdgeDeltaOp::kInsert) {
    if (inserted_.count(key) != 0) return false;  // already live in delta
    inserted_.insert(key);
    deleted_.erase(key);
    // Eager independence maintenance: the larger id leaves, as in
    // IncrementalMis (and the lowest-id-wins rule of the swap executor).
    if (set_.Test(update.u) && set_.Test(update.v)) {
      set_.Clear(update.u > update.v ? update.u : update.v);
      set_size_--;
      stats_.evictions++;
    }
    return true;
  }
  if (deleted_.count(key) != 0) return false;  // already deleted in delta
  deleted_.insert(key);
  inserted_.erase(key);
  // A deletion can only open a maximality gap; Repair() closes it.
  return true;
}

Status ShardedStreamingMis::ApplyBatch(const std::vector<EdgeUpdate>& updates) {
  if (!initialized_) {
    return Status::InvalidArgument("streaming maintainer not initialized");
  }
  if (wedged_) {
    return Status::InvalidArgument(
        "streaming maintainer wedged by an earlier flush failure; "
        "re-Initialize to recover from the on-disk overlay");
  }
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
    const uint32_t su = shard_of_[update.u];
    const uint32_t sv = shard_of_[update.v];
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
        EdgeDeltaShardWriter writer(&stats_.io);
        SEMIS_RETURN_IF_ERROR(writer.Open(delta_path_, k, n_));
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

void ShardedStreamingMis::BuildShardDeltaView(uint32_t shard,
                                              ShardDeltaView* view) const {
  // Replay the shard's entries in sequence order. The final view is the
  // shard-local restriction of the global delta state: every delta edge
  // incident to a vertex whose record lives in `shard` was routed here.
  for (const EdgeDeltaEntry& entry : pending_[shard]) {
    const uint64_t key = EdgeKey(entry.u, entry.v);
    if (entry.op == EdgeDeltaOp::kInsert) {
      view->deleted.erase(key);
      view->inserted_adj[entry.u].push_back(entry.v);
      view->inserted_adj[entry.v].push_back(entry.u);
    } else {
      view->deleted.insert(key);
      for (VertexId a : {entry.u, entry.v}) {
        const VertexId b = (a == entry.u) ? entry.v : entry.u;
        auto it = view->inserted_adj.find(a);
        if (it == view->inserted_adj.end()) continue;
        auto& vec = it->second;
        for (size_t i = 0; i < vec.size(); ++i) {
          if (vec[i] == b) {
            vec[i] = vec.back();
            vec.pop_back();
            break;
          }
        }
      }
    }
  }
}

template <typename Source>
Status ShardedStreamingMis::RepairScan(Source* source, uint64_t* added) {
  // The exact sequential rule of IncrementalMis::Repair, committed
  // strictly in global manifest order: a non-member with no live set
  // neighbor (base edges masked by deletes, plus inserted edges) joins,
  // and later records observe the addition through set_.
  ShardDeltaView view;
  uint32_t shard = 0;
  uint64_t remaining = manifest_.shards.empty()
                           ? 0
                           : manifest_.shards[0].num_records;
  bool view_built = false;
  VertexRecordView rec;
  bool has_next = false;
  while (true) {
    SEMIS_RETURN_IF_ERROR(source->Next(&rec, &has_next));
    if (!has_next) break;
    while (remaining == 0 && shard + 1 < manifest_.num_shards()) {
      shard++;
      remaining = manifest_.shards[shard].num_records;
      view_built = false;
    }
    if (remaining == 0) {
      return Status::Corruption("record stream longer than the manifest");
    }
    remaining--;
    if (!view_built) {
      view = ShardDeltaView();
      if (!pending_[shard].empty()) BuildShardDeltaView(shard, &view);
      view_built = true;
    }
    const VertexId u = rec.id;
    if (set_.Test(u)) continue;
    bool has_set_neighbor = false;
    for (uint32_t i = 0; i < rec.degree && !has_set_neighbor; ++i) {
      const VertexId nb = rec.neighbors[i];
      if (set_.Test(nb) &&
          (view.deleted.empty() ||
           view.deleted.find(EdgeKey(u, nb)) == view.deleted.end())) {
        has_set_neighbor = true;
      }
    }
    if (!has_set_neighbor && !view.inserted_adj.empty()) {
      auto it = view.inserted_adj.find(u);
      if (it != view.inserted_adj.end()) {
        for (VertexId nb : it->second) {
          if (set_.Test(nb)) {
            has_set_neighbor = true;
            break;
          }
        }
      }
    }
    if (!has_set_neighbor) {
      set_.Set(u);
      set_size_++;
      (*added)++;
    }
  }
  return Status::OK();
}

Status ShardedStreamingMis::Repair() {
  if (!initialized_) {
    return Status::InvalidArgument("streaming maintainer not initialized");
  }
  WallTimer timer;
  uint64_t added = 0;
  const uint32_t num_threads = ResolveThreadCount(options_.num_threads);
  if (num_threads <= 1) {
    // The sequential reference path: a plain forward scan over the shards.
    ShardedAdjacencyScanner scanner(&stats_.io);
    SEMIS_RETURN_IF_ERROR(scanner.Open(manifest_path_));
    SEMIS_RETURN_IF_ERROR(RepairScan(&scanner, &added));
  } else {
    // Decoder threads prefetch shards while this thread commits in
    // manifest order -- the RunParallelGreedy pipeline. The commit
    // sequence is identical to the sequential path by construction.
    ThreadPool pool(num_threads);
    ManifestOrderedShardCursor cursor(&stats_.io);
    BlockRingOptions ring;
    ring.block_bytes = options_.decode_block_bytes;
    ring.max_buffered_bytes = options_.max_buffered_bytes;
    SEMIS_RETURN_IF_ERROR(cursor.Open(manifest_path_, &pool, ring));
    Status scan = RepairScan(&cursor, &added);
    Status close = cursor.Close();
    SEMIS_RETURN_IF_ERROR(scan);
    SEMIS_RETURN_IF_ERROR(close);
    // The pipeline's decoded-shard buffer rides on top of the maintainer's
    // own state.
    stats_.peak_memory_bytes =
        std::max(stats_.peak_memory_bytes,
                 CurrentMemoryBytes() + cursor.peak_buffered_bytes());
  }
  stats_.repair_passes++;
  stats_.repair_added += added;
  stats_.repair_seconds += timer.ElapsedSeconds();
  AccountMemory();
  return Status::OK();
}

Status ShardedStreamingMis::CompactShard(uint32_t shard,
                                         const std::string& out_path,
                                         ShardInfo* new_info,
                                         uint32_t* max_degree_seen,
                                         bool* records_changed) {
  ShardDeltaView view;
  BuildShardDeltaView(shard, &view);

  AdjacencyShardReader reader(&stats_.io);
  SEMIS_RETURN_IF_ERROR(reader.Open(manifest_path_, manifest_, shard));
  SequentialFileWriter writer(&stats_.io);
  SEMIS_RETURN_IF_ERROR(writer.Open(out_path));
  SEMIS_RETURN_IF_ERROR(WriteAdjacencyShardHeader(&writer, shard, n_));

  std::vector<VertexId> neighbors;
  std::unordered_set<VertexId> present;
  VertexRecordView rec;
  bool has_next = false;
  while (true) {
    SEMIS_RETURN_IF_ERROR(reader.Next(&rec, &has_next));
    if (!has_next) break;
    const VertexId u = rec.id;
    neighbors.clear();
    // Base neighbors surviving the deletes, in base order.
    for (uint32_t i = 0; i < rec.degree; ++i) {
      const VertexId nb = rec.neighbors[i];
      if (!view.deleted.empty() &&
          view.deleted.find(EdgeKey(u, nb)) != view.deleted.end()) {
        continue;
      }
      neighbors.push_back(nb);
    }
    bool changed = neighbors.size() != rec.degree;
    // Inserted neighbors appended in ascending id order, deduplicated
    // against the surviving base list -- an insert may duplicate a base
    // edge, and folding it twice would corrupt the record.
    auto it = view.inserted_adj.find(u);
    if (it != view.inserted_adj.end() && !it->second.empty()) {
      present.clear();
      present.insert(neighbors.begin(), neighbors.end());
      std::vector<VertexId> extra = it->second;
      std::sort(extra.begin(), extra.end());
      for (VertexId nb : extra) {
        if (present.insert(nb).second) {
          neighbors.push_back(nb);
          changed = true;
        }
      }
    }
    const uint32_t degree = static_cast<uint32_t>(neighbors.size());
    SEMIS_RETURN_IF_ERROR(writer.AppendU32(u));
    SEMIS_RETURN_IF_ERROR(writer.AppendU32(degree));
    if (degree > 0) {
      SEMIS_RETURN_IF_ERROR(
          writer.Append(neighbors.data(), sizeof(VertexId) * degree));
    }
    new_info->num_records++;
    new_info->num_directed_edges += degree;
    *max_degree_seen = std::max(*max_degree_seen, degree);
    if (changed) *records_changed = true;
  }
  SEMIS_RETURN_IF_ERROR(reader.Close());
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

Status ShardedStreamingMis::RebuildDeltaState() {
  // Compaction retired some entries; the global delta state is the replay
  // of what is still pending, merged across shards by sequence number.
  inserted_.clear();
  deleted_.clear();
  return ForEachMergedPendingEntry([this](const EdgeDeltaEntry& entry) {
    const uint64_t key = EdgeKey(entry.u, entry.v);
    if (entry.op == EdgeDeltaOp::kInsert) {
      inserted_.insert(key);
      deleted_.erase(key);
    } else {
      deleted_.insert(key);
      inserted_.erase(key);
    }
  });
}

Status ShardedStreamingMis::Compact(bool force) {
  if (!initialized_) {
    return Status::InvalidArgument("streaming maintainer not initialized");
  }
  if (wedged_) {
    return Status::InvalidArgument(
        "streaming maintainer wedged by an earlier flush failure; "
        "re-Initialize to recover from the on-disk overlay");
  }
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
                                         &max_degree_seen, &records_changed));
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
          CreateEdgeDeltaShardLogAtPath(out_log, k, n_, &stats_.io));
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
  // epoch, then retire the old one.
  manifest_ = staged;
  for (uint32_t k : saturated) {
    pending_[k].clear();
    pending_[k].shrink_to_fit();
  }
  SEMIS_RETURN_IF_ERROR(RebuildDeltaState());
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

Status ShardedStreamingMis::BuildResortRun(uint32_t shard,
                                           const std::string& run_path,
                                           IoStats* io) {
  // One shard's records, sorted by the degree-sort key
  // (degree << 32 | id, ascending) -- the exact key of graph/degree_sort.
  // Run format (private, staged, regenerated on any crash): per record
  // u64 key, then (key >> 32) u32 neighbors.
  AdjacencyShardReader reader(io);
  SEMIS_RETURN_IF_ERROR(reader.Open(manifest_path_, manifest_, shard));
  struct RecRef {
    uint64_t key = 0;
    uint64_t offset = 0;
  };
  std::vector<RecRef> recs;
  recs.reserve(manifest_.shards[shard].num_records);
  std::vector<VertexId> pool;
  pool.reserve(manifest_.shards[shard].num_directed_edges);
  VertexRecordView rec;
  bool has_next = false;
  while (true) {
    SEMIS_RETURN_IF_ERROR(reader.Next(&rec, &has_next));
    if (!has_next) break;
    const uint64_t key = (static_cast<uint64_t>(rec.degree) << 32) | rec.id;
    recs.push_back({key, pool.size()});
    pool.insert(pool.end(), rec.neighbors, rec.neighbors + rec.degree);
  }
  SEMIS_RETURN_IF_ERROR(reader.Close());
  std::sort(recs.begin(), recs.end(),
            [](const RecRef& a, const RecRef& b) { return a.key < b.key; });
  SequentialFileWriter writer(io);
  SEMIS_RETURN_IF_ERROR(writer.Open(run_path));
  for (const RecRef& r : recs) {
    SEMIS_RETURN_IF_ERROR(writer.AppendU64(r.key));
    const uint32_t degree = static_cast<uint32_t>(r.key >> 32);
    if (degree > 0) {
      SEMIS_RETURN_IF_ERROR(
          writer.Append(pool.data() + r.offset, sizeof(VertexId) * degree));
    }
  }
  return writer.Close();
}

Status ShardedStreamingMis::Resort() {
  if (!initialized_) {
    return Status::InvalidArgument("streaming maintainer not initialized");
  }
  if (wedged_) {
    return Status::InvalidArgument(
        "streaming maintainer wedged by an earlier flush failure; "
        "re-Initialize to recover from the on-disk overlay");
  }
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

  // Phase A: sort each shard into a run file, one shard per worker. The
  // runs are staged under the next epoch's namespace so a crash leaves
  // them as GC-able orphans.
  std::vector<std::string> run_paths(num_shards);
  for (uint32_t k = 0; k < num_shards; ++k) {
    run_paths[k] = new_manifest + ".resort" + std::to_string(k);
    SEMIS_RETURN_IF_ERROR(RemoveFileIfExists(run_paths[k]));
  }
  const uint32_t num_threads = ResolveThreadCount(options_.num_threads);
  if (num_threads <= 1 || num_shards <= 1) {
    for (uint32_t k = 0; k < num_shards; ++k) {
      SEMIS_RETURN_IF_ERROR(BuildResortRun(k, run_paths[k], &stats_.io));
    }
  } else {
    ThreadPool pool(num_threads);
    std::vector<Status> shard_status(num_shards);
    std::vector<IoStats> worker_io(pool.size());
    pool.ParallelFor(num_shards, [&](size_t k, size_t worker) {
      shard_status[k] = BuildResortRun(static_cast<uint32_t>(k),
                                       run_paths[k], &worker_io[worker]);
    });
    for (const IoStats& io : worker_io) stats_.io.MergeFrom(io);
    for (const Status& s : shard_status) {
      SEMIS_RETURN_IF_ERROR(s);
    }
  }
  // Phase A working set: one decoded shard per active worker.
  uint64_t max_shard_bytes = 0;
  for (const ShardInfo& s : manifest_.shards) {
    max_shard_bytes =
        std::max(max_shard_bytes, s.num_records * 2 * sizeof(uint64_t) +
                                      s.num_directed_edges * sizeof(VertexId));
  }
  stats_.peak_memory_bytes = std::max(
      stats_.peak_memory_bytes,
      CurrentMemoryBytes() +
          max_shard_bytes * std::min<uint64_t>(num_threads, num_shards));
  SEMIS_CRASH_POINT("resort.runs-staged");

  // Phase B: merge the runs (ascending key; keys are globally unique, id
  // breaks degree ties) into a fresh sharded base under the next epoch's
  // names. Totals, max_degree, and flags carry the current manifest's
  // values -- exactly what a fresh unshard -> degree-sort -> shard
  // rebuild would write -- so the published bytes are identical to that
  // rebuild's, shard split included.
  std::vector<std::string> staged_files;
  staged_files.reserve(2 * num_shards + 2);
  {
    struct RunCursor {
      explicit RunCursor(IoStats* io) : reader(io) {}
      SequentialFileReader reader;
      uint64_t remaining = 0;
      uint64_t key = 0;
      std::vector<VertexId> neighbors;
    };
    std::vector<std::unique_ptr<RunCursor>> runs;
    runs.reserve(num_shards);
    const auto advance = [this](RunCursor* run) -> Status {
      SEMIS_RETURN_IF_ERROR(run->reader.ReadU64(&run->key));
      const uint32_t degree = static_cast<uint32_t>(run->key >> 32);
      run->neighbors.resize(degree);
      if (degree > 0) {
        SEMIS_RETURN_IF_ERROR(run->reader.ReadExact(
            run->neighbors.data(), sizeof(VertexId) * degree));
      }
      run->remaining--;
      return Status::OK();
    };
    // Min-heap of (key, run index); unique keys make the pop order -- and
    // therefore the output -- independent of shard and thread counts.
    std::priority_queue<std::pair<uint64_t, uint32_t>,
                        std::vector<std::pair<uint64_t, uint32_t>>,
                        std::greater<std::pair<uint64_t, uint32_t>>>
        heap;
    for (uint32_t k = 0; k < num_shards; ++k) {
      auto run = std::make_unique<RunCursor>(&stats_.io);
      run->remaining = manifest_.shards[k].num_records;
      if (run->remaining > 0) {
        SEMIS_RETURN_IF_ERROR(run->reader.Open(run_paths[k]));
        SEMIS_RETURN_IF_ERROR(advance(run.get()));
        heap.emplace(run->key, k);
      }
      runs.push_back(std::move(run));
    }
    ShardedAdjacencyFileWriter writer(&stats_.io);
    SEMIS_RETURN_IF_ERROR(writer.Open(
        new_manifest, n_, manifest_.header.num_directed_edges,
        manifest_.header.max_degree,
        manifest_.header.flags | kAdjFlagDegreeSorted, num_shards));
    while (!heap.empty()) {
      const auto [key, k] = heap.top();
      heap.pop();
      RunCursor* run = runs[k].get();
      SEMIS_RETURN_IF_ERROR(writer.AppendVertex(
          static_cast<VertexId>(key & 0xFFFFFFFFull), run->neighbors.data(),
          static_cast<uint32_t>(key >> 32)));
      if (run->remaining > 0) {
        SEMIS_RETURN_IF_ERROR(advance(run));
        heap.emplace(run->key, k);
      } else {
        SEMIS_RETURN_IF_ERROR(run->reader.Close());
      }
    }
    SEMIS_RETURN_IF_ERROR(writer.Finish());
  }
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
        CreateEdgeDeltaShardLogAtPath(out_log, k, n_, &stats_.io));
    staged_files.push_back(out_log);
  }
  EdgeDeltaManifest dm;
  dm.num_vertices = n_;
  dm.next_sequence = next_sequence_;
  dm.shard_entries.assign(num_shards, 0);
  SEMIS_RETURN_IF_ERROR(WriteEdgeDeltaManifest(new_delta, dm, &stats_.io));
  staged_files.push_back(new_delta);
  // The runs are consumed; drop them before the flip so a post-commit
  // crash has nothing extra to GC.
  for (uint32_t k = 0; k < num_shards; ++k) {
    SEMIS_RETURN_IF_ERROR(RemoveFileIfExists(run_paths[k]));
  }
  SEMIS_CRASH_POINT("resort.epoch-staged");

  SEMIS_RETURN_IF_ERROR(PublishEpoch(next_epoch, staged_files));

  // Records moved shards: reload the manifest the writer computed and
  // rebuild the route map. The delta state is empty by construction.
  SEMIS_RETURN_IF_ERROR(
      ReadShardedAdjacencyManifest(manifest_path_, &manifest_, &stats_.io));
  pending_.assign(num_shards, {});
  inserted_.clear();
  deleted_.clear();
  stats_.pending_delta_entries = 0;
  SEMIS_RETURN_IF_ERROR(BuildRouteMap());
  return CollectStoreGarbage();
}

size_t ShardedStreamingMis::CurrentMemoryBytes() const {
  size_t bytes = shard_of_.capacity() * sizeof(uint16_t) +
                 set_.MemoryBytes() +
                 (inserted_.size() + deleted_.size()) * kHashSlotBytes;
  for (const auto& shard_entries : pending_) {
    bytes += shard_entries.capacity() * sizeof(EdgeDeltaEntry);
  }
  return bytes;
}

void ShardedStreamingMis::AccountMemory() {
  stats_.peak_memory_bytes =
      std::max(stats_.peak_memory_bytes, CurrentMemoryBytes());
}

}  // namespace semis
