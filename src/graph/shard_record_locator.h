// Copyright (c) the semis authors.
// Single-record access to a sharded adjacency file by vertex id. The
// degree sort permutes records, so where a vertex's record sits is only
// discoverable by scanning: ShardRecordLocator keeps what one scan
// learns, and ShardFrontierReader reads the records of a list of ids
// sorted by that order -- a "frontier" -- without a scan.
//
// Semi-external rule: every read moves forward through its shard. A
// frontier read opens one AdjacencyShardRecordReader per shard that holds
// frontier ids, jumps from checkpoint to checkpoint and steps over record
// headers; no record is read twice and no read goes back.
//
// Concurrency contract: no mutex. The locator is read-only during a
// frontier read. Each work item of a read owns its reader and IoStats,
// which merge on the calling thread after the thread-pool barrier (the
// happens-before edge); a visitor must write only state private to its
// item. See docs/architecture.md ("Static analysis").
#ifndef SEMIS_GRAPH_SHARD_RECORD_LOCATOR_H_
#define SEMIS_GRAPH_SHARD_RECORD_LOCATOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/sharded_adjacency_file.h"
#include "io/io_stats.h"
#include "util/common.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace semis {

/// Checkpoint stride: the locator keeps the byte offset of every
/// kLocatorCheckpointStride-th record of each shard, so a single-record
/// read steps over at most this many record headers. 16 costs 0.5 B per
/// vertex.
inline constexpr uint32_t kLocatorCheckpointStride = 16;

/// Where every vertex's record sits in a sharded adjacency file: the
/// vertex's manifest rank (its global record position, a u32 per vertex)
/// and, per shard, the byte offset of every kLocatorCheckpointStride-th
/// record. About 4.5 B per vertex.
class ShardRecordLocator {
 public:
  /// Rebuilds the locator with one pass over the shards of the SADM
  /// manifest at `manifest_path` (parsed as `manifest`), counting one
  /// sequential scan. The result is swapped in whole, so a failed scan
  /// leaves the previous locator as it was.
  Status Build(const std::string& manifest_path,
               const ShardedAdjacencyManifest& manifest, IoStats* stats);

  /// Manifest rank of vertex `v`'s record.
  uint32_t rank(VertexId v) const { return rank_[v]; }

  /// Rank of shard `shard`'s first record; first_rank(num_shards) is the
  /// record total.
  uint64_t first_rank(uint32_t shard) const {
    return shard_first_rank_[shard];
  }

  /// The shard holding vertex `v`'s record.
  uint32_t ShardOf(VertexId v) const;

  /// Sorts `ids` by manifest rank and drops duplicates.
  void SortByRank(std::vector<VertexId>* ids) const;

  /// Installs shard `shard`'s checkpoint offsets after a rewrite of the
  /// shard that kept every record's rank (a compaction keeps the record
  /// order; only byte offsets move).
  void ReplaceCheckpoints(uint32_t shard, std::vector<uint64_t> checkpoints) {
    checkpoints_[shard] = std::move(checkpoints);
  }

  /// Decodes vertex `v`'s record with `reader`, which must be open on
  /// `shard`, the shard holding it. The reader's rules apply: InvalidArgument
  /// when the record lies behind its read position, Corruption when the
  /// position holds another vertex.
  Status ReadRecord(uint32_t shard, VertexId v,
                    AdjacencyShardRecordReader* reader,
                    VertexRecordView* view) const;

  /// Heap bytes held (capacity), for memory accounting.
  size_t MemoryBytes() const;

 private:
  // rank_[v] is the manifest rank of v's record. shard_first_rank_[k] is
  // the rank of shard k's first record, with the total at the end, so a
  // rank's shard is a binary search. checkpoints_[k][j] is the byte
  // offset of record j * kLocatorCheckpointStride of shard k.
  std::vector<uint32_t> rank_;
  std::vector<uint64_t> shard_first_rank_;
  std::vector<std::vector<uint64_t>> checkpoints_;
};

/// Reads the records of a frontier: vertex ids sorted by manifest rank,
/// without duplicates. Each shard that holds frontier ids is one work
/// item, read forward by its own AdjacencyShardRecordReader. The items
/// run on `pool` when one is given (at most one job in flight, as the
/// pool requires) and sequentially on the calling thread, in shard
/// order, otherwise. An id behind its shard's read position -- ids out of
/// rank order -- fails with InvalidArgument.
class ShardFrontierReader {
 public:
  /// All references must outlive the reader. `pool` may be null.
  ShardFrontierReader(const std::string& manifest_path,
                      const ShardedAdjacencyManifest& manifest,
                      const ShardRecordLocator& locator, ThreadPool* pool)
      : manifest_path_(manifest_path),
        manifest_(manifest),
        locator_(locator),
        pool_(pool) {}

  /// Calls `visit(shard, record)` for the record of every id in `ids`, in
  /// rank order within each shard; on a pool, different shards' visits
  /// run concurrently, so a visitor writes only per-shard state. Each
  /// item's IoStats merge into `stats` (may be null) after the barrier.
  /// On a pool every item runs to its end or its first error, and the
  /// first error in shard order is returned; sequentially, the read stops
  /// at the first error, so no later id is visited.
  template <typename Visit>
  Status Read(const std::vector<VertexId>& ids, IoStats* stats,
              Visit&& visit) const;

 private:
  struct Item {
    uint32_t shard = 0;
    size_t begin = 0;  // ids[begin, end) lie in `shard`
    size_t end = 0;
  };

  // One item per run of consecutive ids in the same shard.
  std::vector<Item> SplitByShard(const std::vector<VertexId>& ids) const;

  template <typename Visit>
  Status ReadItem(const std::vector<VertexId>& ids, const Item& item,
                  IoStats* io, Visit& visit) const;

  const std::string& manifest_path_;
  const ShardedAdjacencyManifest& manifest_;
  const ShardRecordLocator& locator_;
  ThreadPool* pool_;
};

template <typename Visit>
Status ShardFrontierReader::ReadItem(const std::vector<VertexId>& ids,
                                     const Item& item, IoStats* io,
                                     Visit& visit) const {
  AdjacencyShardRecordReader reader(io);
  SEMIS_RETURN_IF_ERROR(reader.Open(manifest_path_, manifest_, item.shard));
  VertexRecordView rec;
  for (size_t i = item.begin; i < item.end; ++i) {
    SEMIS_RETURN_IF_ERROR(
        locator_.ReadRecord(item.shard, ids[i], &reader, &rec));
    visit(item.shard, rec);
  }
  return reader.Close();
}

template <typename Visit>
Status ShardFrontierReader::Read(const std::vector<VertexId>& ids,
                                 IoStats* stats, Visit&& visit) const {
  const std::vector<Item> items = SplitByShard(ids);
  // Ids out of rank order can put one shard in two items, which would
  // hand two workers the same shard's visitor state.
  for (size_t i = 1; i < items.size(); ++i) {
    if (items[i].shard <= items[i - 1].shard) {
      return Status::InvalidArgument("frontier ids are not sorted by rank");
    }
  }
  if (pool_ == nullptr || items.size() <= 1) {
    for (const Item& item : items) {
      SEMIS_RETURN_IF_ERROR(ReadItem(ids, item, stats, visit));
    }
    return Status::OK();
  }
  std::vector<Status> status(items.size());
  std::vector<IoStats> io(items.size());
  pool_->ParallelFor(items.size(), [&](size_t i, size_t /*worker*/) {
    status[i] = ReadItem(ids, items[i], &io[i], visit);
  });
  if (stats != nullptr) {
    for (const IoStats& item_io : io) stats->MergeFrom(item_io);
  }
  for (const Status& s : status) SEMIS_RETURN_IF_ERROR(s);
  return Status::OK();
}

}  // namespace semis

#endif  // SEMIS_GRAPH_SHARD_RECORD_LOCATOR_H_
