// Copyright (c) the semis authors.
// Access to a sharded adjacency file by record position. The degree sort
// permutes records, so where a vertex's record sits is only discoverable
// by scanning: ShardRecordLocator keeps what one scan learns. With it,
// ReadRecord reads one vertex's record and ReadRecords the records of a
// list of ids sorted by that order -- a "frontier" -- without a scan,
// and a shard splits into byte-balanced record ranges (CutRanges), so a
// pass over one shard can run on several workers. All read through
// AdjacencyFileScanner; the locator adds the one check only it can make,
// that a record position holds the vertex it ranks there.
//
// Semi-external rule: every read moves forward through its shard. A
// frontier read opens one scanner per shard that holds frontier ids,
// jumps from checkpoint to checkpoint and steps over record headers
// (AdjacencyFileScanner::SkipTo); no record is read twice and no read
// goes back. A range read skips to its range's checkpoint and reads
// forward to the range's end.
//
// Concurrency contract: no mutex. The locator is read-only during a
// frontier or range read. Each work item of a read owns its scanner and
// IoStats (on cache lines of its own, as every per-item counter in a
// pass), which merge on the calling thread after ForEachItem joins the
// read's workers (the happens-before edge); a visitor must write only
// state private to its item. See docs/architecture.md ("Static
// analysis").
#ifndef SEMIS_GRAPH_SHARD_RECORD_LOCATOR_H_
#define SEMIS_GRAPH_SHARD_RECORD_LOCATOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/adjacency_file.h"
#include "graph/sharded_adjacency_file.h"
#include "io/io_stats.h"
#include "util/common.h"
#include "util/fan_out.h"
#include "util/status.h"

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

  /// Cuts shard `shard`, whose manifest entry is `info`, into at most
  /// `max_ranges` ranges of about equal bytes, in record order, covering
  /// every record once. Each cut lies on a checkpoint: the first one at
  /// or after an even byte target, so ranges hold whole checkpoint
  /// blocks and a long record makes its range longer. The last range
  /// ends at the shard's length, kAdjacencyShardHeaderBytes + 8 B per
  /// record + 4 B per edge. A shard with one checkpoint, or none (an
  /// empty shard), is one range.
  std::vector<ShardRecordRange> CutRanges(uint32_t shard, const ShardInfo& info,
                                          size_t max_ranges) const;

  /// Decodes vertex `v`'s record with `scanner`, which must be open on
  /// `shard`, the shard holding it: SkipTo from the record's checkpoint,
  /// then Next. The scanner's rules apply, so a record behind its read
  /// position is InvalidArgument. A position that holds another vertex
  /// is Corruption, and fails the scanner.
  Status ReadRecord(uint32_t shard, VertexId v, AdjacencyFileScanner* scanner,
                    VertexRecordView* view) const;

  /// Reads the records of a frontier, `ids` sorted by manifest rank
  /// without duplicates, from the store at `manifest_path` (parsed as
  /// `manifest`), and calls `visit(shard, record)` for each, in rank
  /// order within each shard. Each shard that holds ids is one work item,
  /// read forward by its own AdjacencyFileScanner through ReadRecord. The
  /// items run through ForEachItem on `workers` workers; at one, on the
  /// calling thread in shard order. With more than one worker, different
  /// shards' visits run concurrently, so a visitor writes only per-shard
  /// state. Ids out of rank order are InvalidArgument. Each item's
  /// IoStats merge into `stats` (may be null) after the join. Every item
  /// runs to its end or its first error, and the first error in shard
  /// order is returned, at every worker count.
  template <typename Visit>
  Status ReadRecords(const std::string& manifest_path,
                     const ShardedAdjacencyManifest& manifest,
                     const std::vector<VertexId>& ids, size_t workers,
                     IoStats* stats, Visit&& visit) const;

  /// Heap bytes held (capacity), for memory accounting.
  size_t MemoryBytes() const;

 private:
  // A frontier read's work item: ids[begin, end) lie in `shard`.
  struct FrontierItem {
    uint32_t shard = 0;
    size_t begin = 0;
    size_t end = 0;
  };

  // One item per run of consecutive ids in the same shard.
  std::vector<FrontierItem> SplitByShard(
      const std::vector<VertexId>& ids) const;

  // Read buffer of a frontier item's scanner. Most records are a few
  // dozen bytes and the ones a frontier asks for lie far apart, so one
  // window usually covers the checkpoint walk and the record. On a
  // 1M-vertex PLRG a 1024-update frontier repair took 4.6 ms with 4 KB,
  // 5.4 ms with 1 KB and no less with 8 KB.
  static constexpr size_t kSparseReadWindowBytes = 4096;

  // rank_[v] is the manifest rank of v's record. shard_first_rank_[k] is
  // the rank of shard k's first record, with the total at the end, so a
  // rank's shard is a binary search. checkpoints_[k][j] is the byte
  // offset of record j * kLocatorCheckpointStride of shard k.
  std::vector<uint32_t> rank_;
  std::vector<uint64_t> shard_first_rank_;
  std::vector<std::vector<uint64_t>> checkpoints_;
};

template <typename Visit>
Status ShardRecordLocator::ReadRecords(const std::string& manifest_path,
                                       const ShardedAdjacencyManifest& manifest,
                                       const std::vector<VertexId>& ids,
                                       size_t workers, IoStats* stats,
                                       Visit&& visit) const {
  const std::vector<FrontierItem> items = SplitByShard(ids);
  // Ids out of rank order can put one shard in two items, which would
  // hand two workers the same shard's visitor state.
  for (size_t i = 1; i < items.size(); ++i) {
    if (items[i].shard <= items[i - 1].shard) {
      return Status::InvalidArgument("frontier ids are not sorted by rank");
    }
  }
  std::vector<CacheAligned<IoStats>> io(items.size());
  Status read = ForEachItem(workers, items.size(), [&](size_t i, size_t) {
    const FrontierItem& item = items[i];
    AdjacencyFileScanner scanner(&io[i].value, kSparseReadWindowBytes);
    SEMIS_RETURN_IF_ERROR(
        scanner.OpenShard(manifest_path, manifest, item.shard));
    VertexRecordView rec;
    for (size_t at = item.begin; at < item.end; ++at) {
      SEMIS_RETURN_IF_ERROR(ReadRecord(item.shard, ids[at], &scanner, &rec));
      visit(item.shard, rec);
    }
    return scanner.Close();
  });
  if (stats != nullptr) {
    for (const CacheAligned<IoStats>& item_io : io) {
      stats->MergeFrom(item_io.value);
    }
  }
  return read;
}

}  // namespace semis

#endif  // SEMIS_GRAPH_SHARD_RECORD_LOCATOR_H_
