// Copyright (c) the semis authors.
// Access to a sharded adjacency file by record position. The degree sort
// permutes records, so where a vertex's record sits is only discoverable
// by scanning: ShardRecordLocator keeps what one scan learns. With it,
// ShardFrontierReader reads the records of a list of ids sorted by that
// order -- a "frontier" -- without a scan, and a shard splits into
// byte-balanced record ranges (CutRanges) that ShardRangeReader reads
// one by one, so a pass over one shard can run on several workers.
//
// Semi-external rule: every read moves forward through its shard. A
// frontier read opens one AdjacencyShardRecordReader per shard that holds
// frontier ids, jumps from checkpoint to checkpoint and steps over record
// headers; no record is read twice and no read goes back. A range read
// skips to its range's checkpoint and reads forward to the range's end.
//
// Concurrency contract: no mutex. The locator is read-only during a
// frontier or range read. Each work item of a read owns its reader and
// IoStats, which merge on the calling thread after ForEachItem joins the
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
#include "io/file.h"
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

/// A run of consecutive records of one shard: records [first_record,
/// end_record) of the shard (0-based) at bytes [begin_offset,
/// end_offset) of its file. ShardRecordLocator::CutRanges starts every
/// range at a checkpoint.
struct ShardRecordRange {
  uint64_t first_record = 0;
  uint64_t end_record = 0;
  uint64_t begin_offset = 0;
  uint64_t end_offset = 0;

  uint64_t bytes() const { return end_offset - begin_offset; }
};

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

/// Forward reader of one ShardRecordRange of a shard. The first range of
/// a shard reads and checks the shard header as
/// AdjacencyFileScanner::OpenShard does; any other skips to its begin
/// offset. Every record goes through AdjacencyRecordDecoder, with the
/// scanner's id, degree and neighbor checks. On top, each is Corruption
/// naming the shard file: a first record that is not the vertex the
/// locator ranks at the range's start, records that do not end exactly
/// at the range's end offset, and bytes after the shard's last range.
/// The shard's edge total is the caller's to check, over all its ranges
/// (edges()). The read buffer holds the range's bytes, at most 1 MiB.
/// Decoded records count in records_decoded; skipped bytes are not
/// charged to bytes_read.
class ShardRangeReader {
 public:
  /// `locator` must outlive the reader; `stats` may be null.
  ShardRangeReader(const ShardRecordLocator& locator,
                   const ShardRecordRange& range, IoStats* stats);

  /// Opens shard `shard` of the store rooted at `manifest_path` at the
  /// range's start. No scan is counted.
  Status Open(const std::string& manifest_path,
              const ShardedAdjacencyManifest& manifest, uint32_t shard);

  /// Reads the range's next record, as AdjacencyFileScanner::Next does:
  /// the view, with the record's header words right in front of its
  /// neighbors, stays valid until the next call; `*has_next` is false
  /// after the range's last record.
  Status Next(VertexRecordView* view, bool* has_next);

  /// True when the range has a next record and it lies whole in the read
  /// buffer (see AdjacencyFileScanner::NextIsBuffered).
  bool NextIsBuffered() const {
    return next_record_ < range_.end_record &&
           AdjacencyRecordDecoder::NextIsBuffered(reader_);
  }

  /// Edges (neighbor words) of the records read so far.
  uint64_t edges() const { return edges_; }

  /// Closes the shard file. Safe to call twice.
  Status Close() { return reader_.Close(); }

 private:
  const ShardRecordLocator& locator_;
  const ShardRecordRange range_;
  IoStats* stats_;
  SequentialFileReader reader_;
  AdjacencyRecordDecoder decoder_;
  std::string path_;
  uint32_t shard_ = 0;
  bool last_range_ = false;
  // Index and byte offset of the next record.
  uint64_t next_record_ = 0;
  uint64_t offset_ = 0;
  uint64_t edges_ = 0;
};

/// Reads the records of a frontier: vertex ids sorted by manifest rank,
/// without duplicates. Each shard that holds frontier ids is one work
/// item, read forward by its own AdjacencyShardRecordReader. The items
/// run through ForEachItem on `workers` workers (ShardWorkers); at one,
/// on the calling thread in shard order. An id behind its shard's read
/// position -- ids out of rank order -- fails with InvalidArgument.
class ShardFrontierReader {
 public:
  /// All references must outlive the reader.
  ShardFrontierReader(const std::string& manifest_path,
                      const ShardedAdjacencyManifest& manifest,
                      const ShardRecordLocator& locator, size_t workers)
      : manifest_path_(manifest_path),
        manifest_(manifest),
        locator_(locator),
        workers_(workers) {}

  /// Calls `visit(shard, record)` for the record of every id in `ids`, in
  /// rank order within each shard; with more than one worker, different
  /// shards' visits run concurrently, so a visitor writes only per-shard
  /// state. Each item's IoStats merge into `stats` (may be null) after
  /// the join. Every item runs to its end or its first error, and the
  /// first error in shard order is returned, at every worker count.
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
  const size_t workers_;
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
  std::vector<IoStats> io(items.size());
  Status read = ForEachItem(workers_, items.size(), [&](size_t i, size_t) {
    return ReadItem(ids, items[i], &io[i], visit);
  });
  if (stats != nullptr) {
    for (const IoStats& item_io : io) stats->MergeFrom(item_io);
  }
  return read;
}

}  // namespace semis

#endif  // SEMIS_GRAPH_SHARD_RECORD_LOCATOR_H_
