#include "graph/shard_record_locator.h"

#include <algorithm>
#include <utility>

namespace semis {

namespace {

// A range reader's buffer holds the bytes it reads, the header included
// for a shard's first range, capped at the scanner's 1 MiB: one fill
// reads a range of up to that size.
constexpr uint64_t kMaxRangeReadBufferBytes = uint64_t{1} << 20;

size_t RangeReadBufferBytes(const ShardRecordRange& range) {
  const uint64_t start = range.first_record == 0 ? 0 : range.begin_offset;
  return static_cast<size_t>(
      std::min(range.end_offset - start, kMaxRangeReadBufferBytes));
}

}  // namespace

Status ShardRecordLocator::Build(const std::string& manifest_path,
                                 const ShardedAdjacencyManifest& manifest,
                                 IoStats* stats) {
  const uint32_t num_shards = manifest.num_shards();
  std::vector<uint32_t> rank(manifest.header.num_vertices, 0);
  std::vector<uint64_t> first_rank(num_shards + 1, 0);
  std::vector<std::vector<uint64_t>> checkpoints(num_shards);
  if (stats != nullptr) stats->sequential_scans++;
  uint64_t next_rank = 0;
  for (uint32_t k = 0; k < num_shards; ++k) {
    first_rank[k] = next_rank;
    checkpoints[k].reserve(
        (manifest.shards[k].num_records + kLocatorCheckpointStride - 1) /
        kLocatorCheckpointStride);
    uint64_t offset = kAdjacencyShardHeaderBytes;
    SEMIS_RETURN_IF_ERROR(ForEachShardRecord(
        manifest_path, manifest, k, stats, [&](const VertexRecordView& rec) {
          if ((next_rank - first_rank[k]) % kLocatorCheckpointStride == 0) {
            checkpoints[k].push_back(offset);
          }
          rank[rec.id] = static_cast<uint32_t>(next_rank++);
          offset += AdjacencyRecordBytes(rec.degree);
        }));
  }
  first_rank[num_shards] = next_rank;
  rank_ = std::move(rank);
  shard_first_rank_ = std::move(first_rank);
  checkpoints_ = std::move(checkpoints);
  return Status::OK();
}

uint32_t ShardRecordLocator::ShardOf(VertexId v) const {
  // The last shard starting at or before v's rank; empty shards share
  // their successor's start, and upper_bound skips past them.
  const auto it = std::upper_bound(shard_first_rank_.begin(),
                                   shard_first_rank_.end(), rank_[v]);
  return static_cast<uint32_t>(it - shard_first_rank_.begin() - 1);
}

void ShardRecordLocator::SortByRank(std::vector<VertexId>* ids) const {
  std::sort(ids->begin(), ids->end(), [this](VertexId a, VertexId b) {
    return rank_[a] < rank_[b];
  });
  ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
}

std::vector<ShardRecordRange> ShardRecordLocator::CutRanges(
    uint32_t shard, const ShardInfo& info, size_t max_ranges) const {
  const std::vector<uint64_t>& offsets = checkpoints_[shard];
  const uint64_t begin = kAdjacencyShardHeaderBytes;
  const uint64_t end = begin + AdjacencyRecordBytes(0) * info.num_records +
                       sizeof(VertexId) * info.num_directed_edges;
  const uint64_t cuts = std::max<size_t>(max_ranges, 1);
  std::vector<ShardRecordRange> ranges;
  ShardRecordRange range{0, info.num_records, begin, end};
  size_t checkpoint = 0;  // the open range starts at this checkpoint
  for (uint64_t i = 1; i < cuts; ++i) {
    const uint64_t target = begin + (end - begin) * i / cuts;
    const auto at = std::lower_bound(offsets.begin(), offsets.end(), target);
    if (at == offsets.end()) break;
    // A long record can carry the open range past several targets.
    if (static_cast<size_t>(at - offsets.begin()) <= checkpoint) continue;
    checkpoint = static_cast<size_t>(at - offsets.begin());
    range.end_record = uint64_t{checkpoint} * kLocatorCheckpointStride;
    range.end_offset = *at;
    ranges.push_back(range);
    range = ShardRecordRange{range.end_record, info.num_records, *at, end};
  }
  ranges.push_back(range);
  return ranges;
}

Status ShardRecordLocator::ReadRecord(uint32_t shard, VertexId v,
                                      AdjacencyShardRecordReader* reader,
                                      VertexRecordView* view) const {
  const uint64_t record = rank_[v] - shard_first_rank_[shard];
  const uint64_t checkpoint = record / kLocatorCheckpointStride;
  return reader->ReadRecord(record, checkpoint * kLocatorCheckpointStride,
                            checkpoints_[shard][checkpoint], v, view);
}

size_t ShardRecordLocator::MemoryBytes() const {
  size_t bytes = rank_.capacity() * sizeof(uint32_t) +
                 shard_first_rank_.capacity() * sizeof(uint64_t);
  for (const auto& offsets : checkpoints_) {
    bytes += offsets.capacity() * sizeof(uint64_t);
  }
  return bytes;
}

ShardRangeReader::ShardRangeReader(const ShardRecordLocator& locator,
                                   const ShardRecordRange& range,
                                   IoStats* stats)
    : locator_(locator),
      range_(range),
      stats_(stats),
      reader_(stats, RangeReadBufferBytes(range)) {}

Status ShardRangeReader::Open(const std::string& manifest_path,
                              const ShardedAdjacencyManifest& manifest,
                              uint32_t shard) {
  if (shard >= manifest.num_shards() ||
      range_.first_record > range_.end_record ||
      range_.end_record > manifest.shards[shard].num_records) {
    return Status::InvalidArgument("record range out of the shard's range");
  }
  path_ = ShardFilePath(manifest_path, shard);
  shard_ = shard;
  last_range_ = range_.end_record == manifest.shards[shard].num_records;
  next_record_ = range_.first_record;
  offset_ = range_.begin_offset;
  edges_ = 0;
  decoder_.Reset(path_, manifest.header.num_vertices,
                 manifest.header.max_degree);
  SEMIS_RETURN_IF_ERROR(reader_.Open(path_));
  if (range_.first_record == 0) {
    return ReadAdjacencyShardHeader(&reader_, path_, shard,
                                    manifest.header.num_vertices);
  }
  return reader_.Skip(range_.begin_offset);
}

Status ShardRangeReader::Next(VertexRecordView* view, bool* has_next) {
  if (next_record_ == range_.end_record) {
    if (offset_ != range_.end_offset) {
      return Status::Corruption(
          "records " + std::to_string(range_.first_record) + ".." +
          std::to_string(range_.end_record) + " of '" + path_ +
          "' end at byte " + std::to_string(offset_) + ", not at " +
          std::to_string(range_.end_offset));
    }
    if (last_range_ && !reader_.AtEof()) {
      return Status::Corruption("trailing bytes after last record in '" +
                                path_ + "'");
    }
    *has_next = false;
    return Status::OK();
  }
  SEMIS_RETURN_IF_ERROR(decoder_.Decode(&reader_, view));
  if (next_record_ == range_.first_record &&
      locator_.rank(view->id) !=
          locator_.first_rank(shard_) + range_.first_record) {
    return Status::Corruption(
        "record " + std::to_string(next_record_) + " of '" + path_ +
        "' holds vertex " + std::to_string(view->id) +
        ", which the locator ranks elsewhere");
  }
  offset_ += AdjacencyRecordBytes(view->degree);
  // Checked before the record is handed out, so a caller sizing its
  // output by the range's bytes never writes past them.
  if (offset_ > range_.end_offset) {
    return Status::Corruption(
        "record " + std::to_string(next_record_) + " of '" + path_ +
        "' runs past byte " + std::to_string(range_.end_offset) +
        ", the end of records " + std::to_string(range_.first_record) +
        ".." + std::to_string(range_.end_record));
  }
  next_record_++;
  edges_ += view->degree;
  if (stats_ != nullptr) stats_->records_decoded++;
  *has_next = true;
  return Status::OK();
}

std::vector<ShardFrontierReader::Item> ShardFrontierReader::SplitByShard(
    const std::vector<VertexId>& ids) const {
  std::vector<Item> items;
  for (size_t i = 0; i < ids.size(); ++i) {
    const uint32_t shard = locator_.ShardOf(ids[i]);
    if (items.empty() || items.back().shard != shard) {
      items.push_back(Item{shard, i, i});
    }
    items.back().end = i + 1;
  }
  return items;
}

}  // namespace semis
