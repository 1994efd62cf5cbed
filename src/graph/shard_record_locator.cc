#include "graph/shard_record_locator.h"

#include <algorithm>
#include <utility>

namespace semis {

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
  ShardRecordRange range = WholeShardRange(info);
  const uint64_t begin = range.begin_offset;
  const uint64_t end = range.end_offset;
  const uint64_t cuts = std::max<size_t>(max_ranges, 1);
  std::vector<ShardRecordRange> ranges;
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
                                      AdjacencyFileScanner* scanner,
                                      VertexRecordView* view) const {
  const uint64_t record = rank_[v] - shard_first_rank_[shard];
  const uint64_t checkpoint = record / kLocatorCheckpointStride;
  SEMIS_RETURN_IF_ERROR(scanner->SkipTo(record,
                                        checkpoint * kLocatorCheckpointStride,
                                        checkpoints_[shard][checkpoint]));
  // SkipTo left a record to read, so Next decodes one or fails.
  bool has_next = false;
  SEMIS_RETURN_IF_ERROR(scanner->Next(view, &has_next));
  if (view->id != v) {
    return scanner->Fail(Status::Corruption(
        "record " + std::to_string(record) + " of '" + scanner->path() +
        "' holds vertex " + std::to_string(view->id) + ", not " +
        std::to_string(v)));
  }
  return Status::OK();
}

size_t ShardRecordLocator::MemoryBytes() const {
  size_t bytes = rank_.capacity() * sizeof(uint32_t) +
                 shard_first_rank_.capacity() * sizeof(uint64_t);
  for (const auto& offsets : checkpoints_) {
    bytes += offsets.capacity() * sizeof(uint64_t);
  }
  return bytes;
}

std::vector<ShardRecordLocator::FrontierItem> ShardRecordLocator::SplitByShard(
    const std::vector<VertexId>& ids) const {
  std::vector<FrontierItem> items;
  for (size_t i = 0; i < ids.size(); ++i) {
    const uint32_t shard = ShardOf(ids[i]);
    if (items.empty() || items.back().shard != shard) {
      items.push_back(FrontierItem{shard, i, i});
    }
    items.back().end = i + 1;
  }
  return items;
}

}  // namespace semis
