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
    AdjacencyShardReader reader(stats);
    SEMIS_RETURN_IF_ERROR(reader.Open(manifest_path, manifest, k));
    uint64_t offset = kAdjacencyShardHeaderBytes;
    VertexRecordView rec;
    bool has_next = false;
    while (true) {
      SEMIS_RETURN_IF_ERROR(reader.Next(&rec, &has_next));
      if (!has_next) break;
      if ((next_rank - first_rank[k]) % kLocatorCheckpointStride == 0) {
        checkpoints[k].push_back(offset);
      }
      rank[rec.id] = static_cast<uint32_t>(next_rank++);
      offset += AdjacencyRecordBytes(rec.degree);
    }
    SEMIS_RETURN_IF_ERROR(reader.Close());
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
