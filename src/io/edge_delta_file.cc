#include "io/edge_delta_file.h"

#include <algorithm>
#include <cstddef>

#include "graph/sharded_adjacency_file.h"

namespace semis {

namespace {
constexpr uint32_t kDeltaManifestMagic = 0x4D4C4453u;  // 'SDLM' little-endian
constexpr uint32_t kDeltaShardMagic = 0x534C4453u;     // 'SDLS' little-endian
constexpr uint32_t kVersion = 1;
// Encoded sizes: the delta manifest's fixed header and per-shard count,
// a shard log's header, and one log entry (u64 seq, u32 op, u32 u, u32 v).
// The writers' buffers are sized to what they write: these files are
// rewritten or appended after every batch, a few entries at a time.
constexpr size_t kManifestHeaderBytes = 32;
constexpr size_t kManifestShardBytes = 8;
constexpr size_t kShardLogHeaderBytes = 24;
constexpr size_t kEntryBytes = 20;
constexpr size_t kMaxBufferedEntries = (size_t{1} << 20) / kEntryBytes;

Status ValidateEntry(const EdgeDeltaEntry& entry, uint64_t num_vertices,
                     const std::string& context) {
  if (entry.op != EdgeDeltaOp::kInsert && entry.op != EdgeDeltaOp::kDelete) {
    return Status::Corruption("unknown delta op " +
                              std::to_string(static_cast<uint32_t>(entry.op)) +
                              " in " + context);
  }
  if (entry.u >= num_vertices || entry.v >= num_vertices) {
    return Status::Corruption("delta entry vertex id out of range in " +
                              context);
  }
  if (entry.u == entry.v) {
    return Status::Corruption("delta entry is a self-loop in " + context);
  }
  return Status::OK();
}
}  // namespace

std::string EdgeDeltaManifestPath(const std::string& sadjs_manifest_path) {
  return sadjs_manifest_path + ".delta";
}

std::string EdgeDeltaShardPath(const std::string& delta_path, uint32_t index) {
  return delta_path + ".shard" + std::to_string(index);
}

Status ReadEdgeDeltaManifest(const std::string& path, EdgeDeltaManifest* out,
                             IoStats* stats) {
  SequentialFileReader reader(stats);
  SEMIS_RETURN_IF_ERROR(reader.Open(path));
  uint32_t magic = 0, version = 0;
  SEMIS_RETURN_IF_ERROR(reader.ReadU32(&magic));
  SEMIS_RETURN_IF_ERROR(reader.ReadU32(&version));
  if (magic != kDeltaManifestMagic) {
    return Status::Corruption("bad magic in '" + path +
                              "': not an edge-delta manifest");
  }
  if (version != kVersion) {
    return Status::NotSupported("edge-delta manifest version " +
                                std::to_string(version) + " not supported");
  }
  EdgeDeltaManifest m;
  uint32_t num_shards = 0, reserved = 0;
  SEMIS_RETURN_IF_ERROR(reader.ReadU64(&m.num_vertices));
  SEMIS_RETURN_IF_ERROR(reader.ReadU64(&m.next_sequence));
  SEMIS_RETURN_IF_ERROR(reader.ReadU32(&num_shards));
  SEMIS_RETURN_IF_ERROR(reader.ReadU32(&reserved));
  if (num_shards == 0) {
    return Status::Corruption("edge-delta manifest '" + path +
                              "' declares zero shards");
  }
  // Bound BEFORE the resize: a hostile count must not make the reader
  // allocate gigabytes. Delta shards mirror SADJS shards, so the same
  // ceiling applies.
  if (num_shards > kMaxAdjacencyShards) {
    return Status::Corruption("edge-delta manifest '" + path +
                              "' declares an impossible shard count");
  }
  m.shard_entries.resize(num_shards);
  for (uint64_t& count : m.shard_entries) {
    SEMIS_RETURN_IF_ERROR(reader.ReadU64(&count));
    if (count > m.next_sequence) {
      return Status::Corruption("edge-delta manifest '" + path +
                                "' declares more entries in one shard than "
                                "updates in the stream");
    }
  }
  if (!reader.AtEof()) {
    return Status::Corruption("trailing bytes in edge-delta manifest '" +
                              path + "'");
  }
  *out = std::move(m);
  return Status::OK();
}

Status WriteEdgeDeltaManifest(const std::string& path,
                              const EdgeDeltaManifest& manifest,
                              IoStats* stats) {
  if (manifest.num_shards() == 0) {
    return Status::InvalidArgument("edge-delta manifest needs >= 1 shard");
  }
  // Write-then-rename so a crash mid-write never leaves a half manifest
  // (the manifest is rewritten after every flushed batch).
  const std::string tmp = path + ".tmp";
  SequentialFileWriter writer(stats, kManifestHeaderBytes +
                                         kManifestShardBytes *
                                             manifest.num_shards());
  SEMIS_RETURN_IF_ERROR(writer.Open(tmp));
  SEMIS_RETURN_IF_ERROR(writer.AppendU32(kDeltaManifestMagic));
  SEMIS_RETURN_IF_ERROR(writer.AppendU32(kVersion));
  SEMIS_RETURN_IF_ERROR(writer.AppendU64(manifest.num_vertices));
  SEMIS_RETURN_IF_ERROR(writer.AppendU64(manifest.next_sequence));
  SEMIS_RETURN_IF_ERROR(writer.AppendU32(manifest.num_shards()));
  SEMIS_RETURN_IF_ERROR(writer.AppendU32(0));  // reserved
  for (uint64_t count : manifest.shard_entries) {
    SEMIS_RETURN_IF_ERROR(writer.AppendU64(count));
  }
  SEMIS_RETURN_IF_ERROR(writer.Close());
  SEMIS_RETURN_IF_ERROR(RenameFile(tmp, path));
  return Status::OK();
}

Status CreateEdgeDeltaShardLog(const std::string& delta_path, uint32_t index,
                               uint64_t num_vertices, IoStats* stats) {
  return CreateEdgeDeltaShardLogAtPath(EdgeDeltaShardPath(delta_path, index),
                                       index, num_vertices, stats);
}

Status CreateEdgeDeltaShardLogAtPath(const std::string& log_path,
                                     uint32_t index, uint64_t num_vertices,
                                     IoStats* stats) {
  SequentialFileWriter writer(stats, kShardLogHeaderBytes);
  SEMIS_RETURN_IF_ERROR(writer.Open(log_path));
  SEMIS_RETURN_IF_ERROR(writer.AppendU32(kDeltaShardMagic));
  SEMIS_RETURN_IF_ERROR(writer.AppendU32(kVersion));
  SEMIS_RETURN_IF_ERROR(writer.AppendU32(index));
  SEMIS_RETURN_IF_ERROR(writer.AppendU32(0));  // reserved
  SEMIS_RETURN_IF_ERROR(writer.AppendU64(num_vertices));
  return writer.Close();
}

EdgeDeltaShardWriter::EdgeDeltaShardWriter(IoStats* stats,
                                           size_t expected_entries)
    : writer_(stats, kEntryBytes * std::clamp<size_t>(expected_entries, 1,
                                                      kMaxBufferedEntries)) {}

Status EdgeDeltaShardWriter::Open(const std::string& delta_path,
                                  uint32_t index, uint64_t num_vertices) {
  return OpenAtPath(EdgeDeltaShardPath(delta_path, index), num_vertices);
}

Status EdgeDeltaShardWriter::OpenAtPath(const std::string& log_path,
                                        uint64_t num_vertices) {
  num_vertices_ = num_vertices;
  return writer_.OpenAppend(log_path);
}

Status EdgeDeltaShardWriter::Append(const EdgeDeltaEntry& entry) {
  if (entry.u >= num_vertices_ || entry.v >= num_vertices_) {
    return Status::InvalidArgument("delta entry vertex id out of range");
  }
  if (entry.u == entry.v) {
    return Status::InvalidArgument("delta entry is a self-loop");
  }
  SEMIS_RETURN_IF_ERROR(writer_.AppendU64(entry.seq));
  SEMIS_RETURN_IF_ERROR(
      writer_.AppendU32(static_cast<uint32_t>(entry.op)));
  SEMIS_RETURN_IF_ERROR(writer_.AppendU32(entry.u));
  return writer_.AppendU32(entry.v);
}

Status EdgeDeltaShardWriter::Close() { return writer_.Close(); }

EdgeDeltaShardReader::EdgeDeltaShardReader(IoStats* stats,
                                           bool tolerate_trailing_bytes)
    : reader_(stats), tolerate_trailing_bytes_(tolerate_trailing_bytes) {}

Status EdgeDeltaShardReader::Open(const std::string& delta_path,
                                  const EdgeDeltaManifest& manifest,
                                  uint32_t index) {
  if (index >= manifest.num_shards()) {
    return Status::InvalidArgument("delta shard index out of range");
  }
  path_ = EdgeDeltaShardPath(delta_path, index);
  num_vertices_ = manifest.num_vertices;
  num_entries_ = manifest.shard_entries[index];
  max_sequence_ = manifest.next_sequence;
  entries_seen_ = 0;
  last_seq_ = 0;
  any_seen_ = false;
  SEMIS_RETURN_IF_ERROR(reader_.Open(path_));
  uint32_t magic = 0, version = 0, file_index = 0, reserved = 0;
  SEMIS_RETURN_IF_ERROR(reader_.ReadU32(&magic));
  SEMIS_RETURN_IF_ERROR(reader_.ReadU32(&version));
  if (magic != kDeltaShardMagic) {
    return Status::Corruption("bad magic in '" + path_ +
                              "': not an edge-delta shard log");
  }
  if (version != kVersion) {
    return Status::NotSupported("edge-delta shard log version " +
                                std::to_string(version) + " not supported");
  }
  SEMIS_RETURN_IF_ERROR(reader_.ReadU32(&file_index));
  SEMIS_RETURN_IF_ERROR(reader_.ReadU32(&reserved));
  if (file_index != index) {
    return Status::Corruption("delta shard index mismatch in '" + path_ +
                              "'");
  }
  uint64_t file_vertices = 0;
  SEMIS_RETURN_IF_ERROR(reader_.ReadU64(&file_vertices));
  if (file_vertices != num_vertices_) {
    return Status::Corruption("delta shard log '" + path_ +
                              "' disagrees with manifest vertex count");
  }
  return Status::OK();
}

Status EdgeDeltaShardReader::Next(EdgeDeltaEntry* entry, bool* has_next) {
  if (entries_seen_ == num_entries_) {
    if (!reader_.AtEof()) {
      if (!tolerate_trailing_bytes_) {
        return Status::Corruption(
            "trailing bytes after last delta entry in '" + path_ + "'");
      }
      had_trailing_bytes_ = true;
    }
    *has_next = false;
    return Status::OK();
  }
  if (reader_.AtEof()) {
    return Status::Corruption(
        "delta shard log '" + path_ + "' truncated: expected " +
        std::to_string(num_entries_) + " entries, found " +
        std::to_string(entries_seen_));
  }
  EdgeDeltaEntry e;
  uint32_t op = 0;
  SEMIS_RETURN_IF_ERROR(reader_.ReadU64(&e.seq));
  SEMIS_RETURN_IF_ERROR(reader_.ReadU32(&op));
  SEMIS_RETURN_IF_ERROR(reader_.ReadU32(&e.u));
  SEMIS_RETURN_IF_ERROR(reader_.ReadU32(&e.v));
  e.op = static_cast<EdgeDeltaOp>(op);
  SEMIS_RETURN_IF_ERROR(ValidateEntry(e, num_vertices_, "'" + path_ + "'"));
  if (e.seq >= max_sequence_) {
    return Status::Corruption("delta entry sequence number beyond the "
                              "manifest's update count in '" + path_ + "'");
  }
  if (any_seen_ && e.seq <= last_seq_) {
    return Status::Corruption("delta entry sequence numbers not strictly "
                              "increasing in '" + path_ + "'");
  }
  last_seq_ = e.seq;
  any_seen_ = true;
  entries_seen_++;
  *entry = e;
  *has_next = true;
  return Status::OK();
}

Status EdgeDeltaShardReader::Close() { return reader_.Close(); }

Status ReadEdgeDeltaShardLog(const std::string& delta_path,
                             const EdgeDeltaManifest& manifest, uint32_t index,
                             std::vector<EdgeDeltaEntry>* out, IoStats* stats,
                             bool tolerate_trailing_bytes,
                             bool* had_trailing_bytes) {
  EdgeDeltaShardReader reader(stats, tolerate_trailing_bytes);
  SEMIS_RETURN_IF_ERROR(reader.Open(delta_path, manifest, index));
  EdgeDeltaEntry entry;
  bool has_next = false;
  while (true) {
    SEMIS_RETURN_IF_ERROR(reader.Next(&entry, &has_next));
    if (!has_next) break;
    out->push_back(entry);
  }
  if (had_trailing_bytes != nullptr) {
    *had_trailing_bytes = reader.had_trailing_bytes();
  }
  return reader.Close();
}

Status RemoveEdgeDelta(const std::string& delta_path, uint32_t num_shards) {
  SEMIS_RETURN_IF_ERROR(RemoveFileIfExists(delta_path));
  for (uint32_t i = 0; i < num_shards; ++i) {
    SEMIS_RETURN_IF_ERROR(
        RemoveFileIfExists(EdgeDeltaShardPath(delta_path, i)));
  }
  return Status::OK();
}

}  // namespace semis
