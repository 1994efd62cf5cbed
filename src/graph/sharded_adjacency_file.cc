#include "graph/sharded_adjacency_file.h"

#include <algorithm>
#include <utility>

#include "graph/shard_store.h"

namespace semis {

namespace {
constexpr uint32_t kManifestMagic = kShardManifestMagic;
constexpr uint32_t kShardMagic = 0x53444153u;  // 'SADS' little-endian
constexpr uint32_t kVersion = 1;

// Record cost in u32 words: id + degree + neighbors. Shards are balanced
// on this, which is proportional to both file bytes and scan work.
uint64_t RecordWords(uint32_t degree) { return 2 + degree; }

// Reads the kAdjacencyShardHeaderBytes-byte header of shard `index` from
// `reader`, freshly opened on the shard file at `path`, and checks its
// magic, version, index and global vertex count: NotSupported for another
// version, else Corruption naming `path` on a mismatch.
Status ReadAdjacencyShardHeader(SequentialFileReader* reader,
                                const std::string& path, uint32_t index,
                                uint64_t num_vertices) {
  uint32_t magic = 0, version = 0, file_index = 0, reserved = 0;
  SEMIS_RETURN_IF_ERROR(reader->ReadU32(&magic));
  SEMIS_RETURN_IF_ERROR(reader->ReadU32(&version));
  if (magic != kShardMagic) {
    return Status::Corruption("bad magic in '" + path +
                              "': not an adjacency shard");
  }
  if (version != kVersion) {
    return Status::NotSupported("adjacency shard version " +
                                std::to_string(version) + " not supported");
  }
  SEMIS_RETURN_IF_ERROR(reader->ReadU32(&file_index));
  SEMIS_RETURN_IF_ERROR(reader->ReadU32(&reserved));
  if (file_index != index) {
    return Status::Corruption("shard index mismatch in '" + path + "'");
  }
  uint64_t hint_records = 0, hint_edges = 0, global_vertices = 0;
  SEMIS_RETURN_IF_ERROR(reader->ReadU64(&hint_records));
  SEMIS_RETURN_IF_ERROR(reader->ReadU64(&hint_edges));
  SEMIS_RETURN_IF_ERROR(reader->ReadU64(&global_vertices));
  if (global_vertices != num_vertices) {
    return Status::Corruption("shard '" + path +
                              "' disagrees with manifest vertex count");
  }
  return Status::OK();
}

}  // namespace

std::string ShardFilePath(const std::string& manifest_path, uint32_t index) {
  return manifest_path + ".shard" + std::to_string(index);
}

Status ReadShardedAdjacencyManifest(const std::string& path,
                                    ShardedAdjacencyManifest* out,
                                    IoStats* stats) {
  SequentialFileReader reader(stats);
  SEMIS_RETURN_IF_ERROR(reader.Open(path));
  uint32_t magic = 0, version = 0;
  SEMIS_RETURN_IF_ERROR(reader.ReadU32(&magic));
  SEMIS_RETURN_IF_ERROR(reader.ReadU32(&version));
  if (magic != kManifestMagic) {
    return Status::Corruption("bad magic in '" + path +
                              "': not a shard manifest");
  }
  if (version != kVersion) {
    return Status::NotSupported("shard manifest version " +
                                std::to_string(version) + " not supported");
  }
  ShardedAdjacencyManifest m;
  uint32_t num_shards = 0, reserved = 0;
  SEMIS_RETURN_IF_ERROR(reader.ReadU64(&m.header.num_vertices));
  SEMIS_RETURN_IF_ERROR(reader.ReadU64(&m.header.num_directed_edges));
  SEMIS_RETURN_IF_ERROR(reader.ReadU32(&m.header.flags));
  SEMIS_RETURN_IF_ERROR(reader.ReadU32(&m.header.max_degree));
  SEMIS_RETURN_IF_ERROR(reader.ReadU32(&num_shards));
  SEMIS_RETURN_IF_ERROR(reader.ReadU32(&reserved));
  // As in the SADJ header: callers size per-vertex arrays from the count
  // before they read a record.
  if (m.header.num_vertices > kMaxAdjacencyVertices) {
    return Status::Corruption(
        "manifest '" + path + "' declares " +
        std::to_string(m.header.num_vertices) +
        " vertices, past the 32-bit id space");
  }
  if (num_shards == 0) {
    return Status::Corruption("manifest '" + path + "' declares zero shards");
  }
  // Bound BEFORE the resize so a corrupted count cannot make the reader
  // allocate gigabytes; the writer never produces more than
  // kMaxAdjacencyShards shards.
  if (num_shards > kMaxAdjacencyShards) {
    return Status::Corruption("manifest '" + path +
                              "' declares an impossible shard count");
  }
  m.shards.resize(num_shards);
  uint64_t total_records = 0, total_edges = 0;
  for (ShardInfo& s : m.shards) {
    SEMIS_RETURN_IF_ERROR(reader.ReadU64(&s.num_records));
    SEMIS_RETURN_IF_ERROR(reader.ReadU64(&s.num_directed_edges));
    total_records += s.num_records;
    total_edges += s.num_directed_edges;
  }
  if (!reader.AtEof()) {
    return Status::Corruption("trailing bytes in shard manifest '" + path +
                              "'");
  }
  if (total_records != m.header.num_vertices ||
      total_edges != m.header.num_directed_edges) {
    return Status::Corruption("shard totals disagree with global header in '" +
                              path + "'");
  }
  *out = std::move(m);
  return Status::OK();
}

Status WriteShardedAdjacencyManifest(const std::string& path,
                                     const ShardedAdjacencyManifest& manifest,
                                     IoStats* stats) {
  if (manifest.num_shards() == 0) {
    return Status::InvalidArgument("manifest needs >= 1 shard");
  }
  uint64_t total_records = 0, total_edges = 0;
  for (const ShardInfo& s : manifest.shards) {
    total_records += s.num_records;
    total_edges += s.num_directed_edges;
  }
  if (total_records != manifest.header.num_vertices ||
      total_edges != manifest.header.num_directed_edges) {
    return Status::InvalidArgument(
        "shard totals disagree with the global header");
  }
  // Write-then-rename: compaction overwrites a live manifest, and a crash
  // mid-write must not leave a torn one behind.
  const std::string tmp = path + ".tmp";
  SequentialFileWriter writer(stats);
  SEMIS_RETURN_IF_ERROR(writer.Open(tmp));
  SEMIS_RETURN_IF_ERROR(writer.AppendU32(kManifestMagic));
  SEMIS_RETURN_IF_ERROR(writer.AppendU32(kVersion));
  SEMIS_RETURN_IF_ERROR(writer.AppendU64(manifest.header.num_vertices));
  SEMIS_RETURN_IF_ERROR(writer.AppendU64(manifest.header.num_directed_edges));
  SEMIS_RETURN_IF_ERROR(writer.AppendU32(manifest.header.flags));
  SEMIS_RETURN_IF_ERROR(writer.AppendU32(manifest.header.max_degree));
  SEMIS_RETURN_IF_ERROR(writer.AppendU32(manifest.num_shards()));
  SEMIS_RETURN_IF_ERROR(writer.AppendU32(0));  // reserved
  for (const ShardInfo& s : manifest.shards) {
    SEMIS_RETURN_IF_ERROR(writer.AppendU64(s.num_records));
    SEMIS_RETURN_IF_ERROR(writer.AppendU64(s.num_directed_edges));
  }
  SEMIS_RETURN_IF_ERROR(writer.Close());
  SEMIS_RETURN_IF_ERROR(RenameFile(tmp, path));
  return Status::OK();
}

Status WriteAdjacencyShardHeader(SequentialFileWriter* writer, uint32_t index,
                                 uint64_t num_vertices) {
  SEMIS_RETURN_IF_ERROR(writer->AppendU32(kShardMagic));
  SEMIS_RETURN_IF_ERROR(writer->AppendU32(kVersion));
  SEMIS_RETURN_IF_ERROR(writer->AppendU32(index));
  SEMIS_RETURN_IF_ERROR(writer->AppendU32(0));  // reserved
  // Shard totals are not known until the shard is closed; the file stays
  // append-only, so they are written as zero here and recorded
  // authoritatively in the manifest. Readers take totals from the
  // manifest and treat the in-file pair as a hint.
  SEMIS_RETURN_IF_ERROR(writer->AppendU64(0));
  SEMIS_RETURN_IF_ERROR(writer->AppendU64(0));
  return writer->AppendU64(num_vertices);
}

ShardedAdjacencyFileWriter::ShardedAdjacencyFileWriter(IoStats* stats)
    : stats_(stats), writer_(stats) {}

Status ShardedAdjacencyFileWriter::Open(const std::string& manifest_path,
                                        uint64_t num_vertices,
                                        uint64_t num_directed_edges,
                                        uint32_t max_degree, uint32_t flags,
                                        uint32_t num_shards) {
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be at least 1");
  }
  if (num_shards > kMaxAdjacencyShards) {
    return Status::InvalidArgument(
        "num_shards " + std::to_string(num_shards) + " exceeds the limit of " +
        std::to_string(kMaxAdjacencyShards));
  }
  if (num_vertices > kMaxAdjacencyVertices) {
    return Status::InvalidArgument("vertex count " +
                                   std::to_string(num_vertices) +
                                   " exceeds the 32-bit id space");
  }
  manifest_path_ = manifest_path;
  declared_vertices_ = num_vertices;
  declared_directed_edges_ = num_directed_edges;
  declared_max_degree_ = max_degree;
  declared_flags_ = flags;
  num_shards_ = num_shards;
  const uint64_t total_words =
      2 * num_vertices + num_directed_edges;  // sum of RecordWords
  shard_budget_words_ = (total_words + num_shards - 1) / num_shards;
  if (shard_budget_words_ == 0) shard_budget_words_ = 1;
  finished_shards_.clear();
  appended_vertices_ = 0;
  appended_edges_ = 0;
  seen_ = BitVector(num_vertices);
  return StartShard(0);
}

Status ShardedAdjacencyFileWriter::StartShard(uint32_t index) {
  current_shard_ = index;
  shard_words_ = 0;
  current_info_ = ShardInfo();
  SEMIS_RETURN_IF_ERROR(writer_.Open(ShardFilePath(manifest_path_, index)));
  return WriteAdjacencyShardHeader(&writer_, index, declared_vertices_);
}

Status ShardedAdjacencyFileWriter::CloseShard() {
  SEMIS_RETURN_IF_ERROR(writer_.Close());
  finished_shards_.push_back(current_info_);
  return Status::OK();
}

Status ShardedAdjacencyFileWriter::AppendVertex(VertexId id,
                                                const VertexId* neighbors,
                                                uint32_t degree) {
  if (id >= declared_vertices_) {
    return Status::InvalidArgument("vertex id " + std::to_string(id) +
                                   " out of range");
  }
  if (degree > declared_max_degree_) {
    return Status::InvalidArgument(
        "vertex degree exceeds declared max_degree");
  }
  if (seen_.Test(id)) {
    return Status::InvalidArgument("vertex id " + std::to_string(id) +
                                   " appended twice");
  }
  seen_.Set(id);
  const uint64_t words = RecordWords(degree);
  // Roll to the next shard when this record would overflow the budget --
  // but never roll an empty shard, and keep the last shard open for the
  // remainder. The split depends only on the record stream, so it is
  // byte-stable across runs.
  if (shard_words_ > 0 && shard_words_ + words > shard_budget_words_ &&
      current_shard_ + 1 < num_shards_) {
    SEMIS_RETURN_IF_ERROR(CloseShard());
    SEMIS_RETURN_IF_ERROR(StartShard(current_shard_ + 1));
  }
  SEMIS_RETURN_IF_ERROR(AppendAdjacencyRecord(&writer_, id, neighbors, degree));
  shard_words_ += words;
  current_info_.num_records++;
  current_info_.num_directed_edges += degree;
  appended_vertices_++;
  appended_edges_ += degree;
  return Status::OK();
}

Status ShardedAdjacencyFileWriter::Finish() {
  SEMIS_RETURN_IF_ERROR(CloseShard());
  // Materialize trailing empty shards so every manifest entry has a file.
  while (finished_shards_.size() < num_shards_) {
    SEMIS_RETURN_IF_ERROR(StartShard(current_shard_ + 1));
    SEMIS_RETURN_IF_ERROR(CloseShard());
  }
  if (appended_vertices_ != declared_vertices_) {
    return Status::InvalidArgument(
        "vertex count mismatch: declared " +
        std::to_string(declared_vertices_) + ", appended " +
        std::to_string(appended_vertices_));
  }
  if (appended_edges_ != declared_directed_edges_) {
    return Status::InvalidArgument(
        "edge count mismatch: declared " +
        std::to_string(declared_directed_edges_) + ", appended " +
        std::to_string(appended_edges_));
  }
  ShardedAdjacencyManifest manifest;
  manifest.header.num_vertices = declared_vertices_;
  manifest.header.num_directed_edges = declared_directed_edges_;
  manifest.header.flags = declared_flags_;
  manifest.header.max_degree = declared_max_degree_;
  manifest.shards = finished_shards_;
  return WriteShardedAdjacencyManifest(manifest_path_, manifest, stats_);
}

Status AdjacencyFileScanner::OpenShard(
    const std::string& manifest_path, const ShardedAdjacencyManifest& manifest,
    uint32_t index) {
  // An index past the manifest fails in the range open.
  return OpenShard(manifest_path, manifest, index,
                   index < manifest.num_shards()
                       ? WholeShardRange(manifest.shards[index])
                       : ShardRecordRange{});
}

Status AdjacencyFileScanner::OpenShard(
    const std::string& manifest_path, const ShardedAdjacencyManifest& manifest,
    uint32_t index, const ShardRecordRange& range) {
  if (index >= manifest.num_shards()) {
    return Fail(Status::InvalidArgument("shard index out of range"));
  }
  path_ = ShardFilePath(manifest_path, index);
  header_ = manifest.header;
  const ShardInfo& info = manifest.shards[index];
  Status s = CheckEdgeTotal(info.num_directed_edges);
  if (!s.ok()) return Fail(std::move(s));
  if (range.first_record > range.end_record ||
      range.end_record > info.num_records ||
      range.end_offset > WholeShardRange(info).end_offset) {
    return Fail(Status::InvalidArgument(
        "records " + std::to_string(range.first_record) + ".." +
        std::to_string(range.end_record) + " at bytes " +
        std::to_string(range.begin_offset) + ".." +
        std::to_string(range.end_offset) + " lie outside '" + path_ + "'"));
  }
  decoder_.Reset(path_, header_.num_vertices, header_.max_degree);
  StartStream(range.first_record, range.end_record, range.begin_offset,
              range.end_offset, range.end_record == info.num_records);
  s = reader_.Open(path_);
  if (s.ok()) {
    s = range.first_record == 0
            ? ReadAdjacencyShardHeader(&reader_, path_, index,
                                       header_.num_vertices)
            : reader_.Skip(range.begin_offset);
  }
  return s.ok() ? s : Fail(std::move(s));
}

ManifestOrderedShardCursor::ManifestOrderedShardCursor(IoStats* stats)
    : stats_(stats) {}

ManifestOrderedShardCursor::~ManifestOrderedShardCursor() {
  Close().IgnoreError();  // a destructor cannot propagate
}

Status ManifestOrderedShardCursor::Open(const std::string& manifest_path) {
  if (open_) {
    return Status::InvalidArgument("cursor is already open");
  }
  SEMIS_RETURN_IF_ERROR(ReadShardStoreManifest(manifest_path, &manifest_,
                                               stats_, &manifest_path_));
  if (stats_ != nullptr) stats_->sequential_scans++;
  open_ = true;
  if (scanner_ == nullptr) {
    scanner_ = std::make_unique<AdjacencyFileScanner>(stats_);
  }
  scan_shard_ = 0;
  scan_error_ = Status::OK();
  return Status::OK();
}

Status ManifestOrderedShardCursor::NextSlow(VertexRecordView* view,
                                            bool* has_next) {
  if (!open_) {
    return Status::InvalidArgument("cursor is not open");
  }
  while (scan_error_.ok()) {
    if (scan_shard_ == manifest_.num_shards()) {
      *has_next = false;
      return Status::OK();
    }
    scan_error_ = scanner_->OpenShard(manifest_path_, manifest_, scan_shard_);
    shard_open_ = scan_error_.ok();
    if (shard_open_ && ReadOpenShard(view, has_next)) return Status::OK();
  }
  return scan_error_;
}

Status ManifestOrderedShardCursor::Close() {
  if (!open_) return Status::OK();
  open_ = false;
  shard_open_ = false;
  Status closed = scanner_->Close();
  return scan_error_.ok() ? closed : scan_error_;
}

Status ShardAdjacencyFile(const std::string& input_path,
                          const std::string& manifest_path,
                          uint32_t num_shards, IoStats* stats) {
  AdjacencyFileScanner scanner(stats);
  SEMIS_RETURN_IF_ERROR(scanner.Open(input_path));
  const AdjacencyFileHeader& h = scanner.header();
  ShardedAdjacencyFileWriter writer(stats);
  SEMIS_RETURN_IF_ERROR(writer.Open(manifest_path, h.num_vertices,
                                    h.num_directed_edges, h.max_degree,
                                    h.flags, num_shards));
  VertexRecordView rec;
  bool has_next = false;
  while (true) {
    SEMIS_RETURN_IF_ERROR(scanner.Next(&rec, &has_next));
    if (!has_next) break;
    SEMIS_RETURN_IF_ERROR(writer.AppendVertex(rec.id, rec.neighbors,
                                              rec.degree));
  }
  return writer.Finish();
}

}  // namespace semis
