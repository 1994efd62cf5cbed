#include "graph/sharded_adjacency_file.h"

#include <cstring>

#include "graph/shard_store.h"

namespace semis {

namespace {
constexpr uint32_t kManifestMagic = kShardManifestMagic;
constexpr uint32_t kShardMagic = 0x53444153u;  // 'SADS' little-endian
constexpr uint32_t kVersion = 1;

// Buffer of the sparse record reader. Most records are a few dozen bytes
// and the ones a frontier asks for lie far apart, so one window usually
// covers the checkpoint walk and the record. On a 1M-vertex PLRG a
// 1024-update frontier repair took 4.6 ms with 4 KB, 5.4 ms with 1 KB
// and no less with 8 KB.
constexpr size_t kSparseReadWindowBytes = 4096;

// Record cost in u32 words: id + degree + neighbors. Shards are balanced
// on this, which is proportional to both file bytes and scan work.
uint64_t RecordWords(uint32_t degree) { return 2 + degree; }

// Reads and validates the header of shard `index` from a freshly opened
// `reader` (kAdjacencyShardHeaderBytes bytes).
Status ReadShardHeader(SequentialFileReader* reader, const std::string& path,
                       uint32_t index, uint64_t num_vertices) {
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

AdjacencyShardReader::AdjacencyShardReader(IoStats* stats)
    : stats_(stats), reader_(stats) {}

Status AdjacencyShardReader::Open(const std::string& manifest_path,
                                  const ShardedAdjacencyManifest& manifest,
                                  uint32_t index) {
  if (index >= manifest.num_shards()) {
    return Status::InvalidArgument("shard index out of range");
  }
  path_ = ShardFilePath(manifest_path, index);
  num_vertices_ = manifest.header.num_vertices;
  num_records_ = manifest.shards[index].num_records;
  num_edges_ = manifest.shards[index].num_directed_edges;
  records_seen_ = 0;
  edges_seen_ = 0;
  decoder_.Reset(path_, num_vertices_, manifest.header.max_degree);
  SEMIS_RETURN_IF_ERROR(reader_.Open(path_));
  return ReadShardHeader(&reader_, path_, index, num_vertices_);
}

Status AdjacencyShardReader::Next(VertexRecordView* view, bool* has_next) {
  if (records_seen_ == num_records_) {
    if (!reader_.AtEof()) {
      return Status::Corruption("trailing bytes after last record in '" +
                                path_ + "'");
    }
    if (edges_seen_ != num_edges_) {
      return Status::Corruption(
          "shard '" + path_ + "' holds " + std::to_string(edges_seen_) +
          " directed edges but the manifest declares " +
          std::to_string(num_edges_));
    }
    *has_next = false;
    return Status::OK();
  }
  if (reader_.AtEof()) {
    return Status::Corruption(
        "shard '" + path_ + "' truncated: expected " +
        std::to_string(num_records_) + " records, found " +
        std::to_string(records_seen_));
  }
  SEMIS_RETURN_IF_ERROR(decoder_.Decode(&reader_, view));
  if (edges_seen_ + view->degree > num_edges_) {
    return Status::Corruption("more edges than declared in '" + path_ + "'");
  }
  records_seen_++;
  edges_seen_ += view->degree;
  if (stats_ != nullptr) stats_->records_decoded++;
  *has_next = true;
  return Status::OK();
}

Status AdjacencyShardReader::NextInto(RecordBlock* block, bool* has_next) {
  VertexRecordView view;
  SEMIS_RETURN_IF_ERROR(Next(&view, has_next));
  if (!*has_next) return Status::OK();
  // The record is validated before it touches the block, so a failed
  // decode never stages anything.
  VertexId* dst = block->BeginRecord(view.id, view.degree);
  if (view.degree > 0) {
    std::memcpy(dst, view.neighbors, sizeof(VertexId) * view.degree);
  }
  block->CommitRecord();
  return Status::OK();
}

Status AdjacencyShardReader::Close() { return reader_.Close(); }

AdjacencyShardRecordReader::AdjacencyShardRecordReader(IoStats* stats)
    : stats_(stats), reader_(stats, kSparseReadWindowBytes) {}

Status AdjacencyShardRecordReader::Open(
    const std::string& manifest_path, const ShardedAdjacencyManifest& manifest,
    uint32_t index) {
  if (index >= manifest.num_shards()) {
    return Status::InvalidArgument("shard index out of range");
  }
  path_ = ShardFilePath(manifest_path, index);
  num_vertices_ = manifest.header.num_vertices;
  max_degree_ = manifest.header.max_degree;
  num_records_ = manifest.shards[index].num_records;
  next_record_ = 0;
  offset_ = kAdjacencyShardHeaderBytes;
  decoder_.Reset(path_, num_vertices_, max_degree_);
  error_ = Status::OK();
  SEMIS_RETURN_IF_ERROR(reader_.Open(path_));
  error_ = ReadShardHeader(&reader_, path_, index, num_vertices_);
  return error_;
}

Status AdjacencyShardRecordReader::ReadRecord(uint64_t record,
                                              uint64_t checkpoint_record,
                                              uint64_t checkpoint_offset,
                                              VertexId id,
                                              VertexRecordView* view) {
  // The read position is only known on the success path; after a failure
  // it is not, so the reader stays failed.
  if (!error_.ok()) return error_;
  error_ = ReadRecordInner(record, checkpoint_record, checkpoint_offset, id,
                           view);
  return error_;
}

Status AdjacencyShardRecordReader::ReadRecordInner(uint64_t record,
                                                   uint64_t checkpoint_record,
                                                   uint64_t checkpoint_offset,
                                                   VertexId id,
                                                   VertexRecordView* view) {
  if (record >= num_records_ || checkpoint_record > record) {
    return Status::InvalidArgument("sparse read of record " +
                                   std::to_string(record) +
                                   " out of range in '" + path_ + "'");
  }
  if (record < next_record_) {
    return Status::InvalidArgument("sparse read of record " +
                                   std::to_string(record) +
                                   " moves backwards in '" + path_ + "'");
  }
  if (checkpoint_record > next_record_) {
    if (checkpoint_offset < offset_) {
      return Status::Corruption("checkpoint of record " +
                                std::to_string(checkpoint_record) +
                                " lies behind the read position in '" +
                                path_ + "'");
    }
    SEMIS_RETURN_IF_ERROR(reader_.Skip(checkpoint_offset - offset_));
    offset_ = checkpoint_offset;
    next_record_ = checkpoint_record;
  }
  // Step over the records between the read position and the target,
  // reading only their headers.
  while (next_record_ < record) {
    uint32_t got_id = 0, degree = 0;
    SEMIS_RETURN_IF_ERROR(reader_.ReadU32(&got_id));
    SEMIS_RETURN_IF_ERROR(reader_.ReadU32(&degree));
    if (got_id >= num_vertices_) {
      return Status::Corruption("record id out of range in '" + path_ + "'");
    }
    if (degree > max_degree_) {
      return Status::Corruption(
          "record degree exceeds header max_degree in '" + path_ + "'");
    }
    SEMIS_RETURN_IF_ERROR(reader_.Skip(sizeof(VertexId) * uint64_t{degree}));
    offset_ += AdjacencyRecordBytes(degree);
    next_record_++;
  }
  SEMIS_RETURN_IF_ERROR(decoder_.Decode(&reader_, view));
  if (view->id != id) {
    return Status::Corruption("record " + std::to_string(record) + " of '" +
                              path_ + "' holds vertex " +
                              std::to_string(view->id) + ", not " +
                              std::to_string(id));
  }
  offset_ += AdjacencyRecordBytes(view->degree);
  next_record_++;
  if (stats_ != nullptr) stats_->records_decoded++;
  return Status::OK();
}

Status AdjacencyShardRecordReader::Close() { return reader_.Close(); }

ShardedAdjacencyScanner::ShardedAdjacencyScanner(IoStats* stats)
    : stats_(stats), reader_(stats) {}

Status ShardedAdjacencyScanner::Open(const std::string& manifest_path) {
  // The path may be a journaled store root (SEPR); shard paths must then
  // derive from the resolved epoch manifest, not the root.
  ResolvedShardStore resolved;
  SEMIS_RETURN_IF_ERROR(ResolveShardStore(manifest_path, &resolved, stats_));
  manifest_path_ = resolved.manifest_path;
  SEMIS_RETURN_IF_ERROR(
      ReadShardedAdjacencyManifest(manifest_path_, &manifest_, stats_));
  if (stats_ != nullptr) stats_->sequential_scans++;
  current_shard_ = 0;
  SEMIS_RETURN_IF_ERROR(reader_.Open(manifest_path_, manifest_, 0));
  shard_open_ = true;
  return Status::OK();
}

Status ShardedAdjacencyScanner::Next(VertexRecordView* view, bool* has_next) {
  while (true) {
    if (!shard_open_) {
      *has_next = false;
      return Status::OK();
    }
    bool shard_has_next = false;
    SEMIS_RETURN_IF_ERROR(reader_.Next(view, &shard_has_next));
    if (shard_has_next) {
      *has_next = true;
      return Status::OK();
    }
    SEMIS_RETURN_IF_ERROR(reader_.Close());
    shard_open_ = false;
    if (current_shard_ + 1 < manifest_.num_shards()) {
      current_shard_++;
      SEMIS_RETURN_IF_ERROR(
          reader_.Open(manifest_path_, manifest_, current_shard_));
      shard_open_ = true;
    }
  }
}

ManifestOrderedShardCursor::ManifestOrderedShardCursor(IoStats* stats)
    : stats_(stats) {}

ManifestOrderedShardCursor::~ManifestOrderedShardCursor() {
  Close().IgnoreError();  // a destructor cannot propagate
  ReleaseCurrentBlock();
}

// Returns the consumer's block (left alone by Close, which may race a
// concurrent Next) to the pool, so an abandoned scan does not strand a
// warmed arena -- that would quietly erode an external pool's
// steady-state zero-allocation property. Only called from contexts where
// no consumer can legitimately hold the block: Open and the destructor.
void ManifestOrderedShardCursor::ReleaseCurrentBlock() {
  if (current_loaded_ && blocks_ != nullptr) {
    current_loaded_ = false;
    blocks_->Release(std::move(current_));
  }
}

Status ManifestOrderedShardCursor::Open(const std::string& manifest_path,
                                        ThreadPool* pool,
                                        const BlockRingOptions& ring) {
  if (pool == nullptr) {
    return Status::InvalidArgument(
        "manifest-ordered cursor requires a thread pool");
  }
  if (open_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("cursor is already open");
  }
  // Resolve a possible journaled-store root to its current epoch manifest
  // so the decoder threads open the epoch's shard files.
  ResolvedShardStore resolved;
  SEMIS_RETURN_IF_ERROR(ResolveShardStore(manifest_path, &resolved, stats_));
  manifest_path_ = resolved.manifest_path;
  SEMIS_RETURN_IF_ERROR(
      ReadShardedAdjacencyManifest(manifest_path_, &manifest_, stats_));
  if (stats_ != nullptr) stats_->sequential_scans++;
  pool_ = pool;
  block_bytes_ = ring.block_bytes != 0 ? ring.block_bytes
                                       : kDefaultDecodeBlockBytes;
  // Default byte budget: double buffering per decoder plus the consumer's
  // block -- the record-granular analogue of the old "pool size + 1
  // shards" window, but independent of shard sizes.
  max_buffered_bytes_ = ring.max_buffered_bytes != 0
                            ? ring.max_buffered_bytes
                            : 2 * block_bytes_ * (pool->size() + 1);
  // A block abandoned by a previous scan goes back to ITS pool before the
  // pool pointer moves on.
  ReleaseCurrentBlock();
  blocks_ = ring.pool != nullptr ? ring.pool : &own_blocks_;
  {
    // No decoder is running yet, but the ring state is guarded by mu_ and
    // the lock is uncontended here -- take it so the discipline holds on
    // every write path.
    MutexLock lock(&mu_);
    // Fresh vector rather than resize: resize would move-or-copy existing
    // elements, and ShardStream is move-only with a non-noexcept move.
    streams_ = std::vector<ShardStream>(manifest_.num_shards());
    consume_shard_ = 0;
    cancel_ = false;
    buffered_bytes_ = 0;
    peak_buffered_bytes_ = 0;
  }
  worker_io_.assign(pool->size(), IoStats());
  blocks_decoded_.store(0, std::memory_order_relaxed);
  current_pos_ = 0;
  current_bytes_ = 0;
  current_loaded_ = false;
  open_.store(true, std::memory_order_release);
  pool_->BeginParallelFor(manifest_.num_shards(), [this](size_t shard,
                                                         size_t worker) {
    DecodeShard(static_cast<uint32_t>(shard), worker);
  });
  return Status::OK();
}

bool ManifestOrderedShardCursor::PublishBlock(uint32_t shard,
                                              RecordBlock* block) {
  const size_t bytes = block->payload_bytes();
  bool published = false;
  {
    MutexLock lock(&mu_);
    // Byte back-pressure with a starvation override: the shard the
    // consumer is waiting on (its queue is empty) may always publish, so
    // the consumer can make progress for ANY geometry -- even a budget
    // smaller than one block. Workers claim shards in ascending order, so
    // the consumer's shard is always either finished or owned by a worker
    // this override lets through; the ring cannot deadlock.
    while (!(cancel_ || buffered_bytes_ + bytes <= max_buffered_bytes_ ||
             (shard == consume_shard_ && streams_[shard].blocks.empty()))) {
      space_cv_.Wait(&mu_);
    }
    if (!cancel_) {
      buffered_bytes_ += bytes;
      if (buffered_bytes_ > peak_buffered_bytes_) {
        peak_buffered_bytes_ = buffered_bytes_;
      }
      streams_[shard].blocks.push_back(std::move(*block));
      blocks_decoded_.fetch_add(1, std::memory_order_relaxed);
      ready_cv_.NotifyAll();
      published = true;
    }
  }
  if (published) {
    // Refill outside mu_: the replacement block is thread-local until
    // the next publish, and Acquire takes the pool mutex (and may grow
    // an arena) -- no reason to stall the consumer or other decoders.
    *block = blocks_->Acquire();
    return true;
  }
  blocks_->Release(std::move(*block));
  return false;
}

void ManifestOrderedShardCursor::FinishShard(uint32_t shard, Status status) {
  MutexLock lock(&mu_);
  streams_[shard].status = std::move(status);
  streams_[shard].finished = true;
  ready_cv_.NotifyAll();
}

void ManifestOrderedShardCursor::DecodeShard(uint32_t shard, size_t worker) {
  {
    MutexLock lock(&mu_);
    if (cancel_) return;  // Close raced ahead; skip the file entirely
  }
  AdjacencyShardReader reader(&worker_io_[worker]);
  Status status = reader.Open(manifest_path_, manifest_, shard);
  if (status.ok()) {
    RecordBlock block = blocks_->Acquire();
    bool has_next = false;
    while (true) {
      status = reader.NextInto(&block, &has_next);
      if (!status.ok() || !has_next) break;
      if (block.payload_bytes() >= block_bytes_) {
        if (!PublishBlock(shard, &block)) return;  // cancelled
      }
    }
    Status close_status = reader.Close();
    if (status.ok()) status = close_status;
    if (!block.empty()) {
      if (!PublishBlock(shard, &block)) return;  // cancelled
    }
    blocks_->Release(std::move(block));
  }
  FinishShard(shard, std::move(status));
}

Status ManifestOrderedShardCursor::Next(VertexRecordView* view,
                                        bool* has_next) {
  if (!open_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("cursor is not open");
  }
  while (true) {
    // Fast path: serve the next record straight out of the current block,
    // no lock, no copy, no allocation.
    if (current_loaded_ && current_pos_ < current_.num_records()) {
      *view = current_.view(current_pos_++);
      *has_next = true;
      return Status::OK();
    }
    if (current_loaded_) {
      // Drained a block: uncharge its bytes and recycle it. The bytes
      // stayed charged while the consumer held it, so peak_buffered_bytes
      // covers the consumer's block like the old shard window did. The
      // pool Release happens outside mu_ (it takes the pool's own mutex).
      current_loaded_ = false;
      {
        MutexLock lock(&mu_);
        buffered_bytes_ -= current_bytes_;
        space_cv_.NotifyAll();
      }
      blocks_->Release(std::move(current_));
    }
    MutexLock lock(&mu_);
    while (true) {
      if (cancel_) {
        return Status::InvalidArgument("cursor was closed during the scan");
      }
      if (consume_shard_ >= manifest_.num_shards()) {
        *has_next = false;
        return Status::OK();
      }
      ShardStream& stream = streams_[consume_shard_];
      while (!cancel_ && stream.blocks.empty() && !stream.finished) {
        ready_cv_.Wait(&mu_);
      }
      if (cancel_) {
        return Status::InvalidArgument("cursor was closed during the scan");
      }
      if (!stream.blocks.empty()) {
        current_ = std::move(stream.blocks.front());
        stream.blocks.pop_front();
        current_pos_ = 0;
        current_bytes_ = current_.payload_bytes();
        current_loaded_ = true;
        break;
      }
      // Shard finished with nothing queued: surface its error here (the
      // manifest-order point where the failure sits) or advance.
      if (!stream.status.ok()) return stream.status;
      consume_shard_++;
      space_cv_.NotifyAll();
    }
  }
}

Status ManifestOrderedShardCursor::Close() {
  // Serialized so a destructor-driven Close and an explicit one (possibly
  // from another thread, while Next blocks) cannot interleave teardown.
  // Lock order close_mu_ -> mu_ (ACQUIRED_AFTER on mu_); nothing takes
  // them the other way around.
  MutexLock close_lock(&close_mu_);
  if (!open_.load(std::memory_order_acquire)) return Status::OK();
  {
    MutexLock lock(&mu_);
    cancel_ = true;
    // Wake BOTH sides: decoders blocked on byte headroom and a consumer
    // blocked in Next (which then fails instead of hanging forever).
    space_cv_.NotifyAll();
    ready_cv_.NotifyAll();
  }
  pool_->WaitForCompletion();
  // A shard can finish with an I/O error (including a failed reader
  // Close) that the consumer never reached -- either it stopped at an
  // earlier shard's error or the caller abandoned the scan. A fully
  // drained scan surfaced every status through Next already; otherwise
  // report the first one here instead of dropping it.
  Status first_error;
  {
    MutexLock lock(&mu_);
    const bool fully_drained = consume_shard_ >= manifest_.num_shards();
    uint32_t shard = 0;
    for (ShardStream& stream : streams_) {
      if (!fully_drained && first_error.ok() && shard >= consume_shard_ &&
          stream.finished && !stream.status.ok()) {
        first_error = stream.status;
      }
      while (!stream.blocks.empty()) {
        buffered_bytes_ -= stream.blocks.front().payload_bytes();
        blocks_->Release(std::move(stream.blocks.front()));
        stream.blocks.pop_front();
      }
      shard++;
    }
    streams_.clear();
    if (stats_ != nullptr) {
      if (peak_buffered_bytes_ > stats_->peak_buffered_bytes) {
        stats_->peak_buffered_bytes = peak_buffered_bytes_;
      }
    }
  }
  if (stats_ != nullptr) {
    for (const IoStats& io : worker_io_) stats_->MergeFrom(io);
    stats_->blocks_decoded += blocks_decoded_.load(std::memory_order_relaxed);
    const size_t arena = blocks_->pooled_capacity_bytes();
    if (arena > stats_->arena_bytes) stats_->arena_bytes = arena;
  }
  worker_io_.clear();
  // The consumer's current block (if any) is consumer-owned; leave it for
  // the next Open/destruction rather than racing a concurrent Next.
  open_.store(false, std::memory_order_release);
  pool_ = nullptr;
  return first_error;
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
  VertexRecord rec;
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
