#include "graph/sharded_adjacency_file.h"

#include <algorithm>

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
  if (index >= manifest.num_shards()) {
    return Status::InvalidArgument("shard index out of range");
  }
  path_ = ShardFilePath(manifest_path, index);
  header_ = manifest.header;
  num_records_ = manifest.shards[index].num_records;
  num_edges_ = manifest.shards[index].num_directed_edges;
  records_seen_ = 0;
  edges_seen_ = 0;
  decoder_.Reset(path_, header_.num_vertices, header_.max_degree);
  SEMIS_RETURN_IF_ERROR(reader_.Open(path_));
  return ReadShardHeader(&reader_, path_, index, header_.num_vertices);
}

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

ManifestOrderedShardCursor::ManifestOrderedShardCursor(IoStats* stats)
    : stats_(stats) {}

ManifestOrderedShardCursor::~ManifestOrderedShardCursor() {
  Close().IgnoreError();  // a destructor cannot propagate
}

Status ManifestOrderedShardCursor::Open(const std::string& manifest_path,
                                        ThreadPool* pool,
                                        const BlockRingOptions& ring) {
  if (open_) {
    return Status::InvalidArgument("cursor is already open");
  }
  SEMIS_RETURN_IF_ERROR(ReadShardStoreManifest(manifest_path, &manifest_,
                                               stats_, &manifest_path_));
  if (stats_ != nullptr) stats_->sequential_scans++;
  open_ = true;
  pool_ = pool;
  buffer_bound_bytes_ = 0;
  if (pool == nullptr) {
    if (scanner_ == nullptr) {
      scanner_ = std::make_unique<AdjacencyFileScanner>(stats_);
    }
    scan_shard_ = 0;
    scan_error_ = Status::OK();
    return Status::OK();
  }
  const size_t block_bytes = ring.block_bytes != 0 ? ring.block_bytes
                                                   : kDefaultDecodeBlockBytes;
  block_words_ = block_bytes / sizeof(VertexId);
  // Default byte budget: double buffering per decoder plus the consumer's
  // block.
  max_buffered_bytes_ = ring.max_buffered_bytes != 0
                            ? ring.max_buffered_bytes
                            : 2 * block_bytes * (pool->size() + 1);
  // A block holds at most block_bytes of records, or one record larger
  // than that. The blocks PublishBlock admits within the budget never sum
  // past it; its starvation override adds at most two blocks of the
  // consumer's shard, the one it reads and one queued, and a single
  // decoder queues nothing else while it overrides. Buffering thus stays
  // within budget + 2 blocks, or max(budget, 2 blocks) at one decoder.
  const size_t largest_block = static_cast<size_t>(std::max<uint64_t>(
      block_bytes, AdjacencyRecordBytes(manifest_.header.max_degree)));
  buffer_bound_bytes_ = std::max(max_buffered_bytes_, largest_block) +
                        pool->size() * largest_block;
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
    blocks_decoded_ = 0;
  }
  worker_io_.assign(pool->size(), IoStats());
  current_pos_ = 0;
  pool_->BeginParallelFor(manifest_.num_shards(), [this](size_t shard,
                                                         size_t worker) {
    DecodeShard(static_cast<uint32_t>(shard), worker);
  });
  return Status::OK();
}

void ManifestOrderedShardCursor::RecycleBlock(Block block) {
  block.clear();  // keeps capacity
  free_blocks_.push_back(std::move(block));
}

ManifestOrderedShardCursor::Block ManifestOrderedShardCursor::TakeFreeBlock() {
  if (free_blocks_.empty()) return Block();
  Block block = std::move(free_blocks_.back());
  free_blocks_.pop_back();
  return block;
}

bool ManifestOrderedShardCursor::PublishBlock(uint32_t shard, Block* block) {
  const size_t bytes = block->size() * sizeof(VertexId);
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
  if (cancel_) {
    RecycleBlock(std::move(*block));
    return false;
  }
  buffered_bytes_ += bytes;
  peak_buffered_bytes_ = std::max(peak_buffered_bytes_, buffered_bytes_);
  streams_[shard].blocks.push_back(std::move(*block));
  blocks_decoded_++;
  ready_cv_.NotifyAll();
  *block = TakeFreeBlock();
  return true;
}

void ManifestOrderedShardCursor::FinishShard(uint32_t shard, Status status,
                                             Block block) {
  MutexLock lock(&mu_);
  streams_[shard].status = std::move(status);
  streams_[shard].finished = true;
  if (block.capacity() > 0) RecycleBlock(std::move(block));
  ready_cv_.NotifyAll();
}

void ManifestOrderedShardCursor::DecodeShard(uint32_t shard, size_t worker) {
  Block block;
  {
    MutexLock lock(&mu_);
    if (cancel_) return;  // Close raced ahead; skip the file entirely
    block = TakeFreeBlock();
  }
  // A block never needs more room than its shard's records take.
  const ShardInfo& info = manifest_.shards[shard];
  const size_t reserve_words = static_cast<size_t>(std::min<uint64_t>(
      block_words_, 2 * info.num_records + info.num_directed_edges));
  AdjacencyFileScanner reader(&worker_io_[worker]);
  Status status = reader.OpenShard(manifest_path_, manifest_, shard);
  VertexRecordView view;
  bool has_next = false;
  while (status.ok()) {
    status = reader.Next(&view, &has_next);
    if (!status.ok() || !has_next) break;
    // Next validated the record, and its id and degree words sit right in
    // front of its neighbors, so the record is appended as the words it
    // was read as; nothing that fails validation reaches a block.
    const size_t words = 2 + size_t{view.degree};
    if (!block.empty() && block.size() + words > block_words_ &&
        !PublishBlock(shard, &block)) {
      return;  // cancelled
    }
    // Outside the lock; a no-op for a block from the free list that
    // already has the room.
    if (block.empty()) block.reserve(reserve_words);
    block.insert(block.end(), view.neighbors - 2, view.end());
  }
  Status close_status = reader.Close();
  if (status.ok()) status = close_status;
  if (!block.empty() && !PublishBlock(shard, &block)) return;  // cancelled
  FinishShard(shard, std::move(status), std::move(block));
}

Status ManifestOrderedShardCursor::NextSlow(VertexRecordView* view,
                                            bool* has_next) {
  if (!open_) {
    return Status::InvalidArgument("cursor is not open");
  }
  if (pool_ == nullptr) {
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
  if (current_pos_ == current_.size()) {
    MutexLock lock(&mu_);
    if (!current_.empty()) {
      // Drained a block: uncharge its bytes and recycle it. The bytes
      // stayed charged while the consumer held it, so
      // peak_buffered_bytes covers the consumer's block.
      buffered_bytes_ -= current_.size() * sizeof(VertexId);
      RecycleBlock(std::move(current_));
      current_ = Block();
      space_cv_.NotifyAll();
    }
    current_pos_ = 0;
    while (true) {
      if (consume_shard_ >= manifest_.num_shards()) {
        *has_next = false;
        return Status::OK();
      }
      ShardStream& stream = streams_[consume_shard_];
      while (stream.blocks.empty() && !stream.finished) {
        ready_cv_.Wait(&mu_);
      }
      if (!stream.blocks.empty()) {
        current_ = std::move(stream.blocks.front());
        stream.blocks.pop_front();
        break;
      }
      // Shard finished with nothing queued: surface its error here (the
      // manifest-order point where the failure sits) or advance.
      if (!stream.status.ok()) return stream.status;
      consume_shard_++;
      space_cv_.NotifyAll();
    }
  }
  // Serve the next record straight out of the current block: no lock, no
  // copy, no allocation.
  const VertexId* words = current_.data() + current_pos_;
  view->id = words[0];
  view->degree = words[1];
  view->neighbors = words + 2;
  current_pos_ += 2 + size_t{view->degree};
  *has_next = true;
  return Status::OK();
}

Status ManifestOrderedShardCursor::Close() {
  if (!open_) return Status::OK();
  open_ = false;
  if (pool_ == nullptr) {
    shard_open_ = false;
    Status closed = scanner_->Close();
    return scan_error_.ok() ? closed : scan_error_;
  }
  {
    MutexLock lock(&mu_);
    cancel_ = true;
    space_cv_.NotifyAll();  // wake decoders parked on the byte budget
  }
  pool_->WaitForCompletion();
  pool_ = nullptr;
  // A shard can finish with an I/O error (including a failed reader
  // Close) that the consumer never reached -- either it stopped at an
  // earlier shard's error or the caller abandoned the scan. A fully
  // drained scan surfaced every status through Next already; otherwise
  // report the first one here instead of dropping it.
  Status first_error;
  size_t arena_bytes = 0;
  size_t peak_buffered_bytes = 0;
  uint64_t blocks_decoded = 0;
  {
    MutexLock lock(&mu_);
    for (uint32_t shard = consume_shard_; shard < streams_.size(); ++shard) {
      const ShardStream& stream = streams_[shard];
      if (stream.finished && !stream.status.ok()) {
        first_error = stream.status;
        break;
      }
    }
    for (ShardStream& stream : streams_) {
      for (Block& block : stream.blocks) RecycleBlock(std::move(block));
    }
    streams_.clear();
    if (!current_.empty()) RecycleBlock(std::move(current_));
    current_ = Block();
    for (const Block& block : free_blocks_) {
      arena_bytes += block.capacity() * sizeof(VertexId);
    }
    peak_buffered_bytes = peak_buffered_bytes_;
    blocks_decoded = blocks_decoded_;
  }
  if (stats_ != nullptr) {
    for (const IoStats& io : worker_io_) stats_->MergeFrom(io);
    stats_->blocks_decoded += blocks_decoded;
    stats_->arena_bytes = std::max<uint64_t>(stats_->arena_bytes, arena_bytes);
    stats_->peak_buffered_bytes = std::max<uint64_t>(
        stats_->peak_buffered_bytes, peak_buffered_bytes);
  }
  worker_io_.clear();
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
