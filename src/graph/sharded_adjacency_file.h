// Copyright (c) the semis authors.
// Sharded variant of the SADJ adjacency format (see adjacency_file.h):
// the record stream is split into N contiguous shard files plus a
// manifest, preserving the global record order across shard boundaries --
// concatenating the shards in index order reproduces the record stream of
// the equivalent monolithic file exactly. Shards are balanced by record
// payload (vertex words + neighbor words), not by record count, so the
// heavy tail of a power-law graph does not pile into one shard.
//
// Manifest layout (little endian), at `manifest_path`:
//   u32 magic 'SADM'  u32 version
//   u64 num_vertices  u64 num_directed_edges
//   u32 flags         u32 max_degree
//   u32 num_shards    u32 reserved (0)
//   then per shard: u64 num_records  u64 num_directed_edges
//
// Shard file layout, at `manifest_path + ".shard<K>"`:
//   u32 magic 'SADS'  u32 version
//   u32 shard_index   u32 reserved (0)
//   u64 num_records   u64 num_directed_edges (both shard-local)
//   u64 num_vertices  (global; record ids are global ids)
//   then records exactly as in SADJ: u32 id  u32 degree  u32 neighbor[deg]
//
// Every reader below is forward-only, matching the semi-external model;
// the parallel swap executor hands each worker its own AdjacencyShardReader
// so shards can be scanned concurrently without shared reader state.
#ifndef SEMIS_GRAPH_SHARDED_ADJACENCY_FILE_H_
#define SEMIS_GRAPH_SHARDED_ADJACENCY_FILE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "graph/adjacency_file.h"
#include "graph/record_block.h"
#include "io/file.h"
#include "io/io_stats.h"
#include "util/bit_vector.h"
#include "util/common.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace semis {

/// Upper bound on the shard count a writer accepts. Far above any sane
/// parallelism (shards exist to be scanned by threads), and low enough
/// that a mistyped or wrapped-negative count cannot ask the writer to
/// materialize millions of files.
inline constexpr uint32_t kMaxAdjacencyShards = 4096;

/// Magic of the SADM manifest file, exposed so callers accepting "either
/// a monolithic file or a manifest" can probe which one they were given
/// instead of guessing from a parse failure.
inline constexpr uint32_t kShardManifestMagic = 0x4D444153u;  // 'SADM'

/// Size of the shard-file header: the byte offset of a shard's first
/// record.
inline constexpr uint64_t kAdjacencyShardHeaderBytes = 40;

/// Per-shard totals recorded in the manifest.
struct ShardInfo {
  uint64_t num_records = 0;
  uint64_t num_directed_edges = 0;
};

/// Parsed manifest of a sharded adjacency file.
struct ShardedAdjacencyManifest {
  /// Global totals and flags, identical in meaning to the monolithic
  /// header (kAdjFlagDegreeSorted refers to the global record order).
  AdjacencyFileHeader header;
  std::vector<ShardInfo> shards;

  uint32_t num_shards() const { return static_cast<uint32_t>(shards.size()); }
};

/// Path of shard `index` of the sharded file rooted at `manifest_path`.
std::string ShardFilePath(const std::string& manifest_path, uint32_t index);

/// Reads and validates the manifest at `path`.
Status ReadShardedAdjacencyManifest(const std::string& path,
                                    ShardedAdjacencyManifest* out,
                                    IoStats* stats = nullptr);

/// Writes (or atomically overwrites) the manifest at `path`. Used by the
/// sharded writer's Finish and by delta compaction, which rewrites shards
/// in place and must republish their totals. The per-shard totals must
/// sum to the global header.
Status WriteShardedAdjacencyManifest(const std::string& path,
                                     const ShardedAdjacencyManifest& manifest,
                                     IoStats* stats = nullptr);

/// Appends the standard shard-file header (magic, version, index, zero
/// totals hint, global vertex count) to a freshly opened writer. Shared by
/// the sharded writer and the delta compactor so a rewritten shard is
/// byte-compatible with a freshly written one.
Status WriteAdjacencyShardHeader(SequentialFileWriter* writer, uint32_t index,
                                 uint64_t num_vertices);

/// Streaming writer: records are appended in global order and rolled into
/// the next shard when the current shard reaches its payload budget. All
/// `num_shards` shard files exist after Finish() (trailing ones may be
/// empty when the graph is small).
///
/// The split rule: each shard's budget is ceil((2|V| + |E|) / N) u32
/// words of records (id, degree and neighbor words, which track both
/// file bytes and scan work, so the heavy tail of a power-law graph does
/// not pile into one shard). A record that would overflow its shard's
/// budget starts the next shard, except that an empty shard never rolls
/// and the last shard takes the rest.
class ShardedAdjacencyFileWriter {
 public:
  /// `stats` may be null.
  explicit ShardedAdjacencyFileWriter(IoStats* stats = nullptr);

  /// Declares the totals (as in AdjacencyFileWriter::Open) and the shard
  /// count; creates the first shard file. `num_shards` must be >= 1, and
  /// `num_vertices` at most kMaxAdjacencyVertices.
  Status Open(const std::string& manifest_path, uint64_t num_vertices,
              uint64_t num_directed_edges, uint32_t max_degree, uint32_t flags,
              uint32_t num_shards);

  /// Appends the record for vertex `id` (global id). Records must arrive
  /// in the intended global order; every vertex exactly once (a repeated
  /// id is InvalidArgument).
  Status AppendVertex(VertexId id, const VertexId* neighbors, uint32_t degree);

  /// Closes the last shard, creates any remaining empty shards, validates
  /// the declared totals and writes the manifest.
  Status Finish();

 private:
  Status StartShard(uint32_t index);
  Status CloseShard();

  IoStats* stats_;
  SequentialFileWriter writer_;
  std::string manifest_path_;
  uint64_t declared_vertices_ = 0;
  uint64_t declared_directed_edges_ = 0;
  uint32_t declared_max_degree_ = 0;
  uint32_t declared_flags_ = 0;
  uint32_t num_shards_ = 0;
  uint64_t shard_budget_words_ = 0;  // u32 words of records per shard
  uint32_t current_shard_ = 0;
  uint64_t shard_words_ = 0;
  ShardInfo current_info_;
  std::vector<ShardInfo> finished_shards_;
  uint64_t appended_vertices_ = 0;
  uint64_t appended_edges_ = 0;
  BitVector seen_;  // one bit per vertex: appended already
};

/// Forward-only reader of one shard. Each worker of a parallel scan owns
/// one reader (and one IoStats) so no reader state is shared.
class AdjacencyShardReader {
 public:
  /// `stats` may be null.
  explicit AdjacencyShardReader(IoStats* stats = nullptr);

  /// Opens shard `index` of the sharded file rooted at `manifest_path`,
  /// validating the shard header against `manifest`. Does not bump
  /// IoStats::sequential_scans -- a "scan" of a sharded file is one pass
  /// over all shards and is counted by the caller.
  Status Open(const std::string& manifest_path,
              const ShardedAdjacencyManifest& manifest, uint32_t index);

  /// Decodes the next record and appends it to `block`'s arena. On
  /// success the record is committed to the block; on any error the block
  /// is left exactly as it was (a failed decode never publishes a
  /// half-record). `*has_next` is false after the last record, with
  /// nothing appended. Validation mirrors AdjacencyFileScanner::Next,
  /// through the same AdjacencyRecordDecoder.
  Status NextInto(RecordBlock* block, bool* has_next);

  /// Reads the next record as a view into the reader's buffer
  /// (invalidated by the next call); `*has_next` is false after the last
  /// record. The record's encoded bytes start two words before
  /// `view->neighbors` (see AdjacencyRecordDecoder).
  Status Next(VertexRecordView* view, bool* has_next);

  /// True when a next record exists and already lies whole in the read
  /// buffer, so Next neither refills the buffer nor moves earlier views'
  /// bytes: views of consecutive buffered records are consecutive bytes.
  bool NextIsBuffered() const {
    return records_seen_ < num_records_ &&
           AdjacencyRecordDecoder::NextIsBuffered(reader_);
  }

  /// Compatibility flavor of Next for VertexRecord consumers.
  Status Next(VertexRecord* rec, bool* has_next) {
    return NextRecordFromView(this, rec, has_next);
  }

  /// Closes the underlying file. Safe to call twice.
  Status Close();

  /// Path of the open shard file.
  const std::string& path() const { return path_; }

 private:
  IoStats* stats_;
  SequentialFileReader reader_;
  std::string path_;
  uint64_t num_vertices_ = 0;  // global, for id validation
  uint64_t num_records_ = 0;
  uint64_t num_edges_ = 0;
  uint64_t records_seen_ = 0;
  uint64_t edges_seen_ = 0;
  AdjacencyRecordDecoder decoder_;
};

/// Sparse forward reader of one shard: decodes single records at known
/// positions and skips what lies between them. A position is a record
/// index within the shard, reached from a checkpoint -- the byte offset
/// of an earlier record, as a full scan recorded it -- by stepping over
/// the records in between, reading only their 8-byte headers. Requests
/// must move forward through the shard. Reads go through a small fixed
/// window rather than the 1 MB scan buffer, because the records asked
/// for are usually far apart. The record goes through the shard
/// reader's AdjacencyRecordDecoder, and must hold the vertex asked for.
class AdjacencyShardRecordReader {
 public:
  /// `stats` may be null. Decoded records count in records_decoded; the
  /// skipped bytes are not charged to bytes_read.
  explicit AdjacencyShardRecordReader(IoStats* stats = nullptr);

  /// Opens shard `index` like AdjacencyShardReader::Open (no scan is
  /// counted).
  Status Open(const std::string& manifest_path,
              const ShardedAdjacencyManifest& manifest, uint32_t index);

  /// Decodes record `record` (0-based within the shard), which must hold
  /// vertex `id`: Corruption otherwise. `checkpoint_offset` is the byte
  /// offset of record `checkpoint_record` <= `record`; the reader jumps
  /// there only when it lies ahead of the read position. InvalidArgument
  /// when `record` lies behind the read position. The view stays valid
  /// until the next call. After any error the reader keeps failing until
  /// it is reopened.
  Status ReadRecord(uint64_t record, uint64_t checkpoint_record,
                    uint64_t checkpoint_offset, VertexId id,
                    VertexRecordView* view);

  /// Closes the underlying file. Safe to call twice.
  Status Close();

 private:
  Status ReadRecordInner(uint64_t record, uint64_t checkpoint_record,
                         uint64_t checkpoint_offset, VertexId id,
                         VertexRecordView* view);

  IoStats* stats_;
  SequentialFileReader reader_;
  std::string path_;
  uint64_t num_vertices_ = 0;
  uint32_t max_degree_ = 0;
  uint64_t num_records_ = 0;
  // The read position: index and byte offset of the next record.
  uint64_t next_record_ = 0;
  uint64_t offset_ = 0;
  Status error_;
  AdjacencyRecordDecoder decoder_;
};

/// Forward-only reader over all shards in index order: yields exactly the
/// record stream of the equivalent monolithic file. Used by tests and by
/// sequential consumers that receive a sharded input.
class ShardedAdjacencyScanner {
 public:
  explicit ShardedAdjacencyScanner(IoStats* stats = nullptr);

  /// Opens the manifest. Counts one sequential scan.
  Status Open(const std::string& manifest_path);

  const ShardedAdjacencyManifest& manifest() const { return manifest_; }
  const AdjacencyFileHeader& header() const { return manifest_.header; }

  /// Next record in global order, crossing shard boundaries transparently.
  Status Next(VertexRecordView* view, bool* has_next);

  /// Compatibility flavor of Next for VertexRecord consumers.
  Status Next(VertexRecord* rec, bool* has_next) {
    return NextRecordFromView(this, rec, has_next);
  }

  /// Path of the shard file the last record came from.
  const std::string& path() const { return reader_.path(); }

 private:
  IoStats* stats_;
  std::string manifest_path_;
  ShardedAdjacencyManifest manifest_;
  AdjacencyShardReader reader_;
  uint32_t current_shard_ = 0;
  bool shard_open_ = false;
};

/// Geometry and budget of the cursor's record-granular block ring.
struct BlockRingOptions {
  /// Target payload bytes of one decode block: a decoder publishes its
  /// block as soon as the payload reaches this size. A single record
  /// larger than the block still fits (the block grows for it), so any
  /// geometry decodes any file. 0 = kDefaultDecodeBlockBytes.
  size_t block_bytes = 0;
  /// Back-pressure budget: decoders stall once this many payload bytes
  /// sit decoded-but-unconsumed in the ring. The consumer's current shard
  /// may always publish one block past the budget when the consumer is
  /// starved (the progress guarantee), so the ring can never deadlock --
  /// peak buffering is bounded by `max(budget, one block)` plus at most
  /// one in-flight block per decoder, independent of shard sizes.
  /// 0 = 2 * block_bytes * (pool size + 1).
  size_t max_buffered_bytes = 0;
  /// Optional external block pool, letting callers reuse arena capacity
  /// across cursors (e.g. repeated scans in a bench loop). nullptr = the
  /// cursor owns a private pool. Must outlive the cursor.
  RecordBlockPool* pool = nullptr;
};

/// Manifest-ordered multi-shard cursor: yields exactly the record stream
/// of the equivalent monolithic file (like ShardedAdjacencyScanner), but
/// decodes shards ahead of the consumer on a caller-provided thread pool
/// through a record-granular, double-buffered block ring: decoder threads
/// fill fixed-size arena-backed RecordBlocks (graph/record_block.h) and
/// publish each block the moment it is full, so the consumer starts
/// draining a shard long before it is fully decoded and peak memory is
/// bounded by the ring's byte budget, not by the largest shard.
///
/// Contract (see docs/formats.md):
///   * records are delivered strictly in global manifest order, crossing
///     shard boundaries transparently -- the pipelining never reorders,
///     drops, or duplicates a record, so any sequential algorithm driven
///     by this cursor produces output byte-identical to a run over the
///     monolithic file, at every pool size and block geometry;
///   * back-pressure is measured in buffered payload BYTES
///     (BlockRingOptions::max_buffered_bytes), with a starvation override
///     for the consumer's current shard that rules out deadlock for any
///     geometry -- including a budget smaller than one block and a block
///     smaller than one record;
///   * blocks recycle through a RecordBlockPool, so steady-state decode
///     performs no per-record heap allocation;
///   * each worker decodes with a private AdjacencyShardReader and
///     IoStats; per-worker I/O plus the ring counters (blocks_decoded,
///     arena_bytes, peak_buffered_bytes) merge into the caller's stats at
///     Close;
///   * a decode error in shard K surfaces from a Next() call within
///     shard K, after every record of shards 0..K-1 and every valid
///     record decoded before the error was yielded.
///
/// The cursor owns the pool's work queue from Open to Close (the pool's
/// one-job-at-a-time rule); callers reusing a pool across stages must
/// Close the cursor before submitting other work. Close may be called
/// from a thread other than the consumer's (and concurrently with a
/// blocked Next), which then fails with InvalidArgument instead of
/// hanging.
class ManifestOrderedShardCursor {
 public:
  /// `stats` may be null. Counts the manifest read and one sequential
  /// scan; per-worker shard I/O folds in at Close.
  explicit ManifestOrderedShardCursor(IoStats* stats = nullptr);
  ~ManifestOrderedShardCursor();

  ManifestOrderedShardCursor(const ManifestOrderedShardCursor&) = delete;
  ManifestOrderedShardCursor& operator=(const ManifestOrderedShardCursor&) =
      delete;

  /// Opens the manifest and starts decoding on `pool` (required, must
  /// outlive the cursor). `ring` configures block size and byte budget.
  Status Open(const std::string& manifest_path, ThreadPool* pool,
              const BlockRingOptions& ring = BlockRingOptions());

  const ShardedAdjacencyManifest& manifest() const { return manifest_; }
  const AdjacencyFileHeader& header() const { return manifest_.header; }

  /// Next record in global order. The view points into the current block
  /// and stays valid until the next call that crosses a block boundary;
  /// like every scanner in this library, consume it before advancing.
  Status Next(VertexRecordView* view, bool* has_next) EXCLUDES(mu_);

  /// Compatibility flavor of Next for VertexRecord consumers (tests and
  /// generic drains); same lifetime rules.
  Status Next(VertexRecord* rec, bool* has_next) {
    return NextRecordFromView(this, rec, has_next);
  }

  /// Cancels outstanding decodes, drains the pool job and merges
  /// per-worker IoStats plus the ring counters into the caller's stats.
  /// Safe to call twice, from the destructor, and from a different thread
  /// than the consumer's (a concurrently blocked Next wakes with an
  /// error). When the scan was abandoned before the last record, returns
  /// the first decode error of a shard the consumer never reached (a
  /// fully drained scan has already surfaced every error through Next).
  Status Close() EXCLUDES(close_mu_, mu_);

  /// Largest total of decoded-but-unconsumed payload bytes held at any
  /// point (for the memory accounting of algorithms driven by the
  /// cursor). Bounded by the ring budget, not by shard sizes.
  size_t peak_buffered_bytes() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return peak_buffered_bytes_;
  }

  /// Blocks published by the decoders so far.
  uint64_t blocks_decoded() const { return blocks_decoded_; }

 private:
  // Per-shard stream of published blocks, drained in shard index order.
  struct ShardStream {
    std::deque<RecordBlock> blocks;
    Status status;
    bool finished = false;  // decoder is done (status is final)
  };

  void DecodeShard(uint32_t shard, size_t worker) EXCLUDES(mu_);
  // Publishes `*block` to the ring (blocking on the byte budget) and
  // replaces it with a fresh block from the pool. Returns false when the
  // cursor was cancelled (the block is released, decode must stop).
  bool PublishBlock(uint32_t shard, RecordBlock* block) EXCLUDES(mu_);
  void FinishShard(uint32_t shard, Status status) EXCLUDES(mu_);
  void ReleaseCurrentBlock();

  IoStats* stats_;
  std::string manifest_path_;
  ShardedAdjacencyManifest manifest_;
  ThreadPool* pool_ = nullptr;
  size_t block_bytes_ = kDefaultDecodeBlockBytes;
  size_t max_buffered_bytes_ = 0;
  RecordBlockPool own_blocks_;
  RecordBlockPool* blocks_ = nullptr;
  std::atomic<bool> open_{false};

  // Lock hierarchy (docs/architecture.md): close_mu_ -> mu_. Close takes
  // close_mu_ first to serialize concurrent closers, then mu_ for the
  // cancel flag and teardown; no path ever takes them the other way
  // around. Decoders and the consumer take only mu_.
  mutable Mutex mu_ ACQUIRED_AFTER(close_mu_);
  CondVar ready_cv_;  // consumer waits for a block / eof
  CondVar space_cv_;  // decoders wait for byte headroom
  std::vector<ShardStream> streams_ GUARDED_BY(mu_);
  // Per-worker I/O counters: worker `w` writes only worker_io_[w] while
  // the decode job runs; Close reads them only after WaitForCompletion,
  // so the vector needs no lock (the pool barrier is the happens-before
  // edge).
  std::vector<IoStats> worker_io_;
  uint32_t consume_shard_ GUARDED_BY(mu_) = 0;  // shard being consumed
  bool cancel_ GUARDED_BY(mu_) = false;
  size_t buffered_bytes_ GUARDED_BY(mu_) = 0;
  size_t peak_buffered_bytes_ GUARDED_BY(mu_) = 0;
  std::atomic<uint64_t> blocks_decoded_{0};

  Mutex close_mu_;  // serializes concurrent Close calls; see mu_ above

  // Consumer-side walk state of the current block (consumer thread only).
  RecordBlock current_;
  size_t current_pos_ = 0;
  size_t current_bytes_ = 0;
  bool current_loaded_ = false;
};

/// Splits the monolithic adjacency file at `input_path` into `num_shards`
/// shards rooted at `manifest_path`, preserving record order.
Status ShardAdjacencyFile(const std::string& input_path,
                          const std::string& manifest_path,
                          uint32_t num_shards, IoStats* stats = nullptr);

}  // namespace semis

#endif  // SEMIS_GRAPH_SHARDED_ADJACENCY_FILE_H_
