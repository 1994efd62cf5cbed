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
// Every reader is forward-only, matching the semi-external model. One
// shard is read by AdjacencyFileScanner::OpenShard (adjacency_file.h); a
// parallel pass hands each worker its own scanner, so shards are scanned
// concurrently without shared reader state. The whole store is read in
// manifest order by ManifestOrderedShardCursor, with or without a pool.
#ifndef SEMIS_GRAPH_SHARDED_ADJACENCY_FILE_H_
#define SEMIS_GRAPH_SHARDED_ADJACENCY_FILE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/adjacency_file.h"
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

/// Reads and validates the manifest at `path`. A vertex count past
/// kMaxAdjacencyVertices is Corruption, as in the SADJ header.
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

/// The one open-decode-close loop over a shard: calls `visit(record)` for
/// each record of shard `shard` in file order, through an
/// AdjacencyFileScanner charging `stats` (may be null). Stops at the
/// first error; counts no scan.
template <typename Visit>
Status ForEachShardRecord(const std::string& manifest_path,
                          const ShardedAdjacencyManifest& manifest,
                          uint32_t shard, IoStats* stats, Visit&& visit) {
  AdjacencyFileScanner scanner(stats);
  SEMIS_RETURN_IF_ERROR(scanner.OpenShard(manifest_path, manifest, shard));
  VertexRecordView rec;
  bool has_next = false;
  while (true) {
    SEMIS_RETURN_IF_ERROR(scanner.Next(&rec, &has_next));
    if (!has_next) return scanner.Close();
    visit(rec);
  }
}

/// Sparse forward reader of one shard: decodes single records at known
/// positions and skips what lies between them. A position is a record
/// index within the shard, reached from a checkpoint -- the byte offset
/// of an earlier record, as a full scan recorded it -- by stepping over
/// the records in between, reading only their 8-byte headers. Requests
/// must move forward through the shard. Reads go through a small fixed
/// window rather than the 1 MB scan buffer, because the records asked
/// for are usually far apart. The record goes through the scanner's
/// AdjacencyRecordDecoder, and must hold the vertex asked for.
class AdjacencyShardRecordReader {
 public:
  /// `stats` may be null. Decoded records count in records_decoded; the
  /// skipped bytes are not charged to bytes_read.
  explicit AdjacencyShardRecordReader(IoStats* stats = nullptr);

  /// Opens shard `index` like AdjacencyFileScanner::OpenShard (no scan
  /// is counted).
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

/// Default payload capacity of one decode block (see BlockRingOptions).
inline constexpr size_t kDefaultDecodeBlockBytes = 256 * 1024;

/// Geometry and budget of the cursor's block ring. Callers leave both at
/// 0; the fields exist so tests can reach the ring's corner cases with
/// small inputs.
struct BlockRingOptions {
  /// Payload bytes of one decode block: a decoder publishes its block
  /// before a record would take it past this size. A record larger than a
  /// block travels alone in a block grown for it, so any geometry decodes
  /// any file. 0 = kDefaultDecodeBlockBytes.
  size_t block_bytes = 0;
  /// Back-pressure budget: decoders stall once this many payload bytes
  /// sit decoded-but-unconsumed in the ring. The consumer's current shard
  /// may always publish one block past the budget when the consumer is
  /// starved (the progress guarantee), so the ring can never deadlock --
  /// peak buffering is bounded by `max(budget, one block)` plus at most
  /// one in-flight block per decoder, independent of shard sizes (see
  /// ManifestOrderedShardCursor::buffer_bound_bytes).
  /// 0 = 2 * block_bytes * (pool size + 1).
  size_t max_buffered_bytes = 0;
};

/// Manifest-ordered multi-shard cursor: yields exactly the record stream
/// of the equivalent monolithic file. Without a pool the calling thread
/// reads the shards in order through one AdjacencyFileScanner. With a
/// pool, shards are decoded ahead of the consumer through a block ring:
/// each decoder thread copies the records its scanner validated, as their
/// encoded words [id, degree, neighbors...], into a block and publishes
/// the block once it is full, so the consumer starts draining a shard
/// long before it is fully decoded and peak memory is bounded by the
/// ring's byte budget, not by the largest shard. The consumer reads each
/// record in place in its block.
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
///   * drained blocks go back to a free list and keep their capacity, so
///     steady-state decode performs no per-record heap allocation;
///   * each worker decodes with a private AdjacencyFileScanner and
///     IoStats; per-worker I/O plus the ring counters (blocks_decoded,
///     arena_bytes, peak_buffered_bytes) merge into the caller's stats at
///     Close;
///   * a decode error in shard K surfaces from a Next() call within
///     shard K, after every record of shards 0..K-1 and every valid
///     record decoded before the error was yielded, and every later
///     Next() returns it again.
///
/// With a pool the cursor owns the pool's work queue from Open to Close
/// (the pool's one-job-at-a-time rule); callers reusing a pool across
/// stages must Close the cursor before submitting other work. Every call,
/// Close included, runs on the consumer's thread (or in the destructor).
class ManifestOrderedShardCursor {
 public:
  /// `stats` may be null. Counts the manifest read and one sequential
  /// scan at Open; shard I/O is charged as read without a pool, and
  /// folds in per worker at Close with one.
  explicit ManifestOrderedShardCursor(IoStats* stats = nullptr);
  ~ManifestOrderedShardCursor();

  ManifestOrderedShardCursor(const ManifestOrderedShardCursor&) = delete;
  ManifestOrderedShardCursor& operator=(const ManifestOrderedShardCursor&) =
      delete;

  /// Opens the manifest (a store root or a plain manifest) and, given a
  /// `pool` (which must outlive the cursor), starts decoding on it; with
  /// none, Next reads the shards itself. `ring` configures the block
  /// size and byte budget of the pool's ring.
  Status Open(const std::string& manifest_path, ThreadPool* pool,
              const BlockRingOptions& ring = BlockRingOptions()) EXCLUDES(mu_);

  const ShardedAdjacencyManifest& manifest() const { return manifest_; }
  const AdjacencyFileHeader& header() const { return manifest_.header; }
  /// The store's manifest path, for error messages.
  const std::string& path() const { return manifest_path_; }

  /// Next record in global order. The view stays valid until the next
  /// call, or Close; like every scanner in this library, consume it
  /// before advancing.
  Status Next(VertexRecordView* view, bool* has_next) EXCLUDES(mu_) {
    // Without a pool, a record of the open shard comes straight from the
    // scanner, inline: this is every record of a pool-less scan.
    if (shard_open_ && ReadOpenShard(view, has_next)) return Status::OK();
    return NextSlow(view, has_next);
  }

  /// Ends the scan: closes the shard being read, or cancels outstanding
  /// decodes (waking decoders parked on the byte budget), drains the pool
  /// job and merges per-worker IoStats plus the ring counters into the
  /// caller's stats. Safe to call twice and from the destructor. When the
  /// scan was abandoned before the last record, returns the error that
  /// stopped it, or the first decode error of a shard the consumer never
  /// reached (a fully drained scan has already surfaced every error
  /// through Next).
  Status Close() EXCLUDES(mu_);

  /// The bound that the ring's contract states, fixed at Open:
  /// max(budget, B) + pool size * B, where a block B is the larger of the
  /// block size and the largest record the manifest's max_degree allows;
  /// 0 without a pool. No schedule buffers more decoded-but-unconsumed
  /// bytes, so algorithms driven by the cursor charge it as their
  /// pipeline memory: unlike IoStats::peak_buffered_bytes, the high-water
  /// mark one schedule reached, it repeats from run to run.
  size_t buffer_bound_bytes() const { return buffer_bound_bytes_; }

 private:
  // A block: records as their encoded words [id, degree, neighbors...],
  // back to back.
  using Block = std::vector<VertexId>;

  // Per-shard stream of published blocks, drained in shard index order.
  struct ShardStream {
    std::deque<Block> blocks;
    Status status;
    bool finished = false;  // decoder is done (status is final)
  };

  void DecodeShard(uint32_t shard, size_t worker) EXCLUDES(mu_);
  // Publishes `*block` to the ring (blocking on the byte budget) and
  // swaps in a block from the free list (an empty one when it is dry).
  // Returns false when the cursor was cancelled (the block goes back to
  // the free list, decode must stop).
  bool PublishBlock(uint32_t shard, Block* block) EXCLUDES(mu_);
  void FinishShard(uint32_t shard, Status status, Block block) EXCLUDES(mu_);
  // Clears `block` and puts it on the free list.
  void RecycleBlock(Block block) REQUIRES(mu_);
  // Pops a block from the free list, or returns an empty one.
  Block TakeFreeBlock() REQUIRES(mu_);

  // Without a pool: reads the open shard's next record. At the shard's
  // end, or an error, closes the shard and returns false; an error stops
  // the scan in its shard, kept in scan_error_ for every later call.
  bool ReadOpenShard(VertexRecordView* view, bool* has_next) {
    Status read = scanner_->Next(view, has_next);
    if (read.ok() && *has_next) return true;
    shard_open_ = false;
    scan_error_ = read.ok() ? scanner_->Close() : std::move(read);
    scan_shard_++;
    return false;
  }
  // Next past the open shard: the next shard without a pool, else the
  // ring.
  Status NextSlow(VertexRecordView* view, bool* has_next) EXCLUDES(mu_);

  IoStats* stats_;
  std::string manifest_path_;
  ShardedAdjacencyManifest manifest_;
  // Consumer-thread state, set from Open to Close.
  bool open_ = false;
  ThreadPool* pool_ = nullptr;
  size_t buffer_bound_bytes_ = 0;

  // Without a pool: the scanner (made at the first such Open), the shard
  // it reads next or reads now, and the error that stopped the scan.
  std::unique_ptr<AdjacencyFileScanner> scanner_;
  uint32_t scan_shard_ = 0;
  bool shard_open_ = false;
  Status scan_error_;

  // With a pool: the ring.
  size_t block_words_ = 0;
  size_t max_buffered_bytes_ = 0;

  mutable Mutex mu_;
  CondVar ready_cv_;  // consumer waits for a block / eof
  CondVar space_cv_;  // decoders wait for byte headroom
  std::vector<ShardStream> streams_ GUARDED_BY(mu_);
  // Drained blocks, capacity kept, for the decoders to refill.
  std::vector<Block> free_blocks_ GUARDED_BY(mu_);
  // Per-worker I/O counters: worker `w` writes only worker_io_[w] while
  // the decode job runs; Close reads them only after WaitForCompletion,
  // so the vector needs no lock (the pool barrier is the happens-before
  // edge).
  std::vector<IoStats> worker_io_;
  uint32_t consume_shard_ GUARDED_BY(mu_) = 0;  // shard being consumed
  bool cancel_ GUARDED_BY(mu_) = false;
  size_t buffered_bytes_ GUARDED_BY(mu_) = 0;
  size_t peak_buffered_bytes_ GUARDED_BY(mu_) = 0;
  uint64_t blocks_decoded_ GUARDED_BY(mu_) = 0;

  // Consumer-side walk state (consumer thread only): the block being
  // read and the word index of its next record.
  Block current_;
  size_t current_pos_ = 0;
};

/// Splits the monolithic adjacency file at `input_path` into `num_shards`
/// shards rooted at `manifest_path`, preserving record order.
Status ShardAdjacencyFile(const std::string& input_path,
                          const std::string& manifest_path,
                          uint32_t num_shards, IoStats* stats = nullptr);

}  // namespace semis

#endif  // SEMIS_GRAPH_SHARDED_ADJACENCY_FILE_H_
