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
// concurrently without shared reader state. A run of one shard's records
// is read by ShardRangeReader (shard_record_locator.h), from a
// checkpoint the record locator keeps. The whole store is read in
// manifest order by ManifestOrderedShardCursor, on the calling thread.
#ifndef SEMIS_GRAPH_SHARDED_ADJACENCY_FILE_H_
#define SEMIS_GRAPH_SHARDED_ADJACENCY_FILE_H_

#include <cstddef>
#include <cstdint>
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

/// Reads the kAdjacencyShardHeaderBytes-byte header of shard `index`
/// from `reader`, freshly opened on the shard file at `path`, and checks
/// its magic, version, index and global vertex count: NotSupported for
/// another version, else Corruption naming `path` on a mismatch. The
/// header check of every reader that opens a shard at its start.
Status ReadAdjacencyShardHeader(SequentialFileReader* reader,
                                const std::string& path, uint32_t index,
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

/// Manifest-ordered multi-shard cursor: yields exactly the record stream
/// of the equivalent monolithic file, reading the shards in manifest
/// order on the calling thread through one AdjacencyFileScanner.
///
/// Contract (see docs/formats.md):
///   * records are delivered strictly in global manifest order, crossing
///     shard boundaries (empty ones included) transparently, so any
///     sequential algorithm driven by this cursor produces output
///     byte-identical to a run over the monolithic file;
///   * a shard is opened only when the scan reaches it, so a shard the
///     scan never reaches is never read;
///   * an error stops the scan in its shard, after every record before
///     it was yielded; every later Next and Close returns it.
class ManifestOrderedShardCursor {
 public:
  /// `stats` may be null. Counts the manifest read and one sequential
  /// scan at Open; shard bytes are charged as they are read.
  explicit ManifestOrderedShardCursor(IoStats* stats = nullptr);
  ~ManifestOrderedShardCursor();

  ManifestOrderedShardCursor(const ManifestOrderedShardCursor&) = delete;
  ManifestOrderedShardCursor& operator=(const ManifestOrderedShardCursor&) =
      delete;

  /// Opens the manifest (a store root or a plain manifest). A second Open
  /// before Close is InvalidArgument.
  Status Open(const std::string& manifest_path);

  const ShardedAdjacencyManifest& manifest() const { return manifest_; }
  const AdjacencyFileHeader& header() const { return manifest_.header; }
  /// The store's manifest path, for error messages.
  const std::string& path() const { return manifest_path_; }

  /// Next record in global order. The view stays valid until the next
  /// call, or Close; like every scanner in this library, consume it
  /// before advancing.
  Status Next(VertexRecordView* view, bool* has_next) {
    // A record of the open shard comes straight from the scanner, inline:
    // this is every record but a shard's first.
    if (shard_open_ && ReadOpenShard(view, has_next)) return Status::OK();
    return NextSlow(view, has_next);
  }

  /// Ends the scan: closes the shard being read. Safe to call twice and
  /// from the destructor. Returns the error that stopped the scan, if
  /// one did.
  Status Close();

 private:
  // Reads the open shard's next record. At the shard's end, or an error,
  // closes the shard and returns false; an error stops the scan in its
  // shard, kept in scan_error_ for every later call.
  bool ReadOpenShard(VertexRecordView* view, bool* has_next) {
    Status read = scanner_->Next(view, has_next);
    if (read.ok() && *has_next) return true;
    shard_open_ = false;
    scan_error_ = read.ok() ? scanner_->Close() : std::move(read);
    scan_shard_++;
    return false;
  }
  // Next past the open shard: opens the next one.
  Status NextSlow(VertexRecordView* view, bool* has_next);

  IoStats* stats_;
  std::string manifest_path_;
  ShardedAdjacencyManifest manifest_;
  bool open_ = false;
  // The scanner (made at the first Open), the shard it reads next or
  // reads now, and the error that stopped the scan.
  std::unique_ptr<AdjacencyFileScanner> scanner_;
  uint32_t scan_shard_ = 0;
  bool shard_open_ = false;
  Status scan_error_;
};

/// Splits the monolithic adjacency file at `input_path` into `num_shards`
/// shards rooted at `manifest_path`, preserving record order.
Status ShardAdjacencyFile(const std::string& input_path,
                          const std::string& manifest_path,
                          uint32_t num_shards, IoStats* stats = nullptr);

}  // namespace semis

#endif  // SEMIS_GRAPH_SHARDED_ADJACENCY_FILE_H_
