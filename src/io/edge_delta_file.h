// Copyright (c) the semis authors.
// The per-shard edge-delta overlay format ("SDELTA", version 1) layered on
// top of a sharded adjacency file (SADJS; see
// graph/sharded_adjacency_file.h). It records edge insertions and
// deletions relative to the base shards so a maintained independent set
// can follow an update stream without re-solving -- the paper's stated
// future-work scenario ("incremental massive graphs with frequent
// updates").
//
// Layout (little endian; full spec in docs/formats.md):
//
//   Delta manifest, at `<sadjs-manifest-path>.delta`:
//     u32 magic 'SDLM'  u32 version
//     u64 num_vertices   (must match the SADJS manifest)
//     u64 next_sequence  (sequence number of the next update)
//     u32 num_shards     (must match the SADJS manifest)
//     u32 reserved (0)
//     then per shard: u64 num_entries
//
//   Shard delta log, at `<delta-path>.shard<K>`:
//     u32 magic 'SDLS'  u32 version
//     u32 shard_index   u32 reserved (0)
//     u64 num_vertices  (global)
//     then entries: u64 seq  u32 op (0 insert / 1 delete)  u32 u  u32 v
//
// An update touching edge (u, v) is routed to the shard holding u's base
// record and (when different) the shard holding v's record; both copies
// carry the same sequence number, so a shard log holds every delta edge
// incident to the vertices whose records live in that shard, and a merge
// of all logs deduplicated by sequence number reproduces the exact global
// update stream. Within one log, sequence numbers are strictly
// increasing. Logs are append-only; the entry counts in the delta
// manifest are authoritative (rewritten after every flushed batch), so a
// crash mid-append loses at most the unflushed tail, never the counts'
// consistency.
//
// Readers validate everything they touch -- magic, version, shard index,
// vertex range, op codes, self-loops, sequence monotonicity, declared
// counts, trailing bytes -- and report Corruption instead of crashing on
// hostile or truncated input (the fuzz suite in
// tests/io/edge_delta_file_test.cc locks this in).
#ifndef SEMIS_IO_EDGE_DELTA_FILE_H_
#define SEMIS_IO_EDGE_DELTA_FILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "io/file.h"
#include "io/io_stats.h"
#include "util/common.h"
#include "util/status.h"

namespace semis {

/// Encoded size of a shard delta log's header: the byte offset of its
/// first entry.
inline constexpr uint64_t kEdgeDeltaLogHeaderBytes = 24;

/// Encoded size of one log entry (u64 seq, u32 op, u32 u, u32 v).
inline constexpr uint64_t kEdgeDeltaEntryBytes = 20;

/// Update kind of one delta entry.
enum class EdgeDeltaOp : uint32_t {
  kInsert = 0,
  kDelete = 1,
};

/// One logged edge update. `seq` is the position of the update in the
/// global stream; routed copies of the same update share it.
struct EdgeDeltaEntry {
  uint64_t seq = 0;
  EdgeDeltaOp op = EdgeDeltaOp::kInsert;
  VertexId u = 0;
  VertexId v = 0;
};

/// Parsed delta manifest.
struct EdgeDeltaManifest {
  uint64_t num_vertices = 0;
  /// Sequence number the next update will receive (== updates logged so
  /// far, counting each update once even when routed to two shards).
  uint64_t next_sequence = 0;
  /// Entries per shard log (authoritative; logs are append-only).
  std::vector<uint64_t> shard_entries;

  uint32_t num_shards() const {
    return static_cast<uint32_t>(shard_entries.size());
  }
};

/// Path of the delta manifest overlaying the SADJS file rooted at
/// `sadjs_manifest_path`.
std::string EdgeDeltaManifestPath(const std::string& sadjs_manifest_path);

/// Path of shard `index`'s delta log of the delta rooted at `delta_path`.
std::string EdgeDeltaShardPath(const std::string& delta_path, uint32_t index);

/// Reads and validates the delta manifest at `path`.
Status ReadEdgeDeltaManifest(const std::string& path, EdgeDeltaManifest* out,
                             IoStats* stats = nullptr);

/// Writes (or atomically overwrites) the delta manifest at `path`.
Status WriteEdgeDeltaManifest(const std::string& path,
                              const EdgeDeltaManifest& manifest,
                              IoStats* stats = nullptr);

/// Creates an empty delta log for shard `index` (header only) at
/// `log_path`: EdgeDeltaShardPath(delta_path, index) for a live log, or a
/// temporary name when the epoch journal stages a rewrite (write-new +
/// rename), because a live log may be hard-linked into the previous
/// epoch's namespace, and truncating the shared inode in place would
/// corrupt the fallback epoch.
Status CreateEdgeDeltaShardLog(const std::string& log_path, uint32_t index,
                               uint64_t num_vertices,
                               IoStats* stats = nullptr);

/// Append-only writer for one shard's delta log. The log file must exist
/// (CreateEdgeDeltaShardLog); entries must arrive in strictly increasing
/// sequence order relative to the log's existing tail -- the writer only
/// validates the entries themselves (range, self-loop, op), ordering is
/// the caller's contract.
class EdgeDeltaShardWriter {
 public:
  /// `stats` may be null. `expected_entries` sizes the write buffer
  /// (capped at 1 MiB): a batch's append of a few entries allocates a
  /// buffer for those entries, not a zero-filled 1 MiB one.
  explicit EdgeDeltaShardWriter(IoStats* stats = nullptr,
                                size_t expected_entries = SIZE_MAX);

  /// Opens the shard log at `log_path` (EdgeDeltaShardPath, or a staged
  /// rewrite's temporary name) for appending.
  Status Open(const std::string& log_path, uint64_t num_vertices);

  /// Appends one entry.
  Status Append(const EdgeDeltaEntry& entry);

  /// Flushes and closes. Safe to call twice.
  Status Close();

 private:
  SequentialFileWriter writer_;
  uint64_t num_vertices_ = 0;
};

/// Forward-only validated reader of one shard's delta log.
class EdgeDeltaShardReader {
 public:
  /// `stats` may be null. With `tolerate_trailing_bytes`, bytes after the
  /// last manifest-declared entry end the stream instead of failing --
  /// the recovery path for a crash between a log append and the delta
  /// manifest republish, where the unmanifested tail is by definition an
  /// unflushed batch to be dropped. Default is strict.
  explicit EdgeDeltaShardReader(IoStats* stats = nullptr,
                                bool tolerate_trailing_bytes = false);

  /// Opens shard `index`'s log of the delta rooted at `delta_path`,
  /// validating the header against `manifest`.
  Status Open(const std::string& delta_path, const EdgeDeltaManifest& manifest,
              uint32_t index);

  /// Reads the next entry; `*has_next` is false after the last declared
  /// entry. Truncation, out-of-range ids, self-loops, unknown ops and
  /// non-increasing sequence numbers all yield Corruption; so do excess
  /// bytes unless the reader tolerates them.
  Status Next(EdgeDeltaEntry* entry, bool* has_next);

  /// True once Next() has hit (and swallowed) a trailing tail in
  /// tolerant mode. The caller is expected to rewrite the log.
  bool had_trailing_bytes() const { return had_trailing_bytes_; }

  /// Closes the underlying file. Safe to call twice.
  Status Close();

 private:
  SequentialFileReader reader_;
  std::string path_;
  bool tolerate_trailing_bytes_ = false;
  bool had_trailing_bytes_ = false;
  uint64_t num_vertices_ = 0;
  uint64_t num_entries_ = 0;
  uint64_t entries_seen_ = 0;
  uint64_t max_sequence_ = 0;
  uint64_t last_seq_ = 0;
  bool any_seen_ = false;
};

/// Convenience: reads shard `index`'s whole log into `out` (appended).
/// `had_trailing_bytes` (may be null) reports a swallowed tail when
/// `tolerate_trailing_bytes` is set.
Status ReadEdgeDeltaShardLog(const std::string& delta_path,
                             const EdgeDeltaManifest& manifest, uint32_t index,
                             std::vector<EdgeDeltaEntry>* out,
                             IoStats* stats = nullptr,
                             bool tolerate_trailing_bytes = false,
                             bool* had_trailing_bytes = nullptr);

}  // namespace semis

#endif  // SEMIS_IO_EDGE_DELTA_FILE_H_
