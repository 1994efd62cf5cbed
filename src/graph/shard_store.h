// Copyright (c) the semis authors.
// Root resolution, recovery, and epoch garbage collection for sharded
// stores (SADJS + optional SDELTA overlay).
//
// A store rooted at `<root>` comes in two layouts:
//
//   * legacy: `<root>` IS the SADM manifest; shards and delta logs sit at
//     `<root>.shard<K>` / `<root>.delta*`. Mutations republish files
//     per-file atomically but not transactionally across files.
//   * journaled: `<root>` holds a SEPR root pointer (io/epoch_journal.h)
//     naming the current epoch E; the manifest lives at `<root>.epoch<E>`
//     and everything else derives from it. Multi-file mutations build
//     epoch E+1 under its own names and commit by atomically replacing
//     the root pointer -- any crash point resolves to a consistent epoch.
//
// Legacy stores convert to journaled on their first epoch commit (the
// first compaction or re-sort); plain solves never convert anything.
//
// ResolveShardStore is the read-only half (scanners, verify, stats): it
// routes on the root magic, validates the current epoch cheaply, and
// falls back to the previous epoch in memory when the current one is
// damaged: a file fails its checks (Corruption) or is missing (NotFound,
// or an IOError with ENOENT). Any other validation error, such as an
// EIO, is returned: it says nothing about the epoch. RecoverShardStore
// is the writer half (ShardedStreamingMis initialization, fsck --gc): it
// additionally makes a fallback durable by rewriting the root pointer and
// removes orphaned files (half-committed epochs, staging files, retired
// epochs, converted legacy names).
//
// GC keeps the current AND previous epochs, so a reader that resolved the
// store just before a commit can still finish its scan afterwards; only
// the epoch retired by the NEXT commit disappears.
#ifndef SEMIS_GRAPH_SHARD_STORE_H_
#define SEMIS_GRAPH_SHARD_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/sharded_adjacency_file.h"
#include "io/io_stats.h"
#include "util/status.h"

namespace semis {

/// Where a store root resolved to.
struct ResolvedShardStore {
  std::string root_path;
  /// The SADM manifest serving reads: `root_path` itself for a legacy
  /// store, `<root>.epoch<current_epoch>` for a journaled one.
  std::string manifest_path;
  bool journaled = false;
  /// 0 for legacy stores; >= 1 once journaled.
  uint64_t current_epoch = 0;
  /// 0 when no fallback epoch exists.
  uint64_t previous_epoch = 0;
  /// True when the root's current epoch failed validation and the
  /// previous epoch is serving instead.
  bool fell_back = false;
};

/// Outcome of RecoverShardStore beyond the resolution itself.
struct ShardStoreRecovery {
  bool fell_back = false;
  uint64_t orphan_files_removed = 0;
};

/// Cheap consistency check of one epoch (or legacy) manifest: the
/// manifest parses, every shard file has exactly the size its totals
/// imply, and -- when a delta overlay exists -- the delta manifest parses,
/// matches the SADM manifest, and every log holds at least its declared
/// entries (a longer log is a tolerated crash tail, a shorter one is
/// truncation). Reads O(shards) metadata, not the data itself.
Status ValidateShardStoreEpoch(const std::string& manifest_path,
                               IoStats* stats = nullptr);

/// Read-only root resolution (see the file comment). Never writes.
/// Fails with Corruption when both the current and the previous epoch
/// are damaged, and with the validation's own error when one fails
/// without showing damage. A root that is neither SEPR nor SADM resolves
/// as legacy and leaves the format error to the manifest reader,
/// preserving its diagnostics.
Status ResolveShardStore(const std::string& root_path, ResolvedShardStore* out,
                         IoStats* stats = nullptr);

/// Writer-side resolution: ResolveShardStore, then makes any fallback
/// durable (rewrites the root pointer to name the surviving epoch) and
/// garbage-collects orphaned files. `recovery` may be null.
Status RecoverShardStore(const std::string& root_path, ResolvedShardStore* out,
                         ShardStoreRecovery* recovery = nullptr,
                         IoStats* stats = nullptr);

/// Lists files in the store's directory that belong to no live epoch:
/// staging files (`*.tmp`, `*.resort<k>`), epochs outside
/// {current, previous}, epoch files next to an unconverted legacy root
/// (a crashed conversion), and legacy-layout names left behind by a
/// completed conversion. Paths are returned sorted.
Status ListShardStoreOrphans(const ResolvedShardStore& resolved,
                             std::vector<std::string>* orphans);

/// Removes every orphan (ListShardStoreOrphans) and fsyncs the directory
/// once when anything was removed. `removed` may be null.
Status GarbageCollectShardStore(const ResolvedShardStore& resolved,
                                uint64_t* removed = nullptr);

/// Sets `*is_store` to whether `path` starts with a store-root magic: a
/// SADM manifest or a SEPR epoch root pointer. The engine and the CLI
/// route on this, so a file that CLAIMS to be a store but fails to parse
/// surfaces the manifest reader's diagnosis instead of a misleading "not
/// an adjacency file". A missing file is not a store root, and the
/// consumer's own open reports it; any other error of the probe's stat
/// or read is returned.
Status ProbeShardStoreRoot(const std::string& path, bool* is_store);

/// Resolves `root_path` read-only and reads the serving SADM manifest.
/// `manifest_path`, when non-null, receives that manifest's path. Every
/// reader that opens shard files takes their paths from it: for a
/// journaled root they are the current epoch's files, not `root_path`'s.
Status ReadShardStoreManifest(const std::string& root_path,
                              ShardedAdjacencyManifest* out,
                              IoStats* stats = nullptr,
                              std::string* manifest_path = nullptr);

}  // namespace semis

#endif  // SEMIS_GRAPH_SHARD_STORE_H_
