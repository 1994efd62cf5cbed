#include "graph/shard_store.h"

#include <dirent.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "io/edge_delta_file.h"
#include "io/epoch_journal.h"
#include "io/file.h"
#include "util/crash_point.h"

namespace semis {

namespace {

// On-disk byte size a shard's manifest entry implies: its header, then a
// record header per record and a word per edge. Shard files are written
// in full and append-only, so the size is exact; delta logs may carry a
// crash-torn tail past the declared entry count, so only a lower bound
// holds for them.
uint64_t ExpectedShardBytes(const ShardInfo& info) {
  return kAdjacencyShardHeaderBytes +
         AdjacencyRecordBytes(0) * info.num_records +
         sizeof(VertexId) * info.num_directed_edges;
}

// Splits `path` into directory (without trailing '/') and base name.
void SplitPath(const std::string& path, std::string* dir, std::string* base) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) {
    *dir = ".";
    *base = path;
  } else {
    *dir = slash == 0 ? "/" : path.substr(0, slash);
    *base = path.substr(slash + 1);
  }
}

// Parses a run of decimal digits at the front of `s`; returns true and
// strips them into `*value` / `*rest` only if there is at least one.
bool ConsumeDigits(const std::string& s, uint64_t* value, std::string* rest) {
  size_t i = 0;
  uint64_t v = 0;
  while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
    v = v * 10 + static_cast<uint64_t>(s[i] - '0');
    ++i;
  }
  if (i == 0) return false;
  *value = v;
  *rest = s.substr(i);
  return true;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool IsAllDigits(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

// True if `name` (a sibling of the root, already stripped of the
// "<base>." prefix) is an orphan of the resolved store. Conservative: an
// unrecognized name is never an orphan.
bool SuffixIsOrphan(const ResolvedShardStore& store, const std::string& sfx) {
  if (sfx == "tmp") return true;  // root-pointer staging
  if (sfx.rfind("epoch", 0) == 0) {
    uint64_t epoch = 0;
    std::string rest;
    if (!ConsumeDigits(sfx.substr(5), &epoch, &rest)) return false;
    if (!rest.empty() && rest[0] != '.') return false;  // not our naming
    // Staging inside any epoch namespace is always dead: `.tmp` from a
    // torn manifest republish, `.resort<k>` from an interrupted re-sort.
    if (EndsWith(rest, ".tmp")) return true;
    size_t resort = rest.rfind(".resort");
    if (resort != std::string::npos &&
        IsAllDigits(rest.substr(resort + 7))) {
      return true;
    }
    // Epoch files next to a legacy root are a crashed conversion; epoch
    // files outside {current, previous} are retired.
    if (!store.journaled) return true;
    return epoch != store.current_epoch && epoch != store.previous_epoch;
  }
  if (store.journaled) {
    // Once journaled, the legacy-layout names are stale (their inodes
    // were hard-linked into epoch 1 by the conversion commit).
    if (sfx == "delta") return true;
    if (sfx.rfind("delta.shard", 0) == 0 && IsAllDigits(sfx.substr(11))) {
      return true;
    }
    if (sfx.rfind("shard", 0) == 0 && IsAllDigits(sfx.substr(5))) return true;
  }
  return false;
}

// True when `s` reports a missing file: NotFound, or an IOError with
// ENOENT, which is how an open of a missing file reports it.
bool IsMissingFile(const Status& s) {
  return s.IsNotFound() || (s.IsIOError() && s.sys_errno() == ENOENT);
}

// True when a failed epoch validation shows the epoch damaged -- a file
// whose bytes fail their checks, or one that is gone -- rather than an
// I/O failure, which says nothing about the files.
bool ShowsDamage(const Status& s) {
  return s.IsCorruption() || IsMissingFile(s);
}

}  // namespace

Status ValidateShardStoreEpoch(const std::string& manifest_path,
                               IoStats* stats) {
  ShardedAdjacencyManifest manifest;
  SEMIS_RETURN_IF_ERROR(
      ReadShardedAdjacencyManifest(manifest_path, &manifest, stats));
  for (uint32_t k = 0; k < manifest.num_shards(); ++k) {
    const std::string shard_path = ShardFilePath(manifest_path, k);
    uint64_t size = 0;
    SEMIS_RETURN_IF_ERROR(GetFileSize(shard_path, &size));
    const uint64_t expected = ExpectedShardBytes(manifest.shards[k]);
    if (size != expected) {
      return Status::Corruption(
          "shard file '" + shard_path + "' is " + std::to_string(size) +
          " bytes, manifest implies " + std::to_string(expected));
    }
  }
  const std::string delta_path = EdgeDeltaManifestPath(manifest_path);
  uint64_t delta_size = 0;
  const Status overlay = GetFileSize(delta_path, &delta_size);
  if (IsMissingFile(overlay)) {
    return Status::OK();  // no overlay; the base alone is the store
  }
  SEMIS_RETURN_IF_ERROR(overlay);
  EdgeDeltaManifest delta;
  SEMIS_RETURN_IF_ERROR(ReadEdgeDeltaManifest(delta_path, &delta, stats));
  if (delta.num_shards() != manifest.num_shards() ||
      delta.num_vertices != manifest.header.num_vertices) {
    return Status::Corruption("delta manifest '" + delta_path +
                              "' disagrees with SADM manifest '" +
                              manifest_path + "'");
  }
  for (uint32_t k = 0; k < delta.num_shards(); ++k) {
    const std::string log_path = EdgeDeltaShardPath(delta_path, k);
    uint64_t size = 0;
    SEMIS_RETURN_IF_ERROR(GetFileSize(log_path, &size));
    const uint64_t min_bytes =
        kEdgeDeltaLogHeaderBytes +
        kEdgeDeltaEntryBytes * delta.shard_entries[k];
    if (size < min_bytes) {
      return Status::Corruption(
          "delta log '" + log_path + "' is " + std::to_string(size) +
          " bytes, manifest declares at least " + std::to_string(min_bytes));
    }
  }
  return Status::OK();
}

namespace {

// Shared resolution. When `durable`, a fallback is committed back to the
// root pointer so later readers skip the damaged epoch. Only damage
// (ShowsDamage) moves the store to its previous epoch: any other error
// of a validation is returned as it is, with no rewrite and no GC, so a
// transient read fault can neither retire an epoch nor make a reader
// serve the previous one.
Status ResolveInternal(const std::string& root_path, bool durable,
                       ResolvedShardStore* out, ShardStoreRecovery* recovery,
                       IoStats* stats) {
  ResolvedShardStore resolved;
  resolved.root_path = root_path;
  uint32_t magic = 0;
  SEMIS_RETURN_IF_ERROR(ProbeFileMagic(root_path, &magic, stats));
  if (magic != kEpochRootMagic) {
    // Legacy (SADM) store -- or not a store at all, in which case the
    // manifest reader's own diagnostics fire downstream.
    resolved.manifest_path = root_path;
    *out = resolved;
    return Status::OK();
  }
  EpochRootPointer root;
  SEMIS_RETURN_IF_ERROR(ReadEpochRootPointer(root_path, &root, stats));
  resolved.journaled = true;
  resolved.current_epoch = root.current_epoch;
  resolved.previous_epoch = root.previous_epoch;
  resolved.manifest_path = EpochManifestPath(root_path, root.current_epoch);
  Status current_ok = ValidateShardStoreEpoch(resolved.manifest_path, stats);
  if (!current_ok.ok()) {
    if (!ShowsDamage(current_ok)) return current_ok;
    if (root.previous_epoch == 0) {
      return Status::Corruption("store '" + root_path + "' epoch " +
                                std::to_string(root.current_epoch) +
                                " is damaged and no fallback epoch exists: " +
                                current_ok.message());
    }
    const std::string prev_manifest =
        EpochManifestPath(root_path, root.previous_epoch);
    Status previous_ok = ValidateShardStoreEpoch(prev_manifest, stats);
    if (!previous_ok.ok()) {
      if (!ShowsDamage(previous_ok)) return previous_ok;
      return Status::Corruption(
          "store '" + root_path + "' is damaged in both epochs (current " +
          std::to_string(root.current_epoch) + ": " + current_ok.message() +
          "; previous " + std::to_string(root.previous_epoch) + ": " +
          previous_ok.message() + ")");
    }
    resolved.fell_back = true;
    resolved.current_epoch = root.previous_epoch;
    resolved.previous_epoch = 0;
    resolved.manifest_path = prev_manifest;
    if (recovery != nullptr) recovery->fell_back = true;
    if (durable) {
      EpochRootPointer repaired;
      repaired.current_epoch = resolved.current_epoch;
      repaired.previous_epoch = 0;
      SEMIS_RETURN_IF_ERROR(WriteEpochRootPointer(root_path, repaired, stats));
    }
  }
  *out = resolved;
  return Status::OK();
}

}  // namespace

Status ResolveShardStore(const std::string& root_path, ResolvedShardStore* out,
                         IoStats* stats) {
  return ResolveInternal(root_path, /*durable=*/false, out, nullptr, stats);
}

Status RecoverShardStore(const std::string& root_path, ResolvedShardStore* out,
                         ShardStoreRecovery* recovery, IoStats* stats) {
  ShardStoreRecovery local;
  SEMIS_RETURN_IF_ERROR(
      ResolveInternal(root_path, /*durable=*/true, out, &local, stats));
  SEMIS_RETURN_IF_ERROR(GarbageCollectShardStore(*out, &local.orphan_files_removed));
  if (recovery != nullptr) *recovery = local;
  return Status::OK();
}

Status ListShardStoreOrphans(const ResolvedShardStore& resolved,
                             std::vector<std::string>* orphans) {
  orphans->clear();
  std::string dir, base;
  SplitPath(resolved.root_path, &dir, &base);
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::IOError("cannot open directory '" + dir +
                           "': " + std::strerror(errno));
  }
  const std::string prefix = base + ".";
  for (struct dirent* entry = ::readdir(d); entry != nullptr;
       entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    if (SuffixIsOrphan(resolved, name.substr(prefix.size()))) {
      orphans->push_back(dir + "/" + name);
    }
  }
  ::closedir(d);
  // readdir order is filesystem-dependent; sort so reports and removal
  // order (and therefore crash-point numbering during GC) are stable.
  std::sort(orphans->begin(), orphans->end());
  return Status::OK();
}

Status GarbageCollectShardStore(const ResolvedShardStore& resolved,
                                uint64_t* removed) {
  std::vector<std::string> orphans;
  SEMIS_RETURN_IF_ERROR(ListShardStoreOrphans(resolved, &orphans));
  uint64_t count = 0;
  for (const std::string& path : orphans) {
    SEMIS_RETURN_IF_ERROR(RemoveFileIfExists(path));
    ++count;
    SEMIS_CRASH_POINT("gc.unlinked-orphan");
  }
  if (count > 0) {
    SEMIS_RETURN_IF_ERROR(SyncParentDirectory(resolved.root_path));
  }
  if (removed != nullptr) *removed = count;
  return Status::OK();
}

Status ProbeShardStoreRoot(const std::string& path, bool* is_store) {
  uint32_t magic = 0;
  const Status probe = ProbeFileMagic(path, &magic);
  *is_store = false;
  if (IsMissingFile(probe)) return Status::OK();
  SEMIS_RETURN_IF_ERROR(probe);
  *is_store = magic == kShardManifestMagic || magic == kEpochRootMagic;
  return Status::OK();
}

Status ReadShardStoreManifest(const std::string& root_path,
                              ShardedAdjacencyManifest* out, IoStats* stats,
                              std::string* manifest_path) {
  ResolvedShardStore resolved;
  SEMIS_RETURN_IF_ERROR(ResolveShardStore(root_path, &resolved, stats));
  SEMIS_RETURN_IF_ERROR(
      ReadShardedAdjacencyManifest(resolved.manifest_path, out, stats));
  if (manifest_path != nullptr) {
    *manifest_path = std::move(resolved.manifest_path);
  }
  return Status::OK();
}

}  // namespace semis
