// Copyright (c) the semis authors.
// External-memory sort of (key, payload) records with a bounded main-memory
// budget: classic run formation + k-way merge. This is the substrate for
//   * converting raw edge lists into adjacency files (key = src vertex), and
//   * the paper's preprocessing step that orders adjacency lists by
//     ascending degree (key = (degree, id)), Section 4.1. That sort is
//     graph/degree_sort.h's DegreeSorter, which writes every
//     degree-sorted store: a sorted SADJ file, the shard store of a
//     monolithic MisEngine::Open, and each ShardedStreamingMis::Resort.
// The number of merge passes is log_{fan_in}(#runs), reproducing the
// (|V|+|E|)/B * (log_{M/B} |V|/B + 2) I/O shape of the paper's Table 1.
#ifndef SEMIS_IO_EXTERNAL_SORTER_H_
#define SEMIS_IO_EXTERNAL_SORTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/file.h"
#include "io/io_stats.h"
#include "io/scratch.h"
#include "util/status.h"

namespace semis {

class MemoryTracker;

/// Tuning knobs for ExternalSorter.
struct ExternalSorterOptions {
  /// Approximate bytes of record data buffered before a run is spilled.
  /// Must be positive: a zero budget would degenerate to one spilled run
  /// per record and is rejected with InvalidArgument.
  size_t memory_budget_bytes = 64ull << 20;
  /// Maximum number of runs merged at once (the paper's M/B). Must be at
  /// least 2; smaller values are rejected with InvalidArgument.
  size_t fan_in = 16;
  /// Directory for spill files. Empty = create a private ScratchDir.
  std::string scratch_dir;
  /// Optional I/O counters.
  IoStats* stats = nullptr;
  /// Optional logical-memory accounting: the sorter reports its buffered
  /// record bytes and merge-cursor buffers here, so a pipeline can fold
  /// the sort stage into its peak-memory figure.
  MemoryTracker* memory = nullptr;
};

/// Sorts records of the form (u64 key, u32 payload[len]) by ascending key;
/// ties are broken by insertion order of the run they landed in (stable
/// within a run, deterministic overall).
///
/// Usage:
///   ExternalSorter sorter(opts);
///   sorter.Add(key, data, len);  ... repeated ...
///   sorter.Finish();
///   while (sorter.Next(&key, &payload)) { ... }
class ExternalSorter {
 public:
  explicit ExternalSorter(ExternalSorterOptions options);
  ~ExternalSorter();

  ExternalSorter(const ExternalSorter&) = delete;
  ExternalSorter& operator=(const ExternalSorter&) = delete;

  /// Buffers one record, spilling a sorted run when the budget is hit.
  /// `payload` may be null when `len == 0`.
  Status Add(uint64_t key, const uint32_t* payload, uint32_t len);

  /// Convenience for payload-free keys.
  Status AddKey(uint64_t key) { return Add(key, nullptr, 0); }

  /// Seals input, runs intermediate merge passes if the number of runs
  /// exceeds the fan-in, and prepares the output stream.
  Status Finish();

  /// Produces the next record in ascending key order. Returns false at the
  /// end of the stream. Only valid after Finish(). Check status() when it
  /// returns false to distinguish EOF from an I/O failure.
  bool Next(uint64_t* key, std::vector<uint32_t>* payload);

  /// Error state of the output stream.
  const Status& status() const { return status_; }

  /// Total records added.
  uint64_t NumRecords() const { return num_records_; }

  /// Number of level-0 runs spilled (0 means fully in-memory sort).
  size_t NumInitialRuns() const { return initial_runs_; }

  /// Number of intermediate merge passes performed by Finish().
  size_t MergePasses() const { return merge_passes_; }

 private:
  struct RunCursor;

  Status ValidateOptions() const;
  Status SpillRun();
  Status MergeRuns(const std::vector<std::string>& inputs,
                   const std::string& output);
  bool NextFromMemory(uint64_t* key, std::vector<uint32_t>* payload);
  bool NextFromRuns(uint64_t* key, std::vector<uint32_t>* payload);

  ExternalSorterOptions options_;
  ScratchDir owned_scratch_;
  std::string scratch_path_;

  // In-memory buffer: index entries pointing into flat payload storage.
  struct IndexEntry {
    uint64_t key;
    uint64_t offset;  // into payload_pool_
    uint32_t len;
    uint32_t seq;  // insertion order for stable ties within a run
  };
  std::vector<IndexEntry> index_;
  std::vector<uint32_t> payload_pool_;

  std::vector<std::string> run_files_;
  std::vector<std::unique_ptr<RunCursor>> cursors_;

  Status status_;
  bool finished_ = false;
  size_t mem_used_ = 0;
  uint64_t num_records_ = 0;
  size_t initial_runs_ = 0;
  size_t merge_passes_ = 0;
  size_t mem_iter_ = 0;
};

}  // namespace semis

#endif  // SEMIS_IO_EXTERNAL_SORTER_H_
