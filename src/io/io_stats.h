// Copyright (c) the semis authors.
// I/O accounting for the semi-external algorithms. The paper's cost model
// charges sequential scans of the adjacency file (|V|+|E|)/B blocks each;
// we count bytes moved and scans started so every bench can report the
// I/O column of its table.
#ifndef SEMIS_IO_IO_STATS_H_
#define SEMIS_IO_IO_STATS_H_

#include <algorithm>
#include <cstdint>

namespace semis {

/// Counters shared by all file-layer objects of one experiment. Plain
/// struct (RocksDB Statistics style); attach a pointer to readers/writers.
struct IoStats {
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t read_calls = 0;
  uint64_t write_calls = 0;
  uint64_t files_opened = 0;
  /// Transient I/O failures absorbed by a RetryPolicy (io/env.h): each
  /// count is one extra attempt at a sound retry site (open, fsync,
  /// dir-fsync, root-pointer rename). Nonzero means the storage layer is
  /// degrading even though every operation eventually succeeded.
  uint64_t io_retries = 0;
  /// Number of full sequential scans of a graph file that were started.
  uint64_t sequential_scans = 0;
  /// Number of external-sort merge passes executed.
  uint64_t sort_passes = 0;
  /// Records decoded: every record an AdjacencyFileScanner yields, from a
  /// SADJ file, a shard, a record range or a single-record read; records
  /// SkipTo steps over are not counted (one logical pass over a graph
  /// decodes each record once).
  uint64_t records_decoded = 0;
  /// blocks_decoded, arena_bytes and peak_buffered_bytes are set by no
  /// reader: they stay declared, and read 0, only because the end-to-end
  /// benchmark reports them (perfbench's core.greedy layer metrics).
  /// Delete them with the next change to that benchmark.
  uint64_t blocks_decoded = 0;
  /// High-water mark: merged with max, not sum.
  uint64_t arena_bytes = 0;
  /// High-water mark: merged with max, not sum.
  uint64_t peak_buffered_bytes = 0;

  /// Accumulates another counter set into this one.
  void MergeFrom(const IoStats& other) {
    bytes_read += other.bytes_read;
    bytes_written += other.bytes_written;
    read_calls += other.read_calls;
    write_calls += other.write_calls;
    files_opened += other.files_opened;
    io_retries += other.io_retries;
    sequential_scans += other.sequential_scans;
    sort_passes += other.sort_passes;
    records_decoded += other.records_decoded;
    blocks_decoded += other.blocks_decoded;
    // The peak counters describe a high-water mark, not traffic: merging
    // two stages keeps the larger mark instead of summing.
    arena_bytes = std::max(arena_bytes, other.arena_bytes);
    peak_buffered_bytes =
        std::max(peak_buffered_bytes, other.peak_buffered_bytes);
  }

  /// Resets all counters to zero.
  void Reset() { *this = IoStats(); }

  /// True when every counter is equal.
  bool operator==(const IoStats&) const = default;
};

}  // namespace semis

#endif  // SEMIS_IO_IO_STATS_H_
