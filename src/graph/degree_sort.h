// Copyright (c) the semis authors.
// The paper's preprocessing step (Section 4.1): reorder an adjacency file
// so that vertex records appear in ascending (degree, id) order. GREEDY's
// approximation quality depends on this ordering; BASELINE skips it.
//
// Implemented with the external run-formation/merge sorter, reproducing
// the paper's I/O bound (|V|+|E|)/B * (log_{M/B} |V|/B + 2): one scan to
// form runs, log_{fan_in} passes to merge, one scan to write.
//
// DegreeSorter is the one implementation; every (degree, id)-ordered
// store is written through it: BuildDegreeSortedAdjacencyFile (a sorted
// SADJ file), a monolithic MisEngine::Open (straight into the engine's
// shard store) and ShardedStreamingMis::Resort (the compacted base into
// the next epoch's shards).
#ifndef SEMIS_GRAPH_DEGREE_SORT_H_
#define SEMIS_GRAPH_DEGREE_SORT_H_

#include <string>
#include <vector>

#include "graph/record_block.h"
#include "io/external_sorter.h"
#include "io/io_stats.h"
#include "util/common.h"
#include "util/memory_tracker.h"
#include "util/status.h"

namespace semis {

/// Tuning for the degree sort.
struct DegreeSortOptions {
  /// Main-memory budget of the external sorter (the paper's M).
  size_t memory_budget_bytes = 64ull << 20;
  /// Merge fan-in (the paper's M/B).
  size_t fan_in = 16;
  /// Optional I/O counters.
  IoStats* stats = nullptr;
  /// Optional logical-memory accounting for the sort stage (run buffer +
  /// merge cursors), so callers can fold the preprocessing peak into their
  /// end-to-end peak-memory figure.
  MemoryTracker* memory = nullptr;
};

/// Sorts vertex records into ascending (degree, id) order through one
/// ExternalSorter, keyed (degree << 32) | id. Keys are unique, so the
/// output order depends neither on the input order nor on how the sorter
/// split its runs. Spills go to the sorter's private scratch dir under
/// $TMPDIR, which lives as long as the DegreeSorter.
///
/// Usage: AddAll() over every input reader, then open the output and
/// WriteTo() it once. The output is opened only after the input is
/// consumed, so a sort may overwrite its own input file.
class DegreeSorter {
 public:
  explicit DegreeSorter(const DegreeSortOptions& options);

  /// Buffers every record `source` yields (any reader with the view-API
  /// Next, e.g. AdjacencyFileScanner or ShardedAdjacencyScanner),
  /// spilling sorted runs at the budget.
  template <typename Source>
  Status AddAll(Source* source) {
    VertexRecordView rec;
    bool has_next = false;
    while (true) {
      SEMIS_RETURN_IF_ERROR(source->Next(&rec, &has_next));
      if (!has_next) return Status::OK();
      SEMIS_RETURN_IF_ERROR(Add(rec));
    }
  }

  /// Appends every added record, in (degree, id) order, to `writer`: an
  /// open AdjacencyFileWriter or ShardedAdjacencyFileWriter. The caller
  /// sets kAdjFlagDegreeSorted when opening it and finishes it after.
  template <typename Writer>
  Status WriteTo(Writer* writer) {
    SEMIS_RETURN_IF_ERROR(sorter_.Finish());
    VertexRecordView rec;
    bool has_next = false;
    while (true) {
      SEMIS_RETURN_IF_ERROR(Next(&rec, &has_next));
      if (!has_next) return Status::OK();
      SEMIS_RETURN_IF_ERROR(
          writer->AppendVertex(rec.id, rec.neighbors, rec.degree));
    }
  }

 private:
  Status Add(const VertexRecordView& rec);
  // The next record in sorted order; `rec` points into neighbors_ until
  // the next call.
  Status Next(VertexRecordView* rec, bool* has_next);

  ExternalSorter sorter_;
  std::vector<VertexId> neighbors_;
};

/// Reads the adjacency file at `input_path` and writes a record-permuted
/// copy to `output_path` with records in ascending (degree, id) order and
/// the kAdjFlagDegreeSorted header flag set.
Status BuildDegreeSortedAdjacencyFile(const std::string& input_path,
                                      const std::string& output_path,
                                      const DegreeSortOptions& options);

}  // namespace semis

#endif  // SEMIS_GRAPH_DEGREE_SORT_H_
