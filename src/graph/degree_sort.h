// Copyright (c) the semis authors.
// The paper's preprocessing step (Section 4.1): reorder an adjacency file
// so that vertex records appear in ascending (degree, id) order. GREEDY's
// approximation quality depends on this ordering; BASELINE skips it.
//
// DegreeSorter is the one implementation; every (degree, id)-ordered
// store is written through it: BuildDegreeSortedAdjacencyFile (a sorted
// SADJ file), a monolithic MisEngine::Open (straight into the engine's
// shard store) and ShardedStreamingMis::Resort (the compacted base into
// the next epoch's shards). It runs in one of two regimes, picked from
// the input's declared totals before the first record is read:
//
//   * Placement, when the whole graph fits the memory budget (see
//     PlacementBytes). Degrees take at most max_degree + 1 values, so a
//     degree histogram gives every record its output slot: the records
//     are copied once into one flat buffer, a loop over ids ranks them,
//     and they are written in slot order. The input is read once and the
//     output written once, with no comparison sort and no spill.
//   * Merge, otherwise: the external run-formation/merge sorter,
//     reproducing the paper's Table 1 I/O bound
//     (|V|+|E|)/B * (log_{M/B} |V|/B + 2): one scan to form runs,
//     log_{fan_in} passes to merge, one scan to write.
//
// Both regimes write the same bytes.
#ifndef SEMIS_GRAPH_DEGREE_SORT_H_
#define SEMIS_GRAPH_DEGREE_SORT_H_

#include <memory>
#include <string>
#include <vector>

#include "graph/adjacency_file.h"
#include "io/external_sorter.h"
#include "io/io_stats.h"
#include "util/common.h"
#include "util/memory_tracker.h"
#include "util/status.h"

namespace semis {

/// Tuning for the degree sort.
struct DegreeSortOptions {
  /// Main-memory budget of the sort (the paper's M). A graph whose
  /// placement footprint fits it is sorted by placement; otherwise the
  /// external sorter spills runs at this budget.
  size_t memory_budget_bytes = 64ull << 20;
  /// Merge fan-in (the paper's M/B).
  size_t fan_in = 16;
  /// Optional I/O counters.
  IoStats* stats = nullptr;
  /// Optional logical-memory accounting for the sort stage (the placement
  /// buffers, or the run buffer + merge cursors), so callers can fold the
  /// preprocessing peak into their end-to-end peak-memory figure.
  MemoryTracker* memory = nullptr;
};

/// Sorts vertex records into ascending (degree, id) order. Keys are
/// unique, so the output order depends neither on the input order nor on
/// the regime. Merge-regime spills go to the sorter's private scratch dir
/// under $TMPDIR, which lives as long as the DegreeSorter.
///
/// Usage: AddAll() over the input scanner, then open the output and
/// WriteTo() it once. The output is opened only after the input is
/// consumed, so a sort may overwrite its own input file.
class DegreeSorter {
 public:
  explicit DegreeSorter(const DegreeSortOptions& options);

  /// Bytes the placement regime holds for a graph with these totals:
  /// 8 B per record header and 4 B per neighbor in the flat buffer, 8 B
  /// per vertex for its id -> offset table and slot order, and 4 B per
  /// degree value (0..max_degree) for the histogram. The histogram term
  /// bounds a header that declares an absurd max_degree by the budget.
  /// An input declaring 2^32 - 1 or more vertices or edges never takes
  /// the placement regime.
  static uint64_t PlacementBytes(uint64_t num_vertices,
                                 uint64_t num_directed_edges,
                                 uint32_t max_degree);

  /// Reads every record `scanner` yields, open on a SADJ file or a store
  /// and not yet read. The regime is chosen from the header first. A
  /// vertex id that appears twice is Corruption naming the scanner's
  /// path.
  Status AddAll(AdjacencyFileScanner* scanner);

  /// Appends every added record, in (degree, id) order, to `writer` (an
  /// AdjacencyFileWriter or ShardedAdjacencyFileWriter), opened by the
  /// caller with kAdjFlagDegreeSorted and the input's totals; the caller
  /// finishes it after.
  template <typename Writer>
  Status WriteTo(Writer* writer) {
    if (!placement_) return Drain(writer);
    std::vector<uint32_t> order;
    Status s = SlotOrder(&order);
    for (size_t i = 0; s.ok() && i < order.size(); ++i) {
      if (i + kGatherAhead < order.size()) {
        __builtin_prefetch(words_.get() + order[i + kGatherAhead]);
      }
      const uint32_t* rec = words_.get() + order[i];
      s = writer->AppendVertex(rec[0], rec + 2, rec[1]);
    }
    ReleasePlacement();
    return s;
  }

 private:
  // The loop over ids and the gather in slot order jump around the record
  // buffer (the input order is arbitrary); both prefetch the record this
  // many steps ahead.
  static constexpr size_t kGatherAhead = 16;

  Status Begin(const AdjacencyFileHeader& header);
  // Merge regime: one record into the external sorter.
  Status Add(const VertexRecordView& rec);
  // Placement regime: one record into the flat buffer.
  Status Place(const VertexRecordView& rec, const std::string& path);
  // Placement regime: the word offset of every record in (degree, id)
  // order. Consumes the histogram.
  Status SlotOrder(std::vector<uint32_t>* order);
  void ReleasePlacement();
  // Merge regime: the next record in sorted order; `rec` points into
  // neighbors_ until the next call.
  Status Next(VertexRecordView* rec, bool* has_next);

  template <typename Writer>
  Status Drain(Writer* writer) {
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

  DegreeSortOptions options_;
  bool begun_ = false;
  bool placement_ = false;

  // Merge regime.
  ExternalSorter sorter_;
  std::vector<VertexId> neighbors_;

  // Placement regime: records as (id, degree, neighbors...) words in
  // input order, each vertex's word offset there, and the number of
  // vertices of each degree.
  std::unique_ptr<uint32_t[]> words_;
  uint64_t words_capacity_ = 0;
  uint64_t words_used_ = 0;
  std::vector<uint32_t> offset_;
  std::vector<uint32_t> count_;
  uint64_t charged_bytes_ = 0;
};

/// Reads the adjacency file at `input_path` and writes a record-permuted
/// copy to `output_path` with records in ascending (degree, id) order and
/// the kAdjFlagDegreeSorted header flag set.
Status BuildDegreeSortedAdjacencyFile(const std::string& input_path,
                                      const std::string& output_path,
                                      const DegreeSortOptions& options);

/// Sorts the records of `input`, an open scanner (as for
/// DegreeSorter::AddAll) that has read no record yet, into a new
/// degree-sorted store of `num_shards` shards at `manifest_path` with the
/// input's totals and header flags plus kAdjFlagDegreeSorted, and closes
/// the input. The scanner is the caller's, so that a header probe can
/// decide whether to sort without a second open of the input:
/// MisEngine::Open hands over its SADJ scanner, and
/// ShardedStreamingMis::Resort a store scan of the compacted base.
Status BuildDegreeSortedShardStore(AdjacencyFileScanner* input,
                                   const std::string& manifest_path,
                                   uint32_t num_shards,
                                   const DegreeSortOptions& options);

}  // namespace semis

#endif  // SEMIS_GRAPH_DEGREE_SORT_H_
