// Copyright (c) the semis authors.
// The on-disk adjacency-list format ("SADJ", version 1) consumed by every
// semi-external algorithm in this library.
//
// Layout (little endian):
//   u32 magic 'SADJ'  u32 version
//   u64 num_vertices  u64 num_directed_edges (= sum of degrees)
//   u32 flags         u32 max_degree
//   then one record per vertex, in FILE order (which need not be id
//   order -- degree-sorted files permute the records):
//     u32 id  u32 degree  u32 neighbor[degree]
//
// The scanner exposes records strictly in file order; there is no random
// access, matching the paper's semi-external model.
#ifndef SEMIS_GRAPH_ADJACENCY_FILE_H_
#define SEMIS_GRAPH_ADJACENCY_FILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/record_block.h"
#include "io/file.h"
#include "io/io_stats.h"
#include "util/bit_vector.h"
#include "util/common.h"
#include "util/status.h"

namespace semis {

/// Flag: records appear in ascending order of (degree, id). Produced by
/// the preprocessing sort (Section 4.1) and required by GREEDY for its
/// approximation quality (BASELINE omits it).
inline constexpr uint32_t kAdjFlagDegreeSorted = 1u << 0;

/// Largest vertex count a file can declare: vertex ids are 32-bit.
inline constexpr uint64_t kMaxAdjacencyVertices = uint64_t{1} << 32;

/// Parsed header of an adjacency file.
struct AdjacencyFileHeader {
  uint64_t num_vertices = 0;
  uint64_t num_directed_edges = 0;  // sum of degrees = 2|E|
  uint32_t flags = 0;
  uint32_t max_degree = 0;

  /// True if the file is degree-sorted.
  bool IsDegreeSorted() const { return (flags & kAdjFlagDegreeSorted) != 0; }
};

/// Streaming writer. Vertex totals are declared up front so the header can
/// be written once without backwards seeks (the file stays append-only).
class AdjacencyFileWriter {
 public:
  /// `stats` may be null.
  explicit AdjacencyFileWriter(IoStats* stats = nullptr);

  /// Creates `path` and writes the header. At most kMaxAdjacencyVertices
  /// vertices.
  Status Open(const std::string& path, uint64_t num_vertices,
              uint64_t num_directed_edges, uint32_t max_degree,
              uint32_t flags);

  /// Appends the record for vertex `id`. Every vertex must be appended
  /// exactly once (including degree-0 vertices); a repeated id is
  /// InvalidArgument, and a missing one fails Finish's vertex count.
  Status AppendVertex(VertexId id, const VertexId* neighbors, uint32_t degree);

  /// Validates the declared totals and closes the file.
  Status Finish();

 private:
  SequentialFileWriter writer_;
  uint64_t declared_vertices_ = 0;
  uint64_t declared_directed_edges_ = 0;
  uint32_t declared_max_degree_ = 0;
  uint64_t appended_vertices_ = 0;
  uint64_t appended_edges_ = 0;
  BitVector seen_;  // one bit per vertex: appended already
};

/// Encoded size of one record with `degree` neighbors (id, degree,
/// neighbor words).
inline constexpr uint64_t AdjacencyRecordBytes(uint32_t degree) {
  return 2 * sizeof(uint32_t) + sizeof(VertexId) * uint64_t{degree};
}

/// Appends one record (id, degree, neighbor words) to `writer`: the
/// record encoder of both the SADJ and the sharded writer.
Status AppendAdjacencyRecord(SequentialFileWriter* writer, VertexId id,
                             const VertexId* neighbors, uint32_t degree);

/// One vertex record as exposed by the scanner. `neighbors` points into a
/// scanner-owned buffer that is invalidated by the next call to Next().
struct VertexRecord {
  VertexId id = 0;
  uint32_t degree = 0;
  const VertexId* neighbors = nullptr;
};

/// Shared shim behind every reader's VertexRecord-compat Next overload:
/// drives the source's view-API Next and repackages the view (same
/// lifetime rules). One definition so the field mapping cannot diverge
/// between readers.
template <typename Source>
Status NextRecordFromView(Source* source, VertexRecord* rec,
                          bool* has_next) {
  VertexRecordView view;
  SEMIS_RETURN_IF_ERROR(source->Next(&view, has_next));
  if (*has_next) {
    rec->id = view.id;
    rec->degree = view.degree;
    rec->neighbors = view.neighbors;
  }
  return Status::OK();
}

/// Decodes the records of a SADJ record stream (u32 id, u32 degree,
/// u32 neighbor[degree]; shard files carry the same records) and checks
/// each against its header: the id and every neighbor below
/// `num_vertices`, the degree at most `max_degree`. The one record
/// decoder of AdjacencyFileScanner and AdjacencyShardReader, which keep
/// the record-count and edge-total checks.
///
/// A record the reader holds whole is validated and consumed in place
/// (SequentialFileReader::PeekBuffered/ConsumeBuffered), and its view
/// points into the reader's buffer. A record that crosses a buffer fill,
/// or is longer than the buffer, is read through ReadU32/ReadExact into
/// the decoder's own buffer. Either way the view stays valid until the
/// next call on the reader or the decoder, and the record's two header
/// words sit directly in front of `view->neighbors`: the record's
/// encoded bytes are the 8 + 4 * degree bytes from `view->neighbors - 2`
/// on, which lets a copier move records it does not change verbatim.
class AdjacencyRecordDecoder {
 public:
  /// Sets the header limits and the path named in error messages.
  void Reset(const std::string& path, uint64_t num_vertices,
             uint32_t max_degree);

  /// Decodes the next record from `reader`. Corruption names the check
  /// that failed; a short file fails in ReadExact.
  Status Decode(SequentialFileReader* reader, VertexRecordView* view);

  /// True when the next record, as far as its degree word says, lies
  /// whole in `reader`'s buffer, so Decode takes the in-place path and
  /// does no I/O.
  static bool NextIsBuffered(const SequentialFileReader& reader);

 private:
  Status CheckHeader(VertexId id, uint32_t degree) const;
  Status CheckNeighbors(const VertexId* neighbors, uint32_t degree) const;

  std::string path_;
  uint64_t num_vertices_ = 0;
  uint32_t max_degree_ = 0;
  // A record read across a buffer fill: its header words, then its
  // neighbors.
  std::vector<VertexId> spill_;
};

/// Forward-only reader of adjacency files. Rewind() restarts a scan (and
/// bumps IoStats::sequential_scans): this is the only iteration primitive
/// the semi-external algorithms get.
class AdjacencyFileScanner {
 public:
  /// `stats` may be null.
  explicit AdjacencyFileScanner(IoStats* stats = nullptr);

  /// Opens the file and parses/validates the header. Counts one
  /// sequential scan.
  Status Open(const std::string& path);

  /// Header of the open file.
  const AdjacencyFileHeader& header() const { return header_; }

  /// Reads the next record (graph/record_block.h's view API, so generic
  /// scan code such as RunGreedyScan and the streaming RepairScan runs
  /// unchanged over this scanner and the block-decode cursor).
  /// `view->neighbors` points into a scanner-owned buffer until the next
  /// call. `*has_next` is false at end-of-file (in which case `view` is
  /// untouched). Validates ids, degrees and totals; a truncated or
  /// inconsistent file yields Corruption.
  Status Next(VertexRecordView* view, bool* has_next);

  /// Compatibility flavor of Next for VertexRecord consumers.
  Status Next(VertexRecord* rec, bool* has_next) {
    return NextRecordFromView(this, rec, has_next);
  }

  /// Restarts the scan from the first record. Counts a sequential scan.
  Status Rewind();

  /// Closes the underlying file without waiting for the destructor. Used
  /// by callers (e.g. the Solver's header probe) that must not keep the
  /// file handle open across a long downstream stage. Safe to call twice.
  Status Close();

  /// Path of the open file.
  const std::string& path() const { return path_; }

 private:
  Status ReadHeader();

  IoStats* stats_;
  SequentialFileReader reader_;
  AdjacencyFileHeader header_;
  std::string path_;
  AdjacencyRecordDecoder decoder_;
  uint64_t records_seen_ = 0;
  uint64_t edges_seen_ = 0;
};

}  // namespace semis

#endif  // SEMIS_GRAPH_ADJACENCY_FILE_H_
