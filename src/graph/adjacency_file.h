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
// access, matching the paper's semi-external model. Shard files of a
// sharded store (graph/sharded_adjacency_file.h) carry the same records
// under their own header, and the scanner reads them too.
#ifndef SEMIS_GRAPH_ADJACENCY_FILE_H_
#define SEMIS_GRAPH_ADJACENCY_FILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "io/file.h"
#include "io/io_stats.h"
#include "util/bit_vector.h"
#include "util/common.h"
#include "util/status.h"

namespace semis {

struct ShardedAdjacencyManifest;

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

/// One vertex record as the readers hand it out: `neighbors` points into
/// the reader's buffer (or the cursor's block) and stays valid until the
/// reader moves on.
struct VertexRecordView {
  VertexId id = 0;
  uint32_t degree = 0;
  const VertexId* neighbors = nullptr;

  const VertexId* begin() const { return neighbors; }
  const VertexId* end() const { return neighbors + degree; }
  VertexId neighbor(uint32_t i) const { return neighbors[i]; }
};

/// Decodes the records of a SADJ record stream (u32 id, u32 degree,
/// u32 neighbor[degree]; shard files carry the same records) and checks
/// each against its header: the id and every neighbor below
/// `num_vertices`, the degree at most `max_degree`. The one record
/// decoder of AdjacencyFileScanner, which keeps the record-count and
/// edge-total checks, and of the sparse AdjacencyShardRecordReader.
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

/// Forward-only reader of one record stream: a SADJ file (Open) or one
/// shard of a sharded store (OpenShard). Rewind() restarts a SADJ scan
/// (and bumps IoStats::sequential_scans): this is the only iteration
/// primitive the semi-external algorithms get.
class AdjacencyFileScanner {
 public:
  /// `stats` may be null.
  explicit AdjacencyFileScanner(IoStats* stats = nullptr);

  /// Opens the file and parses/validates the header: a vertex count past
  /// kMaxAdjacencyVertices is Corruption, before anything is sized from
  /// it. Counts one sequential scan.
  Status Open(const std::string& path);

  /// Opens shard `index` of the store rooted at `manifest_path`,
  /// validating the index and the shard header against `manifest`. The
  /// record and edge totals are the shard's manifest entry; the id bound,
  /// max_degree and header() are the store's. Counts no scan: a scan of a
  /// store is one pass over every shard, counted by whoever makes it.
  /// Defined with the shard format in sharded_adjacency_file.cc.
  Status OpenShard(const std::string& manifest_path,
                   const ShardedAdjacencyManifest& manifest, uint32_t index);

  /// Header of the open file (of the store, for a shard).
  const AdjacencyFileHeader& header() const { return header_; }

  /// Reads the next record (the view API, so generic scan code such as
  /// RunGreedyScan and the degree sort runs unchanged over this scanner
  /// and the manifest-order cursor) and counts it in
  /// IoStats::records_decoded. `view->neighbors` points into a
  /// scanner-owned buffer until the next call, with the record's id and
  /// degree words right in front of it (see AdjacencyRecordDecoder).
  /// `*has_next` is false after the last record (in which case `view` is
  /// untouched). A truncated stream, trailing bytes, or an edge count
  /// other than the declared total is Corruption naming the file.
  Status Next(VertexRecordView* view, bool* has_next);

  /// True when a next record exists and already lies whole in the read
  /// buffer, so Next neither refills the buffer nor moves earlier views'
  /// bytes: views of consecutive buffered records are consecutive bytes.
  bool NextIsBuffered() const {
    return records_seen_ < num_records_ &&
           AdjacencyRecordDecoder::NextIsBuffered(reader_);
  }

  /// Restarts the scan of a SADJ file from the first record. Counts a
  /// sequential scan.
  Status Rewind();

  /// Closes the underlying file without waiting for the destructor. Used
  /// by callers (e.g. MisEngine's header probe before the shard split)
  /// that must not keep the file handle open across a long downstream
  /// stage. Safe to call twice.
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
  // The stream's declared totals: the SADJ header's, or the shard's
  // manifest entry.
  uint64_t num_records_ = 0;
  uint64_t num_edges_ = 0;
  uint64_t records_seen_ = 0;
  uint64_t edges_seen_ = 0;
};

}  // namespace semis

#endif  // SEMIS_GRAPH_ADJACENCY_FILE_H_
