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
// under their own header, and the scanner reads them too: a whole store
// in manifest order, one shard, a record range, or record by record from
// checkpoints, always forward.
#ifndef SEMIS_GRAPH_ADJACENCY_FILE_H_
#define SEMIS_GRAPH_ADJACENCY_FILE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "io/file.h"
#include "io/io_stats.h"
#include "util/bit_vector.h"
#include "util/common.h"
#include "util/status.h"

namespace semis {

struct ShardRecordRange;

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

/// Per-shard totals recorded in a sharded store's manifest (the format
/// is in graph/sharded_adjacency_file.h).
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
/// the reader's buffer and stays valid until the reader moves on.
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
/// `num_vertices`, the degree at most `max_degree`. Only
/// AdjacencyFileScanner uses it, so every record also passes the
/// scanner's stream checks.
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

  /// Steps over the next record: reads its two header words, which pass
  /// Decode's id and degree checks, and skips its neighbor words, which
  /// are not charged (SequentialFileReader::Skip). `*record_bytes`
  /// receives the record's encoded size.
  Status SkipRecord(SequentialFileReader* reader, uint64_t* record_bytes);

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

/// Read buffer of a scanner whose opener does not size it: one fill
/// reads 1 MiB.
inline constexpr size_t kScanBufferBytes = size_t{1} << 20;

/// Forward-only reader of a record stream, and the one reader that
/// decodes records: a SADJ file (Open), a whole sharded store in manifest
/// order (OpenStore), one shard of a store (OpenShard), or a
/// ShardRecordRange of one shard (OpenShard with a range). Rewind()
/// restarts a SADJ scan (and bumps IoStats::sequential_scans): this is
/// the only iteration primitive the semi-external algorithms get. SkipTo
/// moves the read position forward from a checkpoint, so records far
/// apart are read without reading the bytes between them.
///
/// Every stream ends at a byte its opener knows: for a SADJ file or a
/// whole shard, the one its record and edge totals give (the header's,
/// or the shard's manifest entry); for a range, the range's end offset.
/// Its records must end exactly there, and a record that would run past
/// it is Corruption before Next hands it out. A stream that ends its
/// file (a SADJ file, a whole shard, a shard's last range) must be
/// followed by no byte. A store scan is one such stream per shard, back
/// to back. After any error, every later Next and SkipTo returns it until
/// the scanner is reopened.
class AdjacencyFileScanner {
 public:
  /// `stats` may be null. `buffer_bytes` sizes the read buffer, as in
  /// SequentialFileReader.
  explicit AdjacencyFileScanner(IoStats* stats = nullptr,
                                size_t buffer_bytes = kScanBufferBytes);

  /// Opens the file and parses/validates the header: a vertex count past
  /// kMaxAdjacencyVertices is Corruption, before anything is sized from
  /// it. Counts one sequential scan.
  Status Open(const std::string& path);

  /// Opens the store rooted at `root` (a SEPR root pointer or a SADM
  /// manifest, resolved by ReadShardStoreManifest) for one scan of every
  /// record in manifest order, the record stream of the equivalent SADJ
  /// file. Counts the manifest read and one sequential scan; shard bytes
  /// are charged as they are read. header() is the store's and path() the
  /// resolved manifest's; an error inside a shard names the shard file.
  /// A shard is opened only when the scan reaches it: when the previous
  /// shard's stream ended and passed its end checks, Next opens the next
  /// shard, crossing empty ones. An error stops the scan in its shard,
  /// after every record before it was handed out, and latches. A store
  /// scan does not rewind: Rewind is InvalidArgument. Defined with the
  /// shard format in sharded_adjacency_file.cc.
  Status OpenStore(const std::string& root);

  /// Opens shard `index` of the store rooted at `manifest_path`,
  /// validating the index and the shard header against `manifest`. The
  /// record and edge totals are the shard's manifest entry; the id bound,
  /// max_degree and header() are the store's. Counts no scan: a scan of a
  /// store is one pass over every shard, counted by whoever makes it.
  /// The shard opens are defined with the shard format in
  /// sharded_adjacency_file.cc.
  Status OpenShard(const std::string& manifest_path,
                   const ShardedAdjacencyManifest& manifest, uint32_t index);

  /// Opens `range` of shard `index`, as OpenShard opens the whole shard:
  /// at record 0 it reads and checks the shard header, anywhere else it
  /// skips to the range's begin offset, and those bytes are not charged.
  /// A range that lies outside the shard (its manifest entry) is
  /// InvalidArgument. Counts no scan.
  Status OpenShard(const std::string& manifest_path,
                   const ShardedAdjacencyManifest& manifest, uint32_t index,
                   const ShardRecordRange& range);

  /// Header of the open file (of the store, for a store or a shard).
  const AdjacencyFileHeader& header() const { return header_; }

  /// Reads the next record and counts it in IoStats::records_decoded.
  /// `view->neighbors` points into a scanner-owned buffer until the next
  /// call, with the record's id and degree words right in front of it
  /// (see AdjacencyRecordDecoder). `*has_next` is false after the
  /// stream's last record (in which case `view` is untouched). A
  /// truncated stream, trailing bytes, or records that do not end at the
  /// stream's end byte are Corruption naming the file.
  Status Next(VertexRecordView* view, bool* has_next);

  /// Moves the read position forward to record `record` of the shard or
  /// file, which the next Next reads. `checkpoint_offset` is the byte
  /// offset of record `checkpoint_record` <= `record`, as a scan found
  /// it; the scanner skips there when it lies ahead of the read position,
  /// then steps over the records in between, reading only their 8-byte
  /// headers, which pass Decode's id and degree checks. The skipped
  /// bytes are not charged, the stepped headers are (8 B each), and no
  /// record counts as decoded. InvalidArgument
  /// when `record` lies behind the read position or past the stream;
  /// Corruption when the checkpoint lies ahead in records but behind in
  /// bytes.
  Status SkipTo(uint64_t record, uint64_t checkpoint_record,
                uint64_t checkpoint_offset);

  /// Latches `error`, which is not OK, as if the scanner had returned it:
  /// for a check the caller makes on a record Next handed out. Every
  /// later Next and SkipTo returns it until the scanner is reopened.
  /// Returns `error`.
  Status Fail(Status error);

  /// True when a next record exists and already lies whole in the read
  /// buffer, so Next neither refills the buffer nor moves earlier views'
  /// bytes: views of consecutive buffered records are consecutive bytes.
  bool NextIsBuffered() const {
    return next_record_ < end_record_ &&
           AdjacencyRecordDecoder::NextIsBuffered(reader_);
  }

  /// Restarts the scan of a SADJ file from the first record. Counts a
  /// sequential scan. InvalidArgument on a store scan.
  Status Rewind();

  /// Closes the underlying file without waiting for the destructor. Used
  /// by callers (e.g. MisEngine's header probe before the shard split)
  /// that must not keep the file handle open across a long downstream
  /// stage. Safe to call twice.
  Status Close();

  /// Path of the open file, or the resolved manifest of a store scan.
  const std::string& path() const {
    return store_path_.empty() ? path_ : store_path_;
  }

 private:
  // OpenShard without ending a store scan: a store scan opens its shards
  // with it.
  Status StartShard(const std::string& manifest_path,
                    const ShardedAdjacencyManifest& manifest, uint32_t index,
                    const ShardRecordRange& range);
  // Drops a store scan's state, so the stream opened next is the last.
  void LeaveStore();
  // Store scan: closes the shard that ended and opens the next one.
  Status OpenNextStoreShard();
  Status ReadHeader();
  // Corruption when a stream declares more edges than a file can hold,
  // which would wrap its end byte past 2^64.
  Status CheckEdgeTotal(uint64_t edges) const;
  // Starts a stream of records [first_record, end_record) at bytes
  // [begin_offset, end_offset), reading from its first record.
  void StartStream(uint64_t first_record, uint64_t end_record,
                   uint64_t begin_offset, uint64_t end_offset,
                   bool ends_file);
  // Next at the stream's end: the end checks, or the latched error; in a
  // store scan, then the next shard's first record.
  Status End(VertexRecordView* view, bool* has_next);
  // The stream and the read position, for error messages.
  std::string Where() const;
  Status StepTo(uint64_t record, uint64_t checkpoint_record,
                uint64_t checkpoint_offset);

  IoStats* stats_;
  SequentialFileReader reader_;
  AdjacencyFileHeader header_;
  std::string path_;
  AdjacencyRecordDecoder decoder_;
  // The stream: records [first_record_, end_record_), ending at byte
  // end_offset_, the file's last byte when ends_file_. Fail sets
  // end_record_ to the read position, so Next's end test, which every
  // call makes anyway, routes every later call to error_.
  uint64_t first_record_ = 0;
  uint64_t end_record_ = 0;
  uint64_t end_offset_ = 0;
  bool ends_file_ = true;
  // The read position: index and byte offset of the next record.
  uint64_t next_record_ = 0;
  uint64_t offset_ = 0;
  Status error_;
  // A store scan: the resolved manifest path, which path() returns, the
  // manifest, and the shard to open when the open one ends. Every other
  // opener leaves the manifest without shards, so its stream is the last.
  std::string store_path_;
  ShardedAdjacencyManifest store_;
  uint32_t next_store_shard_ = 0;
};

}  // namespace semis

#endif  // SEMIS_GRAPH_ADJACENCY_FILE_H_
