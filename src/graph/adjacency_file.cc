#include "graph/adjacency_file.h"

#include <algorithm>
#include <utility>

namespace semis {

namespace {
constexpr uint32_t kMagic = 0x4A444153u;  // 'SADJ' little-endian
constexpr uint32_t kVersion = 1;
constexpr uint64_t kFileHeaderBytes = 32;
constexpr size_t kHeaderBytes = 2 * sizeof(uint32_t);  // of a record
// Past this many edges a stream's end byte could pass 2^64: 8 B per
// record (at most 2^32 records) plus 4 B per edge stays below it.
constexpr uint64_t kMaxStreamEdges = uint64_t{1} << 61;
}  // namespace

AdjacencyFileWriter::AdjacencyFileWriter(IoStats* stats) : writer_(stats) {}

Status AdjacencyFileWriter::Open(const std::string& path,
                                 uint64_t num_vertices,
                                 uint64_t num_directed_edges,
                                 uint32_t max_degree, uint32_t flags) {
  if (num_vertices > kMaxAdjacencyVertices) {
    return Status::InvalidArgument("vertex count " +
                                   std::to_string(num_vertices) +
                                   " exceeds the 32-bit id space");
  }
  SEMIS_RETURN_IF_ERROR(writer_.Open(path));
  declared_vertices_ = num_vertices;
  declared_directed_edges_ = num_directed_edges;
  declared_max_degree_ = max_degree;
  appended_vertices_ = 0;
  appended_edges_ = 0;
  seen_ = BitVector(num_vertices);
  SEMIS_RETURN_IF_ERROR(writer_.AppendU32(kMagic));
  SEMIS_RETURN_IF_ERROR(writer_.AppendU32(kVersion));
  SEMIS_RETURN_IF_ERROR(writer_.AppendU64(num_vertices));
  SEMIS_RETURN_IF_ERROR(writer_.AppendU64(num_directed_edges));
  SEMIS_RETURN_IF_ERROR(writer_.AppendU32(flags));
  SEMIS_RETURN_IF_ERROR(writer_.AppendU32(max_degree));
  return Status::OK();
}

Status AdjacencyFileWriter::AppendVertex(VertexId id,
                                         const VertexId* neighbors,
                                         uint32_t degree) {
  if (id >= declared_vertices_) {
    return Status::InvalidArgument("vertex id " + std::to_string(id) +
                                   " out of range");
  }
  if (degree > declared_max_degree_) {
    return Status::InvalidArgument(
        "vertex degree exceeds declared max_degree");
  }
  if (seen_.Test(id)) {
    return Status::InvalidArgument("vertex id " + std::to_string(id) +
                                   " appended twice");
  }
  seen_.Set(id);
  SEMIS_RETURN_IF_ERROR(AppendAdjacencyRecord(&writer_, id, neighbors, degree));
  appended_vertices_++;
  appended_edges_ += degree;
  return Status::OK();
}

Status AppendAdjacencyRecord(SequentialFileWriter* writer, VertexId id,
                             const VertexId* neighbors, uint32_t degree) {
  const uint32_t head[2] = {id, degree};
  SEMIS_RETURN_IF_ERROR(writer->Append(head, sizeof(head)));
  if (degree == 0) return Status::OK();
  return writer->Append(neighbors, sizeof(VertexId) * degree);
}

Status AdjacencyFileWriter::Finish() {
  if (appended_vertices_ != declared_vertices_) {
    return Status::InvalidArgument(
        "vertex count mismatch: declared " +
        std::to_string(declared_vertices_) + ", appended " +
        std::to_string(appended_vertices_));
  }
  if (appended_edges_ != declared_directed_edges_) {
    return Status::InvalidArgument(
        "edge count mismatch: declared " +
        std::to_string(declared_directed_edges_) + ", appended " +
        std::to_string(appended_edges_));
  }
  return writer_.Close();
}

AdjacencyFileScanner::AdjacencyFileScanner(IoStats* stats,
                                           size_t buffer_bytes)
    : stats_(stats), reader_(stats, buffer_bytes) {}

Status AdjacencyFileScanner::ReadHeader() {
  uint32_t magic = 0, version = 0;
  SEMIS_RETURN_IF_ERROR(reader_.ReadU32(&magic));
  SEMIS_RETURN_IF_ERROR(reader_.ReadU32(&version));
  if (magic != kMagic) {
    return Status::Corruption("bad magic in '" + path_ +
                              "': not an adjacency file");
  }
  if (version != kVersion) {
    return Status::NotSupported("adjacency file version " +
                                std::to_string(version) + " not supported");
  }
  SEMIS_RETURN_IF_ERROR(reader_.ReadU64(&header_.num_vertices));
  SEMIS_RETURN_IF_ERROR(reader_.ReadU64(&header_.num_directed_edges));
  SEMIS_RETURN_IF_ERROR(reader_.ReadU32(&header_.flags));
  SEMIS_RETURN_IF_ERROR(reader_.ReadU32(&header_.max_degree));
  // Callers size per-vertex arrays from this count before they read a
  // record, so a count the writer would refuse stops here.
  if (header_.num_vertices > kMaxAdjacencyVertices) {
    return Status::Corruption(
        "'" + path_ + "' declares " + std::to_string(header_.num_vertices) +
        " vertices, past the 32-bit id space");
  }
  SEMIS_RETURN_IF_ERROR(CheckEdgeTotal(header_.num_directed_edges));
  decoder_.Reset(path_, header_.num_vertices, header_.max_degree);
  StartStream(0, header_.num_vertices, kFileHeaderBytes,
              kFileHeaderBytes +
                  AdjacencyRecordBytes(0) * header_.num_vertices +
                  sizeof(VertexId) * header_.num_directed_edges,
              /*ends_file=*/true);
  return Status::OK();
}

Status AdjacencyFileScanner::CheckEdgeTotal(uint64_t edges) const {
  if (edges > kMaxStreamEdges) {
    return Status::Corruption("'" + path_ + "' declares " +
                              std::to_string(edges) +
                              " edges, more than a file can hold");
  }
  return Status::OK();
}

void AdjacencyFileScanner::StartStream(uint64_t first_record,
                                       uint64_t end_record,
                                       uint64_t begin_offset,
                                       uint64_t end_offset, bool ends_file) {
  first_record_ = first_record;
  end_record_ = end_record;
  end_offset_ = end_offset;
  ends_file_ = ends_file;
  next_record_ = first_record;
  offset_ = begin_offset;
  error_ = Status::OK();
}

std::string AdjacencyFileScanner::Where() const {
  return "records " + std::to_string(first_record_) + ".." +
         std::to_string(end_record_) + " of '" + path_ + "' (end byte " +
         std::to_string(end_offset_) + "), at record " +
         std::to_string(next_record_) + ", byte " + std::to_string(offset_);
}

Status AdjacencyFileScanner::Fail(Status error) {
  error_ = error;
  end_record_ = next_record_;
  return error;
}

Status AdjacencyFileScanner::Open(const std::string& path) {
  path_ = path;
  Status s = reader_.Open(path);
  if (s.ok()) {
    if (stats_ != nullptr) stats_->sequential_scans++;
    s = ReadHeader();
  }
  return s.ok() ? s : Fail(std::move(s));
}

Status AdjacencyFileScanner::Close() { return reader_.Close(); }

Status AdjacencyFileScanner::Rewind() {
  Status s = reader_.Close();
  if (s.ok()) s = reader_.Open(path_);
  if (s.ok()) {
    if (stats_ != nullptr) stats_->sequential_scans++;
    s = ReadHeader();
  }
  return s.ok() ? s : Fail(std::move(s));
}

Status AdjacencyFileScanner::Next(VertexRecordView* view, bool* has_next) {
  if (next_record_ == end_record_) return End(has_next);
  if (reader_.AtEof()) return Fail(Status::Corruption("truncated " + Where()));
  Status decoded = decoder_.Decode(&reader_, view);
  if (!decoded.ok()) return Fail(std::move(decoded));
  offset_ += AdjacencyRecordBytes(view->degree);
  // Checked before the record is handed out, so a caller sizing its
  // output by the stream's bytes never writes past them.
  if (offset_ > end_offset_) {
    return Fail(Status::Corruption("record runs past the end of " + Where()));
  }
  next_record_++;
  if (stats_ != nullptr) stats_->records_decoded++;
  *has_next = true;
  return Status::OK();
}

Status AdjacencyFileScanner::End(bool* has_next) {
  if (!error_.ok()) return error_;
  if (offset_ != end_offset_) {
    return Fail(Status::Corruption("records end short of the end of " +
                                   Where()));
  }
  if (ends_file_ && !reader_.AtEof()) {
    return Fail(Status::Corruption("trailing bytes after the last of " +
                                   Where()));
  }
  *has_next = false;
  return Status::OK();
}

Status AdjacencyFileScanner::SkipTo(uint64_t record,
                                    uint64_t checkpoint_record,
                                    uint64_t checkpoint_offset) {
  // The read position is only known on the success path.
  if (!error_.ok()) return error_;
  Status s = StepTo(record, checkpoint_record, checkpoint_offset);
  return s.ok() ? s : Fail(std::move(s));
}

Status AdjacencyFileScanner::StepTo(uint64_t record,
                                    uint64_t checkpoint_record,
                                    uint64_t checkpoint_offset) {
  if (record >= end_record_ || checkpoint_record > record) {
    return Status::InvalidArgument("read of record " + std::to_string(record) +
                                   " out of range of " + Where());
  }
  if (record < next_record_) {
    return Status::InvalidArgument("read of record " + std::to_string(record) +
                                   " moves backwards in " + Where());
  }
  if (checkpoint_record > next_record_) {
    if (checkpoint_offset < offset_) {
      return Status::Corruption("checkpoint of record " +
                                std::to_string(checkpoint_record) +
                                " lies behind the read position in " +
                                Where());
    }
    SEMIS_RETURN_IF_ERROR(reader_.Skip(checkpoint_offset - offset_));
    next_record_ = checkpoint_record;
    offset_ = checkpoint_offset;
  }
  while (next_record_ < record) {
    uint64_t record_bytes = 0;
    SEMIS_RETURN_IF_ERROR(decoder_.SkipRecord(&reader_, &record_bytes));
    offset_ += record_bytes;
    next_record_++;
  }
  return Status::OK();
}

void AdjacencyRecordDecoder::Reset(const std::string& path,
                                   uint64_t num_vertices,
                                   uint32_t max_degree) {
  path_ = path;
  num_vertices_ = num_vertices;
  max_degree_ = max_degree;
}

Status AdjacencyRecordDecoder::CheckHeader(VertexId id,
                                           uint32_t degree) const {
  if (id >= num_vertices_) {
    return Status::Corruption("record id out of range in '" + path_ + "'");
  }
  if (degree > max_degree_) {
    return Status::Corruption("record degree exceeds header max_degree in '" +
                              path_ + "'");
  }
  return Status::OK();
}

Status AdjacencyRecordDecoder::CheckNeighbors(const VertexId* neighbors,
                                              uint32_t degree) const {
  // One branch per record on the hot path: fold the range test over the
  // list and only then look for the culprit.
  VertexId max_neighbor = 0;
  for (uint32_t i = 0; i < degree; ++i) {
    max_neighbor = std::max(max_neighbor, neighbors[i]);
  }
  if (degree > 0 && max_neighbor >= num_vertices_) {
    return Status::Corruption("neighbor id out of range in '" + path_ + "'");
  }
  return Status::OK();
}

Status AdjacencyRecordDecoder::SkipRecord(SequentialFileReader* reader,
                                          uint64_t* record_bytes) {
  uint32_t head[2] = {0, 0};
  SEMIS_RETURN_IF_ERROR(reader->ReadExact(head, sizeof(head)));
  SEMIS_RETURN_IF_ERROR(CheckHeader(head[0], head[1]));
  *record_bytes = AdjacencyRecordBytes(head[1]);
  return reader->Skip(sizeof(VertexId) * uint64_t{head[1]});
}

bool AdjacencyRecordDecoder::NextIsBuffered(
    const SequentialFileReader& reader) {
  size_t buffered = 0;
  const uint32_t* words = reader.PeekBuffered(&buffered);
  return buffered >= kHeaderBytes &&
         AdjacencyRecordBytes(words[1]) <= buffered;
}

Status AdjacencyRecordDecoder::Decode(SequentialFileReader* reader,
                                      VertexRecordView* view) {
  size_t buffered = 0;
  const uint32_t* words = reader->PeekBuffered(&buffered);
  VertexId id = 0;
  uint32_t degree = 0;
  if (buffered >= kHeaderBytes) {
    id = words[0];
    degree = words[1];
    SEMIS_RETURN_IF_ERROR(CheckHeader(id, degree));
    const uint64_t record_bytes = AdjacencyRecordBytes(degree);
    if (record_bytes <= buffered) {
      const VertexId* neighbors = words + 2;
      SEMIS_RETURN_IF_ERROR(CheckNeighbors(neighbors, degree));
      reader->ConsumeBuffered(static_cast<size_t>(record_bytes));
      *view = VertexRecordView{id, degree, neighbors};
      return Status::OK();
    }
    reader->ConsumeBuffered(kHeaderBytes);
  } else {
    SEMIS_RETURN_IF_ERROR(reader->ReadU32(&id));
    SEMIS_RETURN_IF_ERROR(reader->ReadU32(&degree));
    SEMIS_RETURN_IF_ERROR(CheckHeader(id, degree));
  }
  // The record crosses a buffer fill: read it into spill_, laid out as
  // in the file, header words first.
  spill_.resize(2 + uint64_t{degree});
  spill_[0] = id;
  spill_[1] = degree;
  VertexId* neighbors = spill_.data() + 2;
  if (degree > 0) {
    SEMIS_RETURN_IF_ERROR(
        reader->ReadExact(neighbors, sizeof(VertexId) * degree));
    SEMIS_RETURN_IF_ERROR(CheckNeighbors(neighbors, degree));
  }
  *view = VertexRecordView{id, degree, neighbors};
  return Status::OK();
}

}  // namespace semis
