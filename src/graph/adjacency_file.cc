#include "graph/adjacency_file.h"

#include <algorithm>

namespace semis {

namespace {
constexpr uint32_t kMagic = 0x4A444153u;  // 'SADJ' little-endian
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderBytes = 2 * sizeof(uint32_t);  // of a record
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

AdjacencyFileScanner::AdjacencyFileScanner(IoStats* stats)
    : stats_(stats), reader_(stats) {}

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
  num_records_ = header_.num_vertices;
  num_edges_ = header_.num_directed_edges;
  records_seen_ = 0;
  edges_seen_ = 0;
  decoder_.Reset(path_, header_.num_vertices, header_.max_degree);
  return Status::OK();
}

Status AdjacencyFileScanner::Open(const std::string& path) {
  path_ = path;
  SEMIS_RETURN_IF_ERROR(reader_.Open(path));
  if (stats_ != nullptr) stats_->sequential_scans++;
  return ReadHeader();
}

Status AdjacencyFileScanner::Close() { return reader_.Close(); }

Status AdjacencyFileScanner::Rewind() {
  SEMIS_RETURN_IF_ERROR(reader_.Close());
  SEMIS_RETURN_IF_ERROR(reader_.Open(path_));
  if (stats_ != nullptr) stats_->sequential_scans++;
  return ReadHeader();
}

Status AdjacencyFileScanner::Next(VertexRecordView* view, bool* has_next) {
  if (records_seen_ == num_records_) {
    if (!reader_.AtEof()) {
      return Status::Corruption("trailing bytes after last record in '" +
                                path_ + "'");
    }
    if (edges_seen_ != num_edges_) {
      return Status::Corruption(
          "edge count mismatch in '" + path_ + "': declared " +
          std::to_string(num_edges_) + ", read " +
          std::to_string(edges_seen_));
    }
    *has_next = false;
    return Status::OK();
  }
  if (reader_.AtEof()) {
    return Status::Corruption(
        "'" + path_ + "' truncated: expected " +
        std::to_string(num_records_) + " records, found " +
        std::to_string(records_seen_));
  }
  SEMIS_RETURN_IF_ERROR(decoder_.Decode(&reader_, view));
  records_seen_++;
  edges_seen_ += view->degree;
  if (edges_seen_ > num_edges_) {
    return Status::Corruption("more edges than declared in '" + path_ + "'");
  }
  if (stats_ != nullptr) stats_->records_decoded++;
  *has_next = true;
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
