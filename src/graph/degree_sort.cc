#include "graph/degree_sort.h"

#include <cstring>
#include <limits>

#include "graph/sharded_adjacency_file.h"

namespace semis {

namespace {

// offset_ entry of a vertex whose record has not been read.
constexpr uint32_t kUnplaced = std::numeric_limits<uint32_t>::max();

constexpr char kPlacementCategory[] = "sort-placement";

ExternalSorterOptions SorterOptions(const DegreeSortOptions& options) {
  ExternalSorterOptions sorter_opts;
  sorter_opts.memory_budget_bytes = options.memory_budget_bytes;
  sorter_opts.fan_in = options.fan_in;
  sorter_opts.stats = options.stats;
  sorter_opts.memory = options.memory;
  return sorter_opts;
}

}  // namespace

DegreeSorter::DegreeSorter(const DegreeSortOptions& options)
    : options_(options), sorter_(SorterOptions(options)) {}

uint64_t DegreeSorter::PlacementBytes(uint64_t num_vertices,
                                      uint64_t num_directed_edges,
                                      uint32_t max_degree) {
  return 2 * sizeof(uint32_t) * num_vertices +
         sizeof(VertexId) * num_directed_edges +
         2 * sizeof(uint32_t) * num_vertices +
         sizeof(uint32_t) * (uint64_t{max_degree} + 1);
}

Status DegreeSorter::Begin(const AdjacencyFileHeader& header) {
  if (begun_) {
    return Status::InvalidArgument("DegreeSorter reads one input");
  }
  begun_ = true;
  // A bad knob fails the same way whichever regime the input lands in.
  SEMIS_RETURN_IF_ERROR(sorter_.ValidateOptions());
  // Word offsets are u32, with kUnplaced reserved. Bounding both totals
  // first keeps the sums below from wrapping on a corrupt header, which
  // the merge regime then rejects when the records run out.
  if (header.num_vertices >= kUnplaced ||
      header.num_directed_edges >= kUnplaced) {
    return Status::OK();
  }
  const uint64_t words = 2 * header.num_vertices + header.num_directed_edges;
  const uint64_t footprint = PlacementBytes(
      header.num_vertices, header.num_directed_edges, header.max_degree);
  placement_ =
      words < kUnplaced && footprint <= options_.memory_budget_bytes;
  if (!placement_) return Status::OK();
  charged_bytes_ = footprint;
  if (options_.memory != nullptr) {
    options_.memory->Add(kPlacementCategory, charged_bytes_);
  }
  // Sized from the declared totals: the buffer never grows, and a record
  // past them is Corruption (Place).
  words_.reset(new uint32_t[words]);
  words_capacity_ = words;
  words_used_ = 0;
  offset_.assign(header.num_vertices, kUnplaced);
  count_.assign(uint64_t{header.max_degree} + 1, 0);
  return Status::OK();
}

Status DegreeSorter::Add(const VertexRecordView& rec) {
  // Key = (degree << 32) | id: ascending degree, ties by id. The id rides
  // in the key's low bits so the payload is just the neighbor list.
  const uint64_t key = (static_cast<uint64_t>(rec.degree) << 32) | rec.id;
  return sorter_.Add(key, rec.neighbors, rec.degree);
}

Status DegreeSorter::Place(const VertexRecordView& rec,
                           const std::string& path) {
  if (rec.id >= offset_.size() || rec.degree >= count_.size() ||
      words_used_ + 2 + rec.degree > words_capacity_) {
    return Status::Corruption("record of vertex " + std::to_string(rec.id) +
                              " exceeds the declared totals of '" + path +
                              "'");
  }
  if (offset_[rec.id] != kUnplaced) {
    return Status::Corruption("vertex id " + std::to_string(rec.id) +
                              " appears twice in '" + path + "'");
  }
  offset_[rec.id] = static_cast<uint32_t>(words_used_);
  count_[rec.degree]++;
  uint32_t* dst = words_.get() + words_used_;
  dst[0] = rec.id;
  dst[1] = rec.degree;
  if (rec.degree > 0) {
    std::memcpy(dst + 2, rec.neighbors, sizeof(VertexId) * rec.degree);
  }
  words_used_ += 2 + uint64_t{rec.degree};
  return Status::OK();
}

Status DegreeSorter::SlotOrder(std::vector<uint32_t>* order) {
  if (words_ == nullptr) {
    return Status::InvalidArgument("DegreeSorter writes its output once");
  }
  // count_[d] becomes the first slot of degree d; a vertex's slot is that
  // plus its rank among the degree-d vertices in id order, which the loop
  // over ids hands out.
  uint32_t slot = 0;
  for (uint32_t& c : count_) {
    const uint32_t n = c;
    c = slot;
    slot += n;
  }
  order->resize(offset_.size());
  for (size_t v = 0; v < offset_.size(); ++v) {
    if (v + kGatherAhead < offset_.size() &&
        offset_[v + kGatherAhead] != kUnplaced) {
      __builtin_prefetch(words_.get() + offset_[v + kGatherAhead] + 1);
    }
    const uint32_t offset = offset_[v];
    if (offset == kUnplaced) {
      return Status::Corruption("vertex id " + std::to_string(v) +
                                " has no record");
    }
    (*order)[count_[words_[offset + 1]]++] = offset;
  }
  return Status::OK();
}

void DegreeSorter::ReleasePlacement() {
  words_.reset();
  offset_ = {};
  count_ = {};
  if (options_.memory != nullptr) {
    options_.memory->Sub(kPlacementCategory, charged_bytes_);
  }
  charged_bytes_ = 0;
}

Status DegreeSorter::Next(VertexRecordView* rec, bool* has_next) {
  uint64_t key = 0;
  *has_next = sorter_.Next(&key, &neighbors_);
  if (!*has_next) return sorter_.status();
  const auto degree = static_cast<uint32_t>(key >> 32);
  if (degree != neighbors_.size()) {
    return Status::Corruption("degree/payload mismatch during degree sort");
  }
  *rec = VertexRecordView{static_cast<VertexId>(key & 0xFFFFFFFFull), degree,
                          neighbors_.data()};
  return Status::OK();
}

Status BuildDegreeSortedAdjacencyFile(const std::string& input_path,
                                      const std::string& output_path,
                                      const DegreeSortOptions& options) {
  AdjacencyFileScanner scanner(options.stats);
  SEMIS_RETURN_IF_ERROR(scanner.Open(input_path));
  DegreeSorter sorter(options);
  SEMIS_RETURN_IF_ERROR(sorter.AddAll(&scanner));
  const AdjacencyFileHeader& h = scanner.header();
  AdjacencyFileWriter writer(options.stats);
  SEMIS_RETURN_IF_ERROR(writer.Open(output_path, h.num_vertices,
                                    h.num_directed_edges, h.max_degree,
                                    h.flags | kAdjFlagDegreeSorted));
  SEMIS_RETURN_IF_ERROR(sorter.WriteTo(&writer));
  return writer.Finish();
}

Status BuildDegreeSortedShardStore(AdjacencyFileScanner* input,
                                   const std::string& manifest_path,
                                   uint32_t num_shards,
                                   const DegreeSortOptions& options) {
  DegreeSorter sorter(options);
  SEMIS_RETURN_IF_ERROR(sorter.AddAll(input));
  const AdjacencyFileHeader& h = input->header();
  ShardedAdjacencyFileWriter writer(options.stats);
  SEMIS_RETURN_IF_ERROR(writer.Open(manifest_path, h.num_vertices,
                                    h.num_directed_edges, h.max_degree,
                                    h.flags | kAdjFlagDegreeSorted,
                                    num_shards));
  SEMIS_RETURN_IF_ERROR(sorter.WriteTo(&writer));
  return writer.Finish();
}

}  // namespace semis
