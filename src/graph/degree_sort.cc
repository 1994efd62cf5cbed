#include "graph/degree_sort.h"

#include "graph/adjacency_file.h"

namespace semis {

namespace {

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
    : sorter_(SorterOptions(options)) {}

Status DegreeSorter::Add(const VertexRecordView& rec) {
  // Key = (degree << 32) | id: ascending degree, ties by id. The id rides
  // in the key's low bits so the payload is just the neighbor list.
  const uint64_t key = (static_cast<uint64_t>(rec.degree) << 32) | rec.id;
  return sorter_.Add(key, rec.neighbors, rec.degree);
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

}  // namespace semis
