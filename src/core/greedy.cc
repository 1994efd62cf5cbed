#include "core/greedy.h"

#include <utility>

#include "graph/adjacency_file.h"
#include "util/timer.h"

namespace semis {

Status RunGreedyScan(AdjacencyFileScanner* scanner, const std::string& path,
                     const GreedyOptions& options, AlgoResult* res,
                     std::vector<VState>* states) {
  if (options.require_degree_sorted && !scanner->header().IsDegreeSorted()) {
    return Status::InvalidArgument(
        "greedy requires a degree-sorted adjacency file: " + path);
  }
  // One sequential scan in file order; the state array is the
  // algorithm's entire memory footprint, 1 byte per vertex.
  const uint64_t n = scanner->header().num_vertices;
  std::vector<VState> state(n, VState::kInitial);
  res->memory.Add("state", n * sizeof(VState));
  VertexRecordView rec;
  bool has_next = false;
  while (true) {
    SEMIS_RETURN_IF_ERROR(scanner->Next(&rec, &has_next));
    if (!has_next) break;
    GreedyCommitRecord(rec, &state);
  }
  SEMIS_RETURN_IF_ERROR(scanner->Close());
  ExtractIndependentSet(state, &res->in_set, &res->set_size);
  res->memory.Add("result-bitset", res->in_set.MemoryBytes());
  res->peak_memory_bytes = res->memory.PeakBytes();
  if (states != nullptr) *states = std::move(state);
  return Status::OK();
}

Status RunGreedyWithStates(const std::string& path,
                           const GreedyOptions& options, AlgoResult* result,
                           std::vector<VState>* states) {
  WallTimer timer;
  AlgoResult res;
  AdjacencyFileScanner scanner(&res.io);
  SEMIS_RETURN_IF_ERROR(scanner.Open(path));
  SEMIS_RETURN_IF_ERROR(RunGreedyScan(&scanner, path, options, &res, states));
  res.seconds = timer.ElapsedSeconds();
  *result = std::move(res);
  return Status::OK();
}

Status RunGreedy(const std::string& path, const GreedyOptions& options,
                 AlgoResult* result) {
  return RunGreedyWithStates(path, options, result, nullptr);
}

}  // namespace semis
