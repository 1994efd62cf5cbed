#include "core/parallel_greedy.h"

#include <utility>

#include "graph/sharded_adjacency_file.h"
#include "util/timer.h"

namespace semis {

Status RunParallelGreedyWithStates(const std::string& manifest_path,
                                   const ParallelGreedyOptions& options,
                                   AlgoResult* result,
                                   std::vector<VState>* states) {
  WallTimer timer;
  AlgoResult res;

  ManifestOrderedShardCursor cursor(&res.io);
  SEMIS_RETURN_IF_ERROR(cursor.Open(manifest_path));
  std::vector<VState> state;
  SEMIS_RETURN_IF_ERROR(
      RunGreedyScan(&cursor, manifest_path, options.greedy, &res, &state));
  SEMIS_RETURN_IF_ERROR(cursor.Close());

  ExtractIndependentSet(state, &res.in_set, &res.set_size);
  res.memory.Add("result-bitset", res.in_set.MemoryBytes());
  res.peak_memory_bytes = res.memory.PeakBytes();
  res.seconds = timer.ElapsedSeconds();
  if (states != nullptr) *states = std::move(state);
  *result = std::move(res);
  return Status::OK();
}

Status RunParallelGreedy(const std::string& manifest_path,
                         const ParallelGreedyOptions& options,
                         AlgoResult* result) {
  return RunParallelGreedyWithStates(manifest_path, options, result, nullptr);
}

}  // namespace semis
