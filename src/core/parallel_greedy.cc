#include "core/parallel_greedy.h"

#include <utility>

#include "graph/adjacency_file.h"
#include "util/timer.h"

namespace semis {

Status RunParallelGreedyWithStates(const std::string& manifest_path,
                                   const ParallelGreedyOptions& options,
                                   AlgoResult* result,
                                   std::vector<VState>* states) {
  WallTimer timer;
  AlgoResult res;
  AdjacencyFileScanner scanner(&res.io);
  SEMIS_RETURN_IF_ERROR(scanner.OpenStore(manifest_path));
  SEMIS_RETURN_IF_ERROR(
      RunGreedyScan(&scanner, manifest_path, options.greedy, &res, states));
  res.seconds = timer.ElapsedSeconds();
  *result = std::move(res);
  return Status::OK();
}

Status RunParallelGreedy(const std::string& manifest_path,
                         const ParallelGreedyOptions& options,
                         AlgoResult* result) {
  return RunParallelGreedyWithStates(manifest_path, options, result, nullptr);
}

}  // namespace semis
