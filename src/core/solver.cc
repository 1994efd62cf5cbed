#include "core/solver.h"

#include "graph/graph_io.h"
#include "io/scratch.h"

namespace semis {

// A one-shot engine session: Open runs the full stage pipeline and the
// result is copied out before the engine -- and its scratch
// intermediates -- are torn down.

Status Solver::SolveFile(const std::string& adjacency_path,
                         SolveResult* result) {
  MisEngine engine(options_);
  SEMIS_RETURN_IF_ERROR(engine.Open(adjacency_path));
  *result = engine.open_result();
  return Status::OK();
}

Status Solver::SolveGraph(const Graph& graph, SolveResult* result) {
  ScratchDir scratch;
  SEMIS_RETURN_IF_ERROR(ScratchDir::Create("semis-solveg", &scratch));
  std::string path = scratch.NewFilePath("graph.adj");
  SEMIS_RETURN_IF_ERROR(WriteGraphToAdjacencyFile(graph, path));
  return SolveFile(path, result);
}

}  // namespace semis
