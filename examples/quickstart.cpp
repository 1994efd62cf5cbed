// Quickstart: the 60-second tour of the semis public API.
//
//   1. generate (or load) a graph and write it to an adjacency file,
//   2. open a MisEngine on the file (the engine solves at Open),
//   3. read back a large maximal independent set + the run's statistics.
//
// The engine is semi-external: it reads the graph from disk, so an
// in-memory graph goes through a file in a scratch directory first.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <string>

#include "core/engine.h"
#include "gen/plrg.h"
#include "graph/graph_io.h"
#include "io/scratch.h"
#include "util/memory_tracker.h"

int main() {
  using namespace semis;

  // A power-law random graph standing in for a small social network.
  PlrgSpec spec = PlrgSpec::ForVerticesAndAvgDegree(/*num_vertices=*/100000,
                                                    /*avg_degree=*/6.0);
  Graph graph = GeneratePlrg(spec, /*seed=*/42);
  std::printf("graph: %u vertices, %llu edges (avg degree %.2f)\n",
              graph.NumVertices(),
              static_cast<unsigned long long>(graph.NumEdges()),
              graph.AverageDegree());

  // Default pipeline = the paper's best configuration:
  // degree-sort preprocessing + greedy + two-k-swap.
  MisEngineOptions options;
  options.verify = true;  // paranoid re-scan at the end

  ScratchDir scratch;
  Status status = ScratchDir::Create("semis-quickstart", &scratch);
  const std::string path = scratch.NewFilePath("graph.adj");
  if (status.ok()) status = WriteGraphToAdjacencyFile(graph, path);
  MisEngine engine(options);
  if (status.ok()) status = engine.Open(path);
  if (!status.ok()) {
    std::fprintf(stderr, "solve failed: %s\n", status.ToString().c_str());
    return 1;
  }
  const SolveResult& result = engine.open_result();

  std::printf("independent set: %llu vertices\n",
              static_cast<unsigned long long>(result.set_size));
  std::printf("  greedy stage : %llu\n",
              static_cast<unsigned long long>(result.greedy.set_size));
  std::printf("  after two-k  : %llu (+%llu from swaps, %llu rounds)\n",
              static_cast<unsigned long long>(result.set_size),
              static_cast<unsigned long long>(result.set_size -
                                              result.greedy.set_size),
              static_cast<unsigned long long>(result.swap.rounds));
  std::printf("  peak memory  : %s (the graph itself stayed on disk)\n",
              MemoryTracker::FormatBytes(result.peak_memory_bytes).c_str());
  std::printf("  I/O          : %llu sequential scans, %.1f MB read\n",
              static_cast<unsigned long long>(result.io.sequential_scans),
              static_cast<double>(result.io.bytes_read) / (1 << 20));
  std::printf("  wall time    : %.2fs (incl. %.2fs preprocessing sort)\n",
              result.seconds, result.sort_seconds);

  // Membership is a bit per vertex id:
  int shown = 0;
  std::printf("first members:");
  for (VertexId v = 0; v < graph.NumVertices() && shown < 8; ++v) {
    if (result.set.Test(v)) {
      std::printf(" %u", v);
      shown++;
    }
  }
  std::printf(" ...\n");
  return 0;
}
