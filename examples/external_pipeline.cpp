// The full semi-external pipeline on raw data, end to end:
//
//   SNAP-style text edge list  --(external sort)-->  adjacency file
//       --(external degree sort)-->  degree-sorted file
//       --(greedy + two-k-swap)-->  independent set
//
// Everything runs with bounded main memory: the edge list is converted
// without ever materializing the graph, and the engine holds O(|V|)
// bytes. This is the workflow for a graph that does NOT fit in RAM --
// the paper's motivating scenario.
#include <cstdio>

#include "core/engine.h"
#include "gen/plrg.h"
#include "graph/graph_io.h"
#include "io/scratch.h"
#include "util/memory_tracker.h"
#include "util/timer.h"

int main() {
  using namespace semis;
  ScratchDir scratch;
  if (!ScratchDir::Create("semis-pipeline", &scratch).ok()) return 1;

  // Step 0: fabricate the "downloaded" dataset: a text edge list, the
  // format SNAP and WebGraph dumps ship in.
  std::printf("[0] synthesizing a text edge list...\n");
  std::string edge_list = scratch.NewFilePath("edges.txt");
  {
    Graph g = GeneratePlrg(PlrgSpec::ForVerticesAndAvgDegree(300000, 7.0), 5);
    if (!WriteEdgeListText(g, edge_list).ok()) return 1;
    uint64_t size = 0;
    GetFileSize(edge_list, &size).IgnoreError();  // display only
    std::printf("    %u vertices, %llu edges, %.1f MB of text\n",
                g.NumVertices(),
                static_cast<unsigned long long>(g.NumEdges()),
                static_cast<double>(size) / (1 << 20));
  }

  // Step 1: external conversion (degree counting pass + edge sort).
  std::printf("[1] converting to the SADJ adjacency format "
              "(external sort, 16MB budget)...\n");
  std::string adjacency = scratch.NewFilePath("graph.adj");
  IoStats convert_io;
  EdgeListConvertOptions convert_opts;
  convert_opts.memory_budget_bytes = 16u << 20;
  convert_opts.stats = &convert_io;
  WallTimer convert_timer;
  Status s = ConvertEdgeListToAdjacencyFile(edge_list, adjacency,
                                            convert_opts);
  if (!s.ok()) {
    std::fprintf(stderr, "convert failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("    %.2fs, %.1f MB written, %llu sort passes\n",
              convert_timer.ElapsedSeconds(),
              static_cast<double>(convert_io.bytes_written) / (1 << 20),
              static_cast<unsigned long long>(convert_io.sort_passes));

  // Step 2+3: opening a MisEngine on the file runs the degree sort, the
  // greedy scan and the two-k swaps, all against the on-disk file.
  std::printf("[2] degree sort + greedy + two-k-swap (16MB sort budget)...\n");
  MisEngineOptions options;
  options.sort_memory_budget_bytes = 16u << 20;
  options.verify = true;
  MisEngine engine(options);
  s = engine.Open(adjacency);
  if (!s.ok()) {
    std::fprintf(stderr, "solve failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const SolveResult& result = engine.open_result();

  uint64_t disk = 0;
  GetFileSize(adjacency, &disk).IgnoreError();  // display only
  std::printf("\nresults\n");
  std::printf("  independent set     : %llu vertices\n",
              static_cast<unsigned long long>(result.set_size));
  std::printf("  greedy -> +swaps    : %llu -> %llu (%llu rounds)\n",
              static_cast<unsigned long long>(result.greedy.set_size),
              static_cast<unsigned long long>(result.set_size),
              static_cast<unsigned long long>(result.swap.rounds));
  std::printf("  graph on disk       : %s\n",
              MemoryTracker::FormatBytes(disk).c_str());
  std::printf("  peak algorithm RAM  : %s  (%.1f%% of the graph)\n",
              MemoryTracker::FormatBytes(result.peak_memory_bytes).c_str(),
              100.0 * static_cast<double>(result.peak_memory_bytes) /
                  static_cast<double>(disk));
  std::printf("  sequential scans    : %llu (never a random disk access)\n",
              static_cast<unsigned long long>(result.io.sequential_scans));
  std::printf("  total wall time     : %.2fs\n", result.seconds);
  return 0;
}
