// Block-decode pipeline tour: open a sharded (SADJS) file with the
// manifest-ordered cursor and stream every record through the view API,
// then read back the ring's counters -- living documentation of the
// decode layer under the sequential commit scans (RunParallelGreedy and
// the full ShardedStreamingMis::Repair pass, which open the cursor
// without a pool at one thread; the swap and the rounds engine give each
// worker its own AdjacencyFileScanner instead).
//
//   1. generate a graph, degree-sort it, split it into shards,
//   2. drain ManifestOrderedShardCursor via VertexRecordView,
//   3. print records/sec, blocks decoded, arena + peak buffered bytes,
//      and the ring's bound, the figure the commit scans charge.
//
// The interesting part is what does NOT happen: no per-record allocation
// (decoders copy records into blocks that are recycled once drained, and
// each view points into its block) and no per-shard buffering (the
// ring's byte budget, not the largest shard, bounds memory).
//
// Build & run:  ./build/examples/block_decode_stats
#include <cstdio>

#include "gen/plrg.h"
#include "graph/degree_sort.h"
#include "graph/graph_io.h"
#include "graph/sharded_adjacency_file.h"
#include "io/scratch.h"
#include "util/memory_tracker.h"
#include "util/thread_pool.h"
#include "util/timer.h"

int main() {
  using namespace semis;

  ScratchDir scratch;
  Status status = ScratchDir::Create("semis-blockdemo", &scratch);
  if (!status.ok()) {
    std::fprintf(stderr, "scratch failed: %s\n", status.ToString().c_str());
    return 1;
  }

  // Graph -> monolithic SADJ -> degree-sorted -> 8 SADJS shards.
  Graph graph = GeneratePlrg(
      PlrgSpec::ForVerticesAndAvgDegree(/*num_vertices=*/200000,
                                        /*avg_degree=*/8.0),
      /*seed=*/7);
  const std::string mono = scratch.NewFilePath("graph.adj");
  const std::string sorted = scratch.NewFilePath("sorted.sadj");
  const std::string manifest = scratch.NewFilePath("sharded.sadjs");
  status = WriteGraphToAdjacencyFile(graph, mono);
  if (status.ok()) {
    status = BuildDegreeSortedAdjacencyFile(mono, sorted, DegreeSortOptions{});
  }
  if (status.ok()) status = ShardAdjacencyFile(sorted, manifest, 8);
  if (!status.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", status.ToString().c_str());
    return 1;
  }

  // Drain the cursor: decoder threads fill blocks ahead of this loop;
  // each view is a span into the current block -- read it, use it, move
  // on. Exactly what the commit scans of the executors do. The ring runs
  // at its defaults: 256 KiB blocks, a budget of 2 * (threads + 1) blocks.
  IoStats io;
  ThreadPool pool(/*num_threads=*/4);
  ManifestOrderedShardCursor cursor(&io);
  status = cursor.Open(manifest, &pool);
  if (!status.ok()) {
    std::fprintf(stderr, "open failed: %s\n", status.ToString().c_str());
    return 1;
  }

  WallTimer timer;
  uint64_t records = 0, neighbor_sum = 0;
  VertexRecordView view;
  bool has_next = false;
  while (true) {
    status = cursor.Next(&view, &has_next);
    if (!status.ok() || !has_next) break;
    records++;
    for (VertexId nb : view) neighbor_sum += nb;  // span iteration
  }
  const double seconds = timer.ElapsedSeconds();
  Status closed = cursor.Close();
  if (!status.ok() || !closed.ok()) {
    std::fprintf(stderr, "scan failed: %s\n",
                 (!status.ok() ? status : closed).ToString().c_str());
    return 1;
  }

  std::printf("drained %llu records / %llu directed edges in %.3fs\n",
              static_cast<unsigned long long>(records),
              static_cast<unsigned long long>(
                  cursor.header().num_directed_edges),
              seconds);
  std::printf("  throughput    : %.0f records/s\n",
              seconds > 0 ? static_cast<double>(records) / seconds : 0.0);
  std::printf("  blocks decoded: %llu\n",
              static_cast<unsigned long long>(io.blocks_decoded));
  std::printf("  arena bytes   : %s (blocks recycled once drained)\n",
              MemoryTracker::FormatBytes(io.arena_bytes).c_str());
  std::printf("  peak buffered : %s (bounded by the ring budget, "
              "not the largest shard)\n",
              MemoryTracker::FormatBytes(io.peak_buffered_bytes).c_str());
  std::printf("  buffer bound  : %s (the ring's contract, whatever the "
              "schedule)\n",
              MemoryTracker::FormatBytes(cursor.buffer_bound_bytes()).c_str());
  std::printf("  bytes read    : %s over %llu files\n",
              MemoryTracker::FormatBytes(io.bytes_read).c_str(),
              static_cast<unsigned long long>(io.files_opened));
  (void)neighbor_sum;
  return 0;
}
