#include "core/parallel_greedy.h"

#include <memory>

#include "graph/sharded_adjacency_file.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace semis {

Status RunParallelGreedyWithStates(const std::string& manifest_path,
                                   const ParallelGreedyOptions& options,
                                   AlgoResult* result,
                                   std::vector<VState>* states) {
  WallTimer timer;
  AlgoResult res;

  // Above one thread, decoder threads prefetch shards ahead of the
  // commit loop; at one the cursor reads them on this thread.
  const uint32_t num_threads = ResolveThreadCount(options.pipeline.num_threads);
  std::unique_ptr<ThreadPool> pool;
  if (num_threads > 1) pool = std::make_unique<ThreadPool>(num_threads);
  ManifestOrderedShardCursor cursor(&res.io);
  SEMIS_RETURN_IF_ERROR(cursor.Open(manifest_path, pool.get()));
  std::vector<VState> state;
  SEMIS_RETURN_IF_ERROR(
      RunGreedyScan(&cursor, manifest_path, options.greedy, &res, &state));
  SEMIS_RETURN_IF_ERROR(cursor.Close());
  // The ring's blocks are pipeline memory on top of the O(|V|) state
  // array; Set-then-zero records the cursor's bound as the peak.
  res.memory.Set("shard-buffers", cursor.buffer_bound_bytes());
  res.memory.Set("shard-buffers", 0);

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
