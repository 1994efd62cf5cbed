// Benchmark of the sharded GREEDY executor: Algorithm 1 over a sharded
// PLRG, read in manifest order on the calling thread, against the
// sequential scan of the monolithic file.
//
// Every iteration must produce an independent set byte-identical to
// sequential RunGreedy on the monolithic file (the executor's
// determinism contract); the bench aborts the timing loop if it does
// not. The executor reads no thread count, so BM_ParallelGreedy runs
// once, as /1, the name the nightly series has always recorded.
#include <benchmark/benchmark.h>

#include "bench_common.h"

#include <cstdio>
#include <thread>

#include "core/greedy.h"
#include "core/parallel_greedy.h"
#include "gen/plrg.h"
#include "graph/degree_sort.h"
#include "graph/graph_io.h"
#include "graph/sharded_adjacency_file.h"
#include "io/scratch.h"
#include "util/bit_vector.h"

namespace semis {
namespace {

// Vertex count knob: SEMIS_PARALLEL_VERTICES (default 250000, which at
// avg degree ~8 yields >= 1M directed edges).
uint64_t BenchVertexCount() {
  const char* env = std::getenv("SEMIS_PARALLEL_VERTICES");
  if (env != nullptr) {
    uint64_t v = std::strtoull(env, nullptr, 10);
    if (v > 0) return v;
  }
  return 250000;
}

constexpr uint32_t kNumShards = 16;

struct ParallelGreedyEnv {
  ParallelGreedyEnv() {
    SEMIS_BENCH_CHECK_OK(ScratchDir::Create("semis-pgreedybench", &scratch));
    Graph graph =
        GeneratePlrg(PlrgSpec::ForVerticesAndAvgDegree(BenchVertexCount(), 8.0),
                     4321);
    directed_edges = graph.NumDirectedEdges();
    std::string mono = scratch.NewFilePath("graph.adj");
    SEMIS_BENCH_CHECK_OK(WriteGraphToAdjacencyFile(graph, mono));
    sorted_path = scratch.NewFilePath("sorted.sadj");
    SEMIS_BENCH_CHECK_OK(BuildDegreeSortedAdjacencyFile(mono, sorted_path,
                                         DegreeSortOptions{}));
    manifest = scratch.NewFilePath("sharded.sadjs");
    SEMIS_BENCH_CHECK_OK(ShardAdjacencyFile(sorted_path, manifest, kNumShards));
    std::printf(
        "# bench_parallel_greedy: %llu vertices, %llu directed edges, "
        "%u shards, %u hardware threads\n",
        static_cast<unsigned long long>(graph.NumVertices()),
        static_cast<unsigned long long>(directed_edges), kNumShards,
        std::thread::hardware_concurrency());
    // Reference result: the monolithic sequential scan.
    AlgoResult ref;
    SEMIS_BENCH_CHECK_OK(RunGreedy(sorted_path, GreedyOptions{}, &ref));
    reference_set = ref.in_set;
    reference_size = ref.set_size;
  }

  ScratchDir scratch;
  std::string manifest;
  std::string sorted_path;
  uint64_t directed_edges = 0;
  BitVector reference_set;
  uint64_t reference_size = 0;
};

ParallelGreedyEnv& Env() {
  static ParallelGreedyEnv env;
  return env;
}

bool SameSet(const BitVector& a, const BitVector& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.Test(i) != b.Test(i)) return false;
  }
  return true;
}

void BM_ParallelGreedy(benchmark::State& state) {
  ParallelGreedyEnv& env = Env();
  const uint32_t threads = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    AlgoResult res;
    ParallelGreedyOptions opts;
    opts.pipeline.num_threads = threads;
    Status s = RunParallelGreedy(env.manifest, opts, &res);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
    if (!SameSet(res.in_set, env.reference_set)) {
      state.SkipWithError("result differs from sequential RunGreedy");
      break;
    }
    benchmark::DoNotOptimize(res.set_size);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(env.directed_edges));
  state.counters["threads"] = threads;
  state.counters["set_size"] = static_cast<double>(env.reference_size);
}
BENCHMARK(BM_ParallelGreedy)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Baseline: the monolithic sequential greedy scan on the same (unsharded)
// input, for the "sharded executor vs paper implementation" column.
void BM_SequentialGreedy(benchmark::State& state) {
  ParallelGreedyEnv& env = Env();
  for (auto _ : state) {
    AlgoResult res;
    Status s = RunGreedy(env.sorted_path, GreedyOptions{}, &res);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
    if (!SameSet(res.in_set, env.reference_set)) {
      state.SkipWithError("sequential result unstable across runs");
      break;
    }
    benchmark::DoNotOptimize(res.set_size);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(env.directed_edges));
}
BENCHMARK(BM_SequentialGreedy)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace semis

BENCHMARK_MAIN();
