// Thread-scaling benchmark of the parallel swap executor (ISSUE 2 /
// ROADMAP "parallel greedy/swap rounds"): two-k swap rounds over a
// sharded PLRG with >= 1M directed edges, swept over thread counts.
//
// Two properties are measured/checked:
//   * correctness: every thread count must produce a byte-identical
//     independent set (the executor's determinism contract); the bench
//     aborts the timing loop if it does not;
//   * scaling: items/sec (directed edges per wall second) should grow
//     with threads on multi-core hardware. Target: >= 2x at 4 threads
//     over 1 thread on an otherwise idle machine. On single-core runners
//     the sweep degenerates to overhead measurement, which is reported,
//     not hidden.
#include <benchmark/benchmark.h>

#include "bench_common.h"

#include <cstdio>
#include <thread>
#include <vector>

#include "core/greedy.h"
#include "core/parallel_swap.h"
#include "core/two_k_swap.h"
#include "gen/plrg.h"
#include "graph/degree_sort.h"
#include "graph/graph_io.h"
#include "graph/sharded_adjacency_file.h"
#include "io/scratch.h"
#include "util/bit_vector.h"

namespace semis {
namespace {

// Vertex count knob: SEMIS_PARALLEL_VERTICES (default 250000, which at
// beta ~2 / avg degree ~8 yields >= 1M directed edges).
uint64_t BenchVertexCount() {
  const char* env = std::getenv("SEMIS_PARALLEL_VERTICES");
  if (env != nullptr) {
    uint64_t v = std::strtoull(env, nullptr, 10);
    if (v > 0) return v;
  }
  return 250000;
}

constexpr uint32_t kNumShards = 16;

struct ParallelEnv {
  ParallelEnv() {
    SEMIS_BENCH_CHECK_OK(ScratchDir::Create("semis-parbench", &scratch));
    Graph graph =
        GeneratePlrg(PlrgSpec::ForVerticesAndAvgDegree(BenchVertexCount(), 8.0),
                     1234);
    directed_edges = graph.NumDirectedEdges();
    std::string mono = scratch.NewFilePath("graph.adj");
    SEMIS_BENCH_CHECK_OK(WriteGraphToAdjacencyFile(graph, mono));
    sorted_path = scratch.NewFilePath("sorted.sadj");
    SEMIS_BENCH_CHECK_OK(BuildDegreeSortedAdjacencyFile(mono, sorted_path,
                                         DegreeSortOptions{}));
    manifest = scratch.NewFilePath("sharded.sadjs");
    SEMIS_BENCH_CHECK_OK(ShardAdjacencyFile(sorted_path, manifest, kNumShards));
    SEMIS_BENCH_CHECK_OK(RunGreedy(sorted_path, GreedyOptions{}, &greedy));
    std::printf(
        "# bench_parallel_swap: %llu vertices, %llu directed edges, "
        "%u shards, %u hardware threads\n",
        static_cast<unsigned long long>(graph.NumVertices()),
        static_cast<unsigned long long>(directed_edges), kNumShards,
        std::thread::hardware_concurrency());
    // Reference result: the sequential path (one thread).
    AlgoResult ref;
    ParallelSwapOptions opts;
    opts.num_threads = 1;
    SEMIS_BENCH_CHECK_OK(RunParallelSwap(manifest, greedy.in_set, opts, &ref));
    reference_set = ref.in_set;
    reference_size = ref.set_size;
  }

  ScratchDir scratch;
  std::string manifest;
  std::string sorted_path;
  AlgoResult greedy;
  uint64_t directed_edges = 0;
  BitVector reference_set;
  uint64_t reference_size = 0;
};

ParallelEnv& Env() {
  static ParallelEnv env;
  return env;
}

// Full passes over the input and megabytes read by one run. Every
// iteration does the same I/O, so the last one's figures stand for all.
void SetIoCounters(benchmark::State& state, const IoStats& io) {
  state.counters["scans"] = static_cast<double>(io.sequential_scans);
  state.counters["read_mb"] =
      static_cast<double>(io.bytes_read) / (1024.0 * 1024.0);
}

bool SameSet(const BitVector& a, const BitVector& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.Test(i) != b.Test(i)) return false;
  }
  return true;
}

void BM_ParallelTwoKSwap(benchmark::State& state) {
  ParallelEnv& env = Env();
  const uint32_t threads = static_cast<uint32_t>(state.range(0));
  double rounds = 0;
  IoStats io;
  for (auto _ : state) {
    AlgoResult res;
    ParallelSwapOptions opts;
    opts.num_threads = threads;
    Status s = RunParallelSwap(env.manifest, env.greedy.in_set, opts, &res);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
    if (!SameSet(res.in_set, env.reference_set)) {
      state.SkipWithError("result differs from the sequential path");
      break;
    }
    rounds += static_cast<double>(res.rounds);
    io = res.io;
    benchmark::DoNotOptimize(res.set_size);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(env.directed_edges));
  state.counters["threads"] = threads;
  state.counters["set_size"] = static_cast<double>(env.reference_size);
  SetIoCounters(state, io);
  if (state.iterations() > 0) {
    state.counters["rounds"] = rounds / static_cast<double>(state.iterations());
  }
}
BENCHMARK(BM_ParallelTwoKSwap)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Baseline: the monolithic sequential two-k-swap on the same (unsharded)
// input, for the "parallel executor vs paper implementation" column.
void BM_SequentialTwoKSwap(benchmark::State& state) {
  ParallelEnv& env = Env();
  IoStats io;
  for (auto _ : state) {
    AlgoResult res;
    Status s =
        RunTwoKSwap(env.sorted_path, env.greedy.in_set, TwoKSwapOptions{}, &res);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
    io = res.io;
    benchmark::DoNotOptimize(res.set_size);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(env.directed_edges));
  SetIoCounters(state, io);
}
BENCHMARK(BM_SequentialTwoKSwap)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace semis

BENCHMARK_MAIN();
