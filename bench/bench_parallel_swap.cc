// Thread-scaling benchmark of the parallel swap executor (ISSUE 2 /
// ROADMAP "parallel greedy/swap rounds"): two-k swap rounds over a
// sharded PLRG with >= 1M directed edges, swept over thread counts.
//
// BM_ParallelTwoKSwapOneShard runs the same graph as a 1-shard store at
// one thread -- the configuration `semis_cli solve g.adj` takes by
// default. Its `vs_sequential` counter is its time per run over
// BM_SequentialTwoKSwap's (the paper's reference implementation) in the
// same process; it is left out when a filter skipped that benchmark.
//
// Each run also reports its scans, bytes read and accounted peak memory
// (`peak_memory_bytes`, and `sc_peak_bytes` for the SC tables alone).
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
#include <utility>
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
#include "util/timer.h"

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
    one_shard_manifest = scratch.NewFilePath("one_shard.sadjs");
    SEMIS_BENCH_CHECK_OK(
        ShardAdjacencyFile(sorted_path, one_shard_manifest, 1));
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
    // The 1-shard store finds different 2<->k skeletons (discovery is
    // shard-local), so it has its own reference.
    AlgoResult one_shard_ref;
    SEMIS_BENCH_CHECK_OK(RunParallelSwap(one_shard_manifest, greedy.in_set,
                                         opts, &one_shard_ref));
    one_shard_reference_set = one_shard_ref.in_set;
    one_shard_reference_size = one_shard_ref.set_size;
  }

  ScratchDir scratch;
  std::string manifest;
  std::string one_shard_manifest;
  std::string sorted_path;
  AlgoResult greedy;
  uint64_t directed_edges = 0;
  BitVector reference_set;
  uint64_t reference_size = 0;
  BitVector one_shard_reference_set;
  uint64_t one_shard_reference_size = 0;
  // Wall seconds per BM_SequentialTwoKSwap run (0 until it ran).
  double sequential_seconds = 0.0;
};

ParallelEnv& Env() {
  static ParallelEnv env;
  return env;
}

// Full passes over the input, megabytes read, and the accounted peak
// memory of one run, in total and of the SC tables alone. Every iteration
// does the same work, so the last one's figures stand for all.
void SetRunCounters(benchmark::State& state, const AlgoResult& res) {
  state.counters["scans"] = static_cast<double>(res.io.sequential_scans);
  state.counters["read_mb"] =
      static_cast<double>(res.io.bytes_read) / (1024.0 * 1024.0);
  state.counters["peak_memory_bytes"] =
      static_cast<double>(res.peak_memory_bytes);
  state.counters["sc_peak_bytes"] =
      static_cast<double>(res.memory.CategoryPeakBytes("sc"));
}

bool SameSet(const BitVector& a, const BitVector& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.Test(i) != b.Test(i)) return false;
  }
  return true;
}

// Wall seconds per iteration of a finished benchmark loop.
double SecondsPerRun(const benchmark::State& state, const WallTimer& timer) {
  return state.iterations() > 0
             ? timer.ElapsedSeconds() / static_cast<double>(state.iterations())
             : 0.0;
}

// Times RunParallelSwap on `manifest` at `threads` threads, aborting the
// loop when a run's set differs from `reference` (the 1-thread result).
// Returns the wall seconds per run.
double RunParallelTwoKSwap(benchmark::State& state,
                           const std::string& manifest, uint32_t threads,
                           const BitVector& reference,
                           uint64_t reference_size) {
  ParallelEnv& env = Env();
  double rounds = 0;
  AlgoResult last;
  WallTimer timer;
  for (auto _ : state) {
    AlgoResult res;
    ParallelSwapOptions opts;
    opts.num_threads = threads;
    Status s = RunParallelSwap(manifest, env.greedy.in_set, opts, &res);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
    if (!SameSet(res.in_set, reference)) {
      state.SkipWithError("result differs from the sequential path");
      break;
    }
    rounds += static_cast<double>(res.rounds);
    benchmark::DoNotOptimize(res.set_size);
    last = std::move(res);
  }
  const double seconds = SecondsPerRun(state, timer);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(env.directed_edges));
  state.counters["threads"] = threads;
  state.counters["set_size"] = static_cast<double>(reference_size);
  SetRunCounters(state, last);
  if (state.iterations() > 0) {
    state.counters["rounds"] = rounds / static_cast<double>(state.iterations());
  }
  return seconds;
}

void BM_ParallelTwoKSwap(benchmark::State& state) {
  ParallelEnv& env = Env();
  RunParallelTwoKSwap(state, env.manifest,
                      static_cast<uint32_t>(state.range(0)),
                      env.reference_set, env.reference_size);
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
  AlgoResult last;
  WallTimer timer;
  for (auto _ : state) {
    AlgoResult res;
    Status s =
        RunTwoKSwap(env.sorted_path, env.greedy.in_set, TwoKSwapOptions{}, &res);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(res.set_size);
    last = std::move(res);
  }
  env.sequential_seconds = SecondsPerRun(state, timer);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(env.directed_edges));
  SetRunCounters(state, last);
}
BENCHMARK(BM_SequentialTwoKSwap)->Unit(benchmark::kMillisecond)->UseRealTime();

// The engine's default geometry: one shard, one thread.
void BM_ParallelTwoKSwapOneShard(benchmark::State& state) {
  ParallelEnv& env = Env();
  const double seconds = RunParallelTwoKSwap(
      state, env.one_shard_manifest, 1, env.one_shard_reference_set,
      env.one_shard_reference_size);
  if (env.sequential_seconds > 0.0) {
    state.counters["vs_sequential"] = seconds / env.sequential_seconds;
  }
}
BENCHMARK(BM_ParallelTwoKSwapOneShard)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace semis

BENCHMARK_MAIN();
