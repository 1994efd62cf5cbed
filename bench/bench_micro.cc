// Micro-benchmarks (google-benchmark) for the substrate hot paths:
// adjacency-file scan throughput, external sorter, the degree sort,
// external priority queue, and the greedy scan itself. These are the
// building blocks whose costs the paper's Table 1 I/O model abstracts.
#include <benchmark/benchmark.h>

#include "bench_common.h"

#include <cstdlib>
#include <numeric>
#include <vector>

#include "core/greedy.h"
#include "gen/plrg.h"
#include "graph/adjacency_file.h"
#include "graph/degree_sort.h"
#include "graph/graph_io.h"
#include "graph/sharded_adjacency_file.h"
#include "io/external_priority_queue.h"
#include "io/external_sorter.h"
#include "io/scratch.h"
#include "util/random.h"

namespace semis {
namespace {

// Shared fixture state: one mid-sized PLRG written to a scratch file.
struct MicroEnv {
  MicroEnv() {
    SEMIS_BENCH_CHECK_OK(ScratchDir::Create("semis-micro", &scratch));
    graph = GeneratePlrg(PlrgSpec::ForVertexCount(100000, 2.0), 7);
    path = scratch.NewFilePath("graph");
    SEMIS_BENCH_CHECK_OK(WriteGraphToAdjacencyFile(graph, path));
  }
  ScratchDir scratch;
  Graph graph;
  std::string path;
};

MicroEnv& Env() {
  static MicroEnv env;
  return env;
}

void BM_AdjacencyScan(benchmark::State& state) {
  MicroEnv& env = Env();
  for (auto _ : state) {
    AdjacencyFileScanner scanner;
    if (!scanner.Open(env.path).ok()) state.SkipWithError("open failed");
    VertexRecordView rec;
    bool has_next = false;
    uint64_t sum = 0;
    while (scanner.Next(&rec, &has_next).ok() && has_next) {
      sum += rec.degree;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(env.graph.NumDirectedEdges()));
}
BENCHMARK(BM_AdjacencyScan)->Unit(benchmark::kMillisecond);

void BM_GreedyScan(benchmark::State& state) {
  MicroEnv& env = Env();
  for (auto _ : state) {
    AlgoResult res;
    if (!RunGreedy(env.path, {}, &res).ok()) {
      state.SkipWithError("greedy failed");
    }
    benchmark::DoNotOptimize(res.set_size);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(env.graph.NumDirectedEdges()));
}
BENCHMARK(BM_GreedyScan)->Unit(benchmark::kMillisecond);

void BM_ExternalSorter(benchmark::State& state) {
  MicroEnv& env = Env();
  const int64_t records = state.range(0);
  for (auto _ : state) {
    ExternalSorterOptions opts;
    opts.memory_budget_bytes = 1 << 20;
    opts.scratch_dir = env.scratch.path();
    ExternalSorter sorter(opts);
    Random rng(3);
    for (int64_t i = 0; i < records; ++i) {
      uint32_t payload = static_cast<uint32_t>(i);
      if (!sorter.Add(rng.Next64(), &payload, 1).ok()) {
        state.SkipWithError("add failed");
        break;
      }
    }
    if (!sorter.Finish().ok()) state.SkipWithError("finish failed");
    uint64_t key = 0;
    std::vector<uint32_t> payload;
    uint64_t count = 0;
    while (sorter.Next(&key, &payload)) count++;
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * records);
}
BENCHMARK(BM_ExternalSorter)->Arg(100000)->Arg(500000)
    ->Unit(benchmark::kMillisecond);

// The degree sort as an unsorted MisEngine::Open runs it: a PLRG of
// SEMIS_SORT_VERTICES vertices (default 500000, avg degree 8) in shuffled
// record order, sorted into an 8-shard store. The arg picks the regime:
// 1 = placement (the budget is the placement footprint), 0 = merge (one
// byte under it). Every iteration's store must hash to the reference, the
// merge regime's output.
constexpr uint32_t kSortShards = 8;

uint64_t SortVertexCount() {
  const char* env = std::getenv("SEMIS_SORT_VERTICES");
  if (env != nullptr) {
    const uint64_t v = std::strtoull(env, nullptr, 10);
    if (v > 0) return v;
  }
  return 500000;
}

// FNV-1a over the manifest and every shard file of the store.
uint64_t StoreHash(const std::string& manifest) {
  uint64_t h = 1469598103934665603ull;
  std::vector<char> buf(1 << 16);
  for (uint32_t k = 0; k <= kSortShards; ++k) {
    SequentialFileReader r;
    SEMIS_BENCH_CHECK_OK(
        r.Open(k == 0 ? manifest : ShardFilePath(manifest, k - 1)));
    size_t n = 0;
    do {
      SEMIS_BENCH_CHECK_OK(r.Read(buf.data(), buf.size(), &n));
      for (size_t i = 0; i < n; ++i) {
        h = (h ^ static_cast<unsigned char>(buf[i])) * 1099511628211ull;
      }
    } while (n > 0);
  }
  return h;
}

Status SortIntoShards(const std::string& input, const std::string& manifest,
                      const DegreeSortOptions& opts) {
  AdjacencyFileScanner scanner(opts.stats);
  SEMIS_RETURN_IF_ERROR(scanner.Open(input));
  return BuildDegreeSortedShardStore(&scanner, manifest, kSortShards, opts);
}

struct SortEnv {
  SortEnv() {
    SEMIS_BENCH_CHECK_OK(ScratchDir::Create("semis-micro-sort", &scratch));
    Graph graph = GeneratePlrg(
        PlrgSpec::ForVerticesAndAvgDegree(SortVertexCount(), 8.0), 11);
    std::vector<VertexId> order(graph.NumVertices());
    std::iota(order.begin(), order.end(), 0);
    Random rng(12);
    rng.Shuffle(order.data(), order.size());
    input = scratch.NewFilePath("unsorted.adj");
    SEMIS_BENCH_CHECK_OK(
        WriteGraphToAdjacencyFileInOrder(graph, order, 0, input));
    AdjacencyFileScanner probe;
    SEMIS_BENCH_CHECK_OK(probe.Open(input));
    const AdjacencyFileHeader& h = probe.header();
    placement_budget = DegreeSorter::PlacementBytes(
        h.num_vertices, h.num_directed_edges, h.max_degree);
    const std::string reference = scratch.NewFilePath("reference.sadjs");
    DegreeSortOptions opts;
    opts.memory_budget_bytes = placement_budget - 1;
    SEMIS_BENCH_CHECK_OK(SortIntoShards(input, reference, opts));
    reference_hash = StoreHash(reference);
  }
  ScratchDir scratch;
  std::string input;
  uint64_t placement_budget = 0;
  uint64_t reference_hash = 0;
};

SortEnv& SortEnvironment() {
  static SortEnv env;
  return env;
}

void BM_DegreeSort(benchmark::State& state) {
  SortEnv& env = SortEnvironment();
  DegreeSortOptions opts;
  opts.memory_budget_bytes = state.range(0) == 1 ? env.placement_budget
                                                 : env.placement_budget - 1;
  const std::string manifest = env.scratch.NewFilePath("sorted.sadjs");
  for (auto _ : state) {
    Status s = SortIntoShards(env.input, manifest, opts);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
    state.PauseTiming();
    const bool same = StoreHash(manifest) == env.reference_hash;
    state.ResumeTiming();
    if (!same) {
      state.SkipWithError("sorted store differs from the reference");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(SortVertexCount()));
}
BENCHMARK(BM_DegreeSort)
    ->ArgName("placement")
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ExternalPriorityQueue(benchmark::State& state) {
  MicroEnv& env = Env();
  const int64_t entries = state.range(0);
  for (auto _ : state) {
    ExternalPriorityQueueOptions opts;
    opts.memory_budget_entries = 1 << 14;
    opts.scratch_dir = env.scratch.path();
    ExternalPriorityQueue pq(opts);
    Random rng(4);
    for (int64_t i = 0; i < entries; ++i) {
      if (!pq.Push(rng.Uniform(1 << 30), 0).ok()) {
        state.SkipWithError("push failed");
        break;
      }
    }
    uint64_t key;
    uint32_t value;
    while (!pq.Empty()) {
      if (!pq.PopMin(&key, &value).ok()) {
        state.SkipWithError("pop failed");
        break;
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * entries * 2);
}
BENCHMARK(BM_ExternalPriorityQueue)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace semis

BENCHMARK_MAIN();
