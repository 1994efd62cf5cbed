// Decode-path benchmark: how fast a sharded file streams through a store
// scan (AdjacencyFileScanner::OpenStore), and how much heap allocation
// the decode hot path performs.
//
//   * BM_SequentialShardDecode: a store scan reading the shards in
//     manifest order on the calling thread, one record at a time. Reports
//     records/s and allocs_per_record.
//   * BM_ShardScanSteadyState: a scanner's inner loop in isolation
//     (AdjacencyFileScanner::Next over a shard) aborts (SkipWithError ->
//     nightly gate failure) if a warm pass allocates at all: the "zero
//     heap allocations per record" claim, enforced in the timing loop.
//   * BM_SeamReadSteadyState: the same claim for SequentialFileReader
//     behind the FileSystem seam.
//
// Allocation counts come from global operator new/delete overrides local
// to this binary.
#include <benchmark/benchmark.h>

#include "bench_common.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "gen/plrg.h"
#include "graph/degree_sort.h"
#include "graph/graph_io.h"
#include "graph/sharded_adjacency_file.h"
#include "io/env.h"
#include "io/file.h"
#include "io/scratch.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace semis {
namespace {

// Vertex count knob: SEMIS_BLOCK_VERTICES (default 200000; ~1.6M directed
// edges at avg degree 8).
uint64_t BenchVertexCount() {
  const char* env = std::getenv("SEMIS_BLOCK_VERTICES");
  if (env != nullptr) {
    uint64_t v = std::strtoull(env, nullptr, 10);
    if (v > 0) return v;
  }
  return 200000;
}

constexpr uint32_t kNumShards = 16;

// Order-sensitive fold shared by every drain below, so all strategies are
// held to one checksum definition: any reorder, drop, or duplication of a
// record (or a stale copy of this formula) breaks the equality assertion.
void FoldRecord(VertexId id, const VertexId* begin, const VertexId* end,
                uint64_t* position, uint64_t* checksum) {
  *checksum += (++*position) * (id + 1);
  for (const VertexId* p = begin; p != end; ++p) *checksum += *p;
}

struct BlockDecodeEnv {
  BlockDecodeEnv() {
    bench::RequireDefaultIoEnv();
    SEMIS_BENCH_CHECK_OK(ScratchDir::Create("semis-blockbench", &scratch));
    Graph graph = GeneratePlrg(
        PlrgSpec::ForVerticesAndAvgDegree(BenchVertexCount(), 8.0), 987);
    num_vertices = graph.NumVertices();
    directed_edges = graph.NumDirectedEdges();
    std::string mono = scratch.NewFilePath("graph.adj");
    SEMIS_BENCH_CHECK_OK(WriteGraphToAdjacencyFile(graph, mono));
    std::string sorted = scratch.NewFilePath("sorted.sadj");
    SEMIS_BENCH_CHECK_OK(
        BuildDegreeSortedAdjacencyFile(mono, sorted, DegreeSortOptions{}));
    manifest = scratch.NewFilePath("sharded.sadjs");
    SEMIS_BENCH_CHECK_OK(ShardAdjacencyFile(sorted, manifest, kNumShards));
    // Order-sensitive checksum of the reference stream, the sorted SADJ
    // file: every strategy below must reproduce it, so a
    // reordering/dropping bug aborts the timing loop instead of producing
    // a fast wrong number.
    reference_checksum = 0;
    AdjacencyFileScanner scanner;
    SEMIS_BENCH_CHECK_OK(scanner.Open(sorted));
    VertexRecordView view;
    bool has_next = false;
    uint64_t position = 0;
    while (scanner.Next(&view, &has_next).ok() && has_next) {
      FoldRecord(view.id, view.begin(), view.end(), &position,
                 &reference_checksum);
    }
    std::printf("# bench_block_decode: %llu vertices, %llu directed edges, "
                "%u shards, io seam '%s'\n",
                static_cast<unsigned long long>(num_vertices),
                static_cast<unsigned long long>(directed_edges), kNumShards,
                GetFileSystem()->Name());
  }

  ScratchDir scratch;
  std::string manifest;
  uint64_t num_vertices = 0;
  uint64_t directed_edges = 0;
  uint64_t reference_checksum = 0;
};

BlockDecodeEnv& Env() {
  static BlockDecodeEnv env;
  return env;
}

// A store scan, one scanner per scan as the greedy uses it.
void BM_SequentialShardDecode(benchmark::State& state) {
  BlockDecodeEnv& env = Env();
  uint64_t allocs = 0;
  for (auto _ : state) {
    AdjacencyFileScanner scanner;
    Status s = scanner.OpenStore(env.manifest);
    uint64_t checksum = 0, position = 0;
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    if (s.ok()) {
      VertexRecordView view;
      bool has_next = false;
      while (true) {
        s = scanner.Next(&view, &has_next);
        if (!s.ok() || !has_next) break;
        FoldRecord(view.id, view.begin(), view.end(), &position, &checksum);
      }
    }
    allocs += g_allocations.load(std::memory_order_relaxed) - before;
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
    if (checksum != env.reference_checksum) {
      state.SkipWithError("store scan differs from the sorted SADJ file");
      break;
    }
  }
  const double records = static_cast<double>(state.iterations()) *
                         static_cast<double>(env.num_vertices);
  state.SetItemsProcessed(static_cast<int64_t>(records));
  state.counters["allocs_per_record"] =
      records > 0 ? static_cast<double>(allocs) / records : 0.0;
}
BENCHMARK(BM_SequentialShardDecode)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// A scanner's inner loop in isolation: Next on a scanner open on a
// shard, folding every record. One scanner serves every pass, as a store
// scan's serves every shard: after a warm-up pass has grown the
// decoder's spill buffer to its capacity, a pass must allocate NOTHING.
// The assertion runs inside the timing loop, so a regression fails the
// nightly gate.
void BM_ShardScanSteadyState(benchmark::State& state) {
  BlockDecodeEnv& env = Env();
  ShardedAdjacencyManifest manifest;
  SEMIS_BENCH_CHECK_OK(ReadShardedAdjacencyManifest(env.manifest, &manifest));
  AdjacencyFileScanner reader;
  uint64_t records = 0;
  // Scans shard 0; `*allocs` counts the heap allocations between Open and
  // Close.
  auto pass = [&](uint64_t* allocs) -> Status {
    SEMIS_RETURN_IF_ERROR(reader.OpenShard(env.manifest, manifest, 0));
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    uint64_t checksum = 0, position = 0;
    VertexRecordView view;
    bool has_next = false;
    while (true) {
      SEMIS_RETURN_IF_ERROR(reader.Next(&view, &has_next));
      if (!has_next) break;
      FoldRecord(view.id, view.begin(), view.end(), &position, &checksum);
      records++;
    }
    benchmark::DoNotOptimize(checksum);
    *allocs = g_allocations.load(std::memory_order_relaxed) - before;
    return reader.Close();
  };
  uint64_t allocs = 0;
  SEMIS_BENCH_CHECK_OK(pass(&allocs));  // warm-up
  records = 0;
  for (auto _ : state) {
    Status s = pass(&allocs);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
    if (allocs != 0) {
      state.SkipWithError("steady-state shard scan allocated");
      break;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(records));
  state.counters["allocs_per_record"] = 0.0;
}
BENCHMARK(BM_ShardScanSteadyState)->Unit(benchmark::kMicrosecond);

// The I/O seam in isolation: streaming a shard through
// SequentialFileReader -- now one virtual FileSystem dispatch per buffer
// fill -- must stay allocation-free in steady state. The seam may cost a
// branch and an indirect call, never a heap allocation; the assertion
// runs inside the timing loop like BM_ShardScanSteadyState above.
void BM_SeamReadSteadyState(benchmark::State& state) {
  BlockDecodeEnv& env = Env();
  const std::string shard0 = env.manifest + ".shard0";
  std::vector<char> chunk(64 * 1024);
  uint64_t total_bytes = 0;
  for (auto _ : state) {
    SequentialFileReader reader;
    Status s = reader.Open(shard0);
    uint64_t fold = 0;
    if (s.ok()) {
      const uint64_t before = g_allocations.load(std::memory_order_relaxed);
      size_t got = 0;
      do {
        s = reader.Read(chunk.data(), chunk.size(), &got);
        if (got > 0) {
          total_bytes += got;
          fold += static_cast<unsigned char>(chunk[got - 1]);
        }
      } while (s.ok() && got == chunk.size());
      const uint64_t allocs =
          g_allocations.load(std::memory_order_relaxed) - before;
      if (s.ok() && allocs != 0) {
        state.SkipWithError("steady-state seam read allocated");
        break;
      }
      Status close = reader.Close();
      if (s.ok()) s = close;
    }
    benchmark::DoNotOptimize(fold);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(total_bytes));
  state.counters["allocs_per_read"] = 0.0;
}
BENCHMARK(BM_SeamReadSteadyState)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace semis

BENCHMARK_MAIN();
