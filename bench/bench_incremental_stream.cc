// Streaming-update benchmark (ISSUE 4 / ROADMAP "incremental updates
// under edge streams on top of the sharded format"): updates/sec of the
// batched apply -> parallel repair loop, and repair latency as a function
// of the pending delta size, over a sharded PLRG.
//
// Each iteration applies one batch of updates and runs Repair(); then,
// outside the timing, the stream's inserts that survived the batch are
// deleted again and the delta is force-compacted, so every measured
// repair starts from the base graph and sees exactly `batch` pending
// delta entries -- that makes the batch sweep a direct "repair latency vs
// delta size" curve, and items/sec the sustained update throughput. The
// session's first repair, a full pass, runs before the timing loop. So
// the per-pass counters describe frontier repairs of one update mix and
// do not drift with the iteration count Google Benchmark picks.
//
// BM_StreamCompactHalfStore times the compaction of one saturated shard
// alone, shard 0 of a copy split in two, so the rewrite and not the epoch
// commit dominates, and checks every rewritten shard against a reference
// fold in the loop.
//
// Determinism is asserted inside the timing loop: a 1-thread mirror
// instance consumes the same stream (outside the timing), and the
// measured instance's set must match it byte for byte after every repair
// -- the executor's contract that thread count never changes the result,
// with the 1-thread path being the sequential reference.
//
// All I/O flows through the default (posix) FileSystem seam of io/env.h;
// the fixture aborts if a fault-injection env is armed, and
// BM_SeamAppendSteadyState asserts in-loop that steady-state writes
// through the seam allocate nothing. Allocation counts come from global
// operator new/delete overrides local to this binary, as in
// bench_block_decode.
#include <benchmark/benchmark.h>

#include "bench_common.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <thread>
#include <utility>
#include <vector>

#include "core/incremental_stream.h"
#include "core/parallel_greedy.h"
#include "gen/plrg.h"
#include "graph/degree_sort.h"
#include "graph/graph_io.h"
#include "graph/sharded_adjacency_file.h"
#include "io/env.h"
#include "io/file.h"
#include "io/scratch.h"
#include "util/bit_vector.h"
#include "util/random.h"

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

// Vertex count knob: SEMIS_STREAM_VERTICES (default 100000, ~800k
// directed edges at avg degree 8).
uint64_t BenchVertexCount() {
  const char* env = std::getenv("SEMIS_STREAM_VERTICES");
  if (env != nullptr) {
    uint64_t v = std::strtoull(env, nullptr, 10);
    if (v > 0) return v;
  }
  return 100000;
}

constexpr uint32_t kNumShards = 16;
// The compaction bench's copy: shard 0 holds about half the records, so
// its rewrite outweighs the epoch commit and the range fan-out shows.
constexpr uint32_t kCompactShards = 2;

struct StreamEnv {
  StreamEnv() {
    bench::RequireDefaultIoEnv();
    SEMIS_BENCH_CHECK_OK(ScratchDir::Create("semis-streambench", &scratch));
    Graph graph = GeneratePlrg(
        PlrgSpec::ForVerticesAndAvgDegree(BenchVertexCount(), 8.0), 777);
    num_vertices = graph.NumVertices();
    directed_edges = graph.NumDirectedEdges();
    std::string mono = scratch.NewFilePath("graph.adj");
    SEMIS_BENCH_CHECK_OK(WriteGraphToAdjacencyFile(graph, mono));
    sorted_path = scratch.NewFilePath("sorted.sadj");
    SEMIS_BENCH_CHECK_OK(BuildDegreeSortedAdjacencyFile(mono, sorted_path,
                                         DegreeSortOptions{}));
    std::printf(
        "# bench_incremental_stream: %llu vertices, %llu directed edges, "
        "%u shards, %u hardware threads, io seam '%s'\n",
        static_cast<unsigned long long>(num_vertices),
        static_cast<unsigned long long>(directed_edges), kNumShards,
        std::thread::hardware_concurrency(), GetFileSystem()->Name());
  }

  // Fresh sharded copy + initial greedy set for one benchmark run
  // (updates mutate the shards, so runs must not share them).
  bool NewShardedCopy(std::string* manifest, BitVector* initial,
                      uint32_t shards = kNumShards) {
    *manifest = scratch.NewFilePath("stream.sadjs");
    if (!ShardAdjacencyFile(sorted_path, *manifest, shards).ok()) {
      return false;
    }
    AlgoResult greedy;
    ParallelGreedyOptions opts;
    if (!RunParallelGreedy(*manifest, opts, &greedy).ok()) return false;
    *initial = std::move(greedy.in_set);
    return true;
  }

  ScratchDir scratch;
  std::string sorted_path;
  uint64_t num_vertices = 0;
  uint64_t directed_edges = 0;
};

StreamEnv& Env() {
  static StreamEnv env;
  return env;
}

bool SameSet(const BitVector& a, const BitVector& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.Test(i) != b.Test(i)) return false;
  }
  return true;
}

// Generates one batch: ~55% inserts of fresh random pairs, ~45% deletes
// of stream-inserted edges, so the graph stays near its base size and
// deletes are (mostly) effective.
void MakeBatch(Random* rng, uint64_t n,
               std::vector<std::pair<VertexId, VertexId>>* live,
               std::vector<EdgeUpdate>* out, size_t batch) {
  out->clear();
  for (size_t i = 0; i < batch; ++i) {
    if (live->empty() || rng->OneIn(0.55)) {
      VertexId u = static_cast<VertexId>(rng->Uniform(n));
      VertexId v = static_cast<VertexId>(rng->Uniform(n));
      if (u == v) v = (v + 1) % static_cast<VertexId>(n);
      out->push_back(EdgeUpdate::Insert(u, v));
      live->emplace_back(u, v);
    } else {
      size_t idx = static_cast<size_t>(rng->Uniform(live->size()));
      auto [u, v] = (*live)[idx];
      (*live)[idx] = live->back();
      live->pop_back();
      out->push_back(EdgeUpdate::Delete(u, v));
    }
  }
}

void BM_StreamApplyRepair(benchmark::State& state) {
  StreamEnv& env = Env();
  const size_t batch = static_cast<size_t>(state.range(0));
  const uint32_t threads = static_cast<uint32_t>(state.range(1));

  std::string manifest, mirror_manifest;
  BitVector initial, mirror_initial;
  if (!env.NewShardedCopy(&manifest, &initial) ||
      !env.NewShardedCopy(&mirror_manifest, &mirror_initial)) {
    state.SkipWithError("sharded copy setup failed");
    return;
  }
  EnginePipelineOptions opts;
  opts.num_threads = threads;
  auto mis = std::make_unique<ShardedStreamingMis>();
  if (!mis->Initialize(manifest, initial, opts).ok()) {
    state.SkipWithError("Initialize failed");
    return;
  }
  // The sequential reference consuming the identical stream.
  EnginePipelineOptions mirror_opts;
  mirror_opts.num_threads = 1;
  auto mirror = std::make_unique<ShardedStreamingMis>();
  if (!mirror->Initialize(mirror_manifest, mirror_initial, mirror_opts)
           .ok()) {
    state.SkipWithError("mirror Initialize failed");
    return;
  }

  // The session's first repair reads every record; it is not measured.
  Status first = mis->Repair();
  if (first.ok()) first = mirror->Repair();
  if (!first.ok()) {
    state.SkipWithError(first.ToString().c_str());
    return;
  }

  Random rng(2026);
  std::vector<std::pair<VertexId, VertexId>> live;
  std::vector<EdgeUpdate> updates;
  std::vector<EdgeUpdate> cleanup;
  uint64_t allocs = 0;
  uint64_t repair_records = 0;
  uint64_t skipped = 0;
  double repair_seconds = 0;
  for (auto _ : state) {
    state.PauseTiming();
    MakeBatch(&rng, env.num_vertices, &live, &updates, batch);
    state.ResumeTiming();
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    Status s = mis->ApplyBatch(updates);
    const uint64_t decoded = mis->stats().io.records_decoded;
    const uint64_t skipped_before = mis->stats().candidates_skipped;
    const double seconds_before = mis->stats().repair_seconds;
    if (s.ok()) s = mis->Repair();
    repair_records += mis->stats().io.records_decoded - decoded;
    skipped += mis->stats().candidates_skipped - skipped_before;
    repair_seconds += mis->stats().repair_seconds - seconds_before;
    allocs += g_allocations.load(std::memory_order_relaxed) - before;
    state.PauseTiming();
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      state.ResumeTiming();
      break;
    }
    // Determinism gate: the measured instance must match the 1-thread
    // mirror after every repair.
    s = mirror->ApplyBatch(updates);
    if (s.ok()) s = mirror->Repair();
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      state.ResumeTiming();
      break;
    }
    if (!SameSet(mis->set(), mirror->set())) {
      state.SkipWithError("result differs from the 1-thread repair");
      state.ResumeTiming();
      break;
    }
    // Back to the base graph: delete the batch's surviving inserts and
    // repair, then reset the pending delta so the next repair sees
    // exactly `batch` entries again.
    cleanup.clear();
    for (const auto& [u, v] : live) cleanup.push_back(EdgeUpdate::Delete(u, v));
    live.clear();
    s = mis->ApplyBatch(cleanup);
    if (s.ok()) s = mis->Repair();
    if (s.ok()) s = mirror->ApplyBatch(cleanup);
    if (s.ok()) s = mirror->Repair();
    if (s.ok()) s = mis->Compact(/*force=*/true);
    if (s.ok()) s = mirror->Compact(/*force=*/true);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      state.ResumeTiming();
      break;
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
  state.counters["threads"] = threads;
  state.counters["delta_entries"] = static_cast<double>(batch);
  const double updates_done = static_cast<double>(state.iterations()) *
                              static_cast<double>(batch);
  state.counters["allocs_per_update"] =
      updates_done > 0 ? static_cast<double>(allocs) / updates_done : 0.0;
  const auto passes = static_cast<double>(state.iterations());
  if (passes > 0) {
    state.counters["repair_ms_per_pass"] = 1e3 * repair_seconds / passes;
    // Records a measured repair decodes: the frontier's, or every record
    // on a frontier past the crossover.
    state.counters["records_per_pass"] =
        static_cast<double>(repair_records) / passes;
    // Frontier candidates the blocker bound kept from being read.
    state.counters["skipped_per_pass"] =
        static_cast<double>(skipped) / passes;
  }
  state.counters["set_size"] = static_cast<double>(mis->set_size());
}
BENCHMARK(BM_StreamApplyRepair)
    ->ArgsProduct({{1024, 8192, 65536}, {1, 2, 4}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// FNV-1a over `n` bytes, continuing from `h`.
uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) h = (h ^ bytes[i]) * 1099511628211ull;
  return h;
}
constexpr uint64_t kFnvOffset = 1469598103934665603ull;

// FNV-1a over the records of the shard file at `path` (its header
// skipped).
uint64_t ShardRecordsHash(const std::string& path) {
  SequentialFileReader reader;
  SEMIS_BENCH_CHECK_OK(reader.Open(path));
  SEMIS_BENCH_CHECK_OK(reader.Skip(kAdjacencyShardHeaderBytes));
  uint64_t h = kFnvOffset;
  std::vector<char> buf(1 << 16);
  size_t n = 0;
  do {
    SEMIS_BENCH_CHECK_OK(reader.Read(buf.data(), buf.size(), &n));
    h = Fnv1a(h, buf.data(), n);
  } while (n > 0);
  return h;
}

// Compaction of one saturated shard: each iteration logs `batch` updates
// whose endpoints all live in shard 0 (outside the timing), then times
// Compact(force), which rewrites that shard alone and commits the epoch.
// The second argument is the thread count: the shard's record ranges fold
// on that many workers. At the default size the shard holds about 6k
// records and a 256-update batch names a few percent of them, about the
// share a perfbench stream-update compaction sees. Inside the loop the
// rewritten shard is hashed against a reference fold of its previous
// records and the batch (surviving base neighbors in base order, then
// inserted partners the record lacked, ascending); a mismatch fails the
// run, so every thread count must write the same bytes.
void BM_StreamCompactHalfStore(benchmark::State& state) {
  StreamEnv& env = Env();
  const size_t batch = static_cast<size_t>(state.range(0));
  const auto threads = static_cast<uint32_t>(state.range(1));
  std::string manifest;
  BitVector initial;
  if (!env.NewShardedCopy(&manifest, &initial, kCompactShards)) {
    state.SkipWithError("sharded copy setup failed");
    return;
  }
  EnginePipelineOptions opts;
  opts.num_threads = threads;
  ShardedStreamingMis mis;
  if (!mis.Initialize(manifest, initial, opts).ok()) {
    state.SkipWithError("Initialize failed");
    return;
  }
  // Shard 0's records, kept current by the reference fold.
  std::vector<VertexId> ids;
  std::vector<std::vector<VertexId>> adj;
  {
    AdjacencyFileScanner scanner;
    SEMIS_BENCH_CHECK_OK(scanner.OpenShard(manifest, mis.manifest(), 0));
    VertexRecordView rec;
    bool has_next = false;
    while (true) {
      SEMIS_BENCH_CHECK_OK(scanner.Next(&rec, &has_next));
      if (!has_next) break;
      ids.push_back(rec.id);
      adj.emplace_back(rec.neighbors, rec.neighbors + rec.degree);
    }
  }
  if (ids.size() < 2) {
    state.SkipWithError("shard 0 holds fewer than two records");
    return;
  }
  std::vector<size_t> index_of(env.num_vertices, ids.size());
  for (size_t i = 0; i < ids.size(); ++i) index_of[ids[i]] = i;

  Random rng(4242);
  std::vector<EdgeUpdate> updates;
  std::vector<uint32_t> expected;
  uint64_t records = 0;
  for (auto _ : state) {
    state.PauseTiming();
    // Random pairs inside the shard, inserted, or deleted when the pair
    // is a base edge or was inserted before: the last update of a pair
    // decides its fold.
    updates.clear();
    std::map<std::pair<VertexId, VertexId>, bool> last_is_delete;
    for (size_t i = 0; i < batch; ++i) {
      const VertexId u = ids[rng.Uniform(ids.size())];
      VertexId v = ids[rng.Uniform(ids.size())];
      if (u == v) continue;
      const std::vector<VertexId>& nbrs = adj[index_of[u]];
      const bool present =
          std::find(nbrs.begin(), nbrs.end(), v) != nbrs.end();
      const bool del = present ? rng.OneIn(0.7) : rng.OneIn(0.1);
      updates.push_back(del ? EdgeUpdate::Delete(u, v)
                            : EdgeUpdate::Insert(u, v));
      last_is_delete[{std::min(u, v), std::max(u, v)}] = del;
    }
    Status s = mis.ApplyBatch(updates);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
    // The reference fold, record by record.
    std::vector<std::vector<VertexId>> inserted(ids.size());
    for (const auto& [edge, del] : last_is_delete) {
      if (del) continue;
      inserted[index_of[edge.first]].push_back(edge.second);
      inserted[index_of[edge.second]].push_back(edge.first);
    }
    expected.clear();
    for (size_t i = 0; i < ids.size(); ++i) {
      std::vector<VertexId> folded;
      for (VertexId nb : adj[i]) {
        const auto it =
            last_is_delete.find({std::min(ids[i], nb), std::max(ids[i], nb)});
        if (it == last_is_delete.end() || !it->second) folded.push_back(nb);
      }
      std::sort(inserted[i].begin(), inserted[i].end());
      for (VertexId nb : inserted[i]) {
        if (std::find(adj[i].begin(), adj[i].end(), nb) == adj[i].end()) {
          folded.push_back(nb);
        }
      }
      adj[i] = std::move(folded);
      expected.push_back(ids[i]);
      expected.push_back(static_cast<uint32_t>(adj[i].size()));
      expected.insert(expected.end(), adj[i].begin(), adj[i].end());
    }
    state.ResumeTiming();
    s = mis.Compact(/*force=*/true);
    state.PauseTiming();
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      state.ResumeTiming();
      break;
    }
    if (mis.stats().shards_rewritten != mis.stats().compactions) {
      state.SkipWithError("a compaction rewrote more than shard 0");
      state.ResumeTiming();
      break;
    }
    const uint64_t want = Fnv1a(kFnvOffset, expected.data(),
                                expected.size() * sizeof(uint32_t));
    if (ShardRecordsHash(ShardFilePath(mis.store().manifest_path, 0)) !=
        want) {
      state.SkipWithError("compacted shard differs from the reference fold");
      state.ResumeTiming();
      break;
    }
    records += ids.size();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(records));
  state.counters["shard_records"] = static_cast<double>(ids.size());
  state.counters["updates"] = static_cast<double>(batch);
  state.counters["threads"] = threads;
}
BENCHMARK(BM_StreamCompactHalfStore)
    ->ArgsProduct({{256, 4096}, {1, 4}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Baseline for the "maintain vs re-solve" argument: one full sharded
// greedy solve of the same graph, i.e. what every batch would cost
// without incremental maintenance.
void BM_FromScratchGreedy(benchmark::State& state) {
  StreamEnv& env = Env();
  std::string manifest;
  BitVector initial;
  if (!env.NewShardedCopy(&manifest, &initial)) {
    state.SkipWithError("sharded copy setup failed");
    return;
  }
  for (auto _ : state) {
    AlgoResult res;
    ParallelGreedyOptions opts;
    opts.pipeline.num_threads = static_cast<uint32_t>(state.range(0));
    Status s = RunParallelGreedy(manifest, opts, &res);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(res.set_size);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(env.directed_edges));
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_FromScratchGreedy)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The write side of the I/O seam in isolation (ISSUE 10): steady-state
// appends through SequentialFileWriter -- buffered memcpy plus a
// FileSystem write per buffer fill -- must allocate nothing once the
// writer is open. The assertion runs inside the timing loop, so a heap
// allocation smuggled into the seam's hot path fails the nightly gate.
// Each iteration rewrites the same scratch file (O_TRUNC on open), so
// disk usage stays bounded no matter how many iterations run.
void BM_SeamAppendSteadyState(benchmark::State& state) {
  StreamEnv& env = Env();
  const std::string path = env.scratch.NewFilePath("seam-append.bin");
  constexpr size_t kAppends = 256;
  std::vector<char> payload(4096, 'x');
  uint64_t total_bytes = 0;
  for (auto _ : state) {
    SequentialFileWriter writer;
    Status s = writer.Open(path);
    if (s.ok()) {
      const uint64_t before = g_allocations.load(std::memory_order_relaxed);
      for (size_t i = 0; s.ok() && i < kAppends; ++i) {
        s = writer.Append(payload.data(), payload.size());
      }
      const uint64_t allocs =
          g_allocations.load(std::memory_order_relaxed) - before;
      if (s.ok() && allocs != 0) {
        state.SkipWithError("steady-state seam append allocated");
        break;
      }
      Status close = writer.Close();
      if (s.ok()) s = close;
      total_bytes += kAppends * payload.size();
    }
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(total_bytes));
  state.counters["allocs_per_append"] = 0.0;
}
BENCHMARK(BM_SeamAppendSteadyState)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace semis

BENCHMARK_MAIN();
