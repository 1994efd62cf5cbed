#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/greedy.h"
#include "core/parallel_greedy.h"
#include "core/parallel_swap.h"
#include "core/rounds_engine.h"
#include "core/two_k_swap.h"
#include "core/verify.h"
#include "graph/adjacency_file.h"
#include "graph/degree_sort.h"
#include "graph/graph_io.h"
#include "graph/sharded_adjacency_file.h"
#include "inputs.h"
#include "io/env.h"
#include "io/file.h"
#include "trace.h"

namespace perfbench {

using semis::AlgoResult;
using semis::BitVector;
using semis::EdgeUpdate;
using semis::EpochSnapshotRef;
using semis::IoOp;
using semis::IoStats;
using semis::MisEngine;
using semis::MisEngineOptions;
using semis::Status;
using semis::StreamingMisStats;
using semis::SwapMode;

namespace {

// Set-up is repeated and its median reported; the repeats double as
// determinism checks of the generators.
constexpr int kSetupReps = 3;
constexpr size_t kBatchSize = 1024;
constexpr uint64_t kCompactThresholdEntries = 8192;
// The number of solves and the stream's length are fixed by the run
// length, not by how fast the program is, so two builds always take the
// same number of samples and apply the same updates.
constexpr size_t kMinSolves = 10;
constexpr double kBatchesPerSecond = 10.0;

// Both workloads use a PLRG graph (the paper's P(alpha, beta) model).
struct WorkloadSpec {
  const char* name;
  bool stream;
  uint64_t vertices;
  double avg_degree;
  SwapMode swap;
  uint32_t shards;
  uint32_t threads;
  // Solves per second of run length: about one solve's worth of wall
  // time per solve on a 4-core VM, so a run measures about its length.
  double solves_per_second;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"twok-sharded", false, 500000, 8.0, SwapMode::kTwoK, 8, 4, 1.0},
    {"stream-update", true, 1000000, 8.0, SwapMode::kNone, 8, 4, 0.0},
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// Every metric the benchmark prints, with its unit: the end-to-end ones
// first, then the per-layer ones of the traced run.
struct MetricDef {
  const char* name;
  const char* unit;
};
constexpr MetricDef kEndToEndMetrics[] = {
    {"setup_s", "s"},         {"solve_s", "s"},
    {"set_size", "vertices"}, {"peak_rss_mb", "MB"},
    {"io_read_mb", "MB"},     {"io_total_mb", "MB"},
    {"updates_per_s", "1/s"}, {"epoch_p50_ms", "ms"},
    {"epoch_tail_ms", "ms"},  {"ok_ratio", "ratio"},
};
constexpr MetricDef kLayerMetrics[] = {
    {"io.sort.wall_s", "s"},
    {"io.sort.cpu_s", "s"},
    {"io.sort.passes", "count"},
    {"io.sort.read_mb", "MB"},
    {"io.sort.written_mb", "MB"},
    {"io.sort.peak_logical_mb", "MB"},
    {"io.sort.io_s", "s"},
    {"graph.shard.wall_s", "s"},
    {"graph.shard.written_mb", "MB"},
    {"graph.shard.io_s", "s"},
    {"core.greedy.wall_s", "s"},
    {"core.greedy.cpu_util", "ratio"},
    {"core.greedy.records_decoded", "count"},
    {"core.greedy.blocks_decoded", "count"},
    {"core.greedy.peak_buffered_mb", "MB"},
    {"core.greedy.arena_mb", "MB"},
    {"core.greedy.set_size", "vertices"},
    {"core.greedy.io_s", "s"},
    {"core.swap.wall_s", "s"},
    {"core.swap.cpu_s", "s"},
    {"core.swap.cpu_util", "ratio"},
    {"core.swap.rounds", "count"},
    {"core.swap.first_round_s", "s"},
    {"core.swap.later_rounds_s", "s"},
    {"core.swap.scans", "count"},
    {"core.swap.read_mb", "MB"},
    {"core.swap.peak_logical_mb", "MB"},
    {"core.swap.sc_peak_vertices", "vertices"},
    {"core.swap.swaps_fired", "count"},
    {"core.swap.conflicts", "count"},
    {"core.swap.denied", "count"},
    {"core.swap.useful_ratio", "ratio"},
    {"core.swap.set_gain", "vertices"},
    {"core.swap.io_s", "s"},
    {"core.rounds.wall_s", "s"},
    {"core.rounds.cpu_util", "ratio"},
    {"core.rounds.rounds", "count"},
    {"core.rounds.records_decoded", "count"},
    {"core.rounds.scan_ratio", "ratio"},
    {"core.rounds.peak_logical_mb", "MB"},
    {"core.rounds.io_s", "s"},
    {"core.seq.greedy_s", "s"},
    {"core.seq.twok_s", "s"},
    {"core.seq.twok_rounds", "count"},
    {"core.seq.scans", "count"},
    {"core.seq.read_mb", "MB"},
    {"core.seq.peak_logical_mb", "MB"},
    {"core.seq.sc_peak_vertices", "vertices"},
    {"core.seq.set_gain", "vertices"},
    {"core.seq.io_s", "s"},
    {"core.stream.apply_ms_p50", "ms"},
    {"core.stream.repair_ms_p50", "ms"},
    {"core.stream.repair_cpu_util", "ratio"},
    {"core.stream.publish_ms_p50", "ms"},
    {"core.stream.apply_ms_tail", "ms"},
    {"core.stream.repair_ms_tail", "ms"},
    {"core.stream.compactions", "count"},
    {"core.stream.shards_rewritten", "count"},
    {"core.stream.compact_s", "s"},
    {"core.stream.resort_s", "s"},
    {"core.stream.repair_records_decoded", "count"},
    {"core.stream.bytes_written_per_update", "B/update"},
    {"core.stream.repair_added", "vertices"},
    {"core.stream.evictions", "vertices"},
    {"core.stream.peak_logical_mb", "MB"},
    {"core.stream.io_s", "s"},
    {"core.verify.wall_s", "s"},
    {"core.verify.io_s", "s"},
    {"io.env.open_calls", "count"},
    {"io.env.read_calls", "count"},
    {"io.env.write_calls", "count"},
    {"io.env.read_s", "s"},
    {"io.env.write_s", "s"},
    {"io.env.sync_calls", "count"},
    {"io.env.sync_s", "s"},
    {"io.env.syncdir_calls", "count"},
    {"io.env.rename_calls", "count"},
    {"io.env.link_calls", "count"},
    {"io.env.remove_calls", "count"},
    {"io.env.retries", "count"},
    {"trace.overhead_ratio", "ratio"},
};
// The layers whose I/O the traced run splits out as `<layer>.io_s`.
constexpr const char* kLayers[] = {"io.sort",     "graph.shard", "core.greedy",
                                   "core.swap",   "core.rounds", "core.seq",
                                   "core.stream", "core.verify"};

// Sets metric `name` with the unit it is declared with above.
void Put(Metrics* m, const std::string& name, double value) {
  for (const MetricDef& d : kEndToEndMetrics) {
    if (name == d.name) return m->Set(name, value, d.unit);
  }
  for (const MetricDef& d : kLayerMetrics) {
    if (name == d.name) return m->Set(name, value, d.unit);
  }
  std::fprintf(stderr, "perfbench: undeclared metric %s\n", name.c_str());
  std::abort();
}

double Mb(uint64_t bytes) { return bytes / kMiB; }

uint64_t StreamSeed(uint64_t seed) { return seed ^ 0x5eedf00dcafeull; }

semis::Graph MakeGraph(const WorkloadSpec& w, uint64_t seed) {
  return MakePlrgGraph(w.vertices, w.avg_degree, seed);
}

MisEngineOptions EngineOptions(const WorkloadSpec& w) {
  MisEngineOptions o;
  o.degree_sort = true;
  o.swap = w.swap;
  o.pipeline.num_shards = w.shards;
  o.pipeline.num_threads = w.threads;
  if (w.stream) o.pipeline.compact_threshold_entries = kCompactThresholdEntries;
  return o;
}

Status RemoveDir(const std::string& dir) {
  return semis::GetFileSystem()->RemoveTree(dir);
}

// Verifies `set` as independent and maximal against the graph at `path`
// (a monolithic file or a sharded store root); one checked operation.
void VerifySet(const std::string& path, bool sharded, const BitVector& set,
               Ops* ops, const std::string& what) {
  semis::VerifyResult vr;
  const Status s =
      sharded ? semis::VerifyIndependentSetShardedFile(path, set, &vr)
              : semis::VerifyIndependentSetFile(path, set, &vr);
  if (!s.ok()) {
    ops->Check(s, what);
    return;
  }
  ops->Check(vr.independent && vr.maximal,
             what + (vr.independent ? ": not maximal" : ": not independent"));
}

// Runs `fn` inside a span named `name` when `tracer` is set.
template <typename Fn>
void InSpan(Tracer* tracer, const char* name, Fn&& fn) {
  std::optional<Tracer::Scope> span;
  if (tracer != nullptr) span.emplace(tracer, name);
  fn();
}

// Runs `setup(k, dir)` for k < `reps`, each into a fresh directory, and
// records the wall time of each.
template <typename Fn>
Status RepeatSetup(const RunConfig& c, int reps, Fn&& setup,
                   std::vector<double>* walls) {
  for (int k = 0; k < reps; ++k) {
    const std::string dir = c.run_dir + "/setup" + std::to_string(k);
    SEMIS_RETURN_IF_ERROR(MakeDirs(dir));
    const double t0 = WallSeconds();
    SEMIS_RETURN_IF_ERROR(setup(k, dir));
    walls->push_back(WallSeconds() - t0);
  }
  return Status::OK();
}

// The per-layer metrics every traced run reports from its spans and the
// counting FileSystem.
void PutTracedCommon(const Tracer& tracer, uint64_t retries, Metrics* m) {
  const IoTotals io = tracer.Io("");
  Put(m, "io.env.open_calls", io.Calls(IoOp::kOpen));
  Put(m, "io.env.read_calls", io.Calls(IoOp::kRead));
  Put(m, "io.env.write_calls", io.Calls(IoOp::kWrite));
  Put(m, "io.env.read_s", io.Seconds(IoOp::kRead));
  Put(m, "io.env.write_s", io.Seconds(IoOp::kWrite));
  Put(m, "io.env.sync_calls", io.Calls(IoOp::kSync));
  Put(m, "io.env.sync_s", io.Seconds(IoOp::kSync) + io.Seconds(IoOp::kSyncDir));
  Put(m, "io.env.syncdir_calls", io.Calls(IoOp::kSyncDir));
  Put(m, "io.env.rename_calls", io.Calls(IoOp::kRename));
  Put(m, "io.env.link_calls", io.Calls(IoOp::kLink));
  Put(m, "io.env.remove_calls", io.Calls(IoOp::kRemove));
  Put(m, "io.env.retries", retries);
  Put(m, "core.verify.wall_s", tracer.Wall("core.verify"));
  for (const char* layer : kLayers) {
    Put(m, std::string(layer) + ".io_s", tracer.Io(layer).TotalSeconds());
  }
}

Status WriteTraceFiles(const RunConfig& c, const Tracer& tracer) {
  SEMIS_RETURN_IF_ERROR(MakeDirs(c.trace_dir));
  const std::string base = c.trace_dir + "/" + c.workload + "-seed" +
                           std::to_string(c.seed);
  SEMIS_RETURN_IF_ERROR(
      tracer.WriteChromeTrace(base + ".trace.json", c.provenance_json));
  const std::string table = tracer.SelfTimeTable();
  std::fprintf(stderr, "%s", table.c_str());
  semis::SequentialFileWriter out;
  SEMIS_RETURN_IF_ERROR(out.Open(base + ".layers.txt"));
  SEMIS_RETURN_IF_ERROR(out.Append(table.data(), table.size()));
  return out.Close();
}

// A child process hands its results to the driver through a file: a
// struct of plain numbers, a series of doubles, then a set, one byte per
// vertex. Parent and child are the same binary, so the struct's bytes are
// its format.
template <typename Numbers>
Status WriteChildResult(const std::string& path, const Numbers& nums,
                        const std::vector<double>& series,
                        const BitVector& set) {
  semis::SequentialFileWriter f;
  SEMIS_RETURN_IF_ERROR(f.Open(path));
  SEMIS_RETURN_IF_ERROR(f.Append(&nums, sizeof(nums)));
  SEMIS_RETURN_IF_ERROR(f.AppendU64(series.size()));
  SEMIS_RETURN_IF_ERROR(
      f.Append(series.data(), series.size() * sizeof(double)));
  std::vector<uint8_t> bits(set.size());
  for (size_t v = 0; v < bits.size(); ++v) bits[v] = set.Test(v);
  SEMIS_RETURN_IF_ERROR(f.AppendU64(bits.size()));
  SEMIS_RETURN_IF_ERROR(f.Append(bits.data(), bits.size()));
  return f.Close();
}

template <typename Numbers>
Status ReadChildResult(const std::string& path, Numbers* nums,
                       std::vector<double>* series, BitVector* set) {
  semis::SequentialFileReader f;
  SEMIS_RETURN_IF_ERROR(f.Open(path));
  SEMIS_RETURN_IF_ERROR(f.ReadExact(nums, sizeof(*nums)));
  uint64_t n = 0;
  SEMIS_RETURN_IF_ERROR(f.ReadU64(&n));
  series->resize(n);
  SEMIS_RETURN_IF_ERROR(f.ReadExact(series->data(), n * sizeof(double)));
  SEMIS_RETURN_IF_ERROR(f.ReadU64(&n));
  std::vector<uint8_t> bits(n);
  SEMIS_RETURN_IF_ERROR(f.ReadExact(bits.data(), n));
  SEMIS_RETURN_IF_ERROR(f.Close());
  *set = BitVector(n);
  for (size_t v = 0; v < n; ++v) {
    if (bits[v]) set->Set(v);
  }
  return semis::GetFileSystem()->RemoveFile(path);
}

// ---------------------------------------------------------------------
// twok-sharded
// ---------------------------------------------------------------------

struct SolveNumbers {
  double wall = 0.0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t io_retries = 0;
};

struct SolveSample {
  SolveNumbers n;
  double peak_rss_mb = 0.0;
  BitVector set;
};

// The user path, MisEngine::Open until epoch 1 is published, in a fresh
// child process as a CLI user runs it: no solve inherits another's heap,
// and the child's getrusage high-water is this solve's peak RSS. The child
// hands its numbers and set back through `scratch`.
Status SolveOnce(const WorkloadSpec& w, const std::string& input,
                 const std::string& scratch, SolveSample* out) {
  SEMIS_RETURN_IF_ERROR(RunInChild(
      [&] {
        MisEngine engine(EngineOptions(w));
        const double t0 = WallSeconds();
        SEMIS_RETURN_IF_ERROR(engine.Open(input));
        SolveNumbers n;
        n.wall = WallSeconds() - t0;
        const EpochSnapshotRef snap = engine.Snapshot();
        if (snap == nullptr || snap->epoch() != 1) {
          return Status::Corruption("Open did not publish epoch 1");
        }
        const IoStats& io = engine.open_result().io;
        n.bytes_read = io.bytes_read;
        n.bytes_written = io.bytes_written;
        n.io_retries = io.io_retries;
        SEMIS_RETURN_IF_ERROR(WriteChildResult(scratch, n, {}, snap->set()));
        return engine.Close();
      },
      &out->peak_rss_mb));
  std::vector<double> unused;
  return ReadChildResult(scratch, &out->n, &unused, &out->set);
}

// What the traced run's layer calls produced.
struct LayerRun {
  IoStats sort_io;
  semis::MemoryTracker sort_memory;
  IoStats shard_io;
  AlgoResult greedy, swap;
  BitVector set;
  // The engine's other two arms, composed on the same graph.
  AlgoResult seq_greedy, seq_swap, rounds;

  uint64_t Retries() const {
    return sort_io.io_retries + shard_io.io_retries + greedy.io.io_retries +
           swap.io.io_retries + seq_greedy.io.io_retries +
           seq_swap.io.io_retries + rounds.io.io_retries;
  }
};

// MisEngine::Open's pipeline, one layer call per span, with the options
// the engine passes to each call. Leaves the sorted file and the shard
// manifest in `dir`.
Status ComposedSolve(const WorkloadSpec& w, const std::string& input,
                     const std::string& dir, Tracer* tracer, LayerRun* lr) {
  const MisEngineOptions opts = EngineOptions(w);
  const std::string sorted = dir + "/sorted.sadj";
  const std::string manifest = dir + "/sharded.sadjs";
  Tracer::Scope solve(tracer, "solve");
  {
    Tracer::Scope span(tracer, "io.sort");
    semis::AdjacencyFileScanner probe(&lr->sort_io);
    SEMIS_RETURN_IF_ERROR(probe.Open(input));
    const bool input_sorted = probe.header().IsDegreeSorted();
    SEMIS_RETURN_IF_ERROR(probe.Close());
    if (input_sorted) return Status::InvalidArgument("input already sorted");
    semis::DegreeSortOptions so;
    so.memory_budget_bytes = opts.sort_memory_budget_bytes;
    so.fan_in = opts.sort_fan_in;
    so.stats = &lr->sort_io;
    so.memory = &lr->sort_memory;
    SEMIS_RETURN_IF_ERROR(
        semis::BuildDegreeSortedAdjacencyFile(input, sorted, so));
  }
  {
    Tracer::Scope span(tracer, "graph.shard");
    SEMIS_RETURN_IF_ERROR(semis::ShardAdjacencyFile(
        sorted, manifest, opts.pipeline.num_shards, &lr->shard_io));
  }
  std::vector<semis::VState> states;
  {
    Tracer::Scope span(tracer, "core.greedy");
    semis::ParallelGreedyOptions go;
    go.greedy.require_degree_sorted = false;
    go.pipeline = opts.pipeline;
    SEMIS_RETURN_IF_ERROR(semis::RunParallelGreedyWithStates(
        manifest, go, &lr->greedy, &states));
  }
  {
    Tracer::Scope span(tracer, "core.swap");
    semis::ParallelSwapOptions so;
    so.max_rounds = opts.max_swap_rounds;
    so.num_threads = opts.pipeline.num_threads;
    so.enable_two_k = opts.swap == SwapMode::kTwoK;
    SEMIS_RETURN_IF_ERROR(
        semis::RunParallelSwap(manifest, states, so, &lr->swap));
  }
  lr->set = lr->swap.in_set;
  return Status::OK();
}

// The engine's two other arms, one layer call per span, on the files
// ComposedSolve left in `dir`: the monolithic sequential arm (0 shards,
// 1 thread: RunGreedy + RunTwoKSwap, the paper's algorithm) on the sorted
// file, and the min-id rounds engine (SolveEngine::kRounds, no swap) on
// the shard manifest at the workload's thread count.
Status ComposedOtherArms(const WorkloadSpec& w, const std::string& dir,
                         Tracer* tracer, LayerRun* lr) {
  const MisEngineOptions opts = EngineOptions(w);
  const std::string sorted = dir + "/sorted.sadj";
  {
    Tracer::Scope seq(tracer, "core.seq");
    {
      Tracer::Scope span(tracer, "core.seq.greedy");
      SEMIS_RETURN_IF_ERROR(
          semis::RunGreedy(sorted, semis::GreedyOptions{}, &lr->seq_greedy));
    }
    Tracer::Scope span(tracer, "core.seq.twok");
    semis::TwoKSwapOptions to;
    to.max_rounds = opts.max_swap_rounds;
    SEMIS_RETURN_IF_ERROR(semis::RunTwoKSwap(sorted, lr->seq_greedy.in_set,
                                             to, &lr->seq_swap));
  }
  Tracer::Scope span(tracer, "core.rounds");
  semis::MinIdRoundsOptions ro;
  ro.pipeline = opts.pipeline;
  ro.pipeline.engine = semis::SolveEngine::kRounds;
  std::vector<semis::VState> states;
  return semis::RunMinIdRoundsWithStates(dir + "/sharded.sadjs", ro,
                                         &lr->rounds, &states);
}

void PutSolveLayers(const WorkloadSpec& w, const LayerRun& lr,
                    const Tracer& tracer, Metrics* m) {
  auto util = [&](const char* span) {
    const double wall = tracer.Wall(span);
    return wall > 0.0 ? tracer.Cpu(span) / (wall * w.threads) : 0.0;
  };
  Put(m, "io.sort.wall_s", tracer.Wall("io.sort"));
  Put(m, "io.sort.cpu_s", tracer.Cpu("io.sort"));
  Put(m, "io.sort.passes", lr.sort_io.sort_passes);
  Put(m, "io.sort.read_mb", Mb(lr.sort_io.bytes_read));
  Put(m, "io.sort.written_mb", Mb(lr.sort_io.bytes_written));
  Put(m, "io.sort.peak_logical_mb", Mb(lr.sort_memory.PeakBytes()));
  Put(m, "graph.shard.wall_s", tracer.Wall("graph.shard"));
  Put(m, "graph.shard.written_mb", Mb(lr.shard_io.bytes_written));

  const AlgoResult& g = lr.greedy;
  Put(m, "core.greedy.wall_s", tracer.Wall("core.greedy"));
  Put(m, "core.greedy.cpu_util", util("core.greedy"));
  Put(m, "core.greedy.records_decoded", g.io.records_decoded);
  Put(m, "core.greedy.blocks_decoded", g.io.blocks_decoded);
  Put(m, "core.greedy.peak_buffered_mb", Mb(g.io.peak_buffered_bytes));
  Put(m, "core.greedy.arena_mb", Mb(g.io.arena_bytes));
  Put(m, "core.greedy.set_size", g.set_size);

  const AlgoResult& s = lr.swap;
  uint64_t fired = 0, conflicts = 0, denied = 0;
  double later = 0.0;
  for (size_t i = 0; i < s.round_stats.size(); ++i) {
    const semis::RoundStats& rs = s.round_stats[i];
    fired += rs.one_k_swaps + rs.two_k_swaps;
    conflicts += rs.conflicts;
    denied += rs.denied_promotions;
    if (i > 0) later += rs.seconds;
  }
  const uint64_t attempts = fired + conflicts + denied;
  Put(m, "core.swap.wall_s", tracer.Wall("core.swap"));
  Put(m, "core.swap.cpu_s", tracer.Cpu("core.swap"));
  Put(m, "core.swap.cpu_util", util("core.swap"));
  Put(m, "core.swap.rounds", s.rounds);
  Put(m, "core.swap.first_round_s",
      s.round_stats.empty() ? 0.0 : s.round_stats[0].seconds);
  Put(m, "core.swap.later_rounds_s", later);
  Put(m, "core.swap.scans", s.io.sequential_scans);
  Put(m, "core.swap.read_mb", Mb(s.io.bytes_read));
  Put(m, "core.swap.peak_logical_mb", Mb(s.peak_memory_bytes));
  Put(m, "core.swap.sc_peak_vertices", s.sc_peak_vertices);
  Put(m, "core.swap.swaps_fired", fired);
  Put(m, "core.swap.conflicts", conflicts);
  Put(m, "core.swap.denied", denied);
  Put(m, "core.swap.useful_ratio",
      attempts > 0 ? static_cast<double>(fired) / attempts : 0.0);
  Put(m, "core.swap.set_gain", static_cast<double>(s.set_size) - g.set_size);

  const AlgoResult& sg = lr.seq_greedy;
  const AlgoResult& ss = lr.seq_swap;
  Put(m, "core.seq.greedy_s", tracer.Wall("core.seq.greedy"));
  Put(m, "core.seq.twok_s", tracer.Wall("core.seq.twok"));
  Put(m, "core.seq.twok_rounds", ss.rounds);
  Put(m, "core.seq.scans", sg.io.sequential_scans + ss.io.sequential_scans);
  Put(m, "core.seq.read_mb", Mb(sg.io.bytes_read + ss.io.bytes_read));
  Put(m, "core.seq.peak_logical_mb",
      Mb(std::max(sg.peak_memory_bytes, ss.peak_memory_bytes)));
  Put(m, "core.seq.sc_peak_vertices", ss.sc_peak_vertices);
  Put(m, "core.seq.set_gain", static_cast<double>(ss.set_size) - sg.set_size);

  const AlgoResult& r = lr.rounds;
  Put(m, "core.rounds.wall_s", tracer.Wall("core.rounds"));
  Put(m, "core.rounds.cpu_util", util("core.rounds"));
  Put(m, "core.rounds.rounds", r.rounds);
  Put(m, "core.rounds.records_decoded", r.io.records_decoded);
  const double full = 2.0 * r.rounds * lr.set.size();
  Put(m, "core.rounds.scan_ratio", full > 0 ? r.io.records_decoded / full : 0);
  Put(m, "core.rounds.peak_logical_mb", Mb(r.peak_memory_bytes));
}

// Untraced: a run-length-fixed number of engine solves, each verified and
// compared with the first outside the timed interval.
void RunSolveUntraced(const WorkloadSpec& w, const RunConfig& c,
                      const std::string& input, Metrics* m, Ops* ops) {
  const size_t solves = std::max<size_t>(
      kMinSolves,
      static_cast<size_t>(std::lround(w.solves_per_second * c.seconds)));
  std::vector<double> walls, rss_mb, read_mb, total_mb;
  BitVector first;
  uint64_t retries = 0;
  while (walls.size() < solves) {
    SolveSample smp;
    const std::string n = std::to_string(walls.size() + 1);
    if (!ops->Check(SolveOnce(w, input, c.run_dir + "/sample.bin", &smp),
                    "solve " + n)) {
      return;
    }
    walls.push_back(smp.n.wall);
    std::fprintf(stderr, "perfbench: solve %s %.4f s\n", n.c_str(), smp.n.wall);
    rss_mb.push_back(smp.peak_rss_mb);
    read_mb.push_back(Mb(smp.n.bytes_read));
    total_mb.push_back(Mb(smp.n.bytes_read + smp.n.bytes_written));
    retries += smp.n.io_retries;
    VerifySet(input, false, smp.set, ops, "verify solve " + n);
    if (walls.size() == 1) {
      first = std::move(smp.set);
    } else {
      ops->Check(SameSet(first, smp.set),
                 "determinism: solve " + n + " set differs from solve 1");
    }
  }
  ops->Check(retries == 0, "io_retries = " + std::to_string(retries));

  semis::AdjacencyFileScanner probe;
  uint64_t edges = 0;
  if (ops->Check(probe.Open(input), "read input header")) {
    edges = probe.header().num_directed_edges / 2;
    ops->Check(probe.Close(), "close input header");
  }
  const double solve = Median(walls);
  Put(m, "solve_s", solve);
  Put(m, "set_size", static_cast<double>(first.Count()));
  Put(m, "peak_rss_mb", Median(rss_mb));
  Put(m, "io_read_mb", Median(read_mb));
  Put(m, "io_total_mb", Median(total_mb));
  // A solve absorbs the whole edge set and publishes one epoch.
  Put(m, "updates_per_s", edges / solve);
  Put(m, "epoch_p50_ms", solve * 1e3);
  Put(m, "epoch_tail_ms",
      Percentile(walls, TailPercentile(walls.size())) * 1e3);
  std::fprintf(stderr, "perfbench: %zu solves, median %.4f s\n",
               walls.size(), solve);
}

// Traced: one engine solve as the reference, then the same pipeline as
// layer calls under spans and the counting FileSystem, then the engine's
// other two arms on the same graph.
Status RunSolveTraced(const WorkloadSpec& w, const RunConfig& c,
                      const std::string& input, Metrics* m, Ops* ops) {
  SolveSample ref;
  if (!ops->Check(SolveOnce(w, input, c.run_dir + "/sample.bin", &ref),
                  "untraced reference solve")) {
    return Status::OK();
  }
  VerifySet(input, false, ref.set, ops, "verify reference solve");
  const std::string dir = c.run_dir + "/traced";
  SEMIS_RETURN_IF_ERROR(MakeDirs(dir));
  CountingFileSystem fs(semis::PosixFileSystem());
  Tracer tracer(&fs);
  LayerRun lr;
  {
    semis::ScopedFileSystem scoped(&fs);
    if (!ops->Check(ComposedSolve(w, input, dir, &tracer, &lr),
                    "traced layer solve")) {
      return Status::OK();
    }
    if (!ops->Check(ComposedOtherArms(w, dir, &tracer, &lr),
                    "traced sequential and rounds arms")) {
      return Status::OK();
    }
    Tracer::Scope span(&tracer, "core.verify");
    VerifySet(input, false, lr.set, ops, "verify traced solve");
    VerifySet(input, false, lr.seq_swap.in_set, ops,
              "verify traced sequential arm");
    VerifySet(input, false, lr.rounds.in_set, ops, "verify traced rounds arm");
  }
  ops->Check(SameSet(ref.set, lr.set),
             "traced layer set differs from the engine set");
  ops->Check(lr.Retries() == 0, "traced io_retries");
  Put(m, "trace.overhead_ratio", tracer.Wall("solve") / ref.n.wall);
  PutSolveLayers(w, lr, tracer, m);
  PutTracedCommon(tracer, lr.Retries(), m);
  SEMIS_RETURN_IF_ERROR(RemoveDir(dir));
  return WriteTraceFiles(c, tracer);
}

Status RunSolveWorkload(const WorkloadSpec& w, const RunConfig& c,
                        Metrics* m, Ops* ops) {
  std::string input;
  uint64_t digest0 = 0;
  std::vector<double> setup_walls;
  SEMIS_RETURN_IF_ERROR(RepeatSetup(
      c, c.trace ? 1 : kSetupReps,
      [&](int k, const std::string& dir) -> Status {
        const std::string path = dir + "/g.adj";
        SEMIS_RETURN_IF_ERROR(RunInChild([&] {
          const semis::Graph g = MakeGraph(w, c.seed);
          return semis::WriteGraphToAdjacencyFile(g, path);
        }));
        if (k == 0) input = path;
        return Status::OK();
      },
      &setup_walls));
  // Every repeat must have written the same bytes; only the first stays.
  ops->Check(FileDigest(input, &digest0), "digest set-up input");
  for (size_t k = 1; k < setup_walls.size(); ++k) {
    const std::string dir = c.run_dir + "/setup" + std::to_string(k);
    uint64_t digest = 0;
    ops->Check(FileDigest(dir + "/g.adj", &digest), "digest set-up input");
    ops->Check(digest == digest0, "determinism: set-up " + std::to_string(k) +
                                      " wrote a different input");
    SEMIS_RETURN_IF_ERROR(RemoveDir(dir));
  }
  if (c.trace) return RunSolveTraced(w, c, input, m, ops);
  Put(m, "setup_s", Median(setup_walls));
  RunSolveUntraced(w, c, input, m, ops);
  return Status::OK();
}

// ---------------------------------------------------------------------
// stream-update
// ---------------------------------------------------------------------

// The set-up's files in `dir`.
std::string StorePath(const std::string& dir) { return dir + "/store.sadjs"; }
std::string StreamPath(const std::string& dir) { return dir + "/updates.bin"; }
std::string InitialSetPath(const std::string& dir) {
  return dir + "/initial.bin";
}

// One set-up, in a child process: writes the graph and its update stream,
// degree-sorts and shards the graph into a store, computes the store's
// greedy set and adopts it as a session does (OpenSharded + Prepare).
// Only the files stay: the store, the stream and the initial set.
Status SetupStream(const WorkloadSpec& w, const RunConfig& c, size_t count,
                   const std::string& dir) {
  return RunInChild([&] {
    const std::string adj = dir + "/g.adj";
    const std::string sorted = dir + "/g.sadj";
    const std::string store = StorePath(dir);
    {
      const semis::Graph g = MakeGraph(w, c.seed);
      SEMIS_RETURN_IF_ERROR(semis::WriteGraphToAdjacencyFile(g, adj));
      SEMIS_RETURN_IF_ERROR(
          WriteUpdateStream(g, count, StreamSeed(c.seed), StreamPath(dir)));
    }
    SEMIS_RETURN_IF_ERROR(semis::BuildDegreeSortedAdjacencyFile(
        adj, sorted, semis::DegreeSortOptions{}));
    SEMIS_RETURN_IF_ERROR(semis::ShardAdjacencyFile(sorted, store, w.shards));
    SEMIS_RETURN_IF_ERROR(semis::GetFileSystem()->RemoveFile(adj));
    SEMIS_RETURN_IF_ERROR(semis::GetFileSystem()->RemoveFile(sorted));
    const MisEngineOptions opts = EngineOptions(w);
    semis::ParallelGreedyOptions go;
    go.greedy.require_degree_sorted = true;
    go.pipeline = opts.pipeline;
    AlgoResult greedy;
    SEMIS_RETURN_IF_ERROR(semis::RunParallelGreedy(store, go, &greedy));
    MisEngine engine(opts);
    SEMIS_RETURN_IF_ERROR(engine.OpenSharded(store, greedy.in_set));
    SEMIS_RETURN_IF_ERROR(engine.Prepare());
    SEMIS_RETURN_IF_ERROR(engine.Close());
    return WriteChildResult(InitialSetPath(dir), 0.0, {}, greedy.in_set);
  });
}

// Opens a session on the store a set-up left in `dir`: the stream, and an
// engine that has adopted the initial set with its mutation arm bound, so
// binding stays out of epoch 1.
Status OpenSession(const std::string& dir, MisEngine* engine,
                   std::vector<EdgeUpdate>* updates) {
  double unused_num = 0.0;
  std::vector<double> unused_series;
  BitVector initial;
  SEMIS_RETURN_IF_ERROR(ReadUpdateStream(StreamPath(dir), updates));
  SEMIS_RETURN_IF_ERROR(ReadChildResult(InitialSetPath(dir), &unused_num,
                                        &unused_series, &initial));
  SEMIS_RETURN_IF_ERROR(engine->OpenSharded(StorePath(dir), initial));
  return engine->Prepare();
}

struct SessionResult {
  std::vector<double> epoch_s;
  double session_s = 0.0;
  uint64_t repair_records = 0;
  StreamingMisStats before, after;
  EpochSnapshotRef final_epoch;
};

// The closed loop: ApplyBatch -> Repair -> Publish per batch, then
// Compact(force) -> Resort -> Publish. Returns false when an operation
// failed (already counted in `ops`).
bool RunSession(MisEngine* engine, const std::vector<EdgeUpdate>& updates,
                Tracer* tracer, Ops* ops, SessionResult* r) {
  r->before = *engine->streaming_stats();
  uint64_t epoch = engine->Snapshot()->epoch();
  const double start = WallSeconds();
  std::optional<Tracer::Scope> root;
  if (tracer != nullptr) root.emplace(tracer, "core.stream");
  for (size_t b = 0; b * kBatchSize < updates.size(); ++b) {
    const auto first = updates.begin() + b * kBatchSize;
    const std::vector<EdgeUpdate> batch(first, first + kBatchSize);
    Status s;
    EpochSnapshotRef snap;
    const double t0 = WallSeconds();
    InSpan(tracer, "core.stream.apply", [&] { s = engine->ApplyBatch(batch); });
    if (s.ok()) {
      const uint64_t decoded = engine->streaming_stats()->io.records_decoded;
      InSpan(tracer, "core.stream.repair", [&] { s = engine->Repair(); });
      r->repair_records +=
          engine->streaming_stats()->io.records_decoded - decoded;
    }
    if (s.ok()) {
      InSpan(tracer, "core.stream.publish", [&] { snap = engine->Publish(); });
      if (snap == nullptr || snap->epoch() != epoch + 1) {
        s = Status::Corruption("Publish did not advance the epoch");
      }
    }
    const double wall = WallSeconds() - t0;
    if (!ops->Check(s, "epoch " + std::to_string(++epoch))) return false;
    r->epoch_s.push_back(wall);
  }
  Status s;
  InSpan(tracer, "core.stream.compact", [&] { s = engine->Compact(true); });
  if (s.ok()) InSpan(tracer, "core.stream.resort", [&] { s = engine->Resort(); });
  if (s.ok()) {
    InSpan(tracer, "core.stream.publish",
          [&] { r->final_epoch = engine->Publish(); });
  }
  r->session_s = WallSeconds() - start;
  r->after = *engine->streaming_stats();
  return ops->Check(s, "final compact, resort and publish");
}

struct SessionNumbers {
  double session_s = 0.0;
  uint64_t updates = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t io_retries = 0;
  uint64_t compactions = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

struct SessionSample {
  SessionNumbers n;
  std::vector<double> epoch_s;
  BitVector set;  // the final epoch's
  double peak_rss_mb = 0.0;
};

// The untraced session on the store in `dir`, in its own child process as
// a `semis_cli update` user runs it: the child's getrusage high-water is
// the session's peak RSS, with no set-up in it. The final store stays on
// disk for verification.
Status SessionInChild(const WorkloadSpec& w, const std::string& dir,
                      SessionSample* out) {
  const std::string scratch = dir + "/session.bin";
  SEMIS_RETURN_IF_ERROR(RunInChild(
      [&] {
        MisEngine engine(EngineOptions(w));
        std::vector<EdgeUpdate> updates;
        SEMIS_RETURN_IF_ERROR(OpenSession(dir, &engine, &updates));
        Ops ops;
        SessionResult r;
        SessionNumbers n;
        BitVector set;
        if (RunSession(&engine, updates, nullptr, &ops, &r)) {
          const StreamingMisStats& a = r.after;
          const StreamingMisStats& b = r.before;
          n.session_s = r.session_s;
          n.updates = a.updates_applied - b.updates_applied;
          n.bytes_read = a.io.bytes_read - b.io.bytes_read;
          n.bytes_written = a.io.bytes_written - b.io.bytes_written;
          n.io_retries = a.io.io_retries - b.io.io_retries;
          n.compactions = a.compactions - b.compactions;
          set = r.final_epoch->set();
        }
        n.attempted = ops.attempted();
        n.failed = ops.failed();
        SEMIS_RETURN_IF_ERROR(WriteChildResult(scratch, n, r.epoch_s, set));
        return engine.Close();
      },
      &out->peak_rss_mb));
  return ReadChildResult(scratch, &out->n, &out->epoch_s, &out->set);
}

void PutStreamLayers(const WorkloadSpec& w, const SessionResult& r,
                     const Tracer& tracer, Metrics* m) {
  const StreamingMisStats& a = r.after;
  const StreamingMisStats& b = r.before;
  const std::vector<double> apply = tracer.Durations("core.stream.apply");
  const std::vector<double> repair = tracer.Durations("core.stream.repair");
  const int tail = TailPercentile(r.epoch_s.size());
  const double repair_wall = tracer.Wall("core.stream.repair");
  const uint64_t updates = a.updates_applied - b.updates_applied;
  Put(m, "core.stream.apply_ms_p50", Median(apply) * 1e3);
  Put(m, "core.stream.repair_ms_p50", Median(repair) * 1e3);
  Put(m, "core.stream.publish_ms_p50",
      Median(tracer.Durations("core.stream.publish")) * 1e3);
  Put(m, "core.stream.apply_ms_tail", Percentile(apply, tail) * 1e3);
  Put(m, "core.stream.repair_ms_tail", Percentile(repair, tail) * 1e3);
  Put(m, "core.stream.repair_cpu_util",
      repair_wall > 0
          ? tracer.Cpu("core.stream.repair") / (repair_wall * w.threads)
          : 0.0);
  Put(m, "core.stream.compactions", a.compactions - b.compactions);
  Put(m, "core.stream.shards_rewritten",
      a.shards_rewritten - b.shards_rewritten);
  Put(m, "core.stream.compact_s", a.compact_seconds - b.compact_seconds);
  Put(m, "core.stream.resort_s", a.resort_seconds - b.resort_seconds);
  Put(m, "core.stream.repair_records_decoded", r.repair_records);
  Put(m, "core.stream.bytes_written_per_update",
      updates > 0
          ? static_cast<double>(a.io.bytes_written - b.io.bytes_written) /
                updates
          : 0.0);
  Put(m, "core.stream.repair_added", a.repair_added - b.repair_added);
  Put(m, "core.stream.evictions", a.evictions - b.evictions);
  Put(m, "core.stream.peak_logical_mb", Mb(a.peak_memory_bytes));
}

// Traced: the same session on a second store, in this process, under spans
// and the counting FileSystem; `untraced` is the reference.
Status RunStreamTraced(const WorkloadSpec& w, const RunConfig& c,
                       const std::string& dir, const SessionSample& untraced,
                       Metrics* m, Ops* ops) {
  MisEngine engine(EngineOptions(w));
  std::vector<EdgeUpdate> updates;
  SEMIS_RETURN_IF_ERROR(OpenSession(dir, &engine, &updates));
  CountingFileSystem fs(semis::PosixFileSystem());
  Tracer tracer(&fs);
  SessionResult traced;
  {
    semis::ScopedFileSystem scoped(&fs);
    if (!RunSession(&engine, updates, &tracer, ops, &traced)) {
      return Status::OK();
    }
    Tracer::Scope span(&tracer, "core.verify");
    VerifySet(engine.manifest_path(), true, traced.final_epoch->set(), ops,
              "verify traced final epoch");
  }
  ops->Check(SameSet(untraced.set, traced.final_epoch->set()),
             "traced session set differs from the untraced one");
  const uint64_t retries =
      traced.after.io.io_retries - traced.before.io.io_retries;
  ops->Check(retries == 0, "traced io_retries = " + std::to_string(retries));
  PutStreamLayers(w, traced, tracer, m);
  PutTracedCommon(tracer, retries, m);
  Put(m, "trace.overhead_ratio",
      Median(traced.epoch_s) / Median(untraced.epoch_s));
  ops->Check(engine.Close(), "engine close");
  return WriteTraceFiles(c, tracer);
}

Status RunStreamWorkload(const WorkloadSpec& w, const RunConfig& c,
                         Metrics* m, Ops* ops) {
  const size_t batches = std::max<size_t>(
      1, static_cast<size_t>(std::lround(kBatchesPerSecond * c.seconds)));
  // A traced run replays the stream twice, untraced then traced, each on
  // its own freshly set-up store.
  std::vector<double> setup_walls;
  SEMIS_RETURN_IF_ERROR(RepeatSetup(
      c, c.trace ? 2 : kSetupReps,
      [&](int, const std::string& dir) {
        return SetupStream(w, c, batches * kBatchSize, dir);
      },
      &setup_walls));
  // Every repeat must have made the same stream and initial set.
  const std::string dir0 = c.run_dir + "/setup0";
  uint64_t stream0 = 0, set0 = 0;
  ops->Check(FileDigest(StreamPath(dir0), &stream0), "digest set-up stream");
  ops->Check(FileDigest(InitialSetPath(dir0), &set0), "digest initial set");
  for (size_t k = 1; k < setup_walls.size(); ++k) {
    const std::string dir = c.run_dir + "/setup" + std::to_string(k);
    uint64_t stream = 0, set = 0;
    ops->Check(FileDigest(StreamPath(dir), &stream), "digest set-up stream");
    ops->Check(FileDigest(InitialSetPath(dir), &set), "digest initial set");
    ops->Check(stream == stream0 && set == set0,
               "determinism: set-up " + std::to_string(k) +
                   " made a different stream or initial set");
    if (!c.trace) SEMIS_RETURN_IF_ERROR(RemoveDir(dir));
  }

  SessionSample untraced;
  if (!ops->Check(SessionInChild(w, dir0, &untraced), "untraced session")) {
    return Status::OK();
  }
  ops->Add(untraced.n.attempted, untraced.n.failed);
  if (untraced.n.failed > 0) return Status::OK();
  VerifySet(StorePath(dir0), true, untraced.set, ops, "verify final epoch");
  ops->Check(untraced.n.io_retries == 0,
             "io_retries = " + std::to_string(untraced.n.io_retries));
  if (c.trace) {
    return RunStreamTraced(w, c, c.run_dir + "/setup1", untraced, m, ops);
  }
  const double session = untraced.n.session_s;
  const int tail = TailPercentile(untraced.epoch_s.size());
  Put(m, "setup_s", Median(setup_walls));
  Put(m, "peak_rss_mb", untraced.peak_rss_mb);
  Put(m, "solve_s", session);
  Put(m, "set_size", static_cast<double>(untraced.set.Count()));
  Put(m, "io_read_mb", Mb(untraced.n.bytes_read));
  Put(m, "io_total_mb", Mb(untraced.n.bytes_read + untraced.n.bytes_written));
  Put(m, "updates_per_s", untraced.n.updates / session);
  Put(m, "epoch_p50_ms", Median(untraced.epoch_s) * 1e3);
  Put(m, "epoch_tail_ms", Percentile(untraced.epoch_s, tail) * 1e3);
  std::fprintf(stderr,
               "perfbench: %zu epochs, tail percentile p%d, %llu "
               "compactions\n",
               untraced.epoch_s.size(), tail,
               static_cast<unsigned long long>(untraced.n.compactions));
  return Status::OK();
}

}  // namespace

uint32_t WorkloadThreads(const std::string& workload) {
  const WorkloadSpec* w = FindWorkload(workload);
  return w == nullptr ? 0 : w->threads;
}

const char* DurabilityPolicy() {
  return "shipped store policy: fsync plus directory fsync at every delta "
         "batch flush and epoch commit; inputs sit in the page cache";
}

Status RunWorkload(const RunConfig& config, Metrics* metrics, Ops* ops) {
  const WorkloadSpec* w = FindWorkload(config.workload);
  if (w == nullptr) {
    return Status::InvalidArgument("unknown workload " + config.workload);
  }
  // Every metric of the run's kind is printed; a layer the workload does
  // not exercise reads 0.
  if (config.trace) {
    for (const MetricDef& d : kLayerMetrics) Put(metrics, d.name, 0.0);
  }
  SEMIS_RETURN_IF_ERROR(w->stream ? RunStreamWorkload(*w, config, metrics, ops)
                                  : RunSolveWorkload(*w, config, metrics, ops));
  if (!config.trace) {
    Put(metrics, "ok_ratio",
        ops->attempted() == 0
            ? 0.0
            : 1.0 - static_cast<double>(ops->failed()) / ops->attempted());
  }
  return Status::OK();
}

}  // namespace perfbench
