// semis command-line tool: the operational entry point a downstream user
// drives from shell scripts. Wraps the library's pipelines:
//
//   semis_cli generate --vertices N [--beta B | --avg-degree D]
//                      [--seed S] --out graph.adj
//   semis_cli convert  <edges.txt> <graph.adj> [--memory-mb M]
//   semis_cli sort     <graph.adj> <graph.sadj> [--memory-mb M] [--fan-in K]
//   semis_cli shard    <graph.adj> <graph.sadjs> [--shards N]
//   semis_cli stats    <graph.adj>
//   semis_cli bound    <graph.adj>
//   semis_cli solve    <graph.adj|graph.sadjs>
//                      [--algo baseline|greedy|onek|twok]
//                      [--rounds R] [--shards N] [--threads T]
//                      [--out set.txt] [--verify]
//                      (the WHOLE pipeline -- greedy and the swap stage --
//                       runs over shards with T threads: a monolithic
//                       input becomes an N-shard store first, 0 = 1,
//                       degree-sorted straight into the shards when
//                       GREEDY order needs it; the result is
//                       byte-identical for every thread count.
//                       A SADJS manifest is consumed directly; when its
//                       degree-sorted flag is cleared -- e.g. by a
//                       compaction -- the sorted-order algorithms degrade
//                       to BASELINE order and a warning is printed.)
//   semis_cli cover    <graph.adj> [--out cover.txt]
//   semis_cli color    <graph.sadj> [--mis-rounds R]
//   semis_cli update   <graph.adj|graph.sadjs> --stream <updates.txt>
//                      [--shards N] [--threads T] [--batch B]
//                      [--compact-threshold E] [--compact] [--resort]
//                      [--set set.txt] [--out set.txt] [--verify]
//                      (maintains an independent set under the edge-update
//                       stream: batched apply -> parallel repair, and a
//                       compaction that folds each saturated shard's
//                       record ranges on T threads; the set and every
//                       store byte are identical for every thread count.
//                       A monolithic input is sharded to <input>.sadjs
//                       first; a SADJS manifest is updated in place. A
//                       shard whose delta log reaches E entries is
//                       compacted automatically, default 65536, 0 = off.
//                       --resort schedules the background re-sort: when a
//                       compaction clears the degree-sorted flag, the base
//                       shards are rewritten in (degree, id) order through
//                       the same atomic epoch commit.)
//   semis_cli engine   <graph.adj|graph.sadjs> --script <session.txt>
//                      [--algo baseline|greedy|onek|twok] [--rounds R]
//                      [--shards N] [--threads T] [--compact-threshold E]
//                      [--out set.txt] [--stats]
//                      (drives a resident MisEngine through a scripted
//                       open -> query -> update -> repair -> publish
//                       session; queries are served from immutable epoch
//                       snapshots that never block on mutation)
//   semis_cli unshard  <graph.sadjs> <graph.adj>
//   semis_cli fsck     <graph.sadjs> [--gc]
//                      (resolves a sharded store's root -- legacy SADM
//                       manifest or SEPR epoch root pointer -- validates
//                       the serving epoch, reports a fallback to the
//                       previous epoch, and lists files no live epoch
//                       references; --gc makes the fallback durable and
//                       removes the orphans)
//
// Every command is semi-external: O(|V|) memory, sequential file I/O.
//
// The update stream is a text file with one update per line:
//   + u v    insert edge (u, v)
//   - u v    delete edge (u, v)
// '#' starts a comment; blank lines are skipped.
//
// The engine session script adds lifecycle verbs to the same syntax:
//   + u v / - u v   queue an update
//   apply           ApplyBatch() the queued updates
//   repair          restore maximality of the successor state
//   compact         fold the pending delta into the base shards
//   publish         freeze the successor into a new served epoch
//   query v [v...]  membership queries against the CURRENT epoch
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/coloring.h"
#include "core/engine.h"
#include "core/incremental_stream.h"
#include "core/upper_bound.h"
#include "core/verify.h"
#include "core/vertex_cover.h"
#include "gen/plrg.h"
#include "graph/adjacency_file.h"
#include "graph/degree_sort.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "graph/shard_store.h"
#include "graph/sharded_adjacency_file.h"
#include "util/fan_out.h"
#include "util/memory_tracker.h"

namespace semis {
namespace cli {
namespace {

// One flag a command reads: its name without the dashes, the placeholder
// the usage line prints for its value (null for a flag that takes no
// value), and whether the command requires it.
struct FlagSpec {
  const char* name;
  const char* value = nullptr;
  bool required = false;
};

// One command: its positional arguments as the usage line prints them and
// every flag it reads. Args::Parse rejects any other flag, and PrintUsage
// prints from the same declarations.
struct CommandSpec {
  const char* name;
  const char* positional;
  std::vector<FlagSpec> flags;
};

// The solve flags `solve` and `engine` share (see ParseSolveFlags).
const FlagSpec kAlgoFlag{"algo", "baseline|greedy|onek|twok"};
const FlagSpec kRoundsFlag{"rounds", "R"};
const FlagSpec kShardsFlag{"shards", "N"};
const FlagSpec kThreadsFlag{"threads", "T"};

const std::vector<CommandSpec>& Commands() {
  static const std::vector<CommandSpec> commands = {
      {"generate",
       "",
       {{"vertices", "N", true},
        {"beta", "B"},
        {"avg-degree", "D"},
        {"seed", "S"},
        {"out", "F", true}}},
      {"convert", "<edges.txt> <graph.adj>", {{"memory-mb", "M"}}},
      {"sort",
       "<graph.adj> <graph.sadj>",
       {{"memory-mb", "M"}, {"fan-in", "K"}}},
      {"shard", "<graph.adj> <graph.sadjs>", {kShardsFlag}},
      {"stats", "<graph.adj>", {}},
      {"bound", "<graph.adj>", {}},
      {"solve",
       "<graph.adj|graph.sadjs>",
       {{"engine", "greedy|rounds"},
        kAlgoFlag,
        kRoundsFlag,
        kShardsFlag,
        kThreadsFlag,
        {"out", "set.txt"},
        {"verify"},
        {"stats"}}},
      {"cover", "<graph.adj>", {{"out", "cover.txt"}}},
      {"color", "<graph.sadj>", {{"mis-rounds", "R"}}},
      {"update",
       "<graph.adj|graph.sadjs>",
       {{"stream", "<updates.txt>", true},
        kShardsFlag,
        kThreadsFlag,
        {"batch", "B"},
        {"compact-threshold", "E"},
        {"compact"},
        {"resort"},
        {"set", "set.txt"},
        {"out", "set.txt"},
        {"verify"},
        {"stats"}}},
      {"engine",
       "<graph.adj|graph.sadjs>",
       {{"script", "<session.txt>", true},
        kAlgoFlag,
        kRoundsFlag,
        kShardsFlag,
        kThreadsFlag,
        {"compact-threshold", "E"},
        {"out", "set.txt"},
        {"stats"}}},
      {"unshard", "<graph.sadjs> <graph.adj>", {}},
      {"fsck", "<graph.sadjs>", {{"gc"}}},
  };
  return commands;
}

const CommandSpec* FindCommand(const std::string& name) {
  for (const CommandSpec& command : Commands()) {
    if (name == command.name) return &command;
  }
  return nullptr;
}

void PrintUsage(std::FILE* to) {
  std::fprintf(to, "usage: semis_cli <command> [args]\n");
  for (const CommandSpec& command : Commands()) {
    std::string line = "  " + std::string(command.name);
    line.resize(11, ' ');
    line += command.positional;
    for (const FlagSpec& flag : command.flags) {
      if (line.back() != ' ') line += ' ';
      if (!flag.required) line += '[';
      line.append("--").append(flag.name);
      if (flag.value != nullptr) line.append(" ").append(flag.value);
      if (!flag.required) line += ']';
    }
    std::fprintf(to, "%s\n", line.c_str());
  }
}

// Bad usage (missing/unknown command or arguments) is an error: print the
// usage to stderr and exit non-zero. Only an explicit help request prints
// to stdout and exits 0.
int Usage() {
  PrintUsage(stderr);
  return 1;
}

// Tiny flag parser: positional args + the --key [value] flags the command
// declares. A --help/-h in flag position (not consumed as the value of a
// preceding --key) requests usage output.
struct Args {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> flags;
  bool help = false;

  // False, after printing an error that names the flag and `command`,
  // when a flag is not one `command` reads or lacks its value; a help
  // request anywhere still wins.
  static bool Parse(int argc, char** argv, int start,
                    const CommandSpec& command, Args* a) {
    std::string error;
    for (int i = start; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        a->help = true;
      } else if (arg.rfind("--", 0) == 0) {
        std::string key = arg.substr(2);
        const auto spec = std::find_if(
            command.flags.begin(), command.flags.end(),
            [&](const FlagSpec& f) { return key == f.name; });
        std::string value = "1";
        if (spec == command.flags.end()) {
          if (error.empty()) {
            error = "unknown flag " + arg + " for command '" +
                    command.name + "'";
          }
        } else if (spec->value != nullptr) {
          if (i + 1 < argc) {
            value = argv[++i];
          } else if (error.empty()) {
            error = "flag " + arg + " of command '" + command.name +
                    "' needs a value";
          }
        }
        a->flags.emplace_back(key, value);
      } else {
        a->positional.push_back(arg);
      }
    }
    if (a->help || error.empty()) return true;
    std::fprintf(stderr, "error: %s (see `semis_cli help`)\n",
                 error.c_str());
    return false;
  }

  std::string Get(const std::string& key, const std::string& def = "") const {
    for (const auto& [k, v] : flags) {
      if (k == key) return v;
    }
    return def;
  }
  bool Has(const std::string& key) const {
    for (const auto& [k, v] : flags) {
      if (k == key) return true;
    }
    return false;
  }
};

int Fail(const Status& s) {
  std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
  return 1;
}

constexpr uint64_t kMaxU32 = 0xFFFFFFFFull;
constexpr uint64_t kMaxU64 = ~0ull;

// Parses the integer flag --`key` (`def` when absent) into `*out`: plain
// decimal digits in [min, max]. Signs, garbage and overflow are rejected
// -- not read as 0 or wrapped through an unsigned cast -- with an error
// that names the flag.
template <typename T>
bool ParseCount(const Args& args, const char* key, const char* def,
                uint64_t min, uint64_t max, T* out) {
  const std::string text = args.Get(key, def);
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' ||
      errno == ERANGE || v < min || v > max) {
    std::fprintf(stderr,
                 "error: --%s must be an integer in [%llu, %llu], got '%s'\n",
                 key, static_cast<unsigned long long>(min),
                 static_cast<unsigned long long>(max), text.c_str());
    return false;
  }
  *out = static_cast<T>(v);
  return true;
}

// Parses the real-valued flag --`key` (`def` when absent) into `*out`:
// a finite number with nothing after it, else an error naming the flag.
bool ParseReal(const Args& args, const char* key, const char* def,
               double* out) {
  const std::string text = args.Get(key, def);
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(*out)) {
    std::fprintf(stderr, "error: --%s must be a number, got '%s'\n", key,
                 text.c_str());
    return false;
  }
  return true;
}

// The --memory-mb budget in bytes (64 MiB when absent).
bool ParseMemoryBudget(const Args& args, size_t* bytes) {
  if (!ParseCount(args, "memory-mb", "64", 1, kMaxU32, bytes)) return false;
  *bytes <<= 20;
  return true;
}

Status WriteSetText(const BitVector& set, const std::string& path) {
  SequentialFileWriter w;
  SEMIS_RETURN_IF_ERROR(w.Open(path));
  char line[32];
  for (size_t v = 0; v < set.size(); ++v) {
    if (set.Test(v)) {
      int n = std::snprintf(line, sizeof(line), "%zu\n", v);
      SEMIS_RETURN_IF_ERROR(w.Append(line, static_cast<size_t>(n)));
    }
  }
  return w.Close();
}

int CmdGenerate(const Args& args) {
  if (!args.Has("vertices") || !args.Has("out")) return Usage();
  uint64_t n = 0, seed = 0;
  if (!ParseCount(args, "vertices", "", 1, kMaxU32, &n) ||
      !ParseCount(args, "seed", "42", 0, kMaxU64, &seed)) {
    return 1;
  }
  double shape = 0.0;
  const bool by_degree = args.Has("avg-degree");
  if (!ParseReal(args, by_degree ? "avg-degree" : "beta", "2.0", &shape)) {
    return 1;
  }
  const PlrgSpec spec = by_degree
                            ? PlrgSpec::ForVerticesAndAvgDegree(n, shape)
                            : PlrgSpec::ForVertexCount(n, shape);
  Graph g = GeneratePlrg(spec, seed);
  Status s = WriteGraphToAdjacencyFile(g, args.Get("out"));
  if (!s.ok()) return Fail(s);
  std::printf("wrote %s: %u vertices, %llu edges (alpha=%.2f beta=%.2f)\n",
              args.Get("out").c_str(), g.NumVertices(),
              static_cast<unsigned long long>(g.NumEdges()), spec.alpha,
              spec.beta);
  return 0;
}

int CmdConvert(const Args& args) {
  if (args.positional.size() != 2) return Usage();
  EdgeListConvertOptions opts;
  if (!ParseMemoryBudget(args, &opts.memory_budget_bytes)) return 1;
  IoStats io;
  opts.stats = &io;
  Status s = ConvertEdgeListToAdjacencyFile(args.positional[0],
                                            args.positional[1], opts);
  if (!s.ok()) return Fail(s);
  std::printf("converted %s -> %s (%s read, %s written)\n",
              args.positional[0].c_str(), args.positional[1].c_str(),
              MemoryTracker::FormatBytes(io.bytes_read).c_str(),
              MemoryTracker::FormatBytes(io.bytes_written).c_str());
  return 0;
}

int CmdSort(const Args& args) {
  if (args.positional.size() != 2) return Usage();
  DegreeSortOptions opts;
  if (!ParseMemoryBudget(args, &opts.memory_budget_bytes) ||
      !ParseCount(args, "fan-in", "16", 2, kMaxU32, &opts.fan_in)) {
    return 1;
  }
  IoStats io;
  opts.stats = &io;
  Status s = BuildDegreeSortedAdjacencyFile(args.positional[0],
                                            args.positional[1], opts);
  if (!s.ok()) return Fail(s);
  std::printf("degree-sorted %s -> %s (%llu sort passes)\n",
              args.positional[0].c_str(), args.positional[1].c_str(),
              static_cast<unsigned long long>(io.sort_passes));
  return 0;
}

// The degree-sorted-flag warning shared by solve/update/engine: a cleared
// flag (typically a compaction that changed record degrees) silently
// demotes GREEDY to BASELINE order until the store is re-sorted.
// `resort_status` tells the operator where the background re-sort stands
// ("scheduled ...", "not scheduled ...").
void WarnNotDegreeSorted(const std::string& manifest_path,
                         const std::string& resort_status) {
  std::fprintf(
      stderr,
      "warning: %s is not degree-sorted (the flag was cleared, e.g. by a "
      "compaction); sorted-order algorithms run in BASELINE order and set "
      "quality may degrade. Background re-sort: %s.\n",
      manifest_path.c_str(), resort_status.c_str());
}

// What WarnNotDegreeSorted reports when no re-sort is coming.
const char kResortNotScheduled[] =
    "not scheduled (run `semis_cli update --resort` to restore GREEDY "
    "order)";

// The solve flags `solve` and `engine` share: --algo (degree order and
// swap stage), --rounds, --shards and --threads. A store whose
// degree-sorted flag was cleared cannot run the sorted-order algorithms,
// so they degrade to BASELINE order -- loudly. False (after printing the
// reason) on a bad flag or an unreadable store.
bool ParseSolveFlags(const Args& args, bool is_manifest,
                     MisEngineOptions* opts) {
  const std::string algo = args.Get("algo", "twok");
  if (algo == "baseline") {
    opts->degree_sort = false;
    opts->swap = SwapMode::kNone;
  } else if (algo == "greedy") {
    opts->swap = SwapMode::kNone;
  } else if (algo == "onek") {
    opts->swap = SwapMode::kOneK;
  } else if (algo == "twok") {
    opts->swap = SwapMode::kTwoK;
  } else {
    Usage();
    return false;
  }
  if (!ParseCount(args, "rounds", "0", 0, kMaxU32, &opts->max_swap_rounds) ||
      !ParseCount(args, "shards", "0", 0, kMaxAdjacencyShards,
                  &opts->pipeline.num_shards) ||
      !ParseCount(args, "threads", "1", 0, 4096,
                  &opts->pipeline.num_threads)) {
    return false;
  }
  if (is_manifest && opts->degree_sort) {
    ShardedAdjacencyManifest manifest;
    Status s = ReadShardStoreManifest(args.positional[0], &manifest);
    if (!s.ok()) {
      Fail(s);
      return false;
    }
    if (!manifest.header.IsDegreeSorted()) {
      WarnNotDegreeSorted(args.positional[0], kResortNotScheduled);
      opts->degree_sort = false;
    }
  }
  return true;
}

int CmdShard(const Args& args) {
  if (args.positional.size() != 2) return Usage();
  uint32_t num_shards = 0;
  if (!ParseCount(args, "shards", "8", 1, kMaxAdjacencyShards, &num_shards)) {
    return 1;
  }
  IoStats io;
  Status s = ShardAdjacencyFile(args.positional[0], args.positional[1],
                                num_shards, &io);
  if (!s.ok()) return Fail(s);
  ShardedAdjacencyManifest manifest;
  s = ReadShardedAdjacencyManifest(args.positional[1], &manifest);
  if (!s.ok()) return Fail(s);
  std::printf("sharded %s -> %s (%u shards)\n", args.positional[0].c_str(),
              args.positional[1].c_str(), manifest.num_shards());
  for (uint32_t i = 0; i < manifest.num_shards(); ++i) {
    std::printf("  shard %-3u: %llu records, %llu directed edges\n", i,
                static_cast<unsigned long long>(
                    manifest.shards[i].num_records),
                static_cast<unsigned long long>(
                    manifest.shards[i].num_directed_edges));
  }
  return 0;
}

int CmdStats(const Args& args) {
  if (args.positional.size() != 1) return Usage();
  GraphStats stats;
  Status s = ComputeGraphStatsFromFile(args.positional[0], &stats);
  if (!s.ok()) return Fail(s);
  std::printf("vertices      : %llu\n",
              static_cast<unsigned long long>(stats.num_vertices));
  std::printf("edges         : %llu\n",
              static_cast<unsigned long long>(stats.num_edges));
  std::printf("degree min/avg/max : %u / %.2f / %u\n", stats.min_degree,
              stats.avg_degree, stats.max_degree);
  std::printf("isolated      : %llu\n",
              static_cast<unsigned long long>(stats.isolated_vertices));
  std::printf("power-law fit : beta=%.2f alpha=%.2f\n", stats.EstimateBeta(),
              stats.EstimateAlpha());
  return 0;
}

int CmdBound(const Args& args) {
  if (args.positional.size() != 1) return Usage();
  uint64_t bound = 0;
  IoStats io;
  Status s =
      ComputeIndependenceUpperBoundFile(args.positional[0], &bound, &io);
  if (!s.ok()) return Fail(s);
  std::printf("independence number <= %llu (1 scan, %s read)\n",
              static_cast<unsigned long long>(bound),
              MemoryTracker::FormatBytes(io.bytes_read).c_str());
  // Algorithm 5's stars follow record order, so the bound is only as
  // tight as the paper's on a degree-sorted file.
  AdjacencyFileScanner header;
  if (header.Open(args.positional[0]).ok() &&
      !header.header().IsDegreeSorted()) {
    std::fprintf(stderr,
                 "warning: %s is not flagged degree-sorted; the bound "
                 "depends on record order and is tightest on a "
                 "degree-sorted file (`semis_cli sort` writes one)\n",
                 args.positional[0].c_str());
  }
  return 0;
}

int CmdSolve(const Args& args) {
  if (args.positional.size() != 1) return Usage();
  MisEngineOptions opts;
  // --engine picks the initial-set engine; --algo keeps selecting the
  // swap stage (and, for the greedy engine, GREEDY vs BASELINE order).
  const std::string engine_name = args.Get("engine", "greedy");
  if (engine_name == "rounds") {
    opts.pipeline.engine = SolveEngine::kRounds;
    // Min-id rounds are record-order-free: never sort a monolithic
    // input, never demand (or warn about) a sorted manifest.
    opts.degree_sort = false;
  } else if (engine_name != "greedy") {
    std::fprintf(stderr, "error: unknown --engine '%s' (greedy|rounds)\n",
                 engine_name.c_str());
    return 1;
  }
  // A SADJS manifest is consumed directly (the file fixes the shard
  // count); a monolithic file becomes a --shards shard store (0 = 1).
  bool is_manifest = false;
  Status probe = ProbeShardStoreRoot(args.positional[0], &is_manifest);
  if (!probe.ok()) return Fail(probe);
  if (!ParseSolveFlags(args, is_manifest, &opts)) return 1;
  opts.verify = args.Has("verify");
  MisEngine engine(opts);
  Status s = engine.Open(args.positional[0]);
  if (!s.ok()) return Fail(s);
  const SolveResult& res = engine.open_result();
  const bool rounds_engine = opts.pipeline.engine == SolveEngine::kRounds;
  const AlgoResult& first_stage = rounds_engine ? res.rounds : res.greedy;
  std::printf("independent set: %llu vertices\n",
              static_cast<unsigned long long>(res.set_size));
  std::printf("  %s stage : %llu, swaps added %llu in %llu rounds\n",
              rounds_engine ? "rounds" : "greedy",
              static_cast<unsigned long long>(first_stage.set_size),
              static_cast<unsigned long long>(res.set_size -
                                              first_stage.set_size),
              static_cast<unsigned long long>(res.swap.rounds));
  std::printf("  time %.2fs, peak memory %s, %llu scans, %s read\n",
              res.seconds,
              MemoryTracker::FormatBytes(res.peak_memory_bytes).c_str(),
              static_cast<unsigned long long>(res.io.sequential_scans),
              MemoryTracker::FormatBytes(res.io.bytes_read).c_str());
  // The thread count the run used: --threads 0 means one per CPU.
  const uint32_t threads = ResolveThreadCount(opts.pipeline.num_threads);
  if (!is_manifest) {
    std::printf("  sharded pipeline: %u shards, %u threads, built in %.2fs\n",
                std::max<uint32_t>(1, opts.pipeline.num_shards), threads,
                res.shard_seconds);
  }
  if (args.Has("stats")) {
    // Whether the consumed records were degree-sorted (GREEDY order) --
    // false on BASELINE runs and on manifests whose flag was cleared.
    std::printf("  degree_sorted=%s\n", res.degree_sorted ? "true" : "false");
    // The preprocessing sort only runs on unsorted monolithic input.
    if (res.sort_seconds > 0.0) {
      std::printf("  sort           : %.2fs\n", res.sort_seconds);
    } else {
      std::printf("  sort           : skipped\n");
    }
    if (opts.swap != SwapMode::kNone) {
      // The swap stage's own I/O. Like its rounds, its scan count depends
      // on the graph and the shard count, never on the thread count.
      std::printf("  swap stage     : %llu rounds, %llu scans, %s read\n",
                  static_cast<unsigned long long>(res.swap.rounds),
                  static_cast<unsigned long long>(
                      res.swap.io.sequential_scans),
                  MemoryTracker::FormatBytes(res.swap.io.bytes_read).c_str());
    }
    if (rounds_engine) {
      // Every counter here is a pure function of the graph, so the line
      // is identical at every shard/thread count (the smoke test holds
      // it to that). The solve pipeline never caps engine rounds, so
      // final frontier printing anything but 0 means the run is broken.
      const uint64_t final_frontier =
          res.rounds.round_stats.empty()
              ? 0
              : res.rounds.round_stats.back().frontier_after;
      std::printf("  rounds engine  : %llu rounds, %llu winners, "
                  "final frontier %llu\n",
                  static_cast<unsigned long long>(res.rounds.rounds),
                  static_cast<unsigned long long>(res.rounds.set_size),
                  static_cast<unsigned long long>(final_frontier));
    }
    // Shard-decode counters. records_decoded spans EVERY shard scan (the
    // initial engine's passes plus each swap round's rescans).
    const double decode_seconds =
        res.greedy.seconds + res.rounds.seconds + res.swap.seconds > 0.0
            ? res.greedy.seconds + res.rounds.seconds + res.swap.seconds
            : res.seconds;
    const double records_per_sec =
        decode_seconds > 0.0
            ? static_cast<double>(res.io.records_decoded) / decode_seconds
            : 0.0;
    std::printf("  decode pipeline: %llu records over all shard scans "
                "(%.0f records/s)\n",
                static_cast<unsigned long long>(res.io.records_decoded),
                records_per_sec);
  }
  if (args.Has("out")) {
    s = WriteSetText(res.set, args.Get("out"));
    if (!s.ok()) return Fail(s);
    std::printf("  members written to %s\n", args.Get("out").c_str());
  }
  return 0;
}

int CmdCover(const Args& args) {
  if (args.positional.size() != 1) return Usage();
  VertexCoverResult res;
  Status s =
      ComputeVertexCoverFile(args.positional[0], MisEngineOptions{}, &res);
  if (!s.ok()) return Fail(s);
  std::printf("vertex cover: %llu vertices (complement of a %llu-vertex "
              "independent set)\n",
              static_cast<unsigned long long>(res.cover_size),
              static_cast<unsigned long long>(res.mis.set_size));
  if (args.Has("out")) {
    s = WriteSetText(res.cover, args.Get("out"));
    if (!s.ok()) return Fail(s);
    std::printf("  members written to %s\n", args.Get("out").c_str());
  }
  return 0;
}

int CmdColor(const Args& args) {
  if (args.positional.size() != 1) return Usage();
  ColoringOptions opts;
  if (!ParseCount(args, "mis-rounds", "8", 0, kMaxU32, &opts.max_mis_rounds)) {
    return 1;
  }
  ColoringResult res;
  Status s = ComputeGreedyColoringFile(args.positional[0], opts, &res);
  if (!s.ok()) return Fail(s);
  uint64_t conflicts = 0;
  s = VerifyColoringFile(args.positional[0], res.color, &conflicts);
  if (!s.ok()) return Fail(s);
  std::printf("coloring: %u colors (%llu vertices via MIS rounds), "
              "verified %s\n",
              res.num_colors,
              static_cast<unsigned long long>(res.colored_by_mis),
              conflicts == 0 ? "proper" : "IMPROPER");
  return conflicts == 0 ? 0 : 1;
}

// Forward-only reader of the line-oriented text inputs: update streams
// and engine session scripts (see the file comment for both formats).
// Reads whole lines of any length, skips blank and '#' lines, parses the
// `+ u v` / `- u v` updates both formats share, and names the file and
// line number in every error. O(1) memory, so `update` can consume
// streams far larger than RAM.
class LineFileReader {
 public:
  /// `kind` names the input in errors ("update stream").
  explicit LineFileReader(std::string kind) : kind_(std::move(kind)) {}
  ~LineFileReader() {
    if (f_ != nullptr) std::fclose(f_);
  }
  LineFileReader(const LineFileReader&) = delete;
  LineFileReader& operator=(const LineFileReader&) = delete;

  Status Open(const std::string& path) {
    f_ = std::fopen(path.c_str(), "r");
    if (f_ == nullptr) {
      return Status::NotFound("cannot open " + kind_ + " '" + path + "'");
    }
    path_ = path;
    return Status::OK();
  }

  /// Points `*p` at the next line that is neither blank nor a comment,
  /// leading whitespace skipped. False at end of file.
  bool NextLine(const char** p) {
    while (ReadLine()) {
      line_no_++;
      const char* q = line_.c_str();
      while (*q == ' ' || *q == '\t') q++;
      if (*q == '\0' || *q == '#') continue;
      *p = q;
      return true;
    }
    return false;
  }

  /// Parses the next update of an update stream; `*has_next` is false at
  /// end of file.
  Status NextUpdate(EdgeUpdate* update, bool* has_next) {
    const char* p = nullptr;
    *has_next = NextLine(&p);
    return *has_next ? ParseUpdate(p, update) : Status::OK();
  }

  /// Parses the update at `p` (the op character of the current line).
  Status ParseUpdate(const char* p, EdgeUpdate* update) const {
    const char op = *p++;
    if (op != '+' && op != '-') return LineError("expected '+' or '-'");
    char* end = nullptr;
    unsigned long long u = std::strtoull(p, &end, 10);
    if (end == p) return LineError("missing vertex ids");
    p = end;
    unsigned long long v = std::strtoull(p, &end, 10);
    if (end == p) return LineError("missing second vertex id");
    if (u > 0xFFFFFFFFull || v > 0xFFFFFFFFull) {
      return LineError("vertex id does not fit 32 bits");
    }
    *update = (op == '+') ? EdgeUpdate::Insert(static_cast<VertexId>(u),
                                               static_cast<VertexId>(v))
                          : EdgeUpdate::Delete(static_cast<VertexId>(u),
                                               static_cast<VertexId>(v));
    return Status::OK();
  }

  /// InvalidArgument naming the file and the current line.
  Status LineError(const std::string& what) const {
    return Status::InvalidArgument(kind_ + " '" + path_ + "' line " +
                                   std::to_string(line_no_) + ": " + what);
  }

 private:
  // Reads one whole line into line_ (newline stripped); false at EOF.
  bool ReadLine() {
    line_.clear();
    char chunk[256];
    while (std::fgets(chunk, sizeof(chunk), f_) != nullptr) {
      line_.append(chunk);
      if (!line_.empty() && line_.back() == '\n') {
        line_.pop_back();
        return true;
      }
    }
    return !line_.empty();  // a last line without a newline
  }

  std::string kind_;
  std::FILE* f_ = nullptr;
  std::string path_;
  std::string line_;
  uint64_t line_no_ = 0;
};

// Reads a one-id-per-line set file (the format WriteSetText emits) into a
// bit vector of `n` bits.
Status ReadSetText(const std::string& path, uint64_t n, BitVector* out) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return Status::NotFound("cannot open set file '" + path + "'");
  }
  BitVector set(n);
  char line[64];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    char* end = nullptr;
    unsigned long long v = std::strtoull(line, &end, 10);
    if (end == line) continue;  // blank line
    if (v >= n) {
      std::fclose(f);
      return Status::InvalidArgument("set file '" + path +
                                     "' holds an out-of-range vertex id");
    }
    set.Set(static_cast<size_t>(v));
  }
  std::fclose(f);
  *out = std::move(set);
  return Status::OK();
}

// Degraded-store note next to the failure that tripped it: the session
// is aborting, but the store still serves its last published epoch and
// `fsck` will confirm it is clean -- worth saying out loud so an
// operator does not reach for a restore they do not need.
void NoteEngineDegraded(const MisEngine& engine) {
  if (!engine.read_only()) return;
  std::fprintf(stderr,
               "note: engine degraded to read-only; the last published "
               "epoch remains valid (%s)\n",
               engine.degraded_reason().ToString().c_str());
}

int CmdUpdate(const Args& args) {
  if (args.positional.size() != 1 || !args.Has("stream")) return Usage();
  const std::string input = args.positional[0];
  uint32_t num_shards = 0, num_threads = 0, batch = 0;
  uint64_t compact_threshold = 0;
  // Auto-compaction defaults ON so the pending delta (in memory and on
  // disk) stays bounded no matter how long the stream runs; 0 disables.
  if (!ParseCount(args, "shards", "8", 1, kMaxAdjacencyShards, &num_shards) ||
      !ParseCount(args, "threads", "1", 0, 4096, &num_threads) ||
      !ParseCount(args, "batch", "1024", 1, 1 << 30, &batch) ||
      !ParseCount(args, "compact-threshold", "65536", 0, kMaxU64,
                  &compact_threshold)) {
    return 1;
  }
  const bool compact = args.Has("compact");
  const bool resort = args.Has("resort");
  if (args.Has("verify") && !compact) {
    std::fprintf(stderr,
                 "error: --verify needs --compact (verification scans the "
                 "base shards, so the delta must be folded in first)\n");
    return 1;
  }

  // A SADJS manifest is updated in place; a monolithic file is sharded
  // next to itself first. The choice is made on the file's magic -- a
  // file that CLAIMS to be a manifest but fails to parse must surface its
  // real diagnosis (e.g. a torn compaction), not fall through to a
  // misleading "not an adjacency file" from the sharder.
  std::string manifest_path = input;
  ShardedAdjacencyManifest manifest;
  bool is_store = false;
  Status probe = ProbeShardStoreRoot(input, &is_store);
  if (!probe.ok()) return Fail(probe);
  if (is_store) {
    Status s = ReadShardStoreManifest(input, &manifest);
    if (!s.ok()) return Fail(s);
  } else {
    manifest_path = input + ".sadjs";
    Status s = ShardAdjacencyFile(input, manifest_path, num_shards);
    if (!s.ok()) return Fail(s);
    s = ReadShardedAdjacencyManifest(manifest_path, &manifest);
    if (!s.ok()) return Fail(s);
    std::printf("sharded %s -> %s (%u shards)\n", input.c_str(),
                manifest_path.c_str(), manifest.num_shards());
  }

  // The GREEDY-quality trap: a compaction may have cleared the sorted
  // flag since the graph was sharded. The maintenance loop below is
  // order-insensitive, but the from-scratch initial solve is not.
  const bool opened_sorted = manifest.header.IsDegreeSorted();
  if (!opened_sorted) {
    WarnNotDegreeSorted(manifest_path,
                        resort ? "scheduled (runs after the stream)"
                               : kResortNotScheduled);
  }

  // The whole session runs on one resident engine: open (solve or adopt
  // a set) -> apply/repair per batch -> publish each repaired state as a
  // served epoch.
  MisEngineOptions eopts;
  eopts.degree_sort = manifest.header.IsDegreeSorted();
  eopts.swap = SwapMode::kNone;
  eopts.pipeline.num_threads = num_threads;
  eopts.pipeline.compact_threshold_entries = compact_threshold;
  // With --resort, every compaction that clears the degree-sorted flag
  // immediately restores it through the same epoch commit.
  eopts.pipeline.auto_resort = resort;
  MisEngine engine(eopts);
  if (args.Has("set")) {
    BitVector initial;
    Status s = ReadSetText(args.Get("set"), manifest.header.num_vertices,
                           &initial);
    if (!s.ok()) return Fail(s);
    s = engine.OpenSharded(manifest_path, initial);
    if (!s.ok()) return Fail(s);
  } else {
    Status s = engine.Open(manifest_path);
    if (!s.ok()) return Fail(s);
    std::printf("initial set: %llu vertices (sharded %s)\n",
                static_cast<unsigned long long>(
                    engine.open_result().set_size),
                eopts.degree_sort ? "greedy" : "baseline greedy");
  }
  // Bind the mutation arm now (and replay any previous session's
  // overlay) so init I/O is not charged to the first batch.
  Status s = engine.Prepare();
  if (!s.ok()) return Fail(s);
  // A set solved here on the base graph is maximal on the effective graph
  // unless a replayed overlay entry changed it; an adopted set may not be
  // maximal at all.
  const bool needs_repair = args.Has("set") ||
                            engine.streaming_stats()->pending_delta_entries > 0;

  LineFileReader stream("update stream");
  s = stream.Open(args.Get("stream"));
  if (!s.ok()) return Fail(s);

  // Batched apply -> repair -> publish, the amortized maintenance loop.
  // The stream is parsed incrementally, one batch in memory at a time.
  std::vector<EdgeUpdate> batch_updates;
  batch_updates.reserve(batch);
  bool drained = false;
  bool repaired = false;
  while (!drained) {
    batch_updates.clear();
    while (batch_updates.size() < batch) {
      EdgeUpdate update;
      bool has_next = false;
      s = stream.NextUpdate(&update, &has_next);
      if (!s.ok()) return Fail(s);
      if (!has_next) {
        drained = true;
        break;
      }
      batch_updates.push_back(update);
    }
    if (batch_updates.empty()) break;
    s = engine.ApplyBatch(batch_updates);
    if (!s.ok()) {
      NoteEngineDegraded(engine);
      return Fail(s);
    }
    s = engine.Repair();
    if (!s.ok()) {
      NoteEngineDegraded(engine);
      return Fail(s);
    }
    repaired = true;
    engine.Publish();
  }
  // With no batch, nothing repaired the evictions Prepare replayed from a
  // previous session's overlay, or an adopted set.
  if (!repaired && needs_repair) {
    s = engine.Repair();
    if (!s.ok()) {
      NoteEngineDegraded(engine);
      return Fail(s);
    }
  }
  if (compact) {
    s = engine.Compact(/*force=*/true);
    if (!s.ok()) {
      NoteEngineDegraded(engine);
      return Fail(s);
    }
  }
  if (resort) {
    // Covers a flag cleared before this session too, not only by this
    // session's compactions (which auto_resort already handled).
    s = engine.Resort();
    if (!s.ok()) {
      NoteEngineDegraded(engine);
      return Fail(s);
    }
  }
  // Surface whatever the last batch (or a replayed overlay) left behind.
  EpochSnapshotRef final_epoch = engine.Publish();

  const StreamingMisStats& st = *engine.streaming_stats();
  // Where the degree-sorted contract stands after the session, on stderr
  // next to the open-time warning it resolves (or renews).
  ShardedAdjacencyManifest now;
  s = ReadShardStoreManifest(manifest_path, &now);
  if (!s.ok()) return Fail(s);
  if (st.resorts > 0) {
    std::fprintf(stderr,
                 "note: background re-sort complete: %llu pass(es) in %.2fs; "
                 "degree-sorted order %s\n",
                 static_cast<unsigned long long>(st.resorts),
                 st.resort_seconds,
                 now.header.IsDegreeSorted() ? "restored" : "NOT restored");
  } else if (opened_sorted && !now.header.IsDegreeSorted()) {
    // A compaction cleared the flag during THIS session and nothing
    // restored it.
    WarnNotDegreeSorted(manifest_path, kResortNotScheduled);
  }
  std::printf("maintained set: %llu vertices after %llu updates\n",
              static_cast<unsigned long long>(final_epoch->set_size()),
              static_cast<unsigned long long>(st.updates_applied));
  std::printf("  %llu inserts, %llu deletes, %llu redundant, "
              "%llu evictions\n",
              static_cast<unsigned long long>(st.inserts),
              static_cast<unsigned long long>(st.deletes),
              static_cast<unsigned long long>(st.redundant_updates),
              static_cast<unsigned long long>(st.evictions));
  std::printf("  %llu repair passes (%llu full) re-added %llu vertices in "
              "%.2fs (apply %.2fs)",
              static_cast<unsigned long long>(st.repair_passes),
              static_cast<unsigned long long>(st.full_repair_passes),
              static_cast<unsigned long long>(st.repair_added),
              st.repair_seconds, st.apply_seconds);
  if (args.Has("stats")) {
    // Frontier candidates the blocker bound showed blocked, unread.
    std::printf("; %llu candidate reads skipped",
                static_cast<unsigned long long>(st.candidates_skipped));
  }
  std::printf("\n");
  std::printf("  %llu compactions rewrote %llu shards in %.2fs; "
              "%llu delta entries pending\n",
              static_cast<unsigned long long>(st.compactions),
              static_cast<unsigned long long>(st.shards_rewritten),
              st.compact_seconds,
              static_cast<unsigned long long>(st.pending_delta_entries));
  std::printf("  peak memory %s, %llu scans, %s read, %s written\n",
              MemoryTracker::FormatBytes(st.peak_memory_bytes).c_str(),
              static_cast<unsigned long long>(st.io.sequential_scans),
              MemoryTracker::FormatBytes(st.io.bytes_read).c_str(),
              MemoryTracker::FormatBytes(st.io.bytes_written).c_str());
  if (args.Has("stats")) {
    // Compact/resort may have changed the flag during THIS session;
    // report the manifest's current state, not the one we opened with.
    std::printf("  degree_sorted=%s\n",
                now.header.IsDegreeSorted() ? "true" : "false");
    const EpochStats& es = final_epoch->stats();
    std::printf("  epoch %llu: %llu batches, %llu updates, %llu repair "
                "passes re-added %llu (apply %.2fs, repair %.2fs)\n",
                static_cast<unsigned long long>(final_epoch->epoch()),
                static_cast<unsigned long long>(es.batches),
                static_cast<unsigned long long>(es.updates),
                static_cast<unsigned long long>(es.repair_passes),
                static_cast<unsigned long long>(es.repair_added),
                es.apply_seconds, es.repair_seconds);
  }

  if (args.Has("verify")) {
    VerifyResult vr;
    s = VerifyIndependentSetShardedFile(manifest_path, final_epoch->set(),
                                        &vr);
    if (!s.ok()) return Fail(s);
    if (!vr.independent || !vr.maximal) {
      std::fprintf(stderr, "error: maintained set is %s\n",
                   !vr.independent ? "not independent" : "not maximal");
      return 1;
    }
    std::printf("  verified independent + maximal\n");
  }
  if (args.Has("out")) {
    s = WriteSetText(final_epoch->set(), args.Get("out"));
    if (!s.ok()) return Fail(s);
    std::printf("  members written to %s\n", args.Get("out").c_str());
  }
  return 0;
}

// Drives a resident MisEngine through a scripted lifecycle session:
// open -> (queue updates | apply | repair | compact | publish | query)*.
// Queries are answered from the engine's CURRENT epoch snapshot, so a
// `query` between `repair` and `publish` still sees the previous epoch --
// exactly the reader contract the library documents. Output is one line
// per lifecycle verb, deterministic for a given script.
int CmdEngine(const Args& args) {
  if (args.positional.size() != 1 || !args.Has("script")) return Usage();
  MisEngineOptions opts;
  if (!ParseCount(args, "compact-threshold", "65536", 0, kMaxU64,
                  &opts.pipeline.compact_threshold_entries)) {
    return 1;
  }
  bool is_store = false;
  Status probe = ProbeShardStoreRoot(args.positional[0], &is_store);
  if (!probe.ok()) return Fail(probe);
  if (!ParseSolveFlags(args, is_store, &opts)) return 1;

  MisEngine engine(opts);
  Status s = engine.Open(args.positional[0]);
  if (!s.ok()) return Fail(s);
  {
    EpochSnapshotRef snap = engine.Snapshot();
    std::printf("opened %s: epoch %llu, %llu vertices in set\n",
                args.positional[0].c_str(),
                static_cast<unsigned long long>(snap->epoch()),
                static_cast<unsigned long long>(snap->set_size()));
  }

  LineFileReader script("session script");
  s = script.Open(args.Get("script"));
  if (!s.ok()) return Fail(s);

  std::vector<EdgeUpdate> queued;
  const char* p = nullptr;
  while (script.NextLine(&p)) {
    if (*p == '+' || *p == '-') {
      EdgeUpdate update;
      s = script.ParseUpdate(p, &update);
      if (!s.ok()) return Fail(s);
      queued.push_back(update);
      continue;
    }

    // Verb = first whitespace-delimited word.
    const char* word_end = p;
    while (*word_end != '\0' && *word_end != ' ' && *word_end != '\t') {
      word_end++;
    }
    std::string verb(p, static_cast<size_t>(word_end - p));
    // A mutating verb that fails on a degraded (read-only) engine does
    // NOT abort the session: the whole point of degraded mode is that
    // reads keep working, so the script's queries and publishes run on,
    // the verb is reported as rejected, and the session exits 3 at the
    // end. Any other failure is a hard error as before.
    auto rejected_read_only = [&](const Status& st) {
      if (!engine.read_only()) return false;
      std::printf("%s rejected: engine is read-only\n", verb.c_str());
      std::fprintf(stderr, "note: %s\n", st.ToString().c_str());
      return true;
    };
    if (verb == "apply") {
      s = engine.ApplyBatch(queued);
      if (!s.ok()) {
        if (rejected_read_only(s)) {
          queued.clear();
          continue;
        }
        return Fail(s);
      }
      std::printf("applied %llu updates (staleness %llu)\n",
                  static_cast<unsigned long long>(queued.size()),
                  static_cast<unsigned long long>(engine.staleness()));
      queued.clear();
    } else if (verb == "repair") {
      s = engine.Repair();
      if (!s.ok()) {
        if (rejected_read_only(s)) continue;
        return Fail(s);
      }
      std::printf("repaired successor state\n");
    } else if (verb == "compact") {
      s = engine.Compact(/*force=*/true);
      if (!s.ok()) {
        if (rejected_read_only(s)) continue;
        return Fail(s);
      }
      std::printf("compacted pending delta\n");
    } else if (verb == "publish") {
      EpochSnapshotRef snap = engine.Publish();
      const EpochStats& es = snap->stats();
      std::printf("published epoch %llu: %llu vertices (%llu batches, "
                  "%llu updates, %llu repair passes re-added %llu)\n",
                  static_cast<unsigned long long>(snap->epoch()),
                  static_cast<unsigned long long>(snap->set_size()),
                  static_cast<unsigned long long>(es.batches),
                  static_cast<unsigned long long>(es.updates),
                  static_cast<unsigned long long>(es.repair_passes),
                  static_cast<unsigned long long>(es.repair_added));
    } else if (verb == "query") {
      EpochSnapshotRef snap = engine.Snapshot();
      std::printf("query (epoch %llu):",
                  static_cast<unsigned long long>(snap->epoch()));
      p = word_end;
      bool any = false;
      while (true) {
        char* end = nullptr;
        unsigned long long v = std::strtoull(p, &end, 10);
        if (end == p) break;
        p = end;
        any = true;
        if (v >= snap->set().size()) {
          std::printf(" %llu=out-of-range", v);
        } else {
          std::printf(" %llu=%s", v,
                      snap->Contains(static_cast<VertexId>(v)) ? "in"
                                                               : "out");
        }
      }
      std::printf("\n");
      if (!any) return Fail(script.LineError("query needs vertex ids"));
    } else {
      return Fail(script.LineError("unknown verb '" + verb + "'"));
    }
  }
  if (!queued.empty()) {
    std::fprintf(stderr,
                 "warning: %llu queued updates were never applied "
                 "(script ended without 'apply')\n",
                 static_cast<unsigned long long>(queued.size()));
  }

  EpochSnapshotRef final_snap = engine.Snapshot();
  std::printf("session end: epoch %llu, %llu vertices in set, "
              "staleness %llu%s\n",
              static_cast<unsigned long long>(final_snap->epoch()),
              static_cast<unsigned long long>(final_snap->set_size()),
              static_cast<unsigned long long>(engine.staleness()),
              engine.read_only() ? ", read-only" : "");
  if (args.Has("stats")) {
    std::printf("  degree_sorted=%s\n",
                engine.open_result().degree_sorted ? "true" : "false");
    if (engine.streaming_stats() != nullptr) {
      const StreamingMisStats& st = *engine.streaming_stats();
      std::printf("  session totals: %llu updates, %llu evictions, "
                  "%llu repair passes, %llu delta entries pending\n",
                  static_cast<unsigned long long>(st.updates_applied),
                  static_cast<unsigned long long>(st.evictions),
                  static_cast<unsigned long long>(st.repair_passes),
                  static_cast<unsigned long long>(st.pending_delta_entries));
    }
  }
  if (args.Has("out")) {
    s = WriteSetText(final_snap->set(), args.Get("out"));
    if (!s.ok()) return Fail(s);
    std::printf("  members written to %s\n", args.Get("out").c_str());
  }
  if (engine.read_only()) {
    std::fprintf(stderr, "error: engine degraded to read-only: %s\n",
                 engine.degraded_reason().ToString().c_str());
    return 3;  // served to the end, but the session lost its store
  }
  return 0;
}

// Inspects (and with --gc repairs) a sharded store: resolves the root --
// legacy SADM manifest or SEPR epoch root pointer -- validates the
// serving epoch, reports a fallback to the previous epoch, and lists
// files no live epoch references. --gc makes a fallback durable and
// removes the orphans; without it nothing is written.
int CmdFsck(const Args& args) {
  if (args.positional.size() != 1) return Usage();
  const std::string root = args.positional[0];
  ResolvedShardStore store;
  ShardStoreRecovery recovery;
  Status s = args.Has("gc") ? RecoverShardStore(root, &store, &recovery)
                            : ResolveShardStore(root, &store);
  if (!s.ok()) return Fail(s);
  if (store.journaled) {
    std::printf("journaled store %s: serving epoch %llu", root.c_str(),
                static_cast<unsigned long long>(store.current_epoch));
    if (store.previous_epoch != 0) {
      std::printf(" (previous %llu kept for readers)",
                  static_cast<unsigned long long>(store.previous_epoch));
    }
    std::printf("\n");
  } else {
    std::printf("legacy store %s (journals on its first compaction)\n",
                root.c_str());
  }
  if (store.fell_back || recovery.fell_back) {
    std::printf("  recovered: current epoch failed validation, fell back "
                "to epoch %llu%s\n",
                static_cast<unsigned long long>(store.current_epoch),
                args.Has("gc") ? " (made durable)" : " (read-only; --gc "
                                                     "makes it durable)");
  }
  ShardedAdjacencyManifest manifest;
  s = ReadShardedAdjacencyManifest(store.manifest_path, &manifest);
  if (!s.ok()) return Fail(s);
  std::printf("  manifest %s: %llu vertices, %llu directed edges, "
              "%u shards, degree_sorted=%s\n",
              store.manifest_path.c_str(),
              static_cast<unsigned long long>(manifest.header.num_vertices),
              static_cast<unsigned long long>(
                  manifest.header.num_directed_edges),
              manifest.num_shards(),
              manifest.header.IsDegreeSorted() ? "true" : "false");
  if (args.Has("gc")) {
    std::printf("  gc: removed %llu orphaned file(s)\n",
                static_cast<unsigned long long>(
                    recovery.orphan_files_removed));
  }
  std::vector<std::string> orphans;
  s = ListShardStoreOrphans(store, &orphans);
  if (!s.ok()) return Fail(s);
  if (orphans.empty()) {
    std::printf("  no orphaned files\n");
  } else {
    std::printf("  %zu orphaned file(s)%s:\n", orphans.size(),
                args.Has("gc") ? "" : " (remove with --gc)");
    for (const std::string& path : orphans) {
      std::printf("    %s\n", path.c_str());
    }
  }
  return 0;
}

int CmdUnshard(const Args& args) {
  if (args.positional.size() != 2) return Usage();
  IoStats io;
  AdjacencyFileScanner scanner(&io);
  Status s = scanner.OpenStore(args.positional[0]);
  if (!s.ok()) return Fail(s);
  const AdjacencyFileHeader& h = scanner.header();
  AdjacencyFileWriter writer(&io);
  s = writer.Open(args.positional[1], h.num_vertices, h.num_directed_edges,
                  h.max_degree, h.flags);
  if (!s.ok()) return Fail(s);
  VertexRecordView rec;
  bool has_next = false;
  while (true) {
    s = scanner.Next(&rec, &has_next);
    if (!s.ok()) return Fail(s);
    if (!has_next) break;
    s = writer.AppendVertex(rec.id, rec.neighbors, rec.degree);
    if (!s.ok()) return Fail(s);
  }
  s = writer.Finish();
  if (!s.ok()) return Fail(s);
  std::printf("unsharded %s -> %s (%llu vertices, %s written)\n",
              args.positional[0].c_str(), args.positional[1].c_str(),
              static_cast<unsigned long long>(h.num_vertices),
              MemoryTracker::FormatBytes(io.bytes_written).c_str());
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    PrintUsage(stdout);
    return 0;
  }
  const CommandSpec* command = FindCommand(cmd);
  if (command == nullptr) return Usage();
  Args args;
  if (!Args::Parse(argc, argv, 2, *command, &args)) return 1;
  if (args.help) {
    PrintUsage(stdout);
    return 0;
  }
  if (cmd == "generate") return CmdGenerate(args);
  if (cmd == "convert") return CmdConvert(args);
  if (cmd == "sort") return CmdSort(args);
  if (cmd == "shard") return CmdShard(args);
  if (cmd == "stats") return CmdStats(args);
  if (cmd == "bound") return CmdBound(args);
  if (cmd == "solve") return CmdSolve(args);
  if (cmd == "cover") return CmdCover(args);
  if (cmd == "color") return CmdColor(args);
  if (cmd == "update") return CmdUpdate(args);
  if (cmd == "engine") return CmdEngine(args);
  if (cmd == "unshard") return CmdUnshard(args);
  if (cmd == "fsck") return CmdFsck(args);
  return Usage();
}

}  // namespace
}  // namespace cli
}  // namespace semis

int main(int argc, char** argv) { return semis::cli::Main(argc, argv); }
