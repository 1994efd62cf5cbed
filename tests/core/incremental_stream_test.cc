// Differential-testing harness for the shard-native streaming update
// pipeline (core/incremental_stream.h). Reference semantics, checked on
// seeded random update streams over PLRG, Erdos-Renyi and the paper's
// worked-example graphs:
//
//   * after every ApplyBatch the maintained set is independent on the
//     UPDATED graph; after every Repair it is also maximal (the
//     quality invariant a from-scratch solve guarantees);
//   * the repaired set is byte-identical to sequential
//     IncrementalMis::Repair on the equivalent monolithic file, and
//     identical across every tested shard/thread combination
//     (1/2/8 threads x 1/3/7 shards) -- the determinism contract;
//   * compaction never changes the effective graph or the maintained
//     set, also when shards compact at different times, and a restarted
//     session replays the on-disk delta back to the exact same state;
//   * at each shard count every store file ends byte-identical across
//     thread counts, though compaction cuts shards into record ranges
//     by the thread count and folds them on that many workers;
//   * after a session's first (full) repair, a repair reads only the
//     frontier a batch can free, with no scan, and still gives the full
//     pass's set -- also across re-sorts, and when retried after a read
//     fault;
//   * no vertex's blocker bound exceeds the number of members whose base
//     record lists it through a live edge (counting evicted vertices
//     whose records nobody has read yet), after every call and after a
//     failed repair, and a full pass makes the two equal.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/incremental.h"
#include "core/incremental_stream.h"
#include "core/verify.h"
#include "gen/generators.h"
#include "gen/paper_figures.h"
#include "gen/plrg.h"
#include "graph/graph_io.h"
#include "graph/shard_record_locator.h"
#include "graph/shard_store.h"
#include "graph/sharded_adjacency_file.h"
#include "io/edge_delta_file.h"
#include "io/env.h"
#include "io/epoch_journal.h"
#include "io/file.h"
#include "test_util.h"

namespace semis {
namespace {

using testing_util::RandomMaximalSet;
using testing_util::ScratchTest;
using testing_util::SetToVector;
using testing_util::WriteGraphFile;

class IncrementalStreamTest : public ScratchTest {};

constexpr uint32_t kShardCounts[] = {1, 3, 7};
constexpr uint32_t kThreadCounts[] = {1, 2, 8};

// Rebuilds the updated graph in memory for verification.
Graph ApplyDelta(const Graph& base, const std::set<Edge>& inserted,
                 const std::set<Edge>& deleted) {
  std::vector<Edge> edges;
  for (VertexId v = 0; v < base.NumVertices(); ++v) {
    for (VertexId u : base.Neighbors(v)) {
      if (v < u && deleted.find({v, u}) == deleted.end()) {
        edges.emplace_back(v, u);
      }
    }
  }
  for (const Edge& e : inserted) edges.push_back(e);
  return Graph::FromEdges(base.NumVertices(), std::move(edges));
}

// The whole content of the file at `path`.
std::string ReadFileBytes(const std::string& path) {
  SequentialFileReader reader;
  EXPECT_OK(reader.Open(path));
  std::string bytes;
  std::vector<char> chunk(1 << 16);
  size_t n = 0;
  do {
    EXPECT_OK(reader.Read(chunk.data(), chunk.size(), &n));
    bytes.append(chunk.data(), n);
  } while (n > 0);
  return bytes;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  SequentialFileWriter writer;
  ASSERT_OK(writer.Open(path));
  ASSERT_OK(writer.Append(bytes.data(), bytes.size()));
  ASSERT_OK(writer.Close());
}

// The record ranges a compaction at `threads` threads cuts shard `shard`
// of the store at `root` into.
std::vector<ShardRecordRange> CompactionRanges(const std::string& root,
                                               uint32_t shard,
                                               uint32_t threads) {
  ResolvedShardStore store;
  EXPECT_OK(ResolveShardStore(root, &store));
  ShardedAdjacencyManifest manifest;
  EXPECT_OK(ReadShardedAdjacencyManifest(store.manifest_path, &manifest));
  ShardRecordLocator locator;
  EXPECT_OK(locator.Build(store.manifest_path, manifest, nullptr));
  return locator.CutRanges(shard, manifest.shards[shard],
                           kCompactRangesPerWorker * threads);
}

// The bytes of every file of the store at `root` that `mis` serves, the
// root pointer included, in a fixed order.
std::vector<std::string> StoreFileBytes(const std::string& root,
                                        const ShardedStreamingMis& mis) {
  const ResolvedShardStore& store = mis.store();
  std::vector<std::string> files;
  if (store.journaled) files.push_back(ReadFileBytes(root));
  files.push_back(ReadFileBytes(store.manifest_path));
  const std::string delta = EdgeDeltaManifestPath(store.manifest_path);
  files.push_back(ReadFileBytes(delta));
  for (uint32_t k = 0; k < mis.manifest().num_shards(); ++k) {
    files.push_back(ReadFileBytes(ShardFilePath(store.manifest_path, k)));
    files.push_back(ReadFileBytes(EdgeDeltaShardPath(delta, k)));
  }
  return files;
}

// One maintainer bound to its own sharded copy of the base graph. With
// auto-resort on, a re-sort reorders the records, so such an instance
// keeps its own IncrementalMis, rebound to an unsharded copy of the
// re-sorted store (see RunDifferentialStream).
struct Instance {
  std::string manifest;
  ShardedStreamingMis mis;
  IncrementalMis reference;
  uint64_t resorts_seen = 0;
};

// Shards `mono_path` into one copy per (shard count x thread count)
// combination and initializes a maintainer on each.
void MakeInstances(ScratchDir* scratch, const std::string& mono_path,
                   const BitVector& initial, const std::string& tag,
                   uint64_t compact_threshold, bool auto_resort,
                   std::vector<Instance>* instances) {
  for (uint32_t shards : kShardCounts) {
    for (uint32_t threads : kThreadCounts) {
      instances->emplace_back();
      Instance& i = instances->back();
      i.manifest = scratch->NewFilePath(tag + "_s" + std::to_string(shards) +
                                        "_t" + std::to_string(threads) +
                                        ".sadjs");
      ASSERT_OK(ShardAdjacencyFile(mono_path, i.manifest, shards));
      EnginePipelineOptions opts;
      opts.num_threads = threads;
      opts.compact_threshold_entries = compact_threshold;
      opts.auto_resort = auto_resort;
      ASSERT_OK(i.mis.Initialize(i.manifest, initial, opts));
      ASSERT_OK(i.reference.Initialize(mono_path, initial));
    }
  }
}

// Writes the effective graph of the store at `root` (no pending delta)
// as a monolithic file in the store's record order.
std::string UnshardStore(ScratchDir* scratch, const std::string& root) {
  AdjacencyFileScanner scanner;
  EXPECT_OK(scanner.OpenStore(root));
  const AdjacencyFileHeader& h = scanner.header();
  const std::string path = scratch->NewFilePath("unsharded.adj");
  AdjacencyFileWriter writer;
  EXPECT_OK(writer.Open(path, h.num_vertices, h.num_directed_edges,
                        h.max_degree, h.flags));
  VertexRecordView rec;
  bool has_next = false;
  while (true) {
    EXPECT_OK(scanner.Next(&rec, &has_next));
    if (!has_next) break;
    EXPECT_OK(writer.AppendVertex(rec.id, rec.neighbors, rec.degree));
  }
  EXPECT_OK(writer.Finish());
  return path;
}

// For every vertex of the store at `root`, how many members of `set`
// list it in their base record through an edge of `effective` (a live
// edge), plus one for each listing in the record of a `pending` vertex:
// an evicted vertex whose record no repair or compaction has read yet
// may still be counted.
std::vector<uint32_t> ListingMembers(const std::string& root,
                                     const BitVector& set,
                                     const Graph& effective,
                                     const std::vector<VertexId>& pending) {
  std::vector<uint32_t> count(set.size(), 0);
  const std::set<VertexId> evicted(pending.begin(), pending.end());
  AdjacencyFileScanner scanner;
  EXPECT_OK(scanner.OpenStore(root));
  VertexRecordView rec;
  bool has_next = false;
  while (true) {
    EXPECT_OK(scanner.Next(&rec, &has_next));
    if (!has_next) break;
    const bool member = set.Test(rec.id);
    const bool unread = evicted.count(rec.id) > 0;
    for (const VertexId nb : rec) {
      if (unread || (member && effective.HasEdge(rec.id, nb))) count[nb]++;
    }
  }
  return count;
}

// Checks every vertex's blocker bound against ListingMembers, capped at
// the bound's 255: never above it, and equal when `exact` (right after a
// full pass).
void ExpectBoundHolds(const ShardedStreamingMis& mis, const std::string& root,
                      const Graph& effective,
                      const std::vector<VertexId>& pending, bool exact,
                      const std::string& where) {
  const std::vector<uint32_t> count =
      ListingMembers(root, mis.set(), effective, pending);
  for (VertexId v = 0; v < count.size(); ++v) {
    const uint32_t cap = std::min<uint32_t>(count[v], 255);
    if (exact) {
      ASSERT_EQ(mis.blocker_bound(v), cap) << where << ", vertex " << v;
    } else {
      ASSERT_LE(mis.blocker_bound(v), cap) << where << ", vertex " << v;
    }
  }
}

// The members of `before` that `after` lost: a batch's evictions.
std::vector<VertexId> LeftTheSet(const std::vector<VertexId>& before,
                                 const BitVector& after) {
  std::vector<VertexId> left;
  for (VertexId v : before) {
    if (!after.Test(v)) left.push_back(v);
  }
  return left;
}

// Drives a seeded random update stream over `base` through a sequential
// IncrementalMis and the full shard/thread matrix, checking equality, the
// independence/maximality invariants and the blocker bound after every
// batch + repair, and the bound again after a closing compaction and
// re-sort.
// With `auto_resort`, a re-sort moves records, and the order the repair
// rule commits in moves with them. Each instance then checks against
// its own IncrementalMis, rebound after every re-sort to an unsharded
// copy of the store and the set it had; the re-sort folds the whole
// delta, so that copy is the effective graph.
void RunDifferentialStream(ScratchDir* scratch, const Graph& base,
                           uint64_t seed, int steps, int batch,
                           uint64_t compact_threshold,
                           bool auto_resort = false) {
  const VertexId n = base.NumVertices();
  std::string tag = "base";
  tag += std::to_string(seed);
  tag += ".adj";
  std::string mono = scratch->NewFilePath(tag);
  ASSERT_OK(WriteGraphToAdjacencyFile(base, mono));
  BitVector initial = RandomMaximalSet(base, seed + 77);

  IncrementalMis reference;
  ASSERT_OK(reference.Initialize(mono, initial));
  std::vector<Instance> instances;
  std::string graph_tag = "g";
  graph_tag += std::to_string(seed);
  MakeInstances(scratch, mono, initial, graph_tag, compact_threshold,
                auto_resort, &instances);

  std::set<Edge> inserted, deleted;
  Random rng(seed * 131 + 9);
  std::vector<EdgeUpdate> batch_updates;
  for (int step = 0; step < steps; ++step) {
    VertexId u = static_cast<VertexId>(rng.Uniform(n));
    VertexId v = static_cast<VertexId>(rng.Uniform(n));
    if (u == v) continue;
    Edge e{std::min(u, v), std::max(u, v)};
    const bool in_base = base.HasEdge(u, v);
    const bool exists = (in_base && deleted.find(e) == deleted.end()) ||
                        inserted.find(e) != inserted.end();
    // Mostly flip the edge's existence; sometimes send redundant traffic
    // (duplicate insert / delete of an absent edge) on purpose.
    const bool redundant = rng.OneIn(0.15);
    if ((exists && !redundant) || (!exists && redundant)) {
      batch_updates.push_back(EdgeUpdate::Delete(u, v));
      ASSERT_OK(reference.DeleteEdge(u, v));
      inserted.erase(e);
      if (in_base) deleted.insert(e);
    } else {
      batch_updates.push_back(EdgeUpdate::Insert(u, v));
      ASSERT_OK(reference.InsertEdge(u, v));
      deleted.erase(e);
      if (!in_base) inserted.insert(e);
    }

    if (static_cast<int>(batch_updates.size()) < batch &&
        step + 1 < steps) {
      continue;
    }
    ASSERT_OK(reference.Repair());
    const std::vector<VertexId> expected = SetToVector(reference.set());
    Graph updated = ApplyDelta(base, inserted, deleted);
    for (Instance& inst : instances) {
      const std::string where = inst.manifest + " step " + std::to_string(step);
      const std::vector<VertexId> members = SetToVector(inst.mis.set());
      const uint64_t compactions = inst.mis.stats().compactions;
      ASSERT_OK(inst.mis.ApplyBatch(batch_updates));
      // The batch's evictions stay unread unless it compacted.
      ExpectBoundHolds(inst.mis, inst.manifest, updated,
                       inst.mis.stats().compactions == compactions
                           ? LeftTheSet(members, inst.mis.set())
                           : std::vector<VertexId>{},
                       /*exact=*/false, where + " apply");
      if (auto_resort) {
        for (const EdgeUpdate& up : batch_updates) {
          ASSERT_OK(up.op == EdgeDeltaOp::kInsert
                        ? inst.reference.InsertEdge(up.u, up.v)
                        : inst.reference.DeleteEdge(up.u, up.v));
        }
        if (inst.mis.stats().resorts != inst.resorts_seen) {
          inst.resorts_seen = inst.mis.stats().resorts;
          const BitVector evicted = inst.reference.set();
          ASSERT_OK(inst.reference.Initialize(
              UnshardStore(scratch, inst.manifest), evicted));
        }
        ASSERT_OK(inst.reference.Repair());
      }
      // Independence must hold after every batch, before any repair.
      VerifyResult pre = VerifyIndependentSet(updated, inst.mis.set());
      ASSERT_TRUE(pre.independent)
          << "seed " << seed << " step " << step << " manifest "
          << inst.manifest << " edge " << pre.witness_u << "-"
          << pre.witness_v;
      const uint64_t full_passes = inst.mis.stats().full_repair_passes;
      ASSERT_OK(inst.mis.Repair());
      ExpectBoundHolds(
          inst.mis, inst.manifest, updated, {},
          /*exact=*/inst.mis.stats().full_repair_passes != full_passes,
          where + " repair");
      // Byte-identical to the sequential monolithic reference -- which
      // also proves every shard/thread combination identical to every
      // other.
      ASSERT_EQ(SetToVector(inst.mis.set()),
                auto_resort ? SetToVector(inst.reference.set()) : expected)
          << "seed " << seed << " step " << step << " manifest "
          << inst.manifest;
      ASSERT_EQ(inst.mis.set_size(), inst.mis.set().Count());
      // The quality invariant of a from-scratch solve: independent AND
      // maximal on the updated graph.
      VerifyResult vr = VerifyIndependentSet(updated, inst.mis.set());
      ASSERT_TRUE(vr.independent) << "seed " << seed << " step " << step;
      ASSERT_TRUE(vr.maximal)
          << "seed " << seed << " step " << step << " manifest "
          << inst.manifest << " vertex " << vr.witness_u;
    }
    batch_updates.clear();
  }
  if (auto_resort) {
    for (const Instance& inst : instances) {
      // The stream really re-sorted mid-way, and every repair but the
      // session's first read only its frontier.
      EXPECT_GT(inst.mis.stats().resorts, 0u) << inst.manifest;
      EXPECT_EQ(inst.mis.stats().full_repair_passes, 1u) << inst.manifest;
    }
  }
  // At each shard count the stores end byte-identical at every thread
  // count: epochs, shards, logs and manifests.
  const size_t per_shard_count = std::size(kThreadCounts);
  for (size_t first = 0; first < instances.size(); first += per_shard_count) {
    const Instance& one = instances[first];
    const std::vector<std::string> want = StoreFileBytes(one.manifest, one.mis);
    for (size_t i = first + 1; i < first + per_shard_count; ++i) {
      const Instance& inst = instances[i];
      EXPECT_EQ(inst.mis.store().current_epoch, one.mis.store().current_epoch)
          << inst.manifest;
      EXPECT_TRUE(StoreFileBytes(inst.manifest, inst.mis) == want)
          << inst.manifest << " differs from " << one.manifest;
      // So are the reads, and the candidates the bound skipped.
      EXPECT_EQ(inst.mis.stats().io.records_decoded,
                one.mis.stats().io.records_decoded)
          << inst.manifest;
      EXPECT_EQ(inst.mis.stats().candidates_skipped,
                one.mis.stats().candidates_skipped)
          << inst.manifest;
    }
  }
  // Folding the delta in and re-sorting the records leave the bound
  // below its count.
  const Graph final_graph = ApplyDelta(base, inserted, deleted);
  for (Instance& inst : instances) {
    ASSERT_OK(inst.mis.Compact(/*force=*/true));
    ExpectBoundHolds(inst.mis, inst.manifest, final_graph, {},
                     /*exact=*/false, inst.manifest + " compact");
    ASSERT_OK(inst.mis.Resort());
    ExpectBoundHolds(inst.mis, inst.manifest, final_graph, {},
                     /*exact=*/false, inst.manifest + " resort");
  }
}

TEST_F(IncrementalStreamTest, DifferentialRandomStreamsErdosRenyi) {
  for (uint64_t seed = 0; seed < 3; ++seed) {
    Graph base = GenerateErdosRenyi(90, 220, seed + 5);
    RunDifferentialStream(&scratch_, base, seed, /*steps=*/120,
                          /*batch=*/25, /*compact_threshold=*/0);
  }
}

TEST_F(IncrementalStreamTest, DifferentialRandomStreamPlrg) {
  Graph base = GeneratePlrg(PlrgSpec::ForVertexCount(300, 2.0), 11);
  RunDifferentialStream(&scratch_, base, 42, /*steps=*/150, /*batch=*/30,
                        /*compact_threshold=*/0);
}

TEST_F(IncrementalStreamTest, DifferentialStreamWithAutoCompaction) {
  // Same differential matrix, but with a low compaction threshold so
  // shards are rewritten mid-stream: folding the delta into the base must
  // never change any answer. Every shard holds several checkpoints, so
  // compaction reads it as several ranges at every thread count, and the
  // stores must still end byte-identical across thread counts.
  Graph base = GenerateErdosRenyi(600, 1500, 33);
  const std::string probe_mono = WriteGraphFile(&scratch_, base);
  for (uint32_t shards : kShardCounts) {
    const std::string probe = NewPath("probe" + std::to_string(shards));
    ASSERT_OK(ShardAdjacencyFile(probe_mono, probe, shards));
    for (uint32_t k = 0; k < shards; ++k) {
      EXPECT_GT(CompactionRanges(probe, k, 1).size(), 1u)
          << shards << " shards, shard " << k;
    }
  }
  RunDifferentialStream(&scratch_, base, 7, /*steps=*/120, /*batch=*/20,
                        /*compact_threshold=*/8);
}

TEST_F(IncrementalStreamTest, DifferentialStreamWithAutoResort) {
  // A low compaction threshold with auto-resort: compactions patch the
  // record locator's offsets and each re-sort that follows rebuilds it,
  // mid-stream, while frontier repairs keep reading through it.
  Graph base = GenerateErdosRenyi(80, 180, 35);
  RunDifferentialStream(&scratch_, base, 8, /*steps=*/120, /*batch=*/20,
                        /*compact_threshold=*/8, /*auto_resort=*/true);
}

TEST_F(IncrementalStreamTest, DifferentialStreamOnWorkedExamples) {
  int tag = 0;
  for (const PaperExample& ex :
       {Figure1Example(), Figure2Example(), Figure7Example(),
        Figure5Example()}) {
    RunDifferentialStream(&scratch_, ex.graph, 1000 + tag, /*steps=*/60,
                          /*batch=*/10, /*compact_threshold=*/0);
    tag++;
  }
}

TEST_F(IncrementalStreamTest, InsertBetweenSetMembersEvictsEagerly) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {2, 3}});
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("evict.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 2));
  BitVector set(4);
  set.Set(0);
  set.Set(2);
  ShardedStreamingMis mis;
  ASSERT_OK(mis.Initialize(manifest, set, EnginePipelineOptions{}));
  ASSERT_OK(mis.ApplyBatch({EdgeUpdate::Insert(0, 2)}));
  EXPECT_EQ(mis.set_size(), 1u);
  EXPECT_TRUE(mis.set().Test(0));  // smaller id stays
  EXPECT_FALSE(mis.set().Test(2));
  EXPECT_EQ(mis.stats().evictions, 1u);
  ASSERT_OK(mis.Repair());
  EXPECT_TRUE(mis.set().Test(3));  // its set neighbor 2 left
  EXPECT_EQ(mis.stats().repair_added, 1u);
}

TEST_F(IncrementalStreamTest, BatchValidationFailsWholeBatchUpFront) {
  Graph g = GeneratePath(5);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("val.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 2));
  ShardedStreamingMis mis;
  ASSERT_OK(mis.Initialize(manifest, BitVector(5), EnginePipelineOptions{}));
  // Self-loop and out-of-range updates are rejected and nothing -- not
  // even the valid first update -- is applied.
  EXPECT_TRUE(mis.ApplyBatch({EdgeUpdate::Insert(0, 2),
                              EdgeUpdate::Insert(3, 3)})
                  .IsInvalidArgument());
  EXPECT_TRUE(mis.ApplyBatch({EdgeUpdate::Insert(0, 2),
                              EdgeUpdate::Insert(0, 5)})
                  .IsInvalidArgument());
  EXPECT_TRUE(mis.ApplyBatch({EdgeUpdate::Delete(9, 2)})
                  .IsInvalidArgument());
  EXPECT_EQ(mis.stats().updates_applied, 0u);
  EXPECT_EQ(mis.stats().pending_delta_entries, 0u);
}

TEST_F(IncrementalStreamTest, RedundantUpdatesAreNotLogged) {
  Graph g = GeneratePath(4);  // 0-1-2-3
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("red.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 2));
  ShardedStreamingMis mis;
  ASSERT_OK(mis.Initialize(manifest, BitVector(4), EnginePipelineOptions{}));
  ASSERT_OK(mis.ApplyBatch({EdgeUpdate::Insert(0, 2),
                            EdgeUpdate::Insert(0, 2),    // duplicate
                            EdgeUpdate::Delete(1, 3),
                            EdgeUpdate::Delete(1, 3)})); // duplicate
  EXPECT_EQ(mis.stats().updates_applied, 4u);
  EXPECT_EQ(mis.stats().redundant_updates, 2u);
  // Only the two effective updates carry sequence numbers / log entries.
  EdgeDeltaManifest dm;
  ASSERT_OK(ReadEdgeDeltaManifest(EdgeDeltaManifestPath(manifest), &dm));
  EXPECT_EQ(dm.next_sequence, 2u);
}

TEST_F(IncrementalStreamTest, DuplicateBaseEdgeInsertThenDeleteCompacts) {
  // The streaming twin of the IncrementalMis duplicate-accounting gadget,
  // extended through compaction: insert a copy of base edge 0-1, delete
  // it, and the compacted base must no longer contain the edge (and must
  // not have gained a duplicate neighbor entry either way).
  Graph g = Graph::FromEdges(2, {{0, 1}});
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("dup.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 2));
  BitVector set(2);
  set.Set(0);
  ShardedStreamingMis mis;
  ASSERT_OK(mis.Initialize(manifest, set, EnginePipelineOptions{}));
  ASSERT_OK(mis.ApplyBatch({EdgeUpdate::Insert(0, 1)}));  // duplicates base
  ASSERT_OK(mis.ApplyBatch({EdgeUpdate::Delete(0, 1)}));
  ASSERT_OK(mis.Repair());
  EXPECT_TRUE(mis.set().Test(1)) << "base copy survived its deletion";
  EXPECT_EQ(mis.set_size(), 2u);
  ASSERT_OK(mis.Compact(/*force=*/true));
  AdjacencyFileScanner scanner;
  ASSERT_OK(scanner.OpenStore(manifest));
  EXPECT_EQ(scanner.header().num_directed_edges, 0u);
  VertexRecordView rec;
  bool has_next = false;
  uint64_t records = 0;
  while (true) {
    ASSERT_OK(scanner.Next(&rec, &has_next));
    if (!has_next) break;
    EXPECT_EQ(rec.degree, 0u);
    records++;
  }
  EXPECT_EQ(records, 2u);

  // And folding a duplicate insert WITHOUT the delete must not create a
  // doubled neighbor entry.
  std::string manifest2 = NewPath("dup2.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest2, 1));
  ShardedStreamingMis mis2;
  ASSERT_OK(mis2.Initialize(manifest2, set, EnginePipelineOptions{}));
  ASSERT_OK(mis2.ApplyBatch({EdgeUpdate::Insert(0, 1)}));
  ASSERT_OK(mis2.Compact(/*force=*/true));
  AdjacencyFileScanner scanner2;
  ASSERT_OK(scanner2.OpenStore(manifest2));
  EXPECT_EQ(scanner2.header().num_directed_edges, 2u);  // one edge, not two
  while (true) {
    ASSERT_OK(scanner2.Next(&rec, &has_next));
    if (!has_next) break;
    EXPECT_EQ(rec.degree, 1u);
  }
}

// Tracks a toggle stream over `base`: Toggle(u, v) deletes the edge when
// it exists in the effective graph and inserts it otherwise, keeping the
// net inserted and deleted sets ApplyDelta rebuilds that graph from.
struct DeltaTracker {
  explicit DeltaTracker(const Graph& g) : base(&g) {}

  EdgeUpdate Toggle(VertexId u, VertexId v) {
    const Edge e{std::min(u, v), std::max(u, v)};
    const bool in_base = base->HasEdge(u, v);
    if ((in_base && deleted.count(e) == 0) || inserted.count(e) > 0) {
      inserted.erase(e);
      if (in_base) deleted.insert(e);
      return EdgeUpdate::Delete(u, v);
    }
    deleted.erase(e);
    if (!in_base) inserted.insert(e);
    return EdgeUpdate::Insert(u, v);
  }
  Graph Effective() const { return ApplyDelta(*base, inserted, deleted); }

  const Graph* base;
  std::set<Edge> inserted, deleted;
};

// Re-reads the store at `manifest` and checks it holds exactly `want`,
// record by record.
void ExpectStoreHoldsGraph(const std::string& manifest, const Graph& want) {
  AdjacencyFileScanner scanner;
  ASSERT_OK(scanner.OpenStore(manifest));
  EXPECT_EQ(scanner.header().num_directed_edges, want.NumDirectedEdges());
  VertexRecordView rec;
  bool has_next = false;
  uint64_t records = 0;
  while (true) {
    ASSERT_OK(scanner.Next(&rec, &has_next));
    if (!has_next) break;
    records++;
    std::set<VertexId> got(rec.neighbors, rec.neighbors + rec.degree);
    std::set<VertexId> expected(want.Neighbors(rec.id).begin(),
                                want.Neighbors(rec.id).end());
    ASSERT_EQ(got, expected) << "vertex " << rec.id;
  }
  EXPECT_EQ(records, want.NumVertices());
}

TEST_F(IncrementalStreamTest, CompactionFoldsDeltaAndPreservesAnswers) {
  Graph base = GenerateErdosRenyi(70, 150, 21);
  std::string mono = WriteGraphFile(&scratch_, base);
  std::string manifest = NewPath("comp.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 3));
  BitVector initial = RandomMaximalSet(base, 4);
  ShardedStreamingMis mis;
  EnginePipelineOptions opts;
  opts.num_threads = 2;
  ASSERT_OK(mis.Initialize(manifest, initial, opts));

  DeltaTracker delta(base);
  Random rng(99);
  std::vector<EdgeUpdate> updates;
  for (int i = 0; i < 120; ++i) {
    VertexId u = static_cast<VertexId>(rng.Uniform(70));
    VertexId v = static_cast<VertexId>(rng.Uniform(70));
    if (u == v) continue;
    updates.push_back(delta.Toggle(u, v));
  }
  ASSERT_OK(mis.ApplyBatch(updates));
  ASSERT_OK(mis.Repair());
  const std::vector<VertexId> before = SetToVector(mis.set());

  ASSERT_OK(mis.Compact(/*force=*/true));
  EXPECT_EQ(mis.stats().pending_delta_entries, 0u);
  EXPECT_GT(mis.stats().shards_rewritten, 0u);
  // The set is untouched and a repair over the compacted base agrees.
  EXPECT_EQ(SetToVector(mis.set()), before);
  ASSERT_OK(mis.Repair());
  EXPECT_EQ(SetToVector(mis.set()), before);

  // The compacted base IS the updated graph: re-read it and compare
  // adjacency with the in-memory reference.
  ExpectStoreHoldsGraph(manifest, delta.Effective());

  // The effective graph still matches a verification scan, and updates
  // keep flowing after the compaction.
  VerifyResult vr;
  ASSERT_OK(VerifyIndependentSetShardedFile(manifest, mis.set(), &vr));
  EXPECT_TRUE(vr.independent);
  EXPECT_TRUE(vr.maximal);
  ASSERT_OK(mis.ApplyBatch({EdgeUpdate::Insert(
      SetToVector(mis.set())[0], SetToVector(mis.set())[1])}));
  ASSERT_OK(mis.Repair());
}

TEST_F(IncrementalStreamTest, ShardsCompactingAtDifferentTimesFoldOneGraph) {
  // Compaction folds a shard from the global delta state. With a small
  // threshold the shards compact at different times, and cross-shard
  // edges keep being toggled after one endpoint's shard compacted, so a
  // shard's log and the global state disagree about which entries are
  // still pending. After a final forced compaction the store must still
  // be the effective graph, record by record.
  Graph base = GenerateErdosRenyi(90, 200, 27);
  std::string mono = WriteGraphFile(&scratch_, base);
  std::string manifest = NewPath("stagger.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 3));
  ShardedStreamingMis mis;
  EnginePipelineOptions opts;
  opts.num_threads = 2;
  opts.compact_threshold_entries = 7;
  ASSERT_OK(mis.Initialize(manifest, RandomMaximalSet(base, 6), opts));

  // Records are in id order, so ids 0..5 sit in the first shard and
  // 84..89 in the last: a small pool of cross-shard edges, each toggled
  // many times, plus extra first-shard traffic so the two end shards
  // fill, and compact, at different rates.
  DeltaTracker delta(base);
  Random rng(31);
  uint64_t staggered = 0;
  for (int batch = 0; batch < 40; ++batch) {
    std::vector<EdgeUpdate> updates;
    for (int i = 0; i < 3; ++i) {
      const auto u = static_cast<VertexId>(rng.Uniform(6));
      const auto v = static_cast<VertexId>(84 + rng.Uniform(6));
      updates.push_back(delta.Toggle(u, v));
    }
    const auto u = static_cast<VertexId>(rng.Uniform(10));
    const auto v = static_cast<VertexId>((u + 1 + rng.Uniform(9)) % 10);
    updates.push_back(delta.Toggle(u, v));
    const uint64_t compactions = mis.stats().compactions;
    ASSERT_OK(mis.ApplyBatch(updates));
    ASSERT_OK(mis.Repair());
    if (mis.stats().compactions == compactions) continue;
    EdgeDeltaManifest dm;
    ASSERT_OK(ReadEdgeDeltaManifest(
        EdgeDeltaManifestPath(mis.store().manifest_path), &dm));
    // One end shard compacted while the other still holds entries of
    // the shared edges.
    if ((dm.shard_entries[0] == 0) != (dm.shard_entries[2] == 0)) {
      staggered++;
    }
  }
  EXPECT_GT(staggered, 0u);

  ASSERT_OK(mis.Compact(/*force=*/true));
  EXPECT_EQ(mis.stats().pending_delta_entries, 0u);
  ExpectStoreHoldsGraph(manifest, delta.Effective());
  VerifyResult vr;
  ASSERT_OK(VerifyIndependentSetShardedFile(manifest, mis.set(), &vr));
  EXPECT_TRUE(vr.independent);
  EXPECT_TRUE(vr.maximal);
}

// One record of a shard file and the byte offset it starts at.
struct ShardRecord {
  VertexId id = 0;
  uint64_t offset = 0;
  std::vector<VertexId> neighbors;
};

// The records of shard `shard` of the store at `root`, in file order.
std::vector<ShardRecord> ReadShardRecords(const std::string& root,
                                          uint32_t shard) {
  std::vector<ShardRecord> records;
  ResolvedShardStore store;
  EXPECT_OK(ResolveShardStore(root, &store));
  ShardedAdjacencyManifest manifest;
  EXPECT_OK(ReadShardedAdjacencyManifest(store.manifest_path, &manifest));
  AdjacencyFileScanner scanner;
  EXPECT_OK(scanner.OpenShard(store.manifest_path, manifest, shard));
  uint64_t offset = kAdjacencyShardHeaderBytes;
  VertexRecordView rec;
  bool has_next = false;
  while (true) {
    EXPECT_OK(scanner.Next(&rec, &has_next));
    if (!has_next) break;
    records.push_back(ShardRecord{
        rec.id, offset, {rec.neighbors, rec.neighbors + rec.degree}});
    offset += AdjacencyRecordBytes(rec.degree);
  }
  EXPECT_OK(scanner.Close());
  return records;
}

// The bytes compaction must write for shard `shard` whose records were
// `base`, with `effective` the graph after the delta, written record by
// record at `path`: each record keeps its base neighbors that survive in
// base order, then gains the effective neighbors it lacked, ascending.
std::string ReferenceShardBytes(const std::string& path, uint32_t shard,
                                const std::vector<ShardRecord>& base,
                                const Graph& effective) {
  SequentialFileWriter writer;
  EXPECT_OK(writer.Open(path));
  EXPECT_OK(WriteAdjacencyShardHeader(&writer, shard, effective.NumVertices()));
  std::vector<VertexId> folded;
  for (const ShardRecord& rec : base) {
    folded.clear();
    for (VertexId nb : rec.neighbors) {
      if (effective.HasEdge(rec.id, nb)) folded.push_back(nb);
    }
    const std::set<VertexId> in_base(rec.neighbors.begin(),
                                     rec.neighbors.end());
    std::vector<VertexId> now(effective.Neighbors(rec.id).begin(),
                              effective.Neighbors(rec.id).end());
    std::sort(now.begin(), now.end());
    for (VertexId nb : now) {
      if (in_base.count(nb) == 0) folded.push_back(nb);
    }
    EXPECT_OK(AppendAdjacencyRecord(&writer, rec.id, folded.data(),
                                    static_cast<uint32_t>(folded.size())));
  }
  EXPECT_OK(writer.Close());
  return ReadFileBytes(path);
}

// A graph whose shards outgrow the 1 MB read buffer at 1 and 3 shards: a
// path over every vertex, and a hub early in the first shard whose record
// is longer than the buffer, so a scan reads it across a buffer fill.
constexpr VertexId kBufferGraphVertices = 280000;
constexpr VertexId kHub = 1000;
constexpr VertexId kHubChords = 270000;
constexpr uint64_t kReadBufferBytes = uint64_t{1} << 20;

Graph MakeBufferGraph() {
  std::vector<Edge> edges;
  for (VertexId v = 0; v + 1 < kBufferGraphVertices; ++v) {
    edges.emplace_back(v, v + 1);
  }
  for (VertexId i = 0; i < kHubChords; ++i) {
    edges.emplace_back(kHub, kHub + 2 + i);
  }
  return Graph::FromEdges(kBufferGraphVertices, std::move(edges));
}

// A non-edge partner for `x`, far from it and never the hub.
VertexId FarPartner(VertexId x) {
  VertexId y = static_cast<VertexId>(
      (uint64_t{x} * 7919 + kBufferGraphVertices / 2) % kBufferGraphVertices);
  while (y == x || y == kHub || y + 1 == x || x + 1 == y) {
    y = (y + 3) % kBufferGraphVertices;
  }
  return y;
}

TEST_F(IncrementalStreamTest, RestartReplaysTheOverlayExactly) {
  Graph base = GenerateErdosRenyi(60, 130, 8);
  std::string mono = WriteGraphFile(&scratch_, base);
  std::string manifest = NewPath("restart.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 3));
  BitVector initial = RandomMaximalSet(base, 15);

  ShardedStreamingMis first;
  ASSERT_OK(first.Initialize(manifest, initial, EnginePipelineOptions{}));
  Random rng(5);
  std::vector<EdgeUpdate> updates;
  for (int i = 0; i < 80; ++i) {
    VertexId u = static_cast<VertexId>(rng.Uniform(60));
    VertexId v = static_cast<VertexId>(rng.Uniform(60));
    if (u == v) continue;
    updates.push_back(rng.OneIn(0.3) ? EdgeUpdate::Delete(u, v)
                                     : EdgeUpdate::Insert(u, v));
  }
  ASSERT_OK(first.ApplyBatch(updates));

  // A second session binds to the same files with the same BASE set and
  // must come back in the exact same state (the logs are the redo
  // stream).
  ShardedStreamingMis second;
  ASSERT_OK(second.Initialize(manifest, initial, EnginePipelineOptions{}));
  EXPECT_EQ(SetToVector(second.set()), SetToVector(first.set()));
  EXPECT_EQ(second.stats().pending_delta_entries,
            first.stats().pending_delta_entries);
  ASSERT_OK(first.Repair());
  ASSERT_OK(second.Repair());
  EXPECT_EQ(SetToVector(second.set()), SetToVector(first.set()));

  // Overlay/base mismatches are rejected, not misread: bind the overlay
  // to a differently-sharded copy of the same graph.
  std::string other = NewPath("restart_other.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, other, 2));
  ShardedStreamingMis third;
  // Hand the 3-shard overlay to the 2-shard file.
  SequentialFileReader src;
  ASSERT_OK(src.Open(EdgeDeltaManifestPath(manifest)));
  std::vector<char> bytes(4096);
  size_t n = 0;
  std::vector<char> all;
  while (true) {
    ASSERT_OK(src.Read(bytes.data(), bytes.size(), &n));
    if (n == 0) break;
    all.insert(all.end(), bytes.begin(), bytes.begin() + n);
  }
  SequentialFileWriter dst;
  ASSERT_OK(dst.Open(EdgeDeltaManifestPath(other)));
  ASSERT_OK(dst.Append(all.data(), all.size()));
  ASSERT_OK(dst.Close());
  Status s = third.Initialize(other, initial, EnginePipelineOptions{});
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(IncrementalStreamTest, RestartDropsCrashTornLogTail) {
  // A crash between a log append and the delta-manifest republish leaves
  // bytes past the declared count -- the unflushed batch. Initialize must
  // drop that tail (not brick with Corruption), rewrite the log clean,
  // and land in the state of the last republished manifest.
  Graph base = GenerateErdosRenyi(40, 80, 3);
  std::string mono = WriteGraphFile(&scratch_, base);
  std::string manifest = NewPath("torn.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 2));
  BitVector initial = RandomMaximalSet(base, 2);

  ShardedStreamingMis first;
  ASSERT_OK(first.Initialize(manifest, initial, EnginePipelineOptions{}));
  ASSERT_OK(first.ApplyBatch({EdgeUpdate::Insert(0, 1),
                              EdgeUpdate::Insert(2, 3)}));
  const std::vector<VertexId> flushed_state = SetToVector(first.set());

  // Simulate the torn append: extra entries land in a shard log without
  // the delta manifest ever being republished.
  const std::string delta = EdgeDeltaManifestPath(manifest);
  {
    EdgeDeltaShardWriter writer;
    ASSERT_OK(writer.Open(EdgeDeltaShardPath(delta, 0), base.NumVertices()));
    ASSERT_OK(writer.Append({99, EdgeDeltaOp::kInsert, 5, 6}));
    ASSERT_OK(writer.Close());
  }
  // Strict read reports the tail...
  EdgeDeltaManifest dm;
  ASSERT_OK(ReadEdgeDeltaManifest(delta, &dm));
  std::vector<EdgeDeltaEntry> entries;
  EXPECT_TRUE(
      ReadEdgeDeltaShardLog(delta, dm, 0, &entries).IsCorruption());

  // ...while a restarted session recovers: same state as the last flush,
  // tail gone, and the overlay fully consistent again.
  ShardedStreamingMis second;
  ASSERT_OK(second.Initialize(manifest, initial, EnginePipelineOptions{}));
  EXPECT_EQ(SetToVector(second.set()), flushed_state);
  EXPECT_EQ(second.stats().recovered_log_tails, 1u);
  entries.clear();
  ASSERT_OK(ReadEdgeDeltaShardLog(delta, dm, 0, &entries));  // clean now
  ASSERT_OK(second.ApplyBatch({EdgeUpdate::Insert(7, 8)}));
  ShardedStreamingMis third;
  ASSERT_OK(third.Initialize(manifest, initial, EnginePipelineOptions{}));
  EXPECT_EQ(SetToVector(third.set()), SetToVector(second.set()));
  EXPECT_EQ(third.stats().recovered_log_tails, 0u);
}

TEST_F(IncrementalStreamTest, StreamQualityTracksFromScratchSolve) {
  // After a burst of random insertions and one repair, the maintained set
  // stays close to a from-scratch sharded solve of the updated
  // (compacted) graph -- the streaming path trades a few percent of
  // quality for not re-solving.
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(3000, 2.0), 13);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("q.sadjs");
  {
    MisEngine engine(MisEngineOptions{});
    ASSERT_OK(engine.Open(mono));
    ASSERT_OK(ShardAdjacencyFile(mono, manifest, 5));
    ShardedStreamingMis mis;
    EnginePipelineOptions opts;
    opts.num_threads = 2;
    ASSERT_OK(mis.Initialize(manifest, engine.open_result().set, opts));

    Random rng(17);
    std::vector<EdgeUpdate> updates;
    for (int i = 0; i < 400; ++i) {
      VertexId u = static_cast<VertexId>(rng.Uniform(g.NumVertices()));
      VertexId v = static_cast<VertexId>(rng.Uniform(g.NumVertices()));
      if (u != v) updates.push_back(EdgeUpdate::Insert(u, v));
    }
    ASSERT_OK(mis.ApplyBatch(updates));
    ASSERT_OK(mis.Repair());
    ASSERT_OK(mis.Compact(/*force=*/true));

    // From-scratch: solve the compacted graph directly from the shards.
    MisEngineOptions sopts;
    sopts.degree_sort = false;  // compaction cleared the sorted flag
    sopts.swap = SwapMode::kNone;
    sopts.pipeline.num_threads = 2;
    MisEngine fresh(sopts);
    ASSERT_OK(fresh.Open(manifest));
    const SolveResult& from_scratch = fresh.open_result();
    EXPECT_GT(mis.set_size(), from_scratch.set_size * 85 / 100);
    // Both satisfy the same invariants on the same graph.
    VerifyResult vr;
    ASSERT_OK(VerifyIndependentSetShardedFile(manifest, mis.set(), &vr));
    EXPECT_TRUE(vr.independent);
    EXPECT_TRUE(vr.maximal);
  }
}

TEST_F(IncrementalStreamTest, InitializeRejectsMismatchedSet) {
  Graph g = GeneratePath(4);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("mm.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 2));
  ShardedStreamingMis mis;
  EXPECT_TRUE(mis.Initialize(manifest, BitVector(3), EnginePipelineOptions{})
                  .IsInvalidArgument());
  // Uninitialized use is rejected too.
  ShardedStreamingMis unbound;
  EXPECT_TRUE(unbound.ApplyBatch({EdgeUpdate::Insert(0, 1)})
                  .IsInvalidArgument());
  EXPECT_TRUE(unbound.Repair().IsInvalidArgument());
  EXPECT_TRUE(unbound.Compact(true).IsInvalidArgument());
}

TEST_F(IncrementalStreamTest, EmptyGraphAndEmptyBatches) {
  Graph g = Graph::FromEdges(0, {});
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("empty.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 3));
  ShardedStreamingMis mis;
  ASSERT_OK(mis.Initialize(manifest, BitVector(0), EnginePipelineOptions{}));
  ASSERT_OK(mis.ApplyBatch({}));
  ASSERT_OK(mis.Repair());
  ASSERT_OK(mis.Compact(true));
  EXPECT_EQ(mis.set_size(), 0u);

  // Empty batches on a real graph are no-ops as well.
  Graph p = GeneratePath(3);
  std::string mono2 = WriteGraphFile(&scratch_, p);
  std::string manifest2 = NewPath("empty2.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono2, manifest2, 1));
  ShardedStreamingMis mis2;
  EnginePipelineOptions opts;
  opts.num_threads = 4;
  ASSERT_OK(mis2.Initialize(manifest2, BitVector(3), opts));
  ASSERT_OK(mis2.ApplyBatch({}));
  ASSERT_OK(mis2.Repair());
  EXPECT_EQ(mis2.set_size(), 3u - 1u);  // path 0-1-2: repair adds 0 and 2
}


// A store plus its IncrementalMis twin for the frontier tests: a
// degree-sorted PLRG sharded 4 ways, and a maximal starting set.
struct FrontierFixture {
  Graph graph;
  std::string mono;
  BitVector initial;
};

FrontierFixture MakeFrontierFixture(ScratchDir* scratch, uint64_t n,
                                    uint64_t seed) {
  FrontierFixture f;
  f.graph = GeneratePlrg(PlrgSpec::ForVerticesAndAvgDegree(n, 8.0), seed);
  f.mono = WriteGraphFile(scratch, f.graph);
  f.initial = RandomMaximalSet(f.graph, seed + 1);
  return f;
}

std::string ShardCopy(ScratchDir* scratch, const std::string& mono,
                      const std::string& tag) {
  const std::string manifest = scratch->NewFilePath(tag + ".sadjs");
  EXPECT_OK(ShardAdjacencyFile(mono, manifest, 4));
  return manifest;
}

// True when some non-member neighbor of `w` has no other set neighbor:
// evicting `w` frees it.
bool HasPrivateNeighbor(const Graph& g, const BitVector& set, VertexId w) {
  for (VertexId x : g.Neighbors(w)) {
    if (set.Test(x)) continue;
    int members = 0;
    for (VertexId y : g.Neighbors(x)) members += set.Test(y) ? 1 : 0;
    if (members == 1) return true;
  }
  return false;
}

// A batch of `size` updates that both evicts and frees: half are inserts
// between set members whose larger endpoint has a low degree (so its
// neighborhood stays small) and a neighbor only it covers, the rest
// delete every edge between a low-degree non-member and the set. Both
// kinds leave vertices that must rejoin.
std::vector<EdgeUpdate> SmallFrontierBatch(const Graph& g, const BitVector& set,
                                           size_t size, uint64_t seed) {
  std::vector<EdgeUpdate> batch;
  Random rng(seed);
  const auto n = static_cast<VertexId>(g.NumVertices());
  while (batch.size() < size / 2) {
    const auto u = static_cast<VertexId>(rng.Uniform(n));
    const auto v = static_cast<VertexId>(rng.Uniform(n));
    if (u == v || !set.Test(u) || !set.Test(v)) continue;
    const VertexId evicted = std::max(u, v);
    if (g.Neighbors(evicted).size() > 16 ||
        !HasPrivateNeighbor(g, set, evicted)) {
      continue;
    }
    batch.push_back(EdgeUpdate::Insert(u, v));
  }
  while (batch.size() < size) {
    const auto u = static_cast<VertexId>(rng.Uniform(n));
    if (set.Test(u) || g.Neighbors(u).size() > 8) continue;
    for (VertexId nb : g.Neighbors(u)) {
      if (set.Test(nb) && batch.size() < size) {
        batch.push_back(EdgeUpdate::Delete(u, nb));
      }
    }
  }
  return batch;
}

void ApplyToReference(IncrementalMis* reference,
                      const std::vector<EdgeUpdate>& batch) {
  for (const EdgeUpdate& up : batch) {
    ASSERT_OK(up.op == EdgeDeltaOp::kInsert ? reference->InsertEdge(up.u, up.v)
                                           : reference->DeleteEdge(up.u, up.v));
  }
}

TEST_F(IncrementalStreamTest, FrontierRepairReadsOnlyTheFrontier) {
  const FrontierFixture f = MakeFrontierFixture(&scratch_, 20000, 61);
  const uint64_t n = f.graph.NumVertices();
  const std::string manifest = ShardCopy(&scratch_, f.mono, "frontier");
  EnginePipelineOptions opts;
  opts.num_threads = 2;
  ShardedStreamingMis mis;
  ASSERT_OK(mis.Initialize(manifest, f.initial, opts));
  IncrementalMis reference;
  ASSERT_OK(reference.Initialize(f.mono, f.initial));

  // The session's first repair scans everything.
  ASSERT_OK(mis.Repair());
  ASSERT_OK(reference.Repair());
  EXPECT_EQ(mis.stats().full_repair_passes, 1u);
  ASSERT_EQ(SetToVector(mis.set()), SetToVector(reference.set()));

  const std::vector<EdgeUpdate> batch =
      SmallFrontierBatch(f.graph, mis.set(), 16, 62);
  ASSERT_OK(mis.ApplyBatch(batch));
  ApplyToReference(&reference, batch);
  ASSERT_GT(mis.stats().evictions, 0u);
  const uint64_t added_before = mis.stats().repair_added;
  const IoStats before = mis.stats().io;
  ASSERT_OK(mis.Repair());
  ASSERT_OK(reference.Repair());
  const IoStats& after = mis.stats().io;
  const uint64_t decoded = after.records_decoded - before.records_decoded;
  EXPECT_GT(decoded, 0u);
  EXPECT_LT(decoded, n / 50) << "the frontier repair read " << decoded
                             << " of " << n << " records";
  EXPECT_EQ(after.sequential_scans, before.sequential_scans);
  EXPECT_EQ(mis.stats().full_repair_passes, 1u);
  EXPECT_EQ(mis.stats().repair_passes, 2u);
  EXPECT_GT(mis.stats().repair_added, added_before);
  EXPECT_EQ(SetToVector(mis.set()), SetToVector(reference.set()));
  std::set<Edge> inserted, deleted;
  for (const EdgeUpdate& up : batch) {
    const Edge e{std::min(up.u, up.v), std::max(up.u, up.v)};
    (up.op == EdgeDeltaOp::kInsert ? inserted : deleted).insert(e);
  }
  VerifyResult vr = VerifyIndependentSet(
      ApplyDelta(f.graph, inserted, deleted), mis.set());
  EXPECT_TRUE(vr.independent && vr.maximal);

  // Nothing happened since: nothing to read.
  const uint64_t decoded_so_far = mis.stats().io.records_decoded;
  const std::vector<VertexId> repaired = SetToVector(mis.set());
  ASSERT_OK(mis.Repair());
  EXPECT_EQ(mis.stats().io.records_decoded, decoded_so_far);
  EXPECT_EQ(SetToVector(mis.set()), repaired);
  EXPECT_EQ(mis.stats().full_repair_passes, 1u);
}

TEST_F(IncrementalStreamTest, FirstRepairAfterInitializeIsFull) {
  // An adopted set need not be maximal -- an empty one certainly is not
  // -- so the first repair must scan every record.
  const FrontierFixture f = MakeFrontierFixture(&scratch_, 3000, 71);
  const uint64_t n = f.graph.NumVertices();
  const std::string manifest = ShardCopy(&scratch_, f.mono, "first");
  const BitVector empty(n);
  ShardedStreamingMis mis;
  ASSERT_OK(mis.Initialize(manifest, empty, EnginePipelineOptions{}));
  const IoStats before = mis.stats().io;
  ASSERT_OK(mis.Repair());
  EXPECT_EQ(mis.stats().full_repair_passes, 1u);
  EXPECT_EQ(mis.stats().io.sequential_scans, before.sequential_scans + 1);
  EXPECT_EQ(mis.stats().io.records_decoded, before.records_decoded + n);
  IncrementalMis reference;
  ASSERT_OK(reference.Initialize(f.mono, empty));
  ASSERT_OK(reference.Repair());
  EXPECT_EQ(SetToVector(mis.set()), SetToVector(reference.set()));
  EXPECT_EQ(mis.stats().repair_added, reference.set_size());
}

TEST_F(IncrementalStreamTest, FullRepairCountersAndMemoryIgnoreThreads) {
  // The full repair scans on the calling thread whatever the thread
  // count, so after Initialize and one full Repair the I/O counters and
  // the peak memory are those of one thread.
  const FrontierFixture f = MakeFrontierFixture(&scratch_, 3000, 73);
  const BitVector empty(f.graph.NumVertices());
  IoStats one_io;
  size_t one_peak = 0;
  for (uint32_t threads : kThreadCounts) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const std::string manifest =
        NewPath("threads" + std::to_string(threads) + ".sadjs");
    ASSERT_OK(ShardAdjacencyFile(f.mono, manifest, 7));
    EnginePipelineOptions opts;
    opts.num_threads = threads;
    ShardedStreamingMis mis;
    ASSERT_OK(mis.Initialize(manifest, empty, opts));
    ASSERT_OK(mis.Repair());
    ASSERT_EQ(mis.stats().full_repair_passes, 1u);
    if (threads == 1) {
      one_io = mis.stats().io;
      one_peak = mis.stats().peak_memory_bytes;
      continue;
    }
    EXPECT_EQ(mis.stats().io, one_io);
    EXPECT_EQ(mis.stats().peak_memory_bytes, one_peak);
  }
}

TEST_F(IncrementalStreamTest, RepairRetryAfterReadFault) {
  // Twins on identical stores take the same batch. One repairs cleanly;
  // the other's frontier repair hits a transient read fault part-way
  // through its shard reads, and its retry must land on the twin's set.
  // The fault lands early (while the evictions' records are read) and
  // late (while the candidates' records are read), each on a fresh twin.
  // At every thread count the reads finish before anything is committed,
  // so a failed repair leaves the set as it was and no bound above its
  // count.
  const FrontierFixture f = MakeFrontierFixture(&scratch_, 8000, 81);
  for (uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    EnginePipelineOptions opts;
    opts.num_threads = threads;
    const std::string tag = "t" + std::to_string(threads);
    ShardedStreamingMis clean;
    ASSERT_OK(clean.Initialize(ShardCopy(&scratch_, f.mono, "clean" + tag),
                               f.initial, opts));
    ASSERT_OK(clean.Repair());
    const std::vector<EdgeUpdate> batch =
        SmallFrontierBatch(f.graph, clean.set(), 24, 82);
    std::set<Edge> inserted, deleted;
    for (const EdgeUpdate& up : batch) {
      const Edge e{std::min(up.u, up.v), std::max(up.u, up.v)};
      (up.op == EdgeDeltaOp::kInsert ? inserted : deleted).insert(e);
    }
    const Graph effective = ApplyDelta(f.graph, inserted, deleted);
    const std::vector<VertexId> members = SetToVector(clean.set());
    ASSERT_OK(clean.ApplyBatch(batch));
    const std::vector<VertexId> evicted = LeftTheSet(members, clean.set());
    const uint64_t added_before = clean.stats().repair_added;

    // Count the shard reads of a clean frontier repair (the spec's index
    // is never reached).
    uint64_t shard_reads = 0;
    {
      FaultSpec never;
      ASSERT_OK(FaultSpec::Parse("read:1000000000@.shard", &never));
      FaultInjectionFileSystem fs(PosixFileSystem(), never);
      ScopedFileSystem scoped(&fs);
      ASSERT_OK(clean.Repair());
      shard_reads = fs.ops_matched();
    }
    ASSERT_GE(shard_reads, 4u);
    ASSERT_GT(clean.stats().repair_added, added_before);
    EXPECT_EQ(clean.stats().full_repair_passes, 1u);

    int stopped_short = 0;
    for (uint64_t nth : {uint64_t{2}, shard_reads - 1}) {
      SCOPED_TRACE("fault at shard read " + std::to_string(nth));
      ShardedStreamingMis faulted;
      const std::string store = ShardCopy(
          &scratch_, f.mono, "faulted" + tag + "_" + std::to_string(nth));
      ASSERT_OK(faulted.Initialize(store, f.initial, opts));
      ASSERT_OK(faulted.Repair());
      ASSERT_OK(faulted.ApplyBatch(batch));
      const std::vector<VertexId> before = SetToVector(faulted.set());
      FaultSpec spec;
      ASSERT_OK(FaultSpec::Parse("read:" + std::to_string(nth) + "@.shard",
                                 &spec));
      FaultInjectionFileSystem fs(PosixFileSystem(), spec);
      ScopedFileSystem scoped(&fs);
      Status s = faulted.Repair();
      EXPECT_TRUE(s.IsIOError()) << s.ToString();
      EXPECT_EQ(fs.faults_injected(), 1u);
      EXPECT_EQ(faulted.stats().repair_passes, 1u);
      EXPECT_EQ(SetToVector(faulted.set()), before);
      EXPECT_EQ(faulted.set_size(), before.size());
      if (SetToVector(faulted.set()) != SetToVector(clean.set())) {
        stopped_short++;
      }
      // The early fault fails the expansion, whose evictions stay
      // unread; the late one fails phase 1 after the expansion lowered
      // their neighbors' bounds.
      ExpectBoundHolds(faulted, store, effective,
                       nth == 2 ? evicted : std::vector<VertexId>{},
                       /*exact=*/false, "after the failed repair");
      // The fault was transient: the retry reads the frontier again.
      ASSERT_OK(faulted.Repair());
      EXPECT_EQ(faulted.stats().full_repair_passes, 1u);
      EXPECT_EQ(SetToVector(faulted.set()), SetToVector(clean.set()));
    }
    // At least one fault stopped the repair before its last join, so the
    // retry had work left to do.
    EXPECT_GT(stopped_short, 0);
  }
}

// A path a - u - v - b (base edges, or with u - v an inserted edge) among
// disjoint padding edges, a and b members: deleting (a, u) and (v, b) in
// one batch frees both u and v. Neither has a set neighbor when the
// repair starts, so both survive the read-only phase; only the
// lower-ranked one may join, and the other must see it.
void RunTwoFreedNeighbors(ScratchDir* scratch, bool inserted_blocker) {
  constexpr VertexId kN = 40;
  constexpr VertexId a = 10, u = 11, v = 28, b = 29;
  std::vector<Edge> edges = {{a, u}, {v, b}};
  if (!inserted_blocker) edges.emplace_back(u, v);
  for (VertexId x = 0; x < kN; x += 2) {
    if (x != a && x != v) edges.emplace_back(x, x + 1);
  }
  const Graph g = Graph::FromEdges(kN, std::move(edges));
  const std::string mono = WriteGraphFile(scratch, g);
  BitVector initial(kN);
  for (VertexId x = 0; x < kN; x += 2) initial.Set(x);  // a included
  initial.Clear(v);
  initial.Set(b);
  std::vector<EdgeUpdate> batch;
  if (inserted_blocker) batch.push_back(EdgeUpdate::Insert(u, v));
  batch.push_back(EdgeUpdate::Delete(a, u));
  batch.push_back(EdgeUpdate::Delete(v, b));

  IncrementalMis reference;
  ASSERT_OK(reference.Initialize(mono, initial));
  ASSERT_OK(reference.Repair());
  ApplyToReference(&reference, batch);
  ASSERT_OK(reference.Repair());
  ASSERT_TRUE(reference.set().Test(u));
  ASSERT_FALSE(reference.set().Test(v));

  for (uint32_t shards : {1u, 3u}) {
    for (uint32_t threads : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE(std::to_string(shards) + " shards, " +
                   std::to_string(threads) + " threads");
      const std::string manifest = scratch->NewFilePath(
          "path_s" + std::to_string(shards) + "_t" + std::to_string(threads) +
          ".sadjs");
      ASSERT_OK(ShardAdjacencyFile(mono, manifest, shards));
      EnginePipelineOptions opts;
      opts.num_threads = threads;
      ShardedStreamingMis mis;
      ASSERT_OK(mis.Initialize(manifest, initial, opts));
      ASSERT_OK(mis.Repair());
      ASSERT_OK(mis.ApplyBatch(batch));
      ASSERT_OK(mis.Repair());
      EXPECT_EQ(mis.stats().full_repair_passes, 1u);
      EXPECT_EQ(SetToVector(mis.set()), SetToVector(reference.set()));
      EXPECT_EQ(mis.set_size(), mis.set().Count());
    }
  }
}

TEST_F(IncrementalStreamTest, AdjacentFreedVerticesOnlyLowerRankJoins) {
  RunTwoFreedNeighbors(&scratch_, /*inserted_blocker=*/false);
}

TEST_F(IncrementalStreamTest, FreedVerticesJoinedByInsertOnlyLowerRankJoins) {
  RunTwoFreedNeighbors(&scratch_, /*inserted_blocker=*/true);
}

// Member w = 1 covers x = 2 alone; 0 is an isolated member. One batch
// inserts (0, 1), which evicts w, and deletes (1, 2), which w no longer
// counts at, and a compaction folds the delete before the repair: x's
// bound counted w, and only w's record as it was evicted still lists x.
// Padding pairs give the shards several records each.
void RunCompactionBeforeExpansion(ScratchDir* scratch, bool auto_compact) {
  constexpr VertexId kN = 40;
  std::vector<Edge> edges = {{1, 2}};
  for (VertexId x = 4; x + 1 < kN; x += 2) edges.emplace_back(x, x + 1);
  const Graph g = Graph::FromEdges(kN, std::move(edges));
  const std::string mono = WriteGraphFile(scratch, g);
  BitVector initial(kN);
  for (VertexId x = 0; x < kN; ++x) {
    if (x != 2 && (x < 4 || x % 2 == 0)) initial.Set(x);
  }
  const std::vector<EdgeUpdate> batch = {EdgeUpdate::Insert(0, 1),
                                         EdgeUpdate::Delete(1, 2)};
  IncrementalMis reference;
  ASSERT_OK(reference.Initialize(mono, initial));
  ASSERT_OK(reference.Repair());
  ApplyToReference(&reference, batch);
  ASSERT_OK(reference.Repair());
  ASSERT_TRUE(reference.set().Test(2));

  for (uint32_t shards : kShardCounts) {
    for (uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::to_string(shards) + " shards, " +
                   std::to_string(threads) + " threads");
      const std::string manifest = scratch->NewFilePath(
          "fold_s" + std::to_string(shards) + "_t" + std::to_string(threads) +
          ".sadjs");
      ASSERT_OK(ShardAdjacencyFile(mono, manifest, shards));
      EnginePipelineOptions opts;
      opts.num_threads = threads;
      opts.compact_threshold_entries = auto_compact ? 1 : 0;
      ShardedStreamingMis mis;
      ASSERT_OK(mis.Initialize(manifest, initial, opts));
      ASSERT_OK(mis.Repair());
      ASSERT_EQ(mis.blocker_bound(2), 1u);
      ASSERT_OK(mis.ApplyBatch(batch));
      if (!auto_compact) ASSERT_OK(mis.Compact(/*force=*/true));
      ASSERT_EQ(mis.stats().compactions, 1u);
      // The compaction read w's record before folding the delete.
      EXPECT_EQ(mis.blocker_bound(2), 0u);
      ASSERT_OK(mis.Repair());
      EXPECT_EQ(mis.stats().full_repair_passes, 1u);
      EXPECT_EQ(SetToVector(mis.set()), SetToVector(reference.set()));
    }
  }
}

TEST_F(IncrementalStreamTest, EvictionsExpandBeforeAnAutoCompaction) {
  RunCompactionBeforeExpansion(&scratch_, /*auto_compact=*/true);
}

TEST_F(IncrementalStreamTest, EvictionsExpandBeforeAnExplicitCompaction) {
  RunCompactionBeforeExpansion(&scratch_, /*auto_compact=*/false);
}

TEST_F(IncrementalStreamTest, SaturatedBoundCountsDownToTheJoin) {
  // Center 0 of a star with 300 member leaves: its bound saturates at
  // 255. The leaves leave one per batch, by a delete of their edge or by
  // an eviction (an insert to member 1, which has the lower id). The
  // center must stay out, mostly unread, and join at the batch that
  // takes its last member neighbor -- when its bound, refreshed by the
  // read that found it still blocked, reaches 0.
  constexpr VertexId kLeaves = 300, kN = kLeaves + 2;
  std::vector<Edge> edges;
  for (VertexId leaf = 2; leaf < kN; ++leaf) edges.emplace_back(0, leaf);
  const Graph g = Graph::FromEdges(kN, std::move(edges));
  const std::string mono = WriteGraphFile(&scratch_, g);
  BitVector initial(kN);
  for (VertexId v = 1; v < kN; ++v) initial.Set(v);
  IncrementalMis reference;
  ASSERT_OK(reference.Initialize(mono, initial));
  const std::string manifest = NewPath("star.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 3));
  EnginePipelineOptions opts;
  opts.num_threads = 2;
  ShardedStreamingMis mis;
  ASSERT_OK(mis.Initialize(manifest, initial, opts));
  ASSERT_OK(mis.Repair());
  EXPECT_EQ(mis.blocker_bound(0), 255u);
  for (VertexId leaf = 2; leaf < kN; ++leaf) {
    SCOPED_TRACE("leaf " + std::to_string(leaf));
    const std::vector<EdgeUpdate> batch = {
        leaf % 2 == 0 ? EdgeUpdate::Delete(0, leaf)
                      : EdgeUpdate::Insert(1, leaf)};
    ASSERT_OK(mis.ApplyBatch(batch));
    ApplyToReference(&reference, batch);
    ASSERT_OK(mis.Repair());
    ASSERT_OK(reference.Repair());
    ASSERT_EQ(SetToVector(mis.set()), SetToVector(reference.set()));
    const VertexId departed = leaf - 1, remaining = kLeaves - departed;
    ASSERT_EQ(mis.set().Test(0), remaining == 0);
    // Each departure lowers the bound by one; the batch that takes it to
    // 0 reads the center, which sets it to the count.
    ASSERT_EQ(mis.blocker_bound(0),
              departed < 255 ? 255 - departed : remaining);
  }
  EXPECT_EQ(mis.stats().full_repair_passes, 1u);
  // The saturated bound counted down for 255 batches without a read.
  EXPECT_GE(mis.stats().candidates_skipped, 254u);
  // The center's join counted it at each leaf whose edge is still live:
  // the evicted ones.
  for (VertexId leaf = 2; leaf < kN; ++leaf) {
    EXPECT_EQ(mis.blocker_bound(leaf), leaf % 2) << "leaf " << leaf;
  }
}

TEST_F(IncrementalStreamTest, ExpansionOverflowFallsBackToOneFullPass) {
  // Twelve stars of 150 leaves, centers in the set. Inserting edges
  // between centers evicts four of them: four evictions times the
  // average degree (1) pass the crossover check, but their 600 freed
  // leaves overflow the 256-entry frontier while the records are read,
  // so the repair runs one more full pass -- with the same set.
  constexpr VertexId kStars = 12, kLeaves = 150, kSize = kLeaves + 1;
  std::vector<Edge> edges;
  for (VertexId c = 0; c < kStars * kSize; c += kSize) {
    for (VertexId leaf = c + 1; leaf <= c + kLeaves; ++leaf) {
      edges.emplace_back(c, leaf);
    }
  }
  const Graph g = Graph::FromEdges(kStars * kSize, std::move(edges));
  const std::string mono = WriteGraphFile(&scratch_, g);
  BitVector initial(g.NumVertices());
  for (VertexId c = 0; c < kStars * kSize; c += kSize) initial.Set(c);
  std::vector<EdgeUpdate> batch;
  for (VertexId c = 0; c < 8 * kSize; c += 2 * kSize) {
    batch.push_back(EdgeUpdate::Insert(c, c + kSize));
  }
  IncrementalMis reference;
  ASSERT_OK(reference.Initialize(mono, initial));
  ApplyToReference(&reference, batch);
  ASSERT_OK(reference.Repair());

  for (uint32_t shards : {1u, 3u}) {
    for (uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::to_string(shards) + " shards, " +
                   std::to_string(threads) + " threads");
      const std::string manifest = scratch_.NewFilePath(
          "stars_s" + std::to_string(shards) + "_t" + std::to_string(threads) +
          ".sadjs");
      ASSERT_OK(ShardAdjacencyFile(mono, manifest, shards));
      EnginePipelineOptions opts;
      opts.num_threads = threads;
      ShardedStreamingMis mis;
      ASSERT_OK(mis.Initialize(manifest, initial, opts));
      ASSERT_OK(mis.Repair());
      ASSERT_OK(mis.ApplyBatch(batch));
      EXPECT_EQ(mis.stats().evictions, 4u);
      ASSERT_OK(mis.Repair());
      EXPECT_EQ(mis.stats().full_repair_passes, 2u);
      EXPECT_EQ(SetToVector(mis.set()), SetToVector(reference.set()));
      // The full pass left the set maximal: the next repair is a frontier
      // pass again.
      ASSERT_OK(mis.ApplyBatch({EdgeUpdate::Delete(0, 1)}));
      ASSERT_OK(mis.Repair());
      EXPECT_EQ(mis.stats().full_repair_passes, 2u);
      EXPECT_TRUE(mis.set().Test(1));
    }
  }
}

TEST_F(IncrementalStreamTest, ReinitializeRecoversFromWedge) {
  // A failed flush wedges the maintainer; a second Initialize on the same
  // store must start a clean session that accepts the batch again.
  Graph base = GenerateErdosRenyi(60, 140, 12);
  std::string mono = WriteGraphFile(&scratch_, base);
  const BitVector initial = RandomMaximalSet(base, 13);
  const std::string wedged_root = NewPath("wedged.sadjs");
  const std::string fresh_root = NewPath("fresh.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, wedged_root, 3));
  ASSERT_OK(ShardAdjacencyFile(mono, fresh_root, 3));
  std::vector<EdgeUpdate> batch;
  Random rng(14);
  while (batch.size() < 30) {
    const auto u = static_cast<VertexId>(rng.Uniform(60));
    const auto v = static_cast<VertexId>(rng.Uniform(60));
    if (u == v) continue;
    batch.push_back(rng.OneIn(0.4) ? EdgeUpdate::Delete(u, v)
                                   : EdgeUpdate::Insert(u, v));
  }

  ShardedStreamingMis mis;
  ASSERT_OK(mis.Initialize(wedged_root, initial, EnginePipelineOptions{}));
  {
    FaultSpec spec;
    ASSERT_OK(FaultSpec::Parse("write:1:EIO:sticky", &spec));
    FaultInjectionFileSystem fs(PosixFileSystem(), spec);
    ScopedFileSystem scoped(&fs);
    EXPECT_TRUE(mis.ApplyBatch(batch).IsIOError());
  }
  EXPECT_TRUE(mis.ApplyBatch(batch).IsInvalidArgument()) << "not wedged";
  // A wedged maintainer refuses every mutating call, a repair included.
  EXPECT_TRUE(mis.Repair().IsInvalidArgument());
  EXPECT_TRUE(mis.Compact(/*force=*/true).IsInvalidArgument());
  EXPECT_TRUE(mis.Resort().IsInvalidArgument());

  ASSERT_OK(mis.Initialize(wedged_root, initial, EnginePipelineOptions{}));
  EXPECT_EQ(mis.stats().updates_applied, 0u);
  EXPECT_EQ(mis.stats().evictions, 0u);
  ASSERT_OK(mis.ApplyBatch(batch));
  ASSERT_OK(mis.Repair());
  EXPECT_EQ(mis.stats().updates_applied, batch.size());
  EXPECT_EQ(mis.stats().full_repair_passes, 1u);

  ShardedStreamingMis fresh;
  ASSERT_OK(fresh.Initialize(fresh_root, initial, EnginePipelineOptions{}));
  ASSERT_OK(fresh.ApplyBatch(batch));
  ASSERT_OK(fresh.Repair());
  EXPECT_EQ(SetToVector(mis.set()), SetToVector(fresh.set()));
  EXPECT_EQ(mis.stats().evictions, fresh.stats().evictions);
}

// The byte offsets in shard `shard` at which those ranges' reads refill
// their buffers: each range reads its bytes, from the file's start for
// the shard's first range, through a buffer of at most kReadBufferBytes.
std::vector<uint64_t> CompactionRefills(const std::string& root,
                                        uint32_t shard, uint32_t threads) {
  std::vector<uint64_t> refills;
  for (const ShardRecordRange& range :
       CompactionRanges(root, shard, threads)) {
    const uint64_t start = range.first_record == 0 ? 0 : range.begin_offset;
    const uint64_t buffer =
        std::min(kReadBufferBytes, range.end_offset - start);
    for (uint64_t at = start + buffer; at < range.end_offset; at += buffer) {
      refills.push_back(at);
    }
  }
  return refills;
}

TEST_F(IncrementalStreamTest, CompactionCopiesRunsAcrossBufferRefills) {
  // Compaction reads each shard as record ranges, one read buffer per
  // range, copies the records no pending entry names as byte runs out of
  // it and must copy a run before the buffer refills. Touched records sit
  // just before and just after the ranges' refills, at a refill boundary
  // itself, and nowhere near others, so untouched runs cross refills; the
  // hub is an untouched record longer than the buffer. At every thread
  // count (the cut follows it) every compacted shard must equal a
  // reference written record by record from the effective graph, and
  // frontier repairs afterwards read through the new offsets.
  const Graph base = MakeBufferGraph();
  const std::string mono = WriteGraphFile(&scratch_, base);
  const BitVector initial = RandomMaximalSet(base, 5);
  for (uint32_t shards : {1u, 3u}) {
    for (uint32_t threads : {1u, 2u, 4u}) {
      SCOPED_TRACE(std::to_string(shards) + " shards, " +
                   std::to_string(threads) + " threads");
      const std::string root = NewPath("refill" + std::to_string(shards) +
                                       "_" + std::to_string(threads) +
                                       ".sadjs");
      ASSERT_OK(ShardAdjacencyFile(mono, root, shards));
      std::vector<std::vector<ShardRecord>> before(shards);
      std::vector<std::vector<uint64_t>> refills(shards);
      for (uint32_t k = 0; k < shards; ++k) {
        before[k] = ReadShardRecords(root, k);
        ASSERT_GT(before[k].back().offset, kReadBufferBytes) << "shard " << k;
        refills[k] = CompactionRefills(root, k, threads);
      }
      EnginePipelineOptions opts;
      opts.num_threads = threads;
      ShardedStreamingMis mis;
      ASSERT_OK(mis.Initialize(root, initial, opts));
      IncrementalMis reference;
      ASSERT_OK(reference.Initialize(mono, initial));
      ASSERT_OK(mis.Repair());
      ASSERT_OK(reference.Repair());

      // Around each refill of each shard: the last record before it and
      // the first after it, the record across it, or nothing.
      DeltaTracker delta(base);
      std::vector<EdgeUpdate> batch;
      std::vector<VertexId> near_refills;
      const auto touch = [&](VertexId x) {
        if (x == kHub) return;
        near_refills.push_back(x);
        batch.push_back(delta.Toggle(x, FarPartner(x)));
        if (x + 1 < kBufferGraphVertices && x + 1 != kHub) {
          batch.push_back(delta.Toggle(x, x + 1));
        }
      };
      // The record across each refill, and whether it ends at the refill.
      std::vector<std::pair<VertexId, bool>> across;
      for (uint32_t k = 0; k < shards; ++k) {
        const std::vector<ShardRecord>& recs = before[k];
        size_t i = 0;
        for (size_t j = 0; j < refills[k].size(); ++j) {
          const uint64_t refill = refills[k][j];
          if (refill >= recs.back().offset) break;
          while (recs[i + 1].offset <= refill) ++i;
          // recs[i] starts at or before the refill; it crosses it unless
          // it ends there.
          const uint64_t end =
              recs[i].offset + AdjacencyRecordBytes(static_cast<uint32_t>(
                                   recs[i].neighbors.size()));
          across.emplace_back(recs[i].id, end <= refill);
          switch ((k + j + 1) % 3) {
            case 1:
              touch(end <= refill ? recs[i].id : recs[i - 1].id);
              touch(recs[i + 1].id);
              break;
            case 2:
              break;
            default:
              touch(recs[i].id);
          }
        }
      }
      // Some record no entry names is read across a refill, into the
      // decoder's spill buffer: the hub at least.
      std::set<VertexId> touched;
      for (const EdgeUpdate& up : batch) touched.insert({up.u, up.v});
      int spilled_untouched = 0;
      for (const auto& [id, ends_there] : across) {
        if (!ends_there && touched.count(id) == 0) spilled_untouched++;
      }
      ASSERT_GT(spilled_untouched, 0);
      ASSERT_OK(mis.ApplyBatch(batch));
      ApplyToReference(&reference, batch);
      ASSERT_OK(mis.Compact(/*force=*/true));
      const Graph effective = delta.Effective();
      for (uint32_t k = 0; k < shards; ++k) {
        const std::string want = ReferenceShardBytes(
            NewPath("reference.shard"), k, before[k], effective);
        const std::string got =
            ReadFileBytes(ShardFilePath(mis.store().manifest_path, k));
        EXPECT_TRUE(got == want) << "shard " << k << ": " << got.size()
                                 << " bytes, reference " << want.size();
      }
      ExpectStoreHoldsGraph(root, effective);

      // The batch's frontier, then a second batch that frees the vertices
      // next to the refills and evicts some, all read through the offsets
      // the compaction wrote.
      ASSERT_OK(mis.Repair());
      ASSERT_OK(reference.Repair());
      ASSERT_EQ(SetToVector(mis.set()), SetToVector(reference.set()));
      std::vector<EdgeUpdate> frees;
      for (VertexId x : near_refills) {
        if (!mis.set().Test(x)) {
          for (VertexId y : effective.Neighbors(x)) {
            if (mis.set().Test(y)) frees.push_back(delta.Toggle(x, y));
          }
          continue;
        }
        // An insert to a member with a smaller id evicts x.
        for (VertexId z = 0; z < x; ++z) {
          if (mis.set().Test(z) && !effective.HasEdge(z, x)) {
            frees.push_back(delta.Toggle(z, x));
            break;
          }
        }
      }
      ASSERT_FALSE(frees.empty());
      const uint64_t decoded = mis.stats().io.records_decoded;
      ASSERT_OK(mis.ApplyBatch(frees));
      ApplyToReference(&reference, frees);
      ASSERT_OK(mis.Repair());
      ASSERT_OK(reference.Repair());
      EXPECT_EQ(SetToVector(mis.set()), SetToVector(reference.set()));
      EXPECT_EQ(mis.stats().full_repair_passes, 1u);
      EXPECT_LT(mis.stats().io.records_decoded - decoded,
                uint64_t{kBufferGraphVertices} / 50);
      VerifyResult vr = VerifyIndependentSet(delta.Effective(), mis.set());
      EXPECT_TRUE(vr.independent && vr.maximal);
    }
  }
}

TEST_F(IncrementalStreamTest, CompactionValidatesRecordsItCopies) {
  // Records no pending entry names are copied as bytes, but still decoded
  // and checked first: a corrupt one fails the compaction with Corruption
  // naming the shard file, before the root flips, and leaves the
  // maintainer able to compact once the file is whole again. The record
  // is a small one read in place, or the hub, read across a refill, both
  // in the shard's first range; or one in a middle range or the last
  // range of the cut, which moves with the thread count.
  const Graph base = MakeBufferGraph();
  const std::string mono = WriteGraphFile(&scratch_, base);
  const BitVector initial = RandomMaximalSet(base, 7);
  struct Case {
    std::string name;
    VertexId record;
    bool degree;  // corrupt the degree word, else a neighbor word
    const char* check;  // what the error must say failed
  };
  const char* kNeighborCheck = "neighbor id out of range";
  const char* kDegreeCheck = "degree exceeds header max_degree";
  const std::string probe = NewPath("probe.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, probe, 3));
  const std::vector<ShardRecord> shard0 = ReadShardRecords(probe, 0);
  for (uint32_t threads : {1u, 2u, 4u}) {
    const std::vector<ShardRecordRange> ranges =
        CompactionRanges(probe, 0, threads);
    ASSERT_GE(ranges.size(), 3u);
    const ShardRecordRange& middle = ranges[ranges.size() / 2];
    const VertexId in_middle =
        shard0[(middle.first_record + middle.end_record) / 2].id;
    const VertexId in_last = shard0[ranges.back().end_record - 1].id;
    ASSERT_GT(middle.first_record, 1000u);  // past the hub's range
    for (const Case& c :
         {Case{"buffered neighbor", 500, false, kNeighborCheck},
          Case{"buffered degree", 500, true, kDegreeCheck},
          Case{"spilled neighbor", kHub, false, kNeighborCheck},
          Case{"spilled degree", kHub, true, kDegreeCheck},
          Case{"middle-range neighbor", in_middle, false, kNeighborCheck},
          Case{"last-range degree", in_last, true, kDegreeCheck}}) {
      SCOPED_TRACE(c.name + ", " + std::to_string(threads) + " threads");
      const std::string root = NewPath("corrupt.sadjs");
      ASSERT_OK(ShardAdjacencyFile(mono, root, 3));
      EnginePipelineOptions opts;
      opts.num_threads = threads;
      ShardedStreamingMis mis;
      ASSERT_OK(mis.Initialize(root, initial, opts));
      DeltaTracker delta(base);
      // Touch two records near the start of shard 0, next to neither.
      ASSERT_OK(mis.ApplyBatch({delta.Toggle(10, 20)}));

      const ResolvedShardStore before = mis.store();
      const std::string shard_path = ShardFilePath(before.manifest_path, 0);
      const std::string intact = ReadFileBytes(shard_path);
      uint64_t word = 0;  // byte offset of the word to corrupt
      uint32_t value = 0;
      for (const ShardRecord& rec : shard0) {
        if (rec.id != c.record) continue;
        const size_t index = rec.neighbors.size() / 2;
        word = c.degree ? rec.offset + 4 : rec.offset + 8 + 4 * index;
        value = c.degree ? mis.manifest().header.max_degree + 1
                         : kBufferGraphVertices + 7;
      }
      ASSERT_GT(word, 0u);
      std::string corrupt = intact;
      std::memcpy(&corrupt[word], &value, sizeof(value));
      WriteFileBytes(shard_path, corrupt);

      Status s = mis.Compact(/*force=*/true);
      EXPECT_TRUE(s.IsCorruption()) << s.ToString();
      EXPECT_NE(s.ToString().find(c.check), std::string::npos)
          << s.ToString();
      EXPECT_NE(s.ToString().find(shard_path), std::string::npos)
          << s.ToString();
      EXPECT_EQ(mis.store().current_epoch, before.current_epoch);
      ResolvedShardStore on_disk;
      ASSERT_OK(ResolveShardStore(root, &on_disk));
      EXPECT_EQ(on_disk.manifest_path, before.manifest_path);
      EXPECT_EQ(on_disk.current_epoch, before.current_epoch);

      // Not wedged: with the file whole again, updates and the compaction
      // go through.
      WriteFileBytes(shard_path, intact);
      ASSERT_OK(mis.ApplyBatch({delta.Toggle(30, 40)}));
      ASSERT_OK(mis.Compact(/*force=*/true));
      EXPECT_EQ(mis.stats().compactions, 1u);
      ExpectStoreHoldsGraph(root, delta.Effective());
    }
  }
}

TEST_F(IncrementalStreamTest, CompactionChecksEachRangeStartsAtItsVertex) {
  // Compaction reads a shard as record ranges that start at the
  // locator's checkpoints, and only the locator knows which vertex it
  // ranks at a range's first record. Where that record holds another
  // vertex -- its id word names the shard's first vertex, as if the
  // checkpoint led to another record -- the compaction fails with
  // Corruption naming the shard file, before the root flips. The cut
  // moves with the thread count, and so does the damaged record.
  const Graph base = GeneratePlrg(PlrgSpec::ForVertexCount(3000, 2.0), 47);
  const std::string mono = WriteGraphFile(&scratch_, base);
  const BitVector initial = RandomMaximalSet(base, 48);
  for (uint32_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const std::string root = NewPath("ranked.sadjs");
    ASSERT_OK(ShardAdjacencyFile(mono, root, 2));
    EnginePipelineOptions opts;
    opts.num_threads = threads;
    ShardedStreamingMis mis;
    ASSERT_OK(mis.Initialize(root, initial, opts));
    DeltaTracker delta(base);
    ASSERT_OK(mis.ApplyBatch({delta.Toggle(10, 20)}));

    const std::vector<ShardRecordRange> ranges =
        CompactionRanges(root, 0, threads);
    ASSERT_GE(ranges.size(), 2u);
    const VertexId first = ReadShardRecords(root, 0).front().id;
    const ResolvedShardStore before = mis.store();
    const std::string shard_path = ShardFilePath(before.manifest_path, 0);
    std::string bytes = ReadFileBytes(shard_path);
    std::memcpy(&bytes[ranges[1].begin_offset], &first, sizeof(first));
    WriteFileBytes(shard_path, bytes);

    const Status s = mis.Compact(/*force=*/true);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_NE(s.ToString().find("ranks elsewhere"), std::string::npos)
        << s.ToString();
    EXPECT_NE(s.ToString().find(shard_path), std::string::npos)
        << s.ToString();
    EXPECT_EQ(mis.store().current_epoch, before.current_epoch);
  }
}

TEST_F(IncrementalStreamTest, RetiredDeltaStateEqualsReplay) {
  // After a compaction the maintainer drops from its delta state only the
  // edges no other shard still holds an entry for. Its twin, on an
  // identical store, is re-initialized from disk after every compaction,
  // so its delta state is the replay of the entries left pending. With a
  // threshold of 7 the shards compact at staggered times; the two must
  // then log the same entries byte for byte, count the same redundant
  // updates and keep the same set. The stream repairs only at the end:
  // replaying a log on top of a set that only lost vertices since evicts
  // nothing, so the twin starts each round from the maintainer's set.
  Graph base = GenerateErdosRenyi(90, 200, 41);
  std::string mono = WriteGraphFile(&scratch_, base);
  for (uint32_t shards : kShardCounts) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    const std::string live_root =
        NewPath("live" + std::to_string(shards) + ".sadjs");
    const std::string twin_root =
        NewPath("twin" + std::to_string(shards) + ".sadjs");
    ASSERT_OK(ShardAdjacencyFile(mono, live_root, shards));
    ASSERT_OK(ShardAdjacencyFile(mono, twin_root, shards));
    EnginePipelineOptions opts;
    opts.num_threads = 2;
    opts.compact_threshold_entries = 7;
    const BitVector initial = RandomMaximalSet(base, 42);
    ShardedStreamingMis live, twin;
    ASSERT_OK(live.Initialize(live_root, initial, opts));
    ASSERT_OK(twin.Initialize(twin_root, initial, opts));

    // Edges between the first and the last ids cross shards; each is
    // toggled many times, and resent unchanged now and then (a no-op the
    // delta state must recognize).
    DeltaTracker delta(base);
    Random rng(43 + shards);
    std::vector<EdgeUpdate> sent;
    uint64_t twin_redundant = 0;
    int reinitialized = 0;
    int staggered = 0;  // compactions that left other shards' logs pending
    for (int b = 0; b < 80; ++b) {
      std::vector<EdgeUpdate> batch;
      for (int i = 0; i < 4; ++i) {
        if (!sent.empty() && rng.OneIn(0.2)) {
          const EdgeUpdate& old = sent[rng.Uniform(sent.size())];
          const bool live_edge = delta.Effective().HasEdge(old.u, old.v);
          batch.push_back(live_edge ? EdgeUpdate::Insert(old.u, old.v)
                                    : EdgeUpdate::Delete(old.u, old.v));
          continue;
        }
        VertexId u = static_cast<VertexId>(rng.Uniform(8));
        VertexId v = static_cast<VertexId>(82 + rng.Uniform(8));
        if (rng.OneIn(0.3)) {
          u = static_cast<VertexId>(rng.Uniform(90));
          v = static_cast<VertexId>((u + 1 + rng.Uniform(89)) % 90);
        }
        batch.push_back(delta.Toggle(u, v));
        sent.push_back(batch.back());
      }
      const uint64_t compactions = live.stats().compactions;
      const uint64_t twin_before = twin.stats().redundant_updates;
      ASSERT_OK(live.ApplyBatch(batch));
      ASSERT_OK(twin.ApplyBatch(batch));
      twin_redundant += twin.stats().redundant_updates - twin_before;
      ASSERT_EQ(live.stats().redundant_updates, twin_redundant)
          << "batch " << b;
      ASSERT_EQ(SetToVector(live.set()), SetToVector(twin.set()))
          << "batch " << b;
      const std::string live_delta =
          EdgeDeltaManifestPath(live.store().manifest_path);
      const std::string twin_delta =
          EdgeDeltaManifestPath(twin.store().manifest_path);
      ASSERT_EQ(ReadFileBytes(live_delta), ReadFileBytes(twin_delta))
          << "batch " << b;
      for (uint32_t k = 0; k < shards; ++k) {
        ASSERT_EQ(ReadFileBytes(EdgeDeltaShardPath(live_delta, k)),
                  ReadFileBytes(EdgeDeltaShardPath(twin_delta, k)))
            << "batch " << b << " shard " << k;
      }
      if (live.stats().compactions == compactions) continue;
      EdgeDeltaManifest dm;
      ASSERT_OK(ReadEdgeDeltaManifest(live_delta, &dm));
      const auto empty_logs = static_cast<uint32_t>(
          std::count(dm.shard_entries.begin(), dm.shard_entries.end(),
                     uint64_t{0}));
      if (empty_logs > 0 && empty_logs < shards) staggered++;
      // The twin compacted too; replace its delta state by the replay.
      const BitVector kept = twin.set();
      ASSERT_OK(twin.Initialize(twin_root, kept, opts));
      ASSERT_EQ(SetToVector(live.set()), SetToVector(twin.set()));
      reinitialized++;
    }
    EXPECT_GT(reinitialized, 3);
    if (shards > 1) {
      EXPECT_GT(staggered, 0);
    }
    ASSERT_OK(live.Repair());
    ASSERT_OK(twin.Repair());
    EXPECT_EQ(SetToVector(live.set()), SetToVector(twin.set()));
    ASSERT_OK(live.Compact(/*force=*/true));
    ASSERT_OK(twin.Compact(/*force=*/true));
    for (uint32_t k = 0; k < shards; ++k) {
      EXPECT_EQ(ReadFileBytes(ShardFilePath(live.store().manifest_path, k)),
                ReadFileBytes(ShardFilePath(twin.store().manifest_path, k)))
          << "shard " << k;
    }
    ExpectStoreHoldsGraph(live_root, delta.Effective());
  }
}

// A batch of `count` random toggles of edges over vertices [0, n).
std::vector<EdgeUpdate> RandomToggles(DeltaTracker* delta, uint32_t n,
                                      int count, Random* rng) {
  std::vector<EdgeUpdate> batch;
  while (static_cast<int>(batch.size()) < count) {
    const auto u = static_cast<VertexId>(rng->Uniform(n));
    const auto v = static_cast<VertexId>(rng->Uniform(n));
    if (u != v) batch.push_back(delta->Toggle(u, v));
  }
  return batch;
}

TEST_F(IncrementalStreamTest, CommitSyncFaultKeepsThePreviousEpoch) {
  // A commit syncs its staged files concurrently above one thread. A
  // sync that fails on any one of them fails the commit before the root
  // flips: Compact returns the IOError, the root still names the previous
  // epoch, the maintainer is not wedged, and a fault-free retry commits
  // the same bytes as a run that never faulted. Each staged file's sync
  // is faulted in turn (in staged order at one thread; at four, the k-th
  // sync to start), and one index past them nothing faults: the commit
  // synced every staged file once.
  Graph base = GenerateErdosRenyi(300, 900, 51);
  std::string mono = WriteGraphFile(&scratch_, base);
  const BitVector initial = RandomMaximalSet(base, 52);
  DeltaTracker delta(base);
  Random rng(53);
  const std::vector<EdgeUpdate> first = RandomToggles(&delta, 300, 30, &rng);
  const std::vector<EdgeUpdate> second = RandomToggles(&delta, 300, 30, &rng);
  for (uint32_t shards : kShardCounts) {
    for (uint32_t threads : {1u, 4u}) {
      const std::string tag =
          std::to_string(shards) + "_" + std::to_string(threads);
      SCOPED_TRACE(tag);
      EnginePipelineOptions opts;
      opts.num_threads = threads;
      // Each run commits epoch 1, then stages epoch 2.
      const auto stage = [&](const std::string& root,
                             ShardedStreamingMis* mis) {
        ASSERT_OK(ShardAdjacencyFile(mono, root, shards));
        ASSERT_OK(mis->Initialize(root, initial, opts));
        ASSERT_OK(mis->ApplyBatch(first));
        ASSERT_OK(mis->Compact(/*force=*/true));
        ASSERT_OK(mis->ApplyBatch(second));
        ASSERT_EQ(mis->store().current_epoch, 1u);
      };
      const std::string ref_root = NewPath("sync_ref" + tag + ".sadjs");
      ShardedStreamingMis ref;
      stage(ref_root, &ref);
      ASSERT_FALSE(HasFatalFailure());
      ASSERT_OK(ref.Compact(/*force=*/true));
      const std::vector<std::string> want = StoreFileBytes(ref_root, ref);

      const uint64_t staged = 2 * uint64_t{shards} + 2;
      for (uint64_t k = 1; k <= staged + 1; ++k) {
        SCOPED_TRACE("sync " + std::to_string(k));
        const std::string root =
            NewPath("sync" + tag + "_" + std::to_string(k) + ".sadjs");
        ShardedStreamingMis mis;
        stage(root, &mis);
        ASSERT_FALSE(HasFatalFailure());
        FaultSpec spec;
        spec.op = IoOp::kSync;
        spec.nth = k;
        spec.fault_errno = ENOSPC;  // permanent: no retry absorbs it
        spec.path_substr = EpochManifestPath(root, 2);
        Status committed;
        {
          FaultInjectionFileSystem fs(PosixFileSystem(), spec);
          ScopedFileSystem scoped(&fs);
          committed = mis.Compact(/*force=*/true);
          if (k > staged) {
            EXPECT_EQ(fs.faults_injected(), 0u);
            EXPECT_EQ(fs.ops_matched(), staged);
          } else {
            EXPECT_EQ(fs.faults_injected(), 1u);
          }
        }
        if (k <= staged) {
          EXPECT_TRUE(committed.IsIOError()) << committed.ToString();
          EpochRootPointer root_ptr;
          ASSERT_OK(ReadEpochRootPointer(root, &root_ptr));
          EXPECT_EQ(root_ptr.current_epoch, 1u);
          EXPECT_EQ(mis.store().current_epoch, 1u);
          ASSERT_OK(mis.Compact(/*force=*/true));
        } else {
          ASSERT_OK(committed);
        }
        EXPECT_EQ(mis.store().current_epoch, 2u);
        EXPECT_EQ(StoreFileBytes(root, mis), want);
        EXPECT_EQ(SetToVector(mis.set()), SetToVector(ref.set()));
      }
    }
  }
}

TEST_F(IncrementalStreamTest, GcRemoveFaultAfterTheFlipKeepsTheEpoch) {
  // After the flip, the retire of the compacted entries runs beside the
  // garbage collection of the epoch before the previous one. A remove
  // that fails in that GC is returned, but the epoch is committed, and
  // the retire has run to its end: the pending count, the store's files
  // and the delta state (what later batches log and count as redundant)
  // equal those of a twin that never faulted. The orphans the failed GC
  // left are collected by the next commit or by RecoverShardStore.
  Graph base = GenerateErdosRenyi(90, 200, 61);
  std::string mono = WriteGraphFile(&scratch_, base);
  const BitVector initial = RandomMaximalSet(base, 62);
  for (uint32_t shards : kShardCounts) {
    for (uint32_t threads : {1u, 4u}) {
      for (const bool via_recovery : {false, true}) {
        const std::string tag = std::to_string(shards) + "_" +
                                std::to_string(threads) + "_" +
                                (via_recovery ? "recover" : "commit");
        SCOPED_TRACE(tag);
        const std::string live_root = NewPath("gc_live" + tag + ".sadjs");
        const std::string twin_root = NewPath("gc_twin" + tag + ".sadjs");
        ASSERT_OK(ShardAdjacencyFile(mono, live_root, shards));
        ASSERT_OK(ShardAdjacencyFile(mono, twin_root, shards));
        EnginePipelineOptions opts;
        opts.num_threads = threads;
        opts.compact_threshold_entries = 7;
        ShardedStreamingMis live, twin;
        ASSERT_OK(live.Initialize(live_root, initial, opts));
        ASSERT_OK(twin.Initialize(twin_root, initial, opts));
        DeltaTracker delta(base);
        Random rng(63 + shards);

        // Runs one batch on both; the twin goes first, and the first
        // batch that makes it commit epoch 3 (whose GC collects epoch 1)
        // runs on the live maintainer under the fault.
        bool faulted = false;
        const auto run_batch = [&](const std::vector<EdgeUpdate>& batch) {
          ASSERT_OK(twin.ApplyBatch(batch));
          if (faulted || twin.store().current_epoch != 3 ||
              live.store().current_epoch == 3) {
            ASSERT_OK(live.ApplyBatch(batch));
            return;
          }
          FaultSpec spec;
          spec.op = IoOp::kRemove;
          spec.nth = 1;
          spec.fault_errno = EIO;
          spec.path_substr = EpochManifestPath(live_root, 1);
          FaultInjectionFileSystem fs(PosixFileSystem(), spec);
          ScopedFileSystem scoped(&fs);
          const Status s = live.ApplyBatch(batch);
          EXPECT_TRUE(s.IsIOError()) << s.ToString();
          EXPECT_EQ(fs.faults_injected(), 1u);
          faulted = true;
        };
        const auto expect_same = [&] {
          EXPECT_EQ(live.stats().pending_delta_entries,
                    twin.stats().pending_delta_entries);
          EXPECT_EQ(live.stats().redundant_updates,
                    twin.stats().redundant_updates);
          EXPECT_EQ(live.stats().compactions, twin.stats().compactions);
          EXPECT_EQ(SetToVector(live.set()), SetToVector(twin.set()));
          EXPECT_EQ(StoreFileBytes(live_root, live),
                    StoreFileBytes(twin_root, twin));
        };
        for (int b = 0; b < 200 && !faulted; ++b) {
          run_batch(RandomToggles(&delta, 90, 4, &rng));
          ASSERT_FALSE(HasFatalFailure());
        }
        ASSERT_TRUE(faulted);
        EpochRootPointer root_ptr;
        ASSERT_OK(ReadEpochRootPointer(live_root, &root_ptr));
        EXPECT_EQ(root_ptr.current_epoch, 3u);
        EXPECT_EQ(live.store().current_epoch, 3u);
        expect_same();
        std::vector<std::string> orphans;
        ASSERT_OK(ListShardStoreOrphans(live.store(), &orphans));
        EXPECT_FALSE(orphans.empty());

        if (via_recovery) {
          ResolvedShardStore store;
          ShardStoreRecovery recovery;
          ASSERT_OK(RecoverShardStore(live_root, &store, &recovery));
          EXPECT_EQ(recovery.orphan_files_removed, orphans.size());
          EXPECT_EQ(store.current_epoch, 3u);
        }
        // Later batches log the same entries, through the next commit.
        const uint64_t commits = twin.stats().compactions;
        for (int b = 0; b < 200 && twin.stats().compactions == commits;
             ++b) {
          run_batch(RandomToggles(&delta, 90, 4, &rng));
          ASSERT_FALSE(HasFatalFailure());
          expect_same();
        }
        EXPECT_GT(twin.stats().compactions, commits);
        ASSERT_OK(ListShardStoreOrphans(live.store(), &orphans));
        EXPECT_TRUE(orphans.empty());
        ASSERT_OK(live.Repair());
        ASSERT_OK(twin.Repair());
        ASSERT_OK(live.Compact(/*force=*/true));
        ASSERT_OK(twin.Compact(/*force=*/true));
        expect_same();
        ExpectStoreHoldsGraph(live_root, delta.Effective());
      }
    }
  }
}

TEST_F(IncrementalStreamTest, InitializeStatFaultKeepsTheOverlay) {
  // Only a missing overlay makes Initialize start a fresh one, whose
  // empty logs replace the live ones. A stat of an overlay file that
  // fails for any other reason, in the store's resolution or in
  // Initialize's own look for the overlay, is returned as the IOError,
  // and the logs are kept: a fault-free Initialize then replays every
  // pending entry. On a legacy root, then on a journaled one.
  Graph base = GenerateErdosRenyi(60, 130, 81);
  std::string mono = WriteGraphFile(&scratch_, base);
  const BitVector initial = RandomMaximalSet(base, 82);
  const std::string root = NewPath("statfault.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, root, 3));
  DeltaTracker delta(base);
  Random rng(83);
  ShardedStreamingMis first;
  ASSERT_OK(first.Initialize(root, initial, EnginePipelineOptions{}));
  for (const bool journaled : {false, true}) {
    SCOPED_TRACE(journaled ? "journaled" : "legacy");
    if (journaled) ASSERT_OK(first.Compact(/*force=*/true));
    ASSERT_EQ(first.store().journaled, journaled);
    ASSERT_OK(first.ApplyBatch(RandomToggles(&delta, 60, 20, &rng)));
    const uint64_t pending = first.stats().pending_delta_entries;
    ASSERT_GT(pending, 0u);
    const std::vector<std::string> want = StoreFileBytes(root, first);
    FaultSpec spec;
    spec.op = IoOp::kStat;
    spec.fault_errno = EIO;
    spec.path_substr = EdgeDeltaManifestPath(first.store().manifest_path);
    // The overlay stats a fault-free Initialize makes.
    uint64_t stats = 0;
    {
      spec.nth = uint64_t{1} << 40;
      FaultInjectionFileSystem fs(PosixFileSystem(), spec);
      ScopedFileSystem scoped(&fs);
      ShardedStreamingMis probe;
      ASSERT_OK(probe.Initialize(root, initial, EnginePipelineOptions{}));
      stats = fs.ops_matched();
    }
    ASSERT_GT(stats, 0u);
    for (uint64_t k = 1; k <= stats; ++k) {
      SCOPED_TRACE("stat " + std::to_string(k));
      ShardedStreamingMis mis;
      {
        spec.nth = k;
        FaultInjectionFileSystem fs(PosixFileSystem(), spec);
        ScopedFileSystem scoped(&fs);
        const Status s =
            mis.Initialize(root, initial, EnginePipelineOptions{});
        EXPECT_TRUE(s.IsIOError()) << s.ToString();
        EXPECT_EQ(fs.faults_injected(), 1u);
      }
      EXPECT_EQ(StoreFileBytes(root, first), want);
      ASSERT_OK(mis.Initialize(root, initial, EnginePipelineOptions{}));
      EXPECT_EQ(mis.stats().pending_delta_entries, pending);
    }
  }
}

TEST_F(IncrementalStreamTest, CompactionFoldsAllEntriesInOneRange) {
  // Every pending entry names two vertices whose records sit in one
  // checkpoint block of shard 0, so a compaction's folds all land in the
  // bucket of the range holding that block, and every other range's
  // bucket is empty; toggling the same edges again makes repeats the
  // range drops. The rewritten store must hold the effective graph, with
  // the same bytes at every thread count.
  Graph base = GenerateErdosRenyi(3000, 6000, 71);
  std::string mono = WriteGraphFile(&scratch_, base);
  const BitVector initial = RandomMaximalSet(base, 72);
  for (uint32_t shards : kShardCounts) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    std::vector<std::vector<std::string>> bytes;
    for (uint32_t threads : kThreadCounts) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      const std::string root =
          NewPath("onerange" + std::to_string(shards) + "_" +
                  std::to_string(threads) + ".sadjs");
      ASSERT_OK(ShardAdjacencyFile(mono, root, shards));
      // Records 48-63 of shard 0: the vertex ids of its fourth block.
      std::vector<VertexId> block;
      {
        AdjacencyFileScanner scanner;
        ASSERT_OK(scanner.OpenStore(root));
        VertexRecordView rec;
        bool has_next = false;
        for (uint32_t r = 0; r < 64; ++r) {
          ASSERT_OK(scanner.Next(&rec, &has_next));
          ASSERT_TRUE(has_next);
          if (r >= 3 * kLocatorCheckpointStride) block.push_back(rec.id);
        }
      }
      const std::vector<ShardRecordRange> ranges =
          CompactionRanges(root, 0, threads);
      ASSERT_GT(ranges.size(), threads > 1 ? 3u : 0u);
      const size_t holding = static_cast<size_t>(
          std::count_if(ranges.begin(), ranges.end(),
                        [](const ShardRecordRange& r) {
                          return r.first_record < 64 && r.end_record > 48;
                        }));
      EXPECT_EQ(holding, 1u);

      EnginePipelineOptions opts;
      opts.num_threads = threads;
      ShardedStreamingMis mis;
      ASSERT_OK(mis.Initialize(root, initial, opts));
      DeltaTracker delta(base);
      Random rng(73);
      for (int round = 0; round < 3; ++round) {
        std::vector<EdgeUpdate> batch;
        while (batch.size() < 40) {
          const VertexId u = block[rng.Uniform(block.size())];
          const VertexId v = block[rng.Uniform(block.size())];
          if (u != v) batch.push_back(delta.Toggle(u, v));
        }
        ASSERT_OK(mis.ApplyBatch(batch));
      }
      ASSERT_OK(mis.Repair());
      ASSERT_OK(mis.Compact(/*force=*/true));
      EXPECT_EQ(mis.stats().shards_rewritten, 1u);
      ExpectStoreHoldsGraph(root, delta.Effective());
      bytes.push_back(StoreFileBytes(root, mis));
    }
    for (size_t t = 1; t < bytes.size(); ++t) {
      EXPECT_EQ(bytes[t], bytes[0]) << "thread count #" << t;
    }
  }
}

}  // namespace
}  // namespace semis
