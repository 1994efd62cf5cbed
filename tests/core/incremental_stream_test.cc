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
//   * after a session's first (full) repair, a repair reads only the
//     frontier a batch can free, with no scan, and still gives the full
//     pass's set -- also across re-sorts, and when retried after a read
//     fault.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/incremental.h"
#include "core/incremental_stream.h"
#include "core/verify.h"
#include "gen/generators.h"
#include "gen/paper_figures.h"
#include "gen/plrg.h"
#include "graph/graph_io.h"
#include "graph/shard_store.h"
#include "graph/sharded_adjacency_file.h"
#include "io/edge_delta_file.h"
#include "io/env.h"
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
  ShardedAdjacencyScanner scanner;
  EXPECT_OK(scanner.Open(root));
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

// Drives a seeded random update stream over `base` through a sequential
// IncrementalMis and the full shard/thread matrix, checking equality and
// the independence/maximality invariants after every batch + repair.
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
      ASSERT_OK(inst.mis.ApplyBatch(batch_updates));
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
      ASSERT_OK(inst.mis.Repair());
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
  // never change any answer.
  Graph base = GenerateErdosRenyi(80, 180, 33);
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
  ShardedAdjacencyScanner scanner;
  ASSERT_OK(scanner.Open(manifest));
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
  ShardedAdjacencyScanner scanner2;
  ASSERT_OK(scanner2.Open(manifest2));
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
  ShardedAdjacencyScanner scanner;
  ASSERT_OK(scanner.Open(manifest));
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
  AdjacencyShardReader reader;
  EXPECT_OK(reader.Open(store.manifest_path, manifest, shard));
  uint64_t offset = kAdjacencyShardHeaderBytes;
  VertexRecordView rec;
  bool has_next = false;
  while (true) {
    EXPECT_OK(reader.Next(&rec, &has_next));
    if (!has_next) break;
    records.push_back(ShardRecord{
        rec.id, offset, {rec.neighbors, rec.neighbors + rec.degree}});
    offset += AdjacencyRecordBytes(rec.degree);
  }
  EXPECT_OK(reader.Close());
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
    ASSERT_OK(writer.Open(delta, 0, base.NumVertices()));
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

TEST_F(IncrementalStreamTest, RepairRetryAfterReadFault) {
  // Twins on identical stores take the same batch. One repairs cleanly;
  // the other's frontier repair hits a transient read fault part-way
  // through its shard reads, and its retry must land on the twin's set.
  // The fault lands early (while the evictions' records are read) and
  // late (while the candidates' records are read), each on a fresh twin.
  // At 1 thread a late fault stops the pass after some joins; at 4 the
  // reads run on the pool before anything is committed, so a failed
  // repair leaves the set as it was.
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
    ASSERT_OK(clean.ApplyBatch(batch));
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
      ASSERT_OK(faulted.Initialize(
          ShardCopy(&scratch_, f.mono,
                    "faulted" + tag + "_" + std::to_string(nth)),
          f.initial, opts));
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
      if (threads > 1) {
        EXPECT_EQ(SetToVector(faulted.set()), before);
        EXPECT_EQ(faulted.set_size(), before.size());
      }
      if (SetToVector(faulted.set()) != SetToVector(clean.set())) {
        stopped_short++;
      }
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
// repair starts, so both survive the pool's read-only phase; only the
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

TEST_F(IncrementalStreamTest, CompactionCopiesRunsAcrossBufferRefills) {
  // Compaction copies the records no pending entry names as byte runs out
  // of the read buffer and must flush a run before the buffer refills.
  // Touched records sit just before and just after refills, at a refill
  // boundary itself, and nowhere near others, so untouched runs cross
  // refills; the hub is an untouched record longer than the buffer.
  // Every compacted shard must equal a reference written record by record
  // from the effective graph, and frontier repairs afterwards read
  // through the new offsets.
  const Graph base = MakeBufferGraph();
  const std::string mono = WriteGraphFile(&scratch_, base);
  const BitVector initial = RandomMaximalSet(base, 5);
  for (uint32_t shards : {1u, 3u}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    const std::string root =
        NewPath("refill" + std::to_string(shards) + ".sadjs");
    ASSERT_OK(ShardAdjacencyFile(mono, root, shards));
    std::vector<std::vector<ShardRecord>> before(shards);
    for (uint32_t k = 0; k < shards; ++k) {
      before[k] = ReadShardRecords(root, k);
      ASSERT_GT(before[k].back().offset, kReadBufferBytes) << "shard " << k;
    }
    EnginePipelineOptions opts;
    opts.num_threads = 2;
    ShardedStreamingMis mis;
    ASSERT_OK(mis.Initialize(root, initial, opts));
    IncrementalMis reference;
    ASSERT_OK(reference.Initialize(mono, initial));
    ASSERT_OK(mis.Repair());
    ASSERT_OK(reference.Repair());

    // Around each refill of each shard: the last record before it and the
    // first after it, the record across it, or nothing.
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
    int spilled_untouched = 0;
    for (uint32_t k = 0; k < shards; ++k) {
      const std::vector<ShardRecord>& recs = before[k];
      size_t i = 0;
      for (uint64_t j = 1; j * kReadBufferBytes < recs.back().offset; ++j) {
        const uint64_t refill = j * kReadBufferBytes;
        while (recs[i + 1].offset <= refill) ++i;
        // recs[i] starts at or before the refill; it crosses it unless it
        // ends there.
        const uint64_t end =
            recs[i].offset + AdjacencyRecordBytes(static_cast<uint32_t>(
                                 recs[i].neighbors.size()));
        switch ((k + j) % 3) {
          case 1:
            touch(end <= refill ? recs[i].id : recs[i - 1].id);
            touch(recs[i + 1].id);
            break;
          case 2:
            if (end > refill) spilled_untouched++;
            break;
          default:
            touch(recs[i].id);
        }
      }
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

TEST_F(IncrementalStreamTest, CompactionValidatesRecordsItCopies) {
  // Records no pending entry names are copied as bytes, but still decoded
  // and checked first: a corrupt one fails the compaction with Corruption
  // naming the shard file, before the root flips, and leaves the
  // maintainer able to compact once the file is whole again. The record
  // is a small one read in place, or the hub, read across a refill.
  const Graph base = MakeBufferGraph();
  const std::string mono = WriteGraphFile(&scratch_, base);
  const BitVector initial = RandomMaximalSet(base, 7);
  struct Case {
    const char* name;
    VertexId record;
    bool degree;  // corrupt the degree word, else a neighbor word
    const char* check;  // what the error must say failed
  };
  const char* kNeighborCheck = "neighbor id out of range";
  const char* kDegreeCheck = "degree exceeds header max_degree";
  for (const Case& c : {Case{"buffered neighbor", 500, false, kNeighborCheck},
                        Case{"buffered degree", 500, true, kDegreeCheck},
                        Case{"spilled neighbor", kHub, false, kNeighborCheck},
                        Case{"spilled degree", kHub, true, kDegreeCheck}}) {
    SCOPED_TRACE(c.name);
    const std::string root = NewPath("corrupt.sadjs");
    ASSERT_OK(ShardAdjacencyFile(mono, root, 3));
    ShardedStreamingMis mis;
    ASSERT_OK(mis.Initialize(root, initial, EnginePipelineOptions{}));
    DeltaTracker delta(base);
    // Touch two records near the start of shard 0, next to neither.
    ASSERT_OK(mis.ApplyBatch({delta.Toggle(10, 20)}));

    const ResolvedShardStore before = mis.store();
    const std::string shard_path = ShardFilePath(before.manifest_path, 0);
    const std::string intact = ReadFileBytes(shard_path);
    uint64_t word = 0;  // byte offset of the word to corrupt
    uint32_t value = 0;
    for (const ShardRecord& rec : ReadShardRecords(root, 0)) {
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
    EXPECT_NE(s.ToString().find(c.check), std::string::npos) << s.ToString();
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

}  // namespace
}  // namespace semis
