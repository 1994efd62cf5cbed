// Lifecycle tests for the resident MisEngine (core/engine.h):
//
//   * differential replay: the epoch sequence published by an engine
//     driving apply -> repair -> publish equals, byte for byte, a
//     standalone ShardedStreamingMis (and the sequential IncrementalMis
//     reference) fed the same update script -- across the full
//     1/3/7-shard x 1/2/8-thread matrix, so every combination publishes
//     the identical epochs (the determinism contract);
//   * an unsorted monolithic open sorts straight into its shard store,
//     byte-identical to sorting to a file and splitting that, also when
//     the sort spills and merges in several passes; a storage fault at
//     any site of that open fails it cleanly, and a retry writes the
//     same store; an input that repeats a vertex id fails at every
//     entry point;
//   * epoch snapshots are immutable: a reference held across later
//     publications (and Close) keeps showing its own epoch's set;
//   * Publish() is a no-op without mutation, per-epoch stats carry the
//     deltas since the previous publication, staleness tracks unpublished
//     updates;
//   * reader/mutator stress: reader threads snapshotting concurrently
//     with apply/repair/publish only ever observe fully-published epochs
//     (every observed (epoch, checksum) pair matches the publisher's
//     record of that epoch).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/incremental.h"
#include "core/incremental_stream.h"
#include "core/solver.h"
#include "core/verify.h"
#include "gen/generators.h"
#include "gen/plrg.h"
#include "graph/degree_sort.h"
#include "graph/graph_io.h"
#include "graph/sharded_adjacency_file.h"
#include "io/env.h"
#include "test_util.h"

namespace semis {
namespace {

using testing_util::RandomMaximalSet;
using testing_util::ReadAllBytes;
using testing_util::ScratchTest;
using testing_util::SetToVector;
using testing_util::WriteGraphFile;

class EngineTest : public ScratchTest {};

constexpr uint32_t kShardCounts[] = {1, 3, 7};
constexpr uint32_t kThreadCounts[] = {1, 2, 8};

// Order-sensitive fingerprint of a set; collisions are irrelevant here,
// the tests only compare fingerprints of sets that must be EQUAL.
uint64_t Fingerprint(const BitVector& set) {
  uint64_t h = 1469598103934665603ull;
  for (size_t v = 0; v < set.size(); ++v) {
    if (set.Test(v)) {
      h ^= v;
      h *= 1099511628211ull;
    }
  }
  return h;
}

// A deterministic update script over `n` vertices: mostly edge flips,
// with some redundant traffic mixed in. Batches of `batch` updates.
std::vector<std::vector<EdgeUpdate>> MakeScript(uint64_t seed, VertexId n,
                                                int batches, int batch) {
  Random rng(seed * 977 + 13);
  std::vector<std::vector<EdgeUpdate>> script;
  for (int b = 0; b < batches; ++b) {
    script.emplace_back();
    while (static_cast<int>(script.back().size()) < batch) {
      VertexId u = static_cast<VertexId>(rng.Uniform(n));
      VertexId v = static_cast<VertexId>(rng.Uniform(n));
      if (u == v) continue;
      script.back().push_back(rng.OneIn(0.45)
                                  ? EdgeUpdate::Delete(u, v)
                                  : EdgeUpdate::Insert(u, v));
    }
  }
  return script;
}

// Drives `script` through (a) the sequential IncrementalMis reference,
// (b) a standalone ShardedStreamingMis, and (c) a MisEngine, per
// shard/thread combination, asserting the engine's published epoch equals
// both after every batch.
void RunDifferentialLifecycle(ScratchDir* scratch, const Graph& base,
                              uint64_t seed, int batches, int batch,
                              bool compact_midway) {
  std::string mono = scratch->NewFilePath("eng" + std::to_string(seed) +
                                          ".adj");
  ASSERT_OK(WriteGraphToAdjacencyFile(base, mono));
  const BitVector initial = RandomMaximalSet(base, seed + 77);
  const auto script =
      MakeScript(seed, base.NumVertices(), batches, batch);

  // Sequential reference over the monolithic file.
  IncrementalMis reference;
  ASSERT_OK(reference.Initialize(mono, initial));
  std::vector<std::vector<VertexId>> expected;
  for (const auto& updates : script) {
    for (const EdgeUpdate& u : updates) {
      if (u.op == EdgeDeltaOp::kInsert) {
        ASSERT_OK(reference.InsertEdge(u.u, u.v));
      } else {
        ASSERT_OK(reference.DeleteEdge(u.u, u.v));
      }
    }
    ASSERT_OK(reference.Repair());
    expected.push_back(SetToVector(reference.set()));
  }

  for (uint32_t shards : kShardCounts) {
    for (uint32_t threads : kThreadCounts) {
      const std::string tag = "eng" + std::to_string(seed) + "_s" +
                              std::to_string(shards) + "_t" +
                              std::to_string(threads);
      // Standalone maintainer on its own sharded copy.
      std::string standalone_manifest =
          scratch->NewFilePath(tag + "_sa.sadjs");
      ASSERT_OK(ShardAdjacencyFile(mono, standalone_manifest, shards));
      ShardedStreamingMis standalone;
      EnginePipelineOptions popts;
      popts.num_threads = threads;
      ASSERT_OK(standalone.Initialize(standalone_manifest, initial, popts));

      // Engine adopting the same initial set on another sharded copy.
      std::string engine_manifest =
          scratch->NewFilePath(tag + "_en.sadjs");
      ASSERT_OK(ShardAdjacencyFile(mono, engine_manifest, shards));
      MisEngineOptions eopts;
      eopts.pipeline.num_threads = threads;
      MisEngine engine(eopts);
      ASSERT_OK(engine.OpenSharded(engine_manifest, initial));
      ASSERT_TRUE(engine.is_open());
      ASSERT_EQ(engine.Snapshot()->epoch(), 1u);
      ASSERT_EQ(SetToVector(engine.Snapshot()->set()),
                SetToVector(initial));

      for (size_t b = 0; b < script.size(); ++b) {
        ASSERT_OK(standalone.ApplyBatch(script[b]));
        ASSERT_OK(standalone.Repair());

        ASSERT_OK(engine.ApplyBatch(script[b]));
        ASSERT_OK(engine.Repair());
        if (compact_midway && b == script.size() / 2) {
          ASSERT_OK(engine.Compact(/*force=*/true));
        }
        EpochSnapshotRef epoch = engine.Publish();
        ASSERT_NE(epoch, nullptr);
        // Epoch numbering: 1 was the adopted open, +1 per publish.
        ASSERT_EQ(epoch->epoch(), 2 + b) << tag;
        // Byte-identical to the standalone maintainer AND the sequential
        // monolithic reference -- which also proves every shard/thread
        // combination publishes the identical epoch sequence.
        ASSERT_EQ(SetToVector(epoch->set()), expected[b])
            << tag << " batch " << b;
        ASSERT_EQ(SetToVector(standalone.set()), expected[b])
            << tag << " batch " << b;
        ASSERT_EQ(epoch->set_size(), epoch->set().Count());
        // The served snapshot IS the published epoch.
        ASSERT_EQ(engine.Snapshot()->epoch(), epoch->epoch());
        ASSERT_EQ(engine.staleness(), 0u);
      }
    }
  }
}

TEST_F(EngineTest, DifferentialLifecycleErdosRenyi) {
  Graph base = GenerateErdosRenyi(90, 220, 7);
  RunDifferentialLifecycle(&scratch_, base, /*seed=*/1, /*batches=*/4,
                           /*batch=*/25, /*compact_midway=*/false);
}

TEST_F(EngineTest, DifferentialLifecyclePlrg) {
  Graph base = GeneratePlrg(PlrgSpec::ForVertexCount(250, 2.0), 19);
  RunDifferentialLifecycle(&scratch_, base, /*seed=*/2, /*batches=*/3,
                           /*batch=*/30, /*compact_midway=*/false);
}

TEST_F(EngineTest, DifferentialLifecycleWithCompaction) {
  // Compact(force) mid-stream is storage-only: the epoch sequence must
  // not change.
  Graph base = GenerateErdosRenyi(80, 200, 23);
  RunDifferentialLifecycle(&scratch_, base, /*seed=*/3, /*batches=*/4,
                           /*batch=*/20, /*compact_midway=*/true);
}

TEST_F(EngineTest, OpenSolvesAndPublishesEpochOne) {
  Graph base = GeneratePlrg(PlrgSpec::ForVertexCount(200, 2.0), 5);
  std::string mono = WriteGraphFile(&scratch_, base);

  MisEngineOptions opts;
  opts.verify = true;
  MisEngine engine(opts);
  ASSERT_OK(engine.Open(mono));
  EpochSnapshotRef snap = engine.Snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->epoch(), 1u);
  EXPECT_EQ(snap->set_size(), engine.open_result().set_size);
  EXPECT_EQ(SetToVector(snap->set()), SetToVector(engine.open_result().set));
  EXPECT_TRUE(engine.open_result().degree_sorted);
  // Epoch 1 carries no streaming deltas.
  EXPECT_EQ(snap->stats().batches, 0u);
  EXPECT_EQ(snap->stats().updates, 0u);

  // The one-shot Solver facade must produce the identical result.
  Solver solver(opts);
  SolveResult res;
  ASSERT_OK(solver.SolveFile(mono, &res));
  EXPECT_EQ(SetToVector(res.set), SetToVector(snap->set()));
}

// Every counter the swap stage reports: its round count and each
// RoundStats field but the wall-clock `seconds`.
std::vector<uint64_t> RoundCounters(const AlgoResult& res) {
  std::vector<uint64_t> out{res.rounds};
  for (const RoundStats& r : res.round_stats) {
    out.insert(out.end(),
               {r.one_k_swaps, r.two_k_swaps, r.follower_joins,
                r.zero_one_swaps, r.conflicts, r.denied_promotions,
                r.new_is_vertices, r.removed_is_vertices, r.is_size_after,
                r.frontier_after});
  }
  return out;
}

TEST_F(EngineTest, MonolithicOpenEqualsShardedManifestOpen) {
  // One open path: a monolithic open degree-sorts and splits the file into
  // max(1, num_shards) shards, then solves exactly like an open of the
  // manifest a user builds with the same two library calls -- the same
  // set, swap rounds and per-round counters at every thread count.
  Graph base = GeneratePlrg(PlrgSpec::ForVertexCount(3000, 1.9), 43);
  std::string mono = WriteGraphFile(&scratch_, base);
  std::string sorted = scratch_.NewFilePath("one_path.sadj");
  ASSERT_OK(BuildDegreeSortedAdjacencyFile(mono, sorted, DegreeSortOptions{}));
  for (uint32_t shards : {0u, 1u, 3u}) {
    std::string manifest = scratch_.NewFilePath(
        "one_path_s" + std::to_string(shards) + ".sadjs");
    ASSERT_OK(ShardAdjacencyFile(sorted, manifest, std::max(1u, shards)));
    for (uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::to_string(shards) + " shards, " +
                   std::to_string(threads) + " threads");
      MisEngineOptions opts;
      opts.pipeline.num_shards = shards;
      opts.pipeline.num_threads = threads;
      MisEngine from_manifest(opts);
      ASSERT_OK(from_manifest.Open(manifest));
      MisEngine from_mono(opts);
      ASSERT_OK(from_mono.Open(mono));
      EXPECT_FALSE(from_mono.manifest_path().empty());

      const SolveResult& want = from_manifest.open_result();
      const SolveResult& got = from_mono.open_result();
      EXPECT_EQ(SetToVector(got.set), SetToVector(want.set));
      EXPECT_EQ(got.set_size, want.set_size);
      EXPECT_GT(got.swap.rounds, 0u);
      EXPECT_EQ(RoundCounters(got.swap), RoundCounters(want.swap));
      EXPECT_TRUE(got.degree_sorted);

      // No late split: the mutation arm binds to the store Open built.
      const uint64_t written = got.io.bytes_written;
      ASSERT_OK(from_mono.Prepare());
      EXPECT_EQ(from_mono.open_result().io.bytes_written, written);
      ASSERT_NE(from_mono.streaming_stats(), nullptr);
    }
  }
}

TEST_F(EngineTest, UnsortedMonolithicOpenSortsStraightIntoShards) {
  // An unsorted monolithic open degree-sorts the file straight into the
  // shard store: the engine's scratch dir holds that store and nothing
  // else, and its bytes equal sorting to a file and splitting that --
  // also when a tiny budget and fan-in 2 make the sort spill and run
  // intermediate merge passes.
  Graph base = GeneratePlrg(PlrgSpec::ForVertexCount(2000, 1.9), 47);
  std::string mono = WriteGraphFile(&scratch_, base);
  std::string sorted = NewPath("reference.sadj");
  ASSERT_OK(BuildDegreeSortedAdjacencyFile(mono, sorted, DegreeSortOptions{}));
  for (bool spill : {false, true}) {
    for (uint32_t shards : kShardCounts) {
      SCOPED_TRACE(std::to_string(shards) + " shards" +
                   (spill ? ", spilled" : ""));
      const std::string reference = NewPath("reference.sadjs");
      ASSERT_OK(ShardAdjacencyFile(sorted, reference, shards));
      const std::string dir = NewPath("engine_scratch");
      ASSERT_TRUE(std::filesystem::create_directory(dir));
      MisEngineOptions opts;
      opts.scratch_dir = dir;
      opts.swap = SwapMode::kNone;
      opts.pipeline.num_shards = shards;
      if (spill) {
        opts.sort_memory_budget_bytes = 4096;
        opts.sort_fan_in = 2;
      }
      MisEngine engine(opts);
      ASSERT_OK(engine.Open(mono));
      const SolveResult& res = engine.open_result();
      EXPECT_TRUE(res.degree_sorted);
      EXPECT_GT(res.sort_seconds, 0.0);
      EXPECT_GE(res.shard_seconds, res.sort_seconds);
      if (spill) {
        EXPECT_GE(res.io.sort_passes, 3u);  // two merge levels at least
      } else {
        EXPECT_EQ(res.io.sort_passes, 0u);  // sorted in memory
      }

      std::vector<std::string> left;
      for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        left.push_back(entry.path().filename().string());
      }
      std::sort(left.begin(), left.end());
      std::vector<std::string> want{"sharded.sadjs"};
      for (uint32_t k = 0; k < shards; ++k) {
        want.push_back("sharded.sadjs.shard" + std::to_string(k));
      }
      std::sort(want.begin(), want.end());
      EXPECT_EQ(left, want);

      EXPECT_EQ(engine.manifest_path(), dir + "/sharded.sadjs");
      EXPECT_EQ(ReadAllBytes(engine.manifest_path()), ReadAllBytes(reference));
      for (uint32_t k = 0; k < shards; ++k) {
        EXPECT_EQ(ReadAllBytes(ShardFilePath(engine.manifest_path(), k)),
                  ReadAllBytes(ShardFilePath(reference, k)))
            << "shard " << k;
      }
      ASSERT_OK(engine.Close());
    }
  }
}

TEST_F(EngineTest, MonolithicOpenThenMutate) {
  // A monolithic open solves over the engine's shard copy, which the
  // mutation arm then binds to; the maintained set must still match the
  // sequential reference.
  Graph base = GenerateErdosRenyi(70, 160, 31);
  std::string mono = WriteGraphFile(&scratch_, base);

  MisEngine engine(MisEngineOptions{});
  ASSERT_OK(engine.Open(mono));
  EXPECT_EQ(engine.streaming_stats(), nullptr);

  IncrementalMis reference;
  // The engine's post-solve set is the reference's initial set; mirror it
  // from the published epoch. Note the reference binds to the SORTED file
  // order only through the set, which is order-independent.
  const auto script = MakeScript(/*seed=*/9, base.NumVertices(), 3, 15);
  ASSERT_OK(reference.Initialize(mono, engine.Snapshot()->set()));
  for (const auto& updates : script) {
    for (const EdgeUpdate& u : updates) {
      if (u.op == EdgeDeltaOp::kInsert) {
        ASSERT_OK(reference.InsertEdge(u.u, u.v));
      } else {
        ASSERT_OK(reference.DeleteEdge(u.u, u.v));
      }
    }
    ASSERT_OK(reference.Repair());
    ASSERT_OK(engine.ApplyBatch(updates));
    ASSERT_OK(engine.Repair());
    EpochSnapshotRef epoch = engine.Publish();
    ASSERT_EQ(SetToVector(epoch->set()), SetToVector(reference.set()));
  }
  ASSERT_NE(engine.streaming_stats(), nullptr);
  EXPECT_EQ(engine.streaming_stats()->updates_applied, 3u * 15u);
  ASSERT_OK(engine.Close());
  EXPECT_FALSE(engine.is_open());
  EXPECT_EQ(engine.Snapshot(), nullptr);
}

TEST_F(EngineTest, SnapshotsAreImmutableAcrossPublications) {
  Graph base = GenerateErdosRenyi(60, 140, 3);
  std::string mono = WriteGraphFile(&scratch_, base);
  std::string manifest = scratch_.NewFilePath("imm.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 3));
  const BitVector initial = RandomMaximalSet(base, 11);

  MisEngine engine(MisEngineOptions{});
  ASSERT_OK(engine.OpenSharded(manifest, initial));
  EpochSnapshotRef first = engine.Snapshot();
  const std::vector<VertexId> first_set = SetToVector(first->set());
  const uint64_t first_fp = Fingerprint(first->set());

  const auto script = MakeScript(/*seed=*/4, base.NumVertices(), 2, 20);
  for (const auto& updates : script) {
    ASSERT_OK(engine.ApplyBatch(updates));
    ASSERT_OK(engine.Repair());
    engine.Publish();
  }
  // The old epoch is untouched by later publications...
  EXPECT_EQ(first->epoch(), 1u);
  EXPECT_EQ(SetToVector(first->set()), first_set);
  EXPECT_EQ(Fingerprint(first->set()), first_fp);
  EXPECT_EQ(engine.Snapshot()->epoch(), 3u);
  // ...and by Close: a held reference outlives the engine's interest.
  ASSERT_OK(engine.Close());
  EXPECT_EQ(SetToVector(first->set()), first_set);
}

TEST_F(EngineTest, PublishIsNoOpWithoutMutation) {
  Graph base = GenerateErdosRenyi(50, 100, 13);
  std::string mono = WriteGraphFile(&scratch_, base);
  std::string manifest = scratch_.NewFilePath("noop.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 2));

  MisEngine engine(MisEngineOptions{});
  ASSERT_OK(engine.OpenSharded(manifest, RandomMaximalSet(base, 1)));
  EpochSnapshotRef before = engine.Snapshot();
  // No mutation yet: Publish returns the current epoch unchanged.
  EXPECT_EQ(engine.Publish(), before);
  EXPECT_EQ(engine.Snapshot()->epoch(), 1u);
  // Prepare alone (no overlay to replay) is not a mutation either.
  ASSERT_OK(engine.Prepare());
  EXPECT_EQ(engine.Publish()->epoch(), 1u);
  // A mutation makes exactly one new epoch, then Publish is a no-op
  // again.
  ASSERT_OK(engine.ApplyBatch({EdgeUpdate::Insert(0, 1)}));
  EXPECT_EQ(engine.Publish()->epoch(), 2u);
  EXPECT_EQ(engine.Publish()->epoch(), 2u);
}

TEST_F(EngineTest, EpochStatsCarryDeltasAndStalenessTracks) {
  Graph base = GenerateErdosRenyi(60, 130, 17);
  std::string mono = WriteGraphFile(&scratch_, base);
  std::string manifest = scratch_.NewFilePath("stats.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 3));

  MisEngine engine(MisEngineOptions{});
  ASSERT_OK(engine.OpenSharded(manifest, RandomMaximalSet(base, 2)));
  const auto script = MakeScript(/*seed=*/6, base.NumVertices(), 3, 10);

  // Two batches + one repair into epoch 2.
  ASSERT_OK(engine.ApplyBatch(script[0]));
  EXPECT_EQ(engine.staleness(), 10u);
  ASSERT_OK(engine.ApplyBatch(script[1]));
  EXPECT_EQ(engine.staleness(), 20u);
  ASSERT_OK(engine.Repair());
  EpochSnapshotRef e2 = engine.Publish();
  EXPECT_EQ(e2->epoch(), 2u);
  EXPECT_EQ(e2->stats().batches, 2u);
  EXPECT_EQ(e2->stats().updates, 20u);
  EXPECT_EQ(e2->stats().repair_passes, 1u);
  EXPECT_EQ(engine.staleness(), 0u);

  // One batch + two repairs into epoch 3: the deltas reset per epoch.
  ASSERT_OK(engine.ApplyBatch(script[2]));
  ASSERT_OK(engine.Repair());
  ASSERT_OK(engine.Repair());
  EpochSnapshotRef e3 = engine.Publish();
  EXPECT_EQ(e3->epoch(), 3u);
  EXPECT_EQ(e3->stats().batches, 1u);
  EXPECT_EQ(e3->stats().updates, 10u);
  EXPECT_EQ(e3->stats().repair_passes, 2u);
  // Cumulative session stats keep the running totals.
  ASSERT_NE(engine.streaming_stats(), nullptr);
  EXPECT_EQ(engine.streaming_stats()->updates_applied, 30u);
  EXPECT_EQ(engine.streaming_stats()->repair_passes, 3u);
}

TEST_F(EngineTest, AdoptedSetMustMatchVertexCount) {
  Graph base = GenerateErdosRenyi(40, 80, 29);
  std::string mono = WriteGraphFile(&scratch_, base);
  std::string manifest = scratch_.NewFilePath("adopt.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 2));

  MisEngine engine(MisEngineOptions{});
  BitVector wrong(17);
  Status s = engine.OpenSharded(manifest, wrong);
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(engine.is_open());
}

TEST_F(EngineTest, ReaderMutatorStressObservesOnlyPublishedEpochs) {
  Graph base = GeneratePlrg(PlrgSpec::ForVertexCount(300, 2.0), 41);
  std::string mono = WriteGraphFile(&scratch_, base);
  std::string manifest = scratch_.NewFilePath("stress.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 3));

  MisEngineOptions opts;
  opts.pipeline.num_threads = 2;
  MisEngine engine(opts);
  ASSERT_OK(engine.OpenSharded(manifest, RandomMaximalSet(base, 8)));

  // The publisher's record of every epoch it made available.
  std::map<uint64_t, uint64_t> published;  // epoch -> fingerprint
  {
    EpochSnapshotRef e1 = engine.Snapshot();
    published[e1->epoch()] = Fingerprint(e1->set());
  }

  constexpr int kReaders = 8;
  constexpr int kEpochs = 6;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> total_reads{0};
  // Each reader records the distinct (epoch, fingerprint) pairs it saw.
  std::vector<std::map<uint64_t, uint64_t>> seen(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!stop.load(std::memory_order_relaxed)) {
        EpochSnapshotRef snap = engine.Snapshot();
        ASSERT_NE(snap, nullptr);
        // Reading the whole set through the snapshot must be safe while
        // the mutator repairs/publishes underneath.
        const uint64_t fp = Fingerprint(snap->set());
        auto it = seen[r].find(snap->epoch());
        if (it == seen[r].end()) {
          seen[r][snap->epoch()] = fp;
        } else {
          // The same epoch must never change its contents.
          ASSERT_EQ(it->second, fp) << "epoch " << snap->epoch();
        }
        ASSERT_EQ(snap->set_size(), snap->set().Count());
        total_reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  const auto script =
      MakeScript(/*seed=*/12, base.NumVertices(), kEpochs, 40);
  for (const auto& updates : script) {
    ASSERT_OK(engine.ApplyBatch(updates));
    ASSERT_OK(engine.Repair());
    EpochSnapshotRef epoch = engine.Publish();
    published[epoch->epoch()] = Fingerprint(epoch->set());
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  EXPECT_GT(total_reads.load(), 0u);
  // Every observation was of a fully-published epoch: its fingerprint
  // matches what the publisher recorded for that epoch number. A torn or
  // half-published snapshot would show an unknown epoch or a mismatched
  // fingerprint.
  for (int r = 0; r < kReaders; ++r) {
    for (const auto& [epoch, fp] : seen[r]) {
      auto it = published.find(epoch);
      ASSERT_NE(it, published.end())
          << "reader " << r << " saw unpublished epoch " << epoch;
      EXPECT_EQ(it->second, fp) << "reader " << r << " epoch " << epoch;
    }
  }
}

// ----------------------------------------------------- degraded serving --

FaultSpec EngineFaultSpec(const std::string& text) {
  FaultSpec out;
  Status s = FaultSpec::Parse(text, &out);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

TEST_F(EngineTest, DegradedModeServesLastEpochAfterStorageFailure) {
  // An injected storage failure mid-mutation must flip the engine into
  // sticky read-only: the last published epoch keeps serving, every
  // mutator reports FailedPrecondition, and Publish never exposes the
  // half-applied successor.
  Graph base = GenerateErdosRenyi(60, 140, 47);
  std::string mono = WriteGraphFile(&scratch_, base);
  std::string manifest = scratch_.NewFilePath("deg.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 3));
  const BitVector initial = RandomMaximalSet(base, 5);

  MisEngine engine(MisEngineOptions{});
  ASSERT_OK(engine.OpenSharded(manifest, initial));
  const auto script = MakeScript(/*seed=*/31, base.NumVertices(), 2, 15);

  // One healthy round first: epoch 2 is the last good state.
  ASSERT_OK(engine.ApplyBatch(script[0]));
  ASSERT_OK(engine.Repair());
  EpochSnapshotRef good = engine.Publish();
  ASSERT_EQ(good->epoch(), 2u);
  const std::vector<VertexId> good_set = SetToVector(good->set());
  EXPECT_FALSE(engine.read_only());

  // Fail the batch commit: first write of the next mutation hits ENOSPC
  // (permanent and sticky, so no retry site can absorb it).
  Status failed;
  {
    FaultInjectionFileSystem fs(PosixFileSystem(),
                                EngineFaultSpec("write:1:ENOSPC:sticky"));
    ScopedFileSystem scoped(&fs);
    failed = engine.ApplyBatch(script[1]);
  }
  ASSERT_TRUE(failed.IsIOError()) << failed.ToString();

  // Sticky read-only -- the fault filesystem is long gone, but the engine
  // cannot know how much of the mutation landed.
  EXPECT_TRUE(engine.read_only());
  EXPECT_TRUE(engine.degraded_reason().IsIOError());
  EXPECT_TRUE(engine.is_open());

  // Reads keep serving the last published epoch, bit for bit.
  EpochSnapshotRef snap = engine.Snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->epoch(), 2u);
  EXPECT_EQ(SetToVector(snap->set()), good_set);

  // Every mutator is rejected with FailedPrecondition naming the cause.
  EXPECT_TRUE(engine.ApplyBatch(script[1]).IsFailedPrecondition());
  EXPECT_TRUE(engine.Repair().IsFailedPrecondition());
  EXPECT_TRUE(engine.Compact(/*force=*/true).IsFailedPrecondition());
  EXPECT_TRUE(engine.Resort().IsFailedPrecondition());
  EXPECT_TRUE(engine.Prepare().IsFailedPrecondition());

  // Publish must NOT mint an epoch from the half-applied state: it keeps
  // returning the current one.
  EXPECT_EQ(engine.Publish()->epoch(), 2u);
  EXPECT_EQ(SetToVector(engine.Publish()->set()), good_set);

  // Close clears the latch; a fresh open on intact storage is healthy.
  ASSERT_OK(engine.Close());
  std::string manifest2 = scratch_.NewFilePath("deg2.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest2, 3));
  ASSERT_OK(engine.OpenSharded(manifest2, initial));
  EXPECT_FALSE(engine.read_only());
  ASSERT_OK(engine.ApplyBatch(script[0]));
  ASSERT_OK(engine.Repair());
  EXPECT_EQ(engine.Publish()->epoch(), 2u);
}

// A SADJ file written raw, so that it can break the rules
// AdjacencyFileWriter enforces: a header declaring `num_vertices`
// vertices, 6 directed edges and max degree 2, then `records` as
// (id, degree, neighbors...) words.
std::string WriteRawAdjacencyFile(
    ScratchDir* scratch, uint32_t flags, uint64_t num_vertices,
    const std::vector<std::vector<uint32_t>>& records) {
  const std::string path = scratch->NewFilePath("raw.adj");
  SequentialFileWriter w;
  EXPECT_OK(w.Open(path));
  EXPECT_OK(w.AppendU32(0x4A444153u));  // magic
  EXPECT_OK(w.AppendU32(1));            // version
  EXPECT_OK(w.AppendU64(num_vertices));
  EXPECT_OK(w.AppendU64(6));  // directed edges
  EXPECT_OK(w.AppendU32(flags));
  EXPECT_OK(w.AppendU32(2));  // max degree
  for (const auto& rec : records) {
    for (uint32_t word : rec) EXPECT_OK(w.AppendU32(word));
  }
  EXPECT_OK(w.Close());
  return path;
}

// A 4-vertex file whose records carry ids 0, 1, 2, 1: id 3 has no record.
std::string WriteRepeatedIdFile(ScratchDir* scratch, uint32_t flags) {
  return WriteRawAdjacencyFile(
      scratch, flags, 4, {{0, 1, 1}, {1, 2, 0, 2}, {2, 1, 1}, {1, 2, 0, 2}});
}

TEST_F(EngineTest, RepeatedVertexIdRejectedAtEveryEntryPoint) {
  auto names_vertex_1 = [](const Status& s) {
    return s.ToString().find("vertex id 1 ") != std::string::npos;
  };
  {
    AdjacencyFileWriter w;
    ASSERT_OK(w.Open(NewPath("direct.adj"), 4, 6, 2, 0));
    const VertexId n0[] = {1}, n1[] = {0, 2}, n2[] = {1};
    ASSERT_OK(w.AppendVertex(0, n0, 1));
    ASSERT_OK(w.AppendVertex(1, n1, 2));
    ASSERT_OK(w.AppendVertex(2, n2, 1));
    Status s = w.AppendVertex(1, n1, 2);
    EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
    EXPECT_TRUE(names_vertex_1(s)) << s.ToString();
  }
  const std::string unsorted = WriteRepeatedIdFile(&scratch_, 0);
  const std::string flagged =
      WriteRepeatedIdFile(&scratch_, kAdjFlagDegreeSorted);
  // The placement sees the repeat in its id -> offset table and names the
  // file; the merge sorts it, and the writer's vertex bits catch it.
  for (size_t budget : {size_t{64} << 20, size_t{16}}) {
    SCOPED_TRACE("sort budget " + std::to_string(budget));
    DegreeSortOptions sort_opts;
    sort_opts.memory_budget_bytes = budget;
    Status s = BuildDegreeSortedAdjacencyFile(unsorted, NewPath("sorted.adj"),
                                              sort_opts);
    EXPECT_FALSE(s.ok());
    EXPECT_TRUE(names_vertex_1(s)) << s.ToString();
    if (budget > 16) {
      EXPECT_TRUE(s.IsCorruption()) << s.ToString();
      EXPECT_NE(s.ToString().find(unsorted), std::string::npos);
    }
    for (bool verify : {false, true}) {
      MisEngineOptions opts;
      opts.sort_memory_budget_bytes = budget;
      opts.verify = verify;
      opts.pipeline.num_shards = 3;
      opts.pipeline.num_threads = 2;
      MisEngine engine(opts);
      s = engine.Open(unsorted);
      EXPECT_FALSE(s.ok()) << "verify " << verify;
      EXPECT_TRUE(names_vertex_1(s)) << s.ToString();
      EXPECT_FALSE(engine.is_open());
    }
  }
  // An input flagged sorted is split as it stands.
  MisEngineOptions opts;
  opts.verify = true;
  opts.pipeline.num_shards = 3;
  MisEngine engine(opts);
  Status s = engine.Open(flagged);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(names_vertex_1(s)) << s.ToString();
}

TEST_F(EngineTest, VertexCountPastTheIdSpaceIsCorruption) {
  // The path 0-1-2-3 under a header whose vertex count has its top bit
  // flipped: 2^63 + 4. No sort regime may size anything from that count;
  // the records run out, and every entry point reports Corruption.
  const std::string path =
      WriteRawAdjacencyFile(&scratch_, 0, (uint64_t{1} << 63) + 4,
                            {{0, 1, 1}, {1, 2, 0, 2}, {2, 2, 1, 3}, {3, 1, 2}});
  for (size_t budget : {size_t{64} << 20, size_t{16}}) {
    SCOPED_TRACE("sort budget " + std::to_string(budget));
    DegreeSortOptions sort_opts;
    sort_opts.memory_budget_bytes = budget;
    Status s =
        BuildDegreeSortedAdjacencyFile(path, NewPath("sorted.adj"), sort_opts);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    MisEngineOptions opts;
    opts.sort_memory_budget_bytes = budget;
    opts.pipeline.num_shards = 3;
    MisEngine engine(opts);
    s = engine.Open(path);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_FALSE(engine.is_open());
  }
}

TEST_F(EngineTest, UnsortedOpenFaultSweepJoinsWorkersAndRetriesCleanly) {
  // A sticky ENOSPC at every open, write and sync site of an unsorted open
  // at 7 shards and 4 threads (the sort writes the shards, the greedy
  // reads them on 4 workers): each faulted Open returns the error after
  // its workers stopped (no I/O follows it), and a fault-free retry in the
  // same directory writes the golden store byte for byte.
  Graph base = GeneratePlrg(PlrgSpec::ForVertexCount(3000, 1.9), 71);
  const std::string mono = WriteGraphFile(&scratch_, base);
  constexpr uint32_t kShards = 7;
  auto options = [&](const std::string& dir) {
    MisEngineOptions opts;
    opts.scratch_dir = dir;
    opts.swap = SwapMode::kNone;
    opts.pipeline.num_shards = kShards;
    opts.pipeline.num_threads = 4;
    return opts;
  };
  auto store_bytes = [&](const std::string& dir) {
    std::vector<std::vector<char>> files{ReadAllBytes(dir + "/sharded.sadjs")};
    for (uint32_t k = 0; k < kShards; ++k) {
      files.push_back(ReadAllBytes(ShardFilePath(dir + "/sharded.sadjs", k)));
    }
    return files;
  };
  const std::string golden_dir = NewPath("golden");
  ASSERT_TRUE(std::filesystem::create_directory(golden_dir));
  {
    MisEngine engine(options(golden_dir));
    ASSERT_OK(engine.Open(mono));
    ASSERT_OK(engine.Close());
  }
  const auto golden = store_bytes(golden_dir);

  for (const std::string op : {"open", "write", "sync"}) {
    uint64_t faulted = 0;
    for (uint64_t nth = 1;; ++nth) {
      SCOPED_TRACE(op + ":" + std::to_string(nth));
      const std::string dir = NewPath("faulted");
      ASSERT_TRUE(std::filesystem::create_directory(dir));
      FaultInjectionFileSystem fs(
          PosixFileSystem(),
          EngineFaultSpec(op + ":" + std::to_string(nth) + ":ENOSPC:sticky"));
      Status s;
      uint64_t ops_at_return = 0;
      {
        ScopedFileSystem scoped(&fs);
        MisEngine engine(options(dir));
        s = engine.Open(mono);
        ops_at_return = fs.ops_matched();
      }
      if (fs.faults_injected() == 0) {
        ASSERT_OK(s);  // past the last site
        break;
      }
      faulted++;
      EXPECT_TRUE(s.IsIOError()) << s.ToString();
      EXPECT_EQ(fs.ops_matched(), ops_at_return);
      MisEngine retry(options(dir));
      ASSERT_OK(retry.Open(mono));
      EXPECT_TRUE(store_bytes(dir) == golden);
      ASSERT_OK(retry.Close());
    }
    if (op != "sync") {
      EXPECT_GT(faulted, kShards) << op;
    }
  }
}

TEST_F(EngineTest, InvalidArgumentDoesNotLatchReadOnly) {
  // Caller mistakes (here: mutating a closed engine) are not storage
  // failures -- they must not poison the engine.
  MisEngine engine(MisEngineOptions{});
  Status s = engine.ApplyBatch({EdgeUpdate::Insert(0, 1)});
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_FALSE(engine.read_only());
}

TEST_F(EngineTest, SnapshotDoesNotWaitOnInFlightRepair) {
  // Snapshot() only copies a pointer under the publication mutex, so a
  // reader makes progress while a repair is running. Run Repair on a
  // helper thread and keep snapshotting until it finishes: every
  // observation must be the PRE-repair epoch (repair alone publishes
  // nothing), and the loop must complete at least one read.
  Graph base = GeneratePlrg(PlrgSpec::ForVertexCount(300, 2.0), 43);
  std::string mono = WriteGraphFile(&scratch_, base);
  std::string manifest = scratch_.NewFilePath("nb.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 3));

  MisEngine engine(MisEngineOptions{});
  ASSERT_OK(engine.OpenSharded(manifest, RandomMaximalSet(base, 4)));
  const auto script = MakeScript(/*seed=*/21, base.NumVertices(), 1, 200);
  ASSERT_OK(engine.ApplyBatch(script[0]));
  const uint64_t pre_epoch = engine.Snapshot()->epoch();

  std::atomic<bool> done{false};
  std::thread mutator([&] {
    Status s = engine.Repair();
    done.store(true, std::memory_order_release);
    ASSERT_TRUE(s.ok()) << s.ToString();
  });
  uint64_t reads = 0;
  do {
    EpochSnapshotRef snap = engine.Snapshot();
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->epoch(), pre_epoch);
    reads++;
  } while (!done.load(std::memory_order_acquire));
  mutator.join();
  EXPECT_GE(reads, 1u);
  // The repaired state surfaces only on the next Publish.
  EXPECT_EQ(engine.Publish()->epoch(), pre_epoch + 1);
}

}  // namespace
}  // namespace semis
