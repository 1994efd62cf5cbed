// A resident MisEngine serving membership queries while the graph keeps
// changing underneath it -- the open -> serve -> mutate -> republish
// lifecycle:
//
//   * Open() solves the snapshot once and publishes it as epoch 1;
//   * reader threads answer queries from immutable epoch snapshots --
//     they NEVER block, not even while a repair scan is running;
//   * a mutator applies update batches to a private successor state,
//     repairs maximality, and Publish()es each repaired state as the
//     next epoch (an atomic pointer swap; old epochs retire when their
//     last reader lets go).
//
// The example runs one reader thread against a live mutator and prints
// the epochs the reader actually observed.
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "gen/plrg.h"
#include "graph/graph_io.h"
#include "io/scratch.h"
#include "util/random.h"

int main() {
  using namespace semis;
  ScratchDir scratch;
  if (!ScratchDir::Create("semis-engine-session", &scratch).ok()) return 1;

  Graph base = GeneratePlrg(PlrgSpec::ForVerticesAndAvgDegree(100000, 6.0), 5);
  std::string path = scratch.NewFilePath("base.adj");
  if (!WriteGraphToAdjacencyFile(base, path).ok()) return 1;

  // Open = solve + publish epoch 1. The engine stays resident; the same
  // options drive a one-shot solve (Open, then read open_result()).
  MisEngineOptions options;
  options.pipeline.num_shards = 4;
  options.pipeline.num_threads = 2;
  MisEngine engine(options);
  if (!engine.Open(path).ok()) return 1;
  std::printf("epoch 1 published: %llu-vertex independent set\n",
              static_cast<unsigned long long>(engine.Snapshot()->set_size()));

  // Reader: spin on Snapshot(), recording every distinct epoch it sees.
  // Snapshot() is a refcounted pointer copy -- wait-free in practice.
  std::atomic<bool> stop{false};
  std::vector<uint64_t> observed;
  std::thread reader([&] {
    uint64_t last = 0;
    uint64_t queries = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      EpochSnapshotRef snap = engine.Snapshot();
      queries += snap->Contains(queries % 100000) ? 1 : 1;
      if (snap->epoch() != last) {
        last = snap->epoch();
        observed.push_back(last);
      }
    }
    std::printf("reader: %llu queries served, never blocked\n",
                static_cast<unsigned long long>(queries));
  });

  // Mutator: three batches of random churn, each published as an epoch.
  Random rng(42);
  const VertexId n = base.NumVertices();
  for (int round = 0; round < 3; ++round) {
    std::vector<EdgeUpdate> batch;
    for (int i = 0; i < 2000; ++i) {
      VertexId u = static_cast<VertexId>(rng.Uniform(n));
      VertexId v = static_cast<VertexId>(rng.Uniform(n));
      if (u == v) continue;
      batch.push_back(rng.OneIn(0.3) ? EdgeUpdate::Delete(u, v)
                                     : EdgeUpdate::Insert(u, v));
    }
    if (!engine.ApplyBatch(batch).ok()) return 1;
    std::printf("round %d: applied %zu updates, staleness %llu\n", round + 1,
                batch.size(),
                static_cast<unsigned long long>(engine.staleness()));
    if (!engine.Repair().ok()) return 1;
    EpochSnapshotRef epoch = engine.Publish();
    const EpochStats& es = epoch->stats();
    std::printf(
        "epoch %llu published: %llu vertices (%llu updates folded in, "
        "repair re-added %llu)\n",
        static_cast<unsigned long long>(epoch->epoch()),
        static_cast<unsigned long long>(epoch->set_size()),
        static_cast<unsigned long long>(es.updates),
        static_cast<unsigned long long>(es.repair_added));
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  std::printf("reader observed epochs:");
  for (uint64_t e : observed) std::printf(" %llu",
                                          static_cast<unsigned long long>(e));
  std::printf("\n");
  return 0;
}
