// Copyright (c) the semis authors.
// Shared helpers for the test suite.
#ifndef SEMIS_TESTS_TEST_UTIL_H_
#define SEMIS_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_io.h"
#include "io/file.h"
#include "io/scratch.h"
#include "util/bit_vector.h"
#include "util/random.h"
#include "util/status.h"

namespace semis {
namespace testing_util {

/// gtest assertion wrapper: ASSERT_OK(status).
#define ASSERT_OK(expr)                                 \
  do {                                                  \
    ::semis::Status _s = (expr);                        \
    ASSERT_TRUE(_s.ok()) << _s.ToString();              \
  } while (0)

#define EXPECT_OK(expr)                                 \
  do {                                                  \
    ::semis::Status _s = (expr);                        \
    EXPECT_TRUE(_s.ok()) << _s.ToString();              \
  } while (0)

/// Test fixture mixin owning a scratch directory.
class ScratchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(ScratchDir::Create("semis-test", &scratch_));
  }
  std::string NewPath(const std::string& tag) {
    return scratch_.NewFilePath(tag);
  }
  ScratchDir scratch_;
};

/// Writes `graph` to a new adjacency file under `scratch` in id order.
inline std::string WriteGraphFile(ScratchDir* scratch, const Graph& graph) {
  std::string path = scratch->NewFilePath("graph.adj");
  Status s = WriteGraphToAdjacencyFile(graph, path);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return path;
}

/// Writes `graph` in an explicit record order with `flags`.
inline std::string WriteGraphFileInOrder(ScratchDir* scratch,
                                         const Graph& graph,
                                         const std::vector<VertexId>& order,
                                         uint32_t flags = 0) {
  std::string path = scratch->NewFilePath("graph.adj");
  Status s = WriteGraphToAdjacencyFileInOrder(graph, order, flags, path);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return path;
}

/// Builds a maximal independent set by greedy over a seeded random vertex
/// order (reference implementation; used to produce arbitrary valid
/// initial sets for the swap algorithms).
inline BitVector RandomMaximalSet(const Graph& graph, uint64_t seed) {
  std::vector<VertexId> order(graph.NumVertices());
  std::iota(order.begin(), order.end(), 0);
  Random rng(seed);
  rng.Shuffle(order.data(), order.size());
  BitVector set(graph.NumVertices());
  std::vector<uint8_t> blocked(graph.NumVertices(), 0);
  for (VertexId v : order) {
    if (blocked[v]) continue;
    set.Set(v);
    blocked[v] = 1;
    for (VertexId u : graph.Neighbors(v)) blocked[u] = 1;
  }
  return set;
}

/// Exhaustive independence number for very small graphs (n <= 24),
/// independent of the baselines/exact implementation.
inline uint64_t BruteForceAlpha(const Graph& graph) {
  const VertexId n = graph.NumVertices();
  EXPECT_LE(n, 24u);
  std::vector<uint32_t> adj(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId u : graph.Neighbors(v)) adj[v] |= (1u << u);
  }
  uint64_t best = 0;
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    bool ok = true;
    for (VertexId v = 0; v < n && ok; ++v) {
      if ((mask >> v) & 1u) {
        if ((adj[v] & mask) != 0) ok = false;
      }
    }
    if (ok) {
      uint64_t size = __builtin_popcount(mask);
      if (size > best) best = size;
    }
  }
  return best;
}

/// The whole content of the file at `path` (for byte-identity checks).
inline std::vector<char> ReadAllBytes(const std::string& path) {
  std::vector<char> bytes;
  SequentialFileReader r;
  EXPECT_OK(r.Open(path));
  char buf[1 << 16];
  size_t n = 0;
  do {
    EXPECT_OK(r.Read(buf, sizeof(buf), &n));
    bytes.insert(bytes.end(), buf, buf + n);
  } while (n > 0);
  EXPECT_OK(r.Close());
  return bytes;
}

/// Converts a bit vector to a sorted id list (nicer gtest failure output).
inline std::vector<VertexId> SetToVector(const BitVector& set) {
  std::vector<VertexId> out;
  for (size_t v = 0; v < set.size(); ++v) {
    if (set.Test(v)) out.push_back(static_cast<VertexId>(v));
  }
  return out;
}

}  // namespace testing_util
}  // namespace semis

#endif  // SEMIS_TESTS_TEST_UTIL_H_
