// Copyright (c) the semis authors.
// Incremental maintenance of an independent set under edge updates -- the
// paper's primary future-work item ("how our solutions can be extended to
// the incremental massive graphs with frequent updates").
//
// Model: the base graph lives in an adjacency file; updates arrive as
// edge insertions and deletions relative to that base. In memory we keep
// only O(|V|) bits of membership plus the update delta itself (the
// semi-external contract: deltas are assumed to fit, the base edges are
// not).
//
//   * InsertEdge(u, v): if both endpoints are in the set, the later-id
//     endpoint is evicted immediately -- independence is maintained
//     eagerly, O(1) per update.
//   * DeleteEdge(u, v): recorded; it can only create *maximality* slack,
//     never an independence violation.
//   * Repair(): one sequential scan of the base file (merged with the
//     delta) re-adds every vertex that lost all of its set neighbors --
//     the lazy counterpart, amortizing maximality restoration over many
//     updates exactly like the paper amortizes swaps over scans.
//
// Invariants: the set is independent w.r.t. the *updated* graph after
// every single operation; it is additionally maximal after Repair().
#ifndef SEMIS_CORE_INCREMENTAL_H_
#define SEMIS_CORE_INCREMENTAL_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/bit_vector.h"
#include "util/common.h"
#include "util/status.h"

namespace semis {

/// Maintains an independent set over "base adjacency file + edge delta".
class IncrementalMis {
 public:
  IncrementalMis() = default;

  /// Binds the maintainer to a base file and a starting independent set
  /// over it (e.g. MisEngine::open_result().set). The set is copied.
  Status Initialize(const std::string& adjacency_path,
                    const BitVector& initial_set);

  /// Applies an edge insertion. Returns InvalidArgument for self-loops or
  /// out-of-range ids. Inserting an edge that already exists (in base or
  /// delta) is a no-op.
  Status InsertEdge(VertexId u, VertexId v);

  /// Applies an edge deletion (of a base or previously inserted edge).
  Status DeleteEdge(VertexId u, VertexId v);

  /// Restores maximality with one sequential scan of the base file,
  /// consulting the delta for every record. Safe to call at any time.
  Status Repair();

  /// Current membership (always independent; maximal right after
  /// Repair()).
  const BitVector& set() const { return set_; }

  /// Current |set|.
  uint64_t set_size() const { return set_size_; }

  /// Updates applied since Initialize().
  uint64_t updates_applied() const { return updates_; }

  /// Vertices evicted by insertions since the last Repair().
  uint64_t pending_evictions() const { return pending_evictions_; }

 private:
  static uint64_t EdgeKey(VertexId u, VertexId v) {
    if (u > v) std::swap(u, v);
    return (static_cast<uint64_t>(u) << 32) | v;
  }

  std::string path_;
  uint64_t n_ = 0;
  BitVector set_;
  uint64_t set_size_ = 0;
  // Delta: inserted edges (and their adjacency) and deleted edge keys.
  // The effective edge set is (base \ deleted) + inserted. `inserted_` may
  // overlap the base file (an insert can duplicate a base edge; we never
  // scan the base to find out) and `deleted_` may hold keys the base never
  // had (inert there) -- both redundancies are harmless, and tracking them
  // is what keeps a delete after a duplicate insert from resurrecting the
  // base copy.
  std::unordered_set<uint64_t> inserted_;
  std::unordered_set<uint64_t> deleted_;
  std::unordered_map<VertexId, std::vector<VertexId>> inserted_adj_;
  uint64_t updates_ = 0;
  uint64_t pending_evictions_ = 0;
};

}  // namespace semis

#endif  // SEMIS_CORE_INCREMENTAL_H_
