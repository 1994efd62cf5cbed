#include "core/parallel_swap.h"

#include <algorithm>
#include <atomic>
#include <span>
#include <utility>
#include <vector>

#include "graph/shard_store.h"
#include "graph/sharded_adjacency_file.h"
#include "util/fan_out.h"
#include "util/flat_key_set.h"
#include "util/timer.h"

namespace semis {

namespace {

// Normalized key of an IS pair {w1, w2} (as in two_k_swap.cc).
uint64_t PairKey(VertexId a, VertexId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | b;
}
VertexId PairFirst(uint64_t key) { return static_cast<VertexId>(key >> 32); }
VertexId PairSecond(uint64_t key) {
  return static_cast<VertexId>(key & 0xFFFFFFFFull);
}
// Key of IS vertex w's key list, in the table that also holds pair keys.
// Its high word is kInvalidVertex, which no pair key's lower id can be.
uint64_t VertexKey(VertexId w) {
  return (static_cast<uint64_t>(kInvalidVertex) << 32) | w;
}

// Rounds in a row that do not beat the largest set seen, after which the
// swap stops. The limit is the sequential executors' default stall guard
// (which counts against the previous round).
constexpr uint64_t kStallRoundLimit = 3;

// Per-vertex commit decision of one round, written only by the worker
// scanning the vertex's record.
enum class Decision : uint8_t { kNone = 0, kEnter, kLeave, kDenied };

// Adjacency test against the record in hand, bounded by its degree:
// binary search over its neighbor list, or over a sorted copy in the
// worker's buffer when the file does not store the list sorted. Built on
// the first query, so a record that needs no test pays nothing.
class RecordNeighbors {
 public:
  RecordNeighbors(const VertexRecordView& rec, std::vector<VertexId>* buffer)
      : rec_(rec), buffer_(buffer) {}

  bool Contains(VertexId v) {
    if (!built_) {
      if (std::is_sorted(rec_.begin(), rec_.end())) {
        sorted_ = std::span<const VertexId>(rec_.begin(), rec_.end());
      } else {
        buffer_->assign(rec_.begin(), rec_.end());
        std::sort(buffer_->begin(), buffer_->end());
        sorted_ = *buffer_;
      }
      built_ = true;
    }
    return std::binary_search(sorted_.begin(), sorted_.end(), v);
  }

 private:
  const VertexRecordView& rec_;
  std::vector<VertexId>* buffer_;
  std::span<const VertexId> sorted_;
  bool built_ = false;
};

class ParallelSwapRun {
 public:
  ParallelSwapRun(const std::string& manifest_path,
                  ShardedAdjacencyManifest manifest,
                  const ParallelSwapOptions& options)
      : options_(options),
        manifest_path_(manifest_path),
        manifest_(std::move(manifest)),
        n_(manifest_.header.num_vertices),
        workers_(ResolveThreadCount(options.num_threads)),
        state_(n_),
        isn1_(n_, kInvalidVertex),
        isn2_(n_, kInvalidVertex),
        cnt_(n_),
        mark_r_(n_),
        decision_(n_, Decision::kNone),
        free_(n_, 0) {}

  // Exactly one of `initial_set` / `initial_states` is non-null; both
  // describe the same thing (initial IS membership per vertex).
  Status Execute(const BitVector* initial_set,
                 const std::vector<VState>* initial_states, AlgoResult* res);

 private:
  // Shard-local SC structures of the 2<->k discovery (Algorithm 4), built
  // for every shard and freed at its end, so discovery never depends on
  // which worker scans which shard. One flat table finds a bucket by its
  // pair key and an IS vertex's key list by VertexKey; anchors, pairs and
  // key lists are index-linked lists in pools that keep insertion order,
  // so every walk visits entries in the order the scan added them.
  struct ShardContext {
    static constexpr uint32_t kNil = ~uint32_t{0};
    struct List {
      uint32_t first = kNil;
      uint32_t last = kNil;
    };
    struct Bucket {
      explicit Bucket(uint64_t pair_key) : key(pair_key) {}
      uint64_t key;       // PairKey of the bucket's IS pair
      List anchors;       // into `links`: anchor vertex ids
      List pairs;         // into `pairs`
      uint32_t num_pairs = 0;
      bool freed = false;
    };
    // A list node: an anchor id in a bucket's list, or a bucket index in
    // an IS vertex's key list.
    struct Link {
      uint32_t item;
      uint32_t next = kNil;
    };
    struct Pair {
      VertexId v1, v2;
      uint32_t next = kNil;
    };

    template <typename Node>
    static void Append(std::vector<Node>* pool, List* list, Node node) {
      const uint32_t at = static_cast<uint32_t>(pool->size());
      pool->push_back(node);
      if (list->last == kNil) {
        list->first = at;
      } else {
        (*pool)[list->last].next = at;
      }
      list->last = at;
    }

    // Appends bucket `b` to IS vertex w's key list, creating the list.
    void AddToKeyList(VertexId w, uint32_t b) {
      bool inserted = false;
      const uint32_t list = index.FindOrInsert(
          VertexKey(w), static_cast<uint32_t>(key_lists.size()), &inserted);
      if (inserted) key_lists.emplace_back();
      Append(&links, &key_lists[list], Link{b});
    }

    // Heap bytes of every table and pool, exactly.
    size_t MemoryBytes() const {
      return index.MemoryBytes() + removed.MemoryBytes() + used.MemoryBytes() +
             buckets.capacity() * sizeof(Bucket) +
             key_lists.capacity() * sizeof(List) +
             links.capacity() * sizeof(Link) + pairs.capacity() * sizeof(Pair);
    }

    FlatKeyMap index;  // PairKey -> bucket, VertexKey(w) -> key list
    std::vector<Bucket> buckets;
    std::vector<List> key_lists;
    std::vector<Link> links;
    std::vector<Pair> pairs;
    // IS vertices this shard already marked for removal, and non-IS
    // vertices already consumed by a fired skeleton.
    FlatKeySet removed;
    FlatKeySet used;
    uint64_t sc_vertices = 0;
  };

  // Everything one worker owns, on cache lines no other worker writes.
  struct alignas(kCacheLineBytes) WorkerScratch {
    IoStats io;
    std::vector<VertexId> sorted_neighbors;  // RecordNeighbors' buffer
  };

  VState State(VertexId v) const {
    return static_cast<VState>(state_[v].load(std::memory_order_relaxed));
  }
  void SetState(VertexId v, VState s) {
    state_[v].store(static_cast<uint8_t>(s), std::memory_order_relaxed);
  }
  bool MarkedR(VertexId v) const {
    return mark_r_[v].load(std::memory_order_relaxed) != 0;
  }
  bool IsAnchor(VertexId v) const { return isn2_[v] != kInvalidVertex; }

  /// A vertex joins the entering wave iff it is labeled A and every one of
  /// its ISN vertices was marked for removal. Evaluated against state
  /// frozen at the proposal-phase barrier, so it is scan-order free.
  bool EnterCandidate(VertexId v) const {
    if (State(v) != VState::kA) return false;
    if (!MarkedR(isn1_[v])) return false;
    const VertexId w2 = isn2_[v];
    return w2 == kInvalidVertex || MarkedR(w2);
  }

  // One full pass over the file: runs `per_shard(shard, worker)` for every
  // shard through ForEachItem and returns the first error in shard order.
  template <typename PerShard>
  Status RunShardPass(PerShard&& per_shard) {
    scans_started_++;
    return ForEachItem(workers_.size(), manifest_.num_shards(),
                       [&](size_t shard, size_t worker) {
                         return per_shard(static_cast<uint32_t>(shard),
                                          worker);
                       });
  }

  // Runs `fn(rec, worker)` over every record of every shard.
  template <typename Fn>
  Status ScanShards(Fn&& fn) {
    return RunShardPass([&](uint32_t shard, size_t worker) {
      return ScanOneShard(shard, worker, [&](const VertexRecordView& rec) {
        fn(rec, worker);
      });
    });
  }

  template <typename RecordFn>
  Status ScanOneShard(uint32_t shard, size_t worker, RecordFn&& fn) {
    return ForEachShardRecord(manifest_path_, manifest_, shard,
                              &workers_[worker].io, fn);
  }

  Status LabelScan(uint64_t* free_count);
  bool LabelVertex(const VertexRecordView& rec);
  Status ProposalScan(RoundStats* round, AlgoResult* res);
  Status SwapScan();
  void ApplySwaps(RoundStats* round);
  Status JoinScan();
  uint64_t ApplyJoins(RoundStats* round);

  // --- proposal-scan helpers (shard-local, snapshot state only) ---
  bool IsLive(VertexId w, const ShardContext& ctx) const {
    return State(w) == VState::kI && !ctx.removed.Contains(w);
  }
  void MarkRemove(VertexId w, ShardContext* ctx) {
    mark_r_[w].store(1, std::memory_order_relaxed);
    ctx->removed.Insert(w);
  }
  void ProposalVertex(const VertexRecordView& rec, WorkerScratch* scratch,
                      ShardContext* ctx, RoundStats* round);
  void TryTwoKSwap(const VertexRecordView& rec, WorkerScratch* scratch,
                   ShardContext* ctx, RoundStats* round);
  static VertexId FindPartner(const ShardContext& ctx,
                              const ShardContext::Bucket& bucket, VertexId u,
                              RecordNeighbors* adjacent);
  bool FireSkeleton(uint32_t b, VertexId u, RecordNeighbors* adjacent,
                    ShardContext* ctx, RoundStats* round);

  const ParallelSwapOptions& options_;
  const std::string manifest_path_;
  const ShardedAdjacencyManifest manifest_;
  const uint64_t n_;
  // One scratch per worker of a pass (ResolveThreadCount); a pass over
  // fewer shards leaves the rest untouched, and one worker means the
  // calling thread runs every pass.
  std::vector<WorkerScratch> workers_;
  uint64_t scans_started_ = 0;

  // Shared vertex-state tables. `state_` is atomic because the label scan
  // relabels non-IS vertices while other workers test neighbors for
  // IS-ness; IS-ness itself never changes inside a scan, so relaxed
  // ordering cannot change any outcome.
  std::vector<std::atomic<uint8_t>> state_;
  std::vector<VertexId> isn1_;
  std::vector<VertexId> isn2_;
  std::vector<std::atomic<uint32_t>> cnt_;  // |ISN^-1(w)| per IS vertex
  std::vector<std::atomic<uint8_t>> mark_r_;
  std::vector<Decision> decision_;
  std::vector<uint8_t> free_;  // 1 = not in IS and no IS neighbor
  // The vertices the current round moved in or out of the IS, one entry
  // per move: flipping each entry's membership undoes the round.
  std::vector<VertexId> moved_;

  uint64_t is_size_ = 0;
  uint64_t sc_peak_vertices_ = 0;
};

// Labels `rec`'s vertex against the current IS and writes its free flag;
// returns whether it is free. A non-member is free exactly when the IS
// neighbor count below ends at 0, and then the loop has already scanned
// the whole neighbor list, so the free test costs nothing extra.
bool ParallelSwapRun::LabelVertex(const VertexRecordView& rec) {
  const VertexId u = rec.id;
  if (State(u) == VState::kI) {
    free_[u] = 0;
    return false;
  }
  VertexId e1 = kInvalidVertex, e2 = kInvalidVertex;
  uint32_t count = 0;
  for (uint32_t i = 0; i < rec.degree && count < 3; ++i) {
    const VertexId nb = rec.neighbors[i];
    if (State(nb) == VState::kI) {
      if (count == 0) {
        e1 = nb;
      } else if (count == 1) {
        e2 = nb;
      }
      count++;
    }
  }
  if (count == 1) {
    SetState(u, VState::kA);
    isn1_[u] = e1;
    isn2_[u] = kInvalidVertex;
    cnt_[e1].fetch_add(1, std::memory_order_relaxed);
  } else if (count == 2 && options_.enable_two_k) {
    SetState(u, VState::kA);
    isn1_[u] = e1;
    isn2_[u] = e2;
  } else {
    SetState(u, VState::kN);
    isn1_[u] = kInvalidVertex;
    isn2_[u] = kInvalidVertex;
  }
  free_[u] = count == 0 ? 1 : 0;
  return count == 0;
}

Status ParallelSwapRun::LabelScan(uint64_t* free_count) {
  for (uint64_t v = 0; v < n_; ++v) {
    cnt_[v].store(0, std::memory_order_relaxed);
  }
  std::atomic<uint64_t> total_free{0};
  SEMIS_RETURN_IF_ERROR(RunShardPass([&](uint32_t shard, size_t worker) {
    uint64_t shard_free = 0;
    Status s = ScanOneShard(shard, worker, [&](const VertexRecordView& rec) {
      if (LabelVertex(rec)) shard_free++;
    });
    total_free.fetch_add(shard_free, std::memory_order_relaxed);
    return s;
  }));
  *free_count = total_free.load();
  return Status::OK();
}

// The first anchor of `bucket`, in arrival order, that is not u, not
// consumed by a fired skeleton and not adjacent to u; kInvalidVertex if
// there is none.
VertexId ParallelSwapRun::FindPartner(const ShardContext& ctx,
                                      const ShardContext::Bucket& bucket,
                                      VertexId u, RecordNeighbors* adjacent) {
  for (uint32_t i = bucket.anchors.first; i != ShardContext::kNil;
       i = ctx.links[i].next) {
    const VertexId v = ctx.links[i].item;
    if (v != u && !ctx.used.Contains(v) && !adjacent->Contains(v)) return v;
  }
  return kInvalidVertex;
}

// 2-3 skeleton with u as the third vertex: fires the first pair of bucket
// `b`, in arrival order, that u completes. Returns whether it fired.
bool ParallelSwapRun::FireSkeleton(uint32_t b, VertexId u,
                                   RecordNeighbors* adjacent,
                                   ShardContext* ctx, RoundStats* round) {
  ShardContext::Bucket& bucket = ctx->buckets[b];
  if (bucket.freed) return false;
  const VertexId kw1 = PairFirst(bucket.key), kw2 = PairSecond(bucket.key);
  if (!IsLive(kw1, *ctx) || !IsLive(kw2, *ctx)) return false;
  for (uint32_t i = bucket.pairs.first; i != ShardContext::kNil;
       i = ctx->pairs[i].next) {
    const VertexId v1 = ctx->pairs[i].v1, v2 = ctx->pairs[i].v2;
    if (v1 == u || v2 == u) continue;
    if (ctx->used.Contains(v1) || ctx->used.Contains(v2)) continue;
    if (adjacent->Contains(v1) || adjacent->Contains(v2)) continue;
    // Fire: (v1, v2, u) replace (kw1, kw2). The entering trio joins the
    // wave via the all-ISN-removed rule at the swap scan.
    ctx->used.Insert(u);
    ctx->used.Insert(v1);
    ctx->used.Insert(v2);
    MarkRemove(kw1, ctx);
    MarkRemove(kw2, ctx);
    bucket.freed = true;
    round->two_k_swaps++;  // per-round totals aggregated via atomics below
    return true;
  }
  return false;
}

void ParallelSwapRun::TryTwoKSwap(const VertexRecordView& rec,
                                  WorkerScratch* scratch, ShardContext* ctx,
                                  RoundStats* round) {
  // Shard-local Algorithm 4: register u in SC(w1, w2), pair it with an
  // earlier compatible anchor, and fire the 2-3 skeleton when u is the
  // third mutually non-adjacent vertex. `ctx` carries the scan-order
  // context; it never leaves the shard, so discovery is identical no
  // matter which worker runs it. Every bucket u can reach holds w1, so
  // nothing happens while w1 (or an anchor's w2) has left.
  const VertexId u = rec.id;
  const VertexId w1 = isn1_[u];
  const VertexId w2 = isn2_[u];
  RecordNeighbors adjacent(rec, &scratch->sorted_neighbors);
  const uint32_t cap = options_.max_pairs_per_bucket;

  if (IsAnchor(u)) {
    if (!IsLive(w1, *ctx) || !IsLive(w2, *ctx)) return;
    const uint64_t key = PairKey(w1, w2);
    bool inserted = false;
    const uint32_t b = ctx->index.FindOrInsert(
        key, static_cast<uint32_t>(ctx->buckets.size()), &inserted);
    if (inserted) {
      ctx->buckets.emplace_back(key);
      ctx->AddToKeyList(w1, b);
      ctx->AddToKeyList(w2, b);
    }
    ShardContext::Bucket& bucket = ctx->buckets[b];
    if (bucket.num_pairs < cap) {
      const VertexId partner = FindPartner(*ctx, bucket, u, &adjacent);
      if (partner != kInvalidVertex) {
        ShardContext::Append(&ctx->pairs, &bucket.pairs,
                             ShardContext::Pair{u, partner});
        bucket.num_pairs++;
      }
    }
    ShardContext::Append(&ctx->links, &bucket.anchors, ShardContext::Link{u});
    ctx->sc_vertices++;
    FireSkeleton(b, u, &adjacent, ctx, round);
    return;
  }

  if (!IsLive(w1, *ctx)) return;
  uint32_t list = 0;
  if (!ctx->index.Find(VertexKey(w1), &list)) return;
  const ShardContext::List keys = ctx->key_lists[list];
  for (uint32_t i = keys.first; i != ShardContext::kNil;
       i = ctx->links[i].next) {
    ShardContext::Bucket& bucket = ctx->buckets[ctx->links[i].item];
    if (bucket.freed || bucket.num_pairs >= cap) continue;
    const VertexId partner = FindPartner(*ctx, bucket, u, &adjacent);
    if (partner != kInvalidVertex) {
      ShardContext::Append(&ctx->pairs, &bucket.pairs,
                           ShardContext::Pair{partner, u});  // anchor first
      bucket.num_pairs++;
      ctx->sc_vertices++;
      break;
    }
  }
  for (uint32_t i = keys.first; i != ShardContext::kNil;
       i = ctx->links[i].next) {
    if (FireSkeleton(ctx->links[i].item, u, &adjacent, ctx, round)) return;
  }
}

void ParallelSwapRun::ProposalVertex(const VertexRecordView& rec,
                                     WorkerScratch* scratch, ShardContext* ctx,
                                     RoundStats* round) {
  const VertexId u = rec.id;
  if (State(u) != VState::kA) return;
  if (ctx->used.Contains(u)) return;  // already entering via a skeleton

  if (options_.enable_two_k) {
    TryTwoKSwap(rec, scratch, ctx, round);
    if (ctx->used.Contains(u)) return;
  }

  // 1-2 swap skeleton via the ISN^-1 counting trick (Section 5.4): u has
  // a non-adjacent partner sharing its single IS neighbor w iff
  // |ISN^-1(w)| >= x + 2, where x counts u's A neighbors pointing at w.
  // Only w's removal is marked here; u (and every other A vertex whose
  // whole ISN leaves) joins the entering wave in the swap scan, which is
  // exactly the paper's follower-join rule evaluated wave-wide.
  if (IsAnchor(u)) return;  // an anchor's second IS neighbor stays
  const VertexId w = isn1_[u];
  if (!IsLive(w, *ctx)) return;
  uint32_t x = 0;
  for (uint32_t i = 0; i < rec.degree; ++i) {
    const VertexId nb = rec.neighbors[i];
    if (State(nb) == VState::kA && !IsAnchor(nb) && isn1_[nb] == w) x++;
  }
  if (cnt_[w].load(std::memory_order_relaxed) >= x + 2) {
    MarkRemove(w, ctx);
    round->one_k_swaps++;
  }
}

Status ParallelSwapRun::ProposalScan(RoundStats* round, AlgoResult* res) {
  std::atomic<uint64_t> one_k{0}, two_k{0}, sc_vertices{0}, sc_bytes{0};
  SEMIS_RETURN_IF_ERROR(RunShardPass([&](uint32_t shard, size_t worker) {
    ShardContext ctx;
    RoundStats local;
    Status s = ScanOneShard(shard, worker, [&](const VertexRecordView& rec) {
      ProposalVertex(rec, &workers_[worker], &ctx, &local);
    });
    one_k.fetch_add(local.one_k_swaps, std::memory_order_relaxed);
    two_k.fetch_add(local.two_k_swaps, std::memory_order_relaxed);
    sc_vertices.fetch_add(ctx.sc_vertices, std::memory_order_relaxed);
    sc_bytes.fetch_add(ctx.MemoryBytes(), std::memory_order_relaxed);
    return s;
  }));
  round->one_k_swaps = one_k.load();
  round->two_k_swaps = two_k.load();
  sc_peak_vertices_ = std::max(sc_peak_vertices_, sc_vertices.load());
  // Charged as if every shard's context were live at once, as with a
  // worker per shard, so the figure is the same at every thread count.
  res->memory.Set("sc", sc_bytes.load());
  res->memory.Set("sc", 0);  // freed at end of scan; Set records the peak
  return Status::OK();
}

Status ParallelSwapRun::SwapScan() {
  return ScanShards([this](const VertexRecordView& rec, size_t) {
    const VertexId u = rec.id;
    if (State(u) == VState::kI) {
      if (MarkedR(u)) decision_[u] = Decision::kLeave;
      return;
    }
    if (!EnterCandidate(u)) return;
    // Lowest vertex id wins among adjacent entering candidates; a
    // neighbor that stays in the IS blocks unconditionally (cannot happen
    // for an A vertex whose whole ISN leaves, but kept as an invariant
    // guard). The rule reads only barrier-frozen data, so the outcome is
    // identical regardless of scan interleaving.
    bool denied = false;
    for (uint32_t i = 0; i < rec.degree; ++i) {
      const VertexId nb = rec.neighbors[i];
      if (State(nb) == VState::kI && !MarkedR(nb)) {
        denied = true;
        break;
      }
      if (nb < u && EnterCandidate(nb)) {
        denied = true;
        break;
      }
    }
    decision_[u] = denied ? Decision::kDenied : Decision::kEnter;
  });
}

void ParallelSwapRun::ApplySwaps(RoundStats* round) {
  for (uint64_t v = 0; v < n_; ++v) {
    switch (decision_[v]) {
      case Decision::kLeave:
        SetState(static_cast<VertexId>(v), VState::kN);
        moved_.push_back(static_cast<VertexId>(v));
        round->removed_is_vertices++;
        is_size_--;
        break;
      case Decision::kEnter:
        SetState(static_cast<VertexId>(v), VState::kI);
        moved_.push_back(static_cast<VertexId>(v));
        round->new_is_vertices++;
        is_size_++;
        break;
      case Decision::kDenied:
        round->denied_promotions++;
        round->conflicts++;
        break;
      case Decision::kNone:
        break;
    }
    decision_[v] = Decision::kNone;
    mark_r_[v].store(0, std::memory_order_relaxed);
  }
}

Status ParallelSwapRun::JoinScan() {
  // 0<->1 swaps: a free vertex (no IS neighbor) joins iff it is the local
  // minimum among the free vertices of its closed neighborhood -- the
  // deterministic parallel counterpart of the sequential post-swap rule.
  return ScanShards([this](const VertexRecordView& rec, size_t) {
    const VertexId u = rec.id;
    if (!free_[u]) return;
    for (uint32_t i = 0; i < rec.degree; ++i) {
      const VertexId nb = rec.neighbors[i];
      if (nb < u && free_[nb]) return;
    }
    decision_[u] = Decision::kEnter;
  });
}

uint64_t ParallelSwapRun::ApplyJoins(RoundStats* round) {
  uint64_t joined = 0;
  for (uint64_t v = 0; v < n_; ++v) {
    if (decision_[v] == Decision::kEnter) {
      SetState(static_cast<VertexId>(v), VState::kI);
      // The final maximality loop (no round) is never undone.
      if (round != nullptr) moved_.push_back(static_cast<VertexId>(v));
      joined++;
      is_size_++;
    }
    decision_[v] = Decision::kNone;
  }
  if (round != nullptr) {
    round->zero_one_swaps += joined;
    round->new_is_vertices += joined;
  }
  return joined;
}

Status ParallelSwapRun::Execute(const BitVector* initial_set,
                                const std::vector<VState>* initial_states,
                                AlgoResult* res) {
  res->memory.Add("state", n_ * sizeof(uint8_t));
  res->memory.Add("isn", 2 * n_ * sizeof(VertexId));
  res->memory.Add("counters", n_ * sizeof(uint32_t));
  res->memory.Add("marks", n_ * sizeof(uint8_t));
  res->memory.Add("decision", n_ * sizeof(Decision));
  res->memory.Add("free", n_ * sizeof(uint8_t));

  for (uint64_t v = 0; v < n_; ++v) {
    const bool in = initial_set != nullptr
                        ? initial_set->Test(v)
                        : (*initial_states)[v] == VState::kI;
    SetState(static_cast<VertexId>(v), in ? VState::kI : VState::kN);
    if (in) is_size_++;
  }

  // Labels and free flags always describe the current vertex states. The
  // label pass runs once up front, then only after a step that moved a
  // vertex: when a round's swaps or joins move nobody, the flags a new
  // pass would write are the ones already in place. Round 1's clock
  // covers the first pass.
  WallTimer round_timer;
  uint64_t free_count = 0;
  SEMIS_RETURN_IF_ERROR(LabelScan(&free_count));
  // A round can shrink the set, so the loop keeps the latest set of the
  // largest size seen and counts stalled rounds against that size (see
  // parallel_swap.h for why this terminates). That set is the current
  // state until a round ends below it; only then is it copied into
  // `best`, from the state with that round's moves flipped back.
  uint64_t best_size = is_size_;
  bool best_is_current = true;
  BitVector best;
  uint64_t stalled_rounds = 0;
  bool progress = true;
  while (progress &&
         (options_.max_rounds == 0 || res->rounds < options_.max_rounds)) {
    RoundStats round;
    moved_.clear();
    SEMIS_RETURN_IF_ERROR(ProposalScan(&round, res));
    // A pass that marked no IS vertex leaves every decision kNone and
    // every mark clear, so its commit would move nobody.
    if (round.one_k_swaps + round.two_k_swaps > 0) {
      SEMIS_RETURN_IF_ERROR(SwapScan());
      ApplySwaps(&round);
    }
    if (round.removed_is_vertices + round.new_is_vertices > 0) {
      SEMIS_RETURN_IF_ERROR(LabelScan(&free_count));
    }
    if (free_count > 0) {
      SEMIS_RETURN_IF_ERROR(JoinScan());
      if (ApplyJoins(&round) > 0) {
        SEMIS_RETURN_IF_ERROR(LabelScan(&free_count));
      }
    }
    round.is_size_after = is_size_;
    round.seconds = round_timer.ElapsedSeconds();
    round_timer.Reset();
    res->round_stats.push_back(round);
    res->rounds++;
    progress = round.removed_is_vertices + round.new_is_vertices > 0;
    res->memory.Set("moves", moved_.capacity() * sizeof(VertexId));
    stalled_rounds = is_size_ > best_size ? 0 : stalled_rounds + 1;
    if (is_size_ >= best_size) {
      best_size = is_size_;
      best_is_current = true;
    } else if (best_is_current) {
      best = BitVector(n_);
      res->memory.Set("best-set", best.MemoryBytes());
      for (uint64_t v = 0; v < n_; ++v) {
        if (State(static_cast<VertexId>(v)) == VState::kI) best.Set(v);
      }
      for (VertexId v : moved_) {
        if (best.Test(v)) {
          best.Clear(v);
        } else {
          best.Set(v);
        }
      }
      best_is_current = false;
    }
    if (stalled_rounds >= kStallRoundLimit) break;
  }
  if (!best_is_current) {
    // The rounds ended below the best set: go back to it. Its labels and
    // free flags are gone, so one label pass recomputes them.
    for (uint64_t v = 0; v < n_; ++v) {
      SetState(static_cast<VertexId>(v),
               best.Test(v) ? VState::kI : VState::kN);
    }
    is_size_ = best_size;
    SEMIS_RETURN_IF_ERROR(LabelScan(&free_count));
  }
  res->memory.Set("best-set", 0);
  res->memory.Set("moves", 0);
  moved_ = {};

  // The final maximality loop: join free vertices until none is left.
  while (free_count > 0) {
    SEMIS_RETURN_IF_ERROR(JoinScan());
    if (ApplyJoins(nullptr) == 0) break;
    SEMIS_RETURN_IF_ERROR(LabelScan(&free_count));
  }

  res->in_set = BitVector(n_);
  res->set_size = 0;
  for (uint64_t v = 0; v < n_; ++v) {
    if (State(static_cast<VertexId>(v)) == VState::kI) {
      res->in_set.Set(v);
      res->set_size++;
    }
  }
  res->memory.Add("result-bitset", res->in_set.MemoryBytes());
  res->peak_memory_bytes = res->memory.PeakBytes();
  res->sc_peak_vertices = sc_peak_vertices_;

  for (const WorkerScratch& w : workers_) res->io.MergeFrom(w.io);
  res->io.sequential_scans += scans_started_;
  return Status::OK();
}

}  // namespace

namespace {

Status RunParallelSwapImpl(const std::string& manifest_path,
                           const BitVector* initial_set,
                           const std::vector<VState>* initial_states,
                           const ParallelSwapOptions& options,
                           AlgoResult* result) {
  WallTimer timer;
  AlgoResult res;
  ShardedAdjacencyManifest manifest;
  std::string resolved_path;
  SEMIS_RETURN_IF_ERROR(ReadShardStoreManifest(manifest_path, &manifest,
                                               &res.io, &resolved_path));
  const uint64_t initial_size = initial_set != nullptr
                                    ? initial_set->size()
                                    : initial_states->size();
  if (initial_size != manifest.header.num_vertices) {
    return Status::InvalidArgument(
        "initial set size does not match graph vertex count");
  }
  ParallelSwapRun run(resolved_path, std::move(manifest), options);
  SEMIS_RETURN_IF_ERROR(run.Execute(initial_set, initial_states, &res));
  res.seconds = timer.ElapsedSeconds();
  *result = std::move(res);
  return Status::OK();
}

}  // namespace

Status RunParallelSwap(const std::string& manifest_path,
                       const BitVector& initial_set,
                       const ParallelSwapOptions& options,
                       AlgoResult* result) {
  return RunParallelSwapImpl(manifest_path, &initial_set, nullptr, options,
                             result);
}

Status RunParallelSwap(const std::string& manifest_path,
                       const std::vector<VState>& initial_states,
                       const ParallelSwapOptions& options,
                       AlgoResult* result) {
  return RunParallelSwapImpl(manifest_path, nullptr, &initial_states, options,
                             result);
}

}  // namespace semis
