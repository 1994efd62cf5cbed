#include "core/two_k_swap.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "graph/adjacency_file.h"
#include "util/timer.h"

namespace semis {

namespace {

// Normalized key of an IS pair {w1, w2}.
uint64_t PairKey(VertexId a, VertexId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | b;
}
VertexId PairFirst(uint64_t key) { return static_cast<VertexId>(key >> 32); }
VertexId PairSecond(uint64_t key) {
  return static_cast<VertexId>(key & 0xFFFFFFFFull);
}

class TwoKSwapRun {
 public:
  TwoKSwapRun(const TwoKSwapOptions& options, uint64_t n)
      : options_(options),
        n_(n),
        state_(n, VState::kN),
        isn1_(n, kInvalidVertex),
        isn2_(n, kInvalidVertex),
        stamp_(n, 0) {}

  Status Execute(AdjacencyFileScanner* scanner, const BitVector& initial_set,
                 AlgoResult* res);

 private:
  struct Bucket {
    std::vector<VertexId> anchors;
    std::vector<std::pair<VertexId, VertexId>> pairs;
    bool freed = false;
  };

  bool IsAnchor(VertexId u) const { return isn2_[u] != kInvalidVertex; }

  // --- ISN^-1 counter for single-ISN vertices (1-2 skeleton test). As in
  // one-k-swap, the count lives in the (unused) isn1_ slot of IS vertices.
  void CounterReset(VertexId w) { isn1_[w] = 0; }
  void CounterAdd(VertexId w) { isn1_[w]++; }
  void CounterRemove(VertexId w) {
    if (isn1_[w] > 0) isn1_[w]--;
  }
  uint32_t CounterGet(VertexId w) const { return isn1_[w]; }

  // Transitions u out of A, maintaining the single-ISN counter.
  void LeaveA(VertexId u) {
    if (!IsAnchor(u) && isn1_[u] != kInvalidVertex &&
        state_[isn1_[u]] == VState::kI) {
      CounterRemove(isn1_[u]);
    }
  }

  // Marks u's neighborhood in the stamp array; call once per record.
  void StampNeighbors(const VertexRecordView& rec) {
    if (++token_ == 0) {  // wrapped: clear and restart
      std::fill(stamp_.begin(), stamp_.end(), 0);
      token_ = 1;
    }
    for (uint32_t i = 0; i < rec.degree; ++i) stamp_[rec.neighbors[i]] = token_;
  }
  bool Adjacent(VertexId v) const { return stamp_[v] == token_; }

  void ClearScStructures() {
    buckets_.clear();
    keys_with_w_.clear();
    sc_vertices_this_scan_ = 0;
  }

  Status InitialLabelScan(AdjacencyFileScanner* scanner);
  Status PreSwapScan(AdjacencyFileScanner* scanner, RoundStats* round);
  void PreSwapVertex(const VertexRecordView& rec, RoundStats* round);
  Status SwapScan(AdjacencyFileScanner* scanner, RoundStats* round,
                  bool* can_swap);
  Status PostSwapScan(AdjacencyFileScanner* scanner, RoundStats* round);
  Status CompletionScan(AdjacencyFileScanner* scanner);

  // Labels u from its current IS neighborhood (count, e1, e2).
  void LabelFromIsNeighbors(VertexId u, uint32_t count, VertexId e1,
                            VertexId e2) {
    if (count == 1) {
      state_[u] = VState::kA;
      isn1_[u] = e1;
      isn2_[u] = kInvalidVertex;
      CounterAdd(e1);
    } else if (count == 2) {
      state_[u] = VState::kA;
      isn1_[u] = e1;
      isn2_[u] = e2;
    } else {
      state_[u] = VState::kN;
      isn1_[u] = kInvalidVertex;
      isn2_[u] = kInvalidVertex;
    }
  }

  const TwoKSwapOptions& options_;
  const uint64_t n_;
  std::vector<VState> state_;
  std::vector<VertexId> isn1_;
  std::vector<VertexId> isn2_;

  // Per-pre-swap-scan SC structures (freed after every scan). Only
  // anchors (|ISN| = 2) are registered; a single-ISN vertex enters SC
  // solely as the second member of a candidate pair, matching the
  // paper's storage (and Lemma 6's |SC| accounting -- registering every
  // visited single would blow |SC| past the paper's 0.13|V|).
  std::unordered_map<uint64_t, Bucket> buckets_;
  std::unordered_map<VertexId, std::vector<uint64_t>> keys_with_w_;
  uint64_t sc_vertices_this_scan_ = 0;
  uint64_t sc_peak_vertices_ = 0;
  size_t sc_peak_bytes_ = 0;

  // Neighborhood stamping for O(1) adjacency tests against the record in
  // hand.
  std::vector<uint32_t> stamp_;
  uint32_t token_ = 0;

  uint64_t is_size_ = 0;
};

Status TwoKSwapRun::InitialLabelScan(AdjacencyFileScanner* scanner) {
  // Algorithm 3 lines 1-3: one or two IS neighbors -> A.
  VertexRecordView rec;
  bool has_next = false;
  while (true) {
    SEMIS_RETURN_IF_ERROR(scanner->Next(&rec, &has_next));
    if (!has_next) break;
    if (state_[rec.id] == VState::kI) continue;
    VertexId e1 = kInvalidVertex, e2 = kInvalidVertex;
    uint32_t count = 0;
    for (uint32_t i = 0; i < rec.degree && count < 3; ++i) {
      VertexId nb = rec.neighbors[i];
      if (state_[nb] == VState::kI) {
        if (count == 0) {
          e1 = nb;
        } else if (count == 1) {
          e2 = nb;
        }
        count++;
      }
    }
    LabelFromIsNeighbors(rec.id, count, e1, e2);
  }
  return Status::OK();
}

void TwoKSwapRun::PreSwapVertex(const VertexRecordView& rec,
                                RoundStats* round) {
  // Algorithm 4, in order:
  //   line 1-2 : add a swap-candidate pair to SC(w1, w2) if one exists;
  //   line 3-4 : conflict (a P neighbor) -> C;
  //   line 5-8 : 2-3 swap skeleton -> three P, two R, free the bucket;
  //   line 9-10: 1-2 swap skeleton (single-ISN case, counting trick);
  //   line 11-12: all ISN vertices already R -> join as P.
  const VertexId u = rec.id;
  StampNeighbors(rec);

  bool has_p_neighbor = false;
  uint32_t x1 = 0;  // A neighbors sharing our single anchor (1-2 test)
  const bool anchor = IsAnchor(u);
  const VertexId w1 = isn1_[u];
  const VertexId w2 = isn2_[u];
  for (uint32_t i = 0; i < rec.degree; ++i) {
    const VertexId nb = rec.neighbors[i];
    if (state_[nb] == VState::kP) {
      has_p_neighbor = true;
      break;
    }
    if (!anchor && state_[nb] == VState::kA && !IsAnchor(nb) &&
        isn1_[nb] == w1) {
      x1++;
    }
  }

  // ---- Line 1-2: register u in SC and add a pair when possible.
  // Definition 2 requires both IS vertices to still be in the set.
  if (anchor && state_[w1] == VState::kI && state_[w2] == VState::kI) {
    const uint64_t key = PairKey(w1, w2);
    auto [it, inserted] = buckets_.try_emplace(key);
    Bucket& bucket = it->second;
    if (inserted) {
      keys_with_w_[w1].push_back(key);
      keys_with_w_[w2].push_back(key);
    }
    if (bucket.pairs.size() < options_.max_pairs_per_bucket) {
      // Partner search among earlier anchors of the same pair. Every
      // candidate is checked against u's adjacency list (in hand) --
      // Definition 2's no-edge test.
      VertexId partner = kInvalidVertex;
      for (VertexId v : bucket.anchors) {
        if (v != u && state_[v] == VState::kA && !Adjacent(v)) {
          partner = v;
          break;
        }
      }
      if (partner != kInvalidVertex) bucket.pairs.emplace_back(u, partner);
    }
    bucket.anchors.push_back(u);
    sc_vertices_this_scan_++;
  } else if (!anchor && state_[w1] == VState::kI) {
    // A single can complete a pair with an earlier anchor of any bucket
    // containing w1 (Definition 2 with u2 = u). Singles are not
    // registered themselves: they enter SC only as pair members.
    auto kit = keys_with_w_.find(w1);
    if (kit != keys_with_w_.end()) {
      for (uint64_t key : kit->second) {
        Bucket& bucket = buckets_[key];
        if (bucket.freed ||
            bucket.pairs.size() >= options_.max_pairs_per_bucket) {
          continue;
        }
        VertexId partner = kInvalidVertex;
        for (VertexId v : bucket.anchors) {
          if (v != u && state_[v] == VState::kA && !Adjacent(v)) {
            partner = v;
            break;
          }
        }
        if (partner != kInvalidVertex) {
          bucket.pairs.emplace_back(partner, u);  // anchor first
          sc_vertices_this_scan_++;               // u joins SC via the pair
          break;
        }
      }
    }
  }

  // ---- Line 3-4: conflict.
  if (has_p_neighbor) {
    LeaveA(u);
    state_[u] = VState::kC;
    round->conflicts++;
    return;
  }

  // ---- Line 5-8: 2-3 swap skeleton with u as the third vertex.
  {
    const uint64_t single_key_storage[1] = {anchor ? PairKey(w1, w2) : 0};
    const std::vector<uint64_t>* keys = nullptr;
    std::vector<uint64_t> one_key;
    if (anchor) {
      if (state_[w1] == VState::kI && state_[w2] == VState::kI) {
        one_key.assign(single_key_storage, single_key_storage + 1);
        keys = &one_key;
      }
    } else {
      auto kit = keys_with_w_.find(w1);
      if (kit != keys_with_w_.end()) keys = &kit->second;
    }
    if (keys != nullptr) {
      for (uint64_t key : *keys) {
        auto bit = buckets_.find(key);
        if (bit == buckets_.end() || bit->second.freed) continue;
        const VertexId kw1 = PairFirst(key), kw2 = PairSecond(key);
        if (state_[kw1] != VState::kI || state_[kw2] != VState::kI) continue;
        for (const auto& [v1, v2] : bit->second.pairs) {
          if (v1 == u || v2 == u) continue;
          if (state_[v1] != VState::kA || state_[v2] != VState::kA) continue;
          if (Adjacent(v1) || Adjacent(v2)) continue;
          // Fire: (v1, v2, u) replace (kw1, kw2).
          LeaveA(u);
          LeaveA(v1);
          LeaveA(v2);
          state_[u] = state_[v1] = state_[v2] = VState::kP;
          state_[kw1] = VState::kR;
          state_[kw2] = VState::kR;
          bit->second.freed = true;  // Algorithm 4 line 8
          round->two_k_swaps++;
          return;
        }
      }
    }
  }

  // ---- Line 9-10: 1-2 swap skeleton (single-ISN vertices only; an anchor
  // cannot enter via a 1-k swap because its second IS neighbor stays).
  if (!anchor && state_[w1] == VState::kI && CounterGet(w1) >= x1 + 2) {
    LeaveA(u);
    state_[u] = VState::kP;
    state_[w1] = VState::kR;
    round->one_k_swaps++;
    return;
  }

  // ---- Line 11-12: every ISN vertex already retrograde -> join.
  const bool all_r =
      anchor ? (state_[w1] == VState::kR && state_[w2] == VState::kR)
             : (state_[w1] == VState::kR);
  if (all_r) {
    state_[u] = VState::kP;
    round->follower_joins++;
  }
}

Status TwoKSwapRun::PreSwapScan(AdjacencyFileScanner* scanner,
                                RoundStats* round) {
  ClearScStructures();
  VertexRecordView rec;
  bool has_next = false;
  while (true) {
    SEMIS_RETURN_IF_ERROR(scanner->Next(&rec, &has_next));
    if (!has_next) break;
    if (state_[rec.id] != VState::kA) continue;
    PreSwapVertex(rec, round);
  }
  sc_peak_vertices_ = std::max(sc_peak_vertices_, sc_vertices_this_scan_);
  size_t bytes = 0;
  // Order-insensitive sums for memory accounting.
  // semis-lint: allow(unordered-iteration)
  for (const auto& kv : buckets_) {
    bytes += sizeof(kv) + kv.second.anchors.capacity() * sizeof(VertexId) +
             kv.second.pairs.capacity() * sizeof(std::pair<VertexId, VertexId>);
  }
  // semis-lint: allow(unordered-iteration)
  for (const auto& kv : keys_with_w_) {
    bytes += sizeof(kv) + kv.second.capacity() * sizeof(uint64_t);
  }
  sc_peak_bytes_ = std::max(sc_peak_bytes_, bytes);
  ClearScStructures();
  return Status::OK();
}

Status TwoKSwapRun::SwapScan(AdjacencyFileScanner* scanner, RoundStats* round,
                             bool* can_swap) {
  // Algorithm 3 lines 10-14, realized as a full file scan -- the third of
  // the paper's "three iterations of scan" per round. The scan is what
  // makes simultaneous skeleton promotions sound: a 2-3 skeleton promotes
  // partner vertices that were scanned EARLIER in the pre-swap pass, and
  // such a partner may have acquired a P neighbor (from another skeleton)
  // after its own conflict check. Committing P -> I in file order with
  // the adjacency list in hand lets us deny any P that already has a
  // committed I neighbor, so the committed set stays independent. (A
  // pre-existing I neighbor is impossible: an A vertex's only IS
  // neighbors are its ISN entries, which are R by now.)
  VertexRecordView rec;
  bool has_next = false;
  while (true) {
    SEMIS_RETURN_IF_ERROR(scanner->Next(&rec, &has_next));
    if (!has_next) break;
    const VertexId u = rec.id;
    if (state_[u] == VState::kR) {
      state_[u] = VState::kN;
      isn1_[u] = kInvalidVertex;
      isn2_[u] = kInvalidVertex;
      round->removed_is_vertices++;
      is_size_--;
      *can_swap = true;
    } else if (state_[u] == VState::kP) {
      bool denied = false;
      for (uint32_t i = 0; i < rec.degree; ++i) {
        if (state_[rec.neighbors[i]] == VState::kI) {
          denied = true;
          break;
        }
      }
      if (denied) {
        state_[u] = VState::kC;  // lost the race; relabeled in post-swap
        round->denied_promotions++;
      } else {
        state_[u] = VState::kI;
        isn1_[u] = 0;  // fresh ISN^-1 counter
        isn2_[u] = kInvalidVertex;
        round->new_is_vertices++;
        is_size_++;
      }
    }
  }
  return Status::OK();
}

Status TwoKSwapRun::PostSwapScan(AdjacencyFileScanner* scanner,
                                 RoundStats* round) {
  // Algorithm 3 lines 15-23. Counters are rebuilt: zero them first.
  for (uint64_t v = 0; v < n_; ++v) {
    if (state_[v] == VState::kI) CounterReset(static_cast<VertexId>(v));
  }
  VertexRecordView rec;
  bool has_next = false;
  while (true) {
    SEMIS_RETURN_IF_ERROR(scanner->Next(&rec, &has_next));
    if (!has_next) break;
    const VertexId u = rec.id;
    if (state_[u] != VState::kC && state_[u] != VState::kA &&
        state_[u] != VState::kN) {
      continue;
    }
    // Lines 16-20: relabel from the current IS neighborhood.
    VertexId e1 = kInvalidVertex, e2 = kInvalidVertex;
    uint32_t count = 0;
    for (uint32_t i = 0; i < rec.degree && count < 3; ++i) {
      VertexId nb = rec.neighbors[i];
      if (state_[nb] == VState::kI) {
        if (count == 0) {
          e1 = nb;
        } else if (count == 1) {
          e2 = nb;
        }
        count++;
      }
    }
    LabelFromIsNeighbors(u, count, e1, e2);
    // Lines 21-23: 0<->1 swap.
    if (state_[u] == VState::kN) {
      bool all_c_or_n = true;
      for (uint32_t i = 0; i < rec.degree; ++i) {
        const VState s = state_[rec.neighbors[i]];
        if (s != VState::kC && s != VState::kN) {
          all_c_or_n = false;
          break;
        }
      }
      if (all_c_or_n) {
        state_[u] = VState::kI;
        CounterReset(u);
        isn2_[u] = kInvalidVertex;
        round->zero_one_swaps++;
        round->new_is_vertices++;
        is_size_++;
      }
    }
  }
  return Status::OK();
}

Status TwoKSwapRun::CompletionScan(AdjacencyFileScanner* scanner) {
  // Same completion rule as one-k-swap (see one_k_swap.cc): after
  // convergence, any vertex with no IS neighbor can join safely.
  VertexRecordView rec;
  bool has_next = false;
  while (true) {
    SEMIS_RETURN_IF_ERROR(scanner->Next(&rec, &has_next));
    if (!has_next) break;
    if (state_[rec.id] == VState::kI) continue;
    bool has_is_neighbor = false;
    for (uint32_t i = 0; i < rec.degree; ++i) {
      if (state_[rec.neighbors[i]] == VState::kI) {
        has_is_neighbor = true;
        break;
      }
    }
    if (!has_is_neighbor) {
      state_[rec.id] = VState::kI;
      is_size_++;
    }
  }
  return Status::OK();
}

Status TwoKSwapRun::Execute(AdjacencyFileScanner* scanner,
                            const BitVector& initial_set, AlgoResult* res) {
  res->memory.Add("state", n_ * sizeof(VState));
  res->memory.Add("isn", 2 * n_ * sizeof(VertexId));
  res->memory.Add("stamp", n_ * sizeof(uint32_t));

  for (uint64_t v = 0; v < n_; ++v) {
    if (initial_set.Test(v)) {
      state_[v] = VState::kI;
      CounterReset(static_cast<VertexId>(v));
      is_size_++;
    }
  }
  SEMIS_RETURN_IF_ERROR(InitialLabelScan(scanner));
  auto observe = [&](const char* phase, uint64_t round) {
    if (options_.observer) options_.observer(phase, round, state_);
  };
  observe("init", 0);

  bool can_swap = true;
  uint64_t stalled_rounds = 0;
  while (can_swap &&
         (options_.max_rounds == 0 || res->rounds < options_.max_rounds)) {
    can_swap = false;
    const uint64_t size_before = is_size_;
    RoundStats round;
    WallTimer round_timer;
    SEMIS_RETURN_IF_ERROR(scanner->Rewind());
    SEMIS_RETURN_IF_ERROR(PreSwapScan(scanner, &round));
    observe("pre-swap", res->rounds);
    SEMIS_RETURN_IF_ERROR(scanner->Rewind());
    SEMIS_RETURN_IF_ERROR(SwapScan(scanner, &round, &can_swap));
    observe("swap", res->rounds);
    SEMIS_RETURN_IF_ERROR(scanner->Rewind());
    SEMIS_RETURN_IF_ERROR(PostSwapScan(scanner, &round));
    observe("post-swap", res->rounds);
    round.is_size_after = is_size_;
    round.seconds = round_timer.ElapsedSeconds();
    res->round_stats.push_back(round);
    res->rounds++;
    res->memory.Set("sc", sc_peak_bytes_);
    // Denied promotions can make an individual round net-neutral; a run
    // of gainless rounds means the remaining skeletons keep losing the
    // same races, so stop rather than oscillate.
    stalled_rounds = is_size_ > size_before ? 0 : stalled_rounds + 1;
    if (options_.stall_round_limit > 0 &&
        stalled_rounds >= options_.stall_round_limit) {
      break;
    }
  }

  if (options_.final_maximality_pass) {
    SEMIS_RETURN_IF_ERROR(scanner->Rewind());
    SEMIS_RETURN_IF_ERROR(CompletionScan(scanner));
    observe("completion", res->rounds);
  }

  ExtractIndependentSet(state_, &res->in_set, &res->set_size);
  res->memory.Add("result-bitset", res->in_set.MemoryBytes());
  res->peak_memory_bytes = res->memory.PeakBytes();
  res->sc_peak_vertices = sc_peak_vertices_;
  return Status::OK();
}

}  // namespace

Status RunTwoKSwap(const std::string& path, const BitVector& initial_set,
                   const TwoKSwapOptions& options, AlgoResult* result) {
  WallTimer timer;
  AlgoResult res;
  AdjacencyFileScanner scanner(&res.io);
  SEMIS_RETURN_IF_ERROR(scanner.Open(path));
  const uint64_t n = scanner.header().num_vertices;
  if (initial_set.size() != n) {
    return Status::InvalidArgument(
        "initial set size does not match graph vertex count");
  }
  TwoKSwapRun run(options, n);
  SEMIS_RETURN_IF_ERROR(run.Execute(&scanner, initial_set, &res));
  res.seconds = timer.ElapsedSeconds();
  *result = std::move(res);
  return Status::OK();
}

}  // namespace semis
