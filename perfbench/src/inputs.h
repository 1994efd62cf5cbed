// Copyright (c) the semis authors.
// Input generation for the end-to-end benchmark. Every input is a pure
// function of the workload seed. Generation runs in a forked child, so the
// in-memory graph a generator builds never counts toward the benchmark
// process's own peak RSS.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/incremental_stream.h"
#include "graph/graph.h"
#include "util/status.h"

namespace perfbench {

/// Runs `fn` in a forked child process and waits for it to exit; when
/// `peak_rss_mb` is set it receives the child's getrusage high-water. The
/// caller must be single-threaded (every semis thread pool is joined when
/// its call returns, so this holds between library calls).
semis::Status RunInChild(const std::function<semis::Status()>& fn,
                         double* peak_rss_mb = nullptr);

/// PLRG graph (the paper's P(alpha, beta) model) with about `n` vertices
/// and average degree `avg_degree`.
semis::Graph MakePlrgGraph(uint64_t n, double avg_degree, uint64_t seed);

/// A closed-loop update stream of `count` updates over `graph`: about 70%
/// inserts of uniform random pairs, 15% deletes of earlier inserts and 15%
/// deletes of base edges. Written as 9-byte records (op, u, v).
semis::Status WriteUpdateStream(const semis::Graph& graph, uint64_t count,
                                uint64_t seed, const std::string& path);
semis::Status ReadUpdateStream(const std::string& path,
                               std::vector<semis::EdgeUpdate>* updates);

/// FNV-1a digest of a file's bytes (determinism checks of the set-up).
semis::Status FileDigest(const std::string& path, uint64_t* digest);

/// Creates `dir` (and missing parents).
semis::Status MakeDirs(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
