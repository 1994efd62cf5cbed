// Copyright (c) the semis authors.
// The two workloads of the end-to-end benchmark. Each runs the user path
// through the public MisEngine API (untraced) or through the layer calls
// MisEngine makes, one span per call (traced), and fills the metric sink.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "bench_util.h"
#include "util/status.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Inputs, stores and engine scratch live here; wiped by the caller.
  std::string run_dir;
  /// Chrome trace and self-time table of a traced run go here.
  std::string trace_dir;
  /// Provenance object, embedded in the Chrome trace.
  std::string provenance_json;
};

/// Worker threads of `workload`'s pipeline (0 for an unknown name).
uint32_t WorkloadThreads(const std::string& workload);

/// One-line description of the durability policy the stores run with.
const char* DurabilityPolicy();

/// Runs one workload. Untraced runs fill every end-to-end metric, traced
/// runs every per-layer metric. Check failures land in `ops`; an error
/// return means the run could not complete and has no result.
semis::Status RunWorkload(const RunConfig& config, Metrics* metrics, Ops* ops);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
