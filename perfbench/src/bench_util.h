// Copyright (c) the semis authors.
// Small helpers shared by the end-to-end benchmark: clocks, order
// statistics, the metric sink that becomes the result line, and the
// operation tally behind `attempted` / `failed`.
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/bit_vector.h"
#include "util/status.h"

namespace perfbench {

inline constexpr double kMiB = 1024.0 * 1024.0;

/// Monotonic wall clock in seconds (steady_clock).
double WallSeconds();

/// CPU time consumed by the whole process, all threads, in seconds
/// (CLOCK_PROCESS_CPUTIME_ID: the getrusage total at ns resolution).
double ProcessCpuSeconds();

/// Median of `v` (0 for an empty vector).
double Median(std::vector<double> v);

/// Nearest-rank percentile `p` (0..100] of `v` (0 for an empty vector).
double Percentile(std::vector<double> v, double p);

/// The highest whole percentile that still has at least ten samples
/// beyond it, clamped to [50, 95]: the median when there are 20 samples
/// or fewer.
int TailPercentile(size_t samples);

/// Byte-for-byte equality of two sets.
bool SameSet(const semis::BitVector& a, const semis::BitVector& b);

/// Named metrics with units, printed in insertion-independent (sorted)
/// order.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  const std::map<std::string, std::pair<double, std::string>>& values()
      const {
    return values_;
  }
  /// `{"name": {"value": v, "unit": "u"}, ...}` with full precision.
  std::string ToJson() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Counts the checked operations of a run: solves, epochs, verifications
/// and determinism checks. Every failure is printed with its reason.
class Ops {
 public:
  /// Records one operation; returns `ok`.
  bool Check(bool ok, const std::string& what);
  /// Records one operation that succeeded iff `s` is OK.
  bool Check(const semis::Status& s, const std::string& what);
  /// Adds the tally of operations a child process checked (it printed
  /// its own failures).
  void Add(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
