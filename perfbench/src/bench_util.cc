#include "bench_util.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>

namespace perfbench {

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

int TailPercentile(size_t samples) {
  // p qualifies when (1 - p/100) * samples >= 10.
  if (samples == 0) return 50;
  const int p = static_cast<int>(std::floor(100.0 * (1.0 - 10.0 / samples)));
  return std::clamp(p, 50, 95);
}

bool SameSet(const semis::BitVector& a, const semis::BitVector& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.Test(i) != b.Test(i)) return false;
  }
  return true;
}

std::string Metrics::ToJson() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, vu] : values_) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", vu.first);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
           vu.second + "\"}";
  }
  return out + "}";
}

bool Ops::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }
  return ok;
}

bool Ops::Check(const semis::Status& s, const std::string& what) {
  return Check(s.ok(), s.ok() ? what : what + ": " + s.ToString());
}

}  // namespace perfbench
