#include "inputs.h"

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "gen/plrg.h"
#include "io/file.h"
#include "util/random.h"

namespace perfbench {

using semis::EdgeUpdate;
using semis::Status;
using semis::VertexId;

Status RunInChild(const std::function<Status()>& fn, double* peak_rss_mb) {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) return Status::IOError(std::string("fork: ") + strerror(errno));
  if (pid == 0) {
    const Status s = fn();
    if (!s.ok()) std::fprintf(stderr, "perfbench child: %s\n",
                              s.ToString().c_str());
    std::fflush(stderr);
    _exit(s.ok() ? 0 : 1);
  }
  int wstatus = 0;
  rusage ru{};
  while (wait4(pid, &wstatus, 0, &ru) < 0) {
    if (errno != EINTR) {
      return Status::IOError(std::string("wait4: ") + strerror(errno));
    }
  }
  if (peak_rss_mb != nullptr) *peak_rss_mb = ru.ru_maxrss / 1024.0;
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return Status::IOError("child process failed");
  }
  return Status::OK();
}

semis::Graph MakePlrgGraph(uint64_t n, double avg_degree, uint64_t seed) {
  return semis::GeneratePlrg(
      semis::PlrgSpec::ForVerticesAndAvgDegree(n, avg_degree), seed);
}

Status WriteUpdateStream(const semis::Graph& graph, uint64_t count,
                         uint64_t seed, const std::string& path) {
  semis::Random rng(seed);
  const VertexId n = graph.NumVertices();
  std::vector<std::pair<VertexId, VertexId>> live_inserts;
  semis::SequentialFileWriter out;
  SEMIS_RETURN_IF_ERROR(out.Open(path));
  for (uint64_t i = 0; i < count; ++i) {
    const double r = rng.NextDouble();
    uint8_t op = 0;  // 0 insert, 1 delete
    VertexId u = 0, v = 0;
    if (r < 0.70 || (r < 0.85 && live_inserts.empty())) {
      do {
        u = static_cast<VertexId>(rng.Uniform(n));
        v = static_cast<VertexId>(rng.Uniform(n));
      } while (u == v);
      live_inserts.emplace_back(u, v);
    } else if (r < 0.85) {
      const size_t k = rng.Uniform(live_inserts.size());
      std::tie(u, v) = live_inserts[k];
      live_inserts[k] = live_inserts.back();
      live_inserts.pop_back();
      op = 1;
    } else {
      do {
        u = static_cast<VertexId>(rng.Uniform(n));
      } while (graph.Degree(u) == 0);
      v = graph.Neighbors(u)[rng.Uniform(graph.Degree(u))];
      op = 1;
    }
    SEMIS_RETURN_IF_ERROR(out.Append(&op, 1));
    SEMIS_RETURN_IF_ERROR(out.AppendU32(u));
    SEMIS_RETURN_IF_ERROR(out.AppendU32(v));
  }
  return out.Close();
}

Status ReadUpdateStream(const std::string& path,
                        std::vector<EdgeUpdate>* updates) {
  semis::SequentialFileReader in;
  SEMIS_RETURN_IF_ERROR(in.Open(path));
  updates->clear();
  while (!in.AtEof()) {
    uint8_t op = 0;
    uint32_t u = 0, v = 0;
    SEMIS_RETURN_IF_ERROR(in.ReadExact(&op, 1));
    SEMIS_RETURN_IF_ERROR(in.ReadU32(&u));
    SEMIS_RETURN_IF_ERROR(in.ReadU32(&v));
    updates->push_back(op == 0 ? EdgeUpdate::Insert(u, v)
                               : EdgeUpdate::Delete(u, v));
  }
  return in.Close();
}

Status FileDigest(const std::string& path, uint64_t* digest) {
  semis::SequentialFileReader in;
  SEMIS_RETURN_IF_ERROR(in.Open(path));
  uint64_t h = 1469598103934665603ull;
  std::vector<unsigned char> buf(1 << 20);
  while (true) {
    size_t got = 0;
    SEMIS_RETURN_IF_ERROR(in.Read(buf.data(), buf.size(), &got));
    if (got == 0) break;
    for (size_t i = 0; i < got; ++i) h = (h ^ buf[i]) * 1099511628211ull;
  }
  *digest = h;
  return in.Close();
}

Status MakeDirs(const std::string& dir) {
  for (size_t pos = 1; pos <= dir.size(); ++pos) {
    if (pos != dir.size() && dir[pos] != '/') continue;
    const std::string prefix = dir.substr(0, pos);
    if (mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IOError("mkdir " + prefix + ": " + strerror(errno));
    }
  }
  return Status::OK();
}

}  // namespace perfbench
