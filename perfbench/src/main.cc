// Copyright (c) the semis authors.
// End-to-end benchmark driver for the semis pipeline.
//
//   perfbench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --workdir <dir> [--source <id>]
//
// Generates the workload's inputs from the seed, runs it for the given
// number of seconds through the public MisEngine API (--trace 0: the
// end-to-end metrics) or as outside-in traced layer calls (--trace 1: the
// per-layer metrics), checks every output, and prints one JSON result
// object as the last line of stdout. perfbench/run.py builds this binary
// and is the entry point; see perfbench/README.md.
#include <sched.h>
#include <sys/vfs.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench_util.h"
#include "inputs.h"
#include "io/env.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_e2e: %s\nusage: perfbench_e2e --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> --workdir <dir> "
               "[--source <id>]\n",
               why);
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand = brand.substr(0, brand.find('\0'));
    const size_t first = brand.find_first_not_of(' ');
    if (first != std::string::npos) return brand.substr(first);
  }
#endif
  return "unknown";
}

int OnlineCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string FilesystemType(const std::string& dir) {
  struct statfs st {};
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x9123683E: return "btrfs";
    case 0x58465342: return "xfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return hex;
    }
  }
}

bool SanitizedBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

// Refuses configurations whose numbers would not mean what they claim.
const char* EnvironmentProblem(uint32_t threads) {
  if (std::getenv("SEMIS_FAULT_SPEC") != nullptr ||
      std::getenv("SEMIS_CRASH_POINT") != nullptr) {
    return "SEMIS_FAULT_SPEC or SEMIS_CRASH_POINT is set";
  }
#ifndef NDEBUG
  return "not an optimized build (NDEBUG unset)";
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    return "build type is not Release";
  }
  if (SanitizedBuild()) return "sanitizer build";
  if (OnlineCpus() < static_cast<int>(threads)) {
    return "fewer online CPUs than the workload's threads";
  }
  return nullptr;
}

int Main(int argc, char** argv) {
  RunConfig c;
  std::string workdir, source = "unknown";
  int trace = -1;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return Usage("missing value");
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      c.workload = value;
    } else if (flag == "--seed") {
      c.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      c.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = value == "1" ? 1 : value == "0" ? 0 : -1;
    } else if (flag == "--workdir") {
      workdir = value;
    } else if (flag == "--source") {
      source = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const uint32_t threads = WorkloadThreads(c.workload);
  if (threads == 0) return Usage("unknown --workload");
  if (trace < 0) return Usage("--trace must be 0 or 1");
  if (workdir.empty()) return Usage("--workdir is required");
  if (!(c.seconds > 0)) return Usage("--seconds must be positive");
  c.trace = trace == 1;
  if (const char* problem = EnvironmentProblem(threads)) {
    std::fprintf(stderr, "perfbench_e2e: refusing to run: %s\n", problem);
    return 2;
  }
  // Untraced numbers must never pay for a FileSystem wrapper.
  if (semis::GetFileSystem() != semis::PosixFileSystem()) {
    std::fprintf(stderr, "perfbench_e2e: a non-POSIX FileSystem is active\n");
    return 2;
  }

  c.run_dir = workdir + "/run";
  c.trace_dir = workdir + "/trace";
  const std::string tmp = workdir + "/tmp";
  for (const std::string& dir : {c.run_dir, tmp}) {
    if (!MakeDirs(dir).ok()) return Usage("cannot create the work directory");
  }
  // Engine and sorter scratch follows TMPDIR; keep it inside the workdir.
  setenv("TMPDIR", tmp.c_str(), 1);

  const std::string provenance =
      "{\"workload\": " + JsonString(c.workload) +
      ", \"seed\": " + std::to_string(c.seed) +
      ", \"seconds\": " + std::to_string(c.seconds) +
      ", \"trace\": " + std::to_string(trace) +
      ", \"threads\": " + std::to_string(threads) +
      ", \"nproc\": " + std::to_string(OnlineCpus()) +
      ", \"cpu_model\": " + JsonString(CpuModel()) +
      ", \"compiler\": " + JsonString(__VERSION__) +
      ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
      ", \"source\": " + JsonString(source) +
      ", \"scratch_fs\": " + JsonString(FilesystemType(c.run_dir)) +
      ", \"durability\": " + JsonString(DurabilityPolicy()) + "}";
  c.provenance_json = provenance;
  std::printf("# provenance %s\n", provenance.c_str());

  Metrics metrics;
  Ops ops;
  const semis::Status s = RunWorkload(c, &metrics, &ops);
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench_e2e: run aborted: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  if (semis::GetFileSystem() != semis::PosixFileSystem()) {
    std::fprintf(stderr, "perfbench_e2e: FileSystem left installed\n");
    return 1;
  }
  if (!semis::GetFileSystem()->RemoveTree(c.run_dir).ok()) {
    std::fprintf(stderr, "perfbench_e2e: cannot remove %s\n",
                 c.run_dir.c_str());
  }
  for (const auto& [name, vu] : metrics.values()) {
    std::fprintf(stderr, "  %-40s %16.6f %s\n", name.c_str(), vu.first,
                 vu.second.c_str());
  }
  const bool correct = ops.failed() == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(ops.attempted()),
      static_cast<unsigned long long>(ops.failed()),
      metrics.ToJson().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
