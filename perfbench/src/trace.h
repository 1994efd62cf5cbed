// Copyright (c) the semis authors.
// The outside-in layer trace of the benchmark's traced run.
//
// The benchmark calls each layer's public function itself, in the order
// MisEngine calls it, and the Tracer records one span around each call:
// name, start, end, process CPU and the enclosing span. A pass-through
// CountingFileSystem, installed with semis::ScopedFileSystem for the
// traced run only, counts and times every FileSystem operation and
// charges it to the innermost open span, so each layer's wall time splits
// into time inside io.env and self time. Spans stay in memory and are
// written at exit as Chrome trace-event JSON (Perfetto opens it) plus a
// per-span self-time table.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/env.h"
#include "util/status.h"

namespace perfbench {

inline constexpr int kNumIoOps = static_cast<int>(semis::IoOp::kRemoveTree) + 1;

/// Pass-through FileSystem that counts and times every operation, charged
/// to the slot selected with set_slot() at the time of the call. Worker
/// threads of a layer call inherit the slot of the span the driver opened
/// around that call, since the driver opens spans only between calls.
class CountingFileSystem final : public semis::FileSystem {
 public:
  static constexpr int kMaxSlots = 32;

  struct OpCounter {
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> nanos{0};
  };
  struct Slot {
    std::array<OpCounter, kNumIoOps> ops;
  };

  explicit CountingFileSystem(semis::FileSystem* base) : base_(base) {}

  void set_slot(int slot) { slot_.store(slot, std::memory_order_relaxed); }
  const Slot& slot(int i) const { return slots_[i]; }

  /// Charges one operation of class `op` lasting `nanos`.
  void Charge(semis::IoOp op, uint64_t nanos);

  const char* Name() const override { return "counting"; }
  semis::Status NewWritableFile(const std::string& path,
                                std::unique_ptr<semis::RawFile>* out) override;
  semis::Status NewAppendableFile(
      const std::string& path, std::unique_ptr<semis::RawFile>* out) override;
  semis::Status NewReadableFile(const std::string& path,
                                std::unique_ptr<semis::RawFile>* out) override;
  semis::Status GetFileSize(const std::string& path, uint64_t* size) override;
  semis::Status RemoveFile(const std::string& path) override;
  semis::Status SyncFile(const std::string& path) override;
  semis::Status SyncDirectory(const std::string& dir) override;
  semis::Status RenameFile(const std::string& from,
                           const std::string& to) override;
  semis::Status HardLinkFile(const std::string& src,
                             const std::string& dst) override;
  semis::Status CreateTempDir(const std::string& tmpl,
                              std::string* out_path) override;
  semis::Status RemoveTree(const std::string& path) override;

 private:
  semis::FileSystem* base_;
  std::atomic<int> slot_{0};
  std::array<Slot, kMaxSlots> slots_;
};

/// One recorded span.
struct Span {
  int slot = 0;        // index of the span's name
  int parent = -1;     // index of the enclosing span, -1 at top level
  double start = 0.0;  // wall seconds
  double end = 0.0;
  double cpu = 0.0;    // process CPU seconds consumed inside the span
};

/// I/O charged to a set of slots.
struct IoTotals {
  std::array<uint64_t, kNumIoOps> calls{};
  std::array<double, kNumIoOps> seconds{};
  /// Seconds inside any FileSystem call, summed over threads (so it can
  /// exceed the wall time of a layer whose workers do I/O in parallel).
  double TotalSeconds() const;
  uint64_t Calls(semis::IoOp op) const { return calls[static_cast<int>(op)]; }
  double Seconds(semis::IoOp op) const {
    return seconds[static_cast<int>(op)];
  }
};

/// Records spans on the calling (driver) thread and points the counting
/// FileSystem at the innermost open span. Slot 0 is "(outside)": I/O made
/// while no span is open.
class Tracer {
 public:
  explicit Tracer(CountingFileSystem* fs);

  /// RAII span. Spans nest strictly; the driver opens them around whole
  /// layer calls only.
  class Scope {
   public:
    Scope(Tracer* tracer, const std::string& name)
        : tracer_(tracer), index_(tracer->Begin(name)) {}
    ~Scope() { tracer_->End(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
   private:
    Tracer* tracer_;
    int index_;
  };

  /// Durations of every span named exactly `name`.
  std::vector<double> Durations(const std::string& name) const;
  /// Summed wall / CPU seconds of the spans named exactly `name`.
  double Wall(const std::string& name) const;
  double Cpu(const std::string& name) const;
  /// I/O charged to spans named `layer` or `layer.<anything>`; "" sums
  /// every slot.
  IoTotals Io(const std::string& layer) const;

  /// Chrome trace-event JSON: one complete ("X") event per span with its
  /// CPU seconds and parent index in args, `metadata_json` as "otherData".
  semis::Status WriteChromeTrace(const std::string& path,
                                 const std::string& metadata_json) const;
  /// Per-span-name table: calls, wall, self (wall minus child spans), CPU
  /// and the io.env calls and seconds charged to it.
  std::string SelfTimeTable() const;

 private:
  int Begin(const std::string& name);
  void End(int index);
  int SlotFor(const std::string& name);

  CountingFileSystem* fs_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
