#include "trace.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "bench_util.h"
#include "io/file.h"

namespace perfbench {

using semis::IoOp;
using semis::RawFile;
using semis::Status;

namespace {

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Runs `fn`, charging its duration to `op` on `fs`.
template <typename Fn>
Status Timed(CountingFileSystem* fs, IoOp op, Fn&& fn) {
  const uint64_t t0 = NowNanos();
  Status s = fn();
  fs->Charge(op, NowNanos() - t0);
  return s;
}

class CountingRawFile final : public RawFile {
 public:
  CountingRawFile(CountingFileSystem* fs, std::unique_ptr<RawFile> base)
      : fs_(fs), base_(std::move(base)) {}

  Status Read(void* out, size_t n, size_t* out_n) override {
    return Timed(fs_, IoOp::kRead, [&] { return base_->Read(out, n, out_n); });
  }
  Status Write(const void* data, size_t n) override {
    return Timed(fs_, IoOp::kWrite, [&] { return base_->Write(data, n); });
  }
  Status Sync() override {
    return Timed(fs_, IoOp::kSync, [&] { return base_->Sync(); });
  }
  Status Close() override { return base_->Close(); }

 private:
  CountingFileSystem* fs_;
  std::unique_ptr<RawFile> base_;
};

// Opens through `open` and wraps the handle so its reads and writes count.
template <typename Fn>
Status CountedOpen(CountingFileSystem* fs, std::unique_ptr<RawFile>* out,
                   Fn&& open) {
  std::unique_ptr<RawFile> base;
  SEMIS_RETURN_IF_ERROR(Timed(fs, IoOp::kOpen, [&] { return open(&base); }));
  *out = std::make_unique<CountingRawFile>(fs, std::move(base));
  return Status::OK();
}

}  // namespace

void CountingFileSystem::Charge(IoOp op, uint64_t nanos) {
  OpCounter& c = slots_[slot_.load(std::memory_order_relaxed)]
                     .ops[static_cast<int>(op)];
  c.calls.fetch_add(1, std::memory_order_relaxed);
  c.nanos.fetch_add(nanos, std::memory_order_relaxed);
}

Status CountingFileSystem::NewWritableFile(const std::string& path,
                                           std::unique_ptr<RawFile>* out) {
  return CountedOpen(this, out, [&](std::unique_ptr<RawFile>* f) {
    return base_->NewWritableFile(path, f);
  });
}

Status CountingFileSystem::NewAppendableFile(const std::string& path,
                                             std::unique_ptr<RawFile>* out) {
  return CountedOpen(this, out, [&](std::unique_ptr<RawFile>* f) {
    return base_->NewAppendableFile(path, f);
  });
}

Status CountingFileSystem::NewReadableFile(const std::string& path,
                                           std::unique_ptr<RawFile>* out) {
  return CountedOpen(this, out, [&](std::unique_ptr<RawFile>* f) {
    return base_->NewReadableFile(path, f);
  });
}

Status CountingFileSystem::GetFileSize(const std::string& path,
                                       uint64_t* size) {
  return Timed(this, IoOp::kStat,
               [&] { return base_->GetFileSize(path, size); });
}

Status CountingFileSystem::RemoveFile(const std::string& path) {
  return Timed(this, IoOp::kRemove, [&] { return base_->RemoveFile(path); });
}

Status CountingFileSystem::SyncFile(const std::string& path) {
  return Timed(this, IoOp::kSync, [&] { return base_->SyncFile(path); });
}

Status CountingFileSystem::SyncDirectory(const std::string& dir) {
  return Timed(this, IoOp::kSyncDir,
               [&] { return base_->SyncDirectory(dir); });
}

Status CountingFileSystem::RenameFile(const std::string& from,
                                      const std::string& to) {
  return Timed(this, IoOp::kRename,
               [&] { return base_->RenameFile(from, to); });
}

Status CountingFileSystem::HardLinkFile(const std::string& src,
                                        const std::string& dst) {
  return Timed(this, IoOp::kLink,
               [&] { return base_->HardLinkFile(src, dst); });
}

Status CountingFileSystem::CreateTempDir(const std::string& tmpl,
                                         std::string* out_path) {
  return Timed(this, IoOp::kMkdir,
               [&] { return base_->CreateTempDir(tmpl, out_path); });
}

Status CountingFileSystem::RemoveTree(const std::string& path) {
  return Timed(this, IoOp::kRemoveTree,
               [&] { return base_->RemoveTree(path); });
}

double IoTotals::TotalSeconds() const {
  double total = 0.0;
  for (double s : seconds) total += s;
  return total;
}

Tracer::Tracer(CountingFileSystem* fs) : fs_(fs), names_{"(outside)"} {
  fs_->set_slot(0);
}

int Tracer::SlotFor(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  if (names_.size() >= CountingFileSystem::kMaxSlots) {
    std::fprintf(stderr, "perfbench: too many span names\n");
    std::abort();
  }
  names_.push_back(name);
  return static_cast<int>(names_.size() - 1);
}

int Tracer::Begin(const std::string& name) {
  Span span;
  span.slot = SlotFor(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.cpu = ProcessCpuSeconds();
  span.start = WallSeconds();
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  fs_->set_slot(span.slot);
  return index;
}

void Tracer::End(int index) {
  Span& span = spans_[index];
  span.end = WallSeconds();
  span.cpu = ProcessCpuSeconds() - span.cpu;
  open_.pop_back();
  fs_->set_slot(open_.empty() ? 0 : spans_[open_.back()].slot);
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (names_[s.slot] == name) out.push_back(s.end - s.start);
  }
  return out;
}

double Tracer::Wall(const std::string& name) const {
  double total = 0.0;
  for (double d : Durations(name)) total += d;
  return total;
}

double Tracer::Cpu(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (names_[s.slot] == name) total += s.cpu;
  }
  return total;
}

IoTotals Tracer::Io(const std::string& layer) const {
  IoTotals t;
  for (size_t i = 0; i < names_.size(); ++i) {
    const std::string& n = names_[i];
    const bool match = layer.empty() || n == layer ||
                       n.rfind(layer + ".", 0) == 0;
    if (!match) continue;
    const CountingFileSystem::Slot& slot = fs_->slot(static_cast<int>(i));
    for (int op = 0; op < kNumIoOps; ++op) {
      t.calls[op] += slot.ops[op].calls.load(std::memory_order_relaxed);
      t.seconds[op] +=
          slot.ops[op].nanos.load(std::memory_order_relaxed) * 1e-9;
    }
  }
  return t;
}

Status Tracer::WriteChromeTrace(const std::string& path,
                                const std::string& metadata_json) const {
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "%s{\"name\": \"%s\", \"cat\": \"layer\", \"ph\": \"X\", "
                  "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"cpu_s\": %.6f, \"parent\": %d}}",
                  i == 0 ? "" : ",\n", names_[s.slot].c_str(),
                  (s.start - t0) * 1e6, (s.end - s.start) * 1e6, s.cpu,
                  s.parent);
    out += line;
  }
  out += "\n], \"otherData\": " + metadata_json + "}\n";
  semis::SequentialFileWriter writer;
  SEMIS_RETURN_IF_ERROR(writer.Open(path));
  SEMIS_RETURN_IF_ERROR(writer.Append(out.data(), out.size()));
  return writer.Close();
}

std::string Tracer::SelfTimeTable() const {
  struct Row {
    uint64_t calls = 0;
    double wall = 0.0, child = 0.0, cpu = 0.0;
  };
  std::vector<Row> rows(names_.size());
  for (const Span& s : spans_) {
    Row& r = rows[s.slot];
    r.calls++;
    r.wall += s.end - s.start;
    r.cpu += s.cpu;
    if (s.parent >= 0) rows[spans_[s.parent].slot].child += s.end - s.start;
  }
  std::string out =
      "span                     calls     wall_s     self_s      cpu_s  "
      "io_calls   io_s(thread-summed)\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    // I/O charged to this exact name only (children have their own rows).
    uint64_t io_calls = 0;
    double io_s = 0.0;
    for (const CountingFileSystem::OpCounter& op : fs_->slot(i).ops) {
      io_calls += op.calls.load();
      io_s += op.nanos.load() * 1e-9;
    }
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%-22s %7llu %10.4f %10.4f %10.4f %9llu %10.4f\n",
                  names_[i].c_str(), static_cast<unsigned long long>(rows[i].calls),
                  rows[i].wall, rows[i].wall - rows[i].child, rows[i].cpu,
                  static_cast<unsigned long long>(io_calls), io_s);
    out += line;
  }
  return out;
}

}  // namespace perfbench
