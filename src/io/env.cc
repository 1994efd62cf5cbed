#include "io/env.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <thread>
#include <vector>

namespace semis {

namespace {

std::string ErrnoMessage(const std::string& prefix, const std::string& path,
                         int err) {
  return prefix + " '" + path + "': " + std::strerror(err);
}

// ---------------------------------------------------------------- posix --

// Raw-fd file handle. The buffered writer/reader above this layer issue
// one Read/Write per buffer fill/flush, so there is nothing to gain from
// stdio buffering here -- and raw fds give exact errno and short-count
// semantics, which the fault model depends on.
class PosixFile : public RawFile {
 public:
  PosixFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  ~PosixFile() override { Close().IgnoreError(); }

  Status Read(void* out, size_t n, size_t* out_n) override {
    char* dst = static_cast<char*>(out);
    size_t got = 0;
    while (got < n) {
      ssize_t r = ::read(fd_, dst + got, n - got);
      if (r < 0) {
        if (errno == EINTR) continue;
        *out_n = got;
        return Status::IOError(ErrnoMessage("read failed for", path_, errno),
                               errno);
      }
      if (r == 0) break;  // end of file
      got += static_cast<size_t>(r);
    }
    *out_n = got;
    return Status::OK();
  }

  Status Skip(uint64_t n) override {
    // lseek past end of file is legal and leaves the next read at EOF,
    // the same outcome as reading and discarding up to the end.
    if (n > static_cast<uint64_t>(std::numeric_limits<off_t>::max())) {
      return Status::InvalidArgument("skip of " + std::to_string(n) +
                                     " bytes overflows off_t in '" + path_ +
                                     "'");
    }
    if (::lseek(fd_, static_cast<off_t>(n), SEEK_CUR) < 0) {
      return Status::IOError(ErrnoMessage("seek failed for", path_, errno),
                             errno);
    }
    return Status::OK();
  }

  Status Write(const void* data, size_t n) override {
    const char* src = static_cast<const char*>(data);
    size_t put = 0;
    while (put < n) {
      ssize_t w = ::write(fd_, src + put, n - put);
      if (w < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(
            ErrnoMessage("write failed for", path_, errno) + " (wrote " +
                std::to_string(put) + " of " + std::to_string(n) + " bytes)",
            errno);
      }
      put += static_cast<size_t>(w);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (::fsync(fd_) != 0) {
      return Status::IOError(ErrnoMessage("fsync failed for", path_, errno),
                             errno);
    }
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) {
      return Status::IOError(ErrnoMessage("close failed for", path_, errno),
                             errno);
    }
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
};

class PosixFileSystemImpl : public FileSystem {
 public:
  const char* Name() const override { return "posix"; }

  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<RawFile>* out) override {
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0644);
    if (fd < 0) {
      return Status::IOError(ErrnoMessage("cannot create", path, errno),
                             errno);
    }
    *out = std::make_unique<PosixFile>(fd, path);
    return Status::OK();
  }

  Status NewAppendableFile(const std::string& path,
                           std::unique_ptr<RawFile>* out) override {
    // No O_CREAT: appending to a missing file almost always means a lost
    // header, so it is reported instead of silently creating one.
    int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    if (fd < 0) {
      if (errno == ENOENT) {
        return Status::NotFound(
            ErrnoMessage("cannot append to", path, errno));
      }
      return Status::IOError(
          ErrnoMessage("cannot open for append", path, errno), errno);
    }
    *out = std::make_unique<PosixFile>(fd, path);
    return Status::OK();
  }

  Status NewReadableFile(const std::string& path,
                         std::unique_ptr<RawFile>* out) override {
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      return Status::IOError(ErrnoMessage("cannot open", path, errno), errno);
    }
    *out = std::make_unique<PosixFile>(fd, path);
    return Status::OK();
  }

  Status GetFileSize(const std::string& path, uint64_t* size) override {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) {
      return Status::NotFound(ErrnoMessage("stat failed for", path, errno));
    }
    *size = static_cast<uint64_t>(st.st_size);
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) {
      if (errno == ENOENT) {
        return Status::NotFound(ErrnoMessage("remove failed for", path,
                                             errno));
      }
      return Status::IOError(ErrnoMessage("remove failed for", path, errno),
                             errno);
    }
    return Status::OK();
  }

  Status SyncFile(const std::string& path) override {
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      return Status::IOError(ErrnoMessage("cannot open to sync", path, errno),
                             errno);
    }
    Status s = Status::OK();
    if (::fsync(fd) != 0) {
      s = Status::IOError(ErrnoMessage("fsync failed for", path, errno),
                          errno);
    }
    ::close(fd);
    return s;
  }

  Status SyncDirectory(const std::string& dir) override {
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) {
      return Status::IOError(ErrnoMessage("cannot open dir", dir, errno),
                             errno);
    }
    Status s = Status::OK();
    // Some filesystems refuse fsync on directory fds (EINVAL); the rename
    // is still atomic there, so only real I/O errors are reported.
    if (::fsync(fd) != 0 && errno != EINVAL) {
      s = Status::IOError(ErrnoMessage("fsync failed for dir", dir, errno),
                          errno);
    }
    ::close(fd);
    return s;
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return Status::IOError(
          ErrnoMessage("cannot rename to '" + to + "' from", from, errno),
          errno);
    }
    return Status::OK();
  }

  Status HardLinkFile(const std::string& src,
                      const std::string& dst) override {
    if (::link(src.c_str(), dst.c_str()) != 0) {
      return Status::IOError(
          ErrnoMessage("cannot hard-link to '" + dst + "' from", src, errno),
          errno);
    }
    return Status::OK();
  }

  Status CreateTempDir(const std::string& tmpl,
                       std::string* out_path) override {
    // mkdtemp mutates its argument in place.
    std::string buf = tmpl;
    if (::mkdtemp(buf.data()) == nullptr) {
      return Status::IOError(
          ErrnoMessage("mkdtemp failed for template", tmpl, errno), errno);
    }
    *out_path = std::move(buf);
    return Status::OK();
  }

  Status RemoveTree(const std::string& path) override {
    std::error_code ec;  // error surfaces as a Status; never throws
    std::filesystem::remove_all(path, ec);
    if (ec) {
      return Status::IOError("failed to remove tree " + path + ": " +
                             ec.message());
    }
    return Status::OK();
  }
};

// ----------------------------------------------------------- seam state --

std::atomic<FileSystem*> g_file_system{nullptr};

// Lazily builds the default: a fault-injection wrapper when
// SEMIS_FAULT_SPEC is set, else plain POSIX. Mirrors crash_point.cc's
// parse-once pattern, but a malformed spec aborts instead of disarming:
// a sweep harness that silently ran fault-free would report success it
// never earned.
FileSystem* DefaultFileSystem() {
  static FileSystem* const fs = []() -> FileSystem* {
    const char* env = std::getenv("SEMIS_FAULT_SPEC");
    if (env == nullptr || *env == '\0') return PosixFileSystem();
    FaultSpec spec;
    Status s = FaultSpec::Parse(env, &spec);
    if (!s.ok()) {
      std::fprintf(stderr, "SEMIS_FAULT_SPEC: %s\n", s.ToString().c_str());
      std::abort();
    }
    spec.announce = true;
    static FaultInjectionFileSystem fault_fs(PosixFileSystem(), spec);
    return &fault_fs;
  }();
  return fs;
}

// -------------------------------------------------------- fault wrapper --

// Decorates a RawFile so read/write/sync faults hit mid-stream, not just
// at open. Short transfers really move half the bytes through `base`
// first: a torn write lands on disk, exactly like a device failing
// mid-transfer.
class FaultInjectionFile : public RawFile {
 public:
  FaultInjectionFile(std::unique_ptr<RawFile> base, std::string path,
                     FaultInjectionFileSystem* fs)
      : base_(std::move(base)), path_(std::move(path)), fs_(fs) {}

  Status Read(void* out, size_t n, size_t* out_n) override {
    Status injected;
    if (fs_->ShouldFault(IoOp::kRead, path_, &injected)) {
      *out_n = 0;
      if (fs_->short_transfer() && n > 1) {
        base_->Read(out, n / 2, out_n).IgnoreError();
      }
      return injected;
    }
    return base_->Read(out, n, out_n);
  }

  // A skip moves the read position, so it is a read-class op: the same
  // spec index counts it, and a short fault moves half the distance.
  Status Skip(uint64_t n) override {
    Status injected;
    if (fs_->ShouldFault(IoOp::kRead, path_, &injected)) {
      if (fs_->short_transfer() && n > 1) {
        base_->Skip(n / 2).IgnoreError();
      }
      return injected;
    }
    return base_->Skip(n);
  }

  Status Write(const void* data, size_t n) override {
    Status injected;
    if (fs_->ShouldFault(IoOp::kWrite, path_, &injected)) {
      if (fs_->short_transfer() && n > 1) {
        base_->Write(data, n / 2).IgnoreError();
      }
      return injected;
    }
    return base_->Write(data, n);
  }

  Status Sync() override {
    Status injected;
    if (fs_->ShouldFault(IoOp::kSync, path_, &injected)) return injected;
    return base_->Sync();
  }

  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<RawFile> base_;
  std::string path_;
  FaultInjectionFileSystem* fs_;
};

const struct {
  const char* name;
  int value;
} kErrnoNames[] = {
    {"EIO", EIO},       {"ENOSPC", ENOSPC}, {"EINTR", EINTR},
    {"EAGAIN", EAGAIN}, {"EACCES", EACCES}, {"ENOENT", ENOENT},
    {"EROFS", EROFS},
};

const char* ErrnoName(int err) {
  for (const auto& e : kErrnoNames) {
    if (e.value == err) return e.name;
  }
  return nullptr;
}

std::vector<std::string> SplitColon(const std::string& s) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    size_t colon = s.find(':', start);
    if (colon == std::string::npos) {
      parts.push_back(s.substr(start));
      return parts;
    }
    parts.push_back(s.substr(start, colon - start));
    start = colon + 1;
  }
}

}  // namespace

Status RawFile::Skip(uint64_t n) {
  char discard[4096];
  while (n > 0) {
    const size_t want = n < sizeof(discard) ? static_cast<size_t>(n)
                                            : sizeof(discard);
    size_t got = 0;
    SEMIS_RETURN_IF_ERROR(Read(discard, want, &got));
    if (got == 0) break;  // end of file
    n -= got;
  }
  return Status::OK();
}

const char* IoOpName(IoOp op) {
  switch (op) {
    case IoOp::kOpen:
      return "open";
    case IoOp::kRead:
      return "read";
    case IoOp::kWrite:
      return "write";
    case IoOp::kSync:
      return "sync";
    case IoOp::kSyncDir:
      return "syncdir";
    case IoOp::kRename:
      return "rename";
    case IoOp::kLink:
      return "link";
    case IoOp::kRemove:
      return "remove";
    case IoOp::kStat:
      return "stat";
    case IoOp::kMkdir:
      return "mkdir";
    case IoOp::kRemoveTree:
      return "rmtree";
  }
  return "unknown";
}

FileSystem* PosixFileSystem() {
  static PosixFileSystemImpl* const fs = new PosixFileSystemImpl();
  return fs;
}

FileSystem* GetFileSystem() {
  FileSystem* fs = g_file_system.load(std::memory_order_acquire);
  return fs != nullptr ? fs : DefaultFileSystem();
}

void SetFileSystem(FileSystem* fs) {
  g_file_system.store(fs, std::memory_order_release);
}

ScopedFileSystem::ScopedFileSystem(FileSystem* fs)
    : prev_(g_file_system.load(std::memory_order_acquire)) {
  SetFileSystem(fs);
}

ScopedFileSystem::~ScopedFileSystem() { SetFileSystem(prev_); }

// ------------------------------------------------------------ FaultSpec --

Status FaultSpec::Parse(const std::string& spec, FaultSpec* out) {
  FaultSpec parsed;
  std::string body = spec;
  size_t at = body.find('@');
  if (at != std::string::npos) {
    parsed.path_substr = body.substr(at + 1);
    body = body.substr(0, at);
  }
  std::vector<std::string> parts = SplitColon(body);
  if (parts.size() < 2) {
    return Status::InvalidArgument("fault spec '" + spec +
                                   "': want <op>:<nth>[:ERRNO][:sticky]"
                                   "[:short][@substr]");
  }

  const std::string& op_name = parts[0];
  if (op_name == "any") {
    parsed.any_op = true;
  } else {
    static const IoOp kAllOps[] = {
        IoOp::kOpen,   IoOp::kRead,  IoOp::kWrite, IoOp::kSync,
        IoOp::kSyncDir, IoOp::kRename, IoOp::kLink, IoOp::kRemove,
        IoOp::kStat,   IoOp::kMkdir, IoOp::kRemoveTree,
    };
    bool found = false;
    for (IoOp op : kAllOps) {
      if (op_name == IoOpName(op)) {
        parsed.op = op;
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::InvalidArgument("fault spec '" + spec +
                                     "': unknown op '" + op_name + "'");
    }
  }

  char* end = nullptr;
  errno = 0;
  unsigned long long nth = std::strtoull(parts[1].c_str(), &end, 10);
  if (parts[1].empty() || end == nullptr || *end != '\0' || errno != 0 ||
      nth < 1) {
    return Status::InvalidArgument("fault spec '" + spec + "': bad index '" +
                                   parts[1] + "' (want an integer >= 1)");
  }
  parsed.nth = nth;

  parsed.fault_errno = EIO;
  for (size_t i = 2; i < parts.size(); ++i) {
    const std::string& tok = parts[i];
    if (tok == "sticky") {
      parsed.sticky = true;
      continue;
    }
    if (tok == "short") {
      parsed.short_transfer = true;
      continue;
    }
    bool matched = false;
    for (const auto& e : kErrnoNames) {
      if (tok == e.name) {
        parsed.fault_errno = e.value;
        matched = true;
        break;
      }
    }
    if (!matched) {
      return Status::InvalidArgument("fault spec '" + spec +
                                     "': unknown token '" + tok + "'");
    }
  }

  *out = std::move(parsed);
  return Status::OK();
}

std::string FaultSpec::ToString() const {
  std::string s = any_op ? "any" : IoOpName(op);
  s += ":" + std::to_string(nth);
  const int err = fault_errno == 0 ? EIO : fault_errno;
  if (const char* name = ErrnoName(err)) {
    s += std::string(":") + name;
  }
  if (sticky) s += ":sticky";
  if (short_transfer) s += ":short";
  if (!path_substr.empty()) s += "@" + path_substr;
  return s;
}

// ---------------------------------------------- FaultInjectionFileSystem --

FaultInjectionFileSystem::FaultInjectionFileSystem(FileSystem* base,
                                                   FaultSpec spec)
    : base_(base), spec_(std::move(spec)) {
  if (spec_.fault_errno == 0) spec_.fault_errno = EIO;
}

bool FaultInjectionFileSystem::ShouldFault(IoOp op, const std::string& path,
                                           Status* error) {
  if (!spec_.any_op && op != spec_.op) return false;
  if (!spec_.path_substr.empty() &&
      path.find(spec_.path_substr) == std::string::npos) {
    return false;
  }
  const uint64_t index =
      matched_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (spec_.sticky ? index < spec_.nth : index != spec_.nth) return false;
  injected_.fetch_add(1, std::memory_order_relaxed);
  const int err = spec_.fault_errno;
  std::string msg = std::string("injected ") +
                    (ErrnoName(err) ? ErrnoName(err) : "error") + " at " +
                    IoOpName(op) + " #" + std::to_string(index) + " ('" +
                    path + "')";
  if (spec_.announce) {
    // stderr is unbuffered: the sweep harness greps this line to tell
    // "survived because the fault fired and was handled" apart from
    // "survived because the run never reached op #nth".
    std::fprintf(stderr, "SEMIS_FAULT_INJECTED op=%s n=%llu path=%s\n",
                 IoOpName(op), static_cast<unsigned long long>(index),
                 path.c_str());
  }
  *error = Status::IOError(std::move(msg), err);
  return true;
}

Status FaultInjectionFileSystem::NewWritableFile(
    const std::string& path, std::unique_ptr<RawFile>* out) {
  Status injected;
  if (ShouldFault(IoOp::kOpen, path, &injected)) return injected;
  std::unique_ptr<RawFile> base_file;
  SEMIS_RETURN_IF_ERROR(base_->NewWritableFile(path, &base_file));
  *out = std::make_unique<FaultInjectionFile>(std::move(base_file), path,
                                              this);
  return Status::OK();
}

Status FaultInjectionFileSystem::NewAppendableFile(
    const std::string& path, std::unique_ptr<RawFile>* out) {
  Status injected;
  if (ShouldFault(IoOp::kOpen, path, &injected)) return injected;
  std::unique_ptr<RawFile> base_file;
  SEMIS_RETURN_IF_ERROR(base_->NewAppendableFile(path, &base_file));
  *out = std::make_unique<FaultInjectionFile>(std::move(base_file), path,
                                              this);
  return Status::OK();
}

Status FaultInjectionFileSystem::NewReadableFile(
    const std::string& path, std::unique_ptr<RawFile>* out) {
  Status injected;
  if (ShouldFault(IoOp::kOpen, path, &injected)) return injected;
  std::unique_ptr<RawFile> base_file;
  SEMIS_RETURN_IF_ERROR(base_->NewReadableFile(path, &base_file));
  *out = std::make_unique<FaultInjectionFile>(std::move(base_file), path,
                                              this);
  return Status::OK();
}

Status FaultInjectionFileSystem::GetFileSize(const std::string& path,
                                             uint64_t* size) {
  Status injected;
  if (ShouldFault(IoOp::kStat, path, &injected)) return injected;
  return base_->GetFileSize(path, size);
}

Status FaultInjectionFileSystem::RemoveFile(const std::string& path) {
  Status injected;
  if (ShouldFault(IoOp::kRemove, path, &injected)) return injected;
  return base_->RemoveFile(path);
}

Status FaultInjectionFileSystem::SyncFile(const std::string& path) {
  Status injected;
  if (ShouldFault(IoOp::kSync, path, &injected)) return injected;
  return base_->SyncFile(path);
}

Status FaultInjectionFileSystem::SyncDirectory(const std::string& dir) {
  Status injected;
  if (ShouldFault(IoOp::kSyncDir, dir, &injected)) return injected;
  return base_->SyncDirectory(dir);
}

Status FaultInjectionFileSystem::RenameFile(const std::string& from,
                                            const std::string& to) {
  Status injected;
  if (ShouldFault(IoOp::kRename, to, &injected)) return injected;
  return base_->RenameFile(from, to);
}

Status FaultInjectionFileSystem::HardLinkFile(const std::string& src,
                                              const std::string& dst) {
  Status injected;
  if (ShouldFault(IoOp::kLink, dst, &injected)) return injected;
  return base_->HardLinkFile(src, dst);
}

Status FaultInjectionFileSystem::CreateTempDir(const std::string& tmpl,
                                               std::string* out_path) {
  Status injected;
  if (ShouldFault(IoOp::kMkdir, tmpl, &injected)) return injected;
  return base_->CreateTempDir(tmpl, out_path);
}

Status FaultInjectionFileSystem::RemoveTree(const std::string& path) {
  Status injected;
  if (ShouldFault(IoOp::kRemoveTree, path, &injected)) return injected;
  return base_->RemoveTree(path);
}

// ---------------------------------------------------------- retry policy --

const RetryPolicy& DefaultRetryPolicy() {
  static const RetryPolicy policy = [] {
    RetryPolicy p;
    if (const char* env = std::getenv("SEMIS_IO_RETRY_ATTEMPTS")) {
      char* end = nullptr;
      long v = std::strtol(env, &end, 10);
      if (end != nullptr && *end == '\0' && v >= 1 && v <= 100) {
        p.max_attempts = static_cast<int>(v);
      }
    }
    if (const char* env = std::getenv("SEMIS_IO_RETRY_BACKOFF_US")) {
      char* end = nullptr;
      long v = std::strtol(env, &end, 10);
      if (end != nullptr && *end == '\0' && v >= 0 && v <= 10'000'000) {
        p.backoff_us = static_cast<unsigned>(v);
      }
    }
    return p;
  }();
  return policy;
}

bool IsTransientIoError(const Status& s) {
  if (!s.IsIOError()) return false;
  const int err = s.sys_errno();
  return err == EINTR || err == EAGAIN || err == EIO;
}

void RetryBackoffSleep(const RetryPolicy& policy, int attempt) {
  if (policy.backoff_us == 0) return;
  const uint64_t us = static_cast<uint64_t>(policy.backoff_us)
                      << (attempt - 1);
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

}  // namespace semis
