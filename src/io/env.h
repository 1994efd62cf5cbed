// Copyright (c) the semis authors.
// Process-wide I/O environment seam (LevelDB/RocksDB Env style). Every
// byte the library moves to or from disk flows through the FileSystem
// returned by GetFileSystem(): the buffered SequentialFileWriter/Reader,
// the durability helpers (SyncFile / SyncParentDirectory), the metadata
// ops (rename / hard-link / remove / stat), and ScratchDir. Swapping the
// FileSystem makes the error path as deterministic and testable as the
// happy path: tests install a FaultInjectionFileSystem in-process, and
// SEMIS_FAULT_SPEC arms the same machinery process-wide for shell-level
// error sweeps (the errno twin of SEMIS_CRASH_POINT).
#ifndef SEMIS_IO_ENV_H_
#define SEMIS_IO_ENV_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "io/io_stats.h"
#include "util/status.h"

namespace semis {

/// Classes of filesystem operation, for fault matching and diagnostics.
/// One value per distinct failure surface: a fault spec names one of
/// these and an occurrence index.
enum class IoOp {
  kOpen,        // any file open (read, write, or append)
  kRead,        // RawFile::Read and RawFile::Skip
  kWrite,       // RawFile::Write
  kSync,        // RawFile::Sync and FileSystem::SyncFile (fsync)
  kSyncDir,     // FileSystem::SyncDirectory (directory fsync)
  kRename,      // FileSystem::RenameFile
  kLink,        // FileSystem::HardLinkFile
  kRemove,      // FileSystem::RemoveFile
  kStat,        // FileSystem::GetFileSize
  kMkdir,       // FileSystem::CreateTempDir
  kRemoveTree,  // FileSystem::RemoveTree
};

/// Lower-case token for `op` ("open", "read", ...), as used in fault
/// specs and error messages.
const char* IoOpName(IoOp op);

/// An open file handle: unbuffered, sequential, position implicit.
/// SequentialFileWriter/Reader add user-space buffering on top, so
/// implementations see one Read/Write per buffer fill/flush, not per
/// record.
class RawFile {
 public:
  virtual ~RawFile() = default;

  /// Reads up to `n` bytes into `out`; `*out_n` receives the count
  /// actually read. A short count means end-of-file, never a swallowed
  /// error (implementations retry EINTR internally).
  virtual Status Read(void* out, size_t n, size_t* out_n) = 0;

  /// Moves the read position `n` bytes forward without delivering them.
  /// Skipping past end of file is not an error: the next Read then
  /// returns 0 bytes. The default reads and discards, so a wrapper that
  /// does not override it stays correct; the POSIX file seeks instead.
  virtual Status Skip(uint64_t n);

  /// Writes exactly `n` bytes or returns an error carrying the failing
  /// errno (short kernel writes are continued internally).
  virtual Status Write(const void* data, size_t n) = 0;

  /// fsync(2)s the file.
  virtual Status Sync() = 0;

  /// Closes the handle. Safe to call twice; the second call is a no-op.
  virtual Status Close() = 0;
};

/// The seam. Pure-virtual so a fault-injection (or, later, remote /
/// object-store) implementation can wrap or replace the POSIX one.
/// All methods are thread-safe.
class FileSystem {
 public:
  virtual ~FileSystem() = default;

  /// Implementation name for diagnostics ("posix", "fault-injection").
  virtual const char* Name() const = 0;

  /// Creates or truncates `path` for writing.
  virtual Status NewWritableFile(const std::string& path,
                                 std::unique_ptr<RawFile>* out) = 0;
  /// Opens an existing `path` for appending (NotFound when missing --
  /// appending to a missing file almost always means a lost header).
  virtual Status NewAppendableFile(const std::string& path,
                                   std::unique_ptr<RawFile>* out) = 0;
  /// Opens `path` for reading from the beginning.
  virtual Status NewReadableFile(const std::string& path,
                                 std::unique_ptr<RawFile>* out) = 0;

  /// Size of `path` in bytes; NotFound when it does not exist.
  virtual Status GetFileSize(const std::string& path, uint64_t* size) = 0;
  /// Removes `path`; NotFound when it does not exist.
  virtual Status RemoveFile(const std::string& path) = 0;
  /// fsync(2)s an existing file by path (open + fsync + close).
  virtual Status SyncFile(const std::string& path) = 0;
  /// fsync(2)s directory `dir`, making renames/creates/links of entries
  /// in it durable. Filesystems that refuse directory fsync (EINVAL)
  /// are tolerated.
  virtual Status SyncDirectory(const std::string& dir) = 0;
  /// rename(2): atomically replaces `to` with `from`.
  virtual Status RenameFile(const std::string& from,
                            const std::string& to) = 0;
  /// link(2): hard link `dst` to `src`'s inode; fails if `dst` exists.
  virtual Status HardLinkFile(const std::string& src,
                              const std::string& dst) = 0;
  /// mkdtemp(3): `tmpl` must end in "XXXXXX"; `*out_path` receives the
  /// created directory's path.
  virtual Status CreateTempDir(const std::string& tmpl,
                               std::string* out_path) = 0;
  /// Recursively removes the tree rooted at `path` (missing is OK).
  virtual Status RemoveTree(const std::string& path) = 0;
};

/// The real thing: POSIX syscalls, errno carried into every Status.
/// Singleton; never destroyed.
FileSystem* PosixFileSystem();

/// The process-wide FileSystem all library I/O routes through. Default
/// resolution order: an explicit SetFileSystem() override, else a
/// FaultInjectionFileSystem when SEMIS_FAULT_SPEC is set in the
/// environment (parsed once, lazily), else PosixFileSystem().
FileSystem* GetFileSystem();

/// Installs `fs` as the process-wide FileSystem (nullptr restores the
/// default resolution). Intended for tests and tools; not synchronized
/// against in-flight I/O, so install before spawning worker threads.
void SetFileSystem(FileSystem* fs);

/// RAII override: installs `fs` for the scope, restores the previous
/// override on destruction.
class ScopedFileSystem {
 public:
  explicit ScopedFileSystem(FileSystem* fs);
  ~ScopedFileSystem();

  ScopedFileSystem(const ScopedFileSystem&) = delete;
  ScopedFileSystem& operator=(const ScopedFileSystem&) = delete;

 private:
  FileSystem* prev_;
};

// ------------------------------------------------------------------------
// Fault injection
// ------------------------------------------------------------------------

/// One deterministic fault: "the Nth operation of class `op` (whose path
/// contains `path_substr`, when set) fails with `fault_errno`".
///
/// Spec string grammar (SEMIS_FAULT_SPEC and FaultSpec::Parse):
///
///   <op>:<nth>[:<ERRNO>][:sticky][:short][@<path-substr>]
///
///   op       open|read|write|sync|syncdir|rename|link|remove|stat|
///            mkdir|rmtree|any
///   nth      1-based index of the matching operation to fault
///   ERRNO    EIO (default) | ENOSPC | EINTR | EAGAIN | EACCES | ENOENT
///            | EROFS
///   sticky   every matching op from the nth on fails (default: only the
///            nth -- a transient fault a RetryPolicy can absorb)
///   short    reads/writes transfer half the requested bytes into/out of
///            the real file before failing (a torn transfer, not a clean
///            rejection)
///
/// Examples: "write:3:ENOSPC", "sync:1", "rename:2:EIO:sticky",
/// "write:5:EIO:short@.epoch".
struct FaultSpec {
  IoOp op = IoOp::kWrite;
  bool any_op = false;        // match every op class
  uint64_t nth = 1;           // 1-based index of the matching op to fault
  int fault_errno = 0;        // EIO by default (set by Parse/ctor use)
  bool sticky = false;        // fault all matching ops from the nth on
  bool short_transfer = false;  // torn read/write instead of clean fail
  std::string path_substr;    // "" = match any path
  bool announce = false;      // print an injection line to stderr

  /// Parses the grammar above. On error returns InvalidArgument and
  /// leaves `*out` untouched.
  static Status Parse(const std::string& spec, FaultSpec* out);

  /// Round-trips back to spec-string form (for diagnostics).
  std::string ToString() const;
};

/// A FileSystem decorator that injects the fault described by a
/// FaultSpec and forwards everything else to `base`. Operation counting
/// is atomic, so the Nth-match rule is exact even under concurrent I/O
/// (which op wins the race is scheduling-dependent; the *number* of
/// faults injected is not).
class FaultInjectionFileSystem : public FileSystem {
 public:
  FaultInjectionFileSystem(FileSystem* base, FaultSpec spec);

  const char* Name() const override { return "fault-injection"; }

  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<RawFile>* out) override;
  Status NewAppendableFile(const std::string& path,
                           std::unique_ptr<RawFile>* out) override;
  Status NewReadableFile(const std::string& path,
                         std::unique_ptr<RawFile>* out) override;
  Status GetFileSize(const std::string& path, uint64_t* size) override;
  Status RemoveFile(const std::string& path) override;
  Status SyncFile(const std::string& path) override;
  Status SyncDirectory(const std::string& dir) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status HardLinkFile(const std::string& src,
                      const std::string& dst) override;
  Status CreateTempDir(const std::string& tmpl,
                       std::string* out_path) override;
  Status RemoveTree(const std::string& path) override;

  /// Operations seen that matched the spec's op class + path filter.
  uint64_t ops_matched() const {
    return matched_.load(std::memory_order_relaxed);
  }
  /// Faults actually injected (0 or 1 unless sticky).
  uint64_t faults_injected() const {
    return injected_.load(std::memory_order_relaxed);
  }

  /// True (and fills `*error` with the injected Status) when the next
  /// occurrence of `op` on `path` must fail. Exposed for the RawFile
  /// wrappers; counts the occurrence either way.
  bool ShouldFault(IoOp op, const std::string& path, Status* error);

  /// Whether injected read/write faults tear the transfer (half the
  /// bytes move through the base file before the error).
  bool short_transfer() const { return spec_.short_transfer; }

 private:
  FileSystem* base_;
  FaultSpec spec_;
  std::atomic<uint64_t> matched_{0};
  std::atomic<uint64_t> injected_{0};
};

// ------------------------------------------------------------------------
// Retry policy
// ------------------------------------------------------------------------

/// Bounded, deterministic retry for the few I/O sites where a retry is
/// sound: open, fsync, directory fsync, and the epoch root-pointer
/// rename. Everything else propagates the first error -- retrying a
/// mid-stream buffered write would duplicate bytes.
struct RetryPolicy {
  /// Total attempts including the first (1 = no retry).
  int max_attempts = 3;
  /// Sleep before retry k (1-based) is `backoff_us << (k - 1)`
  /// microseconds: deterministic exponential backoff, no jitter (this is
  /// a single-machine store, not a distributed lock).
  unsigned backoff_us = 1000;
};

/// The process-wide policy: defaults above, overridable via
/// SEMIS_IO_RETRY_ATTEMPTS / SEMIS_IO_RETRY_BACKOFF_US (parsed once).
const RetryPolicy& DefaultRetryPolicy();

/// True when `s` is an IOError whose captured errno is worth retrying:
/// EINTR, EAGAIN, or EIO (media hiccups are the paper's operational
/// reality on spinning disks). ENOSPC, ENOENT, EACCES, EROFS are
/// permanent -- retrying cannot help and only delays the caller.
bool IsTransientIoError(const Status& s);

/// Sleeps the deterministic backoff for 1-based retry `attempt`.
void RetryBackoffSleep(const RetryPolicy& policy, int attempt);

/// Runs `op` (a callable returning Status) up to `policy.max_attempts`
/// times, retrying only transient errors, charging each retry to
/// `stats->io_retries` (stats may be null). Returns the final Status.
/// A template rather than std::function so the happy path allocates
/// nothing.
template <typename Op>
Status RetryIo(const RetryPolicy& policy, IoStats* stats, Op&& op) {
  Status s = op();
  for (int attempt = 1; attempt < policy.max_attempts && IsTransientIoError(s);
       ++attempt) {
    if (stats != nullptr) stats->io_retries++;
    RetryBackoffSleep(policy, attempt);
    s = op();
  }
  return s;
}

/// RetryIo with the process-wide DefaultRetryPolicy().
template <typename Op>
Status RetryIo(IoStats* stats, Op&& op) {
  return RetryIo(DefaultRetryPolicy(), stats, std::forward<Op>(op));
}

}  // namespace semis

#endif  // SEMIS_IO_ENV_H_
