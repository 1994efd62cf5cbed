// The FileSystem seam (io/env.h) is what makes the error path testable:
// every fault the sweep harness can inject from the shell via
// SEMIS_FAULT_SPEC is exercised here in-process through the same
// FaultInjectionFileSystem. The suite locks in the spec grammar, the
// exact Nth-match/sticky/path-filter semantics, torn transfers, and the
// retry policy's transient-vs-permanent line.
#include "io/env.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "io/file.h"
#include "test_util.h"

namespace semis {
namespace {

using testing_util::ScratchTest;

class EnvTest : public ScratchTest {};

FaultSpec MustParse(const std::string& spec) {
  FaultSpec out;
  Status s = FaultSpec::Parse(spec, &out);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

// ------------------------------------------------------------ FaultSpec --

TEST(FaultSpecTest, ParsesMinimalSpec) {
  FaultSpec spec = MustParse("write:3");
  EXPECT_EQ(spec.op, IoOp::kWrite);
  EXPECT_FALSE(spec.any_op);
  EXPECT_EQ(spec.nth, 3u);
  EXPECT_EQ(spec.fault_errno, EIO);  // the default
  EXPECT_FALSE(spec.sticky);
  EXPECT_FALSE(spec.short_transfer);
  EXPECT_TRUE(spec.path_substr.empty());
}

TEST(FaultSpecTest, ParsesEveryField) {
  FaultSpec spec = MustParse("rename:2:ENOSPC:sticky:short@.epoch");
  EXPECT_EQ(spec.op, IoOp::kRename);
  EXPECT_EQ(spec.nth, 2u);
  EXPECT_EQ(spec.fault_errno, ENOSPC);
  EXPECT_TRUE(spec.sticky);
  EXPECT_TRUE(spec.short_transfer);
  EXPECT_EQ(spec.path_substr, ".epoch");
}

TEST(FaultSpecTest, ParsesEveryOpToken) {
  const struct {
    const char* token;
    IoOp op;
  } kCases[] = {
      {"open", IoOp::kOpen},       {"read", IoOp::kRead},
      {"write", IoOp::kWrite},     {"sync", IoOp::kSync},
      {"syncdir", IoOp::kSyncDir}, {"rename", IoOp::kRename},
      {"link", IoOp::kLink},       {"remove", IoOp::kRemove},
      {"stat", IoOp::kStat},       {"mkdir", IoOp::kMkdir},
      {"rmtree", IoOp::kRemoveTree},
  };
  for (const auto& c : kCases) {
    FaultSpec spec = MustParse(std::string(c.token) + ":1");
    EXPECT_EQ(spec.op, c.op) << c.token;
    EXPECT_EQ(IoOpName(spec.op), std::string(c.token));
  }
  EXPECT_TRUE(MustParse("any:1").any_op);
}

TEST(FaultSpecTest, RejectsMalformedSpecs) {
  const char* kBad[] = {
      "",            // empty
      "write",       // missing index
      "bogus:1",     // unknown op
      "write:0",     // index must be >= 1
      "write:x",     // non-numeric index
      "write:1:EBOGUS",   // unknown errno
      "write:1:sticky:x", // trailing junk token
  };
  for (const char* spec : kBad) {
    FaultSpec out;
    out.nth = 77;  // sentinel: Parse must leave *out untouched on error
    EXPECT_TRUE(FaultSpec::Parse(spec, &out).IsInvalidArgument()) << spec;
    EXPECT_EQ(out.nth, 77u) << spec;
  }
}

TEST(FaultSpecTest, ToStringRoundTrips) {
  const char* kSpecs[] = {
      "write:3:EIO",
      "rename:2:ENOSPC:sticky",
      "read:5:EIO:short@.sadjs",
      "any:1:EACCES",
  };
  for (const char* text : kSpecs) {
    FaultSpec spec = MustParse(text);
    EXPECT_EQ(spec.ToString(), text);
    // And the round-trip reparses to the same semantics.
    FaultSpec again = MustParse(spec.ToString());
    EXPECT_EQ(again.ToString(), spec.ToString());
  }
}

// ---------------------------------------------------------- seam wiring --

TEST(FileSystemSeamTest, DefaultIsPosix) {
  // The suite runs without SEMIS_FAULT_SPEC, so the default resolution
  // must land on the real POSIX implementation.
  EXPECT_STREQ(GetFileSystem()->Name(), "posix");
}

TEST(FileSystemSeamTest, ScopedOverrideInstallsAndRestores) {
  FaultInjectionFileSystem fs(PosixFileSystem(), MustParse("write:1"));
  {
    ScopedFileSystem scoped(&fs);
    EXPECT_EQ(GetFileSystem(), &fs);
    EXPECT_STREQ(GetFileSystem()->Name(), "fault-injection");
  }
  EXPECT_STREQ(GetFileSystem()->Name(), "posix");
}

// -------------------------------------------- FaultInjectionFileSystem --

TEST_F(EnvTest, NthMatchingOperationFaults) {
  // open:2:ENOSPC -- the second open fails, the first and third succeed.
  // ENOSPC is permanent, so the writer's open-retry cannot mask it.
  FaultInjectionFileSystem fs(PosixFileSystem(), MustParse("open:2:ENOSPC"));
  ScopedFileSystem scoped(&fs);

  std::unique_ptr<RawFile> f;
  ASSERT_OK(fs.NewWritableFile(NewPath("a"), &f));
  ASSERT_OK(f->Close());

  Status s = fs.NewWritableFile(NewPath("b"), &f);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(s.sys_errno(), ENOSPC);

  ASSERT_OK(fs.NewWritableFile(NewPath("c"), &f));
  ASSERT_OK(f->Close());

  EXPECT_EQ(fs.ops_matched(), 3u);
  EXPECT_EQ(fs.faults_injected(), 1u);
}

TEST_F(EnvTest, StickyFaultsEveryOperationFromNthOn) {
  FaultInjectionFileSystem fs(PosixFileSystem(),
                              MustParse("open:2:ENOSPC:sticky"));
  ScopedFileSystem scoped(&fs);

  std::unique_ptr<RawFile> f;
  ASSERT_OK(fs.NewWritableFile(NewPath("a"), &f));
  ASSERT_OK(f->Close());
  EXPECT_FALSE(fs.NewWritableFile(NewPath("b"), &f).ok());
  EXPECT_FALSE(fs.NewWritableFile(NewPath("c"), &f).ok());
  EXPECT_EQ(fs.faults_injected(), 2u);
}

TEST_F(EnvTest, PathFilterRestrictsMatching) {
  FaultSpec spec = MustParse("open:1:ENOSPC@victim");
  FaultInjectionFileSystem fs(PosixFileSystem(), spec);
  ScopedFileSystem scoped(&fs);

  std::unique_ptr<RawFile> f;
  ASSERT_OK(fs.NewWritableFile(NewPath("bystander"), &f));
  ASSERT_OK(f->Close());
  EXPECT_EQ(fs.ops_matched(), 0u);  // filter excludes non-matching paths

  Status s = fs.NewWritableFile(NewPath("victim"), &f);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(fs.ops_matched(), 1u);
  EXPECT_EQ(fs.faults_injected(), 1u);
}

TEST_F(EnvTest, MetadataOperationFaultMatrix) {
  // Every metadata op class faults independently with the exact injected
  // errno -- the in-process mirror of one sweep step per op.
  const std::string src = NewPath("src");
  {
    SequentialFileWriter w;
    ASSERT_OK(w.Open(src));
    ASSERT_OK(w.Append("x", 1));
    ASSERT_OK(w.Close());
  }

  struct Case {
    const char* spec;
    std::function<Status(FileSystem*)> run;
  };
  const Case kCases[] = {
      {"stat:1:EACCES",
       [&](FileSystem* fs) {
         uint64_t size = 0;
         return fs->GetFileSize(src, &size);
       }},
      {"remove:1:EACCES", [&](FileSystem* fs) { return fs->RemoveFile(src); }},
      {"sync:1:EROFS", [&](FileSystem* fs) { return fs->SyncFile(src); }},
      {"syncdir:1:EROFS",
       [&](FileSystem* fs) { return fs->SyncDirectory(scratch_.path()); }},
      {"rename:1:EACCES",
       [&](FileSystem* fs) { return fs->RenameFile(src, NewPath("dst")); }},
      {"link:1:EACCES",
       [&](FileSystem* fs) { return fs->HardLinkFile(src, NewPath("lnk")); }},
      {"mkdir:1:EACCES",
       [&](FileSystem* fs) {
         std::string out;
         return fs->CreateTempDir(NewPath("t-XXXXXX"), &out);
       }},
      {"rmtree:1:EACCES",
       [&](FileSystem* fs) { return fs->RemoveTree(scratch_.path()); }},
  };
  for (const auto& c : kCases) {
    FaultSpec spec = MustParse(c.spec);
    FaultInjectionFileSystem fs(PosixFileSystem(), spec);
    Status s = c.run(&fs);
    EXPECT_TRUE(s.IsIOError()) << c.spec << ": " << s.ToString();
    EXPECT_EQ(s.sys_errno(), spec.fault_errno) << c.spec;
    EXPECT_EQ(fs.faults_injected(), 1u) << c.spec;
    // The same op against the untouched base succeeds (proving the fault
    // was injected, not real), except the destructive ones we skip.
  }
  // All of the above left the source file intact: metadata faults are
  // clean rejections, not partial mutations.
  uint64_t size = 0;
  ASSERT_OK(GetFileSize(src, &size));
  EXPECT_EQ(size, 1u);
}

TEST_F(EnvTest, ShortWriteTearsTheTransfer) {
  // write:1:ENOSPC:short must land HALF the bytes in the file before
  // failing -- a torn write, exactly what a full disk does mid-transfer.
  FaultInjectionFileSystem fs(PosixFileSystem(),
                              MustParse("write:1:ENOSPC:short"));
  const std::string path = NewPath("torn");
  std::unique_ptr<RawFile> f;
  ASSERT_OK(fs.NewWritableFile(path, &f));
  const char payload[8] = {'0', '1', '2', '3', '4', '5', '6', '7'};
  Status s = f->Write(payload, sizeof(payload));
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(s.sys_errno(), ENOSPC);
  ASSERT_OK(f->Close());

  uint64_t size = 0;
  ASSERT_OK(GetFileSize(path, &size));
  EXPECT_EQ(size, sizeof(payload) / 2);
}

TEST_F(EnvTest, ShortReadReturnsPartialBytesThenError) {
  const std::string path = NewPath("shortread");
  {
    SequentialFileWriter w;
    ASSERT_OK(w.Open(path));
    ASSERT_OK(w.Append("01234567", 8));
    ASSERT_OK(w.Close());
  }
  FaultInjectionFileSystem fs(PosixFileSystem(), MustParse("read:1:EIO:short"));
  std::unique_ptr<RawFile> f;
  ASSERT_OK(fs.NewReadableFile(path, &f));
  char buf[8] = {0};
  size_t got = 0;
  Status s = f->Read(buf, sizeof(buf), &got);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(got, 4u);  // half the request moved before the error
  EXPECT_EQ(std::string(buf, got), "0123");
}

// ------------------------------------------------------------ forward skip --

// Forwards everything to a base file but keeps RawFile's default Skip,
// like any wrapper written before Skip existed.
class NoSkipFile : public RawFile {
 public:
  explicit NoSkipFile(std::unique_ptr<RawFile> base) : base_(std::move(base)) {}
  Status Read(void* out, size_t n, size_t* out_n) override {
    return base_->Read(out, n, out_n);
  }
  Status Write(const void* data, size_t n) override {
    return base_->Write(data, n);
  }
  Status Sync() override { return base_->Sync(); }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<RawFile> base_;
};

// A pass-through FileSystem handing out NoSkipFile handles.
class NoSkipFileSystem : public FileSystem {
 public:
  const char* Name() const override { return "no-skip"; }
  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<RawFile>* out) override {
    return Wrap(PosixFileSystem()->NewWritableFile(path, out), out);
  }
  Status NewAppendableFile(const std::string& path,
                           std::unique_ptr<RawFile>* out) override {
    return Wrap(PosixFileSystem()->NewAppendableFile(path, out), out);
  }
  Status NewReadableFile(const std::string& path,
                         std::unique_ptr<RawFile>* out) override {
    return Wrap(PosixFileSystem()->NewReadableFile(path, out), out);
  }
  Status GetFileSize(const std::string& path, uint64_t* size) override {
    return PosixFileSystem()->GetFileSize(path, size);
  }
  Status RemoveFile(const std::string& path) override {
    return PosixFileSystem()->RemoveFile(path);
  }
  Status SyncFile(const std::string& path) override {
    return PosixFileSystem()->SyncFile(path);
  }
  Status SyncDirectory(const std::string& dir) override {
    return PosixFileSystem()->SyncDirectory(dir);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return PosixFileSystem()->RenameFile(from, to);
  }
  Status HardLinkFile(const std::string& src,
                      const std::string& dst) override {
    return PosixFileSystem()->HardLinkFile(src, dst);
  }
  Status CreateTempDir(const std::string& tmpl,
                       std::string* out_path) override {
    return PosixFileSystem()->CreateTempDir(tmpl, out_path);
  }
  Status RemoveTree(const std::string& path) override {
    return PosixFileSystem()->RemoveTree(path);
  }

 private:
  static Status Wrap(Status opened, std::unique_ptr<RawFile>* out) {
    if (opened.ok()) *out = std::make_unique<NoSkipFile>(std::move(*out));
    return opened;
  }
};

std::string WriteSkipPattern(const std::string& path) {
  std::vector<char> data(10000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(i % 251);
  }
  SequentialFileWriter w;
  EXPECT_OK(w.Open(path));
  EXPECT_OK(w.Append(data.data(), data.size()));
  EXPECT_OK(w.Close());
  return path;
}

// Reads a fixed mix of reads and skips (inside the 64-byte buffer,
// across fills, past EOF) and returns every delivered byte.
std::string SkipReadScript(const std::string& path) {
  SequentialFileReader r(nullptr, /*buffer_bytes=*/64);
  EXPECT_OK(r.Open(path));
  std::string got;
  char buf[8];
  const uint64_t kSkips[] = {3, 40, 1000, 64, 0, 5000, 7};
  for (uint64_t skip : kSkips) {
    EXPECT_OK(r.ReadExact(buf, sizeof(buf)));
    got.append(buf, sizeof(buf));
    EXPECT_OK(r.Skip(skip));
  }
  EXPECT_OK(r.Skip(100000));
  EXPECT_TRUE(r.ReadExact(buf, 1).IsCorruption());
  return got;
}

TEST_F(EnvTest, WrapperWithoutSkipOverrideReturnsTheSameBytes) {
  const std::string path = WriteSkipPattern(NewPath("noskip"));
  const std::string posix = SkipReadScript(path);
  EXPECT_EQ(posix.size(), 56u);
  EXPECT_EQ(posix[8], static_cast<char>(11));  // after 8 read + 3 skipped
  NoSkipFileSystem no_skip;
  ScopedFileSystem scoped(&no_skip);
  EXPECT_EQ(SkipReadScript(path), posix);
}

TEST_F(EnvTest, SkipThroughFaultInjectionIsAReadOp) {
  const std::string path = WriteSkipPattern(NewPath("skipfault"));
  const std::string posix = SkipReadScript(path);
  {
    // Not faulted: forwarded, same bytes as posix.
    FaultInjectionFileSystem fs(PosixFileSystem(), MustParse("write:1"));
    ScopedFileSystem scoped(&fs);
    EXPECT_EQ(SkipReadScript(path), posix);
  }
  // read:2 -- fill #1 succeeds, the skip past the buffer is read op #2.
  FaultInjectionFileSystem fs(PosixFileSystem(), MustParse("read:2:EIO"));
  ScopedFileSystem scoped(&fs);
  SequentialFileReader r(nullptr, /*buffer_bytes=*/64);
  ASSERT_OK(r.Open(path));
  char buf[8];
  ASSERT_OK(r.ReadExact(buf, sizeof(buf)));
  Status s = r.Skip(1000);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(fs.faults_injected(), 1u);
  // Latched like a failed fill: the fault was transient, but the position
  // is unknown, so nothing later may read on from it.
  EXPECT_FALSE(r.AtEof());
  size_t got = 0;
  EXPECT_TRUE(r.Read(buf, sizeof(buf), &got).IsIOError());
  EXPECT_EQ(got, 0u);
  EXPECT_TRUE(r.Skip(1).IsIOError());
  EXPECT_TRUE(r.Close().IsIOError());
}

// ----------------------------------------------------------- retry policy --

TEST(RetryPolicyTest, TransientClassification) {
  EXPECT_TRUE(IsTransientIoError(Status::IOError("x", EINTR)));
  EXPECT_TRUE(IsTransientIoError(Status::IOError("x", EAGAIN)));
  EXPECT_TRUE(IsTransientIoError(Status::IOError("x", EIO)));
  // Permanent: retrying cannot help.
  EXPECT_FALSE(IsTransientIoError(Status::IOError("x", ENOSPC)));
  EXPECT_FALSE(IsTransientIoError(Status::IOError("x", EACCES)));
  EXPECT_FALSE(IsTransientIoError(Status::IOError("x", EROFS)));
  // No errno captured: cannot prove it is transient.
  EXPECT_FALSE(IsTransientIoError(Status::IOError("x")));
  // Non-I/O categories never retry.
  EXPECT_FALSE(IsTransientIoError(Status::Corruption("x")));
  EXPECT_FALSE(IsTransientIoError(Status::OK()));
}

TEST(RetryPolicyTest, AbsorbsTransientErrors) {
  RetryPolicy policy{/*max_attempts=*/3, /*backoff_us=*/0};
  IoStats stats;
  int calls = 0;
  Status s = RetryIo(policy, &stats, [&] {
    ++calls;
    return calls < 3 ? Status::IOError("flaky", EIO) : Status::OK();
  });
  EXPECT_OK(s);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.io_retries, 2u);
}

TEST(RetryPolicyTest, GivesUpAfterMaxAttempts) {
  RetryPolicy policy{/*max_attempts=*/3, /*backoff_us=*/0};
  IoStats stats;
  int calls = 0;
  Status s = RetryIo(policy, &stats, [&] {
    ++calls;
    return Status::IOError("always", EIO);
  });
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.io_retries, 2u);
}

TEST(RetryPolicyTest, PermanentErrorsAreNotRetried) {
  RetryPolicy policy{/*max_attempts=*/5, /*backoff_us=*/0};
  IoStats stats;
  int calls = 0;
  Status s = RetryIo(policy, &stats, [&] {
    ++calls;
    return Status::IOError("disk full", ENOSPC);
  });
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(calls, 1);  // first failure is final
  EXPECT_EQ(stats.io_retries, 0u);
}

TEST(RetryPolicyTest, NullStatsIsAccepted) {
  RetryPolicy policy{/*max_attempts=*/2, /*backoff_us=*/0};
  int calls = 0;
  EXPECT_OK(RetryIo(policy, nullptr, [&] {
    ++calls;
    return calls < 2 ? Status::IOError("flaky", EINTR) : Status::OK();
  }));
  EXPECT_EQ(calls, 2);
}

TEST_F(EnvTest, WriterOpenAbsorbsOneTransientFault) {
  // A once-only EIO at open is exactly what the retry policy exists for:
  // the writer's Open survives it and charges one retry to the stats.
  FaultInjectionFileSystem fs(PosixFileSystem(), MustParse("open:1:EIO"));
  ScopedFileSystem scoped(&fs);
  IoStats stats;
  SequentialFileWriter w(&stats);
  ASSERT_OK(w.Open(NewPath("retried")));
  ASSERT_OK(w.Append("x", 1));
  ASSERT_OK(w.Close());
  EXPECT_EQ(stats.io_retries, 1u);
  EXPECT_EQ(fs.faults_injected(), 1u);
}

TEST_F(EnvTest, WriterSyncAbsorbsOneTransientFault) {
  FaultInjectionFileSystem fs(PosixFileSystem(), MustParse("sync:1:EIO"));
  ScopedFileSystem scoped(&fs);
  IoStats stats;
  SequentialFileWriter w(&stats);
  ASSERT_OK(w.Open(NewPath("synced")));
  ASSERT_OK(w.Append("x", 1));
  ASSERT_OK(w.Sync());
  ASSERT_OK(w.Close());
  EXPECT_EQ(stats.io_retries, 1u);
}

TEST_F(EnvTest, StickyPermanentSyncFaultPoisonsTheWriter) {
  FaultInjectionFileSystem fs(PosixFileSystem(),
                              MustParse("sync:1:EROFS:sticky"));
  ScopedFileSystem scoped(&fs);
  SequentialFileWriter w;
  ASSERT_OK(w.Open(NewPath("poisoned")));
  ASSERT_OK(w.Append("x", 1));
  Status s = w.Sync();
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(s.sys_errno(), EROFS);
  // The writer is poisoned: every later call reports the original error.
  EXPECT_TRUE(w.Append("y", 1).IsIOError());
  EXPECT_TRUE(w.Close().IsIOError());
}

TEST(RetryPolicyTest, DefaultPolicyIsSane) {
  const RetryPolicy& policy = DefaultRetryPolicy();
  EXPECT_GE(policy.max_attempts, 1);
}

}  // namespace
}  // namespace semis
