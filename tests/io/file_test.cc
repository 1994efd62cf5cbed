#include "io/file.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <string>
#include <vector>

#include "io/env.h"
#include "test_util.h"

namespace semis {
namespace {

using testing_util::ScratchTest;

class FileTest : public ScratchTest {};

FaultSpec MustParseSpec(const std::string& spec) {
  FaultSpec out;
  Status s = FaultSpec::Parse(spec, &out);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

TEST_F(FileTest, WriteReadRoundtrip) {
  std::string path = NewPath("roundtrip");
  IoStats stats;
  {
    SequentialFileWriter w(&stats);
    ASSERT_OK(w.Open(path));
    ASSERT_OK(w.AppendU32(0xDEADBEEF));
    ASSERT_OK(w.AppendU64(0x0123456789ABCDEFull));
    const char text[] = "hello";
    ASSERT_OK(w.Append(text, 5));
    EXPECT_EQ(w.BytesWritten(), 4u + 8u + 5u);
    ASSERT_OK(w.Close());
  }
  {
    SequentialFileReader r(&stats);
    ASSERT_OK(r.Open(path));
    uint32_t u32 = 0;
    uint64_t u64 = 0;
    char buf[6] = {0};
    ASSERT_OK(r.ReadU32(&u32));
    ASSERT_OK(r.ReadU64(&u64));
    ASSERT_OK(r.ReadExact(buf, 5));
    EXPECT_EQ(u32, 0xDEADBEEF);
    EXPECT_EQ(u64, 0x0123456789ABCDEFull);
    EXPECT_EQ(std::string(buf), "hello");
    EXPECT_TRUE(r.AtEof());
  }
  EXPECT_EQ(stats.bytes_written, 17u);
  EXPECT_EQ(stats.bytes_read, 17u);
  EXPECT_EQ(stats.files_opened, 2u);
}

TEST_F(FileTest, LargePayloadCrossesBufferBoundary) {
  std::string path = NewPath("large");
  std::vector<uint32_t> data(300000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint32_t>(i);
  {
    SequentialFileWriter w(nullptr, /*buffer_bytes=*/4096);  // tiny buffer
    ASSERT_OK(w.Open(path));
    ASSERT_OK(w.Append(data.data(), data.size() * sizeof(uint32_t)));
    ASSERT_OK(w.Close());
  }
  std::vector<uint32_t> back(data.size());
  SequentialFileReader r(nullptr, /*buffer_bytes=*/4096);
  ASSERT_OK(r.Open(path));
  ASSERT_OK(r.ReadExact(back.data(), back.size() * sizeof(uint32_t)));
  EXPECT_TRUE(r.AtEof());
  EXPECT_EQ(back, data);
}

TEST_F(FileTest, ReadExactOnTruncatedFileIsCorruption) {
  std::string path = NewPath("short");
  {
    SequentialFileWriter w;
    ASSERT_OK(w.Open(path));
    ASSERT_OK(w.AppendU32(7));
    ASSERT_OK(w.Close());
  }
  SequentialFileReader r;
  ASSERT_OK(r.Open(path));
  uint64_t v = 0;
  Status s = r.ReadU64(&v);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(FileTest, OpenMissingFileFails) {
  SequentialFileReader r;
  Status s = r.Open(NewPath("does-not-exist"));
  EXPECT_FALSE(s.ok());
}

TEST_F(FileTest, PartialReadReportsCount) {
  std::string path = NewPath("partial");
  {
    SequentialFileWriter w;
    ASSERT_OK(w.Open(path));
    ASSERT_OK(w.Append("abc", 3));
    ASSERT_OK(w.Close());
  }
  SequentialFileReader r;
  ASSERT_OK(r.Open(path));
  char buf[10];
  size_t got = 0;
  ASSERT_OK(r.Read(buf, 10, &got));
  EXPECT_EQ(got, 3u);
  ASSERT_OK(r.Read(buf, 10, &got));
  EXPECT_EQ(got, 0u);
}

TEST_F(FileTest, EmptyFileIsImmediatelyEof) {
  std::string path = NewPath("empty");
  {
    SequentialFileWriter w;
    ASSERT_OK(w.Open(path));
    ASSERT_OK(w.Close());
  }
  SequentialFileReader r;
  ASSERT_OK(r.Open(path));
  EXPECT_TRUE(r.AtEof());
}

TEST_F(FileTest, GetFileSizeAndRemove) {
  std::string path = NewPath("sized");
  {
    SequentialFileWriter w;
    ASSERT_OK(w.Open(path));
    ASSERT_OK(w.Append("0123456789", 10));
    ASSERT_OK(w.Close());
  }
  uint64_t size = 0;
  ASSERT_OK(GetFileSize(path, &size));
  EXPECT_EQ(size, 10u);
  ASSERT_OK(RemoveFileIfExists(path));
  EXPECT_FALSE(GetFileSize(path, &size).ok());
  ASSERT_OK(RemoveFileIfExists(path));  // second remove is fine
}

TEST_F(FileTest, DoubleOpenRejected) {
  std::string path = NewPath("dbl");
  SequentialFileWriter w;
  ASSERT_OK(w.Open(path));
  EXPECT_TRUE(w.Open(path).IsInvalidArgument());
  ASSERT_OK(w.Close());
}

// --------------------------------------------------- error-path contract --

TEST_F(FileTest, MidFileReadErrorIsSurfacedNotTruncated) {
  // Regression: a read error after the first buffer fill used to be
  // swallowed -- AtEof() saw an empty buffer and reported a clean end of
  // file, silently truncating the data. The reader must latch the error,
  // report "not EOF", and surface it from every later call.
  std::string path = NewPath("midfile");
  std::vector<char> data(10000, 'a');
  {
    SequentialFileWriter w;
    ASSERT_OK(w.Open(path));
    ASSERT_OK(w.Append(data.data(), data.size()));
    ASSERT_OK(w.Close());
  }
  // Reader buffer of 4096: the file takes three fills. Fault fill #2.
  FaultInjectionFileSystem fs(PosixFileSystem(),
                              MustParseSpec("read:2:EIO:sticky"));
  ScopedFileSystem scoped(&fs);
  SequentialFileReader r(nullptr, /*buffer_bytes=*/4096);
  ASSERT_OK(r.Open(path));
  char buf[4096];
  size_t got = 0;
  ASSERT_OK(r.Read(buf, sizeof(buf), &got));
  EXPECT_EQ(got, 4096u);

  Status s = r.Read(buf, sizeof(buf), &got);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(got, 0u);
  EXPECT_FALSE(r.AtEof()) << "an I/O error must not read as end of file";
  // The error is sticky: later reads and Close keep reporting it.
  EXPECT_TRUE(r.Read(buf, sizeof(buf), &got).IsIOError());
  EXPECT_TRUE(r.Close().IsIOError());
}

TEST_F(FileTest, AtEofPeekErrorIsLatchedForTheNextRead) {
  // The failure can also first strike inside AtEof()'s peek: it must
  // return false and leave the error for the next Read to report.
  std::string path = NewPath("peek");
  {
    SequentialFileWriter w;
    ASSERT_OK(w.Open(path));
    ASSERT_OK(w.Append("abc", 3));
    ASSERT_OK(w.Close());
  }
  FaultInjectionFileSystem fs(PosixFileSystem(),
                              MustParseSpec("read:1:EIO:sticky"));
  ScopedFileSystem scoped(&fs);
  SequentialFileReader r;
  ASSERT_OK(r.Open(path));
  EXPECT_FALSE(r.AtEof());
  char buf[4];
  size_t got = 0;
  EXPECT_TRUE(r.Read(buf, sizeof(buf), &got).IsIOError());
}

TEST_F(FileTest, FlushFailureCarriesErrnoAndPoisonsWriter) {
  // A failed flush must (a) name the errno in the message, (b) poison the
  // writer so Close() reports the ORIGINAL error rather than masking it
  // with a second (possibly byte-duplicating) write attempt.
  FaultInjectionFileSystem fs(PosixFileSystem(),
                              MustParseSpec("write:1:ENOSPC:sticky"));
  ScopedFileSystem scoped(&fs);
  SequentialFileWriter w;
  ASSERT_OK(w.Open(NewPath("nospace")));
  ASSERT_OK(w.Append("x", 1));  // buffered; no write yet
  Status s = w.Flush();
  ASSERT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(s.sys_errno(), ENOSPC);

  // Every later call reports the same latched error...
  EXPECT_EQ(w.Append("y", 1).ToString(), s.ToString());
  Status close_status = w.Close();
  EXPECT_EQ(close_status.ToString(), s.ToString());
  // ...and exactly one write was attempted: Close did not re-flush.
  EXPECT_EQ(fs.ops_matched(), 1u);
}

TEST_F(FileTest, StartWritebackFlushesAndIsNoFaultSite) {
  // StartWriteback flushes what is buffered (one write), then only hints
  // the kernel: under a fault on every op after the open and that write,
  // it runs no op of its own, and the file holds every byte.
  std::string path = NewPath("writeback");
  {
    FaultInjectionFileSystem fs(PosixFileSystem(),
                                MustParseSpec("any:3:EIO:sticky"));
    ScopedFileSystem scoped(&fs);
    SequentialFileWriter w;
    ASSERT_OK(w.Open(path));
    ASSERT_OK(w.Append("payload", 7));
    ASSERT_OK(w.StartWriteback());
    ASSERT_OK(w.StartWriteback());  // nothing buffered: no write
    ASSERT_OK(w.Close());
    EXPECT_EQ(fs.ops_matched(), 2u);  // the open, the flush
    EXPECT_EQ(fs.faults_injected(), 0u);
  }
  SequentialFileReader r;
  ASSERT_OK(r.Open(path));
  char back[8] = {0};
  ASSERT_OK(r.ReadExact(back, 7));
  EXPECT_TRUE(r.AtEof());
  EXPECT_EQ(std::string(back), "payload");
}

TEST_F(FileTest, WriteFaultMatrixExactCategories) {
  // One writer life-cycle op at a time: open / write / sync each fail
  // independently with IOError carrying the injected errno.
  struct Case {
    const char* spec;
  } kCases[] = {{"open:1:EACCES"}, {"write:1:ENOSPC"}, {"sync:1:EROFS"}};
  for (const auto& c : kCases) {
    FaultSpec spec = MustParseSpec(c.spec);
    FaultInjectionFileSystem fs(PosixFileSystem(), spec);
    ScopedFileSystem scoped(&fs);
    SequentialFileWriter w;
    Status s = w.Open(NewPath(std::string("m-") + IoOpName(spec.op)));
    if (s.ok()) {
      s = w.Append("payload", 7);
      if (s.ok()) s = w.Sync();
    }
    EXPECT_TRUE(s.IsIOError()) << c.spec << ": " << s.ToString();
    EXPECT_EQ(s.sys_errno(), spec.fault_errno) << c.spec;
    EXPECT_EQ(fs.faults_injected(), 1u) << c.spec;
  }
}

TEST_F(FileTest, ReaderOpenFaultMatrix) {
  std::string path = NewPath("ro");
  {
    SequentialFileWriter w;
    ASSERT_OK(w.Open(path));
    ASSERT_OK(w.Append("abc", 3));
    ASSERT_OK(w.Close());
  }
  FaultInjectionFileSystem fs(PosixFileSystem(),
                              MustParseSpec("open:1:EACCES"));
  ScopedFileSystem scoped(&fs);
  SequentialFileReader r;
  Status s = r.Open(path);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(s.sys_errno(), EACCES);
}

TEST_F(FileTest, HelperFaultMatrix) {
  // The free helpers (rename / link / remove / stat) route through the
  // seam too -- each fails cleanly with the injected error.
  std::string src = NewPath("h-src");
  {
    SequentialFileWriter w;
    ASSERT_OK(w.Open(src));
    ASSERT_OK(w.Append("x", 1));
    ASSERT_OK(w.Close());
  }
  {
    FaultInjectionFileSystem fs(PosixFileSystem(),
                                MustParseSpec("rename:1:EACCES"));
    ScopedFileSystem scoped(&fs);
    EXPECT_TRUE(RenameFile(src, NewPath("h-dst")).IsIOError());
  }
  {
    FaultInjectionFileSystem fs(PosixFileSystem(),
                                MustParseSpec("link:1:EACCES"));
    ScopedFileSystem scoped(&fs);
    EXPECT_TRUE(HardLinkFile(src, NewPath("h-lnk")).IsIOError());
  }
  {
    FaultInjectionFileSystem fs(PosixFileSystem(),
                                MustParseSpec("remove:1:EACCES"));
    ScopedFileSystem scoped(&fs);
    EXPECT_TRUE(RemoveFileIfExists(src).IsIOError());
  }
  {
    FaultInjectionFileSystem fs(PosixFileSystem(),
                                MustParseSpec("stat:1:EACCES"));
    ScopedFileSystem scoped(&fs);
    uint64_t size = 0;
    EXPECT_TRUE(GetFileSize(src, &size).IsIOError());
  }
  // After all that, the file is untouched.
  uint64_t size = 0;
  ASSERT_OK(GetFileSize(src, &size));
  EXPECT_EQ(size, 1u);
}

// ------------------------------------------------------------ forward skip --

// Writes bytes 0, 1, 2, ... (mod 251) so every position is recognizable.
std::string WritePatternFile(const std::string& path, size_t n) {
  std::vector<char> data(n);
  for (size_t i = 0; i < n; ++i) data[i] = static_cast<char>(i % 251);
  SequentialFileWriter w;
  EXPECT_OK(w.Open(path));
  EXPECT_OK(w.Append(data.data(), data.size()));
  EXPECT_OK(w.Close());
  return path;
}

char PatternAt(size_t i) { return static_cast<char>(i % 251); }

TEST_F(FileTest, SkipWithinAndAcrossBufferFills) {
  const std::string path = WritePatternFile(NewPath("skip"), 1000);
  IoStats stats;
  SequentialFileReader r(&stats, /*buffer_bytes=*/16);
  ASSERT_OK(r.Open(path));
  char buf[4];
  ASSERT_OK(r.ReadExact(buf, 4));  // position 4; the buffer holds 0..15
  ASSERT_OK(r.Skip(5));            // within the buffer
  ASSERT_OK(r.ReadExact(buf, 1));
  EXPECT_EQ(buf[0], PatternAt(9));
  ASSERT_OK(r.Skip(0));
  ASSERT_OK(r.Skip(100));  // past the buffer: dropped, the file skips
  ASSERT_OK(r.ReadExact(buf, 2));
  EXPECT_EQ(buf[0], PatternAt(110));
  EXPECT_EQ(buf[1], PatternAt(111));
  ASSERT_OK(r.Skip(6));  // exactly the rest of the refilled buffer
  ASSERT_OK(r.ReadExact(buf, 1));
  EXPECT_EQ(buf[0], PatternAt(118));
  // Only delivered bytes are charged, never skipped ones.
  EXPECT_EQ(stats.bytes_read, 4u + 1u + 2u + 1u);
  EXPECT_EQ(r.BytesRead(), 8u);
  ASSERT_OK(r.Close());
}

TEST_F(FileTest, SkipToAndPastEndOfFile) {
  const std::string path = WritePatternFile(NewPath("skipeof"), 100);
  char buf[1];
  {
    SequentialFileReader r(nullptr, /*buffer_bytes=*/16);
    ASSERT_OK(r.Open(path));
    ASSERT_OK(r.Skip(100));  // exactly to EOF
    EXPECT_TRUE(r.AtEof());
    EXPECT_TRUE(r.ReadExact(buf, 1).IsCorruption());
  }
  {
    SequentialFileReader r(nullptr, /*buffer_bytes=*/16);
    ASSERT_OK(r.Open(path));
    ASSERT_OK(r.Skip(150));  // past EOF is not an error...
    Status s = r.ReadExact(buf, 1);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();  // ...reading is
  }
  {
    // The last fill already hit EOF: the skip runs off the buffered tail.
    SequentialFileReader r(nullptr, /*buffer_bytes=*/256);
    ASSERT_OK(r.Open(path));
    ASSERT_OK(r.ReadExact(buf, 1));
    ASSERT_OK(r.Skip(500));
    EXPECT_TRUE(r.AtEof());
    EXPECT_TRUE(r.ReadExact(buf, 1).IsCorruption());
  }
}

TEST_F(FileTest, PeekAndConsumeBufferedWords) {
  const std::string path = NewPath("words");
  {
    SequentialFileWriter w;
    ASSERT_OK(w.Open(path));
    for (uint32_t i = 0; i < 10; ++i) ASSERT_OK(w.AppendU32(100 + i));
    ASSERT_OK(w.Close());
  }
  IoStats stats;
  SequentialFileReader r(&stats, 16);  // a 16-byte buffer: four words
  ASSERT_OK(r.Open(path));
  size_t n = 0;
  EXPECT_EQ(r.PeekBuffered(&n), nullptr);  // nothing buffered before a read
  EXPECT_EQ(n, 0u);
  uint32_t v = 0;
  ASSERT_OK(r.ReadU32(&v));
  EXPECT_EQ(v, 100u);
  const uint32_t* words = r.PeekBuffered(&n);
  ASSERT_NE(words, nullptr);
  ASSERT_EQ(n, 12u);
  EXPECT_EQ(words[0], 101u);
  EXPECT_EQ(words[2], 103u);
  r.ConsumeBuffered(8);
  EXPECT_EQ(r.BytesRead(), 12u);
  EXPECT_EQ(stats.bytes_read, 12u);
  ASSERT_OK(r.ReadU32(&v));
  EXPECT_EQ(v, 103u);
  EXPECT_EQ(r.PeekBuffered(&n), nullptr);  // drained: the next fill is I/O
  char byte = 0;
  ASSERT_OK(r.ReadExact(&byte, 1));  // off the word grid
  EXPECT_EQ(r.PeekBuffered(&n), nullptr);
  EXPECT_EQ(n, 0u);
}

TEST_F(FileTest, ScratchDirCleansUpOnDestruction) {
  std::string dir_path;
  {
    ScratchDir dir;
    ASSERT_OK(ScratchDir::Create("semis-cleanup", &dir));
    dir_path = dir.path();
    SequentialFileWriter w;
    ASSERT_OK(w.Open(dir.NewFilePath("f")));
    ASSERT_OK(w.Append("x", 1));
    ASSERT_OK(w.Close());
    uint64_t size;
    EXPECT_OK(GetFileSize(dir_path + "/f.0", &size));
  }
  uint64_t size;
  EXPECT_FALSE(GetFileSize(dir_path + "/f.0", &size).ok());
}

}  // namespace
}  // namespace semis
