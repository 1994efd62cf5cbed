// Copyright (c) the semis authors.
// Buffered sequential file access. This is the only way graph data reaches
// the algorithms: the API intentionally offers no seek-to-offset read, so
// core code is structurally unable to perform the random accesses the
// semi-external model forbids. A reader only moves forward; Skip jumps
// ahead without delivering bytes, never back. All bytes and metadata ops
// route through the process-wide FileSystem seam (io/env.h), so
// fault-injection tests exercise these exact code paths.
#ifndef SEMIS_IO_FILE_H_
#define SEMIS_IO_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/env.h"
#include "io/io_stats.h"
#include "util/status.h"

namespace semis {

/// Append-only buffered writer.
class SequentialFileWriter {
 public:
  /// `stats` may be null; if set, byte counters are charged to it.
  explicit SequentialFileWriter(IoStats* stats = nullptr,
                                size_t buffer_bytes = 1 << 20);
  ~SequentialFileWriter();

  SequentialFileWriter(const SequentialFileWriter&) = delete;
  SequentialFileWriter& operator=(const SequentialFileWriter&) = delete;

  /// Creates/truncates `path` for writing.
  Status Open(const std::string& path);

  /// Opens `path` for appending without truncation (the edge-delta logs
  /// grow across update batches). The file must already exist -- appending
  /// to a missing file almost always means a lost header, so it is
  /// reported instead of silently creating a headerless file.
  /// BytesWritten() counts only the bytes appended by this writer.
  Status OpenAppend(const std::string& path);

  /// Appends `n` raw bytes.
  Status Append(const void* data, size_t n);

  /// Appends one little-endian u32.
  Status AppendU32(uint32_t v) { return Append(&v, sizeof(v)); }

  /// Appends one little-endian u64.
  Status AppendU64(uint64_t v) { return Append(&v, sizeof(v)); }

  /// Flushes the user-space buffer to the OS. A failed flush poisons the
  /// writer: the error (with its errno) is latched, and every later
  /// Append/Flush/Sync/Close reports it instead of retrying the write --
  /// re-flushing a partially-accepted buffer would duplicate bytes.
  Status Flush();

  /// Flushes and fsync()s: on return the bytes written so far are durable
  /// (modulo the containing directory entry -- see SyncParentDirectory).
  Status Sync();

  /// Flushes and closes. Safe to call twice. After a failed flush the
  /// original error is returned (never masked by a later close result).
  Status Close();

  /// Bytes appended so far (including buffered, not yet flushed bytes).
  uint64_t BytesWritten() const { return bytes_written_; }

  /// Path passed to Open().
  const std::string& path() const { return path_; }

  /// True if Open() succeeded and Close() has not been called.
  bool IsOpen() const { return file_ != nullptr; }

 private:
  IoStats* stats_;
  std::vector<char> buffer_;
  size_t buffered_ = 0;
  std::unique_ptr<RawFile> file_;
  // First write/sync failure; sticky until Close (see Flush()).
  Status deferred_error_;
  std::string path_;
  uint64_t bytes_written_ = 0;
};

/// Forward-only buffered reader.
class SequentialFileReader {
 public:
  /// `stats` may be null; if set, byte counters are charged to it.
  explicit SequentialFileReader(IoStats* stats = nullptr,
                                size_t buffer_bytes = 1 << 20);
  ~SequentialFileReader();

  SequentialFileReader(const SequentialFileReader&) = delete;
  SequentialFileReader& operator=(const SequentialFileReader&) = delete;

  /// Opens `path` for reading from the beginning.
  Status Open(const std::string& path);

  /// Reads exactly `n` bytes into `out`. Fails with Corruption on a short
  /// read (graph files have self-describing lengths, so EOF mid-record
  /// means a truncated file).
  Status ReadExact(void* out, size_t n);

  /// Reads up to `n` bytes; `*out_n` receives the number actually read
  /// (0 at EOF).
  Status Read(void* out, size_t n, size_t* out_n);

  /// Reads one little-endian u32.
  Status ReadU32(uint32_t* v) { return ReadExact(v, sizeof(*v)); }

  /// Reads one little-endian u64.
  Status ReadU64(uint64_t* v) { return ReadExact(v, sizeof(*v)); }

  /// The bytes already buffered from the read position on, without any
  /// I/O, as u32 words: `*n` bytes start at the returned pointer. Null
  /// with `*n` = 0 when the buffer is drained, an error is latched, or
  /// the position is not on a word boundary (a reader that only moves in
  /// whole words, like every graph file scan, always is). Valid until
  /// the next call that reads, skips, consumes or closes.
  const uint32_t* PeekBuffered(size_t* n) const {
    if (!pending_error_.ok() || buf_pos_ == buf_len_ ||
        buf_pos_ % sizeof(uint32_t) != 0) {
      *n = 0;
      return nullptr;
    }
    *n = buf_len_ - buf_pos_;
    return buffer_.data() + buf_pos_ / sizeof(uint32_t);
  }

  /// Consumes `n` <= the PeekBuffered count bytes, charged to the
  /// counters as one Read of `n` bytes.
  void ConsumeBuffered(size_t n) {
    buf_pos_ += n;
    bytes_read_ += n;
    if (stats_ != nullptr) {
      stats_->bytes_read += n;
      stats_->read_calls++;
    }
  }

  /// Moves `n` bytes forward without delivering them: consumed from the
  /// buffer when they are there, else the buffer is dropped and the file
  /// skips the rest (RawFile::Skip). Skipped bytes are not charged to
  /// IoStats::bytes_read or BytesRead(). Skipping past end of file is
  /// not an error; the next ReadExact then fails with Corruption. A
  /// failed skip latches like a failed fill (see AtEof()).
  Status Skip(uint64_t n);

  /// True when all bytes have been consumed. A read error is NOT end of
  /// file: after one, AtEof() returns false and the next Read/ReadExact/
  /// Close reports the latched error -- a mid-file I/O error must never
  /// be mistaken for clean truncation.
  bool AtEof();

  /// Closes the file. Safe to call twice. Reports a read error latched
  /// by an earlier fill (see AtEof()) if one is still pending.
  Status Close();

  /// Bytes consumed so far.
  uint64_t BytesRead() const { return bytes_read_; }

  /// Path passed to Open().
  const std::string& path() const { return path_; }

 private:
  Status FillBuffer();

  char* buffer_bytes() { return reinterpret_cast<char*>(buffer_.data()); }

  IoStats* stats_;
  // Word storage, so PeekBuffered's callers may read aligned u32 fields
  // in place; buffer_size_ is the byte capacity actually filled.
  std::vector<uint32_t> buffer_;
  size_t buffer_size_ = 0;
  size_t buf_pos_ = 0;
  size_t buf_len_ = 0;
  bool hit_eof_ = false;
  std::unique_ptr<RawFile> file_;
  // First fill failure; sticky so AtEof() cannot read an error as EOF.
  Status pending_error_;
  std::string path_;
  uint64_t bytes_read_ = 0;
};

/// Returns the size of `path` in bytes, or a NotFound/IOError status.
Status GetFileSize(const std::string& path, uint64_t* size);

/// Removes a file if it exists (missing file is not an error).
Status RemoveFileIfExists(const std::string& path);

/// fsync()s an existing file by path (open + fsync + close).
Status SyncFile(const std::string& path);

/// fsync()s the directory containing `path`, making renames/creates/links
/// of entries in it durable. "" and paths without '/' sync ".".
Status SyncParentDirectory(const std::string& path);

/// Creates hard link `dst` referring to `src`'s inode. Fails if `dst`
/// exists. Used by the epoch journal to carry unchanged store files into a
/// new epoch without copying bytes.
Status HardLinkFile(const std::string& src, const std::string& dst);

/// rename(2) with a Status-carrying error message.
Status RenameFile(const std::string& from, const std::string& to);

}  // namespace semis

#endif  // SEMIS_IO_FILE_H_
