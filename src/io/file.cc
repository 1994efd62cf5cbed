#include "io/file.h"

#include <cstring>
#include <utility>

#include "io/env.h"

namespace semis {

// ---------------------------------------------------------------- writer --

SequentialFileWriter::SequentialFileWriter(IoStats* stats, size_t buffer_bytes)
    : stats_(stats),
      buffer_(std::make_unique_for_overwrite<char[]>(buffer_bytes)),
      buffer_size_(buffer_bytes) {}

SequentialFileWriter::~SequentialFileWriter() { Close().IgnoreError(); }

Status SequentialFileWriter::Open(const std::string& path) {
  if (file_ != nullptr) return Status::InvalidArgument("writer already open");
  // Open is a sound retry site: nothing has been written yet, so a second
  // attempt cannot duplicate or reorder bytes.
  SEMIS_RETURN_IF_ERROR(RetryIo(
      stats_, [&] { return GetFileSystem()->NewWritableFile(path, &file_); }));
  path_ = path;
  buffered_ = 0;
  bytes_written_ = 0;
  deferred_error_ = Status::OK();
  if (stats_ != nullptr) stats_->files_opened++;
  return Status::OK();
}

Status SequentialFileWriter::OpenAppend(const std::string& path) {
  if (file_ != nullptr) return Status::InvalidArgument("writer already open");
  SEMIS_RETURN_IF_ERROR(RetryIo(stats_, [&] {
    return GetFileSystem()->NewAppendableFile(path, &file_);
  }));
  path_ = path;
  buffered_ = 0;
  bytes_written_ = 0;
  deferred_error_ = Status::OK();
  if (stats_ != nullptr) stats_->files_opened++;
  return Status::OK();
}

Status SequentialFileWriter::Append(const void* data, size_t n) {
  if (file_ == nullptr) return Status::InvalidArgument("writer not open");
  if (!deferred_error_.ok()) return deferred_error_;
  const char* src = static_cast<const char*>(data);
  bytes_written_ += n;
  if (stats_ != nullptr) {
    stats_->bytes_written += n;
    stats_->write_calls++;
  }
  while (n > 0) {
    size_t space = buffer_size_ - buffered_;
    if (space == 0) {
      SEMIS_RETURN_IF_ERROR(Flush());
      space = buffer_size_;
    }
    size_t chunk = n < space ? n : space;
    std::memcpy(buffer_.get() + buffered_, src, chunk);
    buffered_ += chunk;
    src += chunk;
    n -= chunk;
  }
  return Status::OK();
}

Status SequentialFileWriter::Flush() {
  if (file_ == nullptr) return Status::InvalidArgument("writer not open");
  if (!deferred_error_.ok()) return deferred_error_;
  if (buffered_ > 0) {
    Status s = file_->Write(buffer_.get(), buffered_);
    if (!s.ok()) {
      // Poison the writer: the kernel may have accepted part of the
      // buffer, so re-flushing would duplicate bytes. The error (which
      // carries strerror(errno) -- e.g. "No space left on device" -- from
      // the FileSystem layer) is what every later call reports.
      deferred_error_ = s;
      return s;
    }
    buffered_ = 0;
  }
  return Status::OK();
}

Status SequentialFileWriter::Sync() {
  SEMIS_RETURN_IF_ERROR(Flush());
  // fsync is a sound retry site: it transfers no new bytes, only asks the
  // kernel again for durability of what was already written.
  Status s = RetryIo(stats_, [&] { return file_->Sync(); });
  if (!s.ok()) {
    // A failed fsync leaves the page-cache state undefined (the kernel
    // may have dropped the dirty pages): poison the writer.
    deferred_error_ = s;
  }
  return s;
}

Status SequentialFileWriter::StartWriteback() {
  SEMIS_RETURN_IF_ERROR(Flush());
  file_->StartWriteback();
  return Status::OK();
}

Status SequentialFileWriter::Close() {
  if (file_ == nullptr) return Status::OK();
  Status s = Flush();  // reports the deferred error, never re-writes
  Status close_status = file_->Close();
  if (!close_status.ok() && s.ok()) s = close_status;
  file_.reset();
  return s;
}

// ---------------------------------------------------------------- reader --

SequentialFileReader::SequentialFileReader(IoStats* stats, size_t buffer_bytes)
    : stats_(stats),
      buffer_(std::make_unique_for_overwrite<uint32_t[]>(
          (buffer_bytes + sizeof(uint32_t) - 1) / sizeof(uint32_t))),
      buffer_size_(buffer_bytes) {}

SequentialFileReader::~SequentialFileReader() { Close().IgnoreError(); }

Status SequentialFileReader::Open(const std::string& path) {
  if (file_ != nullptr) return Status::InvalidArgument("reader already open");
  SEMIS_RETURN_IF_ERROR(RetryIo(
      stats_, [&] { return GetFileSystem()->NewReadableFile(path, &file_); }));
  path_ = path;
  buf_pos_ = buf_len_ = 0;
  hit_eof_ = false;
  pending_error_ = Status::OK();
  bytes_read_ = 0;
  if (stats_ != nullptr) stats_->files_opened++;
  return Status::OK();
}

Status SequentialFileReader::FillBuffer() {
  buf_pos_ = 0;
  buf_len_ = 0;
  Status s = file_->Read(buffer_bytes(), buffer_size_, &buf_len_);
  if (!s.ok()) {
    // Latch: a failed fill must keep failing. Without this, a caller
    // probing AtEof() after the error would see an empty buffer and
    // conclude "clean end of file" -- silently truncated data.
    pending_error_ = s;
    buf_len_ = 0;
    return s;
  }
  // RawFile::Read is short only at end of file.
  if (buf_len_ < buffer_size_) hit_eof_ = true;
  return Status::OK();
}

Status SequentialFileReader::Read(void* out, size_t n, size_t* out_n) {
  if (file_ == nullptr) return Status::InvalidArgument("reader not open");
  if (!pending_error_.ok()) {
    *out_n = 0;
    return pending_error_;
  }
  char* dst = static_cast<char*>(out);
  size_t got = 0;
  while (n > 0) {
    if (buf_pos_ == buf_len_) {
      if (hit_eof_) break;
      Status s = FillBuffer();
      if (!s.ok()) {
        // Report how many bytes were delivered before the error; the
        // count must never be stale caller memory.
        *out_n = got;
        return s;
      }
      if (buf_len_ == 0) break;
    }
    size_t avail = buf_len_ - buf_pos_;
    size_t chunk = n < avail ? n : avail;
    std::memcpy(dst, buffer_bytes() + buf_pos_, chunk);
    buf_pos_ += chunk;
    dst += chunk;
    got += chunk;
    n -= chunk;
  }
  bytes_read_ += got;
  if (stats_ != nullptr) {
    stats_->bytes_read += got;
    stats_->read_calls++;
  }
  *out_n = got;
  return Status::OK();
}

Status SequentialFileReader::ReadExact(void* out, size_t n) {
  size_t got = 0;
  SEMIS_RETURN_IF_ERROR(Read(out, n, &got));
  if (got != n) {
    return Status::Corruption("unexpected EOF in '" + path_ + "' (wanted " +
                              std::to_string(n) + " bytes, got " +
                              std::to_string(got) + ")");
  }
  return Status::OK();
}

Status SequentialFileReader::Skip(uint64_t n) {
  if (file_ == nullptr) return Status::InvalidArgument("reader not open");
  if (!pending_error_.ok()) return pending_error_;
  const size_t avail = buf_len_ - buf_pos_;
  if (n <= avail) {
    buf_pos_ += static_cast<size_t>(n);
    return Status::OK();
  }
  n -= avail;
  buf_pos_ = buf_len_ = 0;
  // The file's position already sits at its end: nothing left to skip.
  if (hit_eof_) return Status::OK();
  Status s = file_->Skip(n);
  // Latch, as FillBuffer does: the position is unknown after a failed
  // skip, so no later read may pretend to continue from it.
  if (!s.ok()) pending_error_ = s;
  return s;
}

bool SequentialFileReader::AtEof() {
  if (file_ == nullptr) return true;
  // An I/O error is not end of file: report "more to read" so the caller's
  // next Read surfaces the latched error instead of stopping cleanly.
  if (!pending_error_.ok()) return false;
  if (buf_pos_ < buf_len_) return false;
  if (hit_eof_) return true;
  // Peek one buffer ahead (a failed peek latches pending_error_).
  if (!FillBuffer().ok()) return false;
  return buf_len_ == 0;
}

Status SequentialFileReader::Close() {
  if (file_ == nullptr) return Status::OK();
  Status s = std::move(pending_error_);
  pending_error_ = Status::OK();
  Status close_status = file_->Close();
  if (!close_status.ok() && s.ok()) s = close_status;
  file_.reset();
  return s;
}

// --------------------------------------------------------------- helpers --

Status GetFileSize(const std::string& path, uint64_t* size) {
  return GetFileSystem()->GetFileSize(path, size);
}

Status RemoveFileIfExists(const std::string& path) {
  Status s = GetFileSystem()->RemoveFile(path);
  if (s.IsNotFound()) return Status::OK();
  return s;
}

Status SyncFile(const std::string& path) {
  // fsync-by-path retry: re-opening and re-syncing transfers no data.
  return RetryIo(nullptr,
                 [&] { return GetFileSystem()->SyncFile(path); });
}

Status SyncParentDirectory(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  return RetryIo(nullptr,
                 [&] { return GetFileSystem()->SyncDirectory(dir); });
}

Status HardLinkFile(const std::string& src, const std::string& dst) {
  return GetFileSystem()->HardLinkFile(src, dst);
}

Status RenameFile(const std::string& from, const std::string& to) {
  return GetFileSystem()->RenameFile(from, to);
}

}  // namespace semis
