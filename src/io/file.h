// Instrumented POSIX file wrappers. All index and dataset I/O in the library
// goes through these classes so that the registry's io.* counters reflect
// every block access (see io_stats.h).
#ifndef COCONUT_IO_FILE_H_
#define COCONUT_IO_FILE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "src/common/status.h"

namespace coconut {

/// Read-only file with positional reads. Reads are classified as sequential
/// when they start exactly at the end of the previous read on this handle.
/// Read is safe to call from multiple threads concurrently (pread-based; the
/// sequentiality tracker is atomic).
class RandomAccessFile {
 public:
  ~RandomAccessFile();

  RandomAccessFile(const RandomAccessFile&) = delete;
  RandomAccessFile& operator=(const RandomAccessFile&) = delete;

  /// Opens `path` for reading.
  static Status Open(const std::string& path,
                     std::unique_ptr<RandomAccessFile>* out);

  /// Reads exactly `n` bytes at `offset` into `buf`. Fails with IOError on
  /// short reads (EOF before n bytes).
  Status Read(uint64_t offset, size_t n, void* buf);

  uint64_t size() const { return size_; }
  const std::string& path() const { return path_; }

 private:
  RandomAccessFile(std::string path, int fd, uint64_t size)
      : path_(std::move(path)), fd_(fd), size_(size) {}

  std::string path_;
  int fd_;
  uint64_t size_;
  std::atomic<uint64_t> next_sequential_offset_{0};
};

/// Append-oriented writable file with optional positional overwrite (used for
/// fixing up headers after bulk-loading). Appends are sequential; positional
/// writes elsewhere count as random.
class WritableFile {
 public:
  ~WritableFile();

  WritableFile(const WritableFile&) = delete;
  WritableFile& operator=(const WritableFile&) = delete;

  /// Creates (truncating) `path` for writing.
  static Status Create(const std::string& path,
                       std::unique_ptr<WritableFile>* out);

  /// Opens an existing (or new) `path` positioned for appending at its
  /// current end.
  static Status OpenForAppend(const std::string& path,
                              std::unique_ptr<WritableFile>* out);

  /// Appends `n` bytes at the current end of file.
  Status Append(const void* data, size_t n);

  /// Writes `n` bytes at an explicit `offset` (counts as random unless the
  /// offset happens to be the current append position).
  Status WriteAt(uint64_t offset, const void* data, size_t n);

  /// Durability barrier. By default flushes to the OS only (no fsync); with
  /// the opt-in (COCONUT_SYNC=1 / SetSyncOnCommit) it issues a real
  /// fdatasync. See src/store/README.md, "Durability scope".
  Status Sync();

  Status Close();

  uint64_t size() const { return append_offset_; }
  const std::string& path() const { return path_; }

 private:
  WritableFile(std::string path, int fd)
      : path_(std::move(path)), fd_(fd) {}

  std::string path_;
  int fd_;
  uint64_t append_offset_ = 0;
};

}  // namespace coconut

#endif  // COCONUT_IO_FILE_H_
