// Raw dataset files: headerless binary float32 arrays, the same on-disk
// convention the original ADS/Coconut tooling uses. A dataset of N series of
// length n is exactly N*n*4 bytes; the "position" stored in index entries is
// the byte offset of the series in this file (paper Algorithm 2, line 3).
#ifndef COCONUT_SERIES_DATASET_H_
#define COCONUT_SERIES_DATASET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/io/buffered_io.h"
#include "src/io/file.h"
#include "src/series/generator.h"
#include "src/series/series.h"

namespace coconut {

/// Writes `count` series from `gen` to a raw dataset file at `path`.
Status WriteDataset(const std::string& path, SeriesGenerator* gen,
                    size_t count);

/// Appends `series` (each of length `length`) to an existing dataset file.
Status AppendToDataset(const std::string& path,
                       const std::vector<Series>& batch);

/// Read-side handle over a raw dataset file.
class RawSeriesFile {
 public:
  /// Opens `path`; `length` is the series length (not stored in the file).
  static Status Open(const std::string& path, size_t length,
                     std::unique_ptr<RawSeriesFile>* out);

  /// Number of series in the file.
  uint64_t count() const { return count_; }
  size_t length() const { return length_; }
  size_t series_bytes() const { return length_ * sizeof(Value); }
  const std::string& path() const { return file_->path(); }
  uint64_t size_bytes() const { return file_->size(); }

  /// Reads the series starting at byte `offset` into `out` (length() floats).
  Status ReadAt(uint64_t offset, Value* out);

  /// Reads series number `index` (0-based).
  Status ReadIndex(uint64_t index, Value* out) {
    return ReadAt(index * series_bytes(), out);
  }

  /// Reads the `n` series starting at number `first` into `out`
  /// (n * length() floats) with one positional read.
  Status ReadRange(uint64_t first, uint64_t n, Value* out);

  /// Loads the whole file into memory (used when the memory budget allows
  /// caching the raw data, e.g. Coconut-Trie-Full materialization with ample
  /// memory). Fails if the file does not fit in `budget_bytes`.
  Status LoadAll(size_t budget_bytes, std::vector<Value>* out);

 private:
  RawSeriesFile(std::unique_ptr<RandomAccessFile> file, size_t length,
                uint64_t count)
      : file_(std::move(file)), length_(length), count_(count) {}

  std::unique_ptr<RandomAccessFile> file_;
  size_t length_;
  uint64_t count_;
};

/// Sequential scanner over a raw dataset file (one pass, buffered I/O).
class DatasetScanner {
 public:
  Status Open(const std::string& path, size_t length);

  /// Reads the next series into `out`; returns false at end of file.
  bool Next(Value* out, Status* status);

  uint64_t count() const { return count_; }
  uint64_t position() const { return next_index_; }

 private:
  BufferedReader reader_;
  size_t length_ = 0;
  uint64_t count_ = 0;
  uint64_t next_index_ = 0;
};

}  // namespace coconut

#endif  // COCONUT_SERIES_DATASET_H_
