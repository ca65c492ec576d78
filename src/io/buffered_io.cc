#include "src/io/buffered_io.h"

#include <algorithm>
#include <cstring>

#include "src/exec/thread_pool.h"
#include "src/obs/stage.h"

namespace coconut {

BufferedWriter::~BufferedWriter() {
  // A queued-but-unstarted flush would touch freed buffers when it finally
  // runs; claim-or-wait retires it before members go away.
  (void)WaitAsyncFlush();
}

Status BufferedWriter::Open(const std::string& path) {
  buffer_.reserve(capacity_);
  return WritableFile::Create(path, &file_);
}

Status BufferedWriter::Write(const void* data, size_t n) {
  const uint8_t* src = static_cast<const uint8_t*>(data);
  while (n > 0) {
    const size_t room = capacity_ - buffer_.size();
    const size_t take = std::min(room, n);
    buffer_.insert(buffer_.end(), src, src + take);
    src += take;
    n -= take;
    if (buffer_.size() == capacity_) {
      COCONUT_RETURN_IF_ERROR(FlushBuffer());
    }
  }
  return Status::OK();
}

Status BufferedWriter::WaitAsyncFlush() {
  if (flush_task_ == nullptr) return Status::OK();
  flush_task_->Wait();
  flush_task_.reset();
  return flush_status_;
}

Status BufferedWriter::FlushBuffer() {
  if (buffer_.empty()) return WaitAsyncFlush();
  if (pool_ == nullptr) {
    COCONUT_RETURN_IF_ERROR(file_->Append(buffer_.data(), buffer_.size()));
    bytes_written_ += buffer_.size();
    buffer_.clear();
    return Status::OK();
  }
  // One append in flight: join the previous block, swap the filled buffer
  // into its place, and hand it to the pool. Appends therefore stay ordered.
  COCONUT_RETURN_IF_ERROR(WaitAsyncFlush());
  buffer_.swap(flush_buffer_);
  buffer_.clear();
  buffer_.reserve(capacity_);
  bytes_written_ += flush_buffer_.size();
  flush_task_ = std::make_shared<OneShotTask>([this]() {
    Stage stage("io.async_flush", "io");
    flush_status_ = file_->Append(flush_buffer_.data(), flush_buffer_.size());
  });
  OneShotTask::Schedule(pool_, flush_task_);
  return Status::OK();
}

Status BufferedWriter::Finish() {
  COCONUT_RETURN_IF_ERROR(FlushBuffer());
  COCONUT_RETURN_IF_ERROR(WaitAsyncFlush());
  return file_->Close();
}

BufferedReader::~BufferedReader() { DrainPrefetch(); }

Status BufferedReader::Open(const std::string& path) {
  DrainPrefetch();
  buffer_.resize(capacity_);
  buffer_pos_ = buffer_len_ = 0;
  position_ = buffer_start_ = 0;
  COCONUT_RETURN_IF_ERROR(RandomAccessFile::Open(path, &file_));
  limit_ = file_->size();
  return Status::OK();
}

void BufferedReader::DrainPrefetch() {
  if (prefetch_task_ == nullptr) return;
  prefetch_task_->Wait();
  prefetch_task_.reset();
}

void BufferedReader::SchedulePrefetch() {
  const uint64_t off = buffer_start_ + buffer_len_;
  if (pool_ == nullptr || off >= limit_) return;
  next_buffer_.resize(capacity_);
  prefetch_offset_ = off;
  prefetch_len_ =
      static_cast<size_t>(std::min<uint64_t>(limit_ - off, capacity_));
  prefetch_task_ = std::make_shared<OneShotTask>([this]() {
    Stage stage("io.prefetch", "io");
    prefetch_status_ =
        file_->Read(prefetch_offset_, prefetch_len_, next_buffer_.data());
  });
  OneShotTask::Schedule(pool_, prefetch_task_);
}

Status BufferedReader::Refill() {
  if (prefetch_task_ != nullptr) {
    prefetch_task_->Wait();
    prefetch_task_.reset();
    if (prefetch_offset_ == position_) {
      // The common sequential case: adopt the prefetched block.
      COCONUT_RETURN_IF_ERROR(prefetch_status_);
      buffer_.swap(next_buffer_);
      buffer_start_ = prefetch_offset_;
      buffer_pos_ = 0;
      buffer_len_ = prefetch_len_;
      SchedulePrefetch();
      return Status::OK();
    }
    // A Skip moved past the prefetched block; fall through to a plain read
    // (the prefetch result, good or bad, is irrelevant now).
  }
  buffer_start_ = position_;
  const uint64_t remaining =
      limit_ > position_ ? limit_ - position_ : 0;
  const size_t n = static_cast<size_t>(
      std::min<uint64_t>(remaining, capacity_));
  if (n == 0) {
    return Status::IOError("read past EOF in " + file_->path());
  }
  COCONUT_RETURN_IF_ERROR(file_->Read(buffer_start_, n, buffer_.data()));
  buffer_pos_ = 0;
  buffer_len_ = n;
  SchedulePrefetch();
  return Status::OK();
}

Status BufferedReader::Read(void* out, size_t n) {
  uint8_t* dst = static_cast<uint8_t*>(out);
  while (n > 0) {
    if (buffer_pos_ == buffer_len_) {
      COCONUT_RETURN_IF_ERROR(Refill());
    }
    const size_t take = std::min(n, buffer_len_ - buffer_pos_);
    std::memcpy(dst, buffer_.data() + buffer_pos_, take);
    dst += take;
    buffer_pos_ += take;
    position_ += take;
    n -= take;
  }
  return Status::OK();
}

Status BufferedReader::Skip(uint64_t n) {
  while (n > 0) {
    if (buffer_pos_ < buffer_len_) {
      const uint64_t in_buffer = buffer_len_ - buffer_pos_;
      const uint64_t take = std::min(in_buffer, n);
      buffer_pos_ += static_cast<size_t>(take);
      position_ += take;
      n -= take;
      continue;
    }
    // Skip whole buffers without reading them.
    if (position_ + n > file_size()) {
      return Status::IOError("skip past EOF in " + file_->path());
    }
    position_ += n;
    buffer_pos_ = buffer_len_ = 0;
    n = 0;
  }
  return Status::OK();
}

}  // namespace coconut
