#include "src/io/file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "src/common/env.h"
#include "src/common/failpoint.h"
#include "src/io/io_stats.h"
#include "src/io/retry.h"
#include "src/obs/metrics.h"

namespace coconut {

namespace {
std::string ErrnoMessage(const std::string& op, const std::string& path) {
  return op + " " + path + ": " + std::strerror(errno);
}

/// The process-wide I/O totals ("io.*"); a completed read or write also
/// counts against the calling thread's IoComponentScope, if any.
const IoCounterSet& IoTotals() {
  static const IoCounterSet totals = IoCounterSet::FromRegistry("io.");
  return totals;
}
}  // namespace

RandomAccessFile::~RandomAccessFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status RandomAccessFile::Open(const std::string& path,
                              std::unique_ptr<RandomAccessFile>* out) {
  FAILPOINT("io.file.open");
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError(ErrnoMessage("open", path));
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError(ErrnoMessage("fstat", path));
  }
  out->reset(new RandomAccessFile(path, fd, static_cast<uint64_t>(st.st_size)));
  return Status::OK();
}

Status RandomAccessFile::Read(uint64_t offset, size_t n, void* buf) {
  // Classification is best-effort under concurrency: the tracker holds the
  // end offset of whichever read on this handle updated it last.
  const bool random =
      (offset != next_sequential_offset_.load(std::memory_order_relaxed));
  // Positional reads are side-effect free, so a failed attempt (EAGAIN, an
  // injected fault, a transient device error) can simply be reissued from
  // the start; see src/io/retry.h for the taxonomy and backoff bounds.
  RetryState retry("io.file.read");
  for (;;) {
    Status st = [&]() -> Status {
      FAILPOINT_ARG("io.file.read", n);
      uint8_t* dst = static_cast<uint8_t*>(buf);
      size_t remaining = n;
      uint64_t pos = offset;
      while (remaining > 0) {
        ssize_t r = ::pread(fd_, dst, remaining, static_cast<off_t>(pos));
        if (r < 0) {
          if (errno == EINTR) continue;
          return Status::IOError(ErrnoMessage("pread", path_));
        }
        if (r == 0) {
          return Status::IOError("pread " + path_ + ": unexpected EOF");
        }
        dst += r;
        pos += static_cast<uint64_t>(r);
        remaining -= static_cast<size_t>(r);
      }
      return Status::OK();
    }();
    if (st.ok()) {
      retry.NoteSuccess();
      next_sequential_offset_.store(offset + n, std::memory_order_relaxed);
      IoTotals().RecordRead(n, random);
      if (const IoCounterSet* c = IoComponentScope::Current()) {
        c->RecordRead(n, random);
      }
      return st;
    }
    if (!retry.ShouldRetry(st)) return st;
  }
}

WritableFile::~WritableFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status WritableFile::Create(const std::string& path,
                            std::unique_ptr<WritableFile>* out) {
  FAILPOINT("io.file.open");
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IOError(ErrnoMessage("create", path));
  out->reset(new WritableFile(path, fd));
  return Status::OK();
}

Status WritableFile::OpenForAppend(const std::string& path,
                                   std::unique_ptr<WritableFile>* out) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd < 0) return Status::IOError(ErrnoMessage("open-append", path));
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError(ErrnoMessage("fstat", path));
  }
  auto* file = new WritableFile(path, fd);
  file->append_offset_ = static_cast<uint64_t>(st.st_size);
  out->reset(file);
  return Status::OK();
}

Status WritableFile::Append(const void* data, size_t n) {
  COCONUT_RETURN_IF_ERROR(WriteAt(append_offset_, data, n));
  return Status::OK();
}

Status WritableFile::WriteAt(uint64_t offset, const void* data, size_t n) {
  const bool random = (offset != append_offset_);
  // Writes retry only while nothing of this attempt persisted: once a
  // prefix is durable the failure is handed to the commit protocol (which
  // owns torn-write recovery) instead of risking a blind reissue.
  RetryState retry("io.file.write");
  for (;;) {
    size_t persisted = 0;
    Status st = [&]() -> Status {
      // Every write in the process funnels through here, so this one
      // failpoint gives all subsystems injected I/O errors, torn writes (a
      // prefix is persisted, then the write reports failure — a crashed
      // sector), and silent single-bit flips (persisted "successfully" —
      // latent media corruption for the checksum layer to catch).
      Failpoints::WriteFault fault;
      COCONUT_RETURN_IF_ERROR(
          Failpoints::Default().HitWrite("io.file.write", n, &fault));
      const uint8_t* src = static_cast<const uint8_t*>(data);
      std::vector<uint8_t> flipped;
      if (fault.bit_flip && n > 0) {
        flipped.assign(src, src + n);
        flipped[fault.flip_index / 8] ^=
            static_cast<uint8_t>(1u << (fault.flip_index % 8));
        src = flipped.data();
      }
      const size_t target = fault.torn ? fault.torn_bytes : n;
      size_t remaining = target;
      uint64_t pos = offset;
      while (remaining > 0) {
        ssize_t w = ::pwrite(fd_, src, remaining, static_cast<off_t>(pos));
        if (w < 0) {
          if (errno == EINTR) continue;
          return Status::IOError(ErrnoMessage("pwrite", path_));
        }
        src += w;
        pos += static_cast<uint64_t>(w);
        remaining -= static_cast<size_t>(w);
        persisted += static_cast<size_t>(w);
      }
      if (fault.torn) {
        if (offset + target > append_offset_) {
          append_offset_ = offset + target;
        }
        return Status::IOError("failpoint: io.file.write (torn after " +
                               std::to_string(target) + " of " +
                               std::to_string(n) + " bytes to " + path_ +
                               ")");
      }
      return Status::OK();
    }();
    if (st.ok()) {
      retry.NoteSuccess();
      if (offset + n > append_offset_) append_offset_ = offset + n;
      IoTotals().RecordWrite(n, random);
      if (const IoCounterSet* c = IoComponentScope::Current()) {
        c->RecordWrite(n, random);
      }
      return st;
    }
    if (persisted > 0 || !retry.ShouldRetry(st)) return st;
  }
}

Status WritableFile::Sync() {
  FAILPOINT("io.file.sync");
  // Without the opt-in, Sync marks where the durability barriers belong but
  // issues nothing — real fdatasync would dominate laptop-scale benches and
  // durability is not among the reproduced claims (src/store/README.md,
  // "Durability scope").
  if (!SyncOnCommitEnabled()) return Status::OK();
  if (::fdatasync(fd_) != 0) {
    return Status::IOError(ErrnoMessage("fdatasync", path_));
  }
  static Counter* syncs =
      MetricRegistry::Default().GetCounter("io.sync.fdatasync");
  syncs->Increment();
  return Status::OK();
}

Status WritableFile::Close() {
  if (fd_ >= 0) {
    if (::close(fd_) != 0) {
      fd_ = -1;
      return Status::IOError(ErrnoMessage("close", path_));
    }
    fd_ = -1;
  }
  return Status::OK();
}

}  // namespace coconut
