// Status: lightweight error propagation without exceptions, in the style of
// LevelDB/RocksDB. All fallible operations in the library return a Status (or
// fill an output parameter and return a Status).
#ifndef COCONUT_COMMON_STATUS_H_
#define COCONUT_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace coconut {

/// \brief Result of a fallible operation.
///
/// A Status is cheap to copy in the OK case (no allocation). Error statuses
/// carry a code and a human-readable message.
class Status {
 public:
  enum class Code : unsigned char {
    kOk = 0,
    kNotFound = 1,
    kCorruption = 2,
    kNotSupported = 3,
    kInvalidArgument = 4,
    kIOError = 5,
    kInternal = 6,
    kDeadlineExceeded = 7,
    kResourceExhausted = 8,
    kAborted = 9,
  };

  Status() : code_(Code::kOk) {}

  /// Returns an OK status (no error).
  static Status OK() { return Status(); }

  static Status NotFound(std::string msg) {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(Code::kCorruption, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(Code::kNotSupported, std::move(msg));
  }
  static Status InvalidArgument(std::string msg) {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(Code::kIOError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(Code::kInternal, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(Code::kDeadlineExceeded, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(Code::kResourceExhausted, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(Code::kAborted, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }
  bool IsNotSupported() const { return code_ == Code::kNotSupported; }
  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsIOError() const { return code_ == Code::kIOError; }
  bool IsInternal() const { return code_ == Code::kInternal; }
  bool IsDeadlineExceeded() const {
    return code_ == Code::kDeadlineExceeded;
  }
  bool IsResourceExhausted() const {
    return code_ == Code::kResourceExhausted;
  }
  bool IsAborted() const { return code_ == Code::kAborted; }

  /// True when the failure is a load/timing condition that can succeed on a
  /// plain retry: the operation was shed (kResourceExhausted) or gave up a
  /// lock/epoch without side effects (kAborted). DeadlineExceeded is NOT
  /// transient — the caller's time budget is gone, retrying inside the same
  /// request only makes the overrun worse. Data errors (Corruption, IOError,
  /// InvalidArgument, ...) are never transient at this level; syscall-level
  /// transience (EINTR/EAGAIN) is classified by errno in src/io/retry.h
  /// before it ever becomes a Status.
  bool IsTransient() const {
    return code_ == Code::kResourceExhausted || code_ == Code::kAborted;
  }

  /// The same failure with `prefix` in front of its message (say,
  /// "shard 3: "), so a caller can say where it happened without changing
  /// what kind of failure it is. OK stays OK.
  Status WithPrefix(const std::string& prefix) const {
    if (ok()) return *this;
    return Status(code_, prefix + msg_);
  }

  Code code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// Renders "OK" or "<code>: <message>" for logs and test failures.
  std::string ToString() const;

 private:
  Status(Code code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  Code code_;
  std::string msg_;
};

/// Propagates a non-OK status to the caller.
#define COCONUT_RETURN_IF_ERROR(expr)            \
  do {                                           \
    ::coconut::Status _st = (expr);              \
    if (!_st.ok()) return _st;                   \
  } while (false)

}  // namespace coconut

#endif  // COCONUT_COMMON_STATUS_H_
