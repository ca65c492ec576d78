// Global I/O instrumentation in the spirit of the disk access model the paper
// analyzes under (Aggarwal & Vitter). Every read/write issued through the
// src/io file wrappers is counted and classified as sequential (it starts
// exactly where the previous access on the same file ended) or random.
//
// The benchmark harnesses report these counters next to wall-clock time: on a
// laptop the OS page cache absorbs much of the physical cost of random I/O,
// but the counted block accesses preserve the complexity shape the paper
// reasons about (O(N) random I/Os for top-down insertion vs O(N/B) sequential
// I/Os for bottom-up bulk-loading).
//
// The counters live in the process-wide MetricRegistry ("io.read_ops",
// "io.bytes_written", ...), which is their only API: they appear in every
// exposition dump, and src/io/file.cc records into them. The recording path
// additionally attributes each operation to the active *component scope* on
// the calling thread (IoComponentScope below): "io.query.read_ops",
// "io.sort.bytes_written", and so on. There is deliberately no Reset(): a
// plain-store reset racing a recording silently lost counts — consumers
// take Snapshot() before and after and subtract (IoSnapshot::operator-),
// e.g. IoCounterSet::FromRegistry("io.").Snapshot() for the totals.
#ifndef COCONUT_IO_IO_STATS_H_
#define COCONUT_IO_IO_STATS_H_

#include <cstdint>
#include <string>

#include "src/obs/metrics.h"

namespace coconut {

struct IoSnapshot {
  uint64_t read_ops = 0;
  uint64_t write_ops = 0;
  uint64_t random_read_ops = 0;
  uint64_t random_write_ops = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;

  uint64_t seq_read_ops() const { return read_ops - random_read_ops; }
  uint64_t seq_write_ops() const { return write_ops - random_write_ops; }

  IoSnapshot operator-(const IoSnapshot& other) const {
    IoSnapshot d;
    d.read_ops = read_ops - other.read_ops;
    d.write_ops = write_ops - other.write_ops;
    d.random_read_ops = random_read_ops - other.random_read_ops;
    d.random_write_ops = random_write_ops - other.random_write_ops;
    d.bytes_read = bytes_read - other.bytes_read;
    d.bytes_written = bytes_written - other.bytes_written;
    return d;
  }

  std::string ToString() const;
};

/// The six I/O counters for one attribution bucket (the process total or
/// one named component), registry-backed. Recording is wait-free (striped
/// relaxed counters, see src/obs/metrics.h).
struct IoCounterSet {
  /// The counters registered under `prefix`: "io." for the process
  /// totals, "io.<component>." for one component.
  static IoCounterSet FromRegistry(const std::string& prefix);

  Counter* read_ops;
  Counter* write_ops;
  Counter* random_read_ops;
  Counter* random_write_ops;
  Counter* bytes_read;
  Counter* bytes_written;

  void RecordRead(uint64_t bytes, bool random) const {
    read_ops->Increment();
    bytes_read->Add(bytes);
    if (random) random_read_ops->Increment();
  }
  void RecordWrite(uint64_t bytes, bool random) const {
    write_ops->Increment();
    bytes_written->Add(bytes);
    if (random) random_write_ops->Increment();
  }
  IoSnapshot Snapshot() const {
    IoSnapshot s;
    s.read_ops = read_ops->Value();
    s.write_ops = write_ops->Value();
    s.random_read_ops = random_read_ops->Value();
    s.random_write_ops = random_write_ops->Value();
    s.bytes_read = bytes_read->Value();
    s.bytes_written = bytes_written->Value();
    return s;
  }
};

/// RAII thread-local attribution scope: while alive on this thread, every
/// I/O the thread issues through the src/io wrappers is ALSO counted
/// against `component`. Scopes nest (the inner component wins, the outer is
/// restored on exit). Attribution is per-thread: work a scope fans out to
/// pool threads is only attributed where those threads establish their own
/// scope — place scopes inside the chunk/task bodies, not around the
/// fan-out.
class IoComponentScope {
 public:
  explicit IoComponentScope(const std::string& component);
  ~IoComponentScope();

  /// The innermost active scope's counters on this thread, or null.
  static const IoCounterSet* Current();

  IoComponentScope(const IoComponentScope&) = delete;
  IoComponentScope& operator=(const IoComponentScope&) = delete;

 private:
  const IoCounterSet* prev_;
};

}  // namespace coconut

#endif  // COCONUT_IO_IO_STATS_H_
