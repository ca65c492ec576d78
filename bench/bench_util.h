// Shared helpers for the per-figure benchmark harnesses. Every harness runs
// with no arguments at laptop scale; set COCONUT_BENCH_SCALE=k to multiply
// dataset sizes by k (e.g. 10 for a longer, closer-to-paper run).
#ifndef COCONUT_BENCH_BENCH_UTIL_H_
#define COCONUT_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/env.h"
#include "src/common/status.h"
#include "src/common/timer.h"
#include "src/io/io_stats.h"
#include "src/series/dataset.h"
#include "src/series/generator.h"
#include "src/series/series.h"

namespace coconut {
namespace bench {

/// Scale factor from COCONUT_BENCH_SCALE (default 1).
size_t Scale();

/// Crashes with a message if `status` is not OK (benches have no recovery
/// path; a failed phase invalidates the numbers).
void CheckOk(const Status& status, const char* what);

/// RAII scratch directory under the system temp root.
class BenchDir {
 public:
  BenchDir();
  ~BenchDir();
  const std::string& path() const { return path_; }
  std::string File(const std::string& name) const {
    return JoinPath(path_, name);
  }

 private:
  std::string path_;
};

/// Generates (once) a dataset file and returns its path.
std::string PrepareDataset(const BenchDir& dir, DatasetKind kind, size_t count,
                           size_t length, uint64_t seed,
                           const std::string& name);

/// Generates `count` query series from the same family.
std::vector<Series> MakeQueries(DatasetKind kind, size_t count, size_t length,
                                uint64_t seed);

/// Measured phase: wall time plus the I/O counter delta.
class Measured {
 public:
  Measured() : before_(IoCounterSet::FromRegistry("io.").Snapshot()) {}

  double seconds() const { return watch_.ElapsedSeconds(); }
  IoSnapshot io() const { return IoCounterSet::FromRegistry("io.").Snapshot() - before_; }

 private:
  Stopwatch watch_;
  IoSnapshot before_;
};

/// Prints a table header / row with '|' separators (fixed-ish widths keep
/// the output aligned well enough for terminals and logs).
void PrintHeader(const std::vector<std::string>& columns);
void PrintRow(const std::vector<std::string>& cells);

/// Formats helpers.
std::string FmtSeconds(double s);
std::string FmtMb(uint64_t bytes);
std::string FmtCount(uint64_t n);
std::string FmtDouble(double v, int precision = 3);

/// Prints the standard harness banner (figure id + configuration).
void Banner(const std::string& figure, const std::string& description);

}  // namespace bench
}  // namespace coconut

#endif  // COCONUT_BENCH_BENCH_UTIL_H_
