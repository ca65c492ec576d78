// RAII stage timer: measures a scope's wall time in nanoseconds and records
// it into a latency Histogram on destruction. A nullptr histogram costs two
// branch instructions total, so call sites can keep one code path whether
// the metric is wired or not.
#ifndef COCONUT_OBS_STAGE_TIMER_H_
#define COCONUT_OBS_STAGE_TIMER_H_

#include <cstdint>

#include "src/common/timer.h"
#include "src/obs/metrics.h"

namespace coconut {

/// Records the scope's duration into a latency histogram.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* hist) : hist_(hist) {}
  ~ScopedTimer() {
    if (hist_ != nullptr) hist_->Record(watch_.ElapsedNanos());
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  uint64_t ElapsedNanos() const { return watch_.ElapsedNanos(); }

 private:
  Histogram* hist_;
  Stopwatch watch_;
};

}  // namespace coconut

#endif  // COCONUT_OBS_STAGE_TIMER_H_
