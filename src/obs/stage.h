// RAII instrumented stage: one clock pair per scope, written to every sink
// the stage was given — a latency Histogram, a QueryTrace field, and a span
// in the default tracer when tracing was on at open. Because all three take
// the same duration, a stage name means one measured interval whether it is
// read from /metrics, /queryz or a /tracez capture.
//
// Cost: with no sinks and tracing off, a Stage is one relaxed load and a
// branch, and reads no clock; otherwise it reads Tracer::NowNanos() once at
// open and once at close.
#ifndef COCONUT_OBS_STAGE_H_
#define COCONUT_OBS_STAGE_H_

#include <cstdint>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace coconut {

class Stage {
 public:
  /// `name` and `cat` must be string literals (the trace ring stores the
  /// pointers). `hist` receives one Record(ns); `field` (typically a
  /// QueryTrace member) is incremented by ns. Either may be null.
  Stage(const char* name, const char* cat, Histogram* hist = nullptr,
        uint64_t* field = nullptr)
      : name_(name),
        cat_(cat),
        hist_(hist),
        field_(field),
        traced_(Tracer::Enabled()),
        start_ns_(traced_ || hist != nullptr || field != nullptr
                      ? Tracer::NowNanos()
                      : kUntimed) {}

  ~Stage() {
    if (start_ns_ == kUntimed) return;
    const uint64_t end_ns = Tracer::NowNanos();
    const uint64_t ns = end_ns - start_ns_;
    if (hist_ != nullptr) hist_->Record(ns);
    if (field_ != nullptr) *field_ += ns;
    if (traced_) {
      Tracer::Default().RecordComplete(name_, cat_, start_ns_, end_ns);
    }
  }

  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  /// Whether the stage read the clock at open (some sink will receive it).
  bool timed() const { return start_ns_ != kUntimed; }

 private:
  static constexpr uint64_t kUntimed = ~uint64_t{0};
  const char* name_;
  const char* cat_;
  Histogram* hist_;
  uint64_t* field_;
  bool traced_;
  uint64_t start_ns_;
};

}  // namespace coconut

#endif  // COCONUT_OBS_STAGE_H_
