#include "src/summary/sax.h"

#include "src/common/zkey.h"
#include "src/summary/breakpoints.h"
#include "src/summary/paa.h"

namespace coconut {

void SaxFromPaa(const double* paa, const SummaryOptions& opts, uint8_t* out) {
  SaxBreakpoints::Get().Symbols(opts.cardinality_bits, paa, opts.segments,
                                out);
}

void SaxFromSeries(const Value* series, const SummaryOptions& opts,
                   uint8_t* out) {
  // Every segment holds at least one key bit, so a key bounds the segments.
  double paa[ZKey::kBits];
  PaaTransform(series, opts.series_length, opts.segments, paa);
  SaxFromPaa(paa, opts, out);
}

}  // namespace coconut
