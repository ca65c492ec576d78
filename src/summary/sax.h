// SAX words: one discretized symbol per PAA segment (paper §2, Figure 1).
// A word is stored as one byte per segment at the maximum cardinality
// (cardinality_bits); iSAX's lower-cardinality symbols are prefixes of these
// bytes (see isax.h).
#ifndef COCONUT_SUMMARY_SAX_H_
#define COCONUT_SUMMARY_SAX_H_

#include <cstdint>
#include <vector>

#include "src/series/series.h"
#include "src/summary/options.h"

namespace coconut {

/// A SAX word at full cardinality: `segments` symbols, one byte each.
using SaxWord = std::vector<uint8_t>;

/// Discretizes PAA coefficients into SAX symbols at cardinality
/// 2^cardinality_bits.
void SaxFromPaa(const double* paa, const SummaryOptions& opts, uint8_t* out);

/// One-shot helper: raw series -> SAX word (computes PAA internally).
/// `opts` must pass Validate().
void SaxFromSeries(const Value* series, const SummaryOptions& opts,
                   uint8_t* out);

}  // namespace coconut

#endif  // COCONUT_SUMMARY_SAX_H_
