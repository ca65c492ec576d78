// invSAX — the paper's sortable summarization (§4.1, Algorithm 1).
//
// The bits of the per-segment SAX symbols are interleaved so that all more
// significant bits across all segments precede all less significant bits,
// while preserving segment order within each bit level:
//
//   key bit (i * w + j)  =  bit (b-1-i) of symbol j,
//
// for bit level i in [0, b) and segment j in [0, w). This places the series
// on a z-order space-filling curve: lexicographic order on the interleaved
// key keeps series that are similar across *all* segments adjacent, which is
// what makes external-sort-based bulk-loading possible.
//
// The transform is a bijection: no information is lost relative to the
// original SAX word, so pruning power is unchanged (paper §4.1).
//
// Both directions work on bit planes of 8 segments at a time, with no
// data-dependent branch. Interleaving loads 8 symbols as the bytes of a
// word x; for each level, ((x >> sym_bit) & 0x0101..01) * 0x8040201008040201
// gathers that bit of all 8 symbols into the top byte (segment j0 as its
// MSB), which is ORed into the key at bit (level * w + j0). De-interleaving
// reads those 8 key bits back and spreads them to the 8 symbol bytes through
// a 256-entry table. Any (w, b) that fits the key works: a group of fewer
// than 8 segments carries zero bytes, and a byte that crosses a 64-bit word
// is split across the two words.
#ifndef COCONUT_SUMMARY_INVSAX_H_
#define COCONUT_SUMMARY_INVSAX_H_

#include <cstdint>

#include "src/common/zkey.h"
#include "src/series/series.h"
#include "src/summary/options.h"

namespace coconut {

/// Interleaves a SAX word (`opts.segments` bytes, `opts.cardinality_bits`
/// significant bits each) into a sortable z-order key. Unused low-order key
/// bits are zero.
ZKey InvSaxFromSax(const uint8_t* sax, const SummaryOptions& opts);

/// Inverse of InvSaxFromSax: recovers the SAX word from the key.
void SaxFromInvSax(const ZKey& key, const SummaryOptions& opts, uint8_t* out);

/// One-shot helper: raw series -> invSAX key. `opts` must pass Validate().
ZKey InvSaxFromSeries(const Value* series, const SummaryOptions& opts);

}  // namespace coconut

#endif  // COCONUT_SUMMARY_INVSAX_H_
