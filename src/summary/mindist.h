// Lower-bound distance functions ("MINDIST") between a query and
// summarizations. All functions return SQUARED distances and satisfy the
// lower-bounding lemma: mindist_sq <= true squared Euclidean distance between
// the raw series, which is what makes index pruning exact.
#ifndef COCONUT_SUMMARY_MINDIST_H_
#define COCONUT_SUMMARY_MINDIST_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/summary/options.h"

namespace coconut {

/// PAA-to-PAA lower bound (Keogh et al.): (n/w) * sum_j (a_j - b_j)^2.
double MindistSqPaaToPaa(const double* a, const double* b,
                         const SummaryOptions& opts);

/// PAA-to-SAX lower bound (Lin et al.): per segment, the squared distance
/// from the query PAA coefficient to the SAX region of the candidate, scaled
/// by n/w. The query is exact (PAA), the candidate is discretized.
double MindistSqPaaToSax(const double* query_paa, const uint8_t* sax,
                         const SummaryOptions& opts);

/// The per-query table the batch below reads: segment j's term for each of
/// the 256 byte values (32 KiB at 16 segments; symbols >= 2^cardinality_bits
/// contribute 0). Built once per query and index; resizes `table`.
void MindistSqPaaToSaxTable(const double* query_paa, const SummaryOptions& opts,
                            std::vector<double>* table);

/// PAA-to-SAX lower bounds from a query's MindistSqPaaToSaxTable for `count`
/// records at `stride_bytes` intervals from `sax_base` (stride >=
/// opts.segments; the SAX word is a record's first opts.segments bytes): one
/// table load and add per segment, and out[i] equals MindistSqPaaToSax on
/// record i bit for bit. The SIMS pruning pass (Algorithm 5 line 10).
void MindistSqPaaToSaxBatch(const double* table, const uint8_t* sax_base,
                            size_t stride_bytes, size_t count,
                            const SummaryOptions& opts, double* out);

/// PAA-to-iSAX-node lower bound: the candidate region of segment j is known
/// only to `prefix_bits[j]` bits of precision (0 bits = whole axis). Symbols
/// are given at full cardinality; only the top prefix_bits[j] bits of
/// symbol j are meaningful.
double MindistSqPaaToSaxPrefix(const double* query_paa, const uint8_t* symbols,
                               const uint8_t* prefix_bits,
                               const SummaryOptions& opts);

/// PAA-to-rectangle lower bound for R-tree MBRs in PAA space: the squared
/// distance from the query PAA point to the box [lo, hi], scaled by n/w.
double MindistSqPaaToRect(const double* query_paa, const double* lo,
                          const double* hi, const SummaryOptions& opts);

}  // namespace coconut

#endif  // COCONUT_SUMMARY_MINDIST_H_
