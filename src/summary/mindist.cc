#include "src/summary/mindist.h"

#include "src/simd/kernels.h"
#include "src/summary/breakpoints.h"

namespace coconut {

namespace {
/// Squared distance from point q to the interval [lo, hi] (0 if inside).
inline double DistToRangeSq(double q, double lo, double hi) {
  if (q < lo) {
    const double d = lo - q;
    return d * d;
  }
  if (q > hi) {
    const double d = q - hi;
    return d * d;
  }
  return 0.0;
}
}  // namespace

double MindistSqPaaToPaa(const double* a, const double* b,
                         const SummaryOptions& opts) {
  return simd::Kernels().mindist_paa_paa(a, b, opts.segments,
                                         opts.segment_size());
}

double MindistSqPaaToSax(const double* query_paa, const uint8_t* sax,
                         const SummaryOptions& opts) {
  const SaxBreakpoints& bp = SaxBreakpoints::Get();
  return simd::Kernels().mindist_paa_sax(
      query_paa, sax, bp.EdgeTable(opts.cardinality_bits), opts.segments,
      opts.segment_size());
}

void MindistSqPaaToSaxTable(const double* query_paa, const SummaryOptions& opts,
                            std::vector<double>* table) {
  table->resize(opts.segments * simd::kSaxTableColumns);
  simd::Kernels().mindist_sax_table(
      query_paa, SaxBreakpoints::Get().EdgeTable(opts.cardinality_bits),
      opts.segments, opts.cardinality_bits, table->data());
}

void MindistSqPaaToSaxBatch(const double* table, const uint8_t* sax_base,
                            size_t stride_bytes, size_t count,
                            const SummaryOptions& opts, double* out) {
  simd::Kernels().mindist_paa_sax_batch(table, sax_base, stride_bytes, count,
                                        opts.segments, opts.segment_size(),
                                        out);
}

double MindistSqPaaToSaxPrefix(const double* query_paa, const uint8_t* symbols,
                               const uint8_t* prefix_bits,
                               const SummaryOptions& opts) {
  const SaxBreakpoints& bp = SaxBreakpoints::Get();
  const unsigned max_bits = opts.cardinality_bits;
  double sum = 0.0;
  for (size_t j = 0; j < opts.segments; ++j) {
    const unsigned p = prefix_bits[j];
    if (p == 0) continue;  // whole axis: contributes nothing
    // The meaningful symbol at p bits is the top p bits of the full symbol.
    const uint32_t sym = static_cast<uint32_t>(symbols[j]) >> (max_bits - p);
    const double lo = bp.RegionLower(p, sym);
    const double hi = bp.RegionUpper(p, sym);
    sum += DistToRangeSq(query_paa[j], lo, hi);
  }
  return opts.segment_size() * sum;
}

double MindistSqPaaToRect(const double* query_paa, const double* lo,
                          const double* hi, const SummaryOptions& opts) {
  return simd::Kernels().mindist_paa_rect(query_paa, lo, hi, opts.segments,
                                          opts.segment_size());
}

}  // namespace coconut
