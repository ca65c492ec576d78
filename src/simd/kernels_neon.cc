// NEON backend for aarch64, where Advanced SIMD is architectural baseline
// (no extra compile flags, no runtime CPUID needed). Floats are widened to
// double pairs before subtraction, matching the scalar reference up to the
// association of the final sum. NEON has no gather, so the SAX bound's
// per-segment terms are scalar values packed into vector lanes.
#include "src/simd/kernels_internal.h"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

#include <algorithm>
#include <cmath>

namespace coconut {
namespace simd {
namespace {

/// Widens floats [i, i+4) of a and b, accumulating squared differences.
inline void Accum4Diff(const float* a, const float* b, size_t i,
                       float64x2_t* acc0, float64x2_t* acc1) {
  const float32x4_t va = vld1q_f32(a + i);
  const float32x4_t vb = vld1q_f32(b + i);
  const float64x2_t d0 =
      vsubq_f64(vcvt_f64_f32(vget_low_f32(va)), vcvt_f64_f32(vget_low_f32(vb)));
  const float64x2_t d1 = vsubq_f64(vcvt_f64_f32(vget_high_f32(va)),
                                   vcvt_f64_f32(vget_high_f32(vb)));
  *acc0 = vfmaq_f64(*acc0, d0, d0);
  *acc1 = vfmaq_f64(*acc1, d1, d1);
}

double SquaredEuclideanNeon(const float* a, const float* b, size_t n) {
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) Accum4Diff(a, b, i, &acc0, &acc1);
  double sum = vaddvq_f64(vaddq_f64(acc0, acc1));
  for (; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    sum += d * d;
  }
  return sum;
}

double SquaredEuclideanEaNeon(const float* a, const float* b, size_t n,
                              double bound_sq) {
  // Same block contract as the scalar reference: check after every full
  // 16-element block, sum the trailing partial block straight through.
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  size_t i = 0;
  while (n - i >= 16) {
    Accum4Diff(a, b, i, &acc0, &acc1);
    Accum4Diff(a, b, i + 4, &acc0, &acc1);
    Accum4Diff(a, b, i + 8, &acc0, &acc1);
    Accum4Diff(a, b, i + 12, &acc0, &acc1);
    i += 16;
    const double sum = vaddvq_f64(vaddq_f64(acc0, acc1));
    if (sum >= bound_sq) return sum;
  }
  double sum = vaddvq_f64(vaddq_f64(acc0, acc1));
  for (; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    sum += d * d;
  }
  return sum;
}

double MindistPaaPaaNeon(const double* a, const double* b, size_t w,
                         double scale) {
  float64x2_t acc = vdupq_n_f64(0.0);
  size_t j = 0;
  for (; j + 2 <= w; j += 2) {
    const float64x2_t d = vsubq_f64(vld1q_f64(a + j), vld1q_f64(b + j));
    acc = vfmaq_f64(acc, d, d);
  }
  double sum = vaddvq_f64(acc);
  for (; j < w; ++j) {
    const double d = a[j] - b[j];
    sum += d * d;
  }
  return scale * sum;
}

/// Per-lane distsq(q, [lo, hi]) = max(lo - q, q - hi, 0)^2; -+HUGE_VAL
/// edges yield -inf on their side of the max, never a NaN (q is finite).
inline float64x2_t RangeAccum(float64x2_t q, float64x2_t lo, float64x2_t hi,
                              float64x2_t acc) {
  const float64x2_t below = vsubq_f64(lo, q);
  const float64x2_t above = vsubq_f64(q, hi);
  const float64x2_t d =
      vmaxq_f64(vmaxq_f64(below, above), vdupq_n_f64(0.0));
  return vfmaq_f64(acc, d, d);
}

/// RangeAccum's term for one segment, before squaring.
inline double RangeTerm(double q, double lo, double hi) {
  return std::max(std::max(lo - q, q - hi), 0.0);
}

double MindistPaaRectNeon(const double* q, const double* lo, const double* hi,
                          size_t w, double scale) {
  float64x2_t acc = vdupq_n_f64(0.0);
  size_t j = 0;
  for (; j + 2 <= w; j += 2) {
    acc = RangeAccum(vld1q_f64(q + j), vld1q_f64(lo + j), vld1q_f64(hi + j),
                     acc);
  }
  double sum = vaddvq_f64(acc);
  for (; j < w; ++j) sum += DistToRangeSq(q[j], lo[j], hi[j]);
  return scale * sum;
}

/// scale * sum_j term(j)^2 for j in [0, w): 2 FMA lanes (no NEON gather, so
/// terms are packed scalar values), vaddvq_f64, then the odd segment fused.
/// Both SAX bounds below sum through it, so the table-driven batch equals
/// the per-record kernel bit for bit.
template <class Term>
inline double SumSquaredTerms(size_t w, double scale, Term term) {
  float64x2_t acc = vdupq_n_f64(0.0);
  size_t j = 0;
  for (; j + 2 <= w; j += 2) {
    const float64x2_t d =
        vcombine_f64(vdup_n_f64(term(j)), vdup_n_f64(term(j + 1)));
    acc = vfmaq_f64(acc, d, d);
  }
  double sum = vaddvq_f64(acc);
  for (; j < w; ++j) {
    const double d = term(j);
    sum = std::fma(d, d, sum);
  }
  return scale * sum;
}

/// Region s of the flat edges table is [edges[s], edges[s + 1]].
double MindistPaaSaxNeon(const double* q, const uint8_t* sax,
                         const double* edges, size_t w, double scale) {
  return SumSquaredTerms(w, scale, [&](size_t j) {
    return RangeTerm(q[j], edges[sax[j]], edges[sax[j] + 1]);
  });
}

/// Table terms are RangeTerm, unsquared.
void MindistSaxTableNeon(const double* q, const double* edges, size_t w,
                         unsigned bits, double* table) {
  const size_t symbols = size_t{1} << bits;
  for (size_t j = 0; j < w; ++j) {
    double* row = table + j * kSaxTableColumns;
    for (size_t s = 0; s < kSaxTableColumns; ++s) {
      row[s] = s < symbols ? RangeTerm(q[j], edges[s], edges[s + 1]) : 0.0;
    }
  }
}

void MindistPaaSaxBatchNeon(const double* table, const uint8_t* sax_base,
                            size_t stride_bytes, size_t count, size_t w,
                            double scale, double* out) {
  for (size_t i = 0; i < count; ++i) {
    const uint8_t* sax = sax_base + i * stride_bytes;
    out[i] = SumSquaredTerms(w, scale, [&](size_t j) {
      return table[j * kSaxTableColumns + sax[j]];
    });
  }
}

/// Sum of 4 widened floats appended to acc lanes.
inline void Accum4Sum(const float* p, float64x2_t* acc0, float64x2_t* acc1) {
  const float32x4_t v = vld1q_f32(p);
  *acc0 = vaddq_f64(*acc0, vcvt_f64_f32(vget_low_f32(v)));
  *acc1 = vaddq_f64(*acc1, vcvt_f64_f32(vget_high_f32(v)));
}

void PaaTransformNeon(const float* series, size_t n, size_t segments,
                      double* out) {
  const size_t seg_len = n / segments;
  const double inv = 1.0 / static_cast<double>(seg_len);
  for (size_t s = 0; s < segments; ++s) {
    const float* p = series + s * seg_len;
    float64x2_t acc0 = vdupq_n_f64(0.0);
    float64x2_t acc1 = vdupq_n_f64(0.0);
    size_t i = 0;
    for (; i + 4 <= seg_len; i += 4) Accum4Sum(p + i, &acc0, &acc1);
    double sum = vaddvq_f64(vaddq_f64(acc0, acc1));
    for (; i < seg_len; ++i) sum += p[i];
    out[s] = sum * inv;
  }
}

void ZNormalizeNeon(float* values, size_t n) {
  constexpr double kEpsilon = 1e-9;
  if (n == 0) return;
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) Accum4Sum(values + i, &acc0, &acc1);
  double sum = vaddvq_f64(vaddq_f64(acc0, acc1));
  for (; i < n; ++i) sum += values[i];
  const double mean = sum / static_cast<double>(n);

  const float64x2_t vmean = vdupq_n_f64(mean);
  float64x2_t sq0 = vdupq_n_f64(0.0);
  float64x2_t sq1 = vdupq_n_f64(0.0);
  i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t v = vld1q_f32(values + i);
    const float64x2_t d0 = vsubq_f64(vcvt_f64_f32(vget_low_f32(v)), vmean);
    const float64x2_t d1 = vsubq_f64(vcvt_f64_f32(vget_high_f32(v)), vmean);
    sq0 = vfmaq_f64(sq0, d0, d0);
    sq1 = vfmaq_f64(sq1, d1, d1);
  }
  double sq = vaddvq_f64(vaddq_f64(sq0, sq1));
  for (; i < n; ++i) {
    const double d = values[i] - mean;
    sq += d * d;
  }
  const double sd = std::sqrt(sq / static_cast<double>(n));
  if (sd < kEpsilon) {
    for (i = 0; i < n; ++i) values[i] = 0.0f;
    return;
  }
  const double inv = 1.0 / sd;
  const float64x2_t vinv = vdupq_n_f64(inv);
  i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t v = vld1q_f32(values + i);
    const float64x2_t lo =
        vmulq_f64(vsubq_f64(vcvt_f64_f32(vget_low_f32(v)), vmean), vinv);
    const float64x2_t hi =
        vmulq_f64(vsubq_f64(vcvt_f64_f32(vget_high_f32(v)), vmean), vinv);
    vst1q_f32(values + i, vcombine_f32(vcvt_f32_f64(lo), vcvt_f32_f64(hi)));
  }
  for (; i < n; ++i) {
    values[i] = static_cast<float>((values[i] - mean) * inv);
  }
}

}  // namespace

const KernelTable* NeonKernelsImpl() {
  static const KernelTable table = {
      "neon",
      SquaredEuclideanNeon,
      SquaredEuclideanEaNeon,
      MindistPaaPaaNeon,
      MindistPaaRectNeon,
      MindistPaaSaxNeon,
      MindistSaxTableNeon,
      MindistPaaSaxBatchNeon,
      PaaTransformNeon,
      ZNormalizeNeon,
  };
  return &table;
}

}  // namespace simd
}  // namespace coconut

#else  // !(__aarch64__ && __ARM_NEON)

namespace coconut {
namespace simd {

const KernelTable* NeonKernelsImpl() { return nullptr; }

}  // namespace simd
}  // namespace coconut

#endif
