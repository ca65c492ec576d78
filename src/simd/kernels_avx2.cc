// AVX2+FMA backend. Compiled with -mavx2 -mfma on x86-64 only (the build
// adds the flags just for this translation unit); the dispatcher only hands
// out this table after checking CPUID for both features at runtime, so the
// rest of the binary stays runnable on pre-AVX2 hardware.
//
// All floats are widened to double before subtraction, matching the scalar
// reference; only the association of the final sum differs (4 accumulator
// lanes), which the parity suite bounds at a ulp-scaled tolerance.
#include "src/simd/kernels_internal.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace coconut {
namespace simd {
namespace {

inline double Hsum(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_add_pd(lo, hi);
  const __m128d swap = _mm_unpackhi_pd(lo, lo);
  return _mm_cvtsd_f64(_mm_add_sd(lo, swap));
}

/// Widens floats [i, i+8) of a and b, accumulating squared differences into
/// two double lanes.
inline void Accum8Diff(const float* a, const float* b, size_t i, __m256d* acc0,
                       __m256d* acc1) {
  const __m256 va = _mm256_loadu_ps(a + i);
  const __m256 vb = _mm256_loadu_ps(b + i);
  const __m256d d0 = _mm256_sub_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(va)),
                                   _mm256_cvtps_pd(_mm256_castps256_ps128(vb)));
  const __m256d d1 = _mm256_sub_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(va, 1)),
                                   _mm256_cvtps_pd(_mm256_extractf128_ps(vb, 1)));
  *acc0 = _mm256_fmadd_pd(d0, d0, *acc0);
  *acc1 = _mm256_fmadd_pd(d1, d1, *acc1);
}

double SquaredEuclideanAvx2(const float* a, const float* b, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    Accum8Diff(a, b, i, &acc0, &acc1);
    Accum8Diff(a, b, i + 8, &acc0, &acc1);
  }
  for (; i + 8 <= n; i += 8) Accum8Diff(a, b, i, &acc0, &acc1);
  double sum = Hsum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    sum += d * d;
  }
  return sum;
}

double SquaredEuclideanEaAvx2(const float* a, const float* b, size_t n,
                              double bound_sq) {
  // Same block contract as the scalar reference: check after every full
  // 16-element block, sum the trailing partial block straight through.
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  while (n - i >= 16) {
    Accum8Diff(a, b, i, &acc0, &acc1);
    Accum8Diff(a, b, i + 8, &acc0, &acc1);
    i += 16;
    const double sum = Hsum(_mm256_add_pd(acc0, acc1));
    if (sum >= bound_sq) return sum;
  }
  double sum = Hsum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    sum += d * d;
  }
  return sum;
}

double MindistPaaPaaAvx2(const double* a, const double* b, size_t w,
                         double scale) {
  __m256d acc = _mm256_setzero_pd();
  size_t j = 0;
  for (; j + 4 <= w; j += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(a + j), _mm256_loadu_pd(b + j));
    acc = _mm256_fmadd_pd(d, d, acc);
  }
  double sum = Hsum(acc);
  for (; j < w; ++j) {
    const double d = a[j] - b[j];
    sum += d * d;
  }
  return scale * sum;
}

/// Per-lane term of distsq(q, [lo, hi]) = max(lo - q, q - hi, 0)^2, before
/// squaring; -+HUGE_VAL edges yield -inf on their side of the max, never a
/// NaN (q is finite).
inline __m256d RangeTerm(__m256d q, __m256d lo, __m256d hi) {
  const __m256d d = _mm256_max_pd(_mm256_sub_pd(lo, q), _mm256_sub_pd(q, hi));
  return _mm256_max_pd(d, _mm256_setzero_pd());
}

/// The same term for one segment (the tails).
inline double RangeTerm(double q, double lo, double hi) {
  return std::max(std::max(lo - q, q - hi), 0.0);
}

inline __m256d RangeAccum(__m256d q, __m256d lo, __m256d hi, __m256d acc) {
  const __m256d d = RangeTerm(q, lo, hi);
  return _mm256_fmadd_pd(d, d, acc);
}

double MindistPaaRectAvx2(const double* q, const double* lo, const double* hi,
                          size_t w, double scale) {
  __m256d acc = _mm256_setzero_pd();
  size_t j = 0;
  for (; j + 4 <= w; j += 4) {
    acc = RangeAccum(_mm256_loadu_pd(q + j), _mm256_loadu_pd(lo + j),
                     _mm256_loadu_pd(hi + j), acc);
  }
  double sum = Hsum(acc);
  for (; j < w; ++j) sum += DistToRangeSq(q[j], lo[j], hi[j]);
  return scale * sum;
}

/// Region s of the flat edges table is [edges[s], edges[s + 1]]. The
/// squared terms go into 4 FMA lanes, summed in Hsum's order, then the
/// w % 4 tail is fused in sequence; the batch below keeps this order.
double MindistPaaSaxAvx2(const double* q, const uint8_t* sax,
                         const double* edges, size_t w, double scale) {
  const auto term = [&](size_t j) {
    return RangeTerm(q[j], edges[sax[j]], edges[sax[j] + 1]);
  };
  __m256d acc = _mm256_setzero_pd();
  size_t j = 0;
  for (; j + 4 <= w; j += 4) {
    const __m256d d =
        _mm256_setr_pd(term(j), term(j + 1), term(j + 2), term(j + 3));
    acc = _mm256_fmadd_pd(d, d, acc);
  }
  double sum = Hsum(acc);
  for (; j < w; ++j) sum = std::fma(term(j), term(j), sum);
  return scale * sum;
}

/// Table terms are RangeTerm, unsquared, 4 symbols per step.
void MindistSaxTableAvx2(const double* q, const double* edges, size_t w,
                         unsigned bits, double* table) {
  const size_t symbols = size_t{1} << bits;
  for (size_t j = 0; j < w; ++j) {
    double* row = table + j * kSaxTableColumns;
    const __m256d vq = _mm256_set1_pd(q[j]);
    size_t s = 0;
    for (; s + 4 <= symbols; s += 4) {
      _mm256_storeu_pd(row + s, RangeTerm(vq, _mm256_loadu_pd(edges + s),
                                          _mm256_loadu_pd(edges + s + 1)));
    }
    for (; s < symbols; ++s) row[s] = RangeTerm(q[j], edges[s], edges[s + 1]);
    for (; s < kSaxTableColumns; ++s) row[s] = 0.0;
  }
}

void MindistPaaSaxBatchAvx2(const double* table, const uint8_t* sax_base,
                            size_t stride_bytes, size_t count, size_t w,
                            double scale, double* out) {
  constexpr size_t kCols = kSaxTableColumns;
  for (size_t i = 0; i < count; ++i) {
    const uint8_t* sax = sax_base + i * stride_bytes;
    __m256d acc = _mm256_setzero_pd();
    size_t j = 0;
    // Row pointer: the other rows' offsets fold into the loads.
    for (; j + 4 <= w; j += 4) {
      const double* row = table + j * kCols;
      const __m256d d = _mm256_setr_pd(row[sax[j]], row[kCols + sax[j + 1]],
                                       row[2 * kCols + sax[j + 2]],
                                       row[3 * kCols + sax[j + 3]]);
      acc = _mm256_fmadd_pd(d, d, acc);
    }
    double sum = Hsum(acc);
    for (; j < w; ++j) {
      const double d = table[j * kCols + sax[j]];
      sum = std::fma(d, d, sum);
    }
    out[i] = scale * sum;
  }
}

/// Sum of 4 widened floats appended to acc.
inline __m256d Accum4Sum(const float* p, __m256d acc) {
  return _mm256_add_pd(acc, _mm256_cvtps_pd(_mm_loadu_ps(p)));
}

void PaaTransformAvx2(const float* series, size_t n, size_t segments,
                      double* out) {
  const size_t seg_len = n / segments;
  const double inv = 1.0 / static_cast<double>(seg_len);
  for (size_t s = 0; s < segments; ++s) {
    const float* p = series + s * seg_len;
    __m256d acc = _mm256_setzero_pd();
    size_t i = 0;
    for (; i + 4 <= seg_len; i += 4) acc = Accum4Sum(p + i, acc);
    double sum = Hsum(acc);
    for (; i < seg_len; ++i) sum += p[i];
    out[s] = sum * inv;
  }
}

void ZNormalizeAvx2(float* values, size_t n) {
  constexpr double kEpsilon = 1e-9;
  if (n == 0) return;
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) acc = Accum4Sum(values + i, acc);
  double sum = Hsum(acc);
  for (; i < n; ++i) sum += values[i];
  const double mean = sum / static_cast<double>(n);

  const __m256d vmean = _mm256_set1_pd(mean);
  __m256d sqacc = _mm256_setzero_pd();
  i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(values + i)), vmean);
    sqacc = _mm256_fmadd_pd(d, d, sqacc);
  }
  double sq = Hsum(sqacc);
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
  const __m256d vinv = _mm256_set1_pd(inv);
  i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(values + i)), vmean);
    _mm_storeu_ps(values + i, _mm256_cvtpd_ps(_mm256_mul_pd(d, vinv)));
  }
  for (; i < n; ++i) {
    values[i] = static_cast<float>((values[i] - mean) * inv);
  }
}

}  // namespace

const KernelTable* Avx2KernelsImpl() {
  static const KernelTable table = {
      "avx2",
      SquaredEuclideanAvx2,
      SquaredEuclideanEaAvx2,
      MindistPaaPaaAvx2,
      MindistPaaRectAvx2,
      MindistPaaSaxAvx2,
      MindistSaxTableAvx2,
      MindistPaaSaxBatchAvx2,
      PaaTransformAvx2,
      ZNormalizeAvx2,
  };
  return &table;
}

}  // namespace simd
}  // namespace coconut

#else  // !(__AVX2__ && __FMA__)

namespace coconut {
namespace simd {

const KernelTable* Avx2KernelsImpl() { return nullptr; }

}  // namespace simd
}  // namespace coconut

#endif
