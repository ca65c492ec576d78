// Portable scalar backend: the reference semantics every SIMD backend must
// reproduce (to rounding). These bodies mirror the pre-dispatch code in
// src/series/distance.h, src/summary/{paa,mindist}.cc, and
// src/series/znorm.cc, with one structural fix: the early-abandoning
// distance checks the bound only after *full* 16-element blocks, so a
// series shorter than a block (or a trailing partial block) is summed
// straight through without a redundant check at i == n.
#include <cmath>

#include "src/simd/kernels_internal.h"

namespace coconut {
namespace simd {
namespace {

double SquaredEuclideanScalar(const float* a, const float* b, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    sum += d * d;
  }
  return sum;
}

double SquaredEuclideanEaScalar(const float* a, const float* b, size_t n,
                                double bound_sq) {
  double sum = 0.0;
  size_t i = 0;
  while (n - i >= 16) {
    for (const size_t stop = i + 16; i < stop; ++i) {
      const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
      sum += d * d;
    }
    if (sum >= bound_sq) return sum;
  }
  for (; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    sum += d * d;
  }
  return sum;
}

double MindistPaaPaaScalar(const double* a, const double* b, size_t w,
                           double scale) {
  double sum = 0.0;
  for (size_t j = 0; j < w; ++j) {
    const double d = a[j] - b[j];
    sum += d * d;
  }
  return scale * sum;
}

double MindistPaaRectScalar(const double* q, const double* lo,
                            const double* hi, size_t w, double scale) {
  double sum = 0.0;
  for (size_t j = 0; j < w; ++j) {
    sum += DistToRangeSq(q[j], lo[j], hi[j]);
  }
  return scale * sum;
}

double MindistPaaSaxScalar(const double* q, const uint8_t* sax,
                           const double* edges, size_t w, double scale) {
  double sum = 0.0;
  for (size_t j = 0; j < w; ++j) {
    sum += DistToRangeSq(q[j], edges[sax[j]], edges[sax[j] + 1]);
  }
  return scale * sum;
}

void MindistSaxTableScalar(const double* q, const double* edges, size_t w,
                           unsigned bits, double* table) {
  const size_t symbols = size_t{1} << bits;
  for (size_t j = 0; j < w; ++j) {
    double* row = table + j * kSaxTableColumns;
    for (size_t s = 0; s < kSaxTableColumns; ++s) {
      row[s] = s < symbols ? DistToRangeSq(q[j], edges[s], edges[s + 1]) : 0.0;
    }
  }
}

void MindistPaaSaxBatchScalar(const double* table, const uint8_t* sax_base,
                              size_t stride_bytes, size_t count, size_t w,
                              double scale, double* out) {
  for (size_t i = 0; i < count; ++i) {
    const uint8_t* sax = sax_base + i * stride_bytes;
    double sum = 0.0;
    for (size_t j = 0; j < w; ++j) sum += table[j * kSaxTableColumns + sax[j]];
    out[i] = scale * sum;
  }
}

void PaaTransformScalar(const float* series, size_t n, size_t segments,
                        double* out) {
  const size_t seg_len = n / segments;
  const double inv = 1.0 / static_cast<double>(seg_len);
  for (size_t s = 0; s < segments; ++s) {
    double sum = 0.0;
    const float* p = series + s * seg_len;
    for (size_t i = 0; i < seg_len; ++i) sum += p[i];
    out[s] = sum * inv;
  }
}

void ZNormalizeScalar(float* values, size_t n) {
  constexpr double kEpsilon = 1e-9;
  if (n == 0) return;
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += values[i];
  const double mean = sum / static_cast<double>(n);
  double sq = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = values[i] - mean;
    sq += d * d;
  }
  const double sd = std::sqrt(sq / static_cast<double>(n));
  if (sd < kEpsilon) {
    for (size_t i = 0; i < n; ++i) values[i] = 0.0f;
    return;
  }
  const double inv = 1.0 / sd;
  for (size_t i = 0; i < n; ++i) {
    values[i] = static_cast<float>((values[i] - mean) * inv);
  }
}

}  // namespace

const KernelTable& ScalarKernels() {
  static const KernelTable table = {
      "scalar",
      SquaredEuclideanScalar,
      SquaredEuclideanEaScalar,
      MindistPaaPaaScalar,
      MindistPaaRectScalar,
      MindistPaaSaxScalar,
      MindistSaxTableScalar,
      MindistPaaSaxBatchScalar,
      PaaTransformScalar,
      ZNormalizeScalar,
  };
  return table;
}

}  // namespace simd
}  // namespace coconut
