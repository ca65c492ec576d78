// Runtime-dispatched SIMD kernels for the per-record hot loops: squared
// Euclidean distance (plain and block-wise early-abandoning), the MINDIST
// lower bounds, PAA summarization, and z-normalization. Every query and
// build path in the repository bottoms out in one of these loops, so they
// are the multiplier on N for both construction (paper §4-5) and SIMS
// pruning (Algorithm 5).
//
// The backend (AVX2+FMA on x86-64, NEON on aarch64, portable scalar
// otherwise) is selected once per process on first use, via CPU feature
// detection, and can be overridden with COCONUT_SIMD=scalar|avx2|neon for
// testing. All backends implement the same contracts as the scalar
// reference; accumulation order may differ, so results agree to rounding
// (the parity suite in tests/simd_test.cc pins a 1-ulp-scaled tolerance),
// not bit-for-bit. Within one backend, the table-driven MINDIST batch equals
// the per-record kernel bit for bit. See src/simd/README.md for the dispatch
// rules and the batch-kernel stride contract.
#ifndef COCONUT_SIMD_KERNELS_H_
#define COCONUT_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace coconut {
namespace simd {

/// Columns per segment row of a mindist_sax_table: one per SAX byte value.
inline constexpr size_t kSaxTableColumns = 256;

/// One backend's implementations. All pointers are non-null in every table.
struct KernelTable {
  /// Backend name as reported in benchmarks/JSON: "scalar", "avx2", "neon".
  const char* name;

  /// sum_i ((double)a[i] - (double)b[i])^2 over n float32 values.
  double (*squared_euclidean)(const float* a, const float* b, size_t n);

  /// Early-abandoning variant: the partial sum is checked against
  /// `bound_sq` after every full 16-element block; the final partial block
  /// (n % 16 trailing elements) is summed without a check. Returns either
  /// the full sum (never abandoned) or a partial sum >= bound_sq.
  double (*squared_euclidean_ea)(const float* a, const float* b, size_t n,
                                 double bound_sq);

  /// PAA-to-PAA lower bound: scale * sum_j (a[j] - b[j])^2, w segments.
  double (*mindist_paa_paa)(const double* a, const double* b, size_t w,
                            double scale);

  /// PAA-to-rectangle lower bound: scale * sum_j distsq(q[j], [lo[j],hi[j]])
  /// where distsq(x, [l,h]) = max(l - x, x - h, 0)^2. `lo`/`hi` entries may
  /// be -+HUGE_VAL (unbounded axis contributes 0).
  double (*mindist_paa_rect)(const double* q, const double* lo,
                             const double* hi, size_t w, double scale);

  /// Per-record PAA-to-SAX lower bound: segment j's region is
  /// [edges[sax[j]], edges[sax[j] + 1]] in a flat table of 2^bits + 1
  /// region edges (edges[0] == -HUGE_VAL, edges[2^bits] == +HUGE_VAL).
  double (*mindist_paa_sax)(const double* q, const uint8_t* sax,
                            const double* edges, size_t w, double scale);

  /// Fills the per-query lower-bound table of w x kSaxTableColumns doubles:
  /// table[j * kSaxTableColumns + s] is this backend's term for segment j
  /// and symbol s (its squared distance, or a value whose square it is).
  /// Columns s >= 2^bits hold 0, so any SAX byte reads in bounds.
  void (*mindist_sax_table)(const double* q, const double* edges, size_t w,
                            unsigned bits, double* table);

  /// Lower bounds from this backend's mindist_sax_table for `count` records
  /// at `stride_bytes` intervals from `sax_base` (stride >= w; the SAX word
  /// is a record's first w bytes): w table loads each, summed in
  /// mindist_paa_sax's order, so out[i] equals it bit for bit.
  void (*mindist_paa_sax_batch)(const double* table, const uint8_t* sax_base,
                                size_t stride_bytes, size_t count, size_t w,
                                double scale, double* out);

  /// PAA transform: out[s] = mean of segment s (n divisible by segments;
  /// accumulation in double).
  void (*paa_transform)(const float* series, size_t n, size_t segments,
                        double* out);

  /// In-place z-normalization of n float32 values: subtract the mean,
  /// divide by the population stddev; constant series (stddev < 1e-9)
  /// become all zeros.
  void (*znormalize)(float* values, size_t n);
};

/// The process-wide dispatched table: resolved once, on first call, to the
/// best backend the CPU supports (avx2 > neon > scalar), or to the backend
/// named by the COCONUT_SIMD environment variable when that backend is
/// compiled in and supported by the CPU (unknown/unsupported values fall
/// back to auto-detection; COCONUT_SIMD=scalar always honors).
const KernelTable& Kernels();

/// The portable reference implementations (always available; also the
/// ground truth for the parity tests).
const KernelTable& ScalarKernels();

/// Per-backend tables for tests and benchmarks: null when the backend is
/// not compiled in or the CPU lacks the features to run it.
const KernelTable* Avx2Kernels();
const KernelTable* NeonKernels();

}  // namespace simd
}  // namespace coconut

#endif  // COCONUT_SIMD_KERNELS_H_
