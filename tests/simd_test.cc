// Scalar <-> SIMD parity suite for the dispatched kernel layer
// (src/simd/kernels.h). Every backend available on the build machine is
// compared against the portable scalar reference over random inputs across
// lengths 1..257 (covering all remainder-tail shapes of the 4/8/16-wide
// vector loops). SIMD backends may associate the accumulation differently,
// so results are required to agree to a ulp-scaled tolerance, not
// bit-for-bit; early-abandon variants must land on the same side of the
// bound as the reference. Within one backend, the table-driven MINDIST
// batch must equal that backend's per-record kernel exactly. Run the whole
// tier-1 suite with COCONUT_SIMD=scalar to exercise the fallback end to end
// (CI does).
#include "src/simd/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/random.h"
#include "src/series/distance.h"
#include "src/summary/breakpoints.h"
#include "src/summary/mindist.h"
#include "src/summary/options.h"

namespace coconut {
namespace {

using simd::KernelTable;

/// Every table compiled in AND runnable on this machine, scalar included.
std::vector<const KernelTable*> AvailableBackends() {
  std::vector<const KernelTable*> v = {&simd::ScalarKernels()};
  if (simd::Avx2Kernels() != nullptr) v.push_back(simd::Avx2Kernels());
  if (simd::NeonKernels() != nullptr) v.push_back(simd::NeonKernels());
  return v;
}

std::vector<float> RandomFloats(Rng* rng, size_t n) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng->Gaussian());
  return v;
}

std::vector<double> RandomDoubles(Rng* rng, size_t n) {
  std::vector<double> v(n);
  for (auto& x : v) x = 3.0 * (rng->Uniform() - 0.5);
  return v;
}

/// |a - b| <= tol * max(1, |a|, |b|): scaled tolerance for sums whose
/// association differs across backends.
::testing::AssertionResult NearScaled(double a, double b, double tol) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  if (std::fabs(a - b) <= tol * scale) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " vs " << b << " differ by " << std::fabs(a - b)
         << " (allowed " << tol * scale << ")";
}

constexpr double kTol = 1e-10;  // ~500 ulps at scale 1: generous for <=257
                                // reassociated double terms

TEST(SimdDispatch, TablesAreWellFormed) {
  for (const KernelTable* t : AvailableBackends()) {
    ASSERT_NE(t->name, nullptr);
    EXPECT_NE(t->squared_euclidean, nullptr);
    EXPECT_NE(t->squared_euclidean_ea, nullptr);
    EXPECT_NE(t->mindist_paa_paa, nullptr);
    EXPECT_NE(t->mindist_paa_rect, nullptr);
    EXPECT_NE(t->mindist_paa_sax, nullptr);
    EXPECT_NE(t->mindist_sax_table, nullptr);
    EXPECT_NE(t->mindist_paa_sax_batch, nullptr);
    EXPECT_NE(t->paa_transform, nullptr);
    EXPECT_NE(t->znormalize, nullptr);
  }
  EXPECT_STREQ(simd::ScalarKernels().name, "scalar");
  const std::string active = simd::Kernels().name;
  EXPECT_TRUE(active == "scalar" || active == "avx2" || active == "neon")
      << active;
  // The dispatched table must be one of the runnable ones.
  bool found = false;
  for (const KernelTable* t : AvailableBackends()) {
    if (t == &simd::Kernels()) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(SimdParity, SquaredEuclidean) {
  Rng rng(101);
  const KernelTable& ref = simd::ScalarKernels();
  for (size_t n = 1; n <= 257; ++n) {
    const std::vector<float> a = RandomFloats(&rng, n);
    const std::vector<float> b = RandomFloats(&rng, n);
    const double want = ref.squared_euclidean(a.data(), b.data(), n);
    for (const KernelTable* t : AvailableBackends()) {
      const double got = t->squared_euclidean(a.data(), b.data(), n);
      EXPECT_TRUE(NearScaled(want, got, kTol))
          << t->name << " n=" << n;
    }
  }
}

TEST(SimdParity, SquaredEuclideanEarlyAbandon) {
  Rng rng(102);
  const KernelTable& ref = simd::ScalarKernels();
  const double kInf = std::numeric_limits<double>::infinity();
  for (size_t n = 1; n <= 257; ++n) {
    const std::vector<float> a = RandomFloats(&rng, n);
    const std::vector<float> b = RandomFloats(&rng, n);
    const double full = ref.squared_euclidean(a.data(), b.data(), n);
    // An infinite bound never abandons: the result is the full sum.
    // Fractional bounds abandon somewhere in the middle; bound 0 abandons
    // at the first full-block check.
    const double bounds[] = {kInf, full * 1.5, full * 0.5, full * 0.1, 0.0};
    for (const double bound : bounds) {
      const double want = ref.squared_euclidean_ea(a.data(), b.data(), n,
                                                   bound);
      const bool want_abandoned = want >= bound;
      for (const KernelTable* t : AvailableBackends()) {
        const double got = t->squared_euclidean_ea(a.data(), b.data(), n,
                                                   bound);
        // Same side of the bound as the reference...
        EXPECT_EQ(want_abandoned, got >= bound)
            << t->name << " n=" << n << " bound=" << bound;
        // ...and the same partial sum (all backends check at the same
        // 16-element block boundaries, so they abandon at the same block).
        EXPECT_TRUE(NearScaled(want, got, kTol))
            << t->name << " n=" << n << " bound=" << bound;
        // A non-abandoned result is the full sum.
        if (got < bound) {
          EXPECT_TRUE(NearScaled(full, got, kTol)) << t->name << " n=" << n;
        }
      }
    }
  }
}

// Regression for the pre-dispatch tail bug: with fewer than 16 elements
// there is no full block, so no bound check fires and the result must be
// the complete sum even when the bound is crossed mid-way.
TEST(SimdParity, EarlyAbandonShortSeriesReturnsFullSum) {
  Rng rng(103);
  for (size_t n = 1; n < 16; ++n) {
    const std::vector<float> a = RandomFloats(&rng, n);
    const std::vector<float> b = RandomFloats(&rng, n);
    for (const KernelTable* t : AvailableBackends()) {
      const double full = t->squared_euclidean(a.data(), b.data(), n);
      const double got =
          t->squared_euclidean_ea(a.data(), b.data(), n, /*bound_sq=*/1e-30);
      EXPECT_TRUE(NearScaled(full, got, kTol)) << t->name << " n=" << n;
    }
  }
  // Same at a trailing partial block: bound crossed only inside the tail.
  const size_t n = 23;  // one full block + 7-element tail
  std::vector<float> a(n, 0.0f), b(n, 0.0f);
  b[20] = 10.0f;  // the only difference lives in the tail
  for (const KernelTable* t : AvailableBackends()) {
    const double got =
        t->squared_euclidean_ea(a.data(), b.data(), n, /*bound_sq=*/1.0);
    EXPECT_DOUBLE_EQ(got, 100.0) << t->name;
  }
}

TEST(SimdParity, MindistPaaToPaa) {
  Rng rng(104);
  const KernelTable& ref = simd::ScalarKernels();
  for (size_t w = 1; w <= 65; ++w) {
    const std::vector<double> a = RandomDoubles(&rng, w);
    const std::vector<double> b = RandomDoubles(&rng, w);
    const double scale = 1.0 + rng.Uniform() * 16.0;
    const double want = ref.mindist_paa_paa(a.data(), b.data(), w, scale);
    for (const KernelTable* t : AvailableBackends()) {
      EXPECT_TRUE(NearScaled(
          want, t->mindist_paa_paa(a.data(), b.data(), w, scale), kTol))
          << t->name << " w=" << w;
    }
  }
}

TEST(SimdParity, MindistPaaToRect) {
  Rng rng(105);
  const KernelTable& ref = simd::ScalarKernels();
  for (size_t w = 1; w <= 65; ++w) {
    const std::vector<double> q = RandomDoubles(&rng, w);
    std::vector<double> lo(w), hi(w);
    for (size_t j = 0; j < w; ++j) {
      // Mix of tight boxes and unbounded (+-HUGE_VAL) axes, as produced by
      // the breakpoint tables' extreme symbols.
      const double c = 3.0 * (rng.Uniform() - 0.5);
      lo[j] = rng.Uniform() < 0.2 ? -HUGE_VAL : c - rng.Uniform();
      hi[j] = rng.Uniform() < 0.2 ? HUGE_VAL : c + rng.Uniform();
    }
    const double want =
        ref.mindist_paa_rect(q.data(), lo.data(), hi.data(), w, 16.0);
    for (const KernelTable* t : AvailableBackends()) {
      EXPECT_TRUE(NearScaled(
          want, t->mindist_paa_rect(q.data(), lo.data(), hi.data(), w, 16.0),
          kTol))
          << t->name << " w=" << w;
    }
  }
}

TEST(SimdParity, MindistPaaToSaxAndBatch) {
  Rng rng(106);
  const KernelTable& ref = simd::ScalarKernels();
  const SaxBreakpoints& bp = SaxBreakpoints::Get();
  for (const unsigned bits : {1u, 3u, 8u}) {
    const double* edges = bp.EdgeTable(bits);
    for (size_t w = 1; w <= 33; ++w) {
      const std::vector<double> q = RandomDoubles(&rng, w);
      // A strided batch of records whose first w bytes are the SAX word
      // (stride w+8 mirrors the sidecar record layout sax||offset).
      const size_t stride = w + 8;
      const size_t count = 17;
      std::vector<uint8_t> recs(count * stride);
      for (auto& byte : recs) {
        byte = static_cast<uint8_t>(rng.UniformInt(1u << bits));
      }
      std::vector<double> table(w * simd::kSaxTableColumns);
      std::vector<double> got(count);
      for (const KernelTable* t : AvailableBackends()) {
        t->mindist_sax_table(q.data(), edges, w, bits, table.data());
        t->mindist_paa_sax_batch(table.data(), recs.data(), stride, count, w,
                                 16.0, got.data());
        for (size_t i = 0; i < count; ++i) {
          const uint8_t* sax = recs.data() + i * stride;
          const double own = t->mindist_paa_sax(q.data(), sax, edges, w, 16.0);
          // Across backends, the per-record kernels agree to rounding...
          EXPECT_TRUE(NearScaled(
              ref.mindist_paa_sax(q.data(), sax, edges, w, 16.0), own, kTol))
              << t->name << " bits=" << bits << " w=" << w << " i=" << i;
          // ...and within one, the table-driven batch is the per-record
          // kernel bit for bit, honoring the stride.
          EXPECT_EQ(got[i], own)
              << t->name << " bits=" << bits << " w=" << w << " i=" << i;
        }
      }
    }
  }
}

// A SAX byte at or above 2^bits (a corrupt word) reads a zero column of the
// table: in bounds, and it prunes nothing in that segment.
TEST(SimdParity, MindistSaxTableZeroesSymbolsOutsideTheAlphabet) {
  Rng rng(110);
  const SaxBreakpoints& bp = SaxBreakpoints::Get();
  for (const unsigned bits : {1u, 3u, 7u}) {
    const size_t symbols = size_t{1} << bits;
    const double* edges = bp.EdgeTable(bits);
    for (const size_t w : {size_t{7}, size_t{16}}) {
      const std::vector<double> q = RandomDoubles(&rng, w);
      // outside: some segments hold out-of-alphabet bytes; inside: the same
      // word with those segments holding the query's own symbol (term 0).
      std::vector<uint8_t> words(3 * w);
      uint8_t* outside = words.data();
      uint8_t* inside = words.data() + w;
      uint8_t* all_outside = words.data() + 2 * w;
      for (size_t j = 0; j < w; ++j) {
        size_t own = 0;
        while (own + 1 < symbols && q[j] > edges[own + 1]) ++own;
        const auto junk = static_cast<uint8_t>(
            symbols + rng.UniformInt(static_cast<uint32_t>(256 - symbols)));
        const bool corrupt = rng.Uniform() < 0.5;
        outside[j] = corrupt ? junk : static_cast<uint8_t>(
                                          rng.UniformInt(symbols));
        inside[j] = corrupt ? static_cast<uint8_t>(own) : outside[j];
        all_outside[j] = junk;
      }
      std::vector<double> table(w * simd::kSaxTableColumns);
      double out[3];
      for (const KernelTable* t : AvailableBackends()) {
        t->mindist_sax_table(q.data(), edges, w, bits, table.data());
        for (size_t j = 0; j < w; ++j) {
          for (size_t s = symbols; s < simd::kSaxTableColumns; ++s) {
            ASSERT_EQ(table[j * simd::kSaxTableColumns + s], 0.0)
                << t->name << " bits=" << bits << " j=" << j << " s=" << s;
          }
        }
        t->mindist_paa_sax_batch(table.data(), words.data(), w, 3, w, 16.0,
                                 out);
        EXPECT_EQ(out[0], out[1]) << t->name << " bits=" << bits << " w=" << w;
        EXPECT_EQ(out[2], 0.0) << t->name << " bits=" << bits << " w=" << w;
      }
    }
  }
}

TEST(SimdParity, PaaTransform) {
  Rng rng(107);
  const KernelTable& ref = simd::ScalarKernels();
  for (const size_t segments : {size_t{1}, size_t{4}, size_t{16}}) {
    for (size_t seg_len = 1; seg_len <= 33; ++seg_len) {
      const size_t n = segments * seg_len;
      const std::vector<float> s = RandomFloats(&rng, n);
      std::vector<double> want(segments), got(segments);
      ref.paa_transform(s.data(), n, segments, want.data());
      for (const KernelTable* t : AvailableBackends()) {
        t->paa_transform(s.data(), n, segments, got.data());
        for (size_t j = 0; j < segments; ++j) {
          EXPECT_TRUE(NearScaled(want[j], got[j], kTol))
              << t->name << " segments=" << segments << " seg_len=" << seg_len;
        }
      }
    }
  }
}

TEST(SimdParity, ZNormalize) {
  Rng rng(108);
  const KernelTable& ref = simd::ScalarKernels();
  for (size_t n = 1; n <= 257; ++n) {
    const std::vector<float> orig = RandomFloats(&rng, n);
    std::vector<float> want = orig;
    ref.znormalize(want.data(), n);
    for (const KernelTable* t : AvailableBackends()) {
      std::vector<float> got = orig;
      t->znormalize(got.data(), n);
      for (size_t i = 0; i < n; ++i) {
        // Final values are float32; a couple float ulps absorbs the
        // reassociated mean/stddev.
        EXPECT_NEAR(want[i], got[i], 1e-5f)
            << t->name << " n=" << n << " i=" << i;
      }
    }
  }
  // Constant series collapse to zeros on every backend.
  for (const KernelTable* t : AvailableBackends()) {
    std::vector<float> flat(37, 4.25f);
    t->znormalize(flat.data(), flat.size());
    for (const float v : flat) EXPECT_EQ(v, 0.0f) << t->name;
  }
}

// The public entry points (distance.h / mindist.h) must agree with the
// dispatched table they forward to, including the batch API used by the
// SIMS pruning pass.
TEST(SimdRouting, PublicApisMatchDispatchedKernels) {
  Rng rng(109);
  const KernelTable& k = simd::Kernels();
  const size_t n = 256;
  const std::vector<float> a = RandomFloats(&rng, n);
  const std::vector<float> b = RandomFloats(&rng, n);
  EXPECT_EQ(SquaredEuclidean(a.data(), b.data(), n),
            k.squared_euclidean(a.data(), b.data(), n));
  EXPECT_EQ(SquaredEuclideanEarlyAbandon(a.data(), b.data(), n, 10.0),
            k.squared_euclidean_ea(a.data(), b.data(), n, 10.0));

  SummaryOptions opts;
  opts.series_length = n;
  opts.segments = 16;
  opts.cardinality_bits = 8;
  const std::vector<double> q = RandomDoubles(&rng, opts.segments);
  const size_t count = 9;
  std::vector<uint8_t> sax(count * opts.segments);
  for (auto& byte : sax) byte = static_cast<uint8_t>(rng.UniformInt(256));
  std::vector<double> table;
  MindistSqPaaToSaxTable(q.data(), opts, &table);
  std::vector<double> batch(count);
  MindistSqPaaToSaxBatch(table.data(), sax.data(), opts.segments, count, opts,
                         batch.data());
  for (size_t i = 0; i < count; ++i) {
    EXPECT_EQ(batch[i], MindistSqPaaToSax(
                            q.data(), sax.data() + i * opts.segments, opts))
        << i;
  }
}

}  // namespace
}  // namespace coconut
