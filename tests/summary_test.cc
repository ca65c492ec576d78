// Tests for PAA, SAX breakpoints, invSAX interleaving, and the MINDIST
// lower bounds — including the property tests that underpin exactness of
// every index in the repository.
#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/random.h"
#include "src/series/distance.h"
#include "src/series/generator.h"
#include "src/summary/breakpoints.h"
#include "src/summary/invsax.h"
#include "src/summary/mindist.h"
#include "src/summary/paa.h"
#include "src/summary/sax.h"

namespace coconut {
namespace {

TEST(InverseNormalCdf, MatchesKnownQuantiles) {
  EXPECT_NEAR(InverseNormalCdf(0.5), 0.0, 1e-9);
  EXPECT_NEAR(InverseNormalCdf(0.8413447), 1.0, 1e-4);
  EXPECT_NEAR(InverseNormalCdf(0.1586553), -1.0, 1e-4);
  EXPECT_NEAR(InverseNormalCdf(0.975), 1.959964, 1e-5);
}

TEST(Breakpoints, MonotonicAndSymmetric) {
  const SaxBreakpoints& bp = SaxBreakpoints::Get();
  for (unsigned bits = 1; bits <= kMaxCardinalityBits; ++bits) {
    const std::vector<double>& t = bp.ForBits(bits);
    ASSERT_EQ(t.size(), (1u << bits) - 1);
    EXPECT_TRUE(std::is_sorted(t.begin(), t.end()));
    // Gaussian quantiles are symmetric around zero.
    for (size_t i = 0; i < t.size(); ++i) {
      EXPECT_NEAR(t[i], -t[t.size() - 1 - i], 1e-9);
    }
  }
}

TEST(Breakpoints, NestingAcrossCardinalities) {
  // The breakpoints at 2^b must be a subset of those at 2^(b+1): this is
  // what makes a low-cardinality symbol the bit-prefix of the
  // high-cardinality one (iSAX multiresolution).
  const SaxBreakpoints& bp = SaxBreakpoints::Get();
  for (unsigned bits = 1; bits < kMaxCardinalityBits; ++bits) {
    const std::vector<double>& coarse = bp.ForBits(bits);
    const std::vector<double>& fine = bp.ForBits(bits + 1);
    for (size_t i = 0; i < coarse.size(); ++i) {
      EXPECT_NEAR(coarse[i], fine[2 * i + 1], 1e-9);
    }
  }
}

TEST(Breakpoints, SymbolPrefixProperty) {
  const SaxBreakpoints& bp = SaxBreakpoints::Get();
  Rng rng(3);
  for (int trial = 0; trial < 1000; ++trial) {
    const double v = 4.0 * rng.Gaussian();
    const uint32_t full = bp.Symbol(8, v);
    for (unsigned bits = 1; bits < 8; ++bits) {
      EXPECT_EQ(bp.Symbol(bits, v), full >> (8 - bits))
          << "value " << v << " bits " << bits;
    }
  }
}

// Symbol looks up a grid instead of searching the breakpoints. It must give
// exactly what the binary search gave, std::upper_bound over ForBits(bits),
// on every double: near every breakpoint, at the IEEE extremes and over
// random values, at every cardinality, value by value and in whole words.
TEST(Breakpoints, SymbolMatchesUpperBound) {
  const SaxBreakpoints& bp = SaxBreakpoints::Get();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  std::vector<double> values = {0.0,     -0.0,     kInf,     -kInf,
                                kMax,    -kMax,    kDenorm,  -kDenorm,
                                std::numeric_limits<double>::quiet_NaN()};
  // Every coarser breakpoint is also an 8-bit one.
  for (double b : bp.ForBits(kMaxCardinalityBits)) {
    double up = b, down = b;
    values.push_back(b);
    for (int ulp = 0; ulp < 4; ++ulp) {
      up = std::nextafter(up, kInf);
      down = std::nextafter(down, -kInf);
      values.push_back(up);
      values.push_back(down);
    }
  }
  Rng rng(17);
  for (int i = 0; i < 1000000; ++i) {
    values.push_back(rng.Gaussian());
    values.push_back(-5.0 + 10.0 * rng.Uniform());
  }
  SummaryOptions opts;
  opts.segments = 16;
  values.resize(values.size() / opts.segments * opts.segments);

  std::vector<uint8_t> expected(values.size()), word(values.size());
  for (unsigned bits = 1; bits <= kMaxCardinalityBits; ++bits) {
    const std::vector<double>& t = bp.ForBits(bits);
    size_t mismatches = 0;
    for (size_t i = 0; i < values.size(); ++i) {
      expected[i] = static_cast<uint8_t>(
          std::upper_bound(t.begin(), t.end(), values[i]) - t.begin());
      if (bp.Symbol(bits, values[i]) != expected[i] && ++mismatches <= 5) {
        ADD_FAILURE() << "bits " << bits << " value " << values[i]
                      << " symbol " << bp.Symbol(bits, values[i])
                      << " expected " << int{expected[i]};
      }
    }
    EXPECT_EQ(mismatches, 0u) << "bits " << bits;
    opts.cardinality_bits = bits;
    for (size_t i = 0; i < values.size(); i += opts.segments) {
      SaxFromPaa(values.data() + i, opts, word.data() + i);
    }
    EXPECT_TRUE(word == expected) << "SaxFromPaa words, bits " << bits;
  }
}

TEST(Paa, AveragesSegments) {
  const std::vector<Value> s = {1, 1, 3, 3, -2, -2, 0, 8};
  std::vector<double> paa(4);
  PaaTransform(s.data(), s.size(), 4, paa.data());
  EXPECT_DOUBLE_EQ(paa[0], 1.0);
  EXPECT_DOUBLE_EQ(paa[1], 3.0);
  EXPECT_DOUBLE_EQ(paa[2], -2.0);
  EXPECT_DOUBLE_EQ(paa[3], 4.0);
}

TEST(Paa, SingleSegmentIsMean) {
  const std::vector<Value> s = {2, 4, 6, 8};
  std::vector<double> paa(1);
  PaaTransform(s.data(), s.size(), 1, paa.data());
  EXPECT_DOUBLE_EQ(paa[0], 5.0);
}

SummaryOptions SmallOpts() {
  SummaryOptions o;
  o.series_length = 64;
  o.segments = 8;
  o.cardinality_bits = 8;
  return o;
}

TEST(InvSax, RoundTripsRandomWords) {
  SummaryOptions opts = SmallOpts();
  Rng rng(11);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> sax(opts.segments);
    for (auto& s : sax) s = static_cast<uint8_t>(rng.UniformInt(256));
    const ZKey key = InvSaxFromSax(sax.data(), opts);
    std::vector<uint8_t> back(opts.segments);
    SaxFromInvSax(key, opts, back.data());
    EXPECT_EQ(back, sax);
  }
}

TEST(InvSax, RoundTripsAtAllConfigurations) {
  Rng rng(17);
  for (unsigned bits = 1; bits <= 8; ++bits) {
    for (size_t segs : {1, 4, 16, 32}) {
      SummaryOptions opts;
      opts.series_length = 256;
      opts.segments = segs;
      opts.cardinality_bits = bits;
      ASSERT_TRUE(opts.Validate().ok());
      std::vector<uint8_t> sax(segs);
      for (auto& s : sax) {
        s = static_cast<uint8_t>(rng.UniformInt(1ull << bits));
      }
      const ZKey key = InvSaxFromSax(sax.data(), opts);
      std::vector<uint8_t> back(segs);
      SaxFromInvSax(key, opts, back.data());
      EXPECT_EQ(back, sax) << "bits=" << bits << " segs=" << segs;
    }
  }
}

// The definition of invSAX (paper Algorithm 1) as one bit at a time: key bit
// (level * w + j) is bit (b - 1 - level) of symbol j. The kernel in
// invsax.cc must agree with it in both directions, not only round-trip.
ZKey ReferenceInvSax(const uint8_t* sax, const SummaryOptions& opts) {
  ZKey key;
  const unsigned b = opts.cardinality_bits;
  size_t pos = 0;
  for (unsigned level = 0; level < b; ++level) {
    for (size_t j = 0; j < opts.segments; ++j, ++pos) {
      if ((sax[j] >> (b - 1 - level)) & 1u) key.SetBit(pos);
    }
  }
  return key;
}

void ReferenceSax(const ZKey& key, const SummaryOptions& opts, uint8_t* out) {
  const unsigned b = opts.cardinality_bits;
  std::fill(out, out + opts.segments, uint8_t{0});
  size_t pos = 0;
  for (unsigned level = 0; level < b; ++level) {
    for (size_t j = 0; j < opts.segments; ++j, ++pos) {
      if (key.GetBit(pos)) {
        out[j] = static_cast<uint8_t>(out[j] | (1u << (b - 1 - level)));
      }
    }
  }
}

TEST(InvSax, MatchesBitLoopReferenceAtEveryConfiguration) {
  std::vector<size_t> seg_counts;
  for (size_t s = 1; s <= 33; ++s) seg_counts.push_back(s);
  for (size_t s : {48, 64, 100, 128, 255, 256}) seg_counts.push_back(s);
  Rng rng(23);
  size_t configs = 0;
  for (size_t segs : seg_counts) {
    for (unsigned bits = 1; bits <= 8; ++bits) {
      SummaryOptions opts;
      opts.series_length = segs;
      opts.segments = segs;
      opts.cardinality_bits = bits;
      if (!opts.Validate().ok()) continue;  // over the 256-bit key
      ++configs;
      const unsigned max_symbol = (1u << bits) - 1;
      for (int trial = 0; trial < 66; ++trial) {
        // Symbols: all zero, all max, then random ones.
        std::vector<uint8_t> sax(segs);
        for (auto& s : sax) {
          s = static_cast<uint8_t>(trial == 0   ? 0
                                   : trial == 1 ? max_symbol
                                                : rng.UniformInt(max_symbol + 1));
        }
        const ZKey want = ReferenceInvSax(sax.data(), opts);
        ASSERT_EQ(InvSaxFromSax(sax.data(), opts), want)
            << "segs=" << segs << " bits=" << bits << " trial=" << trial;

        // Keys: all zero, all ones over key_bits, then random key_bits
        // prefixes (bits past key_bits are zero in every stored key).
        ZKey key;
        for (size_t pos = 0; pos < opts.key_bits(); ++pos) {
          if (trial == 1 || (trial > 1 && rng.UniformInt(2) == 1)) {
            key.SetBit(pos);
          }
        }
        std::vector<uint8_t> got(segs, 0xAA), ref(segs);
        SaxFromInvSax(key, opts, got.data());
        ReferenceSax(key, opts, ref.data());
        ASSERT_EQ(got, ref)
            << "segs=" << segs << " bits=" << bits << " trial=" << trial;
      }
    }
  }
  // 39 segment counts; the widest ones admit only low bit widths.
  EXPECT_EQ(configs, 278u);
}

TEST(InvSax, InterleavingPutsLevelBitsFirst) {
  // Paper Algorithm 1: the first w key bits are the most significant bits
  // of the w segments, in segment order.
  SummaryOptions opts = SmallOpts();
  std::vector<uint8_t> sax(opts.segments, 0);
  sax[3] = 0x80;  // only segment 3 has its top bit set
  const ZKey key = InvSaxFromSax(sax.data(), opts);
  for (size_t pos = 0; pos < opts.key_bits(); ++pos) {
    EXPECT_EQ(key.GetBit(pos), pos == 3 ? 1u : 0u) << "pos " << pos;
  }
}

TEST(InvSax, PaperFigure2Example) {
  // Paper Figure 2/4: S1=ec, S2=ee, S3=fc, S4=ge with 3-bit symbols
  // (a=000 ... h=111). Lexicographic SAX order is S1,S2,S3,S4; z-order must
  // instead put the similar pairs (S1,S3) and (S2,S4) adjacent.
  SummaryOptions opts;
  opts.series_length = 16;
  opts.segments = 2;
  opts.cardinality_bits = 3;
  auto word = [](uint8_t a, uint8_t b) { return std::vector<uint8_t>{a, b}; };
  const auto s1 = word(4, 2);  // e c
  const auto s2 = word(4, 4);  // e e
  const auto s3 = word(5, 2);  // f c
  const auto s4 = word(6, 4);  // g e
  std::vector<std::pair<ZKey, int>> keys = {
      {InvSaxFromSax(s1.data(), opts), 1},
      {InvSaxFromSax(s2.data(), opts), 2},
      {InvSaxFromSax(s3.data(), opts), 3},
      {InvSaxFromSax(s4.data(), opts), 4},
  };
  std::sort(keys.begin(), keys.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // Expected z-order: S1 (100,010), S3 (101,010), S2 (100,100), S4 (110,100).
  EXPECT_EQ(keys[0].second, 1);
  EXPECT_EQ(keys[1].second, 3);
  EXPECT_EQ(keys[2].second, 2);
  EXPECT_EQ(keys[3].second, 4);
}

class MindistPropertyTest : public ::testing::TestWithParam<DatasetKind> {};

TEST_P(MindistPropertyTest, SaxMindistLowerBoundsTrueDistance) {
  SummaryOptions opts;
  opts.series_length = 128;
  opts.segments = 16;
  opts.cardinality_bits = 8;
  auto gen = MakeGenerator(GetParam(), opts.series_length, 99);
  Series q(opts.series_length), x(opts.series_length);
  std::vector<double> qpaa(opts.segments);
  std::vector<uint8_t> xsax(opts.segments);
  for (int trial = 0; trial < 300; ++trial) {
    gen->Next(q.data());
    gen->Next(x.data());
    PaaTransform(q.data(), opts.series_length, opts.segments, qpaa.data());
    SaxFromSeries(x.data(), opts, xsax.data());
    const double lb = MindistSqPaaToSax(qpaa.data(), xsax.data(), opts);
    const double actual = SquaredEuclidean(q.data(), x.data(),
                                           opts.series_length);
    EXPECT_LE(lb, actual + 1e-6);
  }
}

TEST_P(MindistPropertyTest, PaaMindistLowerBoundsTrueDistance) {
  SummaryOptions opts;
  opts.series_length = 128;
  opts.segments = 16;
  auto gen = MakeGenerator(GetParam(), opts.series_length, 123);
  Series q(opts.series_length), x(opts.series_length);
  std::vector<double> qpaa(opts.segments), xpaa(opts.segments);
  for (int trial = 0; trial < 300; ++trial) {
    gen->Next(q.data());
    gen->Next(x.data());
    PaaTransform(q.data(), opts.series_length, opts.segments, qpaa.data());
    PaaTransform(x.data(), opts.series_length, opts.segments, xpaa.data());
    const double lb = MindistSqPaaToPaa(qpaa.data(), xpaa.data(), opts);
    const double actual = SquaredEuclidean(q.data(), x.data(),
                                           opts.series_length);
    EXPECT_LE(lb, actual + 1e-6);
  }
}

TEST_P(MindistPropertyTest, PrefixMindistWeakensMonotonically) {
  // Fewer prefix bits -> looser (smaller or equal) bound, and every prefix
  // bound still lower-bounds the true distance.
  SummaryOptions opts;
  opts.series_length = 128;
  opts.segments = 16;
  opts.cardinality_bits = 8;
  auto gen = MakeGenerator(GetParam(), opts.series_length, 321);
  Series q(opts.series_length), x(opts.series_length);
  std::vector<double> qpaa(opts.segments);
  std::vector<uint8_t> xsax(opts.segments);
  for (int trial = 0; trial < 100; ++trial) {
    gen->Next(q.data());
    gen->Next(x.data());
    PaaTransform(q.data(), opts.series_length, opts.segments, qpaa.data());
    SaxFromSeries(x.data(), opts, xsax.data());
    const double actual = SquaredEuclidean(q.data(), x.data(),
                                           opts.series_length);
    double prev = -1.0;
    for (unsigned p = 0; p <= 8; ++p) {
      std::vector<uint8_t> prefix_bits(opts.segments,
                                       static_cast<uint8_t>(p));
      const double lb = MindistSqPaaToSaxPrefix(qpaa.data(), xsax.data(),
                                                prefix_bits.data(), opts);
      EXPECT_GE(lb, prev - 1e-9) << "prefix bits " << p;
      EXPECT_LE(lb, actual + 1e-6);
      prev = lb;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, MindistPropertyTest,
                         ::testing::Values(DatasetKind::kRandomWalk,
                                           DatasetKind::kSeismic,
                                           DatasetKind::kAstronomy),
                         [](const auto& info) {
                           return DatasetKindName(info.param);
                         });

TEST(Mindist, RectBoundMatchesSaxRegionBound) {
  SummaryOptions opts = SmallOpts();
  Rng rng(5);
  const SaxBreakpoints& bp = SaxBreakpoints::Get();
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> qpaa(opts.segments);
    std::vector<uint8_t> sax(opts.segments);
    std::vector<double> lo(opts.segments), hi(opts.segments);
    for (size_t j = 0; j < opts.segments; ++j) {
      qpaa[j] = 3.0 * rng.Gaussian();
      sax[j] = static_cast<uint8_t>(rng.UniformInt(256));
      lo[j] = bp.RegionLower(8, sax[j]);
      hi[j] = bp.RegionUpper(8, sax[j]);
    }
    EXPECT_NEAR(MindistSqPaaToSax(qpaa.data(), sax.data(), opts),
                MindistSqPaaToRect(qpaa.data(), lo.data(), hi.data(), opts),
                1e-9);
  }
}

TEST(Sax, QuantileBreakpointsSpreadSymbolsAcrossAlphabet) {
  // The breakpoints follow the normal distribution precisely so that
  // z-normalized data occupies all regions (paper §2: "an approximately
  // equal distribution of the raw data series values across the regions").
  // Each quarter of the alphabet should carry a meaningful share of mass.
  SummaryOptions opts;
  opts.series_length = 256;
  opts.segments = 16;
  opts.cardinality_bits = 8;
  RandomWalkGenerator gen(opts.series_length, 77);
  Series s(opts.series_length);
  std::vector<uint8_t> sax(opts.segments);
  size_t quarter[4] = {0, 0, 0, 0};
  size_t total = 0;
  for (int i = 0; i < 200; ++i) {
    gen.Next(s.data());
    SaxFromSeries(s.data(), opts, sax.data());
    for (uint8_t sym : sax) {
      ++total;
      ++quarter[sym / 64];
    }
  }
  for (int q = 0; q < 4; ++q) {
    EXPECT_GT(static_cast<double>(quarter[q]) / total, 0.10)
        << "alphabet quarter " << q << " nearly unused";
    EXPECT_LT(static_cast<double>(quarter[q]) / total, 0.45)
        << "alphabet quarter " << q << " dominates";
  }
}

}  // namespace
}  // namespace coconut
