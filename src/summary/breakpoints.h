// SAX breakpoints: the value axis is discretized into regions whose
// boundaries are standard-normal quantiles, so that z-normalized values are
// approximately uniformly distributed over regions (paper §2, Figure 1).
//
// Breakpoints nest across cardinalities: the boundaries at cardinality 2^b
// are a subset of those at 2^(b+1), which is what makes iSAX's
// multi-resolution prefix semantics work (the b-bit symbol of a value is the
// top b bits of its (b+1)-bit symbol). The nesting is exact, not just close:
// breakpoint i at 2^b is InverseNormalCdf((i + 1) / 2^b), and that quotient
// is the same double as the finer levels' ((i + 1) * 2^k) / 2^(b+k), so
// every level holds bit-identical copies of the coarser levels' values.
//
// Quantizing (Symbol, Symbols) therefore looks up only the 8-bit symbol and
// shifts it down. The 8-bit lookup is a uniform grid, not a binary search:
//   - kGridBuckets buckets of width `step` start at the lowest breakpoint,
//     and step = (highest - lowest) / (kGridBuckets - 1), so the highest
//     breakpoint is the lower edge of the last bucket. A value's bucket is
//     (value - lowest) / step, clamped to [0, kGridBuckets]; the clamp is
//     written so that NaN lands in the top bucket, and the clamped double
//     is converted to an integer only once it is in range.
//   - Bucket i stores the symbol of the lower edge of bucket i - 1 (bucket
//     0 stores 0, and the top bucket, which holds only values above the
//     highest breakpoint and NaN, stores 255). Rounding moves a value's
//     bucket by far less than one bucket, so the stored symbol is a lower
//     bound on the symbol of every value that lands in the bucket.
//   - The step (0.0052) is below the smallest gap between 8-bit breakpoints
//     (0.0098, at the median). A value lies less than two steps above its
//     bucket's stored edge, so at most two breakpoints separate the two,
//     and two branch-free compares `bp[s] <= value` finish the count.
//   - The breakpoint array is padded with NaN at index 255, which the
//     compares never count. So a NaN value keeps the top bucket's 255, which
//     is what std::upper_bound returns for it.
// Cost: kGridBuckets + 1 bytes of grid plus 256 doubles, about 3 KiB.
#ifndef COCONUT_SUMMARY_BREAKPOINTS_H_
#define COCONUT_SUMMARY_BREAKPOINTS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace coconut {

/// Maximum symbol width supported (256 regions), the iSAX default.
inline constexpr unsigned kMaxCardinalityBits = 8;

/// Inverse standard-normal CDF (Acklam's rational approximation, relative
/// error < 1.15e-9 over (0,1)).
double InverseNormalCdf(double p);

/// Precomputed breakpoint tables for every cardinality 2^1 .. 2^kMax.
class SaxBreakpoints {
 public:
  /// Returns the process-wide table (built once, immutable afterwards).
  static const SaxBreakpoints& Get();

  /// Breakpoints for cardinality 2^bits: a sorted vector of 2^bits - 1
  /// values; region `s` covers [bp[s-1], bp[s]) with bp[-1] = -inf and
  /// bp[2^bits - 1] = +inf.
  const std::vector<double>& ForBits(unsigned bits) const {
    return tables_[bits];
  }

  /// Lower edge of region `symbol` at cardinality 2^bits (-HUGE_VAL for the
  /// lowest region).
  double RegionLower(unsigned bits, uint32_t symbol) const;

  /// Upper edge of region `symbol` at cardinality 2^bits (+HUGE_VAL for the
  /// highest region).
  double RegionUpper(unsigned bits, uint32_t symbol) const;

  /// Symbol (0-based, 0 = lowest region) of `value` at cardinality 2^bits:
  /// the number of breakpoints <= value, as std::upper_bound counts them
  /// (2^bits - 1 for NaN).
  uint32_t Symbol(unsigned bits, double value) const;

  /// Symbol(bits, values[i]) into out[i] for each i < n.
  void Symbols(unsigned bits, const double* values, size_t n,
               uint8_t* out) const;

  /// Flat region-edge table for cardinality 2^bits: 2^bits + 1 entries
  /// where region `s` spans [EdgeTable()[s], EdgeTable()[s + 1]], i.e.
  /// EdgeTable()[s] == RegionLower(bits, s) and EdgeTable()[s + 1] ==
  /// RegionUpper(bits, s); entry 0 is -HUGE_VAL and the last entry
  /// +HUGE_VAL. Feeds the table-gathered SIMD MINDIST kernels, which index
  /// it directly with the SAX byte.
  const double* EdgeTable(unsigned bits) const { return edges_[bits].data(); }

 private:
  SaxBreakpoints();
  // tables_[b] holds the breakpoints for cardinality 2^b; tables_[0] empty.
  std::vector<std::vector<double>> tables_;
  // edges_[b] holds the 2^b + 1 region edges (breakpoints plus -+inf ends).
  std::vector<std::vector<double>> edges_;

  // The 8-bit grid lookup (see the file comment).
  static constexpr uint32_t kGridBuckets = 1024;
  double grid_lowest_ = 0;  // the lowest 8-bit breakpoint
  double grid_scale_ = 0;   // buckets per unit of value, 1 / step
  std::array<uint8_t, kGridBuckets + 1> grid_{};
  std::array<double, 256> padded_{};  // 8-bit breakpoints, then NaN
};

}  // namespace coconut

#endif  // COCONUT_SUMMARY_BREAKPOINTS_H_
