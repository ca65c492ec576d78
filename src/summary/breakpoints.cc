#include "src/summary/breakpoints.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace coconut {

namespace {

// The 8-bit symbol of `value` through the grid described in breakpoints.h.
inline uint32_t GridSymbol(const uint8_t* grid, const double* padded,
                           double lowest, double scale, double top,
                           double value) {
  double f = (value - lowest) * scale;
  f = f < top ? f : top;  // NaN fails the compare and takes `top`
  f = f > 0.0 ? f : 0.0;
  uint32_t s = grid[static_cast<uint32_t>(f)];
  s += padded[s] <= value;
  s += padded[s] <= value;
  return s;
}

}  // namespace

double InverseNormalCdf(double p) {
  // Acklam's algorithm: rational approximations on a central region and two
  // tails, in terms of p or sqrt(-2 ln p).
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double p_low = 0.02425;
  const double p_high = 1 - p_low;

  if (p <= 0.0) return -HUGE_VAL;
  if (p >= 1.0) return HUGE_VAL;

  if (p < p_low) {
    const double q = std::sqrt(-2 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  if (p <= p_high) {
    const double q = p - 0.5;
    const double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1);
  }
  const double q = std::sqrt(-2 * std::log(1 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
}

SaxBreakpoints::SaxBreakpoints() {
  tables_.resize(kMaxCardinalityBits + 1);
  edges_.resize(kMaxCardinalityBits + 1);
  for (unsigned bits = 1; bits <= kMaxCardinalityBits; ++bits) {
    const uint32_t card = 1u << bits;
    std::vector<double>& t = tables_[bits];
    t.resize(card - 1);
    for (uint32_t i = 0; i + 1 < card; ++i) {
      t[i] = InverseNormalCdf(static_cast<double>(i + 1) / card);
    }
    std::vector<double>& e = edges_[bits];
    e.resize(card + 1);
    e.front() = -HUGE_VAL;
    for (uint32_t i = 0; i + 1 < card; ++i) e[i + 1] = t[i];
    e.back() = HUGE_VAL;
  }

  const std::vector<double>& t = tables_[kMaxCardinalityBits];
  std::copy(t.begin(), t.end(), padded_.begin());
  padded_.back() = std::numeric_limits<double>::quiet_NaN();
  grid_lowest_ = t.front();
  const double step = (t.back() - t.front()) / (kGridBuckets - 1);
  grid_scale_ = 1.0 / step;
  grid_[0] = 0;
  for (uint32_t i = 1; i < kGridBuckets; ++i) {
    const double edge = grid_lowest_ + (i - 1) * step;
    grid_[i] = static_cast<uint8_t>(
        std::upper_bound(t.begin(), t.end(), edge) - t.begin());
  }
  grid_[kGridBuckets] = static_cast<uint8_t>(t.size());
}

const SaxBreakpoints& SaxBreakpoints::Get() {
  static const SaxBreakpoints instance;
  return instance;
}

double SaxBreakpoints::RegionLower(unsigned bits, uint32_t symbol) const {
  if (symbol == 0) return -HUGE_VAL;
  return tables_[bits][symbol - 1];
}

double SaxBreakpoints::RegionUpper(unsigned bits, uint32_t symbol) const {
  const std::vector<double>& t = tables_[bits];
  if (symbol >= t.size()) return HUGE_VAL;
  return t[symbol];
}

uint32_t SaxBreakpoints::Symbol(unsigned bits, double value) const {
  return GridSymbol(grid_.data(), padded_.data(), grid_lowest_, grid_scale_,
                    kGridBuckets, value) >>
         (kMaxCardinalityBits - bits);
}

void SaxBreakpoints::Symbols(unsigned bits, const double* values, size_t n,
                             uint8_t* out) const {
  // Locals, not members: a byte store through `out` may alias *this, so
  // members read inside the loop would be reloaded for every value.
  const uint8_t* grid = grid_.data();
  const double* padded = padded_.data();
  const double lowest = grid_lowest_;
  const double scale = grid_scale_;
  const unsigned shift = kMaxCardinalityBits - bits;
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(
        GridSymbol(grid, padded, lowest, scale, kGridBuckets, values[i]) >>
        shift);
  }
}

}  // namespace coconut
