#include "src/summary/invsax.h"

#include <algorithm>
#include <array>

#include "src/summary/paa.h"
#include "src/summary/sax.h"

namespace coconut {

namespace {

constexpr uint64_t kLowBitOfEachByte = 0x0101010101010101ull;
// Multiplying a word whose bytes are 0 or 1 by this constant sums byte k's
// bit into bit (63 - k) with no carries (the partial products land on
// distinct bits), so the top byte holds byte 0's bit as its MSB.
constexpr uint64_t kGatherToTopByte = 0x8040201008040201ull;

// The inverse of the gather: byte k of kSpread[r] is bit (7 - k) of r.
constexpr std::array<uint64_t, 256> MakeSpreadTable() {
  std::array<uint64_t, 256> table{};
  for (unsigned r = 0; r < 256; ++r) {
    for (unsigned k = 0; k < 8; ++k) {
      table[r] |= uint64_t{(r >> (7 - k)) & 1u} << (8 * k);
    }
  }
  return table;
}
constexpr std::array<uint64_t, 256> kSpread = MakeSpreadTable();

// Words of a key plus one zero word, so a byte starting in the last word may
// spill past it without a bounds branch.
using PaddedWords = std::array<uint64_t, ZKey::kWords + 1>;

// Symbols sax[0..n) as the bytes of a word, byte k = sax[k] (n <= 8).
inline uint64_t LoadSymbols(const uint8_t* sax, size_t n) {
  uint64_t x = 0;
  for (size_t k = 0; k < n; ++k) x |= uint64_t{sax[k]} << (8 * k);
  return x;
}

inline void StoreSymbols(uint64_t x, size_t n, uint8_t* out) {
  for (size_t k = 0; k < n; ++k) out[k] = static_cast<uint8_t>(x >> (8 * k));
}

// ORs the 8-bit `byte` into the key at bit `pos` (0 = most significant), so
// that the byte's MSB lands on `pos`. The split shift keeps every shift
// count below 64 when the byte does not cross a word.
inline void OrByteAt(PaddedWords& words, size_t pos, uint64_t byte) {
  const size_t i = pos / 64;
  const unsigned o = static_cast<unsigned>(pos % 64);
  const uint64_t top = byte << 56;
  words[i] |= top >> o;
  words[i + 1] |= (top << 1) << (63 - o);
}

// The 8 key bits starting at bit `pos`, the first of them as the MSB.
inline unsigned ReadByteAt(const PaddedWords& words, size_t pos) {
  const size_t i = pos / 64;
  const unsigned o = static_cast<unsigned>(pos % 64);
  const uint64_t v = (words[i] << o) | ((words[i + 1] >> 1) >> (63 - o));
  return static_cast<unsigned>(v >> 56);
}

}  // namespace

ZKey InvSaxFromSax(const uint8_t* sax, const SummaryOptions& opts) {
  const unsigned b = opts.cardinality_bits;
  const size_t w = opts.segments;
  PaddedWords words{};
  for (size_t j0 = 0; j0 < w; j0 += 8) {
    const size_t n = std::min<size_t>(8, w - j0);
    const uint64_t x = LoadSymbols(sax + j0, n);
    for (unsigned level = 0; level < b; ++level) {
      const uint64_t plane =
          (((x >> (b - 1 - level)) & kLowBitOfEachByte) * kGatherToTopByte) >>
          56;
      OrByteAt(words, level * w + j0, plane);
    }
  }
  return ZKey::FromWords(words.data());
}

void SaxFromInvSax(const ZKey& key, const SummaryOptions& opts, uint8_t* out) {
  const unsigned b = opts.cardinality_bits;
  const size_t w = opts.segments;
  PaddedWords words{};
  std::copy(key.words().begin(), key.words().end(), words.begin());
  for (size_t j0 = 0; j0 < w; j0 += 8) {
    const size_t n = std::min<size_t>(8, w - j0);
    uint64_t x = 0;
    // Bits past the group's n segments belong to the next level (or are
    // padding); they fill bytes n..7 of x, which are not stored.
    for (unsigned level = 0; level < b; ++level) {
      x |= kSpread[ReadByteAt(words, level * w + j0)] << (b - 1 - level);
    }
    StoreSymbols(x, n, out + j0);
  }
}

ZKey InvSaxFromSeries(const Value* series, const SummaryOptions& opts) {
  // Every segment holds at least one key bit, so a key bounds the segments.
  uint8_t sax[ZKey::kBits];
  SaxFromSeries(series, opts, sax);
  return InvSaxFromSax(sax, opts);
}

}  // namespace coconut
