// ZKey: a fixed-width 256-bit big-endian key used to hold z-order
// (bit-interleaved) data series summarizations — the paper's "invSAX".
//
// Keys compare lexicographically from the most significant bit, so sorting
// byte-serialized keys with memcmp and sorting ZKey values with operator<
// agree. 256 bits accommodate up to 32 segments at 8-bit cardinality; the
// paper's default configuration (16 segments x 8 bits) uses the top 128 bits.
#ifndef COCONUT_COMMON_ZKEY_H_
#define COCONUT_COMMON_ZKEY_H_

#include <array>
#include <compare>
#include <cstdint>
#include <cstring>
#include <string>

namespace coconut {

class ZKey {
 public:
  static constexpr size_t kBits = 256;
  static constexpr size_t kWords = kBits / 64;
  static constexpr size_t kBytes = kBits / 8;

  /// Constructs the all-zero key (minimum possible key).
  ZKey() : words_{} {}

  /// Builds a key from `kWords` words, `words[0]` the most significant.
  static ZKey FromWords(const uint64_t* words) {
    ZKey k;
    std::memcpy(k.words_.data(), words, kBytes);
    return k;
  }

  /// Returns the maximum possible key (all bits set).
  static ZKey Max() {
    ZKey k;
    k.words_.fill(~uint64_t{0});
    return k;
  }

  /// Sets bit `pos`, where pos 0 is the MOST significant bit of the key.
  void SetBit(size_t pos) {
    words_[pos / 64] |= (uint64_t{1} << (63 - (pos % 64)));
  }

  /// Clears bit `pos`, where pos 0 is the most significant bit.
  void ClearBit(size_t pos) {
    words_[pos / 64] &= ~(uint64_t{1} << (63 - (pos % 64)));
  }

  /// Returns bit `pos` (0 = most significant) as 0 or 1.
  uint32_t GetBit(size_t pos) const {
    return static_cast<uint32_t>(
        (words_[pos / 64] >> (63 - (pos % 64))) & 1u);
  }

  /// Lexicographic comparison from the most significant word down.
  friend std::strong_ordering operator<=>(const ZKey& a, const ZKey& b) {
    for (size_t i = 0; i < kWords; ++i) {
      if (a.words_[i] != b.words_[i]) {
        return a.words_[i] < b.words_[i] ? std::strong_ordering::less
                                         : std::strong_ordering::greater;
      }
    }
    return std::strong_ordering::equal;
  }
  friend bool operator==(const ZKey& a, const ZKey& b) {
    return a.words_ == b.words_;
  }

  /// Serializes to `kBytes` big-endian bytes such that memcmp order on the
  /// serialized form equals operator< order on keys.
  void SerializeBE(uint8_t* out) const {
    for (size_t i = 0; i < kWords; ++i) {
      uint64_t w = words_[i];
      for (size_t b = 0; b < 8; ++b) {
        out[i * 8 + b] = static_cast<uint8_t>(w >> (56 - 8 * b));
      }
    }
  }

  /// Parses a key previously produced by SerializeBE().
  static ZKey DeserializeBE(const uint8_t* in) {
    ZKey k;
    for (size_t i = 0; i < kWords; ++i) {
      uint64_t w = 0;
      for (size_t b = 0; b < 8; ++b) {
        w = (w << 8) | in[i * 8 + b];
      }
      k.words_[i] = w;
    }
    return k;
  }

  /// Length (in bits) of the common prefix of `a` and `b`, counted from the
  /// most significant bit. Equal keys return kBits.
  static size_t CommonPrefixBits(const ZKey& a, const ZKey& b) {
    for (size_t i = 0; i < kWords; ++i) {
      const uint64_t diff = a.words_[i] ^ b.words_[i];
      if (diff != 0) {
        return i * 64 + static_cast<size_t>(__builtin_clzll(diff));
      }
    }
    return kBits;
  }

  /// Hex rendering (most significant nibble first), for tests and debugging.
  std::string ToHex() const;

  const std::array<uint64_t, kWords>& words() const { return words_; }

 private:
  // words_[0] holds the most significant 64 bits.
  std::array<uint64_t, kWords> words_;
};

}  // namespace coconut

#endif  // COCONUT_COMMON_ZKEY_H_
