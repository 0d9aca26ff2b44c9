// Binary range coder with adaptive probability models (LZMA-style).
//
// Probabilities are 11-bit adaptive counters updated with shift-by-5 decay.
// The encoder uses the classic carry-propagating low/cache scheme; the
// decoder mirrors it with a 32-bit code register. Bit-tree helpers code
// fixed-width symbols MSB-first through a tree of bit models.
#ifndef SRC_CODEC_RANGE_CODER_H_
#define SRC_CODEC_RANGE_CODER_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace loggrep {

using BitProb = uint16_t;
inline constexpr BitProb kProbInit = 1024;  // p(bit=0) = 0.5 in 11-bit scale
inline constexpr int kProbBits = 11;
inline constexpr int kMoveBits = 5;  // adaptation rate: 1/32 per coded bit
inline constexpr uint32_t kTopValue = 1u << 24;  // renormalization threshold

class RangeEncoder {
 public:
  void EncodeBit(BitProb& prob, int bit);
  // `nbits` uniform bits, MSB first.
  void EncodeDirectBits(uint32_t value, int nbits);
  std::string Finish();

 private:
  void ShiftLow();

  std::string out_;
  uint64_t low_ = 0;
  uint32_t range_ = 0xFFFFFFFFu;
  uint8_t cache_ = 0;
  uint64_t cache_size_ = 1;
};

class RangeDecoder {
 public:
  explicit RangeDecoder(std::string_view in);

  // Hot path of every range-coded decode: inline, one predictable
  // normalization branch per bit.
  int DecodeBit(BitProb& prob) {
    const uint32_t bound = (range_ >> kProbBits) * prob;
    int bit;
    if (code_ < bound) {
      range_ = bound;
      prob += static_cast<BitProb>(((1u << kProbBits) - prob) >> kMoveBits);
      bit = 0;
    } else {
      code_ -= bound;
      range_ -= bound;
      prob -= static_cast<BitProb>(prob >> kMoveBits);
      bit = 1;
    }
    Normalize();
    return bit;
  }

  uint32_t DecodeDirectBits(int nbits) {
    uint32_t result = 0;
    for (int i = 0; i < nbits; ++i) {
      range_ >>= 1;
      code_ -= range_;
      const uint32_t t = 0u - (code_ >> 31);  // all-ones when code_ underflowed
      code_ += range_ & t;
      result = (result << 1) + (t + 1);
      Normalize();
    }
    return result;
  }

  // True when the decoder has consumed bytes past the input (corrupt data).
  bool Overran() const { return overran_; }

 private:
  uint8_t NextByte() {
    if (next_ != end_) {
      return *next_++;
    }
    overran_ = true;
    return 0;
  }

  void Normalize() {
    while (range_ < kTopValue) {
      range_ <<= 8;
      code_ = (code_ << 8) | NextByte();
    }
  }

  const uint8_t* next_;
  const uint8_t* end_;
  uint32_t range_ = 0xFFFFFFFFu;
  uint32_t code_ = 0;
  bool overran_ = false;
};

// Bit-tree coding of `nbits`-wide symbols, MSB first; `probs` must hold
// 1 << nbits entries initialized to kProbInit. The decoder takes the width
// as a compile-time constant so its loop fully unrolls.
void EncodeBitTree(RangeEncoder& rc, BitProb* probs, int nbits, uint32_t symbol);
template <int kBits>
inline uint32_t DecodeBitTree(RangeDecoder& rc, BitProb* probs) {
  uint32_t m = 1;
  for (int i = 0; i < kBits; ++i) {
    m = (m << 1) | static_cast<uint32_t>(rc.DecodeBit(probs[m]));
  }
  return m - (1u << kBits);
}

}  // namespace loggrep

#endif  // SRC_CODEC_RANGE_CODER_H_
