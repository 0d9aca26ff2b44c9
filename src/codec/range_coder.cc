#include "src/codec/range_coder.h"

namespace loggrep {

void RangeEncoder::ShiftLow() {
  if (low_ < 0xFF000000ull || low_ > 0xFFFFFFFFull) {
    const uint8_t carry = static_cast<uint8_t>(low_ >> 32);
    do {
      out_.push_back(static_cast<char>(cache_ + carry));
      cache_ = 0xFF;
    } while (--cache_size_ != 0);
    cache_ = static_cast<uint8_t>((low_ >> 24) & 0xFF);
  }
  ++cache_size_;
  low_ = (low_ << 8) & 0xFFFFFFFFull;
}

void RangeEncoder::EncodeBit(BitProb& prob, int bit) {
  const uint32_t bound = (range_ >> kProbBits) * prob;
  if (bit == 0) {
    range_ = bound;
    prob += static_cast<BitProb>(((1u << kProbBits) - prob) >> kMoveBits);
  } else {
    low_ += bound;
    range_ -= bound;
    prob -= static_cast<BitProb>(prob >> kMoveBits);
  }
  while (range_ < kTopValue) {
    range_ <<= 8;
    ShiftLow();
  }
}

void RangeEncoder::EncodeDirectBits(uint32_t value, int nbits) {
  for (int i = nbits - 1; i >= 0; --i) {
    range_ >>= 1;
    if ((value >> i) & 1u) {
      low_ += range_;
    }
    while (range_ < kTopValue) {
      range_ <<= 8;
      ShiftLow();
    }
  }
}

std::string RangeEncoder::Finish() {
  for (int i = 0; i < 5; ++i) {
    ShiftLow();
  }
  return std::move(out_);
}

RangeDecoder::RangeDecoder(std::string_view in)
    : next_(reinterpret_cast<const uint8_t*>(in.data())),
      end_(reinterpret_cast<const uint8_t*>(in.data()) + in.size()) {
  NextByte();  // the encoder's initial zero cache byte
  for (int i = 0; i < 4; ++i) {
    code_ = (code_ << 8) | NextByte();
  }
}

void EncodeBitTree(RangeEncoder& rc, BitProb* probs, int nbits, uint32_t symbol) {
  uint32_t m = 1;
  for (int i = nbits - 1; i >= 0; --i) {
    const int bit = static_cast<int>((symbol >> i) & 1u);
    rc.EncodeBit(probs[m], bit);
    m = (m << 1) | static_cast<uint32_t>(bit);
  }
}

}  // namespace loggrep
