// FNV-1a hashing for dictionary/dedup maps and the query cache.
#ifndef SRC_COMMON_HASH_H_
#define SRC_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace loggrep {

inline constexpr uint64_t kFnv1a64Offset = 0xCBF29CE484222325ULL;

inline uint64_t Fnv1a64(std::string_view data, uint64_t seed = kFnv1a64Offset) {
  uint64_t h = seed;
  for (char c : data) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

// Chains one line into the running content hash `h`: the line's bytes, then
// one '\n'. Lines never contain '\n', so the chain over a block's lines,
// started at kFnv1a64Offset, is unambiguous (a block's content_hash).
inline uint64_t Fnv1a64Line(uint64_t h, std::string_view line) {
  return Fnv1a64("\n", Fnv1a64(line, h));
}

}  // namespace loggrep

#endif  // SRC_COMMON_HASH_H_
