// Six-bit character-class masks used for Capsule stamps and summary filtering.
//
// The paper (§2.2, §4.3) represents the "type number" of a value set with six
// bits, one per character group: 0-9, a-f, A-F, g-z, G-Z, and "other".
// A keyword (sub)string K can possibly occur inside a Capsule with mask C only
// if (K & C) == K, i.e. every character class present in the keyword is also
// present in the Capsule.
#ifndef SRC_COMMON_CHARCLASS_H_
#define SRC_COMMON_CHARCLASS_H_

#include <cstdint>
#include <string_view>

namespace loggrep {

using TypeMask = uint8_t;

inline constexpr TypeMask kMaskDigit = 1u << 0;     // 0-9
inline constexpr TypeMask kMaskHexLower = 1u << 1;  // a-f
inline constexpr TypeMask kMaskHexUpper = 1u << 2;  // A-F
inline constexpr TypeMask kMaskAlphaLower = 1u << 3;  // g-z
inline constexpr TypeMask kMaskAlphaUpper = 1u << 4;  // G-Z
inline constexpr TypeMask kMaskOther = 1u << 5;     // everything else
inline constexpr TypeMask kMaskAll = 0x3F;

// Class of a single character.
TypeMask CharClassOf(char c);

// Union of classes over all characters of `s`; 0 for the empty string.
TypeMask TypeMaskOf(std::string_view s);

// True iff every character class used by `keyword` is available in `capsule`:
// the stamp check "K & C == K" from §5.1.
inline bool MaskSubsumes(TypeMask capsule, TypeMask keyword) {
  return (keyword & capsule) == keyword;
}

// Number of distinct character classes set in the mask (paper reports e.g.
// "3.1 types of characters on average").
int MaskTypeCount(TypeMask mask);

}  // namespace loggrep

#endif  // SRC_COMMON_CHARCLASS_H_
