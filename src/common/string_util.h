// Small string helpers shared across the parser, extractor and query engine.
#ifndef SRC_COMMON_STRING_UTIL_H_
#define SRC_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace loggrep {

inline bool IsAsciiDigit(char c) { return c >= '0' && c <= '9'; }
inline bool IsAsciiAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
inline bool IsAsciiAlnum(char c) { return IsAsciiDigit(c) || IsAsciiAlpha(c); }

// Splits on any character of `delims`; empty pieces are dropped.
std::vector<std::string_view> SplitNonEmpty(std::string_view text,
                                            std::string_view delims);

// Splits on a single delimiter character, keeping empty pieces.
std::vector<std::string_view> SplitKeepEmpty(std::string_view text, char delim);

// Longest common substring of `a` and `b` (first leftmost-in-`a` maximum).
// O(|a|*|b|) dynamic programming — only ever run on two sampled values.
std::string_view LongestCommonSubstring(std::string_view a, std::string_view b);

// All distinct non-alphanumeric characters of `s`, in first-occurrence order.
std::string DistinctNonAlnumChars(std::string_view s);

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

// Parses all of `text` as a decimal uint64: digits only (no sign, no
// space, no trailing bytes), and no overflow. Returns false on anything
// else and leaves `out` untouched.
bool ParseUint64(std::string_view text, uint64_t* out);

// Population variance of the lengths of `values` (paper's "length variance").
double LengthVariance(const std::vector<std::string>& values);

}  // namespace loggrep

#endif  // SRC_COMMON_STRING_UTIL_H_
