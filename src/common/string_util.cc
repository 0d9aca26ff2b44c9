#include "src/common/string_util.h"

#include <algorithm>
#include <array>
#include <charconv>

namespace loggrep {

std::vector<std::string_view> SplitNonEmpty(std::string_view text,
                                            std::string_view delims) {
  std::array<bool, 256> is_delim{};
  for (char d : delims) {
    is_delim[static_cast<unsigned char>(d)] = true;
  }
  std::vector<std::string_view> out;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || is_delim[static_cast<unsigned char>(text[i])]) {
      if (i > start) {
        out.push_back(text.substr(start, i - start));
      }
      start = i + 1;
    }
  }
  return out;
}

bool ParseUint64(std::string_view text, uint64_t* out) {
  // from_chars takes no sign or space for unsigned types and fails on an
  // empty string; a partly-parsed string fails the full-length check.
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  const std::from_chars_result parsed =
      std::from_chars(text.data(), end, value);
  if (parsed.ec != std::errc() || parsed.ptr != end) {
    return false;
  }
  *out = value;
  return true;
}

std::vector<std::string_view> SplitKeepEmpty(std::string_view text, char delim) {
  std::vector<std::string_view> out;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == delim) {
      out.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view LongestCommonSubstring(std::string_view a, std::string_view b) {
  if (a.empty() || b.empty()) {
    return {};
  }
  // Rolling single-row DP: row[j] = length of common suffix of a[..i], b[..j].
  std::vector<uint32_t> row(b.size() + 1, 0);
  size_t best_len = 0;
  size_t best_end_in_a = 0;
  for (size_t i = 1; i <= a.size(); ++i) {
    uint32_t prev_diag = 0;  // row[j-1] from the previous iteration of i
    for (size_t j = 1; j <= b.size(); ++j) {
      const uint32_t saved = row[j];
      if (a[i - 1] == b[j - 1]) {
        row[j] = prev_diag + 1;
        if (row[j] > best_len) {
          best_len = row[j];
          best_end_in_a = i;
        }
      } else {
        row[j] = 0;
      }
      prev_diag = saved;
    }
  }
  return a.substr(best_end_in_a - best_len, best_len);
}

std::string DistinctNonAlnumChars(std::string_view s) {
  std::array<bool, 256> seen{};
  std::string out;
  for (char c : s) {
    if (!IsAsciiAlnum(c) && !seen[static_cast<unsigned char>(c)]) {
      seen[static_cast<unsigned char>(c)] = true;
      out += c;
    }
  }
  return out;
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) {
      out += sep;
    }
    out += parts[i];
  }
  return out;
}

double LengthVariance(const std::vector<std::string>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double mean = 0.0;
  for (const std::string& v : values) {
    mean += static_cast<double>(v.size());
  }
  mean /= static_cast<double>(values.size());
  double var = 0.0;
  for (const std::string& v : values) {
    const double d = static_cast<double>(v.size()) - mean;
    var += d * d;
  }
  return var / static_cast<double>(values.size());
}

}  // namespace loggrep
