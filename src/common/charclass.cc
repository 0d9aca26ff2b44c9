#include "src/common/charclass.h"

#include <array>
#include <bit>

#include "src/common/simd.h"

#if defined(__x86_64__) || defined(__i386__)
#define LOGGREP_CHARCLASS_X86 1
#include <immintrin.h>
#else
#define LOGGREP_CHARCLASS_X86 0
#endif

namespace loggrep {
namespace {

constexpr std::array<TypeMask, 256> BuildTable() {
  std::array<TypeMask, 256> table{};
  for (int i = 0; i < 256; ++i) {
    const char c = static_cast<char>(i);
    if (c >= '0' && c <= '9') {
      table[i] = kMaskDigit;
    } else if (c >= 'a' && c <= 'f') {
      table[i] = kMaskHexLower;
    } else if (c >= 'A' && c <= 'F') {
      table[i] = kMaskHexUpper;
    } else if (c >= 'g' && c <= 'z') {
      table[i] = kMaskAlphaLower;
    } else if (c >= 'G' && c <= 'Z') {
      table[i] = kMaskAlphaUpper;
    } else {
      table[i] = kMaskOther;
    }
  }
  return table;
}

constexpr std::array<TypeMask, 256> kTable = BuildTable();

TypeMask TypeMaskOfScalar(const char* p, size_t n, TypeMask mask) {
  for (size_t i = 0; i < n; ++i) {
    mask |= kTable[static_cast<unsigned char>(p[i])];
    if (mask == kMaskAll) {
      break;
    }
  }
  return mask;
}

#if LOGGREP_CHARCLASS_X86

// The five character ranges of the §4.3 type number, as (lo, hi, bit).
// Everything outside all five is kMaskOther. All range bounds are < 0x80, so
// signed byte compares classify bytes >= 0x80 as "other" for free (they
// compare negative and fall outside every range).
struct ClassRange {
  char lo;
  char hi;
  TypeMask bit;
};
constexpr ClassRange kRanges[5] = {
    {'0', '9', kMaskDigit},      {'a', 'f', kMaskHexLower},
    {'A', 'F', kMaskHexUpper},   {'g', 'z', kMaskAlphaLower},
    {'G', 'Z', kMaskAlphaUpper},
};

TypeMask TypeMaskOfSse2(const char* p, size_t n, TypeMask mask) {
  size_t i = 0;
  for (; i + 16 <= n && mask != kMaskAll; i += 16) {
    const __m128i c = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i));
    __m128i in_any = _mm_setzero_si128();
    for (const ClassRange& r : kRanges) {
      const __m128i ge = _mm_cmpgt_epi8(c, _mm_set1_epi8(r.lo - 1));
      const __m128i le = _mm_cmpgt_epi8(_mm_set1_epi8(r.hi + 1), c);
      const __m128i in = _mm_and_si128(ge, le);
      if (_mm_movemask_epi8(in) != 0) {
        mask |= r.bit;
      }
      in_any = _mm_or_si128(in_any, in);
    }
    if (_mm_movemask_epi8(in_any) != 0xFFFF) {
      mask |= kMaskOther;
    }
  }
  return TypeMaskOfScalar(p + i, n - i, mask);
}

__attribute__((target("avx2"))) TypeMask TypeMaskOfAvx2(const char* p, size_t n,
                                                        TypeMask mask) {
  size_t i = 0;
  for (; i + 32 <= n && mask != kMaskAll; i += 32) {
    const __m256i c =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    __m256i in_any = _mm256_setzero_si256();
    for (const ClassRange& r : kRanges) {
      const __m256i ge = _mm256_cmpgt_epi8(c, _mm256_set1_epi8(r.lo - 1));
      const __m256i le = _mm256_cmpgt_epi8(_mm256_set1_epi8(r.hi + 1), c);
      const __m256i in = _mm256_and_si256(ge, le);
      if (_mm256_movemask_epi8(in) != 0) {
        mask |= r.bit;
      }
      in_any = _mm256_or_si256(in_any, in);
    }
    if (_mm256_movemask_epi8(in_any) != -1) {
      mask |= kMaskOther;
    }
  }
  return TypeMaskOfSse2(p + i, n - i, mask);
}

#endif  // LOGGREP_CHARCLASS_X86

}  // namespace

TypeMask CharClassOf(char c) { return kTable[static_cast<unsigned char>(c)]; }

TypeMask TypeMaskOf(std::string_view s) {
#if LOGGREP_CHARCLASS_X86
  if (s.size() >= 16) {
    switch (ActiveSimdTier()) {
      case SimdTier::kAvx2:
        return TypeMaskOfAvx2(s.data(), s.size(), 0);
      case SimdTier::kSse2:
        return TypeMaskOfSse2(s.data(), s.size(), 0);
      case SimdTier::kScalar:
        break;
    }
  }
#endif
  return TypeMaskOfScalar(s.data(), s.size(), 0);
}

int MaskTypeCount(TypeMask mask) { return std::popcount(static_cast<unsigned>(mask)); }

}  // namespace loggrep
