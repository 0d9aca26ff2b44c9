#include <gtest/gtest.h>

#include <string>

#include "src/common/bytes.h"
#include "src/common/charclass.h"
#include "src/common/hash.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/rowset.h"
#include "src/common/string_util.h"

namespace loggrep {
namespace {

// ---- charclass -------------------------------------------------------------

TEST(CharClassTest, SingleCharacterClasses) {
  EXPECT_EQ(CharClassOf('0'), kMaskDigit);
  EXPECT_EQ(CharClassOf('9'), kMaskDigit);
  EXPECT_EQ(CharClassOf('a'), kMaskHexLower);
  EXPECT_EQ(CharClassOf('f'), kMaskHexLower);
  EXPECT_EQ(CharClassOf('g'), kMaskAlphaLower);
  EXPECT_EQ(CharClassOf('z'), kMaskAlphaLower);
  EXPECT_EQ(CharClassOf('A'), kMaskHexUpper);
  EXPECT_EQ(CharClassOf('F'), kMaskHexUpper);
  EXPECT_EQ(CharClassOf('G'), kMaskAlphaUpper);
  EXPECT_EQ(CharClassOf('Z'), kMaskAlphaUpper);
  EXPECT_EQ(CharClassOf('_'), kMaskOther);
  EXPECT_EQ(CharClassOf('/'), kMaskOther);
  EXPECT_EQ(CharClassOf(' '), kMaskOther);
}

TEST(CharClassTest, PaperTypeNumberExamples) {
  // §4.3: "C1 only contains 0-9, its type number is 000001b=1"
  EXPECT_EQ(TypeMaskOf("134179"), 1);
  // "C2 contains 0-9 and A-F, its type number is 000101b=5"
  EXPECT_EQ(TypeMaskOf("1F8FE"), 5);
}

TEST(CharClassTest, EmptyStringHasEmptyMask) { EXPECT_EQ(TypeMaskOf(""), 0); }

TEST(CharClassTest, MaskSubsumption) {
  const TypeMask capsule = TypeMaskOf("1F8FE");
  EXPECT_TRUE(MaskSubsumes(capsule, TypeMaskOf("8F8F")));
  EXPECT_FALSE(MaskSubsumes(capsule, TypeMaskOf("8f8f")));  // lowercase hex
  EXPECT_FALSE(MaskSubsumes(capsule, TypeMaskOf("8_8")));
  EXPECT_TRUE(MaskSubsumes(capsule, 0));  // empty keyword always admitted
}

TEST(CharClassTest, MaskTypeCount) {
  EXPECT_EQ(MaskTypeCount(0), 0);
  EXPECT_EQ(MaskTypeCount(TypeMaskOf("a1")), 2);
  EXPECT_EQ(MaskTypeCount(kMaskAll), 6);
}

// ---- string_util -----------------------------------------------------------

TEST(StringUtilTest, LongestCommonSubstring) {
  EXPECT_EQ(LongestCommonSubstring("8F8F8FE", "1F81F"), "F8");
  EXPECT_EQ(LongestCommonSubstring("abcdef", "zabcq"), "abc");
  EXPECT_EQ(LongestCommonSubstring("abc", "xyz"), "");
  EXPECT_EQ(LongestCommonSubstring("", "abc"), "");
  EXPECT_EQ(LongestCommonSubstring("same", "same"), "same");
}

TEST(StringUtilTest, ParseUint64TakesOnlyWholeDecimals) {
  uint64_t v = 7;
  EXPECT_TRUE(ParseUint64("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseUint64("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
  for (const char* bad : {"", "abc", "-1", "+1", " 1", "1 ", "5s", "1e3",
                          "18446744073709551616", "0x10"}) {
    v = 7;
    EXPECT_FALSE(ParseUint64(bad, &v)) << bad;
    EXPECT_EQ(v, 7u) << bad;
  }
}

TEST(StringUtilTest, DistinctNonAlnumChars) {
  EXPECT_EQ(DistinctNonAlnumChars("block_1F8.log_x"), "_.");
  EXPECT_EQ(DistinctNonAlnumChars("abc123"), "");
}

TEST(StringUtilTest, LengthVariance) {
  EXPECT_DOUBLE_EQ(LengthVariance({}), 0.0);
  EXPECT_DOUBLE_EQ(LengthVariance({"aa", "aa"}), 0.0);
  // lengths 1 and 3: mean 2, variance 1.
  EXPECT_DOUBLE_EQ(LengthVariance({"a", "aaa"}), 1.0);
}

// ---- bytes / varint ----------------------------------------------------------

TEST(BytesTest, FixedWidthRoundTrip) {
  ByteWriter w;
  w.PutU8(0xAB);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  ByteReader r(w.data());
  EXPECT_EQ(*r.ReadU8(), 0xAB);
  EXPECT_EQ(*r.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.ReadU64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, VarintRoundTripSweep) {
  ByteWriter w;
  std::vector<uint64_t> values;
  for (int shift = 0; shift < 64; ++shift) {
    values.push_back(1ull << shift);
    values.push_back((1ull << shift) - 1);
  }
  values.push_back(UINT64_MAX);
  for (uint64_t v : values) {
    w.PutVarint(v);
  }
  ByteReader r(w.data());
  for (uint64_t v : values) {
    auto got = r.ReadVarint();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, LengthPrefixedRoundTrip) {
  ByteWriter w;
  w.PutLengthPrefixed("hello");
  w.PutLengthPrefixed("");
  w.PutLengthPrefixed(std::string(1000, 'x'));
  ByteReader r(w.data());
  EXPECT_EQ(*r.ReadLengthPrefixed(), "hello");
  EXPECT_EQ(*r.ReadLengthPrefixed(), "");
  EXPECT_EQ(r.ReadLengthPrefixed()->size(), 1000u);
}

TEST(BytesTest, TruncatedReadsFail) {
  ByteReader r1(std::string_view("\x01"));
  EXPECT_FALSE(r1.ReadU32().ok());
  ByteReader r2(std::string_view("\xFF\xFF"));  // unterminated varint
  EXPECT_FALSE(r2.ReadVarint().ok());
  ByteWriter w;
  w.PutVarint(100);
  ByteReader r3(w.data());
  EXPECT_FALSE(r3.ReadLengthPrefixed().ok());  // declares 100, has 0
}

TEST(BytesTest, VarintOverflowRejected) {
  // 10 bytes of 0xFF encode more than 64 bits.
  const std::string bad(10, '\xFF');
  ByteReader r(bad);
  EXPECT_FALSE(r.ReadVarint().ok());
}

// ---- rowset ------------------------------------------------------------------

TEST(RowSetTest, Basics) {
  const RowSet none = RowSet::None(10);
  const RowSet all = RowSet::All(10);
  EXPECT_TRUE(none.IsEmpty());
  EXPECT_TRUE(all.IsAll());
  EXPECT_EQ(all.Count(), 10u);
  EXPECT_EQ(none.Count(), 0u);
  EXPECT_TRUE(all.Contains(9));
  EXPECT_FALSE(all.Contains(10));
  EXPECT_FALSE(none.Contains(0));
}

TEST(RowSetTest, OfNormalizesFullSet) {
  const RowSet s = RowSet::Of(3, {0, 1, 2});
  EXPECT_TRUE(s.IsAll());
}

TEST(RowSetTest, SetOperations) {
  const RowSet a = RowSet::Of(10, {1, 3, 5, 7});
  const RowSet b = RowSet::Of(10, {3, 4, 5, 6});
  EXPECT_EQ(a.IntersectWith(b), RowSet::Of(10, {3, 5}));
  EXPECT_EQ(a.UnionWith(b), RowSet::Of(10, {1, 3, 4, 5, 6, 7}));
  EXPECT_EQ(a.Complement(), RowSet::Of(10, {0, 2, 4, 6, 8, 9}));
}

TEST(RowSetTest, AllAndNoneIdentities) {
  const RowSet a = RowSet::Of(10, {2, 4});
  EXPECT_EQ(a.IntersectWith(RowSet::All(10)), a);
  EXPECT_EQ(a.UnionWith(RowSet::None(10)), a);
  EXPECT_EQ(RowSet::All(10).Complement(), RowSet::None(10));
  EXPECT_EQ(RowSet::None(10).Complement(), RowSet::All(10));
}

TEST(RowSetTest, ToRowsExpandsAll) {
  const std::vector<uint32_t> rows = RowSet::All(4).ToRows();
  EXPECT_EQ(rows, (std::vector<uint32_t>{0, 1, 2, 3}));
}

// Property sweep: ops agree with a bitset model.
class RowSetPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RowSetPropertyTest, MatchesBitsetModel) {
  Rng rng(GetParam());
  const uint32_t universe = 1 + static_cast<uint32_t>(rng.NextBelow(64));
  std::vector<bool> ma(universe), mb(universe);
  std::vector<uint32_t> va, vb;
  for (uint32_t i = 0; i < universe; ++i) {
    if (rng.NextBool(0.4)) {
      ma[i] = true;
      va.push_back(i);
    }
    if (rng.NextBool(0.4)) {
      mb[i] = true;
      vb.push_back(i);
    }
  }
  const RowSet a = RowSet::Of(universe, va);
  const RowSet b = RowSet::Of(universe, vb);
  const RowSet inter = a.IntersectWith(b);
  const RowSet uni = a.UnionWith(b);
  const RowSet comp = a.Complement();
  for (uint32_t i = 0; i < universe; ++i) {
    EXPECT_EQ(inter.Contains(i), ma[i] && mb[i]) << i;
    EXPECT_EQ(uni.Contains(i), ma[i] || mb[i]) << i;
    EXPECT_EQ(comp.Contains(i), !ma[i]) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RowSetPropertyTest,
                         ::testing::Range<uint64_t>(1, 25));

// ---- rng / hash / result ------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, RangesRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.NextInRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(HashTest, StableAndSpread) {
  EXPECT_EQ(Fnv1a64("abc"), Fnv1a64("abc"));
  EXPECT_NE(Fnv1a64("abc"), Fnv1a64("abd"));
  EXPECT_NE(Fnv1a64("a"), Fnv1a64("b"));
}

TEST(ResultTest, StatusBasics) {
  EXPECT_TRUE(OkStatus().ok());
  const Status s = CorruptData("bad bytes");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruptData);
  EXPECT_EQ(s.ToString(), "CORRUPT_DATA: bad bytes");
  EXPECT_EQ(OkStatus().ToString(), "OK");
}

TEST(ResultTest, ResultValueAndStatus) {
  Result<int> ok_result(5);
  EXPECT_TRUE(ok_result.ok());
  EXPECT_EQ(*ok_result, 5);
  EXPECT_TRUE(ok_result.status().ok());
  Result<int> err_result(NotFound("nope"));
  EXPECT_FALSE(err_result.ok());
  EXPECT_EQ(err_result.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace loggrep
