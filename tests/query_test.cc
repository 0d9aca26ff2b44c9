#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/capsule/capsule.h"
#include "src/common/rng.h"
#include "src/query/fixed_matcher.h"
#include "src/query/line_match.h"
#include "src/query/pattern_match.h"
#include "src/query/query_cache.h"
#include "src/query/query_parser.h"
#include "src/query/wildcard.h"

namespace loggrep {
namespace {

// ---- wildcard ---------------------------------------------------------------

TEST(WildcardTest, ExactAndClasses) {
  EXPECT_TRUE(WildcardMatch("abc", "abc"));
  EXPECT_FALSE(WildcardMatch("abc", "abd"));
  EXPECT_TRUE(WildcardMatch("a?c", "abc"));
  EXPECT_FALSE(WildcardMatch("a?c", "ac"));
  EXPECT_TRUE(WildcardMatch("a*c", "ac"));
  EXPECT_TRUE(WildcardMatch("a*c", "axyzc"));
  EXPECT_FALSE(WildcardMatch("a*c", "axyzd"));
  EXPECT_TRUE(WildcardMatch("*", ""));
  EXPECT_TRUE(WildcardMatch("**", "anything"));
  EXPECT_FALSE(WildcardMatch("", "x"));
  EXPECT_TRUE(WildcardMatch("", ""));
}

TEST(WildcardTest, BacktrackingCases) {
  EXPECT_TRUE(WildcardMatch("a*b*c", "a__b__b__c"));
  EXPECT_TRUE(WildcardMatch("*aab", "aaab"));
  EXPECT_FALSE(WildcardMatch("*aab*", "abab"));
  EXPECT_TRUE(WildcardMatch("11.8.*", "11.8.42"));
}

TEST(WildcardTest, KeywordHitsToken) {
  EXPECT_TRUE(KeywordHitsToken("err", "stderr_log"));
  EXPECT_FALSE(KeywordHitsToken("err", "stdout"));
  EXPECT_TRUE(KeywordHitsToken("", "anything"));
  EXPECT_TRUE(KeywordHitsToken("11.8.*", "dst:11.8.42"));
  EXPECT_TRUE(KeywordHitsToken("b?g", "debug_bug"));
  EXPECT_FALSE(KeywordHitsToken("b?gs", "bug"));
  EXPECT_TRUE(HasWildcards("a*b"));
  EXPECT_FALSE(HasWildcards("plain"));
}

// ---- substring search engines --------------------------------------------------

class SearchPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SearchPropertyTest, BmAndKmpAgreeWithStdSearch) {
  Rng rng(GetParam());
  std::string haystack;
  const int alphabet = 2 + static_cast<int>(rng.NextBelow(4));
  for (int i = 0; i < 2000; ++i) {
    haystack += static_cast<char>('a' + rng.NextBelow(alphabet));
  }
  for (int trial = 0; trial < 20; ++trial) {
    const size_t len = 1 + rng.NextBelow(8);
    std::string needle;
    for (size_t i = 0; i < len; ++i) {
      needle += static_cast<char>('a' + rng.NextBelow(alphabet));
    }
    std::vector<size_t> expected;
    for (auto it = haystack.begin();;) {
      it = std::search(it, haystack.end(), needle.begin(), needle.end());
      if (it == haystack.end()) {
        break;
      }
      expected.push_back(static_cast<size_t>(it - haystack.begin()));
      ++it;
    }
    EXPECT_EQ(BoyerMooreSearch(haystack, needle), expected) << needle;
    EXPECT_EQ(KmpSearch(haystack, needle), expected) << needle;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SearchPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST(SearchTest, EdgeCases) {
  EXPECT_TRUE(BoyerMooreSearch("abc", "").empty());
  EXPECT_TRUE(BoyerMooreSearch("", "a").empty());
  EXPECT_TRUE(BoyerMooreSearch("ab", "abc").empty());
  EXPECT_EQ(BoyerMooreSearch("aaaa", "aa"), (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(KmpSearch("aaaa", "aa"), (std::vector<size_t>{0, 1, 2}));
}

// ---- fragment matching over columns -----------------------------------------------

TEST(FixedMatcherTest, ValueMatchesFragmentModes) {
  EXPECT_TRUE(ValueMatchesFragment("hello", FragmentMode::kExact, "hello"));
  EXPECT_FALSE(ValueMatchesFragment("hello", FragmentMode::kExact, "hell"));
  EXPECT_TRUE(ValueMatchesFragment("hello", FragmentMode::kPrefix, "hel"));
  EXPECT_FALSE(ValueMatchesFragment("hello", FragmentMode::kPrefix, "ello"));
  EXPECT_TRUE(ValueMatchesFragment("hello", FragmentMode::kSuffix, "llo"));
  EXPECT_FALSE(ValueMatchesFragment("hello", FragmentMode::kSuffix, "hel"));
  EXPECT_TRUE(ValueMatchesFragment("hello", FragmentMode::kSub, "ell"));
  EXPECT_FALSE(ValueMatchesFragment("hello", FragmentMode::kSub, "xyz"));
  // Empty fragments: prefix/suffix/sub always, exact only on empty value.
  EXPECT_TRUE(ValueMatchesFragment("v", FragmentMode::kSub, ""));
  EXPECT_FALSE(ValueMatchesFragment("v", FragmentMode::kExact, ""));
  EXPECT_TRUE(ValueMatchesFragment("", FragmentMode::kExact, ""));
}

TEST(FixedMatcherTest, SearchPaddedColumnAllModes) {
  const std::vector<std::string_view> values = {"8F8F", "1F", "F8FE", "8F8F"};
  const std::string blob = BuildPaddedBlob(values, 4);
  EXPECT_EQ(SearchPaddedColumn(blob, 4, FragmentMode::kExact, "8F8F"),
            (std::vector<uint32_t>{0, 3}));
  EXPECT_EQ(SearchPaddedColumn(blob, 4, FragmentMode::kPrefix, "1"),
            (std::vector<uint32_t>{1}));
  EXPECT_EQ(SearchPaddedColumn(blob, 4, FragmentMode::kSuffix, "FE"),
            (std::vector<uint32_t>{2}));
  EXPECT_EQ(SearchPaddedColumn(blob, 4, FragmentMode::kSub, "F8"),
            (std::vector<uint32_t>{0, 2, 3}));
}

TEST(FixedMatcherTest, SubstringHitsCannotCrossCells) {
  // Adjacent full-width cells: "AB" + "BA" -> the blob contains "ABBA" but
  // "BB" spans two cells and must not match.
  const std::vector<std::string_view> values = {"AB", "BA"};
  const std::string blob = BuildPaddedBlob(values, 2);
  EXPECT_TRUE(SearchPaddedColumn(blob, 2, FragmentMode::kSub, "BB").empty());
  EXPECT_EQ(SearchPaddedColumn(blob, 2, FragmentMode::kSub, "AB"),
            (std::vector<uint32_t>{0}));
}

TEST(FixedMatcherTest, BmAndKmpPathsAgreeOnColumns) {
  Rng rng(77);
  std::vector<std::string> owned;
  for (int i = 0; i < 500; ++i) {
    std::string v;
    for (int k = 0; k < 1 + static_cast<int>(rng.NextBelow(6)); ++k) {
      v += static_cast<char>('A' + rng.NextBelow(3));
    }
    owned.push_back(v);
  }
  std::vector<std::string_view> values(owned.begin(), owned.end());
  const std::string blob = BuildPaddedBlob(values, 6);
  for (const std::string needle : {"AB", "BA", "AAB", "CC"}) {
    EXPECT_EQ(SearchPaddedColumn(blob, 6, FragmentMode::kSub, needle, true),
              SearchPaddedColumn(blob, 6, FragmentMode::kSub, needle, false))
        << needle;
  }
}

TEST(FixedMatcherTest, CheckPaddedRowsFiltersCandidates) {
  const std::vector<std::string_view> values = {"xx", "ab", "ab", "yy", "ab"};
  const std::string blob = BuildPaddedBlob(values, 2);
  EXPECT_EQ(CheckPaddedRows(blob, 2, FragmentMode::kExact, "ab", {0, 1, 3, 4}),
            (std::vector<uint32_t>{1, 4}));
  // Out-of-range candidates are ignored, not UB.
  EXPECT_TRUE(CheckPaddedRows(blob, 2, FragmentMode::kExact, "ab", {99}).empty());
}

TEST(FixedMatcherTest, SearchDelimitedColumnMatchesPaddedSemantics) {
  const std::vector<std::string_view> values = {"8F8F", "1F", "F8FE", ""};
  const std::string padded = BuildPaddedBlob(values, 4);
  const std::string delimited = BuildDelimitedBlob(values);
  for (const auto mode : {FragmentMode::kExact, FragmentMode::kPrefix,
                          FragmentMode::kSuffix, FragmentMode::kSub}) {
    for (const std::string frag : {"8F", "F8FE", "F", "", "zz"}) {
      EXPECT_EQ(SearchDelimitedColumn(delimited, mode, frag),
                SearchPaddedColumn(padded, 4, mode, frag))
          << static_cast<int>(mode) << " " << frag;
    }
  }
}

// ---- keyword-on-pattern matching (§5.1, Fig. 6) ------------------------------------

RuntimePattern Fig6Pattern() {
  // block_<sv1>F8<sv2>
  PatternElement c0{false, "block_", 0};
  PatternElement s1{true, "", 0};
  PatternElement c1{false, "F8", 0};
  PatternElement s2{true, "", 1};
  return RuntimePattern({c0, s1, c1, s2});
}

// True when some possible match consists exactly of `constraints` (order-free).
bool HasMatch(const std::vector<PossibleMatch>& matches,
              std::vector<SubVarConstraint> expected) {
  for (const PossibleMatch& m : matches) {
    if (m.constraints.size() != expected.size()) {
      continue;
    }
    std::vector<SubVarConstraint> got = m.constraints;
    bool all = true;
    for (const SubVarConstraint& e : expected) {
      const auto it = std::find(got.begin(), got.end(), e);
      if (it == got.end()) {
        all = false;
        break;
      }
      got.erase(it);
    }
    if (all) {
      return true;
    }
  }
  return false;
}

TEST(PatternMatchTest, KeywordInsideSubVariable) {
  // Fig. 6 cases 1 and 5: "8F8F" inside <sv1> or <sv2>.
  const auto matches = MatchKeywordOnPattern(Fig6Pattern(), "8F8F");
  EXPECT_TRUE(HasMatch(matches, {{0, FragmentMode::kSub, "8F8F"}}));
  EXPECT_TRUE(HasMatch(matches, {{1, FragmentMode::kSub, "8F8F"}}));
}

TEST(PatternMatchTest, HeadCase) {
  // Fig. 6 case 4: constant suffix "F8" is keyword prefix "F8F" -> remaining
  // "F" must be a prefix of <sv2>.
  const auto matches = MatchKeywordOnPattern(Fig6Pattern(), "F8F");
  EXPECT_TRUE(HasMatch(matches, {{1, FragmentMode::kPrefix, "F"}}));
}

TEST(PatternMatchTest, TailCase) {
  // Fig. 6 case 2: keyword "8F8" has suffix "F8" = constant prefix; the
  // remaining "8" must be a suffix of <sv1>. (Also matched inside either
  // sub-variable, and via the 1-char head overlap.)
  const auto matches = MatchKeywordOnPattern(Fig6Pattern(), "8F8");
  EXPECT_TRUE(HasMatch(matches, {{0, FragmentMode::kSuffix, "8"}}));
}

TEST(PatternMatchTest, BodyCase) {
  // Fig. 6 case 3: keyword "1F82" contains the whole constant "F8": "1" must
  // be a suffix of <sv1> AND "2" a prefix of <sv2> on the same row.
  const auto matches = MatchKeywordOnPattern(Fig6Pattern(), "1F82");
  EXPECT_TRUE(HasMatch(matches, {{0, FragmentMode::kSuffix, "1"},
                                 {1, FragmentMode::kPrefix, "2"}}));
}

TEST(PatternMatchTest, KeywordInsideConstantIsTrivial) {
  const auto matches = MatchKeywordOnPattern(Fig6Pattern(), "lock");
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_TRUE(matches[0].trivial());
}

TEST(PatternMatchTest, KeywordSpanningConstantAndSubvars) {
  // "ck_9" = constant tail "ck_" + prefix "9" of <sv1>.
  const auto matches = MatchKeywordOnPattern(Fig6Pattern(), "ck_9");
  EXPECT_TRUE(HasMatch(matches, {{0, FragmentMode::kPrefix, "9"}}));
}

TEST(PatternMatchTest, ImpossibleKeywordHasNoMatches) {
  // 'z' cannot occur: no constant contains it, but sub-variables could hold
  // anything, so containment in a sub-variable is still possible. Check a
  // keyword that spans the full pattern impossibly instead:
  const RuntimePattern p({PatternElement{false, "ERR", 0}});  // constant-only
  EXPECT_TRUE(MatchKeywordOnPattern(p, "SUCC").empty());
  EXPECT_FALSE(MatchKeywordOnPattern(p, "RR").empty());
}

TEST(PatternMatchTest, ExactConstraintFromSpanningKeyword) {
  // Pattern <sv0>-<sv1>; keyword "ab-cd" forces sv0 suffix "ab", sv1 prefix "cd".
  RuntimePattern p({PatternElement{true, "", 0}, PatternElement{false, "-", 0},
                    PatternElement{true, "", 1}});
  const auto matches = MatchKeywordOnPattern(p, "ab-cd");
  EXPECT_TRUE(HasMatch(matches, {{0, FragmentMode::kSuffix, "ab"},
                                 {1, FragmentMode::kPrefix, "cd"}}));
}

TEST(PatternMatchTest, MultiConstantSpan) {
  // Pattern a<sv0>b<sv1>c ; keyword "b" is inside a constant -> trivial.
  RuntimePattern p({PatternElement{false, "a", 0}, PatternElement{true, "", 0},
                    PatternElement{false, "b", 0}, PatternElement{true, "", 1},
                    PatternElement{false, "c", 0}});
  const auto matches = MatchKeywordOnPattern(p, "b");
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_TRUE(matches[0].trivial());
  // Keyword spanning everything: "aXbYc" -> sv0 exact "X", sv1 exact "Y"
  // via prefix/suffix recursion.
  const auto spanning = MatchKeywordOnPattern(p, "aXbYc");
  EXPECT_TRUE(HasMatch(spanning, {{0, FragmentMode::kExact, "X"},
                                  {1, FragmentMode::kExact, "Y"}}));
}

// Property: for ANY pattern, value set, and keyword, evaluating the possible
// matches over a value's sub-values must agree exactly with a direct
// substring test on the full value. This brute-forces the §5.1 recursion.
class PatternMatchPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PatternMatchPropertyTest, PossibleMatchesEquivalentToSubstringTest) {
  Rng rng(GetParam() * 131 + 7);
  // Random alternating pattern: constants from a small alphabet, 1-3 subvars.
  std::vector<PatternElement> elems;
  uint32_t next_sv = 0;
  const int segments = 2 + static_cast<int>(rng.NextBelow(4));
  bool want_const = rng.NextBool(0.5);
  for (int s = 0; s < segments; ++s) {
    if (want_const) {
      PatternElement e;
      const int len = 1 + static_cast<int>(rng.NextBelow(3));
      for (int i = 0; i < len; ++i) {
        e.constant += "AB_8F"[rng.NextBelow(5)];
      }
      elems.push_back(std::move(e));
    } else {
      PatternElement e;
      e.is_subvar = true;
      e.subvar = next_sv++;
      elems.push_back(e);
    }
    want_const = !want_const;
  }
  if (next_sv == 0) {
    PatternElement e;
    e.is_subvar = true;
    e.subvar = next_sv++;
    elems.push_back(e);
  }
  const RuntimePattern pattern(std::move(elems));

  // Values that follow the pattern: random sub-values from the same alphabet.
  struct Row {
    std::string value;
    std::vector<std::string> subvalues;
  };
  std::vector<Row> rows;
  for (int r = 0; r < 60; ++r) {
    Row row;
    for (uint32_t sv = 0; sv < next_sv; ++sv) {
      std::string v;
      const int len = static_cast<int>(rng.NextBelow(4));
      for (int i = 0; i < len; ++i) {
        v += "AB8F"[rng.NextBelow(4)];
      }
      row.subvalues.push_back(std::move(v));
    }
    std::vector<std::string_view> views(row.subvalues.begin(),
                                        row.subvalues.end());
    row.value = pattern.Render(views);
    rows.push_back(std::move(row));
  }

  // Keywords: substrings of rendered values plus random strings.
  for (int trial = 0; trial < 40; ++trial) {
    std::string keyword;
    if (rng.NextBool(0.7) && !rows.empty()) {
      const Row& row = rows[rng.NextBelow(rows.size())];
      if (row.value.empty()) {
        continue;
      }
      const size_t start = rng.NextBelow(row.value.size());
      const size_t len = 1 + rng.NextBelow(row.value.size() - start);
      keyword = row.value.substr(start, len);
    } else {
      const int len = 1 + static_cast<int>(rng.NextBelow(5));
      for (int i = 0; i < len; ++i) {
        keyword += "AB_8FZ"[rng.NextBelow(6)];
      }
    }

    const auto matches = MatchKeywordOnPattern(pattern, keyword);
    for (const Row& row : rows) {
      const bool expected = row.value.find(keyword) != std::string::npos;
      bool actual = false;
      for (const PossibleMatch& m : matches) {
        bool all = true;
        for (const SubVarConstraint& c : m.constraints) {
          if (!ValueMatchesFragment(row.subvalues[c.subvar], c.mode,
                                    c.fragment)) {
            all = false;
            break;
          }
        }
        if (all) {
          actual = true;
          break;
        }
      }
      ASSERT_EQ(actual, expected)
          << "pattern=" << pattern.ToString() << " keyword=" << keyword
          << " value=" << row.value;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PatternMatchPropertyTest,
                         ::testing::Range<uint64_t>(1, 31));

// Property: PatternAdmitsKeyword answers exactly whether MatchKeywordOnPattern
// finds any possible match, over random patterns (constants-only ones with
// adjacent constants and the empty pattern included) and keywords.
TEST(PatternMatchTest, AdmitsKeywordAgreesWithPossibleMatches) {
  Rng rng(4242);
  const auto random_string = [&](size_t max_len) {
    std::string out;
    const size_t len = rng.NextBelow(max_len + 1);
    for (size_t i = 0; i < len; ++i) {
      out += "AB_8"[rng.NextBelow(4)];
    }
    return out;
  };
  size_t admitted = 0;
  size_t rejected = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<PatternElement> elems;
    const bool constants_only = rng.NextBool(0.5);
    uint32_t next_sv = 0;
    const size_t count = rng.NextBelow(4);
    for (size_t i = 0; i < count; ++i) {
      PatternElement e;
      if (!constants_only && rng.NextBool(0.4)) {
        e.is_subvar = true;
        e.subvar = next_sv++;
      } else {
        e.constant = random_string(3);
      }
      elems.push_back(std::move(e));
    }
    const RuntimePattern pattern(std::move(elems));
    const std::string keyword = random_string(4);
    const bool expected = !MatchKeywordOnPattern(pattern, keyword).empty();
    ASSERT_EQ(PatternAdmitsKeyword(pattern, keyword), expected)
        << "pattern=" << pattern.ToString() << " keyword=" << keyword;
    ++(expected ? admitted : rejected);
  }
  EXPECT_GT(admitted, 100u);
  EXPECT_GT(rejected, 100u);
}

// ---- query parser -------------------------------------------------------------------

TEST(QueryParserTest, SingleTerm) {
  auto expr = ParseQuery("ERROR");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ((*expr)->kind, QueryExpr::Kind::kTerm);
  EXPECT_EQ((*expr)->term.text, "ERROR");
  ASSERT_EQ((*expr)->term.keywords.size(), 1u);
}

TEST(QueryParserTest, MultiWordTermsAndOperators) {
  auto expr = ParseQuery("ERROR and part_id:510 and request id REQ_11");
  ASSERT_TRUE(expr.ok());
  // ((ERROR AND part_id:510) AND "request id REQ_11")
  const QueryExpr& root = **expr;
  ASSERT_EQ(root.kind, QueryExpr::Kind::kAnd);
  EXPECT_EQ(root.right->term.text, "request id REQ_11");
  EXPECT_EQ(root.right->term.keywords.size(), 3u);
  ASSERT_EQ(root.left->kind, QueryExpr::Kind::kAnd);
  EXPECT_EQ(root.left->left->term.text, "ERROR");
  // "part_id:510" splits into two keywords at the colon.
  EXPECT_EQ(root.left->right->term.keywords.size(), 2u);
}

TEST(QueryParserTest, NotVariants) {
  auto expr = ParseQuery("ERROR not UserId:-2");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ((*expr)->kind, QueryExpr::Kind::kNot);
  ASSERT_NE((*expr)->left, nullptr);

  auto leading = ParseQuery("NOT debug");
  ASSERT_TRUE(leading.ok());
  EXPECT_EQ((*leading)->kind, QueryExpr::Kind::kNot);
  EXPECT_EQ((*leading)->left, nullptr);
}

TEST(QueryParserTest, CaseInsensitiveOperators) {
  auto expr = ParseQuery("a AND b Or c NOT d");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ((*expr)->kind, QueryExpr::Kind::kNot);
  EXPECT_EQ((*expr)->left->kind, QueryExpr::Kind::kOr);
}

TEST(QueryParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("   ").ok());
  EXPECT_FALSE(ParseQuery("and x").ok());
  EXPECT_FALSE(ParseQuery("x and").ok());
  EXPECT_FALSE(ParseQuery("x and and y").ok());
}

TEST(QueryParserTest, QuotedWordIsNeverAnOperator) {
  // `error "and" retry` searches for the literal token `and`, it does not
  // conjoin: one term with three keywords.
  auto expr = ParseQuery("error \"and\" retry");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ((*expr)->kind, QueryExpr::Kind::kTerm);
  EXPECT_EQ((*expr)->term.text, "error and retry");
  EXPECT_EQ((*expr)->term.keywords.size(), 3u);
}

TEST(QueryParserTest, QuotedRunKeepsEmbeddedBlanks) {
  auto expr = ParseQuery("\"disk error\" AND fatal");
  ASSERT_TRUE(expr.ok());
  const QueryExpr& root = **expr;
  ASSERT_EQ(root.kind, QueryExpr::Kind::kAnd);
  EXPECT_EQ(root.left->term.text, "disk error");
  EXPECT_EQ(root.left->term.keywords.size(), 2u);
  EXPECT_EQ(root.right->term.text, "fatal");
}

TEST(QueryParserTest, QuotingIsTransparentForPlainWords) {
  // Quoting a word that is not an operator yields the same parse.
  auto quoted = ParseQuery("\"ERROR\" and \"code:20012\"");
  auto plain = ParseQuery("ERROR and code:20012");
  ASSERT_TRUE(quoted.ok());
  ASSERT_TRUE(plain.ok());
  ASSERT_EQ((*quoted)->kind, (*plain)->kind);
  EXPECT_EQ((*quoted)->left->term.text, (*plain)->left->term.text);
  EXPECT_EQ((*quoted)->right->term.keywords, (*plain)->right->term.keywords);
}

TEST(QueryParserTest, UnterminatedQuoteExtendsToEnd) {
  auto expr = ParseQuery("\"error and more");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ((*expr)->kind, QueryExpr::Kind::kTerm);
  EXPECT_EQ((*expr)->term.text, "error and more");
}

// ---- line match ----------------------------------------------------------------------

TEST(LineMatchTest, TermSemantics) {
  auto expr = ParseQuery("error blk_42");
  ASSERT_TRUE(expr.ok());
  EXPECT_TRUE(LineMatchesQuery("found error on blk_42 today", **expr));
  // Both keywords must hit, in any token.
  EXPECT_TRUE(LineMatchesQuery("blk_42 error", **expr));
  EXPECT_FALSE(LineMatchesQuery("found error on blk_43", **expr));
}

TEST(LineMatchTest, BooleanOperators) {
  auto expr = ParseQuery("ERROR or WARN not retry");
  ASSERT_TRUE(expr.ok());
  EXPECT_TRUE(LineMatchesQuery("WARN disk low", **expr));
  EXPECT_TRUE(LineMatchesQuery("ERROR disk gone", **expr));
  EXPECT_FALSE(LineMatchesQuery("WARN disk low retry later", **expr));
  EXPECT_FALSE(LineMatchesQuery("INFO all good", **expr));
}

TEST(LineMatchTest, KeywordWithinTokenOnly) {
  auto expr = ParseQuery("lowdisk");
  ASSERT_TRUE(expr.ok());
  // "low disk" are two tokens; the keyword cannot span them.
  EXPECT_FALSE(LineMatchesQuery("warn low disk", **expr));
  EXPECT_TRUE(LineMatchesQuery("warn lowdisk", **expr));
}

// ---- query cache ------------------------------------------------------------------------

TEST(QueryCacheTest, HitMissAndClear) {
  QueryCache cache;
  EXPECT_FALSE(cache.Lookup("q").has_value());
  EXPECT_EQ(cache.misses(), 1u);
  cache.Insert("q", QueryHits{{3, "line three"}});
  auto hit = cache.Lookup("q");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(cache.hits(), 1u);
  ASSERT_EQ(hit->hits.size(), 1u);
  EXPECT_EQ(hit->hits[0].first, 3u);
  cache.Clear();
  EXPECT_FALSE(cache.Lookup("q").has_value());
}

TEST(QueryCacheTest, InsertReplacesExistingEntry) {
  // Re-inserting under the same command must replace the stale value, not
  // keep the first one (the old emplace-based Insert silently dropped the
  // update).
  QueryCache cache;
  cache.Insert("q", QueryHits{{1, "old"}});
  cache.Insert("q", QueryHits{{2, "new"}});
  auto hit = cache.Lookup("q");
  ASSERT_TRUE(hit.has_value());
  ASSERT_EQ(hit->hits.size(), 1u);
  EXPECT_EQ(hit->hits[0].first, 2u);
  EXPECT_EQ(hit->hits[0].second, "new");
}

TEST(QueryCacheTest, ByteBudgetEvictsLeastRecentlyUsed) {
  // Budget sized to hold roughly two entries; inserting a third must evict
  // the least recently used one.
  const std::string big(512, 'x');
  QueryCache cache(/*byte_budget=*/2000);
  cache.Insert("a", QueryHits{{1, big}});
  cache.Insert("b", QueryHits{{2, big}});
  ASSERT_TRUE(cache.Lookup("a").has_value());  // promote "a"; "b" is LRU now
  cache.Insert("c", QueryHits{{3, big}});
  EXPECT_GE(cache.evictions(), 1u);
  EXPECT_FALSE(cache.Lookup("b").has_value());
  EXPECT_TRUE(cache.Lookup("c").has_value());
  EXPECT_LE(cache.bytes_in_use(), cache.byte_budget());
}

TEST(QueryCacheTest, KeepsFreshestEntryEvenWhenOverBudget) {
  // An entry larger than the whole budget is still usable until the next
  // insert (never evict the freshest entry).
  QueryCache cache(/*byte_budget=*/64);
  cache.Insert("huge", QueryHits{{1, std::string(4096, 'y')}});
  EXPECT_TRUE(cache.Lookup("huge").has_value());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(QueryCacheTest, SixtyFourBitLineNumbersSurviveRoundTrip) {
  QueryCache cache;
  const uint64_t line = (5ull << 32) + 17;  // > UINT32_MAX
  cache.Insert("q", QueryHits{{line, "far line"}});
  auto hit = cache.Lookup("q");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->hits[0].first, line);
}

}  // namespace
}  // namespace loggrep
