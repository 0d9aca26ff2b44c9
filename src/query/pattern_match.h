// Keyword matching on runtime patterns (§5.1).
//
// Given a literal keyword and a runtime pattern, enumerates every "possible
// match": a conjunction of sub-variable constraints under which a value
// following the pattern contains the keyword. The recursion implements the
// paper's head / tail / body cases around pattern constants plus the
// keyword-inside-one-sub-variable case (Fig. 6). An empty constraint list is
// a trivial match: every value following the pattern contains the keyword.
#ifndef SRC_QUERY_PATTERN_MATCH_H_
#define SRC_QUERY_PATTERN_MATCH_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/pattern/runtime_pattern.h"
#include "src/query/fixed_matcher.h"

namespace loggrep {

struct SubVarConstraint {
  uint32_t subvar = 0;
  FragmentMode mode = FragmentMode::kSub;
  std::string fragment;

  bool operator==(const SubVarConstraint&) const = default;
};

struct PossibleMatch {
  // All constraints must hold on the same row (intersection); an empty list
  // means the keyword is satisfied by pattern constants alone.
  std::vector<SubVarConstraint> constraints;

  bool trivial() const { return constraints.empty(); }
};

// Possible matches for `keyword` occurring as a substring of a value that
// follows `pattern`. Returns an empty vector when no match is possible; a
// single trivial match short-circuits everything else.
std::vector<PossibleMatch> MatchKeywordOnPattern(const RuntimePattern& pattern,
                                                 std::string_view keyword);

// Same answer as !MatchKeywordOnPattern(pattern, keyword).empty(), without
// enumerating the matches: an empty keyword and any pattern with a
// sub-variable admit the keyword; a constants-only pattern admits it iff the
// concatenated constants contain it.
bool PatternAdmitsKeyword(const RuntimePattern& pattern,
                          std::string_view keyword);

}  // namespace loggrep

#endif  // SRC_QUERY_PATTERN_MATCH_H_
