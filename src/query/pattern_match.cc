#include "src/query/pattern_match.h"

#include <algorithm>

namespace loggrep {
namespace {

using Elements = std::vector<PatternElement>;
using Matches = std::vector<PossibleMatch>;

// Cross product: every suffix-side match combined with every prefix-side one.
Matches Combine(const Matches& a, const Matches& b) {
  Matches out;
  out.reserve(a.size() * b.size());
  for (const PossibleMatch& ma : a) {
    for (const PossibleMatch& mb : b) {
      PossibleMatch m = ma;
      m.constraints.insert(m.constraints.end(), mb.constraints.begin(),
                           mb.constraints.end());
      out.push_back(std::move(m));
    }
  }
  return out;
}

void Append(Matches& dst, Matches src) {
  dst.insert(dst.end(), std::make_move_iterator(src.begin()),
             std::make_move_iterator(src.end()));
}

// keyword must be a PREFIX of the concatenation of values of elems[j..].
Matches MatchPrefix(const Elements& elems, size_t j, std::string_view keyword) {
  if (keyword.empty()) {
    return {PossibleMatch{}};
  }
  if (j >= elems.size()) {
    return {};
  }
  const PatternElement& e = elems[j];
  if (!e.is_subvar) {
    const std::string& c = e.constant;
    if (keyword.size() <= c.size()) {
      return std::string_view(c).substr(0, keyword.size()) == keyword
                 ? Matches{PossibleMatch{}}
                 : Matches{};
    }
    if (keyword.substr(0, c.size()) != c) {
      return {};
    }
    return MatchPrefix(elems, j + 1, keyword.substr(c.size()));
  }
  Matches out;
  // Case A: the keyword lies entirely within this sub-variable's value.
  out.push_back(PossibleMatch{
      {SubVarConstraint{e.subvar, FragmentMode::kPrefix, std::string(keyword)}}});
  // Case B: the sub-variable's whole value equals keyword[0..k) and the rest
  // of the keyword continues into the following elements.
  for (size_t k = 0; k < keyword.size(); ++k) {
    Matches rest = MatchPrefix(elems, j + 1, keyword.substr(k));
    if (rest.empty()) {
      continue;
    }
    const PossibleMatch head{
        {SubVarConstraint{e.subvar, FragmentMode::kExact, std::string(keyword.substr(0, k))}}};
    Append(out, Combine(Matches{head}, rest));
  }
  return out;
}

// keyword must be a SUFFIX of the concatenation of values of elems[0..j).
Matches MatchSuffix(const Elements& elems, size_t j, std::string_view keyword) {
  if (keyword.empty()) {
    return {PossibleMatch{}};
  }
  if (j == 0) {
    return {};
  }
  const PatternElement& e = elems[j - 1];
  if (!e.is_subvar) {
    const std::string& c = e.constant;
    if (keyword.size() <= c.size()) {
      return std::string_view(c).substr(c.size() - keyword.size()) == keyword
                 ? Matches{PossibleMatch{}}
                 : Matches{};
    }
    if (keyword.substr(keyword.size() - c.size()) != c) {
      return {};
    }
    return MatchSuffix(elems, j - 1, keyword.substr(0, keyword.size() - c.size()));
  }
  Matches out;
  out.push_back(PossibleMatch{
      {SubVarConstraint{e.subvar, FragmentMode::kSuffix, std::string(keyword)}}});
  for (size_t k = 1; k <= keyword.size(); ++k) {
    // Sub-variable value equals keyword[k..); keyword[0..k) extends left.
    Matches rest = MatchSuffix(elems, j - 1, keyword.substr(0, k));
    if (rest.empty()) {
      continue;
    }
    const PossibleMatch tail{
        {SubVarConstraint{e.subvar, FragmentMode::kExact, std::string(keyword.substr(k))}}};
    Append(out, Combine(rest, Matches{tail}));
  }
  return out;
}

}  // namespace

std::vector<PossibleMatch> MatchKeywordOnPattern(const RuntimePattern& pattern,
                                                 std::string_view keyword) {
  const Elements& elems = pattern.elements();
  if (keyword.empty()) {
    return {PossibleMatch{}};
  }
  Matches out;
  for (size_t j = 0; j < elems.size(); ++j) {
    const PatternElement& e = elems[j];
    if (e.is_subvar) {
      // Keyword fully inside one sub-variable value (Fig. 6 cases 1 and 5).
      out.push_back(PossibleMatch{
          {SubVarConstraint{e.subvar, FragmentMode::kSub, std::string(keyword)}}});
      continue;
    }
    const std::string& c = e.constant;
    // Keyword contained in the constant: every value matches (trivial).
    if (c.find(keyword) != std::string::npos) {
      return {PossibleMatch{}};
    }
    // Head case (Fig. 6 case 4): a suffix of the constant is a prefix of the
    // keyword; the remainder must prefix-match what follows.
    for (size_t slen = 1; slen <= c.size() && slen < keyword.size(); ++slen) {
      if (std::string_view(c).substr(c.size() - slen) != keyword.substr(0, slen)) {
        continue;
      }
      Append(out, MatchPrefix(elems, j + 1, keyword.substr(slen)));
    }
    // Tail case (Fig. 6 case 2): a prefix of the constant is a suffix of the
    // keyword; the remainder must suffix-match what precedes.
    for (size_t plen = 1; plen <= c.size() && plen < keyword.size(); ++plen) {
      if (std::string_view(c).substr(0, plen) !=
          keyword.substr(keyword.size() - plen)) {
        continue;
      }
      Append(out, MatchSuffix(elems, j, keyword.substr(0, keyword.size() - plen)));
    }
    // Body case (Fig. 6 case 3): the whole constant occurs inside the
    // keyword; both flanks must match outward.
    if (c.size() < keyword.size() && !c.empty()) {
      for (size_t occ = keyword.find(c); occ != std::string_view::npos;
           occ = keyword.find(c, occ + 1)) {
        const std::string_view left = keyword.substr(0, occ);
        const std::string_view right = keyword.substr(occ + c.size());
        if (left.empty() && right.empty()) {
          continue;  // keyword == constant, handled by the contains test
        }
        Matches left_matches =
            left.empty() ? Matches{PossibleMatch{}} : MatchSuffix(elems, j, left);
        if (left_matches.empty()) {
          continue;
        }
        Matches right_matches = right.empty() ? Matches{PossibleMatch{}}
                                              : MatchPrefix(elems, j + 1, right);
        if (right_matches.empty()) {
          continue;
        }
        Append(out, Combine(left_matches, right_matches));
      }
    }
  }
  // A trivial possible match subsumes everything else.
  for (const PossibleMatch& m : out) {
    if (m.trivial()) {
      return {PossibleMatch{}};
    }
  }
  return out;
}

bool PatternAdmitsKeyword(const RuntimePattern& pattern,
                          std::string_view keyword) {
  if (keyword.empty()) {
    return true;
  }
  const Elements& elems = pattern.elements();
  if (elems.size() == 1 && !elems[0].is_subvar) {
    return elems[0].constant.find(keyword) != std::string::npos;
  }
  std::string constants;
  for (const PatternElement& e : elems) {
    if (e.is_subvar) {
      return true;  // the keyword may lie inside that sub-variable's value
    }
    constants += e.constant;
  }
  return constants.find(keyword) != std::string::npos;
}

}  // namespace loggrep
