#include "src/query/line_match.h"

#include "src/query/wildcard.h"

namespace loggrep {

bool LineMatcher::TermHitsTokens(const SearchTerm& term) const {
  for (const std::string& keyword : term.keywords) {
    bool hit = false;
    for (std::string_view token : scratch_.tokens) {
      if (KeywordHitsToken(keyword, token)) {
        hit = true;
        break;
      }
    }
    if (!hit) {
      return false;
    }
  }
  return true;
}

bool LineMatcher::EvalExpr(const QueryExpr& expr) const {
  switch (expr.kind) {
    case QueryExpr::Kind::kTerm:
      return TermHitsTokens(expr.term);
    case QueryExpr::Kind::kAnd:
      return EvalExpr(*expr.left) && EvalExpr(*expr.right);
    case QueryExpr::Kind::kOr:
      return EvalExpr(*expr.left) || EvalExpr(*expr.right);
    case QueryExpr::Kind::kNot:
      return (expr.left == nullptr || EvalExpr(*expr.left)) &&
             !EvalExpr(*expr.right);
  }
  return false;
}

bool LineMatcher::MatchesTerm(std::string_view line, const SearchTerm& term) {
  TokenizeLineInto(line, &scratch_);
  return TermHitsTokens(term);
}

bool LineMatcher::MatchesQuery(std::string_view line, const QueryExpr& expr) {
  TokenizeLineInto(line, &scratch_);
  return EvalExpr(expr);
}

bool LineMatchesQuery(std::string_view line, const QueryExpr& expr) {
  LineMatcher matcher;
  return matcher.MatchesQuery(line, expr);
}

}  // namespace loggrep
