// Reference query semantics over raw log lines.
//
// A search term hits an entry when EVERY keyword of the term is contained in
// some token of the entry (wildcards stay within one token, §3). This helper
// defines those semantics once; the decompress-and-scan baselines use it
// directly, and LogGrep's index-level matching is expected to agree with it
// exactly (property-tested in tests/).
#ifndef SRC_QUERY_LINE_MATCH_H_
#define SRC_QUERY_LINE_MATCH_H_

#include <string_view>

#include "src/parser/tokenizer.h"
#include "src/query/query_parser.h"

namespace loggrep {

// Stateful matcher for hot loops: tokenizes each line ONCE (even when the
// query has several terms) into reusable scratch, so per-line evaluation
// stops allocating after warm-up. One instance per thread; not thread-safe.
class LineMatcher {
 public:
  // True when every keyword of `term` hits some token of `line`.
  bool MatchesTerm(std::string_view line, const SearchTerm& term);

  // Full boolean evaluation of a parsed query over one line.
  bool MatchesQuery(std::string_view line, const QueryExpr& expr);

 private:
  bool TermHitsTokens(const SearchTerm& term) const;
  bool EvalExpr(const QueryExpr& expr) const;

  TokenizedLine scratch_;  // tokens of the line currently being evaluated
};

// One-shot convenience (constructs a matcher per call).
bool LineMatchesQuery(std::string_view line, const QueryExpr& expr);

}  // namespace loggrep

#endif  // SRC_QUERY_LINE_MATCH_H_
