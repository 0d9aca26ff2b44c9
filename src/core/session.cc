#include "src/core/session.h"

#include "src/query/line_match.h"
#include "src/query/query_parser.h"

namespace loggrep {
namespace {

// If `command` == `previous` + " and <suffix...>" (case-insensitive "and"),
// returns the appended suffix ("<suffix...>"), else empty.
std::string_view RefinementSuffix(std::string_view previous,
                                  std::string_view command) {
  if (previous.empty() || command.size() <= previous.size() ||
      command.substr(0, previous.size()) != previous) {
    return {};
  }
  std::string_view rest = command.substr(previous.size());
  // Expect " and " (any case) next.
  if (rest.size() < 6 || rest[0] != ' ') {
    return {};
  }
  const std::string_view word = rest.substr(1, 3);
  if (!((word[0] == 'a' || word[0] == 'A') && (word[1] == 'n' || word[1] == 'N') &&
        (word[2] == 'd' || word[2] == 'D')) ||
      rest[4] != ' ') {
    return {};
  }
  return rest.substr(5);
}

}  // namespace

Result<SessionQueryResult> QuerySession::Query(std::string_view command) {
  SessionQueryResult out;
  const std::string command_key(command);
  if (auto memoized = memo_.Lookup(command_key); memoized.has_value()) {
    out.hits = std::move(memoized->hits);
    out.from_cache = true;
    last_command_ = command_key;
    last_hits_ = out.hits;
    has_last_ = true;
    return out;
  }
  const std::string_view suffix =
      has_last_ ? RefinementSuffix(last_command_, command) : std::string_view();
  if (!suffix.empty()) {
    // Parse just the appended clause; it must itself be a pure AND chain for
    // the incremental path to be sound ("a AND x AND y" refines "a", but
    // "a OR x" does not).
    Result<std::unique_ptr<QueryExpr>> appended = ParseQuery(suffix);
    bool pure_and = appended.ok();
    if (pure_and) {
      for (const QueryExpr* node = appended->get(); node != nullptr;
           node = node->left.get()) {
        if (node->kind != QueryExpr::Kind::kTerm &&
            node->kind != QueryExpr::Kind::kAnd) {
          pure_and = false;
          break;
        }
        if (node->kind == QueryExpr::Kind::kTerm) {
          break;
        }
      }
    }
    if (pure_and) {
      out.refined_incrementally = true;
      LineMatcher matcher;
      for (const auto& [line, text] : last_hits_) {
        if (matcher.MatchesQuery(text, **appended)) {
          out.hits.emplace_back(line, text);
        }
      }
      last_command_ = command_key;
      last_hits_ = out.hits;
      memo_.Insert(command_key, out.hits);
      return out;
    }
  }

  Result<QueryResult> full = engine_->Query(box_, command);
  if (!full.ok()) {
    return full.status();
  }
  out.hits = std::move(full->hits);
  out.from_cache = full->from_cache;
  last_command_ = command_key;
  last_hits_ = out.hits;
  has_last_ = true;
  memo_.Insert(command_key, out.hits);
  return out;
}

void QuerySession::Reset() {
  has_last_ = false;
  last_command_.clear();
  last_hits_.clear();
  memo_.Clear();
  // The memo fronts the engine's command cache; a reset must flush both or a
  // post-reset query could be answered with pre-reset hits.
  engine_->ClearCache();
}

}  // namespace loggrep
