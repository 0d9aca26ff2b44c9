// QuerySession: the paper's *refining mode* (§3, §6.3).
//
// An engineer debugging an incident grows a command incrementally:
//   "ERROR"  ->  "ERROR and aborted"  ->  "ERROR and aborted and code:20012"
// Beyond the engine's query cache (which only replays identical commands), a
// session recognizes when a new command strictly refines the previous one by
// appending "AND <term>" clauses, and then filters the previous hit list
// directly instead of re-running the whole locate pipeline: with entry-level
// containment semantics, appending a conjunct can only shrink the result set.
#ifndef SRC_CORE_SESSION_H_
#define SRC_CORE_SESSION_H_

#include <string>
#include <string_view>

#include "src/core/engine.h"
#include "src/query/query_cache.h"

namespace loggrep {

struct SessionQueryResult {
  QueryHits hits;
  // True when the result was narrowed from the previous command's hits
  // without touching the CapsuleBox.
  bool refined_incrementally = false;
  bool from_cache = false;
};

class QuerySession {
 public:
  // Byte budget for the session-local memo LRU (same budget discipline as
  // the engine's QueryCache, just smaller: one engineer's session).
  static constexpr size_t kMemoByteBudget = 16ull << 20;

  // Borrows both; they must outlive the session.
  QuerySession(LogGrepEngine* engine, std::string_view box_bytes)
      : engine_(engine), box_(box_bytes), memo_(kMemoByteBudget) {}

  Result<SessionQueryResult> Query(std::string_view command);

  // Forget the refinement state and memoized results (e.g. the engineer
  // starts a new hypothesis). Also clears the engine-level command cache the
  // memo fronts, so a reset can never serve pre-reset hits. The bound box is
  // unchanged: Reset is "same data, new hypothesis".
  void Reset();

  std::string_view box() const { return box_; }

 private:
  LogGrepEngine* engine_;
  std::string_view box_;
  std::string last_command_;
  QueryHits last_hits_;
  bool has_last_ = false;
  // Session-local result memo (bounded LRU): revisiting any earlier command
  // is free even when that command was answered by incremental refinement
  // (which the engine's own cache never sees).
  QueryCache memo_;
};

}  // namespace loggrep

#endif  // SRC_CORE_SESSION_H_
