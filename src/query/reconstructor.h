// Reconstructor (§3): rebuilds original log entries from Capsules.
//
// Fetching the i-th value of a padded Capsule is O(1); values are substituted
// into the runtime pattern and then into the static pattern, reproducing the
// original line byte-for-byte. Results from different groups merge by line
// number (the logical timestamp this implementation assigns at compression
// time).
//
// Rendering is zero-copy where the bytes already exist: per-slot values are
// string_views into Capsule blobs pinned by the querier, and only
// pattern-rendered values (runtime patterns splicing sub-variables) are
// materialized — into an internal arena, not per-value std::strings. The
// views are internal scratch, invalidated by the next Render* call; callers
// only ever see the final assembled line.
#ifndef SRC_QUERY_RECONSTRUCTOR_H_
#define SRC_QUERY_RECONSTRUCTOR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/arena.h"
#include "src/query/locator.h"

namespace loggrep {

class Reconstructor {
 public:
  explicit Reconstructor(BoxQuerier* querier) : querier_(querier) {}

  // Appends the original text of row `row` of group `group_idx` to `*out`.
  // `*out` must not alias the reconstructor's internal storage (any caller
  // buffer is fine).
  void RenderRowTo(uint32_t group_idx, uint32_t row, std::string* out);

  // Appends the original text of the i-th outlier line to `*out`.
  void RenderOutlierTo(uint32_t outlier_idx, std::string* out);

 private:
  // View of slot `slot`'s value, valid until the next RenderRowTo call
  // (backed by a pinned Capsule blob or by arena_).
  std::string_view VariableValueView(uint32_t group_idx, uint32_t slot,
                                     uint32_t row);

  BoxQuerier* querier_;
  ValueArena arena_;  // holds pattern-rendered values for the current row
  std::vector<std::string_view> value_views_;     // per-slot scratch
  std::vector<std::string_view> subvalue_views_;  // per-sub-variable scratch
  std::string render_scratch_;  // runtime-pattern assembly buffer
};

}  // namespace loggrep

#endif  // SRC_QUERY_RECONSTRUCTOR_H_
