// Query "explain" layer: an auditable, per-block / per-variable-vector /
// per-Capsule account of *why* each Capsule was pruned or opened.
//
// LogGrep's whole economic argument (§5) is that most Capsules are never
// decompressed. Explain mode turns that claim into a decision tree: every
// Capsule a query considers receives exactly one terminal fate —
//
//   avoided without decompression ("pruned"):
//     static-hit          a constant template token answered the keyword, so
//                         the group's Capsules were never consulted
//     pattern-miss        runtime-pattern enumeration produced no possible
//                         match, ruling the vector's Capsules out
//     pattern-trivial     a trivial possible match admitted every row, so no
//                         Capsule needed to be opened
//     stamp-mask          keyword uses a character class outside the stamp
//     stamp-max-length    keyword longer than the stamp's max length
//   opened:
//     cache-hit           served decompressed from the shared BoxCache
//     decompressed        actually decompressed (and scanned)
//
// which yields the accounting invariant checked by tests and loggrep_cli:
//
//   pruned + cached + decompressed == capsules visited     (per block + total)
//
// The recorder lives beside BoxQuerier (one per block query; not
// thread-safe, matching the querier), and LogArchive/LogGrepEngine assemble
// per-block records into a QueryExplain rendered by `loggrep_cli explain`.
#ifndef SRC_QUERY_EXPLAIN_H_
#define SRC_QUERY_EXPLAIN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace loggrep {

enum class CapsuleFate : uint8_t {
  // Pruned (avoided without decompression).
  kStaticHit,
  kPatternMiss,
  kPatternTrivial,
  kStampMaskReject,
  kStampLenReject,
  // Opened.
  kCacheHit,
  kDecompressed,
};

const char* CapsuleFateName(CapsuleFate fate);
bool FateIsOpen(CapsuleFate fate);    // cache-hit / decompressed

// One visited Capsule's terminal fate, tagged with the context (group /
// variable slot / keyword) in which it was first decided.
struct CapsuleExplain {
  uint32_t capsule = 0;
  CapsuleFate fate = CapsuleFate::kDecompressed;
  uint64_t bytes = 0;  // decompressed bytes when opened
  size_t visit = 0;    // index into BlockExplain::visits
};

// One consultation of a variable vector (or pseudo-stage) for one keyword.
struct VarVisit {
  uint32_t group = 0;
  int32_t slot = -1;        // -1: not a variable (outliers / reconstruct)
  const char* kind = "";    // "real" / "nominal" / "whole" / "outliers" /
                            // "group" / "reconstruct"
  std::string keyword;      // empty for the reconstruct stage
};

struct ExplainTotals {
  uint64_t visited = 0;
  uint64_t pruned = 0;
  uint64_t cached = 0;
  uint64_t decompressed = 0;
  uint64_t bytes_decompressed = 0;

  void Accumulate(const ExplainTotals& other) {
    visited += other.visited;
    pruned += other.pruned;
    cached += other.cached;
    decompressed += other.decompressed;
    bytes_decompressed += other.bytes_decompressed;
  }
  bool Balanced() const { return pruned + cached + decompressed == visited; }
};

// The decision record of one block (one CapsuleBox).
struct BlockExplain {
  uint32_t seq = 0;
  uint64_t hits = 0;             // matching entries in this block
  bool block_pruned = false;     // pruned at the archive level (never opened)
  std::string prune_reason;      // e.g. which keyword failed which filter
  bool block_failed = false;     // quarantined / failed: hole in the result
  std::string failure;           // the failure behind the hole
  std::vector<VarVisit> visits;
  std::vector<CapsuleExplain> capsules;  // one entry per visited capsule

  ExplainTotals Totals() const;
};

// A whole query's explain tree (one block for engine-level queries, many for
// archive queries; archive-pruned blocks appear with block_pruned set).
struct QueryExplain {
  std::string command;
  std::vector<BlockExplain> blocks;

  ExplainTotals Totals() const;

  // The accounting invariant: every block (and the total) must satisfy
  // pruned + cached + decompressed == visited. On failure, `detail`
  // (optional) receives a description of the first imbalance.
  bool CheckInvariant(std::string* detail = nullptr) const;

  // Human-readable decision tree (one line per capsule fate), ending with
  // per-block and total accounting lines.
  std::string Render() const;
};

// Collects capsule fates for one block query. Attach to a BoxQuerier; the
// engine drives Begin/End around match stages. Dedup discipline: a capsule's
// first fate sticks, except that an "opened" fate always upgrades a "pruned"
// one (a capsule stamped out for one keyword but decompressed for another
// counts as decompressed).
class ExplainRecorder {
 public:
  explicit ExplainRecorder(BlockExplain* block) : block_(block) {}

  ExplainRecorder(const ExplainRecorder&) = delete;
  ExplainRecorder& operator=(const ExplainRecorder&) = delete;

  // Opens a visit context; subsequent Record calls attribute to it.
  void BeginVisit(uint32_t group, int32_t slot, const char* kind,
                  std::string_view keyword);
  // Context used when capsules are touched outside a match stage
  // (reconstruction renders matched rows).
  void BeginStage(const char* kind);

  void Record(uint32_t capsule, CapsuleFate fate, uint64_t bytes = 0);

  BlockExplain* block() const { return block_; }

 private:
  size_t CurrentVisit();

  BlockExplain* block_;
  std::unordered_map<uint32_t, size_t> index_;  // capsule id -> capsules idx
  bool has_visit_ = false;
};

}  // namespace loggrep

#endif  // SRC_QUERY_EXPLAIN_H_
