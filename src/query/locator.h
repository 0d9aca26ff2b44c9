// BoxQuerier: per-CapsuleBox query session (the paper's Locator, §5).
//
// Matches single keywords against one group at a time, using — in order —
// static pattern constants, runtime patterns (possible-match enumeration),
// Capsule stamps, and finally fixed-length matching inside the few Capsules
// that survive filtering. Capsules are fetched through the engine's BoxCache
// and pinned for the lifetime of the querier, so multi-keyword queries and
// reconstruction reuse them; what the cache keeps persists *across*
// queriers, so a warm repeated or refined query decompresses strictly fewer
// bytes.
#ifndef SRC_QUERY_LOCATOR_H_
#define SRC_QUERY_LOCATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/capsule/capsule_box.h"
#include "src/common/rowset.h"
#include "src/query/box_cache.h"
#include "src/query/explain.h"
#include "src/query/pattern_match.h"

namespace loggrep {

struct LocatorOptions {
  bool use_stamps = true;  // Capsule-stamp filtering (w/o stamp ablation)
  bool use_bm = true;      // Boyer-Moore on padded columns (vs KMP)
};

// Per-query cost accounting: decompression work, filter effectiveness,
// shared-cache economics, and per-stage wall time. Stage timings are
// nanoseconds (stamp checks are far sub-microsecond). The prune/open stages
// are filled by the layers above the querier (archive / engine). Every
// field is one row of kQueryLedger below, which names it for every
// rendering.
struct LocatorStats {
  uint64_t capsules_decompressed = 0;
  uint64_t capsules_stamp_filtered = 0;
  uint64_t bytes_decompressed = 0;

  // Shared BoxCache economics (a zero-budget cache only ever misses).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t bytes_saved = 0;  // decompressed bytes served from the cache

  // Stage wall time, nanoseconds.
  uint64_t prune_nanos = 0;        // archive: block-level pruning
  uint64_t open_nanos = 0;         // engine: file read + CapsuleBox::Open
  uint64_t stamp_filter_nanos = 0; // querier: stamp admission checks
  uint64_t decompress_nanos = 0;   // querier: Capsule decompression (or fetch)
  uint64_t scan_nanos = 0;         // engine: boolean evaluation / matching
  uint64_t reconstruct_nanos = 0;  // engine: rendering matched rows

  // Row-wise sum (used when aggregating per-block stats).
  void Accumulate(const LocatorStats& other);
};

// One row of the query ledger: a LocatorStats field under its one name.
// A stage row holds wall nanoseconds and its key is "<name>_ns"; a counter
// row's key is its name. The key names the field in the /query body's
// "stats" object (and so in the access log); rows marked `engine_metric`
// are also published by the engine per query as "query.<key>" (stages as
// histograms, counters as cumulative counters).
struct LedgerRow {
  std::string_view name;
  uint64_t LocatorStats::*field;
  bool stage;
  bool engine_metric;
};

// The ledger, in the order of the /query body's "stats" keys.
inline constexpr LedgerRow kQueryLedger[] = {
    {"bytes_decompressed", &LocatorStats::bytes_decompressed, false, true},
    {"bytes_saved", &LocatorStats::bytes_saved, false, false},
    {"cache_hits", &LocatorStats::cache_hits, false, false},
    {"cache_misses", &LocatorStats::cache_misses, false, false},
    {"capsules_decompressed", &LocatorStats::capsules_decompressed, false,
     false},
    {"capsules_stamp_filtered", &LocatorStats::capsules_stamp_filtered, false,
     false},
    {"decompress", &LocatorStats::decompress_nanos, true, true},
    {"open", &LocatorStats::open_nanos, true, true},
    {"prune", &LocatorStats::prune_nanos, true, false},
    {"reconstruct", &LocatorStats::reconstruct_nanos, true, true},
    {"scan", &LocatorStats::scan_nanos, true, true},
    {"stamp_filter", &LocatorStats::stamp_filter_nanos, true, true},
};

inline void LocatorStats::Accumulate(const LocatorStats& other) {
  for (const LedgerRow& row : kQueryLedger) {
    this->*row.field += other.*row.field;
  }
}

// Appends the row's key ("scan_ns", "cache_hits") to `out`.
inline void AppendLedgerKey(std::string* out, const LedgerRow& row) {
  out->append(row.name);
  if (row.stage) {
    out->append("_ns");
  }
}

// Stamp check extended to wildcard keywords: literal characters only, with
// the minimum possible expansion length.
bool StampAdmitsKeyword(const CapsuleStamp& stamp, std::string_view keyword);

class BoxQuerier {
 public:
  // Decompressed capsules are fetched from / stored into `cache` under `key`
  // (the box's identity). `cache` must outlive the querier.
  BoxQuerier(const CapsuleBox& box, LocatorOptions options, BoxCache& cache,
             const BoxKey& key)
      : box_(box), options_(options), cache_(cache), key_(key) {}

  // Rows of group `group_idx` whose entry contains `keyword` in a token.
  RowSet MatchKeywordInGroup(uint32_t group_idx, std::string_view keyword);

  // Positions (within the outlier list) of raw outlier lines hit by `keyword`.
  RowSet MatchKeywordInOutliers(std::string_view keyword);

  // Decompressed capsule bytes (cached). Returns empty view and latches an
  // error status on failure.
  std::string_view CapsuleBlob(uint32_t id);

  // Values of a delimited capsule (cached; views into the cached blob).
  const std::vector<std::string_view>& DelimitedValues(uint32_t id);

  // Row translation for real variables: present index -> group row.
  const std::vector<uint32_t>& PresentRows(uint32_t group_idx, uint32_t slot);

  // Attaches a per-block explain recorder: every Capsule the querier
  // considers receives a terminal fate (see explain.h). May be null;
  // must outlive the querier when set.
  void AttachExplain(ExplainRecorder* recorder) { explain_ = recorder; }

  const CapsuleBox& box() const { return box_; }
  const LocatorStats& stats() const { return stats_; }
  Status status() const { return status_; }

 private:
  RowSet MatchInWhole(const GroupMeta& group, const WholeVarMeta& wv,
                      std::string_view keyword);
  RowSet MatchInReal(const GroupMeta& group, uint32_t group_idx, uint32_t slot,
                     const RealVarMeta& rv, std::string_view keyword);
  RowSet MatchInNominal(const GroupMeta& group, const NominalVarMeta& nv,
                        std::string_view keyword);

  // Evaluates one possible match's constraint conjunction over the present
  // rows of a real variable; returns present-row indices.
  std::vector<uint32_t> EvaluateConstraints(const RealVarMeta& rv,
                                            const PossibleMatch& match);

  // Stamp admission with stage-time accounting. `wildcard_aware` selects the
  // wildcard-tolerant check (StampAdmitsKeyword) over the literal one.
  bool StampAdmits(const CapsuleStamp& stamp, std::string_view keyword,
                   bool wildcard_aware);

  // Memoized keyword-side of the stamp check: classifying a keyword's
  // characters happens once per querier, not once per Capsule, so stamp
  // evaluation batches across capsules (and across groups).
  const StampProbe& ProbeFor(std::string_view keyword, bool wildcard_aware);

  // Fetches (and pins) the capsule through the shared cache; null (with
  // the error latched) on failure.
  const CachedCapsule* FetchCachedCapsule(uint32_t id);

  void LatchError(const Status& status) {
    if (status_.ok()) {
      status_ = status;
    }
  }

  // Reports every capsule of `group` to the explain recorder with `fate`
  // (used when a whole group is answered without touching its capsules).
  void ExplainGroupCapsules(const GroupMeta& group, CapsuleFate fate);

  const CapsuleBox& box_;
  LocatorOptions options_;
  BoxCache& cache_;  // shared across queriers
  BoxKey key_;       // box identity within cache_
  ExplainRecorder* explain_ = nullptr;  // may be null (no explain)
  LocatorStats stats_;
  Status status_;

  // Querier-local pins: keep fetched entries alive (so views stay valid
  // even if the cache evicts them, or never kept them) and decode each
  // capsule at most once per querier.
  std::unordered_map<uint32_t, std::shared_ptr<const CachedCapsule>>
      capsule_pins_;
  std::unordered_map<uint64_t, std::vector<uint32_t>> present_rows_cache_;
  std::vector<std::string_view> empty_values_;

  // Keyword-side stamp probes, memoized per (keyword, wildcard-awareness).
  // Transparent hashing so the hot lookup path never allocates.
  struct TransparentHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  using ProbeCache =
      std::unordered_map<std::string, StampProbe, TransparentHash,
                         std::equal_to<>>;
  ProbeCache literal_probes_;
  ProbeCache wildcard_probes_;
  std::vector<bool> stamp_admits_;  // scratch for batched section checks
};

}  // namespace loggrep

#endif  // SRC_QUERY_LOCATOR_H_
