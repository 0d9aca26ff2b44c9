// BoxQuerier: per-CapsuleBox query session (the paper's Locator, §5).
//
// Matches single keywords against one group at a time, using — in order —
// static pattern constants, runtime patterns (possible-match enumeration),
// Capsule stamps, and finally fixed-length matching inside the few Capsules
// that survive filtering. Decompressed Capsules are pinned for the lifetime
// of the querier, so multi-keyword queries and reconstruction reuse them;
// when a shared BoxCache is attached, decompressed Capsules additionally
// persist *across* queriers (and across parallel Query workers), so a warm
// repeated or refined query decompresses strictly fewer bytes.
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
// are filled by the layers above the querier (archive / engine).
struct LocatorStats {
  uint64_t capsules_decompressed = 0;
  uint64_t capsules_stamp_filtered = 0;
  uint64_t bytes_decompressed = 0;
  uint64_t pattern_trivial_hits = 0;
  uint64_t possible_matches = 0;

  // Shared BoxCache economics (zero when no cache is attached).
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

  // Field-wise sum (used when aggregating per-block stats).
  void Accumulate(const LocatorStats& other) {
    capsules_decompressed += other.capsules_decompressed;
    capsules_stamp_filtered += other.capsules_stamp_filtered;
    bytes_decompressed += other.bytes_decompressed;
    pattern_trivial_hits += other.pattern_trivial_hits;
    possible_matches += other.possible_matches;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    bytes_saved += other.bytes_saved;
    prune_nanos += other.prune_nanos;
    open_nanos += other.open_nanos;
    stamp_filter_nanos += other.stamp_filter_nanos;
    decompress_nanos += other.decompress_nanos;
    scan_nanos += other.scan_nanos;
    reconstruct_nanos += other.reconstruct_nanos;
  }
};

// Stamp check extended to wildcard keywords: literal characters only, with
// the minimum possible expansion length.
bool StampAdmitsKeyword(const CapsuleStamp& stamp, std::string_view keyword);

// Batched stamp evaluation: admits[i] = stamps[i] admits `probe`. One probe
// classification serves every Capsule; each stamp costs two integer compares.
void BatchStampCheck(const std::vector<CapsuleStamp>& stamps,
                     const StampProbe& probe, std::vector<bool>& admits);

class BoxQuerier {
 public:
  BoxQuerier(const CapsuleBox& box, LocatorOptions options)
      : box_(box), options_(options) {}

  // Attaches a shared cache: decompressed capsules are fetched from / stored
  // into `cache` under `key` (the box's identity). `cache` may be null
  // (equivalent to the two-argument constructor) and must outlive the
  // querier when set.
  BoxQuerier(const CapsuleBox& box, LocatorOptions options, BoxCache* cache,
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

  // Fetches (and pins) the capsule through the shared cache. Only called
  // when cache_ != nullptr.
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
  BoxCache* cache_ = nullptr;  // shared across queriers; may be null
  BoxKey key_;                 // box identity within cache_
  ExplainRecorder* explain_ = nullptr;  // may be null (no explain)
  LocatorStats stats_;
  Status status_;

  // Querier-local pins. Without a shared cache, blob_cache_/split_cache_
  // own the bytes as before; with one, capsule_pins_ keeps shared entries
  // alive (so views stay valid even if the cache evicts them).
  std::unordered_map<uint32_t, std::string> blob_cache_;
  std::unordered_map<uint32_t, std::vector<std::string_view>> split_cache_;
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
