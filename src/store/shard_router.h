// ShardRouter: the pure routing/pruning arithmetic of the ArchiveSet layer.
//
// An ArchiveSet partitions ingest by (tenant, time-window): every appended
// block lands in the active shard of its tenant, and a shard covers one
// aligned time window. This header holds the side-effect-free half of that
// story — tenant name sanitization (tenant strings become directory-name
// components), window alignment math, the roll decision, and the shard-level
// predicate pruning a query runs before any shard directory is even opened.
// Keeping it free of I/O makes the routing rules unit-testable in
// microseconds and keeps ArchiveSet's crash-safety logic separate from its
// arithmetic.
#ifndef SRC_STORE_SHARD_ROUTER_H_
#define SRC_STORE_SHARD_ROUTER_H_

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace loggrep {

// Sentinel for ShardInfo::superseded_by: the shard has not been compacted
// away. (0 is a valid shard id, so the sentinel is all-ones.)
inline constexpr uint64_t kNotSuperseded = UINT64_MAX;

// One shard's routing-relevant identity, as recorded in set_manifest.json.
// (ArchiveSet keeps richer state; the router only sees what pruning needs.)
struct ShardInfo {
  uint64_t id = 0;
  std::string tenant;       // raw tenant name (pre-sanitization)
  std::string dir_name;     // directory under the set root ("shard-...")
  uint64_t window_start_ns = 0;
  uint64_t window_end_ns = UINT64_MAX;  // exclusive; UINT64_MAX = unbounded
  // Global line-number base: shard-local line L is global line
  // line_base + L. Bases are allocated once and never reused — so global
  // line numbers stay stable after retention removes interior shards.
  // Freshly rolled shards get strictly increasing bases; a merged shard
  // inherits its first source's base (the merge preserves every source
  // line's global number), so bases are non-decreasing in manifest order.
  uint64_t line_base = 0;
  // Stats. For sealed shards these are final and exact; for the active
  // shard they are advisory (refreshed on append, recomputed from the
  // archive itself after a crash).
  uint64_t lines = 0;
  uint64_t raw_bytes = 0;
  uint64_t stored_bytes = 0;
  // Observed event-timestamp range, inclusive. Maintained conservatively:
  // the manifest write that widens the range happens *before* the append it
  // covers, so a crash can only leave the range too wide, never too narrow —
  // which keeps time pruning sound. Empty shards keep the
  // (UINT64_MAX, 0) sentinel.
  uint64_t min_ts_ns = UINT64_MAX;
  uint64_t max_ts_ns = 0;
  bool sealed = false;   // no further appends; stats and ts range are final
  bool expired = false;  // retention tombstone: data removed, entry kept
                         // forever so line bases of later shards never shift
  // Compaction tombstone: this shard's blocks now live (at the same global
  // line numbers) inside merged shard `superseded_by`. Like `expired`, the
  // entry is kept forever so later line bases never shift; unlike `expired`
  // the data is still queryable — through the merged shard.
  uint64_t superseded_by = kNotSuperseded;
  // Width of the global line-number span this shard owns. Freshly rolled
  // shards own kShardLineSpan; a merged shard owns the union of its
  // sources' spans (last source's base + span - first source's base).
  uint64_t line_span = 0;

  bool empty() const { return lines == 0; }
  bool superseded() const { return superseded_by != kNotSuperseded; }
  // A shard a query may visit: not a retention tombstone, not compacted
  // away. Everything that enumerates "real" shards filters on this.
  bool live() const { return !expired && !superseded(); }
};

// Optional shard-level predicates a federated query carries. Absent fields
// impose nothing. The time range is inclusive on both ends and matches
// against the shard's *event-timestamp* range, not its window bounds (the
// window is where data was routed; min/max_ts is what is actually there).
struct SetQueryPredicate {
  std::optional<std::string> tenant;
  uint64_t from_ns = 0;
  uint64_t to_ns = UINT64_MAX;

  bool constrains_time() const { return from_ns > 0 || to_ns < UINT64_MAX; }
};

// Tenant string -> directory-safe component: [A-Za-z0-9_-] pass through,
// every other byte becomes '_', the result is truncated to 48 bytes, and an
// empty tenant maps to "default". Distinct tenants may collide after
// sanitization; shard directories stay unique regardless because the shard
// id is part of the name.
std::string SanitizeTenant(std::string_view tenant);

// "shard-<id, 6+ digits>-<sanitized tenant>".
std::string ShardDirName(uint64_t id, std::string_view tenant);

// True when `name` looks like a shard directory this layer created (used by
// the orphan sweep on Open; never matches set_manifest.json or foreign
// files).
bool LooksLikeShardDir(std::string_view name);

// Aligned window start for an event timestamp. span_ns == 0 means a single
// unbounded window (all time routes to one shard per tenant).
uint64_t WindowStartFor(uint64_t ts_ns, uint64_t span_ns);

// Why Route() decided a new shard is needed (also the explain vocabulary
// for roll decisions in tests).
enum class RollReason {
  kNone,          // append goes to the existing active shard
  kNoActive,      // tenant has no active shard yet
  kWindowMoved,   // ts falls outside the active shard's window
  kSizeCut,       // active shard reached max_shard_bytes of raw input
  kLineSpanFull,  // active shard would overflow its global line-number span
};
const char* RollReasonName(RollReason reason);

// Decides whether an append of `append_lines` lines at event time `ts_ns`
// may land in `active` (the tenant's current unsealed shard; null when the
// tenant has none). `max_shard_bytes` == 0 disables the size cut;
// `line_span` is the per-shard global line budget (ArchiveSet passes
// kShardLineSpan).
RollReason DecideRoll(const ShardInfo* active, uint64_t ts_ns,
                      uint64_t append_lines, uint64_t span_ns,
                      uint64_t max_shard_bytes, uint64_t line_span);

// Shard-level pruning: returns an empty string when the query must visit
// `shard`, otherwise a human-readable reason naming the rejecting predicate
// (surfaced verbatim in SetExplain). Soundness: a shard is only pruned on
// evidence that is exact-or-conservative — the tenant label, the sealed
// emptiness, or a sealed shard's conservative [min_ts, max_ts] range. An
// unsealed shard is never time-pruned (its recorded range may predate a
// crash).
std::string ShardPruneReason(const ShardInfo& shard,
                             const SetQueryPredicate& pred);

// ---------------------------------------------------------------------------
// Compaction planning (pure; ArchiveSet::Compact executes the plan).

// Run length bounds of one merge. A shorter run is left alone (merging one
// shard is a no-op); a longer one is split, so a single merge stays a
// bounded amount of I/O and a bounded crash-recovery window.
inline constexpr size_t kMinCompactionRunShards = 2;
inline constexpr size_t kMaxCompactionRunShards = 8;

// One planned merge: adjacent candidate shards of a single tenant, in
// line_base order (== manifest order).
struct CompactionRun {
  std::string tenant;
  std::vector<uint64_t> shard_ids;
};

// Selects runs of adjacent sealed same-tenant shards worth merging.
// A candidate is sealed, live (neither expired nor superseded), non-empty,
// and not in `excluded_ids` (ArchiveSet passes shards with unrepaired
// quarantined blocks — their holes are not final, so their bytes must not
// be frozen into a merged shard). Adjacency is within a tenant's live
// shards in manifest order: shards of *other* tenants interleaved between
// two candidates do not break a run, but a non-candidate shard of the same
// tenant does. Runs are disjoint and returned in manifest order; each holds
// kMinCompactionRunShards to kMaxCompactionRunShards shards.
std::vector<CompactionRun> PlanCompaction(const std::vector<ShardInfo>& shards,
                                          const std::set<uint64_t>& excluded_ids);

}  // namespace loggrep

#endif  // SRC_STORE_SHARD_ROUTER_H_
