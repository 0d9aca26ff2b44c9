// ArchiveSet: a federation of LogArchive shards under one root directory,
// partitioned by (tenant, time-window).
//
// One LogArchive is one directory — MB-to-GB scale. The paper's setting is
// TB/day across many streams (§2, §8), which needs one more dimension:
// ArchiveSet owns many shards, routes every append to the active shard of
// its tenant (rolling to a new shard when the time window moves or the shard
// hits its size cut), and scatter-gathers queries across the shards that
// survive tenant/time-range pruning, merging per-shard results into one
// globally line-numbered answer.
//
// Crash safety follows the store's one discipline, lifted a level: the
// manifest-of-manifests `set_manifest.json` is the single commit point and
// every rewrite goes through WriteFileAtomic (tmp + fsync + rename + parent
// fsync, via the injectable StorageEnv). Ordering makes each transition safe:
//
//   roll       create shard dir + archive FIRST        [kShardCreated]
//              then one manifest rewrite (seal old +
//              add new)                                [kRollManifestWritten]
//              — a crash between the two leaves an orphan dir holding no
//                committed appends; Open sweeps it.
//   append     widen the shard's recorded ts range
//              in the manifest FIRST                   [kAppendManifestWritten]
//              then commit the block into the shard
//              — a crash between the two leaves the range too wide (pruning
//                stays sound) and stale advisory stats (Open recomputes
//                unsealed shard stats from the archive itself).
//   retention  mark entries expired in the manifest    [kRetentionManifest-
//              (THE commit point), then remove dirs     Written]
//              — a crash mid-removal is finished by Open; an expired entry
//                is never resurrected, and is kept in the manifest forever
//                so later shards' global line bases never shift.
//   compaction build the merged shard in a staging dir [kCompactStaged]
//              (never shard-named: a crash leaves it
//              sweepable, invisible to the manifest),
//              rename it to its final shard name       [kCompactShardRenamed]
//              (still unreferenced — a crash here
//              leaves an orphan shard dir, swept),
//              then ONE manifest rewrite adding the
//              merged entry + marking every source
//              superseded_by=<id> (THE commit point),  [kCompactManifest-
//              then remove the source dirs              Written]
//              — resumable by Open like retention.     [kCompactSources-
//                                                       Removed]
//              Every manifest rewrite bumps a persisted generation counter;
//              a compaction commit re-validates its sources against the
//              live manifest when the generation moved under it (retention
//              may have expired a source mid-build), so a stale plan aborts
//              instead of clobbering newer state.
//
// Global line numbering: shard `i` owns the half-open line range
// [line_base_i, line_base_i + kShardLineSpan); bases are allocated from a
// persisted counter and never reused. A hit at shard-local line L reports
// global line line_base + L — stable across retention, compaction, and
// reopen, and safely summable into 64 bits (2^24 shards of 2^40 lines).
//
// Degradation composes: one failing block inside a shard degrades that
// shard's result (PartialReport, PR 5); one failing *shard* degrades the
// federation the same way — the set answer carries exact hits from every
// healthy shard plus a report naming each hole, and the serving layer maps
// it to HTTP 206 exactly as for a single archive.
//
// Thread-safety: every public method but set_commit_hook is safe to call
// concurrently. Writers (Append, retention, repair, the compaction commit)
// serialize on one internal mutex; Append summarizes and compresses its
// block before taking it and holds it only for the roll decision, the
// range-widening manifest write and the block commit. A query holds that
// mutex only to snapshot its visit list — parse, shard pruning, lazy shard
// opens, and a copy of each visited shard's ShardInfo plus a shared handle
// — then scatters without it, so queries run in parallel with each other
// and with writers. Each shard archive guards itself (LogArchive: shared
// reads, exclusive commits). A shard that retention or compaction retires
// while a query still holds its handle keeps its directory until that query
// lets go; the snapshot makes every query see a shard set that was current at
// one instant (all of a compaction's sources, or its merged shard — never
// both, never neither).
#ifndef SRC_STORE_ARCHIVE_SET_H_
#define SRC_STORE_ARCHIVE_SET_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <condition_variable>
#include <vector>

#include "src/query/explain.h"
#include "src/store/compaction.h"
#include "src/store/log_archive.h"
#include "src/store/shard_router.h"
#include "src/store/verify.h"

namespace loggrep {

struct ArchiveSetOptions {
  // Per-shard archive options (storage env, retry policy, cache budget,
  // metrics registry — all apply to every shard).
  ArchiveOptions archive;
  // Time-window span for shard partitioning. 0 = one unbounded window per
  // tenant (shards then roll on size only).
  uint64_t window_span_ns = 0;
  // Raw-byte size cut: an active shard at or past this many ingested bytes
  // rolls before the next append. 0 disables the size cut.
  uint64_t max_shard_bytes = 64ull << 20;
  // Retention TTL for sealed shards, measured against event timestamps:
  // RunRetention(now) expires sealed shards whose newest event is older
  // than now - retention_ns. 0 = keep forever.
  uint64_t retention_ns = 0;
  // Thresholds for Compact() and the janitor's compaction step.
  CompactionPolicy compaction;
  // Optional sink for structured one-line JSON events from background
  // maintenance (janitor pass errors, compaction commits). The serving
  // layer wires this into its access log so operator-relevant failures are
  // never silently swallowed. Called without the set lock held; must be
  // thread-safe.
  std::function<void(const std::string& json_line)> event_log;
};

// What one Append did — enough for a caller (or an oracle) to know exactly
// which global lines its text received without re-deriving routing.
struct AppendReceipt {
  uint64_t shard_id = 0;
  uint64_t first_global_line = 0;  // global line of the appended text's
                                   // first entry
  uint64_t lines = 0;              // entries appended
  bool rolled = false;             // this append opened a new shard
  RollReason roll_reason = RollReason::kNone;
};

// A shard the federated query could not serve at all (archive failed to
// open, or the whole per-shard query failed). Block-level holes inside
// shards that *did* answer land in SetQueryResult::partial instead.
struct SetShardFailure {
  uint64_t shard_id = 0;
  std::string tenant;
  uint64_t line_base = 0;
  uint64_t lines = 0;  // advisory line count of the hole
  std::string error;
};

// A federated answer in the single-archive shape: `hits` carry global line
// numbers (shard line_base + shard-local line), the block counters and
// `locator` are summed over visited shards, and `partial` concatenates the
// shards' block-level holes with first_line rebased to global numbering.
// Hits ascend: usually for free (bases are non-decreasing in visit order);
// when a merged shard's line span interleaves with other tenants' bases the
// gather re-sorts — line numbers are globally unique, so the order is total.
struct SetQueryResult : ArchiveQueryResult {
  uint32_t shards_total = 0;    // live (non-tombstoned) shards considered
  uint32_t shards_pruned = 0;   // rejected by tenant/time predicates
  uint32_t shards_visited = 0;  // actually queried (pruned+visited==total)
  uint32_t shards_failed = 0;   // of visited, how many failed entirely
  // Whole-shard holes.
  std::vector<SetShardFailure> shard_failures;

  bool complete() const {
    return !partial.partial() && shard_failures.empty();
  }
  // Human-readable degradation report covering both hole kinds.
  std::string RenderPartial() const;
};

// Set-level explain: one entry per live shard, each either pruned (with the
// rejecting predicate), failed, or carrying the full per-block QueryExplain
// of the shard's execution.
struct ShardExplain {
  uint64_t id = 0;
  std::string tenant;
  bool pruned = false;
  std::string prune_reason;
  bool failed = false;
  std::string failure;
  QueryExplain archive;  // visited shards only
};

struct SetExplain {
  std::string command;
  std::vector<ShardExplain> shards;

  ExplainTotals Totals() const;  // summed over visited shards
  // Shard accounting (pruned + visited == total) plus every visited shard's
  // own capsule invariant (pruned + cached + decompressed == visited).
  bool CheckInvariant(std::string* detail = nullptr) const;
  std::string Render() const;
};

struct SetRetentionReport {
  std::vector<uint64_t> expired_ids;
  size_t dirs_removed = 0;
  Status fatal = OkStatus();

  bool ok() const { return fatal.ok(); }
  std::string Summary() const;
};

struct SetRepairReport {
  // One RepairArchive report per live shard with a non-empty quarantine.
  std::vector<std::pair<uint64_t, RepairReport>> shards;
  size_t reinstated = 0;
  size_t tombstoned = 0;
  Status fatal = OkStatus();

  bool ok() const { return fatal.ok(); }
  std::string Summary() const;
};

// Kill points for the set-level commit protocols (mirrors CommitKillPoint
// one level down). The hook returns true to abort as if the process died at
// that instant; the interrupted operation returns an error and the on-disk
// state is whatever the protocol guarantees for that point.
enum class SetKillPoint {
  kShardCreated,             // roll: new shard dir + archive exist, manifest
                             // does not mention them yet
  kRollManifestWritten,      // roll: manifest rewrite committed
  kAppendManifestWritten,    // append: ts-range widening committed, block
                             // not yet in the shard
  kRetentionManifestWritten, // retention: entries marked expired, dirs not
                             // yet removed
  kCompactStaged,            // compaction: merged shard fully built in its
                             // staging dir, not yet renamed
  kCompactShardRenamed,      // compaction: merged dir at its final shard
                             // name, manifest still ignorant of it
  kCompactManifestWritten,   // compaction: merged entry committed + sources
                             // marked superseded, source dirs not yet gone
  kCompactSourcesRemoved,    // compaction: source dirs removed
};
const char* SetKillPointName(SetKillPoint point);
using SetCommitHook = std::function<bool(SetKillPoint)>;

class ArchiveSet {
 public:
  // Global line-number span owned by one shard (2^40 lines). line_base
  // allocation strides by this; DecideRoll cuts a shard before it overflows.
  static constexpr uint64_t kShardLineSpan = 1ull << 40;

  // Creates an empty set at `root` (created if missing; must not already
  // hold a set manifest).
  static Result<std::unique_ptr<ArchiveSet>> Create(std::string root,
                                                    ArchiveSetOptions options = {});
  // Opens an existing set. Recovery: finishes interrupted retention and
  // compaction removals (expired/superseded entries whose dirs linger),
  // sweeps orphan shard dirs (a roll — or a compaction rename — that died
  // before its manifest rewrite), half-built compaction staging dirs, and
  // stray manifest temps, and marks unsealed shards' stats for
  // recomputation from their own archives. Never loses a shard the
  // manifest committed; never resurrects an expired or superseded one.
  static Result<std::unique_ptr<ArchiveSet>> Open(std::string root,
                                                  ArchiveSetOptions options = {});

  ~ArchiveSet();
  ArchiveSet(const ArchiveSet&) = delete;
  ArchiveSet& operator=(const ArchiveSet&) = delete;

  // Appends one block of text for `tenant` at event time `ts_ns` (0 = the
  // storage env's clock). Routes to the tenant's active shard, rolling
  // first when the router says so.
  Result<AppendReceipt> Append(std::string_view tenant, std::string_view text,
                               uint64_t ts_ns = 0);

  // Federated query over every live shard surviving `pred`. `options`
  // (degrade, retry deadline, threads) applies to this call only; with
  // degrade off an unopenable or failing shard fails the query instead of
  // becoming a hole. options.threads > 1 queries the surviving shards
  // concurrently on that many pool workers (each shard serially); otherwise
  // the scatter goes shard at a time.
  //
  // With a non-null `explain` the call also records the shard-level
  // decision tree: `explain` is reset, pruned shards carry the rejecting
  // predicate and visited shards their per-block QueryExplain. An explained
  // call runs serially, like LogArchive::Query with a tree.
  Result<SetQueryResult> Query(std::string_view command,
                               const SetQueryPredicate& pred = {},
                               const QueryOptions& options = {},
                               SetExplain* explain = nullptr);

  // Expires sealed shards whose newest event timestamp is older than
  // now_ns - retention_ns (plus sealed empty shards). No-op when
  // retention_ns == 0.
  Result<SetRetentionReport> RunRetention(uint64_t now_ns);

  // Fleet-level janitor pass: RepairArchive over every live shard that has
  // quarantined blocks, then reloads the quarantine of any open handle so
  // reinstated blocks serve immediately.
  SetRepairReport RepairAll();

  // Online compaction: plans runs of adjacent sealed same-tenant shards
  // (PlanCompaction; shards with unrepaired quarantined blocks are
  // excluded), builds each run's merged shard in a staging dir *outside*
  // the set lock (concurrent appends/queries proceed on the sources), then
  // commits it under the lock with the ordered protocol documented at the
  // top of this file. Every source line keeps its exact global line number.
  // Concurrent Compact() calls serialize on their own mutex; a run whose
  // sources changed under it (retention, a racing compactor) is aborted,
  // not committed. Returns per-call counts; `fatal` carries the first
  // build/commit failure (later runs are still attempted unless the
  // failure was a kill-point abort).
  SetCompactionReport Compact();  // options_.compaction thresholds
  SetCompactionReport Compact(const CompactionPolicy& policy);

  // Background janitor: every interval (storage-env clock) runs one
  // maintenance pass — retention (at the env's NowNanos), then RepairAll,
  // then Compact when `options.compaction` allows. Pass failures are
  // counted ("set.janitor.errors"), kept as a last-error string
  // (janitor_status()), and emitted through ArchiveSetOptions::event_log —
  // never silently swallowed. Idempotent start; StopJanitor joins the
  // thread (also called by the destructor) and is itself safe to race from
  // multiple threads.
  struct JanitorOptions {
    // Clamped up to kMinJanitorIntervalNs (an interval of 0 must not turn
    // the janitor into a busy spin).
    uint64_t interval_ns = 1'000'000'000;
    // Run the first pass immediately instead of after the first interval
    // (tests and operators kicking a freshly opened set).
    bool run_immediately = false;
    // Include the compaction step in each pass.
    bool compaction = true;
  };
  // Documented floor for JanitorOptions::interval_ns.
  static constexpr uint64_t kMinJanitorIntervalNs = 10'000'000;  // 10 ms
  void StartJanitor(uint64_t interval_ns);  // default options, this interval
  void StartJanitor(const JanitorOptions& options);
  void StopJanitor();

  // Observability snapshot of the background janitor.
  struct JanitorStatus {
    bool running = false;
    uint64_t passes = 0;       // completed passes
    uint64_t errors = 0;       // failed steps across all passes
    std::string last_error;    // most recent failed step ("" = none yet)
  };
  JanitorStatus janitor_status() const;

  // Lifetime compaction counters (this process; survives nothing).
  struct CompactionTotals {
    uint64_t merges = 0;         // merged shards committed
    uint64_t shards_merged = 0;  // source shards superseded
    uint64_t failures = 0;       // runs aborted by error or revalidation
  };
  CompactionTotals compaction_totals() const;

  // Fault-injection hook for the set-level kill points above. Not
  // thread-safe; set before driving traffic.
  void set_commit_hook(SetCommitHook hook) { hook_ = std::move(hook); }

  // Opens every live shard whose persisted stats are stale (unsealed at the
  // last crash/close) and refreshes lines/bytes from its archive, so
  // shards()/total_*() report exact numbers. Best-effort per shard: an
  // unopenable shard keeps its advisory stats and its error is returned
  // (the first one), but the sweep continues.
  Status RefreshStats();

  // Snapshot of the manifest (includes expired + superseded tombstones).
  std::vector<ShardInfo> shards() const;
  // Live = neither expired nor superseded.
  size_t live_shard_count() const;
  size_t tenant_count() const;
  const std::string& root() const { return root_; }
  uint64_t window_span_ns() const { return options_.window_span_ns; }
  // Sums over live shards (advisory for shards not yet touched since Open).
  uint64_t total_lines() const;
  uint64_t total_raw_bytes() const;
  uint64_t total_stored_bytes() const;
  StorageEnv* storage_env() const { return EnvOrDefault(options_.archive.env); }

  // `<root>/set_manifest.json`.
  static std::string SetManifestPath(const std::string& root);

  // Top-level manifest fields beside the shard list. The generation counter
  // increments on every successful manifest rewrite; a compaction commit
  // uses it to detect that the manifest moved under its plan.
  struct SetManifestHeader {
    uint64_t window_span_ns = 0;
    uint64_t next_shard_id = 0;
    uint64_t next_line_base = 0;
    uint64_t generation = 0;
  };
  // Serialization, exposed for tests and fuzzing: hostile bytes yield a
  // clean status, never a crash. Writes version 2; version-1 manifests
  // (pre-compaction) parse with generation 0, no superseded entries, and
  // kShardLineSpan-wide shards.
  static std::string SerializeSetManifest(const SetManifestHeader& header,
                                          const std::vector<ShardInfo>& shards);
  static Result<std::vector<ShardInfo>> ParseSetManifest(
      std::string_view bytes, SetManifestHeader* header);

 private:
  ArchiveSet(std::string root, ArchiveSetOptions options);

  Status WriteSetManifestLocked();
  // Opens (and caches) the archive of shard `index` in shards_. For an
  // unsealed shard opened for the first time since Open, refreshes the
  // advisory stats from the archive itself.
  Result<std::shared_ptr<LogArchive>> OpenShardLocked(size_t index);
  // Drops the handle of a shard that retention expired or compaction
  // superseded, and removes its directory: now when no query holds the
  // handle, else when the last query holding it lets go. Returns true when
  // this call removed the directory.
  bool RetireShardLocked(const ShardInfo& shard);
  // Rolls `tenant` to a fresh shard for window_start; returns its index.
  Result<size_t> RollShardLocked(const std::string& tenant, uint64_t ts_ns);
  // Runs the hook at `point`; non-null return aborts the caller.
  Status MaybeKill(SetKillPoint point) const;
  // One planned merge: build outside the lock, commit under it. Updates
  // `report` and the lifetime totals.
  Status CompactOneRun(const CompactionRun& run,
                       const std::vector<ShardInfo>& sources,
                       uint64_t planned_generation,
                       SetCompactionReport* report);
  // One background maintenance pass (retention + repair [+ compaction]).
  void JanitorPass(bool compaction);
  // Emits a structured maintenance event through options_.event_log.
  void EmitEvent(const char* what, const Status& status);

  std::string root_;
  ArchiveSetOptions options_;
  SetCommitHook hook_;

  mutable std::mutex mu_;
  uint64_t next_shard_id_ = 0;
  uint64_t next_line_base_ = 0;
  uint64_t generation_ = 0;  // bumped by every manifest rewrite
  // Manifest order == line_base order. Ids are strictly increasing between
  // rolled shards; a merged shard (allocated later, so a higher id) sits
  // immediately before its first source, which keeps line bases
  // non-decreasing.
  std::vector<ShardInfo> shards_;
  // tenant -> index into shards_ of the active (unsealed) shard.
  std::map<std::string, size_t> active_;
  // shard id -> open archive handle (lazy; sealed shards open on first
  // query, unsealed ones on first append/query). Shared with in-flight
  // queries, which take a reference only under mu_.
  std::map<uint64_t, std::shared_ptr<LogArchive>> open_;
  // Unsealed shard ids whose manifest stats are stale until the archive is
  // opened and consulted (set by Open after a crash or plain restart).
  std::map<uint64_t, bool> stats_stale_;

  // Serializes concurrent Compact() calls (the build phase runs outside
  // mu_, so mu_ alone would let two compactors plan the same sources).
  std::mutex compact_mu_;
  CompactionTotals compaction_totals_;  // guarded by mu_

  // Janitor thread. The stop flag is owned per-thread (shared with the
  // thread it stops) so a Stop racing a Start can never confuse a stale
  // janitor into outliving its stop request.
  std::thread janitor_;
  mutable std::mutex janitor_mu_;
  std::condition_variable janitor_cv_;
  std::shared_ptr<bool> janitor_stop_;  // guarded by janitor_mu_
  bool janitor_running_ = false;
  uint64_t janitor_passes_ = 0;      // guarded by janitor_mu_
  uint64_t janitor_errors_ = 0;      // guarded by janitor_mu_
  std::string janitor_last_error_;   // guarded by janitor_mu_
};

}  // namespace loggrep

#endif  // SRC_STORE_ARCHIVE_SET_H_
