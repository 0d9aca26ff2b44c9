// LogArchive: a directory-backed store of many compressed log blocks.
//
// The paper evaluates single 64 MB blocks; in production a near-line store
// holds long sequences of them (§8 points at scaling out). The archive layer
// adds the missing block dimension: every appended block becomes one
// CapsuleBox file plus a manifest entry carrying a block-level summary — a
// token stamp and a Bloom filter over token 4-byte shingles — so a query
// prunes whole blocks before any CapsuleBox is even opened. Pruning is sound
// for the containment semantics: a keyword of length >= 4 can only occur in a
// block whose shingle filter contains all of the keyword's shingles; shorter
// or wildcard keywords fall back to the stamp check.
#ifndef SRC_STORE_LOG_ARCHIVE_H_
#define SRC_STORE_LOG_ARCHIVE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/capsule/stamp.h"
#include "src/common/bloom.h"
#include "src/common/metrics.h"
#include "src/core/engine.h"
#include "src/query/box_cache.h"
#include "src/query/locator.h"
#include "src/query/query_parser.h"
#include "src/store/quarantine.h"
#include "src/store/retry.h"
#include "src/store/storage_env.h"

namespace loggrep {

struct ArchiveOptions {
  // The archive's own engine; an archive opened on a shared engine (every
  // ArchiveSet shard) uses that engine's options and budget instead.
  EngineOptions engine;
  // Optional registry for query/cache counters. Borrowed. The archive's own
  // engine reports here too unless engine.metrics names its own registry.
  MetricsRegistry* metrics = nullptr;
  // Storage backend every durable read/write/rename goes through. Borrowed;
  // null means the real POSIX filesystem. Tests plug in a
  // FaultInjectingStorageEnv to exercise these exact code paths.
  StorageEnv* env = nullptr;
  // Retry policy for query-path block reads (transient backend failures are
  // re-attempted with decorrelated-jitter backoff before a block is given up
  // on). max_attempts = 1 disables retrying.
  RetryPolicy retry;
};

// Per-call query knobs, passed by value so concurrent queries on one archive
// (or one ArchiveSet) never share mutable request state.
struct QueryOptions {
  // When true (default), a block whose read or decode fails after retries is
  // quarantined and the query degrades (hits from healthy blocks plus a
  // PartialReport). When false, the first block failure — or a standing
  // quarantined hole — fails the query (the `?degrade=0` switch).
  bool degrade = true;
  // Retry deadline: the call never spends more than this much wall time in
  // backoff, no matter how many blocks fail. 0 means unlimited.
  uint64_t deadline_ns = 0;
  // Workers for this call's block fan-out (every queried block of a
  // LogArchive, or of all visited shards of an ArchiveSet; §6: queries
  // parallelize trivially at block granularity). A value <= 1 runs
  // serially. A query that records an explain tree always runs serially.
  size_t threads = 1;
};

struct BlockInfo {
  uint32_t seq = 0;
  uint64_t first_line = 0;   // global line number of the block's first entry
  uint64_t line_count = 0;
  uint64_t raw_bytes = 0;
  uint64_t stored_bytes = 0;
  // Chained FNV-1a over every raw line plus a '\n' terminator byte
  // (unambiguous: lines never contain '\n'). Lets `loggrep_cli verify`
  // prove a block reconstructs to exactly the ingested text.
  uint64_t content_hash = 0;
  // FNV-1a over the stored CapsuleBox bytes (detects at-rest bit rot
  // without decompressing anything).
  uint64_t stored_hash = 0;
  CapsuleStamp token_stamp;  // over all tokens of the block
  BloomFilter shingles;      // 4-byte substrings of every token
};

// Chained content hash used for BlockInfo::content_hash: Fnv1a64Line over
// each line, from kFnv1a64Offset. Exposed so the verifier can recompute it
// from reconstructed lines.
uint64_t HashBlockContent(std::string_view text);

// Parses serialized manifest bytes into block summaries. Exposed separately
// from Open for the manifest fuzz target and verify tooling; hostile input
// yields a clean Status, never a crash or unbounded allocation.
Result<std::vector<BlockInfo>> ParseManifestBytes(std::string_view bytes);

// Crash-safe block commit protocol (used by AppendBlock and the ingest
// pipeline). Every step goes through a tagged tmp file (pid + nonce, see
// MakeTempPath) + fsync + atomic rename, all via the injectable StorageEnv:
//   1. write+fsync  block-N.lgc.<pid>-<n>.tmp      [kBlockTmpWritten]
//   2. rename       tmp -> block-N.lgc             [kBlockRenamed]
//   3. write+fsync  archive.manifest.<pid>-<n>.tmp [kManifestTmpWritten]
//   4. rename       tmp -> archive.manifest, fsync the directory
// A crash between any two steps leaves either the old archive state or the
// new one plus sweepable garbage; `Open` recovers by trusting the manifest,
// dropping trailing entries whose block file is missing, and sweeping
// orphaned `*.tmp` / unreferenced block files (skipping temps that belong to
// a live in-flight write, this process's or another's).
enum class CommitKillPoint {
  kBlockTmpWritten,    // block temp durable, final name absent
  kBlockRenamed,       // block durable, manifest still the old one
  kManifestTmpWritten, // new manifest written to tmp, not yet renamed
};

// Fault-injection hook: invoked at each kill point during a commit; return
// true to abort mid-protocol as if the process died there. Production passes
// nullptr.
using CommitHook = std::function<bool(CommitKillPoint)>;

// Printable name for diagnostics ("block-tmp-written", ...).
const char* CommitKillPointName(CommitKillPoint point);

// Builds the block-level summary (line count, raw bytes, token stamp,
// shingle Bloom filter) for one block of text. seq / first_line /
// stored_bytes are assigned at commit time.
BlockInfo BuildBlockSummary(std::string_view text);

struct ArchiveQueryResult {
  // Hits carry 64-bit global line numbers across all blocks, in ingestion
  // order (an archive past ~4 billion lines must not wrap).
  QueryHits hits;
  uint32_t blocks_pruned = 0;
  uint32_t blocks_queried = 0;
  // Of blocks_queried, how many were answered from the engine's command
  // cache. Cached blocks add nothing to `locator` (a replay decodes
  // nothing): blocks_from_cache == blocks_queried means no fresh work ran.
  uint32_t blocks_from_cache = 0;
  // Blocks the query could not serve (quarantined before the query, or
  // failed during it). Empty means the result is complete; otherwise `hits`
  // is exact over every healthy block and `partial` names each hole.
  PartialReport partial;
  LocatorStats locator;  // summed over queried blocks (+ prune stage time)
};

class LogArchive;

// One block of a query plan (LogArchive::PlanQuery), in global numbering:
// `first_line` already includes the plan's line base. A plan may hold the
// blocks of many archives; each block names its owner, which the caller
// keeps alive until LogArchive::RunPlan returns.
struct PlannedBlock {
  LogArchive* archive = nullptr;
  uint32_t seq = 0;
  uint64_t first_line = 0;
  uint64_t line_count = 0;
  BlockExplain* explain = nullptr;  // this block's record, or null
  // A standing hole (quarantined before the query): reported as is, never
  // read.
  std::optional<BlockQueryFailure> hole;
};

class LogArchive {
 public:
  // Creates an empty archive in `dir` (created if missing; must not already
  // hold a manifest).
  static Result<LogArchive> Create(std::string dir, ArchiveOptions options = {});
  // Opens an existing archive (block summaries load from the manifest).
  // Recovery: trailing manifest entries whose block file is missing are
  // dropped (the manifest is re-persisted), interior holes are rejected as
  // corruption — unless the block is quarantined, in which case the hole is
  // a known, reported condition — and orphaned `*.tmp` / unreferenced block
  // files are swept.
  static Result<LogArchive> Open(std::string dir, ArchiveOptions options = {});
  // Same, on a shared `engine` (never null): an ArchiveSet passes its one
  // engine, caches and budget to every shard. Cache keys stay per archive
  // instance, so shards never collide.
  static Result<LogArchive> Create(std::string dir, ArchiveOptions options,
                                   std::shared_ptr<LogGrepEngine> engine);
  static Result<LogArchive> Open(std::string dir, ArchiveOptions options,
                                 std::shared_ptr<LogGrepEngine> engine);
  // The engine Create/Open build when given none: options.engine, reporting
  // to options.metrics unless engine.metrics names its own registry.
  static std::shared_ptr<LogGrepEngine> MakeEngine(
      const ArchiveOptions& options);

  // Compresses `text` as the next block and persists it + the manifest
  // (crash-safe: every file lands via tmp + atomic rename).
  Status AppendBlock(std::string_view text);

  // Commits an already-compressed block (summary pre-computed off-thread by
  // the ingest pipeline). Assigns seq / stored_bytes, then runs the
  // crash-safe protocol above. `block.first_line` is normally left 0 and
  // assigned contiguously; a caller backfilling a shard at a known global
  // offset may pre-set it to any value >= the current end of the archive
  // (the line space is allowed to be sparse). `hook` may abort at each kill
  // point (fault injection); pass nullptr in production. Commits must be
  // serialized by the caller; queries may run concurrently with them.
  Status CommitCompressedBlock(std::string_view box_bytes, BlockInfo block,
                               const CommitHook& hook = nullptr);

  // Commits a block that has no bytes on purpose: a tombstoned hole carried
  // over from another archive (shard compaction copies a source shard's
  // blocks verbatim; a source block whose file was already given up on —
  // quarantined + tombstoned — must keep occupying its global line range in
  // the merged shard so later line numbers never shift). Assigns seq like
  // CommitCompressedBlock and honors a pre-set sparse `block.first_line`,
  // records `entry` (forced tombstoned, seq remapped) in quarantine.json,
  // then persists the manifest. The sidecar lands before the manifest so a
  // torn write can never leave the manifest naming an unexplained hole.
  // Commits must be serialized by the caller.
  Status CommitTombstonedBlock(BlockInfo block, QuarantineEntry entry);

  // Runs a query command over all (non-pruned) blocks. Warm blocks are
  // served from the shared BoxCache: no file read, no metadata parse, and
  // only the capsules the cache lacks are decompressed. With
  // options.threads > 1 the blocks are queried concurrently on that many
  // workers, all sharing the archive's engine and BoxCache; the result is
  // the same.
  //
  // With a non-null `explain` the call also records the full decision tree:
  // `explain` is reset and receives one BlockExplain per block —
  // archive-pruned blocks carry block_pruned plus a reason naming the
  // keyword and filter that rejected them, queried blocks carry the
  // per-variable-vector / per-Capsule fate tree recorded by the engine (see
  // src/query/explain.h). An explained call runs serially (options.threads
  // is ignored) and bypasses the command cache, so the record always
  // describes a real execution.
  Result<ArchiveQueryResult> Query(std::string_view command,
                                   const QueryOptions& options = {},
                                   QueryExplain* explain = nullptr);

  // The two halves of Query, shared with ArchiveSet, which plans every
  // visited shard and runs them all as one plan.
  //
  // PlanQuery, under the reader lock: prunes with `expr`, adds the pruned
  // count and prune time to `result`, and appends the surviving blocks to
  // `plan` with line numbers rebased by `line_base`: standing holes first,
  // then the blocks to read, each in block order. With a non-null
  // `explain` (its block list empty), gives every block its record there.
  // Fails only when `degrade` is off and a surviving block is quarantined.
  Status PlanQuery(const QueryExpr& expr, bool degrade, uint64_t line_base,
                   QueryExplain* explain, std::vector<PlannedBlock>* plan,
                   ArchiveQueryResult* result);
  // RunPlan: the one place a store query fans out, retries, degrades and
  // gathers. Every read shares one RetryBudget of options.deadline_ns on
  // `env`; the blocks run on options.threads workers (serially when
  // `explained`, which also bypasses the command cache). The gather walks
  // the plan in order, adding hits, counts and stats to `result`. A failed
  // block is quarantined through its owner and becomes a hole, unless
  // options.degrade is off: then the first failure in plan order is
  // returned.
  static Status RunPlan(std::vector<PlannedBlock>* plan, const QueryExpr& expr,
                        std::string_view command, const QueryOptions& options,
                        StorageEnv* env, bool explained,
                        ArchiveQueryResult* result);

  // Thread-safety: Query, quarantine(), ReloadQuarantine() and the total_*()
  // sums may run concurrently with each other and with one committer. A
  // query holds the archive's reader lock
  // only while it prunes and snapshots the blocks it will visit; block files
  // are immutable once committed, so the scan itself runs unlocked. A commit
  // takes the writer lock only to publish its manifest entry, and a failing
  // query takes it only to quarantine the block.

  // The block list. Not synchronized: use only where no commit can run
  // concurrently (single-threaded tools, or the committer itself).
  const std::vector<BlockInfo>& blocks() const { return blocks_; }
  // The engine this archive compresses and queries through: its own, or its
  // set's. CompressBlock is const, so ingest workers share it lock-free.
  const LogGrepEngine& engine() const { return *engine_; }
  // Snapshot of the blocks currently excluded from queries (loaded from
  // quarantine.json at Open, grown by failed queries, shrunk by
  // `loggrep_cli repair`).
  QuarantineSet quarantine() const;
  // Re-reads quarantine.json (picks up an external repair without reopening).
  Status ReloadQuarantine();
  // The storage backend in effect (never null).
  StorageEnv* storage_env() const { return EnvOrDefault(options_.env); }
  const std::string& dir() const { return dir_; }
  // "block-<seq>.lgc" — the on-disk name of one block (exposed so the shard
  // compactor can read source blocks verbatim without an archive detour).
  static std::string BlockFileName(uint32_t seq);
  uint64_t total_lines() const;
  uint64_t total_raw_bytes() const;
  uint64_t total_stored_bytes() const;

 private:
  LogArchive(std::string dir, ArchiveOptions options,
             std::shared_ptr<LogGrepEngine> engine);

  std::string BlockPath(uint32_t seq) const;
  std::string ManifestPath() const;
  // Serializes blocks_, plus `pending` as one more trailing entry when
  // non-null (a commit persists its entry before publishing it).
  std::string SerializeManifest(const BlockInfo* pending = nullptr) const;
  Status WriteManifest() const;
  // Assigns the seq and first_line of the block committed next: the seq
  // after the last one, and first_line contiguous unless pre-set past the
  // current end.
  void PlaceNextBlock(BlockInfo* block) const;
  // Retrying block read through the env (the query-path loader body).
  Result<std::string> LoadBlockBytes(uint32_t seq,
                                     const RetryBudget* budget) const;
  // Runs one commit-path storage operation under the retry policy (no
  // deadline budget: ingest durability beats latency).
  Status RetryStorage(const char* op_name,
                      const std::function<Status()>& op) const;
  // Records `cause` against block `seq` in the quarantine set and persists
  // the sidecar (best effort: a failing sidecar write must not fail the
  // query on top of the block failure; it is counted in
  // "storage.quarantine.persist_failures"). Returns false when a concurrent
  // query already quarantined the block. Takes the writer lock.
  bool QuarantineBlock(uint32_t seq, const Status& cause);
  // Removes block-*.lgc files whose seq has no manifest entry (droppings of
  // commits that died after the block rename but before the manifest swap).
  void SweepUnreferencedBlocks() const;

  // Identity of block `seq` inside the shared cache.
  BoxKey KeyForBlock(uint32_t seq) const;
  std::string dir_;
  ArchiveOptions options_;
  // Unique per instance, so archives sharing engine_ never share a key.
  uint64_t cache_namespace_ = 0;
  // Thread-safe (its command cache and the BoxCache are synchronized).
  std::shared_ptr<LogGrepEngine> engine_;
  // Reader/writer lock over blocks_ and quarantine_ (see "Thread-safety").
  std::unique_ptr<std::shared_mutex> mu_;
  std::vector<BlockInfo> blocks_;
  QuarantineSet quarantine_;
};

// Sound block pruning on a whole parsed query: false only when no line of
// `block` can match `expr`. A term may match when every keyword passes the
// block's token stamp and shingle Bloom filter; AND needs both sides, OR
// either side, and `left AND NOT right` only `left` (a leading NOT always
// may match). Stamp and Bloom checks err only toward "may contain", so a
// pruned block never holds a hit. When `reason` is non-null and the block
// is pruned, it receives the failing keyword and filter of every branch
// that had to fail.
bool BlockMayMatch(const BlockInfo& block, const QueryExpr& expr,
                   std::string* reason = nullptr);

}  // namespace loggrep

#endif  // SRC_STORE_LOG_ARCHIVE_H_
