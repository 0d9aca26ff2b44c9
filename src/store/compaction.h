// Shard compaction: merging runs of small sealed same-tenant shards into one
// larger shard, online and crash-safely.
//
// The paper's compression ratio and the federation's shard-pruning win both
// decay as a tenant accumulates many tiny sealed shards (per-shard manifests
// and dictionaries, wider scatter-gather fan-out). Compaction merges such a
// run into one shard while preserving every source line's *global* line
// number: the merged shard takes the first source's line_base, and each
// source block is committed with a pre-set sparse first_line of
// (source.line_base - merged.line_base) + block.first_line — the exact
// backfill contract CommitCompressedBlock already honors. Block bytes are
// copied verbatim (stored_hash-verified, never recompressed, so content
// hashes and stamps stay authoritative); tombstoned holes are carried over
// as tombstoned holes.
//
// This header holds the side-effect-contained half: staging-dir naming (the
// build must never be mistaken for a committed shard) and the merged-shard
// builder. The swap protocol — rename, manifest rewrite marking sources
// superseded, source GC, kill points, generation revalidation — lives in
// ArchiveSet::Compact (archive_set.cc), which owns the manifest.
#ifndef SRC_STORE_COMPACTION_H_
#define SRC_STORE_COMPACTION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/store/log_archive.h"
#include "src/store/shard_router.h"

namespace loggrep {

// "compacting-<pid>-<nonce>": unique per process lifetime, and structurally
// distinct from both shard dirs ("shard-<id>-...") and atomic-write temps
// ("*.tmp"), so neither the orphan-shard sweep nor the temp sweep can
// confuse a half-built merge with anything it owns.
std::string CompactionStagingDirName();
bool LooksLikeCompactionStagingDir(std::string_view name);

// What BuildMergedShard produced (the merged ShardInfo's stats; min/max ts
// come from the sources' conservative recorded ranges, which stay sound).
struct MergedShardBuild {
  uint64_t lines = 0;
  uint64_t raw_bytes = 0;
  uint64_t stored_bytes = 0;
  uint64_t min_ts_ns = UINT64_MAX;
  uint64_t max_ts_ns = 0;
  size_t blocks_copied = 0;
  size_t tombstones_carried = 0;
};

// Builds the merged shard for `sources` (line_base order; all sealed) at
// `staging_dir`. Every source block is re-committed at its original global
// line number relative to sources.front().line_base; bytes are verified
// against the source manifest's stored_hash before commit (a rotted source
// must abort the merge, not propagate). A source block that is quarantined
// but NOT tombstoned aborts the build — the caller's planner excludes such
// shards, so hitting one means the plan is stale. On any failure the caller
// removes the staging dir; this function only reports. Every archive it
// opens shares `engine`, the set's (it queries nothing, so caches nothing).
Result<MergedShardBuild> BuildMergedShard(
    const std::string& set_root, const std::string& staging_dir,
    const std::vector<ShardInfo>& sources, const ArchiveOptions& options,
    std::shared_ptr<LogGrepEngine> engine);

// One Compact() call's outcome.
struct SetCompactionReport {
  size_t runs_planned = 0;
  size_t merges_committed = 0;    // merged shards now in the manifest
  size_t shards_merged = 0;       // source shards superseded
  size_t dirs_removed = 0;        // source dirs GC'd after the commits
  size_t runs_aborted = 0;        // failed builds + stale-plan revalidations
  size_t skipped_quarantined = 0; // shards excluded for unrepaired blocks
  std::vector<uint64_t> merged_ids;
  Status fatal = OkStatus();      // first build/commit failure

  bool ok() const { return fatal.ok(); }
  std::string Summary() const;
};

}  // namespace loggrep

#endif  // SRC_STORE_COMPACTION_H_
