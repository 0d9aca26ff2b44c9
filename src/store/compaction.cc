#include "src/store/compaction.h"

#include <algorithm>
#include <atomic>
#include <unistd.h>

#include "src/common/hash.h"
#include "src/store/fs_util.h"

namespace loggrep {

namespace {

constexpr std::string_view kStagingPrefix = "compacting-";

std::string JoinPath(const std::string& dir, const std::string& name) {
  if (dir.empty() || dir.back() == '/') {
    return dir + name;
  }
  return dir + "/" + name;
}

}  // namespace

std::string CompactionStagingDirName() {
  static std::atomic<uint64_t> nonce{0};
  return std::string(kStagingPrefix) + std::to_string(::getpid()) + "-" +
         std::to_string(nonce.fetch_add(1, std::memory_order_relaxed));
}

bool LooksLikeCompactionStagingDir(std::string_view name) {
  return name.size() > kStagingPrefix.size() &&
         name.substr(0, kStagingPrefix.size()) == kStagingPrefix;
}

Result<MergedShardBuild> BuildMergedShard(const std::string& set_root,
                                          const std::string& staging_dir,
                                          const std::vector<ShardInfo>& sources,
                                          const ArchiveOptions& options) {
  if (sources.empty()) {
    return InvalidArgument("compaction: empty source run");
  }
  // The builder only commits blocks — no queries, so no cache; and copied
  // bytes are hash-verified here, so the commit path's own retry policy is
  // all the resilience it needs.
  ArchiveOptions build_options = options;
  build_options.engine.box_cache_budget_bytes = 0;

  const uint64_t merged_base = sources.front().line_base;
  Result<LogArchive> merged =
      LogArchive::Create(JoinPath(set_root, staging_dir), build_options);
  if (!merged.ok()) {
    return Status(merged.status().code(), "compaction: create staging dir: " +
                                              merged.status().message());
  }

  MergedShardBuild build;
  for (const ShardInfo& src : sources) {
    if (src.line_base < merged_base) {
      return Internal("compaction: sources not in line_base order");
    }
    Result<LogArchive> source =
        LogArchive::Open(JoinPath(set_root, src.dir_name), build_options);
    if (!source.ok()) {
      return Status(source.status().code(),
                    "compaction: open source shard " + std::to_string(src.id) +
                        ": " + source.status().message());
    }
    const uint64_t rebase = src.line_base - merged_base;
    const QuarantineSet quarantine = source->quarantine();
    for (const BlockInfo& block : source->blocks()) {
      BlockInfo carried = block;  // content/stored hash, stamp, shingles
      carried.first_line = rebase + block.first_line;
      const QuarantineEntry* q = quarantine.Find(block.seq);
      if (q != nullptr) {
        if (!q->tombstoned) {
          // The planner excludes shards with unrepaired holes; reaching one
          // means the plan went stale under us. Abort — repair may yet
          // reinstate the block's bytes, and a merge would freeze the hole.
          return Internal("compaction: source shard " +
                          std::to_string(src.id) + " block " +
                          std::to_string(block.seq) +
                          " is quarantined but not tombstoned");
        }
        if (Status s = merged->CommitTombstonedBlock(carried, *q); !s.ok()) {
          return Status(s.code(), "compaction: carry tombstone (shard " +
                                      std::to_string(src.id) + " block " +
                                      std::to_string(block.seq) +
                                      "): " + s.message());
        }
        ++build.tombstones_carried;
        continue;
      }
      Result<std::string> bytes = ReadFileBytes(
          JoinPath(JoinPath(set_root, src.dir_name),
                   LogArchive::BlockFileName(block.seq)),
          build_options.env);
      if (!bytes.ok()) {
        return Status(bytes.status().code(),
                      "compaction: read source block (shard " +
                          std::to_string(src.id) + " block " +
                          std::to_string(block.seq) +
                          "): " + bytes.status().message());
      }
      if (Fnv1a64(*bytes) != block.stored_hash) {
        return CorruptData("compaction: source shard " +
                           std::to_string(src.id) + " block " +
                           std::to_string(block.seq) +
                           " bytes do not match their stored_hash");
      }
      if (Status s = merged->CommitCompressedBlock(*bytes, carried); !s.ok()) {
        return Status(s.code(), "compaction: commit block (shard " +
                                    std::to_string(src.id) + " block " +
                                    std::to_string(block.seq) +
                                    "): " + s.message());
      }
      ++build.blocks_copied;
    }
    build.min_ts_ns = std::min(build.min_ts_ns, src.min_ts_ns);
    build.max_ts_ns = std::max(build.max_ts_ns, src.max_ts_ns);
  }
  build.lines = merged->total_lines();
  build.raw_bytes = merged->total_raw_bytes();
  build.stored_bytes = merged->total_stored_bytes();
  return build;
}

std::string SetCompactionReport::Summary() const {
  if (!fatal.ok()) {
    return "compaction failed: " + fatal.ToString();
  }
  std::string out = "compacted " + std::to_string(shards_merged) +
                    " shard(s) into " + std::to_string(merges_committed) +
                    " (planned " + std::to_string(runs_planned) +
                    " run(s), removed " + std::to_string(dirs_removed) +
                    " dir(s)";
  if (runs_aborted != 0) {
    out += ", aborted " + std::to_string(runs_aborted);
  }
  if (skipped_quarantined != 0) {
    out += ", skipped " + std::to_string(skipped_quarantined) + " quarantined";
  }
  out += ")";
  return out;
}

}  // namespace loggrep
