#include "src/store/verify.h"

#include <algorithm>
#include <cstdio>

#include "src/capsule/capsule_box.h"
#include "src/common/hash.h"
#include "src/query/locator.h"
#include "src/query/reconstructor.h"
#include "src/store/fs_util.h"
#include "src/store/log_archive.h"

#include "src/store/quarantine.h"

namespace loggrep {
namespace {

Status Corrupt(std::string message) {
  return CorruptData(std::move(message));
}

// The full per-block check battery shared by VerifyArchive (fsck over every
// block) and RepairArchive (re-check of quarantined blocks only): stored
// bytes readable, sized and hashed as the manifest says, every line
// reconstructable, content hash matching the ingested text.
BlockVerifyResult VerifyOneBlock(const std::string& dir,
                                 const BlockInfo& block, StorageEnv* env) {
  BlockVerifyResult result;
  result.seq = block.seq;
  result.line_count = block.line_count;
  result.stored_bytes = block.stored_bytes;

  const std::string path =
      dir + "/block-" + std::to_string(block.seq) + ".lgc";
  Result<std::string> bytes = ReadFileBytes(path, env);
  if (!bytes.ok()) {
    result.error = "block file unreadable: " + bytes.status().ToString();
    return result;
  }
  if (bytes->size() != block.stored_bytes) {
    result.error = "stored size mismatch: manifest says " +
                   std::to_string(block.stored_bytes) + " bytes, file has " +
                   std::to_string(bytes->size());
    return result;
  }
  if (Fnv1a64(*bytes) != block.stored_hash) {
    result.error = "stored bytes hash mismatch (at-rest corruption)";
    return result;
  }

  Result<std::vector<std::string>> lines = ReconstructAllLines(*bytes);
  if (!lines.ok()) {
    result.error = "reconstruction failed: " + lines.status().ToString();
    return result;
  }
  if (lines->size() != block.line_count) {
    result.error = "line count mismatch: manifest says " +
                   std::to_string(block.line_count) + ", box holds " +
                   std::to_string(lines->size());
    return result;
  }
  if (HashReconstructedLines(*lines) != block.content_hash) {
    result.error =
        "content hash mismatch: reconstructed text differs from ingested";
    return result;
  }
  return result;  // ok(): error stays empty
}

}  // namespace

Result<std::vector<std::string>> ReconstructAllLines(
    std::string_view box_bytes) {
  Result<CapsuleBox> box = CapsuleBox::Open(box_bytes);
  if (!box.ok()) {
    return box.status();
  }
  const CapsuleBoxMeta& meta = box->meta();
  std::vector<std::string> lines(meta.total_lines);
  std::vector<uint8_t> covered(meta.total_lines, 0);

  // Every capsule is decoded once and pinned by the querier; a zero-budget
  // cache keeps no second copy (so the key need not identify the box).
  BoxCache cache(BoxCacheOptions{/*byte_budget=*/0, /*shards=*/1});
  BoxQuerier querier(*box, LocatorOptions{}, cache, BoxKey{});
  Reconstructor recon(&querier);
  for (size_t g = 0; g < meta.groups.size(); ++g) {
    const GroupMeta& group = meta.groups[g];
    for (uint32_t row = 0; row < group.row_count; ++row) {
      const uint32_t line_no = group.line_numbers[row];
      if (covered[line_no]) {
        return Corrupt("verify: line " + std::to_string(line_no) +
                       " reconstructed twice (group " + std::to_string(g) +
                       ")");
      }
      covered[line_no] = 1;
      recon.RenderRowTo(static_cast<uint32_t>(g), row, &lines[line_no]);
    }
  }
  for (size_t i = 0; i < meta.outlier_line_numbers.size(); ++i) {
    const uint32_t line_no = meta.outlier_line_numbers[i];
    if (covered[line_no]) {
      return Corrupt("verify: outlier line " + std::to_string(line_no) +
                     " reconstructed twice");
    }
    covered[line_no] = 1;
    recon.RenderOutlierTo(static_cast<uint32_t>(i), &lines[line_no]);
  }
  if (Status s = querier.status(); !s.ok()) {
    return s;  // capsule decompression / decode failure
  }
  for (uint32_t line_no = 0; line_no < meta.total_lines; ++line_no) {
    if (!covered[line_no]) {
      return Corrupt("verify: line " + std::to_string(line_no) +
                     " covered by no group or outlier (hole)");
    }
  }
  return lines;
}

uint64_t HashReconstructedLines(const std::vector<std::string>& lines) {
  uint64_t h = kFnv1a64Offset;
  for (const std::string& line : lines) {
    h = Fnv1a64Line(h, line);
  }
  return h;
}

VerifyReport VerifyArchive(const std::string& dir, StorageEnv* env) {
  env = EnvOrDefault(env);
  VerifyReport report;
  report.dir = dir;

  Result<std::string> manifest_bytes =
      ReadFileBytes(dir + "/archive.manifest", env);
  if (!manifest_bytes.ok()) {
    report.fatal = manifest_bytes.status();
    return report;
  }
  Result<std::vector<BlockInfo>> blocks = ParseManifestBytes(*manifest_bytes);
  if (!blocks.ok()) {
    report.fatal = blocks.status();
    return report;
  }

  for (const BlockInfo& block : *blocks) {
    BlockVerifyResult result = VerifyOneBlock(dir, block, env);
    if (result.ok()) {
      report.lines_verified += block.line_count;
    } else {
      ++report.blocks_failed;
    }
    report.blocks.push_back(std::move(result));
  }
  return report;
}

RepairReport RepairArchive(const std::string& dir, StorageEnv* env) {
  env = EnvOrDefault(env);
  RepairReport report;
  report.dir = dir;

  Result<std::string> manifest_bytes =
      ReadFileBytes(dir + "/archive.manifest", env);
  if (!manifest_bytes.ok()) {
    report.fatal = manifest_bytes.status();
    return report;
  }
  Result<std::vector<BlockInfo>> blocks = ParseManifestBytes(*manifest_bytes);
  if (!blocks.ok()) {
    report.fatal = blocks.status();
    return report;
  }

  Result<QuarantineSet> loaded = LoadQuarantine(dir, env);
  QuarantineSet set;
  if (loaded.ok()) {
    set = std::move(*loaded);
  } else if (loaded.status().code() != StatusCode::kCorruptData) {
    report.fatal = loaded.status();
    return report;
  }
  // An unparseable sidecar repairs to an empty one: every block the manifest
  // still vouches for will be re-quarantined by the next failing query.

  QuarantineSet repaired;
  for (QuarantineEntry& entry : set.entries) {
    const auto it = std::find_if(
        blocks->begin(), blocks->end(),
        [&entry](const BlockInfo& b) { return b.seq == entry.seq; });
    if (it == blocks->end()) {
      continue;  // stale entry: the manifest no longer claims this block
    }
    RepairAction action;
    action.seq = entry.seq;
    const BlockVerifyResult check = VerifyOneBlock(dir, *it, env);
    if (check.ok()) {
      action.reinstated = true;  // healthy again (possibly a restored file)
      ++report.reinstated;
    } else {
      action.tombstoned = true;
      action.detail = check.error;
      ++report.tombstoned;
      entry.tombstoned = true;
      if (entry.error.empty()) {
        entry.error = check.error;
      }
      repaired.Add(std::move(entry));
    }
    report.actions.push_back(std::move(action));
  }

  if (Status s = SaveQuarantine(dir, repaired, env); !s.ok()) {
    report.fatal = s;
  }
  return report;
}

std::string RepairReport::Summary() const {
  if (!fatal.ok()) {
    return "repair " + dir + ": FATAL " + fatal.ToString();
  }
  std::string out = "repair " + dir + ": " +
                    std::to_string(actions.size()) + " quarantined block(s), " +
                    std::to_string(reinstated) + " reinstated, " +
                    std::to_string(tombstoned) + " tombstoned";
  for (const RepairAction& action : actions) {
    out += "\n  block " + std::to_string(action.seq) + ": " +
           (action.reinstated ? "reinstated" : "tombstoned");
    if (!action.detail.empty()) {
      out += " (" + action.detail + ")";
    }
  }
  return out;
}

std::string VerifyReport::Summary() const {
  if (!fatal.ok()) {
    return "verify " + dir + ": FATAL " + fatal.ToString();
  }
  std::string out = "verify " + dir + ": " +
                    std::to_string(blocks.size()) + " blocks, " +
                    std::to_string(lines_verified) + " lines, " +
                    std::to_string(blocks_failed) + " failed";
  for (const BlockVerifyResult& block : blocks) {
    if (!block.ok()) {
      out += "\n  block " + std::to_string(block.seq) + ": " + block.error;
    }
  }
  return out;
}

}  // namespace loggrep
