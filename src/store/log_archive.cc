#include "src/store/log_archive.h"

#include <algorithm>
#include <ctime>
#include <filesystem>
#include <mutex>
#include <optional>
#include <unordered_set>

#include "src/common/hash.h"
#include "src/common/thread_pool.h"
#include "src/common/timer.h"
#include "src/common/trace.h"
#include "src/parser/template_miner.h"  // SplitLines
#include "src/parser/tokenizer.h"
#include "src/query/query_parser.h"
#include "src/query/wildcard.h"
#include "src/store/fs_util.h"

namespace loggrep {
namespace {

constexpr uint32_t kManifestMagic = 0x4D41474Cu;  // "LGAM"
// v2 adds a version byte plus per-block content / stored-bytes checksums
// (the v1 layout had no version byte at all, so v1 manifests now read as
// corrupt; archives are regenerated from raw logs in that case).
constexpr uint8_t kManifestVersion = 2;
constexpr size_t kShingleLen = 4;
constexpr uint32_t kBloomBitsPerShingle = 10;
// Line counts / line numbers beyond this are not plausible (they would need
// more than an exabyte of raw log) and would overflow the monotonicity
// arithmetic below; reject them during manifest parsing.
constexpr uint64_t kMaxPlausibleLines = 1ull << 62;

void AddTokenShingles(const std::string_view token, BloomFilter& bloom) {
  if (token.size() < kShingleLen) {
    return;  // short content is covered by the stamp check instead
  }
  for (size_t i = 0; i + kShingleLen <= token.size(); ++i) {
    bloom.Add(token.substr(i, kShingleLen));
  }
}

// Sound block-level admission test for one literal keyword. When `reason`
// is non-null and the block is rejected, it receives which filter fired
// (for archive-level explain records).
bool BlockMayContainKeyword(const BlockInfo& block, std::string_view keyword,
                            std::string* reason) {
  if (HasWildcards(keyword)) {
    if (!StampAdmitsKeyword(block.token_stamp, keyword)) {
      if (reason != nullptr) {
        *reason = "keyword \"" + std::string(keyword) + "\" fails block stamp";
      }
      return false;
    }
    return true;
  }
  if (!block.token_stamp.AdmitsFragment(keyword)) {
    if (reason != nullptr) {
      *reason = "keyword \"" + std::string(keyword) + "\" fails block stamp";
    }
    return false;
  }
  if (keyword.size() < kShingleLen || block.shingles.empty()) {
    return true;
  }
  for (size_t i = 0; i + kShingleLen <= keyword.size(); ++i) {
    if (!block.shingles.MayContain(keyword.substr(i, kShingleLen))) {
      if (reason != nullptr) {
        *reason = "keyword \"" + std::string(keyword) +
                  "\" shingle \"" + std::string(keyword.substr(i, kShingleLen)) +
                  "\" absent from block shingle filter";
      }
      return false;
    }
  }
  return true;
}

}  // namespace

bool BlockMayMatch(const BlockInfo& block, const QueryExpr& expr,
                   std::string* reason) {
  switch (expr.kind) {
    case QueryExpr::Kind::kTerm:
      for (const std::string& kw : expr.term.keywords) {
        if (!BlockMayContainKeyword(block, kw, reason)) {
          return false;
        }
      }
      return true;
    case QueryExpr::Kind::kAnd:
      return BlockMayMatch(block, *expr.left, reason) &&
             BlockMayMatch(block, *expr.right, reason);
    case QueryExpr::Kind::kOr: {
      // Pruned only when neither branch may match; the reason then names the
      // failing keyword of both.
      std::string left_reason;
      std::string right_reason;
      std::string* const lr = reason != nullptr ? &left_reason : nullptr;
      std::string* const rr = reason != nullptr ? &right_reason : nullptr;
      if (BlockMayMatch(block, *expr.left, lr) ||
          BlockMayMatch(block, *expr.right, rr)) {
        return true;
      }
      if (reason != nullptr) {
        *reason = left_reason + "; " + right_reason;
      }
      return false;
    }
    case QueryExpr::Kind::kNot:
      // left AND NOT right: only the positive side constrains matching
      // entries, and a leading NOT (no left side) may match anything.
      return expr.left == nullptr || BlockMayMatch(block, *expr.left, reason);
  }
  return true;
}

const char* CommitKillPointName(CommitKillPoint point) {
  switch (point) {
    case CommitKillPoint::kBlockTmpWritten:
      return "block-tmp-written";
    case CommitKillPoint::kBlockRenamed:
      return "block-renamed";
    case CommitKillPoint::kManifestTmpWritten:
      return "manifest-tmp-written";
  }
  return "unknown";
}

uint64_t HashBlockContent(std::string_view text) {
  uint64_t h = kFnv1a64Offset;
  for (std::string_view line : SplitLines(text)) {
    h = Fnv1a64Line(h, line);
  }
  return h;
}

BlockInfo BuildBlockSummary(std::string_view text) {
  BlockInfo block;
  block.raw_bytes = text.size();
  // Block-level summary: token stamp + shingle Bloom filter, sized for
  // roughly one shingle per 4 raw bytes.
  block.shingles = BloomFilter(std::max<uint64_t>(1024, text.size() / 4),
                               kBloomBitsPerShingle);
  uint64_t h = kFnv1a64Offset;
  for (std::string_view line : SplitLines(text)) {
    ++block.line_count;
    h = Fnv1a64Line(h, line);
    for (std::string_view token : TokenizeKeywords(line)) {
      block.token_stamp.Absorb(token);
      AddTokenShingles(token, block.shingles);
    }
  }
  block.content_hash = h;
  return block;
}

LogArchive::LogArchive(std::string dir, ArchiveOptions options,
                       std::shared_ptr<LogGrepEngine> engine)
    : dir_(std::move(dir)),
      options_(options),
      cache_namespace_(BoxKey::NextNamespaceId()),
      engine_(std::move(engine)),
      mu_(std::make_unique<std::shared_mutex>()) {}

std::shared_ptr<LogGrepEngine> LogArchive::MakeEngine(
    const ArchiveOptions& options) {
  EngineOptions engine = options.engine;
  if (engine.metrics == nullptr) {
    engine.metrics = options.metrics;
  }
  return std::make_shared<LogGrepEngine>(engine);
}

BoxKey LogArchive::KeyForBlock(uint32_t seq) const {
  return BoxKey::ForSequence(cache_namespace_, seq);
}

std::string LogArchive::BlockFileName(uint32_t seq) {
  return "block-" + std::to_string(seq) + ".lgc";
}

std::string LogArchive::BlockPath(uint32_t seq) const {
  return dir_ + "/" + BlockFileName(seq);
}

std::string LogArchive::ManifestPath() const { return dir_ + "/archive.manifest"; }

Result<LogArchive> LogArchive::Create(std::string dir, ArchiveOptions options) {
  return Create(std::move(dir), options, MakeEngine(options));
}

Result<LogArchive> LogArchive::Create(std::string dir, ArchiveOptions options,
                                      std::shared_ptr<LogGrepEngine> engine) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Internal("archive: cannot create directory " + dir);
  }
  LogArchive archive(std::move(dir), options, std::move(engine));
  if (archive.storage_env()->FileExists(archive.ManifestPath())) {
    return InvalidArgument("archive: manifest already exists; use Open");
  }
  LOGGREP_RETURN_IF_ERROR(archive.WriteManifest());
  return archive;
}

Result<std::vector<BlockInfo>> ParseManifestBytes(std::string_view bytes) {
  ByteReader in(bytes);
  Result<uint32_t> magic = in.ReadU32();
  if (!magic.ok()) {
    return magic.status();
  }
  if (*magic != kManifestMagic) {
    return CorruptData("archive: bad manifest magic");
  }
  Result<uint8_t> version = in.ReadU8();
  if (!version.ok()) {
    return version.status();
  }
  if (*version != kManifestVersion) {
    return CorruptData("archive: unsupported manifest version");
  }
  Result<uint64_t> count = in.ReadVarint();
  if (!count.ok()) {
    return count.status();
  }
  // Every block entry costs well over one stream byte; a declared count
  // beyond the remaining bytes is hostile, reject before any allocation.
  if (*count > in.remaining()) {
    return CorruptData("archive: block count exceeds manifest size");
  }
  std::vector<BlockInfo> blocks;
  blocks.reserve(static_cast<size_t>(*count));
  for (uint64_t i = 0; i < *count; ++i) {
    BlockInfo block;
    Result<uint64_t> v = in.ReadVarint();
    if (!v.ok()) {
      return v.status();
    }
    if (*v > UINT32_MAX) {
      return CorruptData("archive: block seq out of range");
    }
    block.seq = static_cast<uint32_t>(*v);
    for (uint64_t* field : {&block.first_line, &block.line_count,
                            &block.raw_bytes, &block.stored_bytes}) {
      Result<uint64_t> value = in.ReadVarint();
      if (!value.ok()) {
        return value.status();
      }
      *field = *value;
    }
    for (uint64_t* hash : {&block.content_hash, &block.stored_hash}) {
      Result<uint64_t> value = in.ReadU64();
      if (!value.ok()) {
        return value.status();
      }
      *hash = *value;
    }
    Result<CapsuleStamp> stamp = CapsuleStamp::ReadFrom(in);
    if (!stamp.ok()) {
      return stamp.status();
    }
    block.token_stamp = *stamp;
    Result<BloomFilter> bloom = BloomFilter::ReadFrom(in);
    if (!bloom.ok()) {
      return bloom.status();
    }
    block.shingles = std::move(*bloom);
    // Structural coherence: seq strictly increasing, line space monotonic
    // and small enough that the arithmetic below cannot overflow.
    if (block.first_line > kMaxPlausibleLines ||
        block.line_count > kMaxPlausibleLines) {
      return CorruptData("archive: implausible line numbers in manifest");
    }
    if (!blocks.empty()) {
      const BlockInfo& prev = blocks.back();
      if (block.seq <= prev.seq) {
        return CorruptData("archive: block seqs not strictly increasing");
      }
      if (block.first_line < prev.first_line + prev.line_count) {
        return CorruptData("archive: block line ranges overlap");
      }
    }
    blocks.push_back(std::move(block));
  }
  if (in.remaining() != 0) {
    return CorruptData("archive: trailing garbage after manifest");
  }
  return blocks;
}

Result<LogArchive> LogArchive::Open(std::string dir, ArchiveOptions options) {
  return Open(std::move(dir), options, MakeEngine(options));
}

Result<LogArchive> LogArchive::Open(std::string dir, ArchiveOptions options,
                                    std::shared_ptr<LogGrepEngine> engine) {
  LogArchive archive(std::move(dir), options, std::move(engine));
  StorageEnv* env = archive.storage_env();
  Result<std::string> bytes =
      options.retry.enabled()
          ? RetryReadFile(env, options.retry, /*budget=*/nullptr,
                          archive.ManifestPath(), options.metrics)
          : ReadFileBytes(archive.ManifestPath(), env);
  if (!bytes.ok()) {
    return bytes.status();
  }
  Result<std::vector<BlockInfo>> blocks = ParseManifestBytes(*bytes);
  if (!blocks.ok()) {
    return blocks.status();
  }
  archive.blocks_ = std::move(*blocks);

  // Degraded-query bookkeeping loads *before* recovery: a quarantined block
  // is excused from the missing-file checks below (its hole is a known,
  // reported condition — possibly a tombstone repair already accepted — not
  // fresh corruption). A corrupt sidecar degrades to "nothing quarantined"
  // (queries rediscover sick blocks) — Open must not fail over bookkeeping.
  if (Status s = archive.ReloadQuarantine(); !s.ok()) {
    if (options.metrics != nullptr) {
      options.metrics->GetOrCreate("storage.quarantine.load_failures")->Add(1);
    }
  }

  // Crash recovery. A commit that died after the manifest tmp write but
  // before the rename leaves the *old* manifest in place — nothing to do
  // beyond sweeping. A manifest that somehow references a block whose file
  // never survived (e.g. manual tampering, partial restore) is repaired by
  // dropping trailing entries; an interior hole is real corruption unless
  // the quarantine already accounts for it.
  size_t dropped = 0;
  while (!archive.blocks_.empty() &&
         archive.quarantine_.Find(archive.blocks_.back().seq) == nullptr &&
         !env->FileExists(archive.BlockPath(archive.blocks_.back().seq))) {
    archive.blocks_.pop_back();
    ++dropped;
  }
  for (const BlockInfo& block : archive.blocks_) {
    if (archive.quarantine_.Find(block.seq) != nullptr) {
      continue;  // known hole; queries skip it, repair adjudicates it
    }
    if (!env->FileExists(archive.BlockPath(block.seq))) {
      return CorruptData("archive: interior block file missing: " +
                         archive.BlockPath(block.seq));
    }
  }
  if (dropped > 0) {
    LOGGREP_RETURN_IF_ERROR(archive.WriteManifest());
    // Entries for dropped trailing blocks are now stale; re-filter.
    std::unordered_set<uint32_t> live;
    live.reserve(archive.blocks_.size());
    for (const BlockInfo& block : archive.blocks_) {
      live.insert(block.seq);
    }
    auto& entries = archive.quarantine_.entries;
    entries.erase(std::remove_if(entries.begin(), entries.end(),
                                 [&live](const QuarantineEntry& e) {
                                   return live.count(e.seq) == 0;
                                 }),
                  entries.end());
  }
  SweepTempFiles(archive.dir_, env);
  archive.SweepUnreferencedBlocks();
  return archive;
}

QuarantineSet LogArchive::quarantine() const {
  const std::shared_lock<std::shared_mutex> lock(*mu_);
  return quarantine_;
}

Status LogArchive::ReloadQuarantine() {
  Result<QuarantineSet> loaded = LoadQuarantine(dir_, storage_env());
  const std::unique_lock<std::shared_mutex> lock(*mu_);
  if (!loaded.ok()) {
    quarantine_ = QuarantineSet{};
    return loaded.status();
  }
  quarantine_ = std::move(*loaded);
  // Stale entries (blocks no longer in the manifest, e.g. a recovered tail)
  // must not report holes for data the archive no longer claims to hold.
  std::unordered_set<uint32_t> live;
  live.reserve(blocks_.size());
  for (const BlockInfo& block : blocks_) {
    live.insert(block.seq);
  }
  auto& entries = quarantine_.entries;
  entries.erase(std::remove_if(entries.begin(), entries.end(),
                               [&live](const QuarantineEntry& e) {
                                 return live.count(e.seq) == 0;
                               }),
                entries.end());
  return OkStatus();
}

std::string LogArchive::SerializeManifest(const BlockInfo* pending) const {
  ByteWriter out;
  out.PutU32(kManifestMagic);
  out.PutU8(kManifestVersion);
  out.PutVarint(blocks_.size() + (pending != nullptr ? 1 : 0));
  auto put = [&out](const BlockInfo& block) {
    out.PutVarint(block.seq);
    for (uint64_t field : {block.first_line, block.line_count, block.raw_bytes,
                           block.stored_bytes}) {
      out.PutVarint(field);
    }
    out.PutU64(block.content_hash);
    out.PutU64(block.stored_hash);
    block.token_stamp.WriteTo(out);
    block.shingles.WriteTo(out);
  };
  for (const BlockInfo& block : blocks_) {
    put(block);
  }
  if (pending != nullptr) {
    put(*pending);
  }
  return std::string(out.data());
}

Status LogArchive::WriteManifest() const {
  return WriteFileAtomic(ManifestPath(), SerializeManifest(), storage_env());
}

void LogArchive::SweepUnreferencedBlocks() const {
  std::unordered_set<uint32_t> live;
  live.reserve(blocks_.size());
  for (const BlockInfo& block : blocks_) {
    live.insert(block.seq);
  }
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    const std::string name = entry.path().filename().string();
    constexpr std::string_view kPrefix = "block-";
    constexpr std::string_view kSuffix = ".lgc";
    if (name.size() <= kPrefix.size() + kSuffix.size() ||
        name.compare(0, kPrefix.size(), kPrefix) != 0 ||
        name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
            0) {
      continue;
    }
    const std::string digits =
        name.substr(kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
    // `digits` must parse as a uint32 without throwing: cap the digit count
    // (std::stoul aborts the process via std::out_of_range on e.g. a
    // 40-digit filename someone drops into the directory).
    if (digits.empty() || digits.size() > 10 ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    const uint64_t parsed = std::stoull(digits);  // <= 10 digits: no throw
    if (parsed > UINT32_MAX) {
      continue;  // not a live seq; leave the stray file alone
    }
    const uint32_t seq = static_cast<uint32_t>(parsed);
    if (live.count(seq) == 0) {
      (void)storage_env()->RemoveFile(entry.path().string());
    }
  }
}

Status LogArchive::AppendBlock(std::string_view text) {
  BlockInfo block = BuildBlockSummary(text);
  const std::string box = engine_->CompressBlock(text);
  return CommitCompressedBlock(box, std::move(block), nullptr);
}

void LogArchive::PlaceNextBlock(BlockInfo* block) const {
  block->seq = blocks_.empty() ? 0 : blocks_.back().seq + 1;
  // Contiguous by default; a caller backfilling at a known global offset may
  // pre-set first_line to any value >= the current end (sparse line space).
  const uint64_t next_line =
      blocks_.empty()
          ? 0
          : blocks_.back().first_line + blocks_.back().line_count;
  block->first_line = std::max(block->first_line, next_line);
}

Status LogArchive::CommitCompressedBlock(std::string_view box_bytes,
                                         BlockInfo block,
                                         const CommitHook& hook) {
  PlaceNextBlock(&block);
  block.stored_bytes = box_bytes.size();
  block.stored_hash = Fnv1a64(box_bytes);
  StorageEnv* env = storage_env();

  // Step 1+2: block file via tagged tmp + fsync + rename (kill points in
  // between). The ScopedTempFile registers the temp as live, so a concurrent
  // Open in this process (streaming ingest) never sweeps an in-flight write;
  // a kill-point abort leaves the temp behind exactly like a crash would,
  // and the next Open sweeps it (the guard has unregistered by then).
  const std::string path = BlockPath(block.seq);
  const ScopedTempFile block_tmp(path);
  // Each commit-path op retries transient backend failures (a retried torn
  // write simply rewrites the whole temp — the final name is untouched until
  // the rename).
  if (Status s = RetryStorage("commit.write_block",
                              [&] {
                                return env->WriteFile(block_tmp.path(),
                                                      box_bytes);
                              });
      !s.ok()) {
    (void)env->RemoveFile(block_tmp.path());  // never leave a torn temp
    return s;
  }
  // Durability point: the block's bytes are on stable storage before the
  // rename makes them reachable from the manifest.
  if (Status s = RetryStorage(
          "commit.sync_block", [&] { return env->SyncFile(block_tmp.path()); });
      !s.ok()) {
    (void)env->RemoveFile(block_tmp.path());
    return s;
  }
  if (hook && hook(CommitKillPoint::kBlockTmpWritten)) {
    return Internal(std::string("archive: commit aborted at ") +
                    CommitKillPointName(CommitKillPoint::kBlockTmpWritten));
  }
  if (Status s = RetryStorage(
          "commit.rename_block",
          [&] { return env->Rename(block_tmp.path(), path); });
      !s.ok()) {
    (void)env->RemoveFile(block_tmp.path());
    return s;
  }
  if (hook && hook(CommitKillPoint::kBlockRenamed)) {
    return Internal(std::string("archive: commit aborted at ") +
                    CommitKillPointName(CommitKillPoint::kBlockRenamed));
  }

  // Step 3+4: manifest swap. The entry is published to queries only once
  // the new manifest is in place; on any failure the already-renamed block
  // file becomes an orphan swept at next Open.
  const std::string manifest = SerializeManifest(&block);
  const ScopedTempFile manifest_tmp(ManifestPath());
  if (Status s = RetryStorage("commit.write_manifest",
                              [&] {
                                return env->WriteFile(manifest_tmp.path(),
                                                      manifest);
                              });
      !s.ok()) {
    (void)env->RemoveFile(manifest_tmp.path());
    return s;
  }
  if (Status s = RetryStorage(
          "commit.sync_manifest",
          [&] { return env->SyncFile(manifest_tmp.path()); });
      !s.ok()) {
    (void)env->RemoveFile(manifest_tmp.path());
    return s;
  }
  if (hook && hook(CommitKillPoint::kManifestTmpWritten)) {
    return Internal(std::string("archive: commit aborted at ") +
                    CommitKillPointName(CommitKillPoint::kManifestTmpWritten));
  }
  if (Status s = RetryStorage(
          "commit.rename_manifest",
          [&] { return env->Rename(manifest_tmp.path(), ManifestPath()); });
      !s.ok()) {
    return s;
  }
  {
    const std::unique_lock<std::shared_mutex> lock(*mu_);
    blocks_.push_back(std::move(block));
  }
  // Directory-entry durability: both renames survive power loss, not just
  // process death.
  LOGGREP_RETURN_IF_ERROR(
      RetryStorage("commit.sync_dir", [&] { return env->SyncDir(dir_); }));
  return OkStatus();
}

Status LogArchive::CommitTombstonedBlock(BlockInfo block,
                                         QuarantineEntry entry) {
  PlaceNextBlock(&block);
  entry.seq = block.seq;
  entry.tombstoned = true;

  // Sidecar first: Open treats a manifest entry with no block file as
  // corruption *unless* the quarantine explains it, and ReloadQuarantine
  // filters entries whose seq the manifest doesn't know — so sidecar-then-
  // manifest is safe on either side of a crash. The writer lock spans both
  // writes: a query must never see the entry without its quarantine record.
  const std::unique_lock<std::shared_mutex> lock(*mu_);
  const QuarantineSet saved_quarantine = quarantine_;
  quarantine_.Add(std::move(entry));
  if (Status s = RetryStorage("commit.write_quarantine",
                              [&] {
                                return SaveQuarantine(dir_, quarantine_,
                                                      storage_env());
                              });
      !s.ok()) {
    quarantine_ = saved_quarantine;
    return s;
  }

  blocks_.push_back(std::move(block));
  if (Status s = RetryStorage("commit.write_manifest",
                              [&] { return WriteManifest(); });
      !s.ok()) {
    blocks_.pop_back();
    quarantine_ = saved_quarantine;
    (void)SaveQuarantine(dir_, quarantine_, storage_env());  // best effort
    return s;
  }
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Degraded queries
// ---------------------------------------------------------------------------

Status LogArchive::RetryStorage(const char* op_name,
                                const std::function<Status()>& op) const {
  if (!options_.retry.enabled()) {
    return op();
  }
  return RetryOp(storage_env(), options_.retry, /*budget=*/nullptr, op_name,
                 options_.metrics, op);
}

Result<std::string> LogArchive::LoadBlockBytes(uint32_t seq,
                                               const RetryBudget* budget) const {
  if (!options_.retry.enabled()) {
    return ReadFileBytes(BlockPath(seq), storage_env());
  }
  return RetryReadFile(storage_env(), options_.retry, budget, BlockPath(seq),
                       options_.metrics);
}

bool LogArchive::QuarantineBlock(uint32_t seq, const Status& cause) {
  QuarantineEntry entry;
  entry.seq = seq;
  entry.code = StatusCodeName(cause.code());
  entry.error = cause.message();
  entry.quarantined_unix = static_cast<uint64_t>(::time(nullptr));
  const std::unique_lock<std::shared_mutex> lock(*mu_);
  if (!quarantine_.Add(std::move(entry))) {
    return false;  // a concurrent query got here first and persisted it
  }
  if (options_.metrics != nullptr) {
    options_.metrics->GetOrCreate("storage.quarantine.added")->Add(1);
  }
  // Best effort: failing to persist the sidecar must not fail the query on
  // top of the block failure — the in-memory set still protects this
  // process, and the next failing query retries the write.
  if (Status s = SaveQuarantine(dir_, quarantine_, storage_env()); !s.ok()) {
    if (options_.metrics != nullptr) {
      options_.metrics->GetOrCreate("storage.quarantine.persist_failures")
          ->Add(1);
    }
  }
  return true;
}

Status LogArchive::PlanQuery(const QueryExpr& expr, bool degrade,
                             uint64_t line_base, QueryExplain* explain,
                             std::vector<PlannedBlock>* plan,
                             ArchiveQueryResult* result) {
  // Everything after this snapshot runs unlocked: committed block files are
  // immutable.
  const std::shared_lock<std::shared_mutex> lock(*mu_);
  const TraceSpan span("archive.prune", "query", "blocks", blocks_.size());
  const WallTimer timer;
  if (explain != nullptr) {
    explain->blocks.reserve(blocks_.size());  // keeps the records' addresses
  }
  const size_t first = plan->size();
  size_t holes = 0;
  for (const BlockInfo& block : blocks_) {
    std::string reason;
    const bool pruned = !BlockMayMatch(block, expr,
                                       explain != nullptr ? &reason : nullptr);
    BlockExplain* be = nullptr;
    if (explain != nullptr) {
      be = &explain->blocks.emplace_back();
      be->seq = block.seq;
      be->block_pruned = pruned;
      be->prune_reason = std::move(reason);
    }
    if (pruned) {
      ++result->blocks_pruned;
      continue;
    }
    PlannedBlock planned{this, block.seq, line_base + block.first_line,
                         block.line_count, be, std::nullopt};
    // A known-sick block is a standing hole: no read, no retry storm.
    const QuarantineEntry* entry = quarantine_.Find(block.seq);
    if (entry == nullptr) {
      plan->push_back(std::move(planned));
      continue;
    }
    std::string error = entry->code.empty()
                            ? entry->error
                            : entry->code + ": " + entry->error;
    // Strict mode is complete-or-error: a standing hole (even one a repair
    // already tombstoned) makes the answer incomplete, so it must fail
    // rather than silently narrow to the healthy blocks.
    if (!degrade) {
      return Status(StatusCode::kUnavailable,
                    "block " + std::to_string(block.seq) +
                        " is quarantined and degraded queries are "
                        "disabled: " + error);
    }
    planned.hole = BlockQueryFailure{block.seq, planned.first_line,
                                     block.line_count, std::move(error),
                                     /*newly_quarantined=*/false,
                                     entry->tombstoned};
    // Holes go before this archive's reads (rare, so inserting is cheap).
    plan->insert(plan->begin() + first + holes++, std::move(planned));
  }
  result->locator.prune_nanos += timer.ElapsedNanos();
  return OkStatus();
}

Status LogArchive::RunPlan(std::vector<PlannedBlock>* plan,
                           const QueryExpr& expr, std::string_view command,
                           const QueryOptions& options, StorageEnv* env,
                           bool explained, ArchiveQueryResult* result) {
  // One retry budget shared by every block, whichever archive owns it: the
  // *query* has a deadline, not each block (Expired() is a lock-free read
  // of the env clock).
  const RetryBudget budget(env, options.deadline_ns);
  std::vector<std::optional<Result<QueryResult>>> slots(plan->size());
  auto run_one = [&](size_t i) {
    const PlannedBlock& block = (*plan)[i];
    if (block.hole.has_value()) {
      return;
    }
    // On a worker, ThreadPool installs the submitting span as parent, so
    // this span nests under the query's span either way.
    const TraceSpan block_span("archive.query_block", "query", "seq",
                               block.seq);
    const LogArchive& archive = *block.archive;
    // Warm blocks never touch the file: the loader only runs on a box-cache
    // miss (or when the archive runs without a cache).
    auto loader = [&archive, &block, &budget]() -> Result<std::string> {
      return archive.LoadBlockBytes(block.seq, &budget);
    };
    slots[i].emplace(archive.engine_->QueryBox(
        archive.KeyForBlock(block.seq), loader, expr, command, block.explain));
  };
  ParallelFor(plan->size(), explained ? 1 : options.threads, run_one);

  // Gather in plan order, rebasing block-local line numbers.
  for (size_t i = 0; i < plan->size(); ++i) {
    PlannedBlock& block = (*plan)[i];
    if (!block.hole.has_value()) {
      Result<QueryResult>& r = *slots[i];
      if (r.ok()) {
        ++result->blocks_queried;
        if (r->from_cache) {
          ++result->blocks_from_cache;
        }
        for (auto& [line, text] : r->hits) {
          result->hits.emplace_back(block.first_line + line, std::move(text));
        }
        result->locator.Accumulate(r->locator);
        continue;
      }
      if (!options.degrade) {
        return r.status();
      }
      const bool fresh = block.archive->QuarantineBlock(block.seq, r.status());
      block.hole = BlockQueryFailure{block.seq, block.first_line,
                                     block.line_count, r.status().ToString(),
                                     fresh, /*tombstoned=*/false};
    }
    if (block.explain != nullptr) {
      block.explain->block_failed = true;
      block.explain->failure = block.hole->error;
    }
    result->partial.failures.push_back(std::move(*block.hole));
  }
  return OkStatus();
}

Result<ArchiveQueryResult> LogArchive::Query(std::string_view command,
                                             const QueryOptions& options,
                                             QueryExplain* explain) {
  const TraceSpan span(explain != nullptr ? "archive.explain" : "archive.query",
                       "query");
  if (explain != nullptr) {
    explain->command.assign(command.data(), command.size());
    explain->blocks.clear();
  }
  Result<std::unique_ptr<QueryExpr>> expr = ParseQuery(command);
  if (!expr.ok()) {
    return expr.status();
  }
  ArchiveQueryResult result;
  std::vector<PlannedBlock> plan;
  LOGGREP_RETURN_IF_ERROR(PlanQuery(**expr, options.degrade, /*line_base=*/0,
                                    explain, &plan, &result));
  LOGGREP_RETURN_IF_ERROR(RunPlan(&plan, **expr, command, options,
                                  storage_env(), explain != nullptr, &result));
  return result;
}

uint64_t LogArchive::total_lines() const {
  const std::shared_lock<std::shared_mutex> lock(*mu_);
  uint64_t n = 0;
  for (const BlockInfo& b : blocks_) {
    n += b.line_count;
  }
  return n;
}

uint64_t LogArchive::total_raw_bytes() const {
  const std::shared_lock<std::shared_mutex> lock(*mu_);
  uint64_t n = 0;
  for (const BlockInfo& b : blocks_) {
    n += b.raw_bytes;
  }
  return n;
}

uint64_t LogArchive::total_stored_bytes() const {
  const std::shared_lock<std::shared_mutex> lock(*mu_);
  uint64_t n = 0;
  for (const BlockInfo& b : blocks_) {
    n += b.stored_bytes;
  }
  return n;
}

}  // namespace loggrep
