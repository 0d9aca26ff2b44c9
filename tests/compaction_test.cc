// Crash-safe online compaction: planning, merge correctness (exact global
// line numbers, tombstone carry), the kill-point matrix (crash at every
// protocol step -> reopen -> oracle-exact vs an uncompacted control), and
// chaos under fault injection with concurrent queries.
#include "src/store/compaction.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/metrics.h"
#include "src/parser/template_miner.h"  // SplitLines
#include "src/store/archive_set.h"
#include "src/store/fs_util.h"
#include "src/store/shard_router.h"
#include "src/store/storage_env.h"

namespace loggrep {
namespace {

std::string TestDir(const std::string& name) {
  std::string dir = std::filesystem::temp_directory_path().string() +
                    "/loggrep-compaction-" + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

std::string MakeText(const std::string& tag, int n, int start = 0) {
  std::string text;
  for (int i = 0; i < n; ++i) {
    text += tag + " event-" + std::to_string(start + i) + " shared-token\n";
  }
  return text;
}

constexpr uint64_t kSpan = 1000;  // test window span, ns

ArchiveSetOptions SmallSetOptions() {
  ArchiveSetOptions options;
  options.window_span_ns = kSpan;
  options.max_shard_bytes = 0;
  return options;
}

ShardInfo MakeShard(uint64_t id, const std::string& tenant, bool sealed) {
  ShardInfo s;
  s.id = id;
  s.tenant = tenant;
  s.dir_name = ShardDirName(id, tenant);
  s.line_base = id * ArchiveSet::kShardLineSpan;
  s.line_span = ArchiveSet::kShardLineSpan;
  s.lines = 10;
  s.raw_bytes = 100;
  s.sealed = sealed;
  s.max_ts_ns = 500;
  return s;
}

// ---- PlanCompaction --------------------------------------------------------

TEST(PlanCompactionTest, MergesAdjacentSealedSameTenantShards) {
  std::vector<ShardInfo> shards = {
      MakeShard(0, "a", true),
      MakeShard(1, "a", true),
      MakeShard(2, "a", true),
      MakeShard(3, "a", false),  // active: never a candidate
  };
  auto runs = PlanCompaction(shards, {});
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].tenant, "a");
  EXPECT_EQ(runs[0].shard_ids, (std::vector<uint64_t>{0, 1, 2}));
}

TEST(PlanCompactionTest, SingleShardRunsAreNotWorthIt) {
  std::vector<ShardInfo> shards = {MakeShard(0, "a", true),
                                   MakeShard(1, "b", true)};
  auto runs = PlanCompaction(shards, {});
  EXPECT_TRUE(runs.empty());
}

TEST(PlanCompactionTest, ForeignTenantDoesNotBreakARun) {
  std::vector<ShardInfo> shards = {
      MakeShard(0, "a", true), MakeShard(1, "b", true),
      MakeShard(2, "a", true), MakeShard(3, "b", true),
  };
  auto runs = PlanCompaction(shards, {});
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].shard_ids, (std::vector<uint64_t>{0, 2}));
  EXPECT_EQ(runs[1].shard_ids, (std::vector<uint64_t>{1, 3}));
}

TEST(PlanCompactionTest, ExcludedShardBreaksTheRun) {
  std::vector<ShardInfo> shards = {
      MakeShard(0, "a", true), MakeShard(1, "a", true),
      MakeShard(2, "a", true), MakeShard(3, "a", true),
  };
  // Excluding an interior shard splits [0..3] into [0,1] and [3]; the
  // second fragment is below kMinCompactionRunShards and is dropped.
  auto runs = PlanCompaction(shards, {uint64_t{2}});
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].shard_ids, (std::vector<uint64_t>{0, 1}));
}

TEST(PlanCompactionTest, ExpiredAndSupersededAndEmptyAreNeverCandidates) {
  std::vector<ShardInfo> shards = {
      MakeShard(0, "a", true), MakeShard(1, "a", true),
      MakeShard(2, "a", true), MakeShard(3, "a", true),
  };
  shards[0].expired = true;
  shards[1].superseded_by = 9;
  shards[2].lines = 0;
  auto runs = PlanCompaction(shards, {});
  EXPECT_TRUE(runs.empty());
}

TEST(PlanCompactionTest, MaxRunShardsSplitsLongRuns) {
  std::vector<ShardInfo> shards;
  for (uint64_t i = 0; i < 2 * kMaxCompactionRunShards + 1; ++i) {
    shards.push_back(MakeShard(i, "a", true));
  }
  auto runs = PlanCompaction(shards, {});
  ASSERT_EQ(runs.size(), 2u);  // 8 + 8; the trailing single is dropped
  EXPECT_EQ(runs[0].shard_ids.size(), kMaxCompactionRunShards);
  EXPECT_EQ(runs[1].shard_ids.size(), kMaxCompactionRunShards);
  EXPECT_EQ(runs[1].shard_ids.back(), 2 * kMaxCompactionRunShards - 1);
}

// ---- staging dir names -----------------------------------------------------

TEST(CompactionStagingTest, StagingNamesAreDistinctFromShardDirs) {
  const std::string name = CompactionStagingDirName();
  EXPECT_TRUE(LooksLikeCompactionStagingDir(name));
  EXPECT_FALSE(LooksLikeShardDir(name));
  EXPECT_FALSE(LooksLikeCompactionStagingDir("shard-000001-a"));
  EXPECT_FALSE(LooksLikeCompactionStagingDir("set_manifest.json"));
  EXPECT_NE(name, CompactionStagingDirName());  // nonce advances
}

// ---- manifest v2 -----------------------------------------------------------

TEST(SetManifestV2Test, RoundTripPreservesGenerationSupersededAndSpan) {
  ArchiveSet::SetManifestHeader header;
  header.window_span_ns = kSpan;
  header.next_shard_id = 5;
  header.next_line_base = 4 * ArchiveSet::kShardLineSpan;
  header.generation = 17;

  std::vector<ShardInfo> shards = {
      MakeShard(4, "a", true),  // merged shard: sits first, highest id
      MakeShard(0, "a", true),
      MakeShard(1, "a", true),
  };
  shards[0].line_base = 0;
  shards[0].line_span = 2 * ArchiveSet::kShardLineSpan;
  shards[1].superseded_by = 4;
  shards[2].superseded_by = 4;
  shards[2].line_base = ArchiveSet::kShardLineSpan;

  const std::string bytes = ArchiveSet::SerializeSetManifest(header, shards);
  ArchiveSet::SetManifestHeader parsed_header;
  auto parsed = ArchiveSet::ParseSetManifest(bytes, &parsed_header);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed_header.generation, 17u);
  EXPECT_EQ(parsed_header.next_shard_id, 5u);
  ASSERT_EQ(parsed->size(), 3u);
  EXPECT_FALSE((*parsed)[0].superseded());
  EXPECT_EQ((*parsed)[0].line_span, 2 * ArchiveSet::kShardLineSpan);
  EXPECT_TRUE((*parsed)[1].superseded());
  EXPECT_EQ((*parsed)[1].superseded_by, 4u);
  EXPECT_TRUE((*parsed)[1].live() == false);
  EXPECT_EQ((*parsed)[2].line_span, ArchiveSet::kShardLineSpan);
}

TEST(SetManifestV2Test, VersionOneStillParsesWithDefaults) {
  ArchiveSet::SetManifestHeader header;
  header.window_span_ns = kSpan;
  header.next_shard_id = 1;
  header.next_line_base = ArchiveSet::kShardLineSpan;
  header.generation = 9;
  std::vector<ShardInfo> shards = {MakeShard(0, "a", true)};
  std::string bytes = ArchiveSet::SerializeSetManifest(header, shards);

  // A v1 manifest is exactly a v2 manifest without the generation field.
  const std::string v2_tag = "\"version\":2";
  const size_t vpos = bytes.find(v2_tag);
  ASSERT_NE(vpos, std::string::npos);
  bytes.replace(vpos, v2_tag.size(), "\"version\":1");
  const std::string gen_field = ",\"generation\":\"9\"";
  const size_t gpos = bytes.find(gen_field);
  ASSERT_NE(gpos, std::string::npos);
  bytes.erase(gpos, gen_field.size());

  ArchiveSet::SetManifestHeader parsed_header;
  auto parsed = ArchiveSet::ParseSetManifest(bytes, &parsed_header);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed_header.generation, 0u);
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_FALSE((*parsed)[0].superseded());
  EXPECT_EQ((*parsed)[0].line_span, ArchiveSet::kShardLineSpan);
}

TEST(SetManifestV2Test, HostileBytesRejectedCleanly) {
  ArchiveSet::SetManifestHeader header;
  header.window_span_ns = kSpan;
  header.next_shard_id = 5;
  header.next_line_base = 4 * ArchiveSet::kShardLineSpan;

  const auto parse = [](const std::string& bytes) {
    ArchiveSet::SetManifestHeader h;
    return ArchiveSet::ParseSetManifest(bytes, &h);
  };

  {
    // Future version.
    std::vector<ShardInfo> shards = {MakeShard(0, "a", true)};
    std::string bytes = ArchiveSet::SerializeSetManifest(header, shards);
    const size_t pos = bytes.find("\"version\":2");
    bytes.replace(pos, 11, "\"version\":3");
    EXPECT_FALSE(parse(bytes).ok());
  }
  {
    // superseded_by referencing a shard that does not exist.
    std::vector<ShardInfo> shards = {MakeShard(0, "a", true),
                                     MakeShard(1, "a", true)};
    shards[0].superseded_by = 99;
    EXPECT_FALSE(
        parse(ArchiveSet::SerializeSetManifest(header, shards)).ok());
  }
  {
    // superseded_by referencing an expired shard (a dead target cannot
    // hold the sources' lines).
    std::vector<ShardInfo> shards = {MakeShard(0, "a", true),
                                     MakeShard(1, "a", true)};
    shards[0].superseded_by = 1;
    shards[1].expired = true;
    EXPECT_FALSE(
        parse(ArchiveSet::SerializeSetManifest(header, shards)).ok());
  }
  {
    // Zero line span.
    std::vector<ShardInfo> shards = {MakeShard(0, "a", true),
                                     MakeShard(1, "a", true)};
    shards[0].line_span = 7;
    std::string bytes = ArchiveSet::SerializeSetManifest(header, shards);
    const std::string span_field = "\"line_span\":\"7\"";
    const size_t pos = bytes.find(span_field);
    ASSERT_NE(pos, std::string::npos);
    bytes.replace(pos, span_field.size(), "\"line_span\":\"0\"");
    EXPECT_FALSE(parse(bytes).ok());
  }
  {
    // Decreasing line bases (equal bases are legal post-compaction; a
    // decrease never is).
    std::vector<ShardInfo> shards = {MakeShard(1, "a", true),
                                     MakeShard(0, "a", true)};
    EXPECT_FALSE(
        parse(ArchiveSet::SerializeSetManifest(header, shards)).ok());
  }
  {
    // Equal line bases parse fine (merged shard sits before its first
    // source at the same base).
    std::vector<ShardInfo> shards = {MakeShard(4, "a", true),
                                     MakeShard(0, "a", true)};
    shards[0].line_base = 0;
    shards[1].superseded_by = 4;
    auto ok = parse(ArchiveSet::SerializeSetManifest(header, shards));
    EXPECT_TRUE(ok.ok()) << ok.status().ToString();
  }
}

// ---- merge correctness -----------------------------------------------------

struct SetFixture {
  std::string root;
  std::unique_ptr<ArchiveSet> set;
};

// `windows` appends per tenant, 3 lines each, one per time window; the last
// window's shard stays active, the earlier ones are sealed by the rolls.
SetFixture BuildSet(const std::string& name,
                    const std::vector<std::string>& tenants, int windows,
                    ArchiveSetOptions options = SmallSetOptions()) {
  SetFixture fx;
  fx.root = TestDir(name);
  auto set = ArchiveSet::Create(fx.root, options);
  EXPECT_TRUE(set.ok()) << set.status().ToString();
  fx.set = std::move(*set);
  for (int w = 0; w < windows; ++w) {
    for (size_t t = 0; t < tenants.size(); ++t) {
      auto receipt = fx.set->Append(
          tenants[t], MakeText(tenants[t] + "-w" + std::to_string(w), 3, 3 * w),
          static_cast<uint64_t>(w) * kSpan + 100 + t);
      EXPECT_TRUE(receipt.ok()) << receipt.status().ToString();
    }
  }
  return fx;
}

TEST(CompactionTest, MergePreservesHitsAndGlobalLineNumbersExactly) {
  SetFixture fx = BuildSet("merge-exact", {"a"}, 4);
  auto before = fx.set->Query("shared-token", {});
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->hits.size(), 12u);
  ASSERT_EQ(before->shards_total, 4u);

  const SetCompactionReport report = fx.set->Compact();
  ASSERT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.runs_planned, 1u);
  EXPECT_EQ(report.merges_committed, 1u);
  EXPECT_EQ(report.shards_merged, 3u);  // 3 sealed; the active shard stays
  EXPECT_EQ(report.dirs_removed, 3u);

  auto after = fx.set->Query("shared-token", {});
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->complete());
  // Hit-for-hit identical: same lines, same global line numbers, order
  // included.
  EXPECT_EQ(after->hits, before->hits);
  // Scatter width shrank: merged + active instead of 3 sealed + active.
  EXPECT_EQ(after->shards_total, 2u);
  EXPECT_EQ(fx.set->live_shard_count(), 2u);
  EXPECT_EQ(fx.set->total_lines(), 12u);

  // Sources are superseded tombstones pointing at the merged shard; their
  // dirs are gone.
  size_t superseded = 0;
  for (const ShardInfo& s : fx.set->shards()) {
    if (s.superseded()) {
      ++superseded;
      EXPECT_EQ(s.superseded_by, report.merged_ids[0]);
      EXPECT_FALSE(std::filesystem::exists(fx.root + "/" + s.dir_name));
    }
  }
  EXPECT_EQ(superseded, 3u);

  // The answer survives a cold reopen (the manifest, not memory, is truth).
  fx.set.reset();
  auto reopened = ArchiveSet::Open(fx.root, SmallSetOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto cold = (*reopened)->Query("shared-token", {});
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->hits, before->hits);

  // Ingest continues cleanly after compaction: fresh window, fresh shard.
  auto appended = (*reopened)->Append("a", MakeText("a-w9", 2), 9 * kSpan);
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  auto grown = (*reopened)->Query("shared-token", {});
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ(grown->hits.size(), 14u);
}

TEST(CompactionTest, WarmSharedCacheNeverAnswersForTheMergedShard) {
  // Every block holds the same 100 lines, so one block's cache footprint
  // (measured on a standalone archive) bounds any single cache entry.
  const std::string text = MakeText("a", 100);
  auto probe = LogArchive::Create(TestDir("warm-shared-probe"), {});
  ASSERT_TRUE(probe.ok());
  ASSERT_TRUE(probe->AppendBlock(text).ok());
  ASSERT_TRUE(probe->Query("shared-token").ok());
  const uint64_t block_bytes =
      probe->engine().box_cache()->Stats().bytes_in_use;
  ASSERT_GT(block_bytes, 0u);

  // 4 shards of 8 blocks under a budget of one shard's worth.
  constexpr size_t kBlocksPerShard = 8;
  const uint64_t budget = kBlocksPerShard * block_bytes;
  MetricsRegistry registry;
  ArchiveSetOptions options = SmallSetOptions();
  options.archive.metrics = &registry;
  options.archive.engine.box_cache_budget_bytes = budget;
  auto set = ArchiveSet::Create(TestDir("warm-shared"), options);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  QueryHits reference;
  const std::vector<std::string_view> lines = SplitLines(text);
  for (uint64_t w = 0; w < 4; ++w) {
    for (uint64_t b = 0; b < kBlocksPerShard; ++b) {
      auto receipt = (*set)->Append("a", text, w * kSpan + 100 + b);
      ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
      for (uint64_t i = 0; i < lines.size(); ++i) {
        reference.emplace_back(receipt->first_global_line + i,
                               std::string(lines[i]));
      }
    }
  }
  ASSERT_EQ((*set)->live_shard_count(), 4u);

  auto cold = (*set)->Query("shared-token", {});
  auto warm = (*set)->Query("shared-token", {});
  ASSERT_TRUE(cold.ok() && warm.ok());
  EXPECT_EQ(cold->hits, reference);
  EXPECT_EQ(warm->hits, reference);
  EXPECT_EQ(warm->blocks_from_cache, 4 * kBlocksPerShard);

  const SetCompactionReport report = (*set)->Compact();
  ASSERT_TRUE(report.ok()) << report.Summary();
  ASSERT_EQ(report.shards_merged, 3u);  // the active shard stays

  // The merged shard's blocks are new cache keys: none of its 24 blocks is
  // answered by a retired source's entry, only the active shard's 8 are.
  Counter* misses = registry.GetOrCreate("query.box_cache.misses");
  const uint64_t misses_before = misses->value();
  auto merged = (*set)->Query("shared-token", {});
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(merged->complete());
  EXPECT_EQ(merged->hits, reference);
  EXPECT_EQ(merged->blocks_queried, 4 * kBlocksPerShard);
  EXPECT_EQ(merged->blocks_from_cache, kBlocksPerShard);
  EXPECT_GE(misses->value() - misses_before, 3 * kBlocksPerShard);
  auto rewarmed = (*set)->Query("shared-token", {});
  ASSERT_TRUE(rewarmed.ok());
  EXPECT_EQ(rewarmed->hits, reference);
  EXPECT_EQ(rewarmed->blocks_from_cache, 4 * kBlocksPerShard);

  // One budget for all 56 blocks' worth of entries (sources, merged shard
  // and active shard): each of the cache's 8 internal shards exceeds its
  // slice only by keeping its freshest entry.
  EXPECT_GT(registry.GetOrCreate("query.box_cache.evictions")->value(), 0u);
  EXPECT_LE(registry.GetOrCreate("query.box_cache.bytes_in_use_hwm")->value(),
            budget + 8 * block_bytes);
}

TEST(CompactionTest, MultiTenantInterleavedMergeKeepsGlobalOrder) {
  SetFixture fx = BuildSet("merge-multitenant", {"a", "b"}, 4);
  auto before = fx.set->Query("shared-token", {});
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->hits.size(), 24u);

  const SetCompactionReport report = fx.set->Compact();
  ASSERT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.merges_committed, 2u);  // one merged shard per tenant
  EXPECT_EQ(report.shards_merged, 6u);

  // Each tenant's merged shard spans line bases that interleave with the
  // other tenant's shards; hits must come back in the same globally sorted
  // order regardless.
  auto after = fx.set->Query("shared-token", {});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->hits, before->hits);

  // Tenant-predicate answers unchanged too.
  for (const char* tenant : {"a", "b"}) {
    SetQueryPredicate pred;
    pred.tenant = tenant;
    auto before_t = before->hits;  // filter by tag prefix
    std::vector<std::pair<uint64_t, std::string>> expected;
    for (const auto& h : before_t) {
      if (h.second.rfind(std::string(tenant) + "-", 0) == 0) {
        expected.push_back(h);
      }
    }
    auto got = fx.set->Query("shared-token", pred);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->hits, expected) << "tenant " << tenant;
  }
}

TEST(CompactionTest, TombstonedHolesAreCarriedVerbatim) {
  SetFixture fx = BuildSet("merge-tombstone", {"a"}, 4);
  // Corrupt the first sealed shard's only block, quarantine it via a
  // query, then tombstone it via repair (the bytes stay corrupt).
  const std::string block_path =
      fx.root + "/" + fx.set->shards()[0].dir_name + "/block-0.lgc";
  fx.set.reset();
  ASSERT_TRUE(WriteFileBytes(block_path, "garbage-bytes", nullptr).ok());
  auto reopened = ArchiveSet::Open(fx.root, SmallSetOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  fx.set = std::move(*reopened);

  auto broken = fx.set->Query("shared-token", {});
  ASSERT_TRUE(broken.ok());
  EXPECT_FALSE(broken->complete());
  const SetRepairReport repaired = fx.set->RepairAll();
  ASSERT_TRUE(repaired.ok()) << repaired.Summary();
  ASSERT_EQ(repaired.tombstoned, 1u);

  auto before = fx.set->Query("shared-token", {});
  ASSERT_TRUE(before.ok());
  EXPECT_FALSE(before->complete());
  const uint64_t missing_before = before->partial.lines_missing();
  ASSERT_EQ(before->hits.size(), 9u);  // 12 - 3 tombstoned

  const SetCompactionReport report = fx.set->Compact();
  ASSERT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.merges_committed, 1u);
  EXPECT_EQ(report.shards_merged, 3u);

  // The accepted hole rides through the merge: same hits, same missing
  // count, still a partial (degraded) answer — never a silently complete
  // one, never a lost healthy line.
  auto after = fx.set->Query("shared-token", {});
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->complete());
  EXPECT_EQ(after->hits, before->hits);
  EXPECT_EQ(after->partial.lines_missing(), missing_before);
}

TEST(CompactionTest, UnrepairedQuarantineExcludesTheShard) {
  SetFixture fx = BuildSet("merge-quarantined", {"a"}, 4);
  const std::string block_path =
      fx.root + "/" + fx.set->shards()[1].dir_name + "/block-0.lgc";
  fx.set.reset();
  ASSERT_TRUE(WriteFileBytes(block_path, "garbage-bytes", nullptr).ok());
  auto reopened = ArchiveSet::Open(fx.root, SmallSetOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  fx.set = std::move(*reopened);
  auto broken = fx.set->Query("shared-token", {});
  ASSERT_TRUE(broken.ok());
  EXPECT_FALSE(broken->complete());  // quarantined, NOT tombstoned

  const SetCompactionReport report = fx.set->Compact();
  ASSERT_TRUE(report.ok()) << report.Summary();
  EXPECT_GE(report.skipped_quarantined, 1u);
  // The quarantined interior shard broke the run: [0] and [2] are both
  // below kMinCompactionRunShards, so nothing merged.
  EXPECT_EQ(report.merges_committed, 0u);
  for (const ShardInfo& s : fx.set->shards()) {
    EXPECT_FALSE(s.superseded());
  }
}

TEST(CompactionTest, RetentionExpiringASourceMidBuildAbortsTheRun) {
  ArchiveSetOptions options = SmallSetOptions();
  options.retention_ns = 10 * kSpan;
  SetFixture fx = BuildSet("merge-stale-plan", {"a"}, 4, options);
  auto before = fx.set->Query("shared-token", {});
  ASSERT_TRUE(before.ok());

  // The hook fires at kCompactStaged — after the merged shard is built,
  // before the commit takes the set lock. Expiring the first source there
  // moves the generation and invalidates the plan; the commit must detect
  // it and walk away instead of resurrecting expired data.
  ArchiveSet* set = fx.set.get();
  std::atomic<bool> fired{false};
  set->set_commit_hook([set, &fired](SetKillPoint p) {
    if (p == SetKillPoint::kCompactStaged &&
        !fired.exchange(true)) {  // only the first staged run
      auto report = set->RunRetention(/*now_ns=*/11 * kSpan);  // expires w0
      EXPECT_TRUE(report.ok());
      EXPECT_EQ(report->expired_ids.size(), 1u);
    }
    return false;  // observe, don't kill
  });
  const SetCompactionReport report = fx.set->Compact();
  ASSERT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.merges_committed, 0u);
  EXPECT_EQ(report.runs_aborted, 1u);

  // No staging droppings, expired shard still expired, answer = the
  // post-retention truth.
  for (const auto& entry : std::filesystem::directory_iterator(fx.root)) {
    EXPECT_FALSE(
        LooksLikeCompactionStagingDir(entry.path().filename().string()));
  }
  auto after = fx.set->Query("shared-token", {});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->hits.size(), 9u);  // w0's 3 lines expired
}

TEST(CompactionTest, AFailedBuildDoesNotBlockLaterRuns) {
  // Tenant a's run cannot be built: a source block is unreadable but not
  // quarantined, so the planner keeps it. Nothing outside the staging dir
  // changed, so tenant b's run must still merge in the same pass.
  FaultInjectingStorageEnv env(FaultOptions{});
  MetricsRegistry metrics;
  ArchiveSetOptions options = SmallSetOptions();
  options.archive.env = &env;
  options.archive.metrics = &metrics;
  SetFixture fx = BuildSet("merge-build-fails", {"a", "b"}, 3, options);
  auto before = fx.set->Query("shared-token", {});
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(before->complete());
  ASSERT_EQ(before->hits.size(), 18u);

  const std::vector<ShardInfo> shards = fx.set->shards();
  ASSERT_EQ(shards[0].tenant, "a");
  env.AddPermanentFault(shards[0].dir_name + "/block-");
  const SetCompactionReport report = fx.set->Compact();
  env.ClearPermanentFaults();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.runs_planned, 2u);
  EXPECT_EQ(report.runs_aborted, 1u);
  EXPECT_EQ(report.merges_committed, 1u);
  EXPECT_EQ(report.shards_merged, 2u);
  EXPECT_EQ(metrics.GetOrCreate("set.compaction.failures")->value(), 1u);
  EXPECT_EQ(metrics.GetOrCreate("set.compaction.merges")->value(), 1u);
  for (const ShardInfo& s : fx.set->shards()) {
    if (s.tenant == "a") {
      EXPECT_FALSE(s.superseded()) << s.dir_name;
    }
  }
  for (const auto& entry : std::filesystem::directory_iterator(fx.root)) {
    EXPECT_FALSE(
        LooksLikeCompactionStagingDir(entry.path().filename().string()));
  }

  auto after = fx.set->Query("shared-token", {});
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->complete()) << after->RenderPartial();
  EXPECT_EQ(after->hits, before->hits);
  EXPECT_EQ(after->shards_total, 5u);  // a: 3 shards; b: merged + active
}

// ---- kill-point matrix -----------------------------------------------------

// For every compaction kill point: build an identical control and victim
// set (including an already-expired shard), kill the victim's compaction at
// the point, reopen cold, and require the victim's answers to be
// hit-for-hit identical to the control's — no lost lines, no shifted global
// line numbers, no resurrected expired shard, no leftover staging dirs.
TEST(CompactionKillTest, EveryKillPointRecoversOracleExact) {
  const SetKillPoint points[] = {
      SetKillPoint::kCompactStaged,
      SetKillPoint::kCompactShardRenamed,
      SetKillPoint::kCompactManifestWritten,
      SetKillPoint::kCompactSourcesRemoved,
  };
  ArchiveSetOptions options = SmallSetOptions();
  options.retention_ns = 10 * kSpan;

  // Control: same build, retention, no compaction.
  SetFixture control = BuildSet("kill-control", {"a", "b"}, 4, options);
  {
    auto report = control.set->RunRetention(11 * kSpan);
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report->expired_ids.size(), 2u);  // both tenants' w0
  }
  auto expected = control.set->Query("shared-token", {});
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(expected->hits.size(), 18u);
  SetQueryPredicate pred_a;
  pred_a.tenant = "a";
  auto expected_a = control.set->Query("shared-token", pred_a);
  ASSERT_TRUE(expected_a.ok());

  for (const SetKillPoint point : points) {
    SCOPED_TRACE(SetKillPointName(point));
    const std::string name =
        std::string("kill-") + SetKillPointName(point);
    SetFixture victim = BuildSet(name, {"a", "b"}, 4, options);
    {
      auto report = victim.set->RunRetention(11 * kSpan);
      ASSERT_TRUE(report.ok());
    }
    victim.set->set_commit_hook(
        [point](SetKillPoint p) { return p == point; });
    const SetCompactionReport report = victim.set->Compact();
    EXPECT_FALSE(report.ok());  // the kill surfaced as a failed pass
    victim.set.reset();         // "crash"

    auto reopened = ArchiveSet::Open(victim.root, options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();

    // Recovery left no staging dirs and no unreferenced shard dirs.
    std::set<std::string> referenced;
    for (const ShardInfo& s : (*reopened)->shards()) {
      if (s.live()) {
        referenced.insert(s.dir_name);
      }
    }
    for (const auto& entry : std::filesystem::directory_iterator(victim.root)) {
      const std::string fname = entry.path().filename().string();
      EXPECT_FALSE(LooksLikeCompactionStagingDir(fname)) << fname;
      if (LooksLikeShardDir(fname)) {
        EXPECT_TRUE(referenced.count(fname)) << "orphan dir " << fname;
      }
    }
    // Expired shards stay expired.
    size_t expired = 0;
    for (const ShardInfo& s : (*reopened)->shards()) {
      expired += s.expired ? 1 : 0;
    }
    EXPECT_EQ(expired, 2u);

    // Oracle: identical answers, full scatter and tenant-predicated.
    auto got = (*reopened)->Query("shared-token", {});
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(got->complete()) << got->RenderPartial();
    EXPECT_EQ(got->hits, expected->hits);
    auto got_a = (*reopened)->Query("shared-token", pred_a);
    ASSERT_TRUE(got_a.ok());
    EXPECT_EQ(got_a->hits, expected_a->hits);

    // Post-crash compaction completes and the answer still matches.
    const SetCompactionReport retried = (*reopened)->Compact();
    ASSERT_TRUE(retried.ok()) << retried.Summary();
    if (point == SetKillPoint::kCompactStaged ||
        point == SetKillPoint::kCompactShardRenamed) {
      // Died before the commit point: the retry performs the merges.
      EXPECT_EQ(retried.merges_committed, 2u);
    }
    auto final_result = (*reopened)->Query("shared-token", {});
    ASSERT_TRUE(final_result.ok());
    EXPECT_EQ(final_result->hits, expected->hits);
  }
}

// ---- chaos: concurrent queries + compaction under fault injection ----------

TEST(CompactionChaosTest, ConcurrentQueriesNeverSeeAWrongAnswer) {
  FaultOptions fault_options;
  fault_options.seed = 20260809;
  fault_options.read_fail_p = 0.02;
  fault_options.sync_fail_p = 0.01;
  // Capped per path below the retry attempt limit: every storm is
  // transient, so correct code converges to complete answers.
  fault_options.max_faults_per_path = 2;
  FaultInjectingStorageEnv env(fault_options);

  ArchiveSetOptions options = SmallSetOptions();
  options.archive.env = &env;
  const std::string root = TestDir("chaos");
  auto created = ArchiveSet::Create(root, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<ArchiveSet> set = std::move(*created);
  for (int w = 0; w < 6; ++w) {
    for (const char* tenant : {"a", "b"}) {
      auto receipt = set->Append(
          tenant, MakeText(std::string(tenant) + "-w" + std::to_string(w), 3,
                           3 * w),
          static_cast<uint64_t>(w) * kSpan + 100);
      ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
    }
  }
  auto expected = set->Query("shared-token", {});
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(expected->complete());
  ASSERT_EQ(expected->hits.size(), 36u);
  SetQueryPredicate pred_b;
  pred_b.tenant = "b";
  auto expected_b = set->Query("shared-token", pred_b);
  ASSERT_TRUE(expected_b.ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> wrong_answers{0};
  std::atomic<uint64_t> queries_run{0};
  std::vector<std::thread> workers;
  for (int i = 0; i < 3; ++i) {
    workers.emplace_back([&, i] {
      while (!stop.load(std::memory_order_acquire)) {
        if (i % 2 == 0) {
          auto got = set->Query("shared-token", {});
          if (!got.ok() || !got->complete() ||
              got->hits != expected->hits) {
            wrong_answers.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          auto got = set->Query("shared-token", pred_b);
          if (!got.ok() || !got->complete() ||
              got->hits != expected_b->hits) {
            wrong_answers.fetch_add(1, std::memory_order_relaxed);
          }
        }
        queries_run.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // The compactor churns against the queriers: repeated passes (later
  // passes see the merged shard — no candidates).
  size_t merges = 0;
  for (int pass = 0; pass < 8; ++pass) {
    const SetCompactionReport report = set->Compact();
    // Transient build faults abort a pass; that is recoverable by design.
    merges += report.merges_committed;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : workers) {
    t.join();
  }
  EXPECT_EQ(wrong_answers.load(), 0u)
      << "of " << queries_run.load() << " queries";
  EXPECT_GE(queries_run.load(), 10u);
  EXPECT_EQ(merges, 2u);  // one per tenant, eventually

  // Converged state: fewer shards, exact answer, clean cold reopen.
  auto final_result = set->Query("shared-token", {});
  ASSERT_TRUE(final_result.ok());
  EXPECT_EQ(final_result->hits, expected->hits);
  EXPECT_EQ(final_result->shards_total, 4u);  // 2 merged + 2 active
  set.reset();
  auto reopened = ArchiveSet::Open(root, SmallSetOptions());  // real env
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto cold = (*reopened)->Query("shared-token", {});
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->hits, expected->hits);
}

}  // namespace
}  // namespace loggrep
