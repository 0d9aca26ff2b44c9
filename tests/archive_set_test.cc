#include "src/store/archive_set.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "src/store/fs_util.h"
#include "src/store/shard_router.h"
#include "src/store/storage_env.h"

namespace loggrep {
namespace {

std::string TestDir(const std::string& name) {
  std::string dir = std::filesystem::temp_directory_path().string() +
                    "/loggrep-archive-set-" + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

// n lines of "<tag> event-<i> shared-token".
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
  options.max_shard_bytes = 0;  // roll on window moves only
  return options;
}

// ---- shard router ----------------------------------------------------------

TEST(ShardRouterTest, SanitizeTenant) {
  EXPECT_EQ(SanitizeTenant("acme"), "acme");
  EXPECT_EQ(SanitizeTenant("acme web"), "acme_web");
  EXPECT_EQ(SanitizeTenant("iot/devices"), "iot_devices");
  EXPECT_EQ(SanitizeTenant(""), "default");
  EXPECT_EQ(SanitizeTenant("A-Z_09"), "A-Z_09");
  EXPECT_EQ(SanitizeTenant(std::string(100, 'x')).size(), 48u);
}

TEST(ShardRouterTest, ShardDirNameAndRecognition) {
  EXPECT_EQ(ShardDirName(7, "acme web"), "shard-000007-acme_web");
  EXPECT_TRUE(LooksLikeShardDir("shard-000007-acme_web"));
  EXPECT_TRUE(LooksLikeShardDir("shard-123456-x"));
  EXPECT_FALSE(LooksLikeShardDir("set_manifest.json"));
  EXPECT_FALSE(LooksLikeShardDir("shard-"));
  EXPECT_FALSE(LooksLikeShardDir("shard-abc"));
  EXPECT_FALSE(LooksLikeShardDir("blocks"));
}

TEST(ShardRouterTest, WindowMath) {
  EXPECT_EQ(WindowStartFor(0, 1000), 0u);
  EXPECT_EQ(WindowStartFor(999, 1000), 0u);
  EXPECT_EQ(WindowStartFor(1000, 1000), 1000u);
  EXPECT_EQ(WindowStartFor(1234, 1000), 1000u);
  EXPECT_EQ(WindowStartFor(1234, 0), 0u);  // span 0: one unbounded window
}

TEST(ShardRouterTest, RollDecision) {
  EXPECT_EQ(DecideRoll(nullptr, 0, 1, kSpan, 0, 100),
            RollReason::kNoActive);
  ShardInfo active;
  active.window_start_ns = 1000;
  active.window_end_ns = 2000;
  active.raw_bytes = 10;
  active.lines = 5;
  EXPECT_EQ(DecideRoll(&active, 1500, 1, kSpan, 0, 100), RollReason::kNone);
  EXPECT_EQ(DecideRoll(&active, 2500, 1, kSpan, 0, 100),
            RollReason::kWindowMoved);
  EXPECT_EQ(DecideRoll(&active, 1500, 1, kSpan, 10, 100),
            RollReason::kSizeCut);
  EXPECT_EQ(DecideRoll(&active, 1500, 96, kSpan, 0, 100),
            RollReason::kLineSpanFull);
  active.sealed = true;
  EXPECT_EQ(DecideRoll(&active, 1500, 1, kSpan, 0, 100),
            RollReason::kNoActive);
}

TEST(ShardRouterTest, PruneReasons) {
  ShardInfo shard;
  shard.tenant = "a";
  shard.lines = 10;
  shard.sealed = true;
  shard.min_ts_ns = 1000;
  shard.max_ts_ns = 1900;

  SetQueryPredicate none;
  EXPECT_EQ(ShardPruneReason(shard, none), "");

  SetQueryPredicate tenant;
  tenant.tenant = "b";
  EXPECT_NE(ShardPruneReason(shard, tenant).find("tenant"), std::string::npos);

  SetQueryPredicate after;
  after.from_ns = 2000;
  EXPECT_NE(ShardPruneReason(shard, after).find("ends before"),
            std::string::npos);

  SetQueryPredicate before;
  before.to_ns = 999;
  EXPECT_NE(ShardPruneReason(shard, before).find("starts after"),
            std::string::npos);

  SetQueryPredicate overlap;
  overlap.from_ns = 1900;
  overlap.to_ns = 5000;
  EXPECT_EQ(ShardPruneReason(shard, overlap), "");

  // An unsealed shard is never time-pruned: its recorded range may be stale.
  shard.sealed = false;
  EXPECT_EQ(ShardPruneReason(shard, after), "");
  // A sealed empty shard holds nothing.
  shard.sealed = true;
  shard.lines = 0;
  EXPECT_NE(ShardPruneReason(shard, none).find("empty"), std::string::npos);
}

// ---- set manifest ----------------------------------------------------------

TEST(SetManifestTest, RoundTripPreservesFullU64Precision) {
  std::vector<ShardInfo> shards(2);
  shards[0].id = 0;
  shards[0].tenant = "acme web";
  shards[0].dir_name = "shard-000000-acme_web";
  shards[0].line_base = 0;
  shards[0].lines = 7;
  shards[0].sealed = true;
  // Deliberately past 2^53: a double round-trip would corrupt these.
  shards[0].min_ts_ns = 1'750'000'000'000'000'001ull;
  shards[0].max_ts_ns = 1'750'000'000'000'000'003ull;
  shards[1].id = 5;
  shards[1].tenant = "acme web";
  shards[1].dir_name = "shard-000005-acme_web";
  shards[1].line_base = 5 * ArchiveSet::kShardLineSpan + 1;
  shards[1].min_ts_ns = UINT64_MAX;
  shards[1].max_ts_ns = 0;

  ArchiveSet::SetManifestHeader header;
  header.window_span_ns = 3'600'000'000'000ull;
  header.next_shard_id = 6;
  header.next_line_base = 6 * ArchiveSet::kShardLineSpan + 1;
  const std::string bytes = ArchiveSet::SerializeSetManifest(header, shards);
  ArchiveSet::SetManifestHeader parsed_header;
  Result<std::vector<ShardInfo>> parsed =
      ArchiveSet::ParseSetManifest(bytes, &parsed_header);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed_header.window_span_ns, 3'600'000'000'000ull);
  EXPECT_EQ(parsed_header.next_shard_id, 6u);
  EXPECT_EQ(parsed_header.next_line_base, 6 * ArchiveSet::kShardLineSpan + 1);
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].tenant, "acme web");
  EXPECT_EQ((*parsed)[0].min_ts_ns, 1'750'000'000'000'000'001ull);
  EXPECT_EQ((*parsed)[0].max_ts_ns, 1'750'000'000'000'000'003ull);
  EXPECT_TRUE((*parsed)[0].sealed);
  EXPECT_EQ((*parsed)[1].line_base, 5 * ArchiveSet::kShardLineSpan + 1);
  EXPECT_EQ((*parsed)[1].min_ts_ns, UINT64_MAX);
}

TEST(SetManifestTest, HostileBytesRejectedCleanly) {
  const auto parses = [](std::string_view bytes) {
    ArchiveSet::SetManifestHeader header;
    return ArchiveSet::ParseSetManifest(bytes, &header).ok();
  };
  EXPECT_FALSE(parses(""));
  EXPECT_FALSE(parses("not json"));
  EXPECT_FALSE(parses("[]"));
  EXPECT_FALSE(parses("{\"version\":99,\"shards\":[]}"));
  // Shard without id.
  EXPECT_FALSE(parses("{\"version\":1,\"shards\":[{\"dir\":\"shard-0-x\"}]}"));
  // Unsafe dir name.
  EXPECT_FALSE(parses("{\"version\":1,\"next_shard_id\":\"1\","
                      "\"next_line_base\":\"2\",\"shards\":[{\"id\":\"0\","
                      "\"dir\":\"../../etc\"}]}"));
  // Expired but not sealed.
  EXPECT_FALSE(parses("{\"version\":1,\"next_shard_id\":\"1\","
                      "\"next_line_base\":\"2\",\"shards\":[{\"id\":\"0\","
                      "\"dir\":\"shard-000000-x\",\"expired\":true}]}"));
  // Non-increasing ids.
  EXPECT_FALSE(parses("{\"version\":1,\"next_shard_id\":\"9\","
                      "\"next_line_base\":\"9\",\"shards\":["
                      "{\"id\":\"3\",\"dir\":\"shard-000003-x\",\"line_base\":"
                      "\"1\"},{\"id\":\"3\",\"dir\":\"shard-000003-y\","
                      "\"line_base\":\"2\"}]}"));
}

// ---- ingest + routing ------------------------------------------------------

TEST(ArchiveSetTest, RoutesByTenantAndWindow) {
  const std::string root = TestDir("routing");
  auto set = ArchiveSet::Create(root, SmallSetOptions());
  ASSERT_TRUE(set.ok()) << set.status().ToString();

  // Two tenants, two windows each: four shards.
  auto r1 = (*set)->Append("a", MakeText("alpha", 3), 100);
  auto r2 = (*set)->Append("b", MakeText("bravo", 3), 150);
  auto r3 = (*set)->Append("a", MakeText("alpha", 3, 3), 200);  // same window
  auto r4 = (*set)->Append("a", MakeText("alpha", 3, 6), 1200);  // next window
  auto r5 = (*set)->Append("b", MakeText("bravo", 3, 3), 1300);
  for (const auto* r : {&r1, &r2, &r3, &r4, &r5}) {
    ASSERT_TRUE(r->ok()) << r->status().ToString();
  }
  EXPECT_TRUE(r1->rolled);
  EXPECT_EQ(r1->roll_reason, RollReason::kNoActive);
  EXPECT_FALSE(r3->rolled);
  EXPECT_EQ(r3->shard_id, r1->shard_id);
  EXPECT_TRUE(r4->rolled);
  EXPECT_EQ(r4->roll_reason, RollReason::kWindowMoved);
  EXPECT_NE(r4->shard_id, r1->shard_id);
  EXPECT_NE(r2->shard_id, r1->shard_id);

  EXPECT_EQ((*set)->live_shard_count(), 4u);
  EXPECT_EQ((*set)->tenant_count(), 2u);
  EXPECT_EQ((*set)->total_lines(), 15u);

  // Rolling sealed the previous window's shard.
  for (const ShardInfo& s : (*set)->shards()) {
    if (s.id == r1->shard_id || s.id == r2->shard_id) {
      EXPECT_TRUE(s.sealed) << "shard " << s.id;
    } else {
      EXPECT_FALSE(s.sealed) << "shard " << s.id;
    }
  }
}

TEST(ArchiveSetTest, SizeCutRolls) {
  const std::string root = TestDir("sizecut");
  ArchiveSetOptions options = SmallSetOptions();
  options.window_span_ns = 0;     // no window rolls
  options.max_shard_bytes = 1;    // every non-empty shard is "full"
  auto set = ArchiveSet::Create(root, options);
  ASSERT_TRUE(set.ok());
  auto r1 = (*set)->Append("a", MakeText("x", 2), 10);
  auto r2 = (*set)->Append("a", MakeText("x", 2, 2), 20);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->rolled);
  EXPECT_EQ(r2->roll_reason, RollReason::kSizeCut);
  EXPECT_EQ((*set)->live_shard_count(), 2u);
}

TEST(ArchiveSetTest, GlobalLineNumbersStrideByLineSpan) {
  const std::string root = TestDir("linestride");
  auto set = ArchiveSet::Create(root, SmallSetOptions());
  ASSERT_TRUE(set.ok());
  auto r1 = (*set)->Append("a", MakeText("alpha", 4), 100);
  auto r2 = (*set)->Append("a", MakeText("alpha", 4, 4), 200);
  auto r3 = (*set)->Append("a", MakeText("alpha", 4, 8), 1200);
  ASSERT_TRUE(r1.ok() && r2.ok() && r3.ok());
  EXPECT_EQ(r1->first_global_line, 0u);
  EXPECT_EQ(r2->first_global_line, 4u);  // same shard, contiguous
  EXPECT_EQ(r3->first_global_line, ArchiveSet::kShardLineSpan);
}

TEST(ArchiveSetTest, EmptyAppendRejected) {
  const std::string root = TestDir("emptyappend");
  auto set = ArchiveSet::Create(root, SmallSetOptions());
  ASSERT_TRUE(set.ok());
  EXPECT_FALSE((*set)->Append("a", "", 100).ok());
}

TEST(ArchiveSetTest, CreateRefusesExistingManifest) {
  const std::string root = TestDir("recreate");
  auto set = ArchiveSet::Create(root, SmallSetOptions());
  ASSERT_TRUE(set.ok());
  set->reset();  // release before re-creating
  EXPECT_FALSE(ArchiveSet::Create(root, SmallSetOptions()).ok());
}

TEST(ArchiveSetTest, PersistedWindowSpanWinsOverOption) {
  const std::string root = TestDir("spanwins");
  auto set = ArchiveSet::Create(root, SmallSetOptions());
  ASSERT_TRUE(set.ok());
  ASSERT_TRUE((*set)->Append("a", MakeText("alpha", 2), 100).ok());
  set->reset();
  ArchiveSetOptions other = SmallSetOptions();
  other.window_span_ns = 77;  // ignored: partitioning is fixed at Create
  auto reopened = ArchiveSet::Open(root, other);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->window_span_ns(), kSpan);
}

// ---- query + pruning -------------------------------------------------------

struct FederatedFixture {
  std::string root;
  std::unique_ptr<ArchiveSet> set;
  std::vector<AppendReceipt> receipts;
};

// Two tenants x two windows, three lines per shard.
FederatedFixture BuildTwoByTwo(const std::string& name) {
  FederatedFixture fx;
  fx.root = TestDir(name);
  auto set = ArchiveSet::Create(fx.root, SmallSetOptions());
  EXPECT_TRUE(set.ok()) << set.status().ToString();
  fx.set = std::move(*set);
  struct Row {
    const char* tenant;
    const char* tag;
    int start;
    uint64_t ts;
  };
  const Row rows[] = {
      {"a", "alpha", 0, 100},
      {"b", "bravo", 0, 150},
      {"a", "alpha", 3, 1100},
      {"b", "bravo", 3, 1150},
  };
  for (const Row& row : rows) {
    auto receipt =
        fx.set->Append(row.tenant, MakeText(row.tag, 3, row.start), row.ts);
    EXPECT_TRUE(receipt.ok()) << receipt.status().ToString();
    fx.receipts.push_back(*receipt);
  }
  return fx;
}

TEST(ArchiveSetTest, FederatedQueryMergesGloballyNumberedHits) {
  FederatedFixture fx = BuildTwoByTwo("fedquery");
  auto result = fx.set->Query("shared-token", {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->complete());
  EXPECT_EQ(result->shards_total, 4u);
  EXPECT_EQ(result->shards_visited, 4u);
  EXPECT_EQ(result->shards_pruned, 0u);
  ASSERT_EQ(result->hits.size(), 12u);
  // Ascending global lines, each rebased by its shard's receipt.
  for (size_t i = 1; i < result->hits.size(); ++i) {
    EXPECT_LT(result->hits[i - 1].first, result->hits[i].first);
  }
  EXPECT_EQ(result->hits[0].first, fx.receipts[0].first_global_line);
  // Tenant-only query: the "alpha" keyword appears only in tenant a's lines.
  auto alpha = fx.set->Query("alpha", {});
  ASSERT_TRUE(alpha.ok());
  EXPECT_EQ(alpha->hits.size(), 6u);
}

TEST(ArchiveSetTest, TenantPredicatePrunesOtherTenants) {
  FederatedFixture fx = BuildTwoByTwo("tenantpred");
  SetQueryPredicate pred;
  pred.tenant = "b";
  auto result = fx.set->Query("shared-token", pred);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->shards_total, 4u);
  EXPECT_EQ(result->shards_pruned, 2u);
  EXPECT_EQ(result->shards_visited, 2u);
  EXPECT_EQ(result->hits.size(), 6u);
  for (const auto& hit : result->hits) {
    EXPECT_NE(hit.second.find("bravo"), std::string::npos) << hit.second;
  }
}

TEST(ArchiveSetTest, TimePredicateSkipsSealedOutOfRangeShards) {
  FederatedFixture fx = BuildTwoByTwo("timepred");
  // Window 1 only. Window-0 shards are sealed and provably out of range;
  // window-1 shards are active (never time-pruned) and in range anyway.
  SetQueryPredicate pred;
  pred.from_ns = 1000;
  auto result = fx.set->Query("shared-token", pred);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->shards_pruned, 2u);
  EXPECT_EQ(result->shards_visited, 2u);
  EXPECT_EQ(result->hits.size(), 6u);

  // The reverse range keeps the sealed window-0 shards AND the active
  // shards (active shards are never time-pruned: their range is not final).
  SetQueryPredicate old_only;
  old_only.to_ns = 999;
  auto old_result = fx.set->Query("shared-token", old_only);
  ASSERT_TRUE(old_result.ok());
  EXPECT_EQ(old_result->shards_pruned, 0u);
  EXPECT_EQ(old_result->hits.size(), 12u);
}

TEST(ArchiveSetTest, ParallelQueryMatchesSerial) {
  FederatedFixture fx = BuildTwoByTwo("parallel");
  auto serial = fx.set->Query("shared-token", {});
  auto parallel = fx.set->Query("shared-token", {}, {.threads = 4});
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(serial->hits, parallel->hits);
  EXPECT_EQ(serial->shards_visited, parallel->shards_visited);
  EXPECT_EQ(serial->blocks_queried, parallel->blocks_queried);
}

TEST(ArchiveSetTest, InvalidCommandFailsEvenWhenEverythingPruned) {
  FederatedFixture fx = BuildTwoByTwo("badcommand");
  SetQueryPredicate pred;
  pred.tenant = "nonexistent";
  auto result = fx.set->Query("and and", pred);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ArchiveSetTest, SetExplainRecordsShardFates) {
  FederatedFixture fx = BuildTwoByTwo("setexplain");
  SetQueryPredicate pred;
  pred.tenant = "a";
  pred.from_ns = 1000;
  SetExplain explain;
  auto result = fx.set->Query("shared-token", pred, {}, &explain);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(explain.shards.size(), 4u);

  size_t pruned = 0, visited = 0;
  bool saw_tenant_reason = false, saw_time_reason = false;
  for (const ShardExplain& s : explain.shards) {
    if (s.pruned) {
      ++pruned;
      EXPECT_FALSE(s.prune_reason.empty());
      if (s.prune_reason.find("tenant") != std::string::npos) {
        saw_tenant_reason = true;
      }
      if (s.prune_reason.find("ends before") != std::string::npos) {
        saw_time_reason = true;
      }
    } else {
      ++visited;
      // Per-shard capsule accounting must balance.
      EXPECT_TRUE(s.archive.CheckInvariant());
    }
  }
  EXPECT_EQ(pruned, 3u);   // tenant b (x2) + tenant a window 0
  EXPECT_EQ(visited, 1u);  // tenant a's active shard
  EXPECT_TRUE(saw_tenant_reason);
  EXPECT_TRUE(saw_time_reason);

  std::string detail;
  EXPECT_TRUE(explain.CheckInvariant(&detail)) << detail;
  // Set-level accounting: pruned + visited == total, surfaced in the result.
  EXPECT_EQ(result->shards_pruned + result->shards_visited,
            result->shards_total);
  EXPECT_NE(explain.Render().find("pruned"), std::string::npos);

  // Reusing the tree resets it: one entry per shard, not one per call.
  auto again = fx.set->Query("shared-token", pred, {}, &explain);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(explain.command, "shared-token");
  ASSERT_EQ(explain.shards.size(), 4u);
  EXPECT_TRUE(explain.CheckInvariant(&detail)) << detail;

  // The tree changes nothing about the answer.
  auto plain = fx.set->Query("shared-token", pred);
  ASSERT_TRUE(plain.ok());
  for (const SetQueryResult* r : {&*result, &*again}) {
    EXPECT_EQ(r->hits, plain->hits);
    EXPECT_EQ(r->shards_total, plain->shards_total);
    EXPECT_EQ(r->shards_pruned, plain->shards_pruned);
    EXPECT_EQ(r->shards_visited, plain->shards_visited);
    EXPECT_EQ(r->shards_failed, plain->shards_failed);
    EXPECT_EQ(r->blocks_pruned, plain->blocks_pruned);
    EXPECT_EQ(r->blocks_queried, plain->blocks_queried);
    EXPECT_EQ(r->partial.failures.size(), plain->partial.failures.size());
    EXPECT_EQ(r->complete(), plain->complete());
  }
}

// ---- crash-safety kill points ----------------------------------------------

TEST(ArchiveSetKillTest, RollKilledAfterShardCreateLeavesNoCommittedShard) {
  const std::string root = TestDir("kill-shard-created");
  auto set = ArchiveSet::Create(root, SmallSetOptions());
  ASSERT_TRUE(set.ok());
  (*set)->set_commit_hook(
      [](SetKillPoint p) { return p == SetKillPoint::kShardCreated; });
  auto receipt = (*set)->Append("a", MakeText("alpha", 2), 100);
  EXPECT_FALSE(receipt.ok());
  EXPECT_EQ((*set)->shards().size(), 0u);
  set->reset();

  // The orphan dir exists on disk but holds no committed data; Open sweeps
  // it and recovers an empty set.
  auto reopened = ArchiveSet::Open(root, SmallSetOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->shards().size(), 0u);
  bool any_shard_dir = false;
  for (const auto& entry : std::filesystem::directory_iterator(root)) {
    if (LooksLikeShardDir(entry.path().filename().string())) {
      any_shard_dir = true;
    }
  }
  EXPECT_FALSE(any_shard_dir);

  // Ingest proceeds normally afterwards and reuses the never-committed id.
  auto retried = (*reopened)->Append("a", MakeText("alpha", 2), 100);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried->shard_id, 0u);
}

TEST(ArchiveSetKillTest, RollKilledAfterManifestKeepsCommittedShard) {
  const std::string root = TestDir("kill-roll-manifest");
  auto set = ArchiveSet::Create(root, SmallSetOptions());
  ASSERT_TRUE(set.ok());
  (*set)->set_commit_hook(
      [](SetKillPoint p) { return p == SetKillPoint::kRollManifestWritten; });
  auto receipt = (*set)->Append("a", MakeText("alpha", 2), 100);
  EXPECT_FALSE(receipt.ok());  // "died" right after the commit point
  set->reset();

  // Never lose a committed shard: the roll is durable, the append is not.
  auto reopened = ArchiveSet::Open(root, SmallSetOptions());
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ((*reopened)->shards().size(), 1u);
  EXPECT_EQ((*reopened)->shards()[0].lines, 0u);
  auto retried = (*reopened)->Append("a", MakeText("alpha", 2), 100);
  ASSERT_TRUE(retried.ok());
  EXPECT_FALSE(retried->rolled);  // the committed shard is reused
  EXPECT_EQ(retried->shard_id, 0u);
  EXPECT_EQ(retried->first_global_line, 0u);
}

TEST(ArchiveSetKillTest, AppendKilledAfterManifestWidensRangeOnly) {
  const std::string root = TestDir("kill-append-manifest");
  auto set = ArchiveSet::Create(root, SmallSetOptions());
  ASSERT_TRUE(set.ok());
  ASSERT_TRUE((*set)->Append("a", MakeText("alpha", 2), 100).ok());
  (*set)->set_commit_hook([](SetKillPoint p) {
    return p == SetKillPoint::kAppendManifestWritten;
  });
  auto killed = (*set)->Append("a", MakeText("alpha", 2, 2), 900);
  EXPECT_FALSE(killed.ok());
  set->reset();

  auto reopened = ArchiveSet::Open(root, SmallSetOptions());
  ASSERT_TRUE(reopened.ok());
  // The shard kept only the committed block; its recorded event range is
  // wider than its data (conservative => time pruning stays sound).
  auto result = (*reopened)->Query("shared-token", {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->hits.size(), 2u);
  ASSERT_EQ((*reopened)->shards().size(), 1u);
  EXPECT_EQ((*reopened)->shards()[0].max_ts_ns, 900u);

  // The interrupted append retries cleanly with contiguous numbering.
  auto retried = (*reopened)->Append("a", MakeText("alpha", 2, 2), 900);
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(retried->first_global_line, 2u);
}

TEST(ArchiveSetKillTest, RetentionKilledAfterManifestNeverResurrects) {
  const std::string root = TestDir("kill-retention");
  ArchiveSetOptions options = SmallSetOptions();
  options.retention_ns = 500;
  auto set = ArchiveSet::Create(root, options);
  ASSERT_TRUE(set.ok());
  auto r1 = (*set)->Append("a", MakeText("alpha", 2), 100);
  auto r2 = (*set)->Append("a", MakeText("alpha", 2, 2), 1100);  // seals w0
  ASSERT_TRUE(r1.ok() && r2.ok());
  const std::string expired_dir =
      root + "/" + (*set)->shards()[0].dir_name;

  (*set)->set_commit_hook([](SetKillPoint p) {
    return p == SetKillPoint::kRetentionManifestWritten;
  });
  auto report = (*set)->RunRetention(/*now_ns=*/2000);  // cut=1500 > 100
  EXPECT_FALSE(report.ok());
  // Commit point passed: the entry is expired on disk, the dir lingers.
  EXPECT_TRUE(std::filesystem::exists(expired_dir));
  set->reset();

  auto reopened = ArchiveSet::Open(root, options);
  ASSERT_TRUE(reopened.ok());
  // Open finished the interrupted removal and kept the tombstone.
  EXPECT_FALSE(std::filesystem::exists(expired_dir));
  ASSERT_EQ((*reopened)->shards().size(), 2u);
  EXPECT_TRUE((*reopened)->shards()[0].expired);
  EXPECT_EQ((*reopened)->live_shard_count(), 1u);
  // The expired shard is never queried again...
  auto result = (*reopened)->Query("shared-token", {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->complete());
  EXPECT_EQ(result->shards_total, 1u);
  ASSERT_EQ(result->hits.size(), 2u);
  // ...and the surviving shard's global lines did not shift.
  EXPECT_EQ(result->hits[0].first, r2->first_global_line);
}

TEST(ArchiveSetKillTest, ManifestRenameFaultRollsBackCleanly) {
  const std::string root = TestDir("manifest-fault");
  FaultOptions fault_options;
  FaultInjectingStorageEnv env(fault_options);
  ArchiveSetOptions options = SmallSetOptions();
  options.archive.env = &env;
  auto set = ArchiveSet::Create(root, options);
  ASSERT_TRUE(set.ok()) << set.status().ToString();

  env.AddPermanentFault("set_manifest.json", StatusCode::kIOError);
  auto failed = (*set)->Append("a", MakeText("alpha", 2), 100);
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ((*set)->shards().size(), 0u);  // in-memory state rolled back

  env.ClearPermanentFaults();
  auto retried = (*set)->Append("a", MakeText("alpha", 2), 100);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried->shard_id, 0u);
  auto result = (*set)->Query("shared-token", {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->hits.size(), 2u);
}

// ---- retention + line-number stability -------------------------------------

TEST(ArchiveSetTest, RetentionExpiresInteriorShardWithoutShiftingLines) {
  const std::string root = TestDir("retention-stability");
  ArchiveSetOptions options = SmallSetOptions();
  options.retention_ns = 600;
  auto set = ArchiveSet::Create(root, options);
  ASSERT_TRUE(set.ok());
  // Three windows for tenant a: shards 0 (ts 100), 1 (ts 1100), 2 (ts 2100).
  auto r0 = (*set)->Append("a", MakeText("w0", 2), 100);
  auto r1 = (*set)->Append("a", MakeText("w1", 2), 1100);
  auto r2 = (*set)->Append("a", MakeText("w2", 2), 2100);
  ASSERT_TRUE(r0.ok() && r1.ok() && r2.ok());

  auto before = (*set)->Query("shared-token", {});
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->hits.size(), 6u);

  // cut = 1700 - 600 = 1100: shard 0 (max 100) expires; shard 1 (max 1100)
  // survives the strict < comparison.
  auto report = (*set)->RunRetention(1700);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->ok()) << report->Summary();
  ASSERT_EQ(report->expired_ids.size(), 1u);
  EXPECT_EQ(report->expired_ids[0], r0->shard_id);
  EXPECT_EQ(report->dirs_removed, 1u);

  auto after = (*set)->Query("shared-token", {});
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->hits.size(), 4u);
  // Global line numbers of the surviving shards are byte-identical to the
  // pre-retention answer (the tombstoned entry keeps later bases pinned).
  EXPECT_EQ(after->hits[0].first, before->hits[2].first);
  EXPECT_EQ(after->hits[0].second, before->hits[2].second);
  EXPECT_EQ(after->hits[2].first, r2->first_global_line);

  // Same answer across a reopen.
  set->reset();
  auto reopened = ArchiveSet::Open(root, options);
  ASSERT_TRUE(reopened.ok());
  auto reopened_result = (*reopened)->Query("shared-token", {});
  ASSERT_TRUE(reopened_result.ok());
  EXPECT_EQ(reopened_result->hits, after->hits);
  // Tombstones persist in the manifest snapshot.
  EXPECT_EQ((*reopened)->shards().size(), 3u);
  EXPECT_TRUE((*reopened)->shards()[0].expired);
}

TEST(ArchiveSetTest, RetentionKeepsActiveShardForever) {
  const std::string root = TestDir("retention-active");
  ArchiveSetOptions options = SmallSetOptions();
  options.retention_ns = 1;
  auto set = ArchiveSet::Create(root, options);
  ASSERT_TRUE(set.ok());
  ASSERT_TRUE((*set)->Append("a", MakeText("w0", 2), 100).ok());
  // Far-future retention pass: the single shard is active, so it survives.
  auto report = (*set)->RunRetention(1'000'000);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->expired_ids.empty());
  EXPECT_EQ((*set)->live_shard_count(), 1u);
}

TEST(ArchiveSetTest, RetentionDisabledIsNoOp) {
  const std::string root = TestDir("retention-off");
  auto set = ArchiveSet::Create(root, SmallSetOptions());  // retention_ns = 0
  ASSERT_TRUE(set.ok());
  ASSERT_TRUE((*set)->Append("a", MakeText("w0", 2), 100).ok());
  ASSERT_TRUE((*set)->Append("a", MakeText("w1", 2), 1100).ok());
  auto report = (*set)->RunRetention(UINT64_MAX);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->expired_ids.empty());
}

// ---- degradation + repair --------------------------------------------------

TEST(ArchiveSetTest, BrokenShardDegradesFederationTo206) {
  const std::string root = TestDir("degrade");
  auto set = ArchiveSet::Create(root, SmallSetOptions());
  ASSERT_TRUE(set.ok());
  auto ra = (*set)->Append("a", MakeText("alpha", 3), 100);
  auto rb = (*set)->Append("b", MakeText("bravo", 3), 150);
  ASSERT_TRUE(ra.ok() && rb.ok());
  set->reset();

  // Reopen against an env where tenant a's shard dir is permanently broken:
  // its archive cannot even open.
  FaultOptions fault_options;
  FaultInjectingStorageEnv env(fault_options);
  env.AddPermanentFault(ShardDirName(ra->shard_id, "a"),
                        StatusCode::kIOError);
  ArchiveSetOptions options = SmallSetOptions();
  options.archive.env = &env;
  auto degraded = ArchiveSet::Open(root, options);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();

  auto result = (*degraded)->Query("shared-token", {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->complete());
  ASSERT_EQ(result->shard_failures.size(), 1u);
  EXPECT_EQ(result->shard_failures[0].shard_id, ra->shard_id);
  EXPECT_EQ(result->shard_failures[0].tenant, "a");
  // Exactly the healthy shard's lines.
  ASSERT_EQ(result->hits.size(), 3u);
  for (const auto& hit : result->hits) {
    EXPECT_NE(hit.second.find("bravo"), std::string::npos);
  }
  EXPECT_NE(result->RenderPartial().find("unavailable"), std::string::npos);

  // Strict mode: the same failure aborts instead of degrading.
  QueryOptions strict;
  strict.degrade = false;
  EXPECT_FALSE((*degraded)->Query("shared-token", {}, strict).ok());
}

TEST(ArchiveSetTest, RepairAllReinstatesAcrossShards) {
  const std::string root = TestDir("repairall");
  auto set = ArchiveSet::Create(root, SmallSetOptions());
  ASSERT_TRUE(set.ok());
  auto ra = (*set)->Append("a", MakeText("alpha", 3), 100);
  ASSERT_TRUE(ra.ok());
  const std::string block_path =
      root + "/" + (*set)->shards()[0].dir_name + "/block-0.lgc";
  set->reset();

  // Corrupt the block on disk, let a cold query quarantine it.
  auto original = ReadFileBytes(block_path, nullptr);
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  ASSERT_TRUE(WriteFileBytes(block_path, "garbage-bytes", nullptr).ok());
  auto degraded = ArchiveSet::Open(root, SmallSetOptions());
  ASSERT_TRUE(degraded.ok());
  auto broken = (*degraded)->Query("shared-token", {});
  ASSERT_TRUE(broken.ok());
  EXPECT_FALSE(broken->complete());
  EXPECT_TRUE(broken->hits.empty());

  // Restore the bytes; fleet-level repair reinstates without reopening.
  ASSERT_TRUE(WriteFileBytes(block_path, *original, nullptr).ok());
  SetRepairReport repaired = (*degraded)->RepairAll();
  EXPECT_TRUE(repaired.ok()) << repaired.Summary();
  EXPECT_EQ(repaired.reinstated, 1u);
  auto healed = (*degraded)->Query("shared-token", {});
  ASSERT_TRUE(healed.ok());
  EXPECT_TRUE(healed->complete()) << healed->RenderPartial();
  EXPECT_EQ(healed->hits.size(), 3u);
}

TEST(ArchiveSetTest, JanitorRunsRetentionInBackground) {
  const std::string root = TestDir("janitor");
  ArchiveSetOptions options = SmallSetOptions();
  options.retention_ns = 1;
  auto set = ArchiveSet::Create(root, options);
  ASSERT_TRUE(set.ok());
  ASSERT_TRUE((*set)->Append("a", MakeText("w0", 2), 100).ok());
  ASSERT_TRUE((*set)->Append("a", MakeText("w1", 2), 1100).ok());

  // A fast janitor against the real clock: retention cut is far past both
  // event timestamps, so the sealed window-0 shard expires within a tick.
  (*set)->StartJanitor(/*interval_ns=*/1'000'000);  // 1ms
  for (int i = 0; i < 500 && (*set)->live_shard_count() == 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  (*set)->StopJanitor();
  EXPECT_EQ((*set)->live_shard_count(), 1u);
}

}  // namespace
}  // namespace loggrep
