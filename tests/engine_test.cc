#include <gtest/gtest.h>

#include <string>

#include "src/capsule/capsule_box.h"
#include "src/common/rng.h"
#include "src/core/engine.h"
#include "src/query/line_match.h"
#include "src/parser/template_miner.h"
#include "src/workload/datasets.h"
#include "src/workload/loggen.h"

namespace loggrep {
namespace {

std::string Lines(std::initializer_list<std::string_view> lines) {
  std::string text;
  for (std::string_view l : lines) {
    text += l;
    text += '\n';
  }
  return text;
}

TEST(EngineTest, PaperFigure1WalkThrough) {
  const std::string text = Lines({
      "T134 bk.FF.13 read",
      "T169 state: SUC#1604",
      "T179 bk.C5.15 read",
      "T181 state: ERR#1623",
  });
  LogGrepEngine engine;
  const std::string box = engine.CompressBlock(text);

  // Query "read": hits the static pattern of group 1 -> lines 0 and 2.
  auto read = engine.Query(box, "read");
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->hits.size(), 2u);
  EXPECT_EQ(read->hits[0].first, 0u);
  EXPECT_EQ(read->hits[0].second, "T134 bk.FF.13 read");
  EXPECT_EQ(read->hits[1].first, 2u);
  EXPECT_EQ(read->hits[1].second, "T179 bk.C5.15 read");

  // Query "ERR#1623": nominal/variable content.
  auto err = engine.Query(box, "ERR#1623");
  ASSERT_TRUE(err.ok());
  ASSERT_EQ(err->hits.size(), 1u);
  EXPECT_EQ(err->hits[1 - 1].second, "T181 state: ERR#1623");

  // AND across template and variable.
  auto both = engine.Query(box, "state: and SUC");
  ASSERT_TRUE(both.ok());
  ASSERT_EQ(both->hits.size(), 1u);
  EXPECT_EQ(both->hits[0].first, 1u);
}

TEST(EngineTest, EmptyBlock) {
  LogGrepEngine engine;
  const std::string box = engine.CompressBlock("");
  auto result = engine.Query(box, "anything");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->hits.empty());
}

TEST(EngineTest, SingleLineBlock) {
  LogGrepEngine engine;
  const std::string box = engine.CompressBlock("lonely line 42\n");
  auto hit = engine.Query(box, "lonely");
  ASSERT_TRUE(hit.ok());
  ASSERT_EQ(hit->hits.size(), 1u);
  EXPECT_EQ(hit->hits[0].second, "lonely line 42");
  auto miss = engine.Query(box, "crowded");
  ASSERT_TRUE(miss.ok());
  EXPECT_TRUE(miss->hits.empty());
}

TEST(EngineTest, MalformedQueryRejected) {
  LogGrepEngine engine;
  const std::string box = engine.CompressBlock("x 1\n");
  EXPECT_FALSE(engine.Query(box, "").ok());
  EXPECT_FALSE(engine.Query(box, "and and").ok());
}

TEST(EngineTest, CorruptBoxRejected) {
  LogGrepEngine engine;
  EXPECT_FALSE(engine.Query("not a capsule box", "x").ok());
  const std::string box = engine.CompressBlock("x 1\n");
  EXPECT_FALSE(engine.Query(std::string_view(box).substr(0, 10), "x").ok());
}

TEST(EngineTest, StampFilteringReducesDecompression) {
  // A keyword whose character classes cannot occur in any capsule should
  // decompress (nearly) nothing when stamps are on.
  const std::string text =
      LogGenerator(*FindDataset("Log G")).Generate(128 * 1024);

  EngineOptions with;
  with.use_cache = false;
  LogGrepEngine engine_with(with);
  EngineOptions without;
  without.use_cache = false;
  without.use_stamps = false;
  LogGrepEngine engine_without(without);

  const std::string box_with = engine_with.CompressBlock(text);
  const std::string box_without = engine_without.CompressBlock(text);
  const std::string query = "zzzzqqqq";  // g-z class, absent from hex ids

  auto r_with = engine_with.Query(box_with, query);
  auto r_without = engine_without.Query(box_without, query);
  ASSERT_TRUE(r_with.ok());
  ASSERT_TRUE(r_without.ok());
  EXPECT_TRUE(r_with->hits.empty());
  EXPECT_TRUE(r_without->hits.empty());
  EXPECT_LT(r_with->locator.capsules_decompressed,
            r_without->locator.capsules_decompressed);
  EXPECT_GT(r_with->locator.capsules_stamp_filtered, 0u);
}

TEST(EngineTest, WildcardQueries) {
  const std::string text = Lines({
      "conn from 11.187.3.9 ok",
      "conn from 11.187.4.101 ok",
      "conn from 10.20.3.9 ok",
  });
  LogGrepEngine engine;
  const std::string box = engine.CompressBlock(text);
  auto result = engine.Query(box, "11.187.*");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->hits.size(), 2u);
  EXPECT_EQ(result->hits[0].first, 0u);
  EXPECT_EQ(result->hits[1].first, 1u);

  auto qmark = engine.Query(box, "11.187.?.9");
  ASSERT_TRUE(qmark.ok());
  ASSERT_EQ(qmark->hits.size(), 1u);
  EXPECT_EQ(qmark->hits[0].first, 0u);
}

TEST(EngineTest, OutlierLinesStillQueryable) {
  // Build a block where one weird line will not match any mined template.
  std::string text;
  for (int i = 0; i < 400; ++i) {
    text += "svc req " + std::to_string(i) + " done\n";
  }
  text += "!!! PANIC unique stack frame #42 !!!\n";
  LogGrepEngine engine;
  const std::string box = engine.CompressBlock(text);
  auto result = engine.Query(box, "PANIC");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->hits.size(), 1u);
  EXPECT_EQ(result->hits[0].first, 400u);
  EXPECT_EQ(result->hits[0].second, "!!! PANIC unique stack frame #42 !!!");
}

// A real variable with outlier rows: present-row hits must map back to the
// right group rows (the mapping skips the outliers), for trivial, constraint
// and wildcard matches, in padded and delimited layouts.
TEST(EngineTest, RealVariableOutliersKeepRowMapping) {
  Rng rng(11);
  std::vector<std::string> lines;
  std::string text;
  for (int i = 0; i < 300; ++i) {
    std::string value =
        "blk_" + std::to_string(10000000 + rng.NextBelow(89999999));
    if (i == 7 || i == 200) {
      value = i == 7 ? "TOTALLY-DIFFERENT" : "another-outlier!";
    }
    lines.push_back("req serve " + value + " done");
    text += lines.back() + "\n";
  }
  const std::vector<std::string> commands = {
      "blk_",                    // trivial: every present row
      lines[8].substr(10, 9),    // a present row after the first outlier
      lines[250].substr(14, 6),  // a present row after both outliers
      "blk_1*",                  // wildcard path
      "outlier",                 // outlier rows only
      "blk_ or TOTALLY",
      "not blk_",
  };
  for (const bool padded : {true, false}) {
    EngineOptions options;
    options.use_fixed = padded;
    LogGrepEngine engine(options);
    const std::string box = engine.CompressBlock(text);
    auto opened = CapsuleBox::Open(box);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    bool has_outliers = false;
    for (const GroupMeta& group : opened->meta().groups) {
      for (const VarMeta& var : group.vars) {
        has_outliers |= var.is_real() && !var.real().outlier_rows.empty();
      }
    }
    ASSERT_TRUE(has_outliers) << "fixture lost its outlier rows";
    for (const std::string& command : commands) {
      auto expr = ParseQuery(command);
      ASSERT_TRUE(expr.ok()) << command;
      QueryHits want;
      for (size_t i = 0; i < lines.size(); ++i) {
        if (LineMatchesQuery(lines[i], **expr)) {
          want.emplace_back(i, lines[i]);
        }
      }
      auto got = engine.Query(box, command);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->hits, want) << command << " padded=" << padded;
    }
  }
}

TEST(EngineTest, ResultsOrderedByLineNumberAcrossGroups) {
  const std::string text = Lines({
      "alpha event 1",
      "beta thing 2",
      "alpha event 3",
      "beta thing 4",
      "alpha event 5",
  });
  LogGrepEngine engine;
  const std::string box = engine.CompressBlock(text);
  auto result = engine.Query(box, "alpha or beta");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->hits.size(), 5u);
  for (uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(result->hits[i].first, i);
  }
}

TEST(EngineTest, CacheDisabledNeverServesFromCache) {
  EngineOptions opts;
  opts.use_cache = false;
  LogGrepEngine engine(opts);
  const std::string box = engine.CompressBlock("a 1\n");
  auto r1 = engine.Query(box, "a");
  auto r2 = engine.Query(box, "a");
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r1->from_cache);
  EXPECT_FALSE(r2->from_cache);
  EXPECT_EQ(engine.cache().size(), 0u);
}

TEST(EngineTest, QueryCacheIsPerBox) {
  // Regression: the same command against a different box must not serve the
  // first box's cached hits.
  LogGrepEngine engine;
  const std::string box_a = engine.CompressBlock("alpha event 1\n");
  const std::string box_b = engine.CompressBlock("alpha other 2\nalpha more 3\n");
  auto a = engine.Query(box_a, "alpha");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->hits.size(), 1u);
  auto b = engine.Query(box_b, "alpha");
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(b->from_cache);
  EXPECT_EQ(b->hits.size(), 2u);
  // Re-querying each box hits its own cache entry.
  auto a2 = engine.Query(box_a, "alpha");
  ASSERT_TRUE(a2.ok());
  EXPECT_TRUE(a2->from_cache);
  EXPECT_EQ(a2->hits.size(), 1u);
}

TEST(EngineTest, CachedResultReportsNoFreshWork) {
  // Regression: a command-cache hit used to replay the stage costs of the
  // execution that produced it, so access logs and /metrics charged decode
  // work that never ran. A replay decodes nothing and must report nothing.
  LogGrepEngine engine;
  const std::string text =
      LogGenerator(*FindDataset("Log A")).Generate(24 * 1024);
  const std::string box = engine.CompressBlock(text);
  auto cold = engine.Query(box, "ERROR");
  ASSERT_TRUE(cold.ok());
  ASSERT_FALSE(cold->from_cache);
  ASSERT_GT(cold->locator.capsules_decompressed, 0u);
  ASSERT_GT(cold->locator.decompress_nanos, 0u);
  auto warm = engine.Query(box, "ERROR");
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(warm->from_cache);
  EXPECT_EQ(warm->hits, cold->hits);
  const LocatorStats& s = warm->locator;
  EXPECT_EQ(s.capsules_decompressed, 0u);
  EXPECT_EQ(s.bytes_decompressed, 0u);
  EXPECT_EQ(s.cache_hits, 0u);
  EXPECT_EQ(s.cache_misses, 0u);
  EXPECT_EQ(s.prune_nanos, 0u);
  EXPECT_EQ(s.open_nanos, 0u);
  EXPECT_EQ(s.stamp_filter_nanos, 0u);
  EXPECT_EQ(s.decompress_nanos, 0u);
  EXPECT_EQ(s.scan_nanos, 0u);
  EXPECT_EQ(s.reconstruct_nanos, 0u);
}

TEST(EngineTest, BoxCacheMakesSecondCommandCheaper) {
  // Two *different* commands over the same box: the second never misses the
  // command cache, but the shared box cache already holds the opened box and
  // the capsules the first command decompressed.
  LogGrepEngine engine;  // box cache on by default
  const std::string text =
      LogGenerator(*FindDataset("Log A")).Generate(24 * 1024);
  const std::string box = engine.CompressBlock(text);
  auto first = engine.Query(box, "ERROR");
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first->locator.cache_misses, 0u);
  auto second = engine.Query(box, "ERROR and aborted");
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->from_cache);
  EXPECT_GT(second->locator.cache_hits, 0u);
  EXPECT_GT(second->locator.bytes_saved, 0u);
  // Strictly fewer fresh bytes decompressed than a cold run of the same
  // command on a cache-less engine.
  EngineOptions cold_options;
  cold_options.use_cache = false;
  cold_options.use_box_cache = false;
  LogGrepEngine cold(cold_options);
  auto cold_run = cold.Query(box, "ERROR and aborted");
  ASSERT_TRUE(cold_run.ok());
  EXPECT_LT(second->locator.bytes_decompressed,
            cold_run->locator.bytes_decompressed);
  // And identical hits with caching on and off.
  ASSERT_EQ(second->hits.size(), cold_run->hits.size());
  for (size_t i = 0; i < cold_run->hits.size(); ++i) {
    EXPECT_EQ(second->hits[i].first, cold_run->hits[i].first);
    EXPECT_EQ(second->hits[i].second, cold_run->hits[i].second);
  }
}

// One registry shared by the metrics-asserting tests in this binary; each
// test Reset()s it at entry instead of constructing a throwaway registry
// (handles registered by earlier tests stay valid across the reset).
MetricsRegistry& SharedMetrics() {
  static MetricsRegistry registry;
  registry.Reset();
  return registry;
}

TEST(EngineTest, SharedBoxCacheAcrossEngines) {
  // Two engines wired to one external BoxCache: what one engine opens and
  // decompresses is warm for the other (the parallel Query arrangement).
  BoxCacheOptions cache_options;
  MetricsRegistry& metrics = SharedMetrics();
  cache_options.metrics = &metrics;
  BoxCache shared(cache_options);
  EngineOptions options;
  options.box_cache = &shared;
  options.use_cache = false;
  LogGrepEngine a(options);
  LogGrepEngine b(options);
  ASSERT_EQ(a.box_cache(), &shared);
  ASSERT_EQ(b.box_cache(), &shared);

  const std::string box = a.CompressBlock("shared entry nu 1\nother xi 2\n");
  auto first = a.Query(box, "nu");
  ASSERT_TRUE(first.ok());
  auto second = b.Query(box, "nu");
  ASSERT_TRUE(second.ok());
  EXPECT_GT(second->locator.cache_hits, 0u);
  ASSERT_EQ(second->hits.size(), first->hits.size());
  EXPECT_GT(metrics.GetOrCreate("query.box_cache.hits")->value(), 0u);
}

TEST(EngineTest, MetricsRegistryCollectsQueryCounters) {
  MetricsRegistry& metrics = SharedMetrics();
  EngineOptions options;
  options.metrics = &metrics;
  LogGrepEngine engine(options);
  const std::string box = engine.CompressBlock("metered entry pi 1\n");
  ASSERT_TRUE(engine.Query(box, "pi").ok());
  ASSERT_TRUE(engine.Query(box, "pi").ok());  // command-cache hit
  EXPECT_EQ(metrics.GetOrCreate("query.count")->value(), 1u);
  EXPECT_EQ(metrics.GetOrCreate("query.command_cache_hits")->value(), 1u);
}

TEST(EngineTest, CodecChoiceIsHonored) {
  EngineOptions opts;
  opts.codec = &GetZstdCodec();
  LogGrepEngine engine(opts);
  const std::string text =
      LogGenerator(*FindDataset("Log D")).Generate(32 * 1024);
  const std::string box = engine.CompressBlock(text);
  auto result = engine.Query(box, "project_id:");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->hits.empty());
}

TEST(EngineTest, AdversarialTextIsLossless) {
  // Lines with repeated separators, key=value chains, unicode-ish bytes, and
  // near-identical shapes.
  const std::string text = Lines({
      "a=1 b=2 c=3",
      "a=9 b=8 c=7",
      "  leading spaces  and   runs 5",
      "trailing space 6 ",
      "sep()[]{}\"'chars 7",
      "x:y:z:1",
      "x:y:z:2",
  });
  LogGrepEngine engine;
  const std::string box = engine.CompressBlock(text);
  auto all = engine.Query(box, "not zzzNOSUCH");
  ASSERT_TRUE(all.ok());
  const auto lines = SplitLines(text);
  ASSERT_EQ(all->hits.size(), lines.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(all->hits[i].second, lines[i]) << i;
  }
}

// Parameterized: every engine configuration is lossless on every dataset's
// sample (compact version of the integration sweep, at unit scale).
class EngineConfigTest : public ::testing::TestWithParam<int> {};

TEST_P(EngineConfigTest, LosslessOnLogA) {
  EngineOptions opts;
  switch (GetParam()) {
    case 0:
      break;
    case 1:
      opts.use_real = false;
      break;
    case 2:
      opts.use_nominal = false;
      break;
    case 3:
      opts.use_stamps = false;
      break;
    case 4:
      opts.use_fixed = false;
      break;
    case 5:
      opts.static_only = true;
      break;
    case 6:
      opts.codec = &GetGzipCodec();
      break;
    case 7:
      opts.codec = &GetZstdCodec();
      break;
  }
  const std::string text =
      LogGenerator(*FindDataset("Log A")).Generate(16 * 1024);
  LogGrepEngine engine(opts);
  const std::string box = engine.CompressBlock(text);
  auto all = engine.Query(box, "not zzzNOSUCH");
  ASSERT_TRUE(all.ok());
  const auto lines = SplitLines(text);
  ASSERT_EQ(all->hits.size(), lines.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    ASSERT_EQ(all->hits[i].second, lines[i]) << "config " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, EngineConfigTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace loggrep
