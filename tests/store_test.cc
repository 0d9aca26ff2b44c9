#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <string>

#include "src/common/bloom.h"
#include "src/common/rng.h"
#include "src/core/engine.h"
#include "src/query/line_match.h"
#include "src/query/query_parser.h"
#include "src/store/log_archive.h"
#include "src/workload/datasets.h"
#include "src/workload/loggen.h"

namespace loggrep {
namespace {

// ---- bloom filter ------------------------------------------------------------

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter bloom(1000, 10);
  std::vector<std::string> items;
  for (int i = 0; i < 1000; ++i) {
    items.push_back("item-" + std::to_string(i * 7919));
    bloom.Add(items.back());
  }
  for (const std::string& item : items) {
    EXPECT_TRUE(bloom.MayContain(item)) << item;
  }
}

TEST(BloomFilterTest, LowFalsePositiveRate) {
  BloomFilter bloom(2000, 10);
  for (int i = 0; i < 2000; ++i) {
    bloom.Add("present-" + std::to_string(i));
  }
  int false_positives = 0;
  for (int i = 0; i < 10000; ++i) {
    if (bloom.MayContain("absent-" + std::to_string(i))) {
      ++false_positives;
    }
  }
  // 10 bits/item gives ~1% theoretical; allow generous slack.
  EXPECT_LT(false_positives, 500);
  EXPECT_LT(bloom.FillRatio(), 0.7);
}

TEST(BloomFilterTest, SerializationRoundTrip) {
  BloomFilter bloom(100, 8);
  bloom.Add("alpha");
  bloom.Add("beta");
  ByteWriter w;
  bloom.WriteTo(w);
  ByteReader r(w.data());
  auto restored = BloomFilter::ReadFrom(r);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->MayContain("alpha"));
  EXPECT_TRUE(restored->MayContain("beta"));
  EXPECT_FALSE(restored->MayContain("gamma"));
}

TEST(BloomFilterTest, EmptyFilterFiltersNothing) {
  const BloomFilter bloom;
  EXPECT_TRUE(bloom.MayContain("anything"));
}

// ---- block pruning ----------------------------------------------------------------

bool MayMatch(const BlockInfo& block, std::string_view command,
              std::string* reason = nullptr) {
  auto expr = ParseQuery(command);
  EXPECT_TRUE(expr.ok()) << command;
  return BlockMayMatch(block, **expr, reason);
}

TEST(BlockMayMatchTest, ExpressionTable) {
  std::string text;
  for (int i = 0; i < 50; ++i) {
    text += "alpha service widget-" + std::to_string(i) + " ok\n";
  }
  const BlockInfo block = BuildBlockSummary(text);
  struct Case {
    const char* command;
    bool may_match;
  };
  const Case cases[] = {
      {"alpha widget", true},            // multi-keyword term
      {"alpha zqxvmiss", false},         //   one keyword absent
      {"alpha and service", true},       // AND
      {"alpha and zqxvmiss", false},     //   one side absent
      {"alpha or zqxvmiss", true},       // OR, one branch absent
      {"zqxvmiss or qwvzmiss", false},   // OR, both branches absent
      {"alpha not widget", true},        // binary NOT: only the left side
      {"alpha not zqxvmiss", true},
      {"zqxvmiss not alpha", false},
      {"not alpha", true},               // leading NOT always may match
      {"not zqxvmiss", true},
      {"wid*et", true},                  // wildcard keyword: stamp only
      {"WID*", false},                   //   uppercase absent from the stamp
      {"ok", true},                      // shorter than a shingle
      {"zq", true},                      //   admitted by the stamp alone
      {"ZQ", false},                     //   rejected by the stamp
      // Operators associate left to right.
      {"zqxvmiss or alpha and ok", true},
      {"alpha or zqxvmiss and qwvzmiss", false},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(MayMatch(block, c.command), c.may_match) << c.command;
  }

  // A pruned disjunction names the failing keyword of every branch.
  std::string reason;
  EXPECT_FALSE(MayMatch(block, "zqxvmiss or qwvzmiss", &reason));
  EXPECT_NE(reason.find("zqxvmiss"), std::string::npos) << reason;
  EXPECT_NE(reason.find("qwvzmiss"), std::string::npos) << reason;
}

// Soundness property: a pruned block never holds a line the reference
// matcher accepts, over seeded random blocks and random AND / OR / NOT
// expressions of present, fragment, wildcard and absent keywords.
TEST(BlockMayMatchTest, PrunedBlocksHoldNoHits) {
  static const char* const kVocab[] = {
      "alpha",  "bravo", "charlie", "delta", "echo",   "foxtrot",
      "golf",   "hotel", "india",   "juliet", "kilo",  "lima",
      "ERROR",  "WARN",  "id-1234", "k=v9",  "0xbeef", "or",
  };
  constexpr size_t kVocabSize = sizeof(kVocab) / sizeof(kVocab[0]);
  Rng rng(20231);
  LineMatcher matcher;
  size_t pruned = 0;
  size_t checked = 0;
  for (int b = 0; b < 40; ++b) {
    // Each block draws from a random third of the vocabulary.
    std::vector<std::string> words;
    for (size_t w = 0; w < kVocabSize; ++w) {
      if (rng.NextBelow(3) == 0) {
        words.push_back(kVocab[w]);
      }
    }
    if (words.empty()) {
      words.push_back(kVocab[0]);
    }
    std::vector<std::string> lines;
    std::string text;
    for (int l = 0; l < 30; ++l) {
      std::string line;
      const int tokens = 2 + static_cast<int>(rng.NextBelow(4));
      for (int t = 0; t < tokens; ++t) {
        line += (t > 0 ? " " : "") + words[rng.NextBelow(words.size())];
      }
      lines.push_back(line);
      text += line + "\n";
    }
    const BlockInfo block = BuildBlockSummary(text);

    const auto keyword = [&]() -> std::string {
      std::string w = kVocab[rng.NextBelow(kVocabSize)];
      switch (rng.NextBelow(5)) {
        case 0: {  // fragment
          const size_t begin = rng.NextBelow(w.size());
          w = w.substr(begin, 1 + rng.NextBelow(w.size() - begin));
          break;
        }
        case 1:  // wildcard
          w = w.substr(0, 1 + rng.NextBelow(w.size())) + "*";
          break;
        case 2:  // absent
          w = "zq" + w;
          break;
        default:
          break;
      }
      // Keywords that would parse as operators are quoted.
      std::string low = w;
      for (char& c : low) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      const bool op = low == "and" || low == "or" || low == "not";
      return op ? "\"" + w + "\"" : w;
    };
    for (int q = 0; q < 60; ++q) {
      std::string command = rng.NextBelow(6) == 0 ? "not " : "";
      command += keyword();
      const int ops = static_cast<int>(rng.NextBelow(4));
      for (int o = 0; o < ops; ++o) {
        static const char* const kOps[] = {" and ", " or ", " not ", " "};
        command += kOps[rng.NextBelow(4)] + keyword();
      }
      auto expr = ParseQuery(command);
      ASSERT_TRUE(expr.ok()) << command;
      ++checked;
      if (BlockMayMatch(block, **expr)) {
        continue;
      }
      ++pruned;
      for (const std::string& line : lines) {
        ASSERT_FALSE(matcher.MatchesQuery(line, **expr))
            << "pruned block holds a hit: command=" << command
            << " line=" << line;
      }
    }
  }
  // The property must not hold vacuously.
  EXPECT_GT(pruned, checked / 10) << pruned << " of " << checked;
}

// ---- archive ----------------------------------------------------------------------

class LogArchiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("loggrep_archive_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(LogArchiveTest, CreateAppendQuery) {
  auto archive = LogArchive::Create(dir_);
  ASSERT_TRUE(archive.ok()) << archive.status().ToString();
  ASSERT_TRUE(archive->AppendBlock("first block alpha 1\nsecond line beta 2\n").ok());
  ASSERT_TRUE(archive->AppendBlock("third line alpha 3\nfourth line gamma 4\n").ok());
  EXPECT_EQ(archive->blocks().size(), 2u);
  EXPECT_EQ(archive->total_lines(), 4u);

  auto result = archive->Query("alpha");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->hits.size(), 2u);
  EXPECT_EQ(result->hits[0].first, 0u);  // global line numbers
  EXPECT_EQ(result->hits[0].second, "first block alpha 1");
  EXPECT_EQ(result->hits[1].first, 2u);
  EXPECT_EQ(result->hits[1].second, "third line alpha 3");
}

TEST_F(LogArchiveTest, ReopenPreservesEverything) {
  {
    auto archive = LogArchive::Create(dir_);
    ASSERT_TRUE(archive.ok());
    ASSERT_TRUE(archive->AppendBlock("persistent entry omega 9\n").ok());
  }
  auto reopened = LogArchive::Open(dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->blocks().size(), 1u);
  auto result = reopened->Query("omega");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->hits.size(), 1u);
  EXPECT_EQ(result->hits[0].second, "persistent entry omega 9");
}

TEST_F(LogArchiveTest, BlockPruningIsSoundAndEffective) {
  auto archive = LogArchive::Create(dir_);
  ASSERT_TRUE(archive.ok());
  // Ten blocks; the needle appears only in block 7.
  for (int b = 0; b < 10; ++b) {
    std::string text;
    for (int i = 0; i < 50; ++i) {
      text += "svc request " + std::to_string(b * 100 + i) + " handled ok\n";
    }
    if (b == 7) {
      text += "svc request 999 FAILED uniqueneedletoken here\n";
    }
    ASSERT_TRUE(archive->AppendBlock(text).ok());
  }
  auto result = archive->Query("uniqueneedletoken");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->hits.size(), 1u);
  EXPECT_EQ(result->hits[0].second,
            "svc request 999 FAILED uniqueneedletoken here");
  // Bloom pruning should have skipped (almost) all other blocks.
  EXPECT_GE(result->blocks_pruned, 8u);
  EXPECT_LE(result->blocks_queried, 2u);
}

TEST_F(LogArchiveTest, PruningNeverDropsMatches) {
  auto archive = LogArchive::Create(dir_);
  ASSERT_TRUE(archive.ok());
  const DatasetSpec* spec = FindDataset("Hdfs");
  std::vector<std::string> texts;
  DatasetSpec varied = *spec;
  for (int b = 0; b < 4; ++b) {
    varied.seed = spec->seed + b;
    texts.push_back(LogGenerator(varied).Generate(8 * 1024));
    ASSERT_TRUE(archive->AppendBlock(texts.back()).ok());
  }
  // Compare against querying every block through a fresh engine.
  for (const std::string& query :
       {std::string("error and blk_884"), std::string("Received block"),
        std::string("zzzNOSUCH")}) {
    auto got = archive->Query(query);
    ASSERT_TRUE(got.ok());
    size_t expected = 0;
    LogGrepEngine engine;
    for (const std::string& text : texts) {
      auto r = engine.Query(engine.CompressBlock(text), query);
      ASSERT_TRUE(r.ok());
      expected += r->hits.size();
    }
    EXPECT_EQ(got->hits.size(), expected) << query;
  }
}

TEST_F(LogArchiveTest, WildcardAndShortKeywordsBypassBloom) {
  auto archive = LogArchive::Create(dir_);
  ASSERT_TRUE(archive.ok());
  ASSERT_TRUE(archive->AppendBlock("status az9 fine 1\n").ok());
  // 3-char keyword: below shingle length, must still match via stamp path.
  auto short_kw = archive->Query("az9");
  ASSERT_TRUE(short_kw.ok());
  EXPECT_EQ(short_kw->hits.size(), 1u);
  // Wildcard keyword.
  auto wild = archive->Query("a?9");
  ASSERT_TRUE(wild.ok());
  EXPECT_EQ(wild->hits.size(), 1u);
}

TEST_F(LogArchiveTest, ParallelQueryMatchesSerial) {
  auto archive = LogArchive::Create(dir_);
  ASSERT_TRUE(archive.ok());
  DatasetSpec spec = *FindDataset("Ssh");
  for (int b = 0; b < 6; ++b) {
    spec.seed += 17;
    ASSERT_TRUE(archive->AppendBlock(LogGenerator(spec).Generate(16 * 1024)).ok());
  }
  for (const std::string& query :
       {std::string("Failed password and 183.62.140.253"),
        std::string("sshd not preauth"), std::string("zzzNOSUCH")}) {
    auto serial = archive->Query(query);
    auto parallel = archive->Query(query, {.threads = 4});
    ASSERT_TRUE(serial.ok()) << query;
    ASSERT_TRUE(parallel.ok()) << query;
    ASSERT_EQ(serial->hits.size(), parallel->hits.size()) << query;
    for (size_t i = 0; i < serial->hits.size(); ++i) {
      EXPECT_EQ(serial->hits[i].first, parallel->hits[i].first);
      EXPECT_EQ(serial->hits[i].second, parallel->hits[i].second);
    }
    EXPECT_EQ(serial->blocks_pruned, parallel->blocks_pruned);
  }
}

TEST_F(LogArchiveTest, CreateTwiceFails) {
  auto first = LogArchive::Create(dir_);
  ASSERT_TRUE(first.ok());
  auto second = LogArchive::Create(dir_);
  EXPECT_FALSE(second.ok());
}

TEST_F(LogArchiveTest, OpenMissingFails) {
  auto missing = LogArchive::Open(dir_ + "_nope");
  EXPECT_FALSE(missing.ok());
}

TEST_F(LogArchiveTest, EmptyArchiveQueries) {
  auto archive = LogArchive::Create(dir_);
  ASSERT_TRUE(archive.ok());
  auto result = archive->Query("anything");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->hits.empty());
  EXPECT_EQ(result->blocks_queried, 0u);
}

// ---- crash safety / recovery ------------------------------------------------

TEST_F(LogArchiveTest, OpenDropsTrailingEntriesWithMissingBlocks) {
  {
    auto archive = LogArchive::Create(dir_);
    ASSERT_TRUE(archive.ok());
    for (int b = 0; b < 3; ++b) {
      ASSERT_TRUE(
          archive->AppendBlock("block " + std::to_string(b) + " data\n").ok());
    }
  }
  // Simulate a lost tail: the last block file vanishes, manifest keeps it.
  ASSERT_TRUE(std::filesystem::remove(dir_ + "/block-2.lgc"));
  auto recovered = LogArchive::Open(dir_);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->blocks().size(), 2u);
  auto result = recovered->Query("data");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->hits.size(), 2u);  // no late failure at query time
  // The truncation was persisted: a second Open agrees without repair.
  auto again = LogArchive::Open(dir_);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->blocks().size(), 2u);
}

TEST_F(LogArchiveTest, OpenRejectsInteriorHole) {
  {
    auto archive = LogArchive::Create(dir_);
    ASSERT_TRUE(archive.ok());
    for (int b = 0; b < 3; ++b) {
      ASSERT_TRUE(
          archive->AppendBlock("block " + std::to_string(b) + " data\n").ok());
    }
  }
  ASSERT_TRUE(std::filesystem::remove(dir_ + "/block-1.lgc"));
  auto opened = LogArchive::Open(dir_);
  EXPECT_FALSE(opened.ok());  // a hole is corruption, not a recoverable tail
}

TEST_F(LogArchiveTest, OpenSweepsTempAndOrphanFiles) {
  {
    auto archive = LogArchive::Create(dir_);
    ASSERT_TRUE(archive.ok());
    ASSERT_TRUE(archive->AppendBlock("kept entry sigma 1\n").ok());
  }
  // Droppings of a crashed commit: stray temps + an unreferenced block file.
  for (const char* name :
       {"archive.manifest.tmp", "block-5.lgc.tmp", "block-7.lgc"}) {
    std::ofstream(dir_ + "/" + name) << "garbage";
  }
  auto recovered = LogArchive::Open(dir_);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->blocks().size(), 1u);
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/archive.manifest.tmp"));
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/block-5.lgc.tmp"));
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/block-7.lgc"));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/block-0.lgc"));
  auto result = recovered->Query("sigma");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->hits.size(), 1u);
}

TEST_F(LogArchiveTest, CommitKillPointsLeaveOldStateVisible) {
  for (const CommitKillPoint point : {CommitKillPoint::kBlockTmpWritten,
                                      CommitKillPoint::kBlockRenamed,
                                      CommitKillPoint::kManifestTmpWritten}) {
    const std::string dir = dir_ + "_" + CommitKillPointName(point);
    std::filesystem::remove_all(dir);
    auto archive = LogArchive::Create(dir);
    ASSERT_TRUE(archive.ok());
    ASSERT_TRUE(archive->AppendBlock("survivor entry tau 1\n").ok());

    // A commit that dies at `point` must not disturb the committed state.
    const std::string text = "victim entry upsilon 2\n";
    BlockInfo info = BuildBlockSummary(text);
    LogGrepEngine engine;
    Status s = archive->CommitCompressedBlock(
        engine.CompressBlock(text), std::move(info),
        [point](CommitKillPoint at) { return at == point; });
    EXPECT_FALSE(s.ok()) << CommitKillPointName(point);
    EXPECT_EQ(archive->blocks().size(), 1u);  // in-memory state rolled back

    auto reopened = LogArchive::Open(dir);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(reopened->blocks().size(), 1u) << CommitKillPointName(point);
    auto result = reopened->Query("tau");
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->hits.size(), 1u);
    // No commit droppings survive recovery.
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      EXPECT_TRUE(name == "archive.manifest" || name == "block-0.lgc")
          << CommitKillPointName(point) << " left " << name;
    }
    std::filesystem::remove_all(dir);
  }
}

TEST_F(LogArchiveTest, ManifestWriteIsAtomicOnSerialAppend) {
  auto archive = LogArchive::Create(dir_);
  ASSERT_TRUE(archive.ok());
  ASSERT_TRUE(archive->AppendBlock("atomic entry phi 1\n").ok());
  // tmp+rename protocol: after a successful append no temp files remain.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
  }
}

// ---- 64-bit global line numbers (regression) -------------------------------

TEST_F(LogArchiveTest, GlobalLineNumbersPastFourBillionDoNotWrap) {
  // Regression: hits used to be narrowed through a uint32_t, so a block
  // starting past ~4 billion lines reported wrapped line numbers. A backfill
  // commit with a pre-set first_line simulates an archive that deep without
  // ingesting four billion entries.
  auto archive = LogArchive::Create(dir_);
  ASSERT_TRUE(archive.ok());
  ASSERT_TRUE(archive->AppendBlock("early entry kappa 0\n").ok());

  constexpr uint64_t kFarStart = (5ull << 32) + 123;  // > UINT32_MAX
  const std::string text = "deep entry kappa 1\nsecond deep entry lambda 2\n";
  BlockInfo info = BuildBlockSummary(text);
  info.first_line = kFarStart;
  LogGrepEngine engine;
  ASSERT_TRUE(
      archive->CommitCompressedBlock(engine.CompressBlock(text), std::move(info))
          .ok());
  ASSERT_EQ(archive->blocks().size(), 2u);
  EXPECT_EQ(archive->blocks()[1].first_line, kFarStart);

  for (const bool parallel : {false, true}) {
    auto result = parallel ? archive->Query("kappa", {.threads = 2})
                           : archive->Query("kappa");
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->hits.size(), 2u);
    EXPECT_EQ(result->hits[0].first, 0u);
    EXPECT_EQ(result->hits[1].first, kFarStart);
    EXPECT_EQ(result->hits[1].second, "deep entry kappa 1");
  }

  // The next contiguous commit continues after the sparse block.
  ASSERT_TRUE(archive->AppendBlock("after the gap lambda 3\n").ok());
  EXPECT_EQ(archive->blocks()[2].first_line, kFarStart + 2);
  auto after = archive->Query("lambda");
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->hits.size(), 2u);
  EXPECT_EQ(after->hits[1].first, kFarStart + 2);

  // And everything survives a manifest round trip.
  auto reopened = LogArchive::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  auto again = reopened->Query("kappa");
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->hits.size(), 2u);
  EXPECT_EQ(again->hits[1].first, kFarStart);
}

TEST_F(LogArchiveTest, PresetFirstLineBelowEndIsClampedContiguous) {
  auto archive = LogArchive::Create(dir_);
  ASSERT_TRUE(archive.ok());
  ASSERT_TRUE(archive->AppendBlock("one alpha\ntwo alpha\nthree alpha\n").ok());
  const std::string text = "four beta\n";
  BlockInfo info = BuildBlockSummary(text);
  info.first_line = 1;  // would overlap the first block; must be clamped
  LogGrepEngine engine;
  ASSERT_TRUE(
      archive->CommitCompressedBlock(engine.CompressBlock(text), std::move(info))
          .ok());
  EXPECT_EQ(archive->blocks()[1].first_line, 3u);
}

// ---- shared box cache across archive queries --------------------------------

TEST_F(LogArchiveTest, WarmQueriesSkipBlockFilesEntirely) {
  auto archive = LogArchive::Create(dir_);
  ASSERT_TRUE(archive.ok());
  ASSERT_TRUE(archive->AppendBlock("warm cache entry rho 1\nother sigma 2\n").ok());
  ASSERT_TRUE(archive->AppendBlock("warm cache entry rho 3\nother sigma 4\n").ok());

  auto cold = archive->Query("rho");
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(cold->hits.size(), 2u);
  EXPECT_GT(cold->locator.cache_misses, 0u);

  // Remove every block file: only the cache can serve the bytes now. A new
  // command (different command-cache key) must still succeed, warm.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() == ".lgc") {
      std::filesystem::remove(entry.path());
    }
  }
  auto warm = archive->Query("sigma");
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_EQ(warm->hits.size(), 2u);
  EXPECT_GT(warm->locator.cache_hits, 0u);
  EXPECT_GT(warm->locator.bytes_saved, 0u);
  // Parallel Query workers share the same cache and also never touch disk.
  auto parallel = archive->Query("sigma", {.threads = 2});
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(parallel->hits.size(), 2u);
}

TEST_F(LogArchiveTest, CacheDisabledArchiveStillAnswersCorrectly) {
  // A zero-budget box cache keeps nothing: every query opens its blocks from
  // storage (serial and parallel alike), so a block file lost between two
  // queries is reported as a hole by the very next one.
  ArchiveOptions options;
  options.engine.box_cache_budget_bytes = 0;
  options.engine.use_cache = false;  // no command-cache replays either
  auto archive = LogArchive::Create(dir_, options);
  ASSERT_TRUE(archive.ok());
  ASSERT_TRUE(archive->AppendBlock("plain entry chi 1\n").ok());
  ASSERT_TRUE(archive->AppendBlock("plain entry chi 2\n").ok());
  for (const size_t threads : {1, 1, 2}) {
    auto result = archive->Query("chi", {.threads = threads});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->hits.size(), 2u);
    EXPECT_EQ(result->hits[0].second, "plain entry chi 1");
    EXPECT_EQ(result->hits[1].second, "plain entry chi 2");
    EXPECT_EQ(result->blocks_queried, 2u);
    EXPECT_EQ(result->blocks_from_cache, 0u);
    EXPECT_EQ(result->locator.cache_hits, 0u);
    EXPECT_GT(result->locator.cache_misses, 0u);
    EXPECT_FALSE(result->partial.partial());
  }
  const BoxCacheStats stats = archive->engine().box_cache()->Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes_in_use, 0u);

  ASSERT_TRUE(std::filesystem::remove(dir_ + "/block-1.lgc"));
  auto holed = archive->Query("chi");
  ASSERT_TRUE(holed.ok()) << holed.status().ToString();
  ASSERT_EQ(holed->hits.size(), 1u);
  EXPECT_EQ(holed->hits[0].second, "plain entry chi 1");
  ASSERT_EQ(holed->partial.failures.size(), 1u);
  EXPECT_EQ(holed->partial.failures[0].seq, 1u);
}

TEST_F(LogArchiveTest, ParallelAndSerialAgreeOnDeterministicStats) {
  // Two identical archives, both cold: the parallel run must report exactly
  // the same hits AND the same deterministic locator counters as the serial
  // one (nanosecond timings are excluded — they are wall-clock).
  DatasetSpec spec = *FindDataset("Ssh");
  auto build = [&](const std::string& dir) {
    auto archive = LogArchive::Create(dir);
    EXPECT_TRUE(archive.ok());
    DatasetSpec s = spec;
    for (int b = 0; b < 5; ++b) {
      s.seed = spec.seed + 31 * b;
      EXPECT_TRUE(archive->AppendBlock(LogGenerator(s).Generate(16 * 1024)).ok());
    }
    return archive;
  };
  auto serial_archive = build(dir_ + "_serial");
  auto parallel_archive = build(dir_ + "_parallel");
  for (const std::string& query :
       {std::string("Failed password"), std::string("sshd and Accepted"),
        std::string("session or preauth")}) {
    auto serial = serial_archive->Query(query);
    auto parallel = parallel_archive->Query(query, {.threads = 4});
    ASSERT_TRUE(serial.ok()) << query;
    ASSERT_TRUE(parallel.ok()) << query;
    ASSERT_EQ(serial->hits, parallel->hits) << query;
    EXPECT_EQ(serial->blocks_pruned, parallel->blocks_pruned) << query;
    EXPECT_EQ(serial->blocks_queried, parallel->blocks_queried) << query;
    const LocatorStats& s = serial->locator;
    const LocatorStats& p = parallel->locator;
    EXPECT_EQ(s.capsules_decompressed, p.capsules_decompressed) << query;
    EXPECT_EQ(s.capsules_stamp_filtered, p.capsules_stamp_filtered) << query;
    EXPECT_EQ(s.bytes_decompressed, p.bytes_decompressed) << query;
    EXPECT_EQ(s.pattern_trivial_hits, p.pattern_trivial_hits) << query;
    EXPECT_EQ(s.possible_matches, p.possible_matches) << query;
    EXPECT_EQ(s.cache_hits, p.cache_hits) << query;
    EXPECT_EQ(s.cache_misses, p.cache_misses) << query;
  }
  std::filesystem::remove_all(dir_ + "_serial");
  std::filesystem::remove_all(dir_ + "_parallel");
}

}  // namespace
}  // namespace loggrep
