#include "src/ingest/log_ingestor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/metrics.h"
#include "src/parser/template_miner.h"  // SplitLines
#include "src/store/log_archive.h"
#include "src/workload/datasets.h"
#include "src/workload/loggen.h"

namespace loggrep {
namespace {

// ---- metrics registry ------------------------------------------------------

// One registry shared by the registry-focused tests below; Reset() between
// tests replaces the old throwaway-registry-per-test pattern and doubles as
// a check that reset cells stay usable through existing handles.
MetricsRegistry& SharedRegistry() {
  static MetricsRegistry registry;
  registry.Reset();
  return registry;
}

TEST(MetricsRegistryTest, CountersAccumulateAndSnapshot) {
  MetricsRegistry& registry = SharedRegistry();
  Counter* a = registry.GetOrCreate("a");
  Counter* also_a = registry.GetOrCreate("a");
  EXPECT_EQ(a, also_a);  // stable handles
  a->Add(40);
  a->Increment();
  a->Increment();
  registry.GetOrCreate("hwm")->UpdateMax(7);
  registry.GetOrCreate("hwm")->UpdateMax(3);  // lower candidate ignored
  const auto snap = registry.Snapshot();
  EXPECT_EQ(snap.at("a"), 42u);
  EXPECT_EQ(snap.at("hwm"), 7u);
}

TEST(MetricsRegistryTest, CountersAreThreadSafe) {
  MetricsRegistry& registry = SharedRegistry();
  Counter* c = registry.GetOrCreate("shared");
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < 10000; ++i) {
        c->Increment();
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(c->value(), 80000u);
}

// ---- ingestor --------------------------------------------------------------

class LogIngestorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("loggrep_ingest_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    std::filesystem::remove_all(dir_);
    std::filesystem::remove_all(dir_ + "_serial");
  }

  // Multi-dataset corpus with enough variety for selective queries.
  static std::string Corpus() {
    std::string corpus;
    for (const char* name : {"Hdfs", "Ssh", "Log G"}) {
      DatasetSpec spec = *FindDataset(name);
      spec.seed += 31;
      corpus += LogGenerator(spec).Generate(48 * 1024);
    }
    return corpus;
  }

  // Names of regular files currently in the archive dir.
  std::set<std::string> DirFiles() const {
    std::set<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      if (entry.is_regular_file()) {
        names.insert(entry.path().filename().string());
      }
    }
    return names;
  }

  std::string dir_;
};

TEST_F(LogIngestorTest, MatchesSerialAppendBlockHitForHit) {
  const std::string corpus = Corpus();

  // Pipelined: 4 workers, ~12 small blocks, streamed in 7 KiB chunks.
  IngestOptions options;
  options.target_block_bytes = corpus.size() / 12;
  options.num_workers = 4;
  options.max_in_flight_blocks = 4;
  auto ingestor = LogIngestor::Start(dir_, options);
  ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
  for (size_t off = 0; off < corpus.size(); off += 7 * 1024) {
    const size_t len = std::min<size_t>(7 * 1024, corpus.size() - off);
    ASSERT_TRUE((*ingestor)->Append({corpus.data() + off, len}).ok());
  }
  ASSERT_TRUE((*ingestor)->Finish().ok());
  ASSERT_GE((*ingestor)->archive().blocks().size(), 4u);

  // Serial reference: the whole corpus as one AppendBlock.
  auto serial = LogArchive::Create(dir_ + "_serial");
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(serial->AppendBlock(corpus).ok());

  auto pipelined = LogArchive::Open(dir_);  // reopen: exercises the manifest
  ASSERT_TRUE(pipelined.ok()) << pipelined.status().ToString();
  EXPECT_EQ(pipelined->total_lines(), serial->total_lines());
  EXPECT_EQ(pipelined->total_raw_bytes(), corpus.size());

  for (const std::string& query :
       {std::string("error and blk_884"), std::string("Received block"),
        std::string("Failed password"), std::string("Operation:ReadChunk"),
        std::string("zzzNOSUCH")}) {
    auto want = serial->Query(query);
    auto got = pipelined->Query(query);
    auto got_parallel = pipelined->Query(query, {.threads = 4});
    ASSERT_TRUE(want.ok()) << query;
    ASSERT_TRUE(got.ok()) << query;
    ASSERT_TRUE(got_parallel.ok()) << query;
    ASSERT_EQ(got->hits.size(), want->hits.size()) << query;
    for (size_t i = 0; i < want->hits.size(); ++i) {
      EXPECT_EQ(got->hits[i].first, want->hits[i].first) << query;
      EXPECT_EQ(got->hits[i].second, want->hits[i].second) << query;
    }
    // A parallel Query must agree hit-for-hit with serial Query too.
    ASSERT_EQ(got_parallel->hits.size(), got->hits.size()) << query;
    for (size_t i = 0; i < got->hits.size(); ++i) {
      EXPECT_EQ(got_parallel->hits[i].first, got->hits[i].first) << query;
      EXPECT_EQ(got_parallel->hits[i].second, got->hits[i].second) << query;
    }
  }
}

TEST_F(LogIngestorTest, CutsAreEntryAlignedAndExhaustive) {
  auto id = [](int i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "entry-%04d", i);  // fixed width: no
    return std::string(buf);                           // substring aliasing
  };
  std::string corpus;
  for (int i = 0; i < 2000; ++i) {
    corpus += id(i) + " payload alpha beta gamma\n";
  }
  IngestOptions options;
  options.target_block_bytes = 2048;  // many tiny blocks
  options.num_workers = 3;
  auto ingestor = LogIngestor::Start(dir_, options);
  ASSERT_TRUE(ingestor.ok());
  ASSERT_TRUE((*ingestor)->Append(corpus).ok());
  ASSERT_TRUE((*ingestor)->Finish().ok());

  LogArchive& archive = (*ingestor)->archive();
  EXPECT_GT(archive.blocks().size(), 10u);
  EXPECT_EQ(archive.total_raw_bytes(), corpus.size());
  EXPECT_EQ(archive.total_lines(), SplitLines(corpus).size());
  // No entry was torn across blocks: every entry is findable, intact.
  for (int i = 0; i < 2000; i += 97) {
    auto result = archive.Query(id(i));
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->hits.size(), 1u) << id(i);
    EXPECT_EQ(result->hits[0].first, static_cast<uint32_t>(i));
    EXPECT_EQ(result->hits[0].second, id(i) + " payload alpha beta gamma");
  }
}

TEST_F(LogIngestorTest, OversizedEntryGetsItsOwnBlock) {
  std::string corpus = "short line one\n";
  corpus += std::string(8 * 1024, 'x');  // entry far beyond the block target
  corpus += " end\nshort line two\n";
  IngestOptions options;
  options.target_block_bytes = 1024;
  options.num_workers = 2;
  auto ingestor = LogIngestor::Start(dir_, options);
  ASSERT_TRUE(ingestor.ok());
  // Feed in small chunks so the giant entry arrives incrementally.
  for (size_t off = 0; off < corpus.size(); off += 512) {
    const size_t len = std::min<size_t>(512, corpus.size() - off);
    ASSERT_TRUE((*ingestor)->Append({corpus.data() + off, len}).ok());
  }
  ASSERT_TRUE((*ingestor)->Finish().ok());
  EXPECT_EQ((*ingestor)->archive().total_lines(), 3u);
  EXPECT_EQ((*ingestor)->archive().total_raw_bytes(), corpus.size());
  auto result = (*ingestor)->archive().Query("two");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->hits.size(), 1u);
  EXPECT_EQ(result->hits[0].second, "short line two");
}

TEST_F(LogIngestorTest, BackpressureBoundsTheWindowAndMetricsAddUp) {
  const std::string corpus = Corpus();
  IngestOptions options;
  options.target_block_bytes = corpus.size() / 10;
  options.num_workers = 2;
  options.max_in_flight_blocks = 2;  // tight window: producer must stall
  auto ingestor = LogIngestor::Start(dir_, options);
  ASSERT_TRUE(ingestor.ok());
  ASSERT_TRUE((*ingestor)->Append(corpus).ok());
  ASSERT_TRUE((*ingestor)->Finish().ok());

  const IngestMetrics m = (*ingestor)->metrics();
  EXPECT_EQ(m.blocks_cut, m.blocks_committed);
  EXPECT_GE(m.blocks_committed, 8u);
  EXPECT_LE(m.queue_depth_hwm, 2u);  // the bounded window held
  EXPECT_GE(m.queue_depth_hwm, 1u);
  EXPECT_EQ(m.raw_bytes, corpus.size());
  EXPECT_EQ(m.lines, SplitLines(corpus).size());
  EXPECT_EQ(m.stored_bytes, (*ingestor)->archive().total_stored_bytes());
  EXPECT_GT(m.compress_seconds, 0.0);
  EXPECT_GE(m.wall_seconds, 0.0);
}

TEST_F(LogIngestorTest, EmptyAndFinishOnlyStreams) {
  auto ingestor = LogIngestor::Start(dir_, {});
  ASSERT_TRUE(ingestor.ok());
  ASSERT_TRUE((*ingestor)->Append("").ok());
  ASSERT_TRUE((*ingestor)->Finish().ok());
  EXPECT_EQ((*ingestor)->archive().blocks().size(), 0u);
  EXPECT_EQ((*ingestor)->metrics().blocks_committed, 0u);
  // Append after Finish is an error.
  EXPECT_FALSE((*ingestor)->Append("late\n").ok());
  // Finish is idempotent.
  EXPECT_TRUE((*ingestor)->Finish().ok());
}

TEST_F(LogIngestorTest, ResumesIntoAnExistingArchive) {
  {
    auto first = LogIngestor::Start(dir_, {});
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE((*first)->Append("first stream omega 1\n").ok());
    ASSERT_TRUE((*first)->Finish().ok());
  }
  {
    auto second = LogIngestor::Start(dir_, {});
    ASSERT_TRUE(second.ok());
    ASSERT_TRUE((*second)->Append("second stream omega 2\n").ok());
    ASSERT_TRUE((*second)->Finish().ok());
  }
  auto archive = LogArchive::Open(dir_);
  ASSERT_TRUE(archive.ok());
  EXPECT_EQ(archive->blocks().size(), 2u);
  auto result = archive->Query("omega");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->hits.size(), 2u);
  EXPECT_EQ(result->hits[0].first, 0u);
  EXPECT_EQ(result->hits[1].first, 1u);
}

// ---- fault injection -------------------------------------------------------

class IngestFaultTest : public LogIngestorTest,
                        public ::testing::WithParamInterface<CommitKillPoint> {
};

TEST_P(IngestFaultTest, CrashMidCommitRecoversConsistentPrefix) {
  const CommitKillPoint kill_at = GetParam();
  constexpr uint64_t kKillBlock = 2;  // die committing the third block

  std::string corpus;
  for (int i = 0; i < 400; ++i) {
    corpus += "faultline " + std::to_string(i) + " steady payload\n";
  }
  IngestOptions options;
  options.target_block_bytes = corpus.size() / 6;  // ~6 blocks
  options.num_workers = 4;
  auto commits = std::make_shared<std::atomic<uint64_t>>(0);
  options.kill_hook = [kill_at, commits](CommitKillPoint point) {
    if (point != kill_at) {
      return false;
    }
    return commits->fetch_add(1) == kKillBlock;  // counts commits at `kill_at`
  };
  auto ingestor = LogIngestor::Start(dir_, options);
  ASSERT_TRUE(ingestor.ok());
  Status stream = (*ingestor)->Append(corpus);
  Status finish = (*ingestor)->Finish();
  // The simulated crash must surface through Append or Finish.
  EXPECT_FALSE(stream.ok() && finish.ok()) << CommitKillPointName(kill_at);
  const IngestMetrics m = (*ingestor)->metrics();
  EXPECT_EQ(m.blocks_committed, kKillBlock) << CommitKillPointName(kill_at);

  // Recovery: reopen; the committed prefix survives, garbage is swept.
  auto reopened = LogArchive::Open(dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->blocks().size(), kKillBlock);
  const std::set<std::string> files = DirFiles();
  std::set<std::string> expected = {"archive.manifest"};
  for (uint64_t b = 0; b < kKillBlock; ++b) {
    expected.insert("block-" + std::to_string(b) + ".lgc");
  }
  EXPECT_EQ(files, expected) << CommitKillPointName(kill_at);

  // The prefix is fully queryable and line numbers are contiguous from 0.
  auto result = reopened->Query("faultline");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->hits.size(), reopened->total_lines());
  if (!result->hits.empty()) {
    EXPECT_EQ(result->hits.front().first, 0u);
  }

  // And ingestion can resume on the recovered archive.
  auto resumed = LogIngestor::Start(dir_, {});
  ASSERT_TRUE(resumed.ok());
  ASSERT_TRUE((*resumed)->Append("resumed entry after recovery\n").ok());
  ASSERT_TRUE((*resumed)->Finish().ok());
  EXPECT_EQ((*resumed)->archive().blocks().size(), kKillBlock + 1);
}

std::string KillPointLabel(
    const ::testing::TestParamInfo<CommitKillPoint>& info) {
  switch (info.param) {
    case CommitKillPoint::kBlockTmpWritten:
      return "BlockTmpWritten";
    case CommitKillPoint::kBlockRenamed:
      return "BlockRenamed";
    case CommitKillPoint::kManifestTmpWritten:
      return "ManifestTmpWritten";
  }
  return "Unknown";
}

INSTANTIATE_TEST_SUITE_P(
    AllKillPoints, IngestFaultTest,
    ::testing::Values(CommitKillPoint::kBlockTmpWritten,
                      CommitKillPoint::kBlockRenamed,
                      CommitKillPoint::kManifestTmpWritten),
    KillPointLabel);

}  // namespace
}  // namespace loggrep
