// Seeded chaos suite for the fault-tolerant storage layer: the diff-oracle
// correctness contract extended with injected storage faults.
//
// Three contracts, each checked hit-for-hit against the reference semantics
// (LineMatchesQuery over the raw lines kept in memory):
//
//   (a) zero faults        -> every mode returns exactly the reference hits
//                             and an empty PartialReport;
//   (b) transient faults   -> the retry policy converges: results are still
//                             *exactly* the reference (no degradation), in
//                             zero wall time thanks to the virtual clock;
//   (c) permanent faults   -> queries degrade to exactly the reference minus
//                             the sick blocks' lines, with a PartialReport
//                             naming each hole, and `repair` restores full
//                             results once the fault clears.
//
// Plus the write side: commit failures under a write storm (including torn
// writes) must never corrupt the archive — the old state stays fully
// queryable and no temp droppings survive a reopen.
//
// Seeds: pinned defaults, overridable via LOGGREP_CHAOS_SEEDS (comma list)
// and extendable via LOGGREP_CHAOS_EXTRA_SEED (CI passes a run-id-derived
// seed so every run explores fresh workloads).
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/query/line_match.h"
#include "src/query/query_parser.h"
#include "src/store/archive_set.h"
#include "src/store/fs_util.h"
#include "src/store/log_archive.h"
#include "src/store/quarantine.h"
#include "src/store/shard_router.h"
#include "src/store/storage_env.h"
#include "src/store/verify.h"
#include "src/workload/datasets.h"
#include "src/workload/loggen.h"
#include "src/workload/queries.h"

namespace loggrep {
namespace {

constexpr size_t kBlocks = 3;
constexpr size_t kLinesPerBlock = 160;

std::vector<uint64_t> ChaosSeeds() {
  std::vector<uint64_t> seeds;
  if (const char* env = std::getenv("LOGGREP_CHAOS_SEEDS")) {
    std::string spec(env);
    size_t pos = 0;
    while (pos < spec.size()) {
      size_t comma = spec.find(',', pos);
      if (comma == std::string::npos) comma = spec.size();
      const std::string token = spec.substr(pos, comma - pos);
      if (!token.empty()) {
        seeds.push_back(std::strtoull(token.c_str(), nullptr, 10));
      }
      pos = comma + 1;
    }
  }
  if (seeds.empty()) {
    seeds = {1, 42, 20260806};  // pinned defaults
  }
  if (const char* extra = std::getenv("LOGGREP_CHAOS_EXTRA_SEED")) {
    seeds.push_back(std::strtoull(extra, nullptr, 10));
  }
  return seeds;
}

std::vector<std::string> SplitIntoLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    lines.emplace_back(text, pos, nl - pos);
    pos = nl + 1;
  }
  return lines;
}

// One seeded workload: a dataset, per-block raw text + split lines, and the
// command suite to run. Fully determined by the seed.
struct ChaosWorkload {
  std::string dataset;
  std::vector<std::string> block_texts;
  std::vector<std::vector<std::string>> block_lines;
  std::vector<std::string> commands;
};

ChaosWorkload BuildWorkload(uint64_t seed) {
  ChaosWorkload w;
  Rng rng(seed);
  const std::vector<DatasetSpec>& catalog = AllDatasets();
  DatasetSpec spec = catalog[rng.NextBelow(catalog.size())];
  w.dataset = spec.name;
  for (size_t b = 0; b < kBlocks; ++b) {
    spec.seed = seed * 1000003 + b + 1;
    LogGenerator gen(spec);
    w.block_texts.push_back(gen.GenerateLines(kLinesPerBlock));
    w.block_lines.push_back(SplitIntoLines(w.block_texts.back()));
    EXPECT_EQ(w.block_lines.back().size(), kLinesPerBlock);
  }
  w.commands = QuerySuiteForDataset(w.dataset);
  EXPECT_FALSE(w.commands.empty()) << w.dataset;
  return w;
}

// A keyword guaranteed to hit at least one line of block `b` (and therefore
// never block-pruned there): the longest alphanumeric run in the block's
// first line. Used to force the degraded path to actually touch sick blocks.
std::string AnchorKeyword(const ChaosWorkload& w, size_t b) {
  const std::string& line = w.block_lines[b].front();
  std::string best;
  std::string cur;
  for (char c : line) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      cur.push_back(c);
    } else {
      if (cur.size() > best.size()) best = cur;
      cur.clear();
    }
  }
  if (cur.size() > best.size()) best = cur;
  EXPECT_GE(best.size(), 2u) << "degenerate first line: " << line;
  return best;
}

// Reference semantics: LineMatchesQuery over the raw lines, skipping the
// blocks in `excluded` (global line numbers are contiguous across blocks).
QueryHits ReferenceHits(const ChaosWorkload& w, const std::string& command,
                        const std::set<uint32_t>& excluded = {}) {
  Result<std::unique_ptr<QueryExpr>> expr = ParseQuery(command);
  EXPECT_TRUE(expr.ok()) << command << ": " << expr.status().ToString();
  QueryHits hits;
  uint64_t global = 0;
  for (uint32_t b = 0; b < w.block_lines.size(); ++b) {
    for (const std::string& line : w.block_lines[b]) {
      if (excluded.count(b) == 0 && LineMatchesQuery(line, **expr)) {
        hits.emplace_back(global, line);
      }
      ++global;
    }
  }
  return hits;
}

QueryHits Sorted(QueryHits hits) {
  std::sort(hits.begin(), hits.end());
  return hits;
}

// Hit-for-hit comparison with a readable first-divergence message.
void ExpectHitsEqual(const QueryHits& expected, const QueryHits& actual,
                     const std::string& label) {
  const QueryHits e = Sorted(expected);
  const QueryHits a = Sorted(actual);
  ASSERT_EQ(e.size(), a.size()) << label << ": hit count diverges";
  for (size_t i = 0; i < e.size(); ++i) {
    ASSERT_EQ(e[i].first, a[i].first)
        << label << ": hit " << i << " line number diverges";
    ASSERT_EQ(e[i].second, a[i].second)
        << label << ": line " << e[i].first << " text diverges";
  }
}

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("loggrep_chaos_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Builds the archive on the real filesystem (no faults during setup).
  void BuildArchive(const ChaosWorkload& w, ArchiveOptions options = {}) {
    std::filesystem::remove_all(dir_);
    Result<LogArchive> archive = LogArchive::Create(dir_, options);
    ASSERT_TRUE(archive.ok()) << archive.status().ToString();
    for (const std::string& text : w.block_texts) {
      ASSERT_TRUE(archive->AppendBlock(text).ok());
    }
  }

  std::string BlockFile(uint32_t seq) const {
    return dir_ + "/block-" + std::to_string(seq) + ".lgc";
  }

  bool HasTempDroppings() const {
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      const std::string name = entry.path().filename().string();
      if (name.size() >= 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
        return true;
      }
    }
    return false;
  }

  std::string dir_;
};

// ---------------------------------------------------------------------------
// Contract (a): zero faults — every mode is hit-for-hit with the reference.
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, ZeroFaultRunsMatchTheReferenceHitForHit) {
  for (uint64_t seed : ChaosSeeds()) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const ChaosWorkload w = BuildWorkload(seed);
    BuildArchive(w);

    Result<LogArchive> archive = LogArchive::Open(dir_);
    ASSERT_TRUE(archive.ok()) << archive.status().ToString();
    EXPECT_TRUE(archive->quarantine().empty());

    for (const std::string& command : w.commands) {
      const QueryHits expected = ReferenceHits(w, command);
      // Cold (first run), warm (second run, BoxCache hot), parallel, explain.
      for (int run = 0; run < 2; ++run) {
        Result<ArchiveQueryResult> r = archive->Query(command);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_FALSE(r->partial.partial()) << r->partial.Render();
        ExpectHitsEqual(expected, r->hits,
                        command + (run == 0 ? " [cold]" : " [warm]"));
      }
      Result<ArchiveQueryResult> par =
          archive->Query(command, {.threads = 3});
      ASSERT_TRUE(par.ok()) << par.status().ToString();
      EXPECT_FALSE(par->partial.partial());
      ExpectHitsEqual(expected, par->hits, command + " [parallel]");

      QueryExplain explain;
      Result<ArchiveQueryResult> ex = archive->Query(command, {}, &explain);
      ASSERT_TRUE(ex.ok()) << ex.status().ToString();
      EXPECT_FALSE(ex->partial.partial());
      ExpectHitsEqual(expected, ex->hits, command + " [explain]");
      for (const BlockExplain& be : explain.blocks) {
        EXPECT_FALSE(be.block_failed);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Contract (b): transient faults — retries converge to the exact reference.
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, TransientFaultStormsConvergeToTheReferenceViaRetries) {
  for (uint64_t seed : ChaosSeeds()) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const ChaosWorkload w = BuildWorkload(seed);
    BuildArchive(w);

    MetricsRegistry metrics;
    FaultOptions fopts;
    fopts.seed = seed;
    fopts.read_fail_p = 0.6;
    // The cap makes every probabilistic storm transient: strictly fewer
    // faults per path than the retry policy has attempts.
    fopts.max_faults_per_path = 2;
    fopts.metrics = &metrics;
    FaultInjectingStorageEnv fault(fopts);

    ArchiveOptions opts;
    opts.env = &fault;
    opts.metrics = &metrics;
    opts.retry.max_attempts = 5;
    // Force a real read per block per query.
    opts.engine.box_cache_budget_bytes = 0;

    // Open's manifest read is not retried; the per-path cap guarantees the
    // third attempt cannot fault.
    Result<LogArchive> archive = LogArchive::Open(dir_, opts);
    for (int i = 0; i < 2 && !archive.ok(); ++i) {
      archive = LogArchive::Open(dir_, opts);
    }
    ASSERT_TRUE(archive.ok()) << archive.status().ToString();

    // Deterministic warm-up storm: the next two reads fail no matter what
    // the dice say, against a query that provably cannot prune every block
    // (its keyword anchors in block 0), so at least one block read retries.
    fault.FailNext(StorageOp::kRead, 2, StatusCode::kUnavailable);
    const std::string anchor = AnchorKeyword(w, 0);
    Result<ArchiveQueryResult> forced = archive->Query(anchor);
    ASSERT_TRUE(forced.ok()) << forced.status().ToString();
    EXPECT_FALSE(forced->partial.partial())
        << "transient faults must never degrade: " << forced->partial.Render();
    ExpectHitsEqual(ReferenceHits(w, anchor), forced->hits,
                    anchor + " [forced storm]");
    EXPECT_GT(metrics.GetOrCreate("storage.retry.retries")->value(), 0u);

    for (const std::string& command : w.commands) {
      const QueryHits expected = ReferenceHits(w, command);
      Result<ArchiveQueryResult> r = archive->Query(command);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_FALSE(r->partial.partial())
          << "transient faults must never degrade: " << r->partial.Render();
      ExpectHitsEqual(expected, r->hits, command + " [transient storm]");

      Result<ArchiveQueryResult> par =
          archive->Query(command, {.threads = 3});
      ASSERT_TRUE(par.ok()) << par.status().ToString();
      EXPECT_FALSE(par->partial.partial());
      ExpectHitsEqual(expected, par->hits,
                      command + " [transient storm, parallel]");
    }

    EXPECT_GT(fault.faults_injected(), 0u) << "the storm never fired";
    EXPECT_GT(metrics.GetOrCreate("storage.retry.retries")->value(), 0u);
    EXPECT_GT(
        metrics.GetOrCreate("storage.retry.success_after_retry")->value(), 0u);
    EXPECT_TRUE(archive->quarantine().empty())
        << "transient faults must not quarantine anything";
  }
}

// ---------------------------------------------------------------------------
// Contract (c): permanent faults — degrade to exactly the healthy blocks,
// report the holes, and self-heal via repair once the fault clears.
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, PermanentFaultsDegradeToExactlyTheHealthyBlocksThenRepair) {
  for (uint64_t seed : ChaosSeeds()) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const ChaosWorkload w = BuildWorkload(seed);
    BuildArchive(w);

    constexpr uint32_t kSickSeq = 1;  // interior block
    MetricsRegistry metrics;
    FaultOptions fopts;
    fopts.seed = seed;
    fopts.metrics = &metrics;
    FaultInjectingStorageEnv fault(fopts);
    fault.AddPermanentFault("block-1.lgc", StatusCode::kIOError);

    ArchiveOptions opts;
    opts.env = &fault;
    opts.metrics = &metrics;
    opts.retry.max_attempts = 2;  // permanent: retries cannot help
    // Cold reads: nothing masks the fault.
    opts.engine.box_cache_budget_bytes = 0;

    Result<LogArchive> archive = LogArchive::Open(dir_, opts);
    ASSERT_TRUE(archive.ok()) << archive.status().ToString();

    // An anchor keyword from the sick block guarantees the query actually
    // needs it (block pruning cannot excuse it).
    const std::string anchor = AnchorKeyword(w, kSickSeq);
    const QueryHits anchor_expected =
        ReferenceHits(w, anchor, {kSickSeq});
    Result<ArchiveQueryResult> first = archive->Query(anchor);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_TRUE(first->partial.partial());
    ASSERT_EQ(first->partial.failures.size(), 1u);
    const BlockQueryFailure& failure = first->partial.failures[0];
    EXPECT_EQ(failure.seq, kSickSeq);
    EXPECT_EQ(failure.first_line, kLinesPerBlock);  // global hole start
    EXPECT_EQ(failure.line_count, kLinesPerBlock);
    EXPECT_TRUE(failure.newly_quarantined);
    EXPECT_FALSE(failure.tombstoned);
    EXPECT_EQ(first->partial.lines_missing(), kLinesPerBlock);
    ExpectHitsEqual(anchor_expected, first->hits, anchor + " [degraded]");

    // The sidecar persisted and the block is now a standing hole: later
    // queries skip it without re-paying the retry storm.
    EXPECT_TRUE(std::filesystem::exists(dir_ + "/quarantine.json"));
    ASSERT_NE(archive->quarantine().Find(kSickSeq), nullptr);

    for (const std::string& command : w.commands) {
      const QueryHits expected = ReferenceHits(w, command, {kSickSeq});
      Result<ArchiveQueryResult> r = archive->Query(command);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ExpectHitsEqual(expected, r->hits, command + " [standing hole]");
      for (const BlockQueryFailure& f : r->partial.failures) {
        EXPECT_EQ(f.seq, kSickSeq);
        EXPECT_FALSE(f.newly_quarantined) << "hole re-discovered, not skipped";
      }
      Result<ArchiveQueryResult> par =
          archive->Query(command, {.threads = 3});
      ASSERT_TRUE(par.ok()) << par.status().ToString();
      ExpectHitsEqual(expected, par->hits,
                      command + " [standing hole, parallel]");
    }

    // Explain names the hole.
    QueryExplain explain;
    Result<ArchiveQueryResult> ex = archive->Query(anchor, {}, &explain);
    ASSERT_TRUE(ex.ok());
    bool saw_failed = false;
    for (const BlockExplain& be : explain.blocks) {
      if (be.seq == kSickSeq) {
        saw_failed = be.block_failed;
        EXPECT_FALSE(be.failure.empty());
      }
    }
    EXPECT_TRUE(saw_failed);

    // Self-healing: the backend recovers, repair re-verifies the block
    // against the manifest hashes and reinstates it.
    fault.ClearPermanentFaults();
    RepairReport repair = RepairArchive(dir_);
    ASSERT_TRUE(repair.ok()) << repair.Summary();
    EXPECT_EQ(repair.reinstated, 1u) << repair.Summary();
    EXPECT_EQ(repair.tombstoned, 0u);

    ASSERT_TRUE(archive->ReloadQuarantine().ok());
    EXPECT_TRUE(archive->quarantine().empty());
    for (const std::string& command : w.commands) {
      Result<ArchiveQueryResult> r = archive->Query(command);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_FALSE(r->partial.partial()) << r->partial.Render();
      ExpectHitsEqual(ReferenceHits(w, command), r->hits,
                      command + " [healed]");
    }
  }
}

TEST_F(ChaosTest, MissingBlockFileIsQuarantinedThenTombstonedThenRestored) {
  const uint64_t seed = ChaosSeeds().front();
  const ChaosWorkload w = BuildWorkload(seed);
  BuildArchive(w);

  constexpr uint32_t kSickSeq = 1;
  const std::string sick_path = BlockFile(kSickSeq);
  Result<std::string> saved = ReadFileBytes(sick_path);
  ASSERT_TRUE(saved.ok());

  ArchiveOptions opts;
  opts.engine.box_cache_budget_bytes = 0;
  Result<LogArchive> archive = LogArchive::Open(dir_, opts);
  ASSERT_TRUE(archive.ok()) << archive.status().ToString();

  // The file vanishes under a live archive (operator error, partial
  // restore). NOT_FOUND is deterministic: no retry storm, straight to
  // quarantine.
  ASSERT_TRUE(std::filesystem::remove(sick_path));
  const std::string anchor = AnchorKeyword(w, kSickSeq);
  Result<ArchiveQueryResult> degraded = archive->Query(anchor);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  ASSERT_TRUE(degraded->partial.partial());
  EXPECT_EQ(degraded->partial.failures[0].seq, kSickSeq);
  ExpectHitsEqual(ReferenceHits(w, anchor, {kSickSeq}), degraded->hits,
                  anchor + " [file gone]");

  // Repair cannot read the file either: the hole is accepted as a tombstone.
  RepairReport repair = RepairArchive(dir_);
  ASSERT_TRUE(repair.ok()) << repair.Summary();
  EXPECT_EQ(repair.tombstoned, 1u) << repair.Summary();
  EXPECT_EQ(repair.reinstated, 0u);

  // Reopening the archive with an interior hole must succeed — the
  // quarantine excuses it — and queries keep reporting the tombstone.
  Result<LogArchive> reopened = LogArchive::Open(dir_, opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_NE(reopened->quarantine().Find(kSickSeq), nullptr);
  EXPECT_TRUE(reopened->quarantine().Find(kSickSeq)->tombstoned);
  Result<ArchiveQueryResult> after = reopened->Query(anchor);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_TRUE(after->partial.partial());
  EXPECT_TRUE(after->partial.failures[0].tombstoned);
  ExpectHitsEqual(ReferenceHits(w, anchor, {kSickSeq}), after->hits,
                  anchor + " [tombstoned]");

  // The operator restores the file from backup; repair reinstates even a
  // tombstoned block once it verifies again.
  ASSERT_TRUE(WriteFileAtomic(sick_path, *saved).ok());
  RepairReport second = RepairArchive(dir_);
  ASSERT_TRUE(second.ok()) << second.Summary();
  EXPECT_EQ(second.reinstated, 1u) << second.Summary();
  ASSERT_TRUE(reopened->ReloadQuarantine().ok());
  Result<ArchiveQueryResult> healed = reopened->Query(anchor);
  ASSERT_TRUE(healed.ok());
  EXPECT_FALSE(healed->partial.partial());
  ExpectHitsEqual(ReferenceHits(w, anchor), healed->hits,
                  anchor + " [restored]");
}

// ---------------------------------------------------------------------------
// Write-side chaos: commits that fail mid-protocol never corrupt the
// archive, torn writes never reach a committed name.
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, CommitFailuresUnderWriteStormLeaveTheOldStateQueryable) {
  const uint64_t seed = ChaosSeeds().front();
  const ChaosWorkload w = BuildWorkload(seed);

  // Commit only the first two blocks; the third will be attempted under
  // various storms.
  std::filesystem::remove_all(dir_);
  {
    Result<LogArchive> setup = LogArchive::Create(dir_);
    ASSERT_TRUE(setup.ok());
    ASSERT_TRUE(setup->AppendBlock(w.block_texts[0]).ok());
    ASSERT_TRUE(setup->AppendBlock(w.block_texts[1]).ok());
  }
  ChaosWorkload committed = w;
  committed.block_texts.resize(2);
  committed.block_lines.resize(2);

  FaultInjectingStorageEnv fault(FaultOptions{.seed = seed});
  ArchiveOptions opts;
  opts.env = &fault;
  opts.retry.max_attempts = 2;  // commit-path ops get exactly one retry
  Result<LogArchive> archive = LogArchive::Open(dir_, opts);
  ASSERT_TRUE(archive.ok()) << archive.status().ToString();

  // One *exhausting* storm per protocol step (both attempts fail): block
  // write, block fsync, block rename, manifest write. Each must fail cleanly
  // and leave the archive at two blocks.
  const auto exhaust = [&fault](StorageOp op, uint32_t first_future_call) {
    fault.FailNth(op, first_future_call, StatusCode::kIOError);
    fault.FailNth(op, first_future_call + 1, StatusCode::kIOError);
  };
  const std::pair<StorageOp, uint32_t> storms[] = {
      {StorageOp::kWrite, 1},     // block tmp write (attempt + retry) fails
      {StorageOp::kSyncFile, 1},  // block tmp fsync fails
      {StorageOp::kRename, 1},    // block rename fails
      {StorageOp::kWrite, 2},     // manifest tmp write fails (2nd write site)
  };
  for (const auto& [op, nth] : storms) {
    exhaust(op, nth);
    Status s = archive->AppendBlock(w.block_texts[2]);
    EXPECT_FALSE(s.ok()) << "storm on " << StorageOpName(op);
    EXPECT_EQ(archive->blocks().size(), 2u);
  }

  // A *transient* commit fault (one failure, one retry left) converges: the
  // append succeeds and the block is durable.
  fault.FailNext(StorageOp::kWrite, 1, StatusCode::kUnavailable);
  ASSERT_TRUE(archive->AppendBlock(w.block_texts[2]).ok());
  ASSERT_EQ(archive->blocks().size(), 3u);
  // Roll the archive back to two blocks for the torn-write storm below.
  {
    std::filesystem::remove(BlockFile(2));
    Result<LogArchive> rollback = LogArchive::Open(dir_);
    ASSERT_TRUE(rollback.ok());  // trailing missing block dropped + swept
    ASSERT_EQ(rollback->blocks().size(), 2u);
  }

  // Torn write: a seeded prefix of the block lands in the temp before the
  // failure. The torn bytes must never reach a committed name.
  FaultOptions torn_opts;
  torn_opts.seed = seed;
  torn_opts.write_fail_p = 1.0;
  torn_opts.torn_write_p = 1.0;
  FaultInjectingStorageEnv torn(torn_opts);
  ArchiveOptions torn_archive_opts;
  torn_archive_opts.env = &torn;
  {
    Result<LogArchive> under_torn = LogArchive::Open(dir_, torn_archive_opts);
    ASSERT_TRUE(under_torn.ok()) << under_torn.status().ToString();
    Status s = under_torn->AppendBlock(w.block_texts[2]);
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(under_torn->blocks().size(), 2u);
  }
  EXPECT_FALSE(std::filesystem::exists(BlockFile(2)));

  // After all that violence: reopen clean, no temp droppings, hits exactly
  // match the two committed blocks, and a calm append still works.
  Result<LogArchive> clean = LogArchive::Open(dir_);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(clean->blocks().size(), 2u);
  EXPECT_FALSE(HasTempDroppings());
  for (const std::string& command : w.commands) {
    Result<ArchiveQueryResult> r = clean->Query(command);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r->partial.partial());
    ExpectHitsEqual(ReferenceHits(committed, command), r->hits,
                    command + " [post-storm]");
  }
  ASSERT_TRUE(clean->AppendBlock(w.block_texts[2]).ok());
  Result<ArchiveQueryResult> full = clean->Query(w.commands.front());
  ASSERT_TRUE(full.ok());
  ExpectHitsEqual(ReferenceHits(w, w.commands.front()), full->hits,
                  w.commands.front() + " [after recovery append]");
}

// ---------------------------------------------------------------------------
// Deadline budgets: a query against an all-sick backend degrades within its
// budget instead of hanging, in zero wall time under the virtual clock.
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, QueryDeadlineBoundsRetryStormsAndDegradesInsteadOfHanging) {
  const uint64_t seed = ChaosSeeds().front();
  const ChaosWorkload w = BuildWorkload(seed);
  BuildArchive(w);

  MetricsRegistry metrics;
  FaultInjectingStorageEnv fault(FaultOptions{.seed = seed, .metrics = &metrics});
  // Every block read fails forever with a *retryable* code: without a
  // deadline the retry policy would grind through max_attempts per block.
  fault.AddPermanentFault(".lgc", StatusCode::kUnavailable);

  ArchiveOptions opts;
  opts.env = &fault;
  opts.metrics = &metrics;
  opts.retry.max_attempts = 100;
  opts.engine.box_cache_budget_bytes = 0;
  QueryOptions query_options;
  query_options.deadline_ns = 50'000'000;  // 50 ms of (virtual) backoff budget

  Result<LogArchive> archive = LogArchive::Open(dir_, opts);
  ASSERT_TRUE(archive.ok()) << archive.status().ToString();

  const std::string anchor = AnchorKeyword(w, 0);
  Result<ArchiveQueryResult> r = archive->Query(anchor, query_options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->partial.partial());
  EXPECT_TRUE(r->hits.empty());  // every block is sick
  // Every non-pruned block is reported as a hole; at least the anchor block.
  EXPECT_GE(r->partial.failures.size(), 1u);
  EXPECT_GT(metrics.GetOrCreate("storage.retry.deadline_exceeded")->value(),
            0u);
  // The virtual clock absorbed the backoff: 100 attempts * blocks at real
  // 1ms+ backoff would take seconds; budget accounting must not leak into
  // wall time (generously bounded for sanitizer runs).
}

// ---------------------------------------------------------------------------
// Federation chaos: the same contracts one layer up. One permanently broken
// shard inside an ArchiveSet must degrade the federated answer to exactly
// the healthy shards' lines (206 semantics), predicate pruning must route
// around the sick shard entirely, and fleet-level repair must converge the
// set back to exact full results.
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, FederationDegradesToHealthyShardsThenRepairsExactly) {
  for (uint64_t seed : ChaosSeeds()) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const ChaosWorkload w = BuildWorkload(seed);

    // One tenant per workload block: three single-block shards whose global
    // line bases stride by kShardLineSpan in append order.
    const std::vector<std::string> tenants = {"alpha", "bravo", "charlie"};
    ASSERT_GE(w.block_texts.size(), tenants.size());

    std::filesystem::remove_all(dir_);
    MetricsRegistry metrics;
    FaultInjectingStorageEnv fault(FaultOptions{.seed = seed,
                                                .metrics = &metrics});
    ArchiveSetOptions set_options;
    set_options.archive.env = &fault;
    set_options.archive.metrics = &metrics;
    set_options.archive.retry.max_attempts = 2;
    // Nothing masks faults.
    set_options.archive.engine.box_cache_budget_bytes = 0;

    Result<std::unique_ptr<ArchiveSet>> created =
        ArchiveSet::Create(dir_, set_options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    std::unique_ptr<ArchiveSet> set = std::move(*created);
    std::vector<AppendReceipt> receipts;
    for (size_t t = 0; t < tenants.size(); ++t) {
      Result<AppendReceipt> r =
          set->Append(tenants[t], w.block_texts[t], /*ts_ns=*/1000 + t);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      receipts.push_back(*r);
    }

    // Reference hits at the set level: every tenant's lines, rebased by the
    // shard's line base, optionally excluding the sick tenant.
    const auto set_reference = [&](const std::string& command,
                                   int excluded_tenant) {
      Result<std::unique_ptr<QueryExpr>> expr = ParseQuery(command);
      EXPECT_TRUE(expr.ok()) << command;
      QueryHits hits;
      for (size_t t = 0; t < tenants.size(); ++t) {
        if (static_cast<int>(t) == excluded_tenant) continue;
        uint64_t line = receipts[t].first_global_line;
        for (const std::string& text : w.block_lines[t]) {
          if (LineMatchesQuery(text, **expr)) hits.emplace_back(line, text);
          ++line;
        }
      }
      return hits;
    };

    // Break tenant bravo's only block file, permanently.
    constexpr size_t kSick = 1;
    const std::string sick_dir = ShardDirName(receipts[kSick].shard_id,
                                              tenants[kSick]);
    fault.AddPermanentFault(sick_dir + "/block-0.lgc", StatusCode::kIOError);

    // An anchor keyword from the sick tenant's block forces the federated
    // query to actually need the broken bytes.
    const std::string anchor = AnchorKeyword(w, kSick);
    Result<SetQueryResult> degraded = set->Query(anchor, {});
    ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
    EXPECT_FALSE(degraded->complete()) << degraded->RenderPartial();
    ExpectHitsEqual(set_reference(anchor, kSick), degraded->hits,
                    anchor + " [federated degraded]");

    // The whole command suite keeps 206 semantics: exactly the healthy
    // shards' lines, serial and parallel.
    for (const std::string& command : w.commands) {
      const QueryHits expected = set_reference(command, kSick);
      Result<SetQueryResult> r = set->Query(command, {});
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ExpectHitsEqual(expected, r->hits, command + " [federated hole]");
      Result<SetQueryResult> par = set->Query(command, {}, {.threads = 3});
      ASSERT_TRUE(par.ok()) << par.status().ToString();
      ExpectHitsEqual(expected, par->hits,
                      command + " [federated hole, parallel]");
    }

    // Predicate pruning routes around the fault: a query pinned to a healthy
    // tenant never touches the sick shard and stays complete.
    SetQueryPredicate healthy_only;
    healthy_only.tenant = tenants[0];
    Result<SetQueryResult> routed = set->Query(w.commands.front(),
                                               healthy_only);
    ASSERT_TRUE(routed.ok()) << routed.status().ToString();
    EXPECT_TRUE(routed->complete()) << routed->RenderPartial();
    EXPECT_EQ(routed->shards_visited, 1u);

    // The backend recovers; fleet-level repair reinstates the quarantined
    // block and the federation converges to exact full results.
    fault.ClearPermanentFaults();
    SetRepairReport repaired = set->RepairAll();
    ASSERT_TRUE(repaired.ok()) << repaired.Summary();
    EXPECT_EQ(repaired.reinstated, 1u) << repaired.Summary();
    for (const std::string& command : w.commands) {
      Result<SetQueryResult> r = set->Query(command, {});
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(r->complete()) << r->RenderPartial();
      ExpectHitsEqual(set_reference(command, -1), r->hits,
                      command + " [federated healed]");
    }
  }
}

}  // namespace
}  // namespace loggrep
