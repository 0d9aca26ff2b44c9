// Differential-oracle suite: randomized hit-for-hit equivalence between the
// real engine (all execution modes) and the naive in-memory grep reference.
//
// The acceptance bar this enforces: >= 8 seeds x all 5 execution modes
// (cold / warm / session / parallel / post-recovery) with zero mismatches,
// plus the explain invariant on every command. Any failure prints the
// offending seed + command, which replays deterministically.
#include "src/workload/diff_oracle.h"

#include <gtest/gtest.h>

namespace loggrep {
namespace {

TEST(DiffOracleTest, EightSeedsAllFiveModesZeroMismatches) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    OracleOptions options;
    options.seed = seed;
    OracleReport report = RunDifferentialOracle(options);
    EXPECT_TRUE(report.ok()) << report.Summary();
    EXPECT_EQ(report.datasets_run, options.num_datasets);
    EXPECT_GT(report.commands_run, 0u);
    // Every command ran all five modes plus the explain check.
    EXPECT_EQ(report.checks_run,
              report.commands_run * (options.modes.size() + 1));
  }
}

TEST(DiffOracleTest, DeterministicAcrossRuns) {
  OracleOptions options;
  options.seed = 42;
  const OracleReport a = RunDifferentialOracle(options);
  const OracleReport b = RunDifferentialOracle(options);
  EXPECT_TRUE(a.ok()) << a.Summary();
  EXPECT_EQ(a.commands_run, b.commands_run);
  EXPECT_EQ(a.checks_run, b.checks_run);
  EXPECT_EQ(a.mismatches.size(), b.mismatches.size());
}

// The oracle is the regression harness for every ablation configuration as
// well: each §6.3 engine variant must keep exact grep semantics.
TEST(DiffOracleTest, StaticOnlyEngineAgrees) {
  OracleOptions options;
  options.seed = 101;
  options.num_datasets = 1;
  options.archive.engine.static_only = true;
  const OracleReport report = RunDifferentialOracle(options);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(DiffOracleTest, NoStampsEngineAgrees) {
  OracleOptions options;
  options.seed = 102;
  options.num_datasets = 1;
  options.archive.engine.use_stamps = false;
  const OracleReport report = RunDifferentialOracle(options);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(DiffOracleTest, UnpaddedEngineAgrees) {
  OracleOptions options;
  options.seed = 103;
  options.num_datasets = 1;
  options.archive.engine.use_fixed = false;
  const OracleReport report = RunDifferentialOracle(options);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(DiffOracleTest, NoBoxCacheAgrees) {
  OracleOptions options;
  options.seed = 104;
  options.num_datasets = 1;
  options.archive.engine.box_cache_budget_bytes = 0;  // every query is cold I/O
  const OracleReport report = RunDifferentialOracle(options);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(DiffOracleTest, SubsetOfModesRunsOnlyThose) {
  OracleOptions options;
  options.seed = 7;
  options.num_datasets = 1;
  options.random_queries = 2;
  options.modes = {OracleMode::kColdEngine, OracleMode::kParallel};
  options.check_explain = false;
  const OracleReport report = RunDifferentialOracle(options);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.checks_run, report.commands_run * 2);
}

}  // namespace
}  // namespace loggrep
