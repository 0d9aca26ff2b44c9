// Differential oracle: LogGrep's end-to-end correctness contract, checked
// mechanically against a naive reference.
//
// The paper's whole value proposition (§5) is that pruning via static
// patterns, runtime patterns and Capsule stamps returns *exactly* the lines
// a plain grep over the raw log would. The oracle makes that claim testable
// under randomized workloads: for a seeded random choice of datasets, block
// contents and query commands, every query is evaluated two ways —
//   * reference: keep all raw lines in memory and apply LineMatchesQuery
//     (src/query/line_match.h, the single definition of query semantics)
//     line by line;
//   * system under test: the real archive/engine, in each execution mode
//     (cold open, warm cache, QuerySession refinement, parallel Query
//     workers, and a post-crash-recovery reopen) —
// and the hit lists must agree hit for hit (line numbers AND text). The
// explain layer is cross-checked too: Query with a tree must return the same
// hits and satisfy its pruned + cached + decompressed == visited invariant.
//
// One swappable harness: tests/oracle runs it over pinned seeds, CI runs it
// over fresh seeds nightly under ASan/UBSan, and any future perf PR can use
// it as a regression oracle.
#ifndef SRC_WORKLOAD_DIFF_ORACLE_H_
#define SRC_WORKLOAD_DIFF_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/store/log_archive.h"

namespace loggrep {

// The five execution modes the oracle drives for every command.
enum class OracleMode {
  kColdEngine,    // freshly opened archive, empty caches
  kWarmCache,     // same archive object, second execution (BoxCache +
                  // QueryCache warm)
  kSession,       // QuerySession per block, exercising incremental
                  // refinement for conjunctive commands
  kParallel,      // LogArchive::Query with QueryOptions.threads workers
  kPostRecovery,  // archive reopened after a commit aborted mid-protocol
};

const char* OracleModeName(OracleMode mode);
std::vector<OracleMode> AllOracleModes();

struct OracleOptions {
  uint64_t seed = 1;

  // Workload shape. Defaults keep one seed under a few seconds so CI can
  // afford many seeds under sanitizers.
  size_t num_datasets = 2;        // sampled from the 37-dataset catalog
  size_t blocks_per_archive = 3;  // committed blocks per dataset archive
  size_t lines_per_block = 300;
  size_t random_queries = 8;      // seeded random commands per dataset
                                  // (run on top of the dataset's own suite)
  size_t parallel_threads = 3;

  std::vector<OracleMode> modes = AllOracleModes();
  bool check_explain = true;  // also run Query with a tree + invariant per command

  // Archive/engine configuration under test (ablation configs plug in here).
  ArchiveOptions archive;

  // Root for scratch archive directories; empty = system temp dir. Always
  // cleaned up afterwards.
  std::string scratch_dir;
};

struct OracleMismatch {
  std::string dataset;
  std::string command;
  std::string mode;    // OracleModeName or "explain"
  std::string detail;  // first divergence, human readable
};

struct OracleReport {
  uint64_t seed = 0;
  size_t datasets_run = 0;
  size_t commands_run = 0;  // distinct (dataset, command) pairs
  size_t checks_run = 0;    // individual mode/explain comparisons
  std::vector<OracleMismatch> mismatches;
  // Infrastructure failure (archive creation, I/O, query parse): aborts the
  // run and is reported separately from semantic mismatches.
  Status fatal = OkStatus();

  bool ok() const { return fatal.ok() && mismatches.empty(); }
  std::string Summary() const;
};

// Runs the oracle for one seed. Deterministic: the same options produce the
// same workload, so any mismatch is replayable from (seed, config).
OracleReport RunDifferentialOracle(const OracleOptions& options);

// ---------------------------------------------------------------------------
// Federation oracle
// ---------------------------------------------------------------------------
//
// The same differential methodology, one architectural layer up: a seeded
// multi-tenant multi-window workload is ingested through an ArchiveSet and
// every (command, predicate) pair is evaluated three ways —
//   * reference: in-memory lines tagged (tenant, event ts, shard), with the
//     shard-granular predicate semantics re-derived from first principles
//     (tenant pruning is exact; time pruning skips sealed shards whose
//     event range misses the predicate, and never skips the active shard);
//   * monolith: one LogArchive holding the same blocks in the same global
//     order (full-scatter commands must agree hit text for hit text, and
//     cold-for-cold on the deterministic count stats);
//   * federation: ArchiveSet::Query (serial and parallel) / Explain across
//     modes, including a corrupt-shard -> degraded 206 -> repair -> exact
//     convergence cycle.
// Zero mismatches over pinned seeds is the federation's correctness gate.

enum class FederationMode {
  kCold,       // fresh ArchiveSet::Open per command, empty caches
  kWarm,       // persistent set, second execution compared
  kParallel,   // ArchiveSet::Query scatter on QueryOptions.threads workers
  kPostRepair, // corrupt one shard, expect exact degraded hits, repair,
               // expect exact convergence
};

std::vector<FederationMode> AllFederationModes();

struct FederationOracleOptions {
  uint64_t seed = 1;

  // Workload shape: num_tenants x num_windows shards, each holding
  // blocks_per_window appended blocks. Tenant names include
  // directory-unsafe bytes on purpose (sanitization is under test).
  size_t num_tenants = 3;
  size_t num_windows = 3;
  size_t blocks_per_window = 2;
  size_t lines_per_block = 120;
  size_t random_queries = 6;
  size_t parallel_threads = 4;

  // Per-command probability of attaching a tenant / time-range predicate
  // (independently; both can apply).
  double tenant_predicate_p = 0.4;
  double time_predicate_p = 0.5;

  std::vector<FederationMode> modes = AllFederationModes();
  bool check_explain = true;   // set-level Explain + invariant per command
  bool check_monolith = true;  // also diff vs the monolithic archive

  ArchiveOptions archive;
  std::string scratch_dir;
};

// Runs the federation oracle for one seed; reuses OracleReport (mode names
// are prefixed "fed-").
OracleReport RunFederationOracle(const FederationOracleOptions& options);

}  // namespace loggrep

#endif  // SRC_WORKLOAD_DIFF_ORACLE_H_
