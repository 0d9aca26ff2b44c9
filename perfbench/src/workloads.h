// The benchmark's four workloads (see perfbench/README.md):
//   ingest              bulk streaming ingest through LogIngestor
//   cold_grep           serial queries, each on a freshly opened archive
//   served_grep         loggrepd over loopback, 3 keep-alive clients
//   append_under_query  open-loop appends into an ArchiveSet beside 2
//                       closed-loop query threads
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Scratch directory for archives and the access log.
  std::string workdir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  bool correct = true;    // false on any wrong answer
  uint64_t attempted = 0;
  uint64_t failed = 0;    // refused, transport-failed or errored operations
  // End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  // Environment stamp entries this workload adds (worker/client counts).
  std::vector<std::pair<std::string, std::string>> stamp;
};

const std::vector<std::string>& WorkloadNames();

// Runs one workload. Human-readable report lines go to `report`.
Outcome RunWorkload(const RunOptions& options, std::ostream& report);

// One-line JSON digest of every seeded input (corpora, request sequences)
// plus the compression ratio of ingesting the ingest corpus once, for the
// determinism self-test.
std::string DigestInputs(uint64_t seed, const std::string& workdir);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
