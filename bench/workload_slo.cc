// Multi-tenant SLO workload drive against a live loggrepd (see
// src/workload/slo_harness.h for the full design): Zipf-skewed open-loop
// tenants, concurrent ingest publishing archives mid-run, seeded storage
// faults underneath, every answer checked against a serial oracle.
//
// Prints the per-window latency table + run-wide rates, writes
// BENCH_workload.json (via LOGGREP_BENCH_OUT_DIR like every bench), and
// exits non-zero when a gate fails: any oracle mismatch, or warm windowed
// p99 not below cold.
//
// Scale knobs (env): LOGGREP_WORKLOAD_TENANTS (4), LOGGREP_WORKLOAD_QPS
// (150), LOGGREP_WORKLOAD_MS (4000), LOGGREP_WORKLOAD_SEED (42),
// LOGGREP_WORKLOAD_FAULTS (1).
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench/bench_util.h"
#include "src/workload/slo_harness.h"

namespace loggrep {
namespace bench {
namespace {

int Run() {
  SloHarnessOptions options;
  options.tenants = static_cast<size_t>(EnvUint("LOGGREP_WORKLOAD_TENANTS", 4));
  options.offered_qps =
      static_cast<double>(EnvUint("LOGGREP_WORKLOAD_QPS", 150));
  options.duration_ms = EnvUint("LOGGREP_WORKLOAD_MS", 4000);
  options.seed = EnvUint("LOGGREP_WORKLOAD_SEED", 42);
  options.inject_faults = EnvUint("LOGGREP_WORKLOAD_FAULTS", 1) != 0;

  Result<SloHarnessReport> report = RunSloHarness(options);
  if (!report.ok()) {
    std::fprintf(stderr, "harness setup failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  std::printf(
      "workload_slo: %zu tenants, %.0f qps offered, %" PRIu64
      " ms, faults %s\n",
      options.tenants, options.offered_qps, options.duration_ms,
      options.inject_faults ? "on" : "off");
  std::printf("%-10s %8s %10s %10s\n", "window_ms", "reqs", "p50_ms",
              "p99_ms");
  for (const SloWindow& w : report->windows) {
    std::printf("%-10" PRIu64 " %8" PRIu64 " %10.3f %10.3f\n", w.start_ms,
                w.requests, w.p50_ms, w.p99_ms);
  }
  std::printf(
      "requests %" PRIu64 " (%.1f qps)  200:%" PRIu64 "  206:%" PRIu64
      "  429:%" PRIu64 "  err:%" PRIu64 "  bad:%" PRIu64 "\n",
      report->requests, report->achieved_qps, report->ok_200,
      report->degraded_206, report->shed_429, report->errors,
      report->mismatches);
  std::printf(
      "cache_hit_rate %.3f  degraded_rate %.4f  shed_rate %.4f  "
      "slow_captured %" PRIu64 "  server_window_p99 %.3f ms\n",
      report->cache_hit_rate, report->degraded_rate, report->shed_rate,
      report->slow_queries_captured, report->server_window_p99_ms);
  std::printf("cold p99 %.3f ms -> warm p99 %.3f ms\n", report->cold_p99_ms,
              report->warm_p99_ms);

  const std::string out_path = BenchOutputPath("BENCH_workload.json");
  {
    std::ofstream out(out_path);
    out << report->ToJson() << "\n";
  }
  std::printf("wrote %s\n", out_path.c_str());

  std::string why;
  if (!report->GatesPass(&why)) {
    std::fprintf(stderr, "FAIL: %s\n", why.c_str());
    std::fprintf(stderr, "run dir kept for post-mortem: %s\n",
                 report->root.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace loggrep

int main() { return loggrep::bench::Run(); }
