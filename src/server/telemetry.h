// Service-level telemetry for loggrepd: rolling-window latency/error/shed/
// degraded tracking, SLO burn-rate gauges, and the /statusz rendering.
//
// The cumulative registry (PR 3) answers "what happened since boot"; this
// layer answers "is the service healthy *right now*": every request is
// recorded into RollingHistogram/RollingCounter rings (src/common), and the
// merged view over the ring's horizon feeds
//   * windowed p50/p99/p999 + error/shed/degraded-rate gauges on /metrics,
//   * SLO burn rates — the ratio of the observed bad-event rate to the
//     rate the SLO budget allows (burn 1.0 = exactly consuming the budget;
//     >1 = on track to violate; the standard multi-window alerting input):
//       availability burn = (5xx fraction)           / (1 - availability_slo)
//       latency burn      = (fraction over slo_ns)   / (1 - latency_slo_quantile)
//   * the human-readable GET /statusz page.
//
// All clocking is explicit nanoseconds from the caller (the daemon passes
// Tracer::Global().NowNanos(); tests pass a virtual clock).
#ifndef SRC_SERVER_TELEMETRY_H_
#define SRC_SERVER_TELEMETRY_H_

#include <cstdint>
#include <string>

#include "src/common/rolling_histogram.h"

namespace loggrep {

struct TelemetryOptions {
  // Rolling ring geometry: `num_windows` windows of `window_ns` each.
  // Default: 30 windows x 2 s = a one-minute rolling horizon with 2 s
  // rotation granularity.
  uint64_t window_ns = 2'000'000'000ull;
  size_t num_windows = 30;

  // Latency SLO: `latency_slo_quantile` of requests must finish within
  // `latency_slo_ns`.
  uint64_t latency_slo_ns = 250'000'000ull;  // 250 ms
  double latency_slo_quantile = 0.99;

  // Availability SLO: fraction of requests that must not be 5xx.
  double availability_slo = 0.999;
};

// Point-in-time windowed view (all rates in [0,1]).
struct WindowedStats {
  uint64_t requests = 0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
  uint64_t p999_ns = 0;
  double error_rate = 0;     // 5xx / requests
  double shed_rate = 0;      // 429 / requests
  double degraded_rate = 0;  // 206 / requests
  double over_latency_slo_rate = 0;
  double availability_burn_rate = 0;
  double latency_burn_rate = 0;
};

class ServerTelemetry {
 public:
  explicit ServerTelemetry(TelemetryOptions options);

  // Records one finished request. `status` is the HTTP status sent;
  // `latency_ns` covers parse-to-serialize. Lock-free.
  void RecordRequest(int status, uint64_t latency_ns, uint64_t now_ns);

  WindowedStats Compute(uint64_t now_ns) const;

  // Appends the windowed gauges in Prometheus exposition format
  // (loggrep_window_* / loggrep_slo_*). Values are computed at `now_ns`.
  void AppendWindowedMetrics(std::string* out, uint64_t now_ns) const;

  const TelemetryOptions& options() const { return options_; }

 private:
  TelemetryOptions options_;
  RollingHistogram latency_;
  RollingCounter requests_;
  RollingCounter errors_5xx_;
  RollingCounter shed_429_;
  RollingCounter degraded_206_;
  RollingCounter over_latency_slo_;
};

// Everything /statusz shows beyond the windowed stats; the daemon fills
// this from its own gauges before rendering.
struct StatuszInfo {
  uint64_t uptime_ns = 0;
  size_t archives_open = 0;
  size_t inflight_queries = 0;
  size_t max_inflight_queries = 0;
  uint64_t requests_total = 0;
  uint64_t admission_rejects_total = 0;
  uint64_t degraded_total = 0;
  uint64_t access_log_written = 0;
  uint64_t access_log_dropped = 0;
  uint64_t slow_queries_captured = 0;
  uint64_t slow_threshold_ns = 0;
  // Federation maintenance: open ArchiveSet handles, and the registry's
  // set.compaction.* counters (0 until a compaction pass runs).
  size_t sets_open = 0;
  uint64_t compaction_merges = 0;
  uint64_t compaction_shards_merged = 0;
  uint64_t compaction_failures = 0;
};

// Plain-text /statusz page (uptime, build identity, archive pool state,
// admission/shed counters, window percentiles + SLO burn).
std::string RenderStatusz(const ServerTelemetry& telemetry,
                          const StatuszInfo& info, uint64_t now_ns);

}  // namespace loggrep

#endif  // SRC_SERVER_TELEMETRY_H_
