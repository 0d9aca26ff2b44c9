// Service-level telemetry for loggrepd: windowed latency/error/shed/
// degraded tracking, SLO burn-rate gauges, and the /statusz rendering.
//
// The cumulative registry answers "what happened since boot"; this layer
// answers "is the service healthy *right now*". Every finished request is
// recorded once, under one mutex, into a fixed ring of kTelemetryWindows
// windows of kTelemetryWindowNs each (a one-minute horizon at 2 s
// granularity). The merged view over the horizon feeds
//   * windowed p50/p99/p999 + error/shed/degraded-rate gauges on /metrics,
//   * SLO burn rates — the ratio of the observed bad-event rate to the
//     rate the SLO budget allows (burn 1.0 = exactly consuming the budget;
//     >1 = on track to violate; the standard multi-window alerting input):
//       availability burn = (5xx fraction)              / (1 - kAvailabilitySlo)
//       latency burn      = (fraction over kLatencySloNs) / (1 - kLatencySloQuantile)
//   * the human-readable GET /statusz page.
//
// Windowed totals are exact: a record whose clock reads behind the newest
// window counts in the newest window instead of being dropped or reviving
// an expired one. All clocking is explicit nanoseconds from the caller (the
// daemon passes Tracer::Global().NowNanos(); tests pass a virtual clock).
#ifndef SRC_SERVER_TELEMETRY_H_
#define SRC_SERVER_TELEMETRY_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <string>

#include "src/common/histogram.h"

namespace loggrep {

// Window geometry: kTelemetryWindows windows of kTelemetryWindowNs each.
inline constexpr uint64_t kTelemetryWindowNs = 2'000'000'000ull;  // 2 s
inline constexpr size_t kTelemetryWindows = 30;
// Latency SLO: kLatencySloQuantile of requests finish within kLatencySloNs.
inline constexpr uint64_t kLatencySloNs = 250'000'000ull;  // 250 ms
inline constexpr double kLatencySloQuantile = 0.99;
// Availability SLO: the fraction of requests that must not be 5xx.
inline constexpr double kAvailabilitySlo = 0.999;

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
  // Records one finished request. `status` is the HTTP status sent;
  // `latency_ns` covers parse-to-serialize.
  void RecordRequest(int status, uint64_t latency_ns, uint64_t now_ns);

  // Merges every window inside the horizon ending at `now_ns` (the current
  // partial window included; windows after `now_ns` excluded).
  WindowedStats Compute(uint64_t now_ns) const;

  // Appends the windowed gauges in Prometheus exposition format
  // (loggrep_window_* / loggrep_slo_*). Values are computed at `now_ns`.
  void AppendWindowedMetrics(std::string* out, uint64_t now_ns) const;

 private:
  struct Window {
    // now_ns / kTelemetryWindowNs of its records; an unused slot's index lies
    // after every clock, so reads skip it.
    uint64_t index = UINT64_MAX;
    HistogramSnapshot latency;
    uint64_t requests = 0;
    uint64_t errors_5xx = 0;
    uint64_t shed_429 = 0;
    uint64_t degraded_206 = 0;
    uint64_t over_latency_slo = 0;
  };

  mutable std::mutex mu_;
  std::array<Window, kTelemetryWindows> windows_;  // window w in slot w % N
  uint64_t newest_ = 0;  // highest window index recorded so far
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
