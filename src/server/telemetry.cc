#include "src/server/telemetry.h"

#include <cinttypes>
#include <cstdio>

#include "src/common/build_info.h"
#include "src/common/metrics_export.h"
#include "src/common/simd.h"

namespace loggrep {

ServerTelemetry::ServerTelemetry(TelemetryOptions options)
    : options_(options),
      latency_(options_.num_windows, options_.window_ns),
      requests_(options_.num_windows, options_.window_ns),
      errors_5xx_(options_.num_windows, options_.window_ns),
      shed_429_(options_.num_windows, options_.window_ns),
      degraded_206_(options_.num_windows, options_.window_ns),
      over_latency_slo_(options_.num_windows, options_.window_ns) {}

void ServerTelemetry::RecordRequest(int status, uint64_t latency_ns,
                                    uint64_t now_ns) {
  requests_.Increment(now_ns);
  latency_.Record(latency_ns, now_ns);
  if (status >= 500) {
    errors_5xx_.Increment(now_ns);
  }
  if (status == 429) {
    shed_429_.Increment(now_ns);
  }
  if (status == 206) {
    degraded_206_.Increment(now_ns);
  }
  if (latency_ns > options_.latency_slo_ns) {
    over_latency_slo_.Increment(now_ns);
  }
}

WindowedStats ServerTelemetry::Compute(uint64_t now_ns) const {
  WindowedStats stats;
  stats.requests = requests_.WindowedSum(now_ns);
  const HistogramSnapshot lat = latency_.WindowedSnapshot(now_ns);
  stats.p50_ns = lat.p50();
  stats.p99_ns = lat.p99();
  stats.p999_ns = lat.p999();
  if (stats.requests == 0) {
    return stats;
  }
  const double n = static_cast<double>(stats.requests);
  stats.error_rate =
      static_cast<double>(errors_5xx_.WindowedSum(now_ns)) / n;
  stats.shed_rate = static_cast<double>(shed_429_.WindowedSum(now_ns)) / n;
  stats.degraded_rate =
      static_cast<double>(degraded_206_.WindowedSum(now_ns)) / n;
  stats.over_latency_slo_rate =
      static_cast<double>(over_latency_slo_.WindowedSum(now_ns)) / n;
  const double availability_budget = 1.0 - options_.availability_slo;
  if (availability_budget > 0) {
    stats.availability_burn_rate = stats.error_rate / availability_budget;
  }
  const double latency_budget = 1.0 - options_.latency_slo_quantile;
  if (latency_budget > 0) {
    stats.latency_burn_rate = stats.over_latency_slo_rate / latency_budget;
  }
  return stats;
}

void ServerTelemetry::AppendWindowedMetrics(std::string* out,
                                            uint64_t now_ns) const {
  const WindowedStats stats = Compute(now_ns);
  AppendPrometheusGauge(out, "loggrep_window_requests",
                        static_cast<double>(stats.requests));
  AppendPrometheusGauge(out, "loggrep_window_request_p50_ns",
                        static_cast<double>(stats.p50_ns));
  AppendPrometheusGauge(out, "loggrep_window_request_p99_ns",
                        static_cast<double>(stats.p99_ns));
  AppendPrometheusGauge(out, "loggrep_window_request_p999_ns",
                        static_cast<double>(stats.p999_ns));
  AppendPrometheusGauge(out, "loggrep_window_error_rate", stats.error_rate);
  AppendPrometheusGauge(out, "loggrep_window_shed_rate", stats.shed_rate);
  AppendPrometheusGauge(out, "loggrep_window_degraded_rate",
                        stats.degraded_rate);
  AppendPrometheusGauge(out, "loggrep_slo_availability_burn_rate",
                        stats.availability_burn_rate);
  AppendPrometheusGauge(out, "loggrep_slo_latency_burn_rate",
                        stats.latency_burn_rate);
}

std::string RenderStatusz(const ServerTelemetry& telemetry,
                          const StatuszInfo& info, uint64_t now_ns) {
  const WindowedStats stats = telemetry.Compute(now_ns);
  const TelemetryOptions& opts = telemetry.options();
  const double horizon_s =
      static_cast<double>(opts.window_ns) * opts.num_windows / 1e9;
  char buf[1536];
  std::snprintf(
      buf, sizeof(buf),
      "loggrepd statusz\n"
      "================\n"
      "version     %s (git %s, simd %s)\n"
      "uptime      %.1f s\n"
      "\n"
      "archive pool\n"
      "  archives_open      %zu\n"
      "  inflight_queries   %zu / %zu\n"
      "\n"
      "totals since boot\n"
      "  requests           %" PRIu64 "\n"
      "  admission_rejects  %" PRIu64 "\n"
      "  degraded_responses %" PRIu64 "\n"
      "  access_log         %" PRIu64 " written, %" PRIu64 " dropped\n"
      "  slow_queries       %" PRIu64 " captured (threshold %.1f ms)\n"
      "\n"
      "rolling window (last %.0f s)\n"
      "  requests           %" PRIu64 "\n"
      "  latency p50        %.3f ms\n"
      "  latency p99        %.3f ms\n"
      "  latency p999       %.3f ms\n"
      "  error_rate         %.4f\n"
      "  shed_rate          %.4f\n"
      "  degraded_rate      %.4f\n"
      "\n"
      "slo burn (budget-normalized; >1 = violating)\n"
      "  availability (%.3f%%)    %.3f\n"
      "  latency (p%g < %.0f ms)  %.3f\n",
      BuildVersion(), BuildGitSha(), SimdTierName(ActiveSimdTier()),
      static_cast<double>(info.uptime_ns) / 1e9, info.archives_open,
      info.inflight_queries, info.max_inflight_queries, info.requests_total,
      info.admission_rejects_total, info.degraded_total,
      info.access_log_written, info.access_log_dropped,
      info.slow_queries_captured,
      static_cast<double>(info.slow_threshold_ns) / 1e6, horizon_s,
      stats.requests, static_cast<double>(stats.p50_ns) / 1e6,
      static_cast<double>(stats.p99_ns) / 1e6,
      static_cast<double>(stats.p999_ns) / 1e6, stats.error_rate,
      stats.shed_rate, stats.degraded_rate, opts.availability_slo * 100.0,
      stats.availability_burn_rate, opts.latency_slo_quantile * 100.0,
      static_cast<double>(opts.latency_slo_ns) / 1e6,
      stats.latency_burn_rate);
  std::string page(buf);
  if (info.sets_open > 0) {
    char fed[512];
    std::snprintf(fed, sizeof(fed),
                  "\n"
                  "federation maintenance (%zu set(s) open)\n"
                  "  compaction         %" PRIu64 " merges (%" PRIu64
                  " shards merged), %" PRIu64 " failures\n",
                  info.sets_open, info.compaction_merges,
                  info.compaction_shards_merged, info.compaction_failures);
    page.append(fed);
  }
  return page;
}

}  // namespace loggrep
