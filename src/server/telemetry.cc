#include "src/server/telemetry.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "src/common/build_info.h"
#include "src/common/metrics_export.h"
#include "src/common/simd.h"

namespace loggrep {

void ServerTelemetry::RecordRequest(int status, uint64_t latency_ns,
                                    uint64_t now_ns) {
  const uint64_t w = now_ns / kTelemetryWindowNs;
  std::lock_guard<std::mutex> lock(mu_);
  if (w > newest_) {
    newest_ = w;
  }
  Window& win = windows_[newest_ % kTelemetryWindows];
  if (win.index != newest_) {
    win = Window{};  // recycle the slot of an expired window
    win.index = newest_;
  }
  win.latency.buckets[Histogram::BucketFor(latency_ns)]++;
  win.latency.count++;
  win.latency.sum += latency_ns;
  win.latency.max = std::max(win.latency.max, latency_ns);
  win.requests++;
  win.errors_5xx += status >= 500 ? 1 : 0;
  win.shed_429 += status == 429 ? 1 : 0;
  win.degraded_206 += status == 206 ? 1 : 0;
  win.over_latency_slo += latency_ns > kLatencySloNs ? 1 : 0;
}

WindowedStats ServerTelemetry::Compute(uint64_t now_ns) const {
  const uint64_t current = now_ns / kTelemetryWindowNs;
  const uint64_t oldest = current >= kTelemetryWindows - 1
                              ? current - (kTelemetryWindows - 1)
                              : 0;
  Window sum;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Window& win : windows_) {
      if (win.index < oldest || win.index > current) {
        continue;  // expired, or after `now_ns` (an unused slot included)
      }
      sum.latency.Merge(win.latency);
      sum.requests += win.requests;
      sum.errors_5xx += win.errors_5xx;
      sum.shed_429 += win.shed_429;
      sum.degraded_206 += win.degraded_206;
      sum.over_latency_slo += win.over_latency_slo;
    }
  }
  WindowedStats stats;
  stats.requests = sum.requests;
  stats.p50_ns = sum.latency.p50();
  stats.p99_ns = sum.latency.p99();
  stats.p999_ns = sum.latency.p999();
  if (stats.requests == 0) {
    return stats;
  }
  const double n = static_cast<double>(stats.requests);
  stats.error_rate = static_cast<double>(sum.errors_5xx) / n;
  stats.shed_rate = static_cast<double>(sum.shed_429) / n;
  stats.degraded_rate = static_cast<double>(sum.degraded_206) / n;
  stats.over_latency_slo_rate = static_cast<double>(sum.over_latency_slo) / n;
  stats.availability_burn_rate = stats.error_rate / (1.0 - kAvailabilitySlo);
  stats.latency_burn_rate =
      stats.over_latency_slo_rate / (1.0 - kLatencySloQuantile);
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
  const double horizon_s =
      static_cast<double>(kTelemetryWindowNs) * kTelemetryWindows / 1e9;
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
      stats.shed_rate, stats.degraded_rate, kAvailabilitySlo * 100.0,
      stats.availability_burn_rate, kLatencySloQuantile * 100.0,
      static_cast<double>(kLatencySloNs) / 1e6,
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
