#include "src/common/metrics_export.h"

#include <cstdio>
#include <utility>

#include "src/common/json.h"

namespace loggrep {
namespace {

std::string SanitizePrometheusName(const std::string& name) {
  std::string out = "loggrep_";
  out.reserve(out.size() + name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

std::string ExportPrometheus(const MetricsRegistry& registry) {
  std::string out;
  for (const auto& [name, value] : registry.Snapshot()) {
    const std::string prom = SanitizePrometheusName(name);
    out += "# TYPE " + prom + " counter\n";
    out += prom + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, snap] : registry.HistogramSnapshots()) {
    const std::string prom = SanitizePrometheusName(name);
    out += "# TYPE " + prom + " histogram\n";
    uint64_t cumulative = 0;
    for (size_t b = 0; b + 1 < HistogramSnapshot::kNumBuckets; ++b) {
      if (snap.buckets[b] == 0) {
        continue;  // compact exposition: only non-empty boundaries
      }
      cumulative += snap.buckets[b];
      // The overflow bucket is excluded from the loop: its boundary is the
      // trailing "+Inf" line below (emitting it here too would duplicate
      // the le="+Inf" series whenever it is non-empty).
      out += prom + "_bucket{le=\"" +
             std::to_string(Histogram::BucketUpperBound(b)) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += prom + "_bucket{le=\"+Inf\"} " + std::to_string(snap.count) + "\n";
    out += prom + "_sum " + std::to_string(snap.sum) + "\n";
    out += prom + "_count " + std::to_string(snap.count) + "\n";
    // Point-estimate quantile gauges next to the native histogram. The
    // buckets are what external scrapers should aggregate across processes
    // (quantiles of one process do not merge); the gauges serve dashboards
    // and humans reading a single scrape.
    for (const auto& [suffix, value] :
         {std::pair<const char*, uint64_t>{"_p50", snap.p50()},
          {"_p99", snap.p99()},
          {"_p999", snap.p999()}}) {
      out += "# TYPE " + prom + suffix + " gauge\n";
      out += prom + suffix + " " + std::to_string(value) + "\n";
    }
  }
  return out;
}

void AppendPrometheusGauge(std::string* out, const std::string& name,
                           double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", value);
  out->append("# TYPE ").append(name).append(" gauge\n");
  out->append(name).append(" ").append(buf).push_back('\n');
}

std::string ExportJson(const MetricsRegistry& registry) {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : registry.Snapshot()) {
    if (!first) {
      out += ',';
    }
    first = false;
    AppendJsonString(&out, name);
    out += ':' + std::to_string(value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, snap] : registry.HistogramSnapshots()) {
    if (!first) {
      out += ',';
    }
    first = false;
    AppendJsonString(&out, name);
    out += ":{\"count\":" + std::to_string(snap.count) +
           ",\"sum\":" + std::to_string(snap.sum) +
           ",\"max\":" + std::to_string(snap.max) +
           ",\"p50\":" + std::to_string(snap.p50()) +
           ",\"p90\":" + std::to_string(snap.p90()) +
           ",\"p95\":" + std::to_string(snap.p95()) +
           ",\"p99\":" + std::to_string(snap.p99()) +
           ",\"p999\":" + std::to_string(snap.p999()) + "}";
  }
  out += "}}";
  return out;
}

}  // namespace loggrep
