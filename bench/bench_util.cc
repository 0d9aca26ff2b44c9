#include "bench/bench_util.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "src/baselines/clp_like.h"
#include "src/baselines/es_like.h"
#include "src/baselines/gzip_grep.h"
#include "src/baselines/loggrep_backend.h"
#include "src/common/string_util.h"
#include "src/common/timer.h"
#include "src/workload/loggen.h"
#include "src/workload/queries.h"

namespace loggrep {
namespace bench {

uint64_t EnvUint(const char* name, uint64_t fallback, uint64_t min) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') {
    return fallback;
  }
  uint64_t value = 0;
  if (!ParseUint64(env, &value) || value < min) {
    std::fprintf(stderr, "%s=%s: want a decimal number >= %llu\n", name, env,
                 static_cast<unsigned long long>(min));
    std::exit(2);
  }
  return value;
}

size_t DatasetBytes() {
  return static_cast<size_t>(EnvUint("LOGGREP_BENCH_KB", 768, 1)) * 1024;
}

std::string BenchOutputPath(const std::string& filename) {
  const char* dir = std::getenv("LOGGREP_BENCH_OUT_DIR");
  if (dir == nullptr || *dir == '\0') {
    return filename;
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return (std::filesystem::path(dir) / filename).string();
}

const std::vector<System>& AllSystems() {
  static const std::vector<System>* kSystems = [] {
    auto* systems = new std::vector<System>();
    systems->push_back({"gzip+grep", new GzipGrepBackend()});
    systems->push_back({"clp-like", new ClpLikeBackend()});
    systems->push_back({"es-like", new EsLikeBackend()});
    systems->push_back(
        {"loggrep-sp", new LogGrepBackend(LogGrepBackend::StaticPatternsOnly())});
    systems->push_back({"loggrep", new LogGrepBackend()});
    return systems;
  }();
  return *kSystems;
}

double TimeSeconds(const std::function<void()>& fn) {
  WallTimer timer;
  fn();
  return timer.ElapsedSeconds();
}

std::vector<Measurement> MeasureDataset(const DatasetSpec& spec) {
  const std::string text = LogGenerator(spec).Generate(DatasetBytes());
  const std::vector<std::string> queries = QuerySuiteForDataset(spec.name);
  std::vector<Measurement> out;
  for (const System& sys : AllSystems()) {
    Measurement m;
    m.dataset = spec.name;
    m.system = sys.name;
    m.raw_mb = static_cast<double>(text.size()) / 1e6;
    std::string stored;
    m.compress_seconds =
        TimeSeconds([&] { stored = sys.backend->Compress(text); });
    m.compressed_mb = static_cast<double>(stored.size()) / 1e6;
    double total = 0;
    int runs = 0;
    for (const std::string& q : queries) {
      total += TimeSeconds([&] {
        auto hits = sys.backend->Query(stored, q);
        if (!hits.ok()) {
          std::fprintf(stderr, "%s: query '%s' failed: %s\n", sys.name.c_str(),
                       q.c_str(), hits.status().ToString().c_str());
        }
      });
      ++runs;
    }
    m.query_seconds = runs > 0 ? total / runs : 0;
    out.push_back(m);
  }
  return out;
}

SystemMeasurement ToCostInput(const Measurement& m, double target_gb) {
  SystemMeasurement c;
  c.raw_gb = target_gb;
  c.compression_ratio = m.ratio();
  c.compress_speed_mb_s = m.compress_mb_s();
  const double measured_gb = m.raw_mb / 1024.0 * (1e6 / (1 << 20));
  c.query_latency_s =
      measured_gb > 0 ? m.query_seconds * (target_gb / measured_gb) : 0;
  return c;
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0;
  }
  double log_sum = 0;
  for (double v : values) {
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace bench
}  // namespace loggrep
