// Federation scaling bench: query cost against an ArchiveSet as the shard
// count grows, and what time-range pruning buys back.
//
// For each shard count in {1, 4, 16} it builds a single-tenant set whose
// shards are consecutive time windows, then drives the dataset's query
// suite two ways over identical command sequences:
//
//   full scatter   no predicate — every live shard is visited
//   time-pruned    from= the last window's start — sealed earlier windows
//                  are pruned by the shard-granular time predicate
//
// A third leg measures what compaction buys back: a 16-window set is
// queried full-scatter, compacted (default policy: 15 sealed shards merge
// into two, the active shard stays), and queried again with the identical
// command sequence.
//
// Prints a QPS/p50/p99 row per (shard count, mode) and writes
// BENCH_federation.json (via LOGGREP_BENCH_OUT_DIR like every bench).
// Exits non-zero when a gate fails: for every shard count > 1 the pruned
// pass must visit strictly fewer shards AND take strictly less wall-clock
// than the full scatter, and both modes must agree hit-for-hit on the
// pruned window's lines; the compacted set must answer the full scatter
// with strictly fewer shard visits and hit-for-hit identical results.
//
// Scale knobs (env): LOGGREP_FED_LINES (lines per shard, default 400),
// LOGGREP_FED_ITERS (requests per mode, default 24), LOGGREP_FED_THREADS
// (scatter width per request, default 4).
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/store/archive_set.h"
#include "src/workload/datasets.h"
#include "src/workload/loggen.h"
#include "src/workload/queries.h"

namespace loggrep {
namespace bench {
namespace {

constexpr uint64_t kWindowSpanNs = 1'000'000'000ull;  // 1 s per shard window

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') {
    return fallback;
  }
  const long long parsed = std::atoll(value);
  return parsed >= 0 ? static_cast<uint64_t>(parsed) : fallback;
}

struct ModeStats {
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double wall_seconds = 0;
  uint64_t shards_visited = 0;  // per request (identical across requests)
  uint64_t hits = 0;            // summed over the timed requests
};

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const size_t index = std::min(
      samples.size() - 1, static_cast<size_t>(p * (samples.size() - 1) + 0.5));
  return samples[index];
}

// Runs `iters` requests cycling through `commands`, one Query on `threads`
// workers per request. Returns false on any query error.
bool DriveMode(ArchiveSet* set, const std::vector<std::string>& commands,
               const SetQueryPredicate& pred, size_t iters, size_t threads,
               ModeStats* stats) {
  std::vector<double> latencies_ms;
  latencies_ms.reserve(iters);
  const double wall = TimeSeconds([&] {
    for (size_t i = 0; i < iters; ++i) {
      const std::string& command = commands[i % commands.size()];
      Result<SetQueryResult> result = Unavailable("not yet run");
      const double seconds = TimeSeconds(
          [&] { result = set->Query(command, pred, {.threads = threads}); });
      if (!result.ok()) {
        std::fprintf(stderr, "query '%s' failed: %s\n", command.c_str(),
                     result.status().ToString().c_str());
        latencies_ms.clear();
        return;
      }
      latencies_ms.push_back(seconds * 1e3);
      stats->shards_visited = result->shards_visited;
      stats->hits += result->hits.size();
    }
  });
  if (latencies_ms.empty()) {
    return false;
  }
  stats->wall_seconds = wall;
  stats->qps = wall > 0 ? static_cast<double>(iters) / wall : 0;
  stats->p50_ms = Percentile(latencies_ms, 0.50);
  stats->p99_ms = Percentile(latencies_ms, 0.99);
  return true;
}

std::string ModeJson(const ModeStats& m) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"qps\":%.1f,\"p50_ms\":%.3f,\"p99_ms\":%.3f,"
                "\"wall_seconds\":%.4f,\"shards_visited\":%" PRIu64
                ",\"hits\":%" PRIu64 "}",
                m.qps, m.p50_ms, m.p99_ms, m.wall_seconds, m.shards_visited,
                m.hits);
  return buf;
}

int Run() {
  const size_t lines_per_shard =
      static_cast<size_t>(EnvU64("LOGGREP_FED_LINES", 400));
  const size_t iters = static_cast<size_t>(EnvU64("LOGGREP_FED_ITERS", 24));
  const size_t threads =
      static_cast<size_t>(EnvU64("LOGGREP_FED_THREADS", 4));

  DatasetSpec spec = AllDatasets().front();
  const std::vector<std::string> commands = QuerySuiteForDataset(spec.name);
  if (commands.empty()) {
    std::fprintf(stderr, "no query suite for dataset %s\n", spec.name.c_str());
    return 1;
  }

  const std::string root =
      (std::filesystem::temp_directory_path() /
       ("loggrep_fed_bench_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(root);

  std::printf("federation_bench: %zu lines/shard, %zu iters, %zu threads\n",
              lines_per_shard, iters, threads);
  std::printf("%-8s %-12s %10s %10s %10s %10s\n", "shards", "mode", "qps",
              "p50_ms", "p99_ms", "visited");

  std::string rows_json;
  bool gates_pass = true;
  std::string gate_detail;

  for (const size_t shard_count : {1u, 4u, 16u}) {
    const std::string dir = root + "/set" + std::to_string(shard_count);
    ArchiveSetOptions options;
    options.window_span_ns = kWindowSpanNs;
    options.max_shard_bytes = 0;  // windows alone decide the shard cut
    // No shared box cache: every request pays real decompression, so the
    // full-vs-pruned wall-clock comparison measures work, not cache luck.
    options.archive.box_cache_budget_bytes = 0;
    Result<std::unique_ptr<ArchiveSet>> set = ArchiveSet::Create(dir, options);
    if (!set.ok()) {
      std::fprintf(stderr, "create %s: %s\n", dir.c_str(),
                   set.status().ToString().c_str());
      return 1;
    }
    for (size_t w = 0; w < shard_count; ++w) {
      spec.seed = 1000003ull * (shard_count + 1) + w;
      LogGenerator gen(spec);
      Result<AppendReceipt> receipt = (*set)->Append(
          "tenant", gen.GenerateLines(lines_per_shard),
          w * kWindowSpanNs + 1);
      if (!receipt.ok()) {
        std::fprintf(stderr, "append window %zu: %s\n", w,
                     receipt.status().ToString().c_str());
        return 1;
      }
    }

    // The pruned pass asks only for the newest window; full scatter asks
    // for everything. Sealed earlier windows must fall to the predicate.
    SetQueryPredicate newest_only;
    newest_only.from_ns = (shard_count - 1) * kWindowSpanNs;

    ModeStats full, pruned;
    if (!DriveMode(set->get(), commands, {}, iters, threads, &full) ||
        !DriveMode(set->get(), commands, newest_only, iters, threads,
                   &pruned)) {
      std::filesystem::remove_all(root);
      return 1;
    }

    std::printf("%-8zu %-12s %10.1f %10.3f %10.3f %10" PRIu64 "\n",
                shard_count, "full", full.qps, full.p50_ms, full.p99_ms,
                full.shards_visited);
    std::printf("%-8zu %-12s %10.1f %10.3f %10.3f %10" PRIu64 "\n",
                shard_count, "time_pruned", pruned.qps, pruned.p50_ms,
                pruned.p99_ms, pruned.shards_visited);

    // Soundness sweep (untimed): for every command, the pruned answer must
    // be exactly the full answer restricted to the newest shard's global
    // line range.
    const uint64_t newest_base =
        (shard_count - 1) * ArchiveSet::kShardLineSpan;
    for (const std::string& command : commands) {
      Result<SetQueryResult> whole = (*set)->Query(command, {});
      Result<SetQueryResult> newest = (*set)->Query(command, newest_only);
      if (!whole.ok() || !newest.ok()) {
        gates_pass = false;
        gate_detail = "soundness sweep query failed at " +
                      std::to_string(shard_count) + " shards";
        break;
      }
      QueryHits expected;
      for (const auto& hit : whole->hits) {
        if (hit.first >= newest_base) {
          expected.push_back(hit);
        }
      }
      if (expected != newest->hits) {
        gates_pass = false;
        gate_detail = "pruned hits diverge from full scatter for '" +
                      command + "' at " + std::to_string(shard_count) +
                      " shards";
        break;
      }
    }
    if (shard_count > 1) {
      if (pruned.shards_visited >= full.shards_visited) {
        gates_pass = false;
        gate_detail = "pruning did not reduce shards visited at " +
                      std::to_string(shard_count) + " shards";
      }
      if (pruned.wall_seconds >= full.wall_seconds) {
        gates_pass = false;
        gate_detail = "pruning did not reduce wall-clock at " +
                      std::to_string(shard_count) + " shards";
      }
    }

    if (!rows_json.empty()) {
      rows_json += ",";
    }
    rows_json += "{\"shards\":" + std::to_string(shard_count) +
                 ",\"lines\":" + std::to_string(shard_count * lines_per_shard) +
                 ",\"full\":" + ModeJson(full) +
                 ",\"time_pruned\":" + ModeJson(pruned) + "}";
  }
  // --- Compaction leg: same shape as the 16-shard set, queried before and
  // after one Compact() pass over identical commands. ---
  {
    const size_t window_count = 16;
    const std::string dir = root + "/set_compaction";
    ArchiveSetOptions options;
    options.window_span_ns = kWindowSpanNs;
    options.max_shard_bytes = 0;
    options.archive.box_cache_budget_bytes = 0;
    Result<std::unique_ptr<ArchiveSet>> set = ArchiveSet::Create(dir, options);
    if (!set.ok()) {
      std::fprintf(stderr, "create %s: %s\n", dir.c_str(),
                   set.status().ToString().c_str());
      return 1;
    }
    for (size_t w = 0; w < window_count; ++w) {
      spec.seed = 2000003ull + w;
      LogGenerator gen(spec);
      Result<AppendReceipt> receipt = (*set)->Append(
          "tenant", gen.GenerateLines(lines_per_shard),
          w * kWindowSpanNs + 1);
      if (!receipt.ok()) {
        std::fprintf(stderr, "append window %zu: %s\n", w,
                     receipt.status().ToString().c_str());
        return 1;
      }
    }

    // Exact full-scatter answers before the merge, one per command.
    std::vector<QueryHits> before_hits;
    for (const std::string& command : commands) {
      Result<SetQueryResult> result = (*set)->Query(command, {});
      if (!result.ok()) {
        std::fprintf(stderr, "pre-compaction query failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      before_hits.push_back(result->hits);
    }

    ModeStats wide, compacted;
    if (!DriveMode(set->get(), commands, {}, iters, threads, &wide)) {
      std::filesystem::remove_all(root);
      return 1;
    }
    const SetCompactionReport report = (*set)->Compact();
    if (!report.ok() || report.merges_committed == 0) {
      gates_pass = false;
      gate_detail = "compaction pass failed: " + report.Summary();
    }
    if (!DriveMode(set->get(), commands, {}, iters, threads, &compacted)) {
      std::filesystem::remove_all(root);
      return 1;
    }

    std::printf("%-8zu %-12s %10.1f %10.3f %10.3f %10" PRIu64 "\n",
                window_count, "pre_compact", wide.qps, wide.p50_ms,
                wide.p99_ms, wide.shards_visited);
    std::printf("%-8zu %-12s %10.1f %10.3f %10.3f %10" PRIu64 "\n",
                window_count, "compacted", compacted.qps, compacted.p50_ms,
                compacted.p99_ms, compacted.shards_visited);

    if (gates_pass && compacted.shards_visited >= wide.shards_visited) {
      gates_pass = false;
      gate_detail = "compaction did not reduce shards visited (" +
                    std::to_string(compacted.shards_visited) + " vs " +
                    std::to_string(wide.shards_visited) + ")";
    }
    // Soundness: the merged set answers every command hit-for-hit
    // identically — same lines, same global line numbers.
    for (size_t i = 0; gates_pass && i < commands.size(); ++i) {
      Result<SetQueryResult> result = (*set)->Query(commands[i], {});
      if (!result.ok() || result->hits != before_hits[i]) {
        gates_pass = false;
        gate_detail =
            "compacted answers diverge for '" + commands[i] + "'";
      }
    }

    rows_json += ",{\"shards\":" + std::to_string(window_count) +
                 ",\"lines\":" +
                 std::to_string(window_count * lines_per_shard) +
                 ",\"merges\":" + std::to_string(report.merges_committed) +
                 ",\"shards_merged\":" + std::to_string(report.shards_merged) +
                 ",\"pre_compact\":" + ModeJson(wide) +
                 ",\"compacted\":" + ModeJson(compacted) + "}";
  }
  std::filesystem::remove_all(root);

  const std::string out_path = BenchOutputPath("BENCH_federation.json");
  {
    std::ofstream out(out_path);
    out << "{\"bench\":\"federation\",\"lines_per_shard\":" << lines_per_shard
        << ",\"iters\":" << iters << ",\"threads\":" << threads
        << ",\"rows\":[" << rows_json << "],\"gates_pass\":"
        << (gates_pass ? "true" : "false") << "}\n";
  }
  std::printf("wrote %s\n", out_path.c_str());

  if (!gates_pass) {
    std::fprintf(stderr, "FAIL: %s\n", gate_detail.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace loggrep

int main() { return loggrep::bench::Run(); }
