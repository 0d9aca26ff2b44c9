// Cold-vs-warm query economics of the shared BoxCache + command QueryCache,
// plus the scan-kernel speedup gate.
//
// Three workloads, per dataset (Log A..U + public logs):
//   1. block: the dataset's query suite against one CapsuleBox, run cold
//      (all caches off), then twice on a cache-enabled engine — the second
//      pass must decompress strictly fewer fresh bytes than the first. The
//      block workload runs LOGGREP_BENCH_ROUNDS times (default 5) and
//      reports cold/warm p50 across rounds.
//   2. session: a refining-mode command chain through QuerySession
//      (incremental refinement + memo) vs re-running every command cold.
//   3. archive: a multi-block LogArchive queried cold then warm; warm
//      queries are served from the archive's shared BoxCache without
//      touching the block files.
//
// A kernel microbench then times SearchPaddedColumn pinned to the scalar
// tier vs the active SIMD tier on the same blob. Results (p50s, per-stage
// nanoseconds, kernel speedup, SIMD tier) are written to BENCH_query.json
// for the CI artifact.
//
// Exit is non-zero if any dataset fails the "warm decompresses fewer bytes
// than cold" invariant, or — on AVX2 hardware, outside sanitizer builds and
// LOGGREP_FORCE_SCALAR runs — if the kernel speedup falls below 1.3x (the
// PR's acceptance criterion; scalar-vs-SIMD on the same machine, so the
// gate is machine-independent).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/simd.h"
#include "src/core/engine.h"
#include "src/core/session.h"
#include "src/query/fixed_matcher.h"
#include "src/store/log_archive.h"
#include "src/workload/datasets.h"
#include "src/workload/loggen.h"
#include "src/workload/queries.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LOGGREP_SANITIZER_BUILD 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define LOGGREP_SANITIZER_BUILD 1
#endif
#endif

namespace {

using namespace loggrep;

// One pass of a suite: its wall time and the summed query ledger.
struct PassStats {
  double seconds = 0;
  LocatorStats ledger;
};

PassStats RunSuite(LogGrepEngine& engine, const std::string& box,
                   const std::vector<std::string>& suite) {
  PassStats stats;
  stats.seconds = bench::TimeSeconds([&] {
    for (const std::string& command : suite) {
      auto result = engine.Query(box, command);
      if (!result.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     result.status().ToString().c_str());
        std::exit(1);
      }
      stats.ledger.Accumulate(result->locator);
    }
  });
  return stats;
}

// The §3 refining chain for one dataset: the Table 1 query narrowed twice.
std::vector<std::string> RefinementChain(const std::string& dataset) {
  const std::string base = QueryForDataset(dataset);
  if (base.empty() || base.find(" or ") != std::string::npos ||
      base.find(" not ") != std::string::npos) {
    return {};
  }
  return {base, base + " and 1", base + " and 1 and 2"};
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

// One full pass of the block workload over every dataset. The corpora and
// boxes are compressed once by the caller and reused across rounds so the
// rounds time queries, not compression.
struct BlockCorpus {
  std::string name;
  std::string box;
  std::vector<std::string> suite;
};

struct BlockRoundResult {
  double cold_ms = 0;
  double warm_ms = 0;
  LocatorStats cold;  // the cold passes' summed ledger
  uint64_t warm_bytes = 0;
  int failures = 0;
};

BlockRoundResult RunBlockRound(const std::vector<BlockCorpus>& corpora,
                               bool print) {
  BlockRoundResult round;
  for (const BlockCorpus& corpus : corpora) {
    EngineOptions cold_options;
    cold_options.use_cache = false;
    cold_options.box_cache_budget_bytes = 0;
    LogGrepEngine cold_engine(cold_options);
    const PassStats cold = RunSuite(cold_engine, corpus.box, corpus.suite);

    EngineOptions warm_options;
    warm_options.use_cache = false;  // isolate the BoxCache effect
    LogGrepEngine warm_engine(warm_options);
    const PassStats pass1 = RunSuite(warm_engine, corpus.box, corpus.suite);
    const PassStats warm = RunSuite(warm_engine, corpus.box, corpus.suite);

    if (print) {
      std::printf("%-10s %10.2f %10.2f %10.2f %12.3f %12.3f %8llu %10.3f\n",
                  corpus.name.c_str(), cold.seconds * 1000,
                  pass1.seconds * 1000, warm.seconds * 1000,
                  cold.ledger.bytes_decompressed / 1e6,
                  warm.ledger.bytes_decompressed / 1e6,
                  static_cast<unsigned long long>(warm.ledger.cache_hits),
                  warm.ledger.bytes_saved / 1e6);
    }

    round.cold_ms += cold.seconds * 1000;
    round.warm_ms += warm.seconds * 1000;
    round.cold.Accumulate(cold.ledger);
    round.warm_bytes += warm.ledger.bytes_decompressed;
    // Acceptance: warm pass decompresses strictly fewer fresh bytes than the
    // cold pass and actually hits the cache.
    if (cold.ledger.bytes_decompressed > 0 &&
        (warm.ledger.bytes_decompressed >= cold.ledger.bytes_decompressed ||
         warm.ledger.cache_hits == 0)) {
      std::fprintf(stderr, "FAIL %s: warm pass not cheaper than cold\n",
                   corpus.name.c_str());
      ++round.failures;
    }
  }
  return round;
}

// Scalar-vs-active-tier microbench of the padded scan kernel itself.
struct KernelResult {
  double scalar_ms = 0;
  double active_ms = 0;
  double speedup = 0;
  size_t hits = 0;
};

KernelResult RunKernelBench() {
  // A realistic padded column: fixed-width cells, values with shared
  // structure, a fragment that hits a small fraction of rows.
  constexpr uint32_t kWidth = 24;
  constexpr uint32_t kRows = 300000;
  std::string blob;
  blob.reserve(static_cast<size_t>(kWidth) * kRows);
  char cell[kWidth + 1];
  for (uint32_t row = 0; row < kRows; ++row) {
    std::snprintf(cell, sizeof(cell), "blk_%08u_%04u", row * 2654435761u,
                  row % 9973);
    std::string padded(cell);
    padded.resize(kWidth, '\0');
    blob += padded;
  }
  const std::string fragment = "_4973";

  const auto time_tier = [&](SimdTier tier, std::vector<uint32_t>* rows) {
    const ScopedSimdTier pin(tier);
    double best = 1e100;
    for (int rep = 0; rep < 5; ++rep) {
      std::vector<uint32_t> out;
      const double s = bench::TimeSeconds([&] {
        out = SearchPaddedColumn(blob, kWidth, FragmentMode::kSub, fragment);
      });
      best = std::min(best, s);
      *rows = std::move(out);
    }
    return best * 1000;
  };

  KernelResult r;
  std::vector<uint32_t> scalar_rows;
  std::vector<uint32_t> active_rows;
  r.scalar_ms = time_tier(SimdTier::kScalar, &scalar_rows);
  r.active_ms = time_tier(ActiveSimdTier(), &active_rows);
  if (scalar_rows != active_rows) {
    std::fprintf(stderr,
                 "FAIL kernel: scalar and %s tiers disagree (%zu vs %zu hits)\n",
                 SimdTierName(ActiveSimdTier()), scalar_rows.size(),
                 active_rows.size());
    std::exit(1);
  }
  r.hits = scalar_rows.size();
  r.speedup = r.active_ms > 0 ? r.scalar_ms / r.active_ms : 0;
  return r;
}

bool ForcedScalar() {
  const char* env = std::getenv("LOGGREP_FORCE_SCALAR");
  return env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
}

bool SanitizerBuild() {
#ifdef LOGGREP_SANITIZER_BUILD
  return true;
#else
  return false;
#endif
}

void WriteBenchJson(const char* path, int rounds, double cold_p50,
                    double warm_p50, const LocatorStats& cold,
                    const KernelResult& kernel) {
  std::string stages;
  for (const LedgerRow& row : kQueryLedger) {
    if (row.stage) {
      stages.append(stages.empty() ? "\n" : ",\n");
      stages.append("    \"").append(row.name).append("\": ");
      stages.append(std::to_string(cold.*row.field));
    }
  }
  std::ofstream out(path);
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"bench\": \"query_cache\",\n"
      "  \"simd_tier\": \"%s\",\n"
      "  \"forced_scalar\": %s,\n"
      "  \"sanitizer_build\": %s,\n"
      "  \"rounds\": %d,\n"
      "  \"cold_ms_p50\": %.3f,\n"
      "  \"warm_ms_p50\": %.3f,\n"
      "  \"pr2_baseline_cold_ms\": 233.0,\n"
      "  \"cold_stage_nanos\": {%s\n"
      "  },\n"
      "  \"kernel\": {\n"
      "    \"scalar_ms\": %.3f,\n"
      "    \"active_ms\": %.3f,\n"
      "    \"speedup\": %.2f,\n"
      "    \"hits\": %zu\n"
      "  }\n"
      "}\n",
      SimdTierName(ActiveSimdTier()), ForcedScalar() ? "true" : "false",
      SanitizerBuild() ? "true" : "false", rounds, cold_p50, warm_p50,
      stages.c_str(), kernel.scalar_ms, kernel.active_ms, kernel.speedup,
      kernel.hits);
  out << buf;
}

}  // namespace

int main() {
  const int rounds =
      static_cast<int>(bench::EnvUint("LOGGREP_BENCH_ROUNDS", 5, 1));
  std::printf("== query cache bench: cold vs warm (suite totals per dataset, "
              "%d rounds) ==\n",
              rounds);
  std::printf("%-10s %10s %10s %10s %12s %12s %8s %10s\n", "dataset",
              "cold ms", "pass1 ms", "warm ms", "cold MB dec", "warm MB dec",
              "hits", "saved MB");

  // Compress every corpus once; rounds measure queries only.
  std::vector<BlockCorpus> corpora;
  {
    EngineOptions options;
    options.use_cache = false;
    LogGrepEngine compressor(options);
    for (const DatasetSpec& spec : AllDatasets()) {
      const std::vector<std::string> suite = QuerySuiteForDataset(spec.name);
      if (suite.empty()) {
        continue;
      }
      const std::string text = LogGenerator(spec).Generate(bench::DatasetBytes());
      corpora.push_back({spec.name, compressor.CompressBlock(text), suite});
    }
  }

  int failures = 0;
  std::vector<double> cold_ms_rounds;
  std::vector<double> warm_ms_rounds;
  LocatorStats cold_ledger;
  uint64_t cold_bytes_total = 0;
  uint64_t warm_bytes_total = 0;
  for (int round = 0; round < rounds; ++round) {
    const BlockRoundResult r = RunBlockRound(corpora, /*print=*/round == 0);
    cold_ms_rounds.push_back(r.cold_ms);
    warm_ms_rounds.push_back(r.warm_ms);
    cold_bytes_total = r.cold.bytes_decompressed;
    warm_bytes_total = r.warm_bytes;
    cold_ledger.Accumulate(r.cold);
    failures += r.failures;
  }
  const double cold_p50 = Median(cold_ms_rounds);
  const double warm_p50 = Median(warm_ms_rounds);
  std::printf("p50 over %d rounds: cold %.1f ms / %.2f MB decompressed -> "
              "warm %.1f ms / %.2f MB decompressed\n",
              rounds, cold_p50, cold_bytes_total / 1e6, warm_p50,
              warm_bytes_total / 1e6);
  std::printf("cold stage nanos (all rounds):");
  for (const LedgerRow& row : kQueryLedger) {
    if (row.stage) {
      std::printf(" %.*s=%llu", static_cast<int>(row.name.size()),
                  row.name.data(),
                  static_cast<unsigned long long>(cold_ledger.*row.field));
    }
  }
  std::printf("\n\n");

  std::printf("== refining sessions: incremental+memo vs cold re-runs ==\n");
  std::printf("%-10s %12s %12s %10s\n", "dataset", "cold ms", "session ms",
              "speedup");
  double session_speedup_sum = 0;
  int session_rows = 0;
  for (const DatasetSpec& spec : AllDatasets()) {
    const std::vector<std::string> chain = RefinementChain(spec.name);
    if (chain.empty()) {
      continue;
    }
    const std::string text = LogGenerator(spec).Generate(bench::DatasetBytes());

    EngineOptions cold_options;
    cold_options.use_cache = false;
    cold_options.box_cache_budget_bytes = 0;
    LogGrepEngine cold_engine(cold_options);
    const std::string box = cold_engine.CompressBlock(text);
    const double cold_seconds = bench::TimeSeconds([&] {
      for (int round = 0; round < 2; ++round) {
        for (const std::string& command : chain) {
          if (!cold_engine.Query(box, command).ok()) {
            std::exit(1);
          }
        }
      }
    });

    LogGrepEngine warm_engine;
    QuerySession session(&warm_engine, box);
    const double session_seconds = bench::TimeSeconds([&] {
      for (int round = 0; round < 2; ++round) {  // round 2 replays the memo
        for (const std::string& command : chain) {
          if (!session.Query(command).ok()) {
            std::exit(1);
          }
        }
      }
    });
    const double speedup =
        session_seconds > 0 ? cold_seconds / session_seconds : 0;
    std::printf("%-10s %12.2f %12.2f %9.1fx\n", spec.name.c_str(),
                cold_seconds * 1000, session_seconds * 1000, speedup);
    session_speedup_sum += speedup;
    ++session_rows;
  }
  if (session_rows > 0) {
    std::printf("mean session speedup: %.1fx\n\n",
                session_speedup_sum / session_rows);
  }

  std::printf("== archive: cold vs warm over the shared BoxCache ==\n");
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("loggrep_query_cache_bench_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    auto archive = LogArchive::Create(dir.string());
    if (!archive.ok()) {
      std::fprintf(stderr, "%s\n", archive.status().ToString().c_str());
      return 1;
    }
    DatasetSpec spec = *FindDataset("Log A");
    for (int b = 0; b < 4; ++b) {
      spec.seed += 13;
      if (!archive->AppendBlock(LogGenerator(spec).Generate(bench::DatasetBytes()))
               .ok()) {
        return 1;
      }
    }
    const std::string command = QueryForDataset("Log A");
    ArchiveQueryResult cold_result;
    const double cold_seconds = bench::TimeSeconds([&] {
      auto r = archive->Query(command);
      if (!r.ok()) {
        std::exit(1);
      }
      cold_result = std::move(*r);
    });
    // Different command so the command cache cannot answer; only the
    // BoxCache makes it warm.
    const std::string warm_command = command + " and 1";
    ArchiveQueryResult warm_result;
    const double warm_seconds = bench::TimeSeconds([&] {
      auto r = archive->Query(warm_command);
      if (!r.ok()) {
        std::exit(1);
      }
      warm_result = std::move(*r);
    });
    std::printf("cold: %7.2f ms, %8.3f MB decompressed, %llu cache misses\n",
                cold_seconds * 1000,
                cold_result.locator.bytes_decompressed / 1e6,
                static_cast<unsigned long long>(cold_result.locator.cache_misses));
    std::printf("warm: %7.2f ms, %8.3f MB decompressed, %llu cache hits, "
                "%.3f MB saved\n",
                warm_seconds * 1000,
                warm_result.locator.bytes_decompressed / 1e6,
                static_cast<unsigned long long>(warm_result.locator.cache_hits),
                warm_result.locator.bytes_saved / 1e6);
    if (warm_result.locator.cache_hits == 0 ||
        warm_result.locator.bytes_decompressed >=
            cold_result.locator.bytes_decompressed +
                cold_result.locator.bytes_saved + 1) {
      std::fprintf(stderr, "FAIL archive: warm query did not use the cache\n");
      ++failures;
    }
  }
  std::filesystem::remove_all(dir);

  std::printf("\n== scan kernel: scalar vs %s ==\n",
              SimdTierName(ActiveSimdTier()));
  const KernelResult kernel = RunKernelBench();
  std::printf("scalar %.2f ms, %s %.2f ms -> %.2fx (%zu hits, identical)\n",
              kernel.scalar_ms, SimdTierName(ActiveSimdTier()),
              kernel.active_ms, kernel.speedup, kernel.hits);

  const std::string bench_json = bench::BenchOutputPath("BENCH_query.json");
  WriteBenchJson(bench_json.c_str(), rounds, cold_p50, warm_p50, cold_ledger,
                 kernel);
  std::printf("wrote %s\n", bench_json.c_str());

  // Kernel-speedup gate: only meaningful when the vector tier is actually
  // active and timings are undistorted (no sanitizer, no forced scalar).
  if (ActiveSimdTier() == SimdTier::kAvx2 && !SanitizerBuild() &&
      !ForcedScalar() && kernel.speedup < 1.3) {
    std::fprintf(stderr,
                 "FAIL kernel: %.2fx speedup below the 1.3x acceptance gate\n",
                 kernel.speedup);
    ++failures;
  }

  if (failures > 0) {
    std::fprintf(stderr, "%d invariant failure(s)\n", failures);
    return 1;
  }
  std::printf("all workloads: warm pass decompressed fewer fresh bytes than "
              "cold; kernel tiers agree\n");
  return 0;
}
