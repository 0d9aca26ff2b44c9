// Closed-loop client/server throughput for loggrepd (beyond the paper;
// DESIGN.md "Serving" — the §5 cost model assumes one shared daemon whose
// caches amortize across users, and this measures that amortization).
//
// Harness: build a seeded multi-block archive, start an in-process daemon,
// then
//   1. cold pass  — one client sweeps the query suite, and before every
//      request the service drops its archive handle (and with it the box
//      and command caches): every request pays the open and decompression.
//      The sweep repeats until the cold p50/p99 rest on at least
//      kMinP99Samples samples;
//   2. warm pass  — N clients (threads, one keep-alive connection each) run
//      the same suite closed-loop for R rounds: everything answers from the
//      process-wide command/box caches. R defaults to enough rounds for
//      kMinWarmPerClient requests per client, so the warm p99 rests on
//      thousands of samples, not a handful.
// Every response is checked hit-for-hit against a serial oracle computed
// before the daemon starts.
//
// Prints one row per phase (QPS, p50/p99 ms) and writes BENCH_daemon.json
// next to the binary's cwd. Exits non-zero unless (a) zero mismatches and
// (b) warm p50 strictly below cold p50 — the warm pool is the product claim,
// so a regression here must fail CI, not just print a slower number. A phase
// whose p99 rests on fewer than kMinP99Samples samples gets a warning.
//
// Scale knobs: LOGGREP_BENCH_CLIENTS (default 8), LOGGREP_BENCH_ROUNDS
// (default: ceil(kMinWarmPerClient / suite size)), LOGGREP_BENCH_KB via
// bench_util for the corpus size.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/server/client.h"
#include "src/server/daemon.h"
#include "src/store/log_archive.h"
#include "src/workload/datasets.h"
#include "src/workload/loggen.h"
#include "src/workload/queries.h"

namespace loggrep {
namespace bench {
namespace {

constexpr size_t kBlocks = 4;
constexpr uint64_t kSeed = 271828;
constexpr size_t kMinWarmPerClient = 1000;
constexpr size_t kMinP99Samples = 100;

size_t EnvSize(const char* name, size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') {
    return fallback;
  }
  const long long parsed = std::atoll(value);
  return parsed > 0 ? static_cast<size_t>(parsed) : fallback;
}

double PercentileMs(std::vector<double>* latencies_ms, double p) {
  if (latencies_ms->empty()) {
    return 0;
  }
  std::sort(latencies_ms->begin(), latencies_ms->end());
  const size_t idx = std::min(
      latencies_ms->size() - 1,
      static_cast<size_t>(p * static_cast<double>(latencies_ms->size())));
  return (*latencies_ms)[idx];
}

struct PhaseResult {
  double seconds = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  size_t requests = 0;
  size_t mismatches = 0;
};

int Run() {
  const size_t clients = EnvSize("LOGGREP_BENCH_CLIENTS", 8);

  const std::string root =
      (std::filesystem::temp_directory_path() /
       ("loggrep_daemon_bench_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);

  // Corpus: kBlocks blocks of the first production dataset, sized so the
  // suite does real decompression work on the cold pass.
  DatasetSpec spec = AllDatasets().front();
  const size_t lines_per_block =
      std::max<size_t>(200, DatasetBytes() / kBlocks / 64);
  {
    Result<LogArchive> archive = LogArchive::Create(root + "/arch", {});
    if (!archive.ok()) {
      std::fprintf(stderr, "create: %s\n", archive.status().ToString().c_str());
      return 1;
    }
    for (size_t b = 0; b < kBlocks; ++b) {
      spec.seed = kSeed * 1000003 + b + 1;
      LogGenerator gen(spec);
      if (Status s = archive->AppendBlock(gen.GenerateLines(lines_per_block));
          !s.ok()) {
        std::fprintf(stderr, "append: %s\n", s.ToString().c_str());
        return 1;
      }
    }
  }
  const std::vector<std::string> commands = QuerySuiteForDataset(spec.name);
  const size_t rounds = EnvSize(
      "LOGGREP_BENCH_ROUNDS",
      (kMinWarmPerClient + commands.size() - 1) /
          std::max<size_t>(1, commands.size()));

  // Serial oracle before the daemon exists.
  std::map<std::string, QueryHits> oracle;
  {
    Result<LogArchive> serial = LogArchive::Open(root + "/arch");
    if (!serial.ok()) {
      std::fprintf(stderr, "open: %s\n", serial.status().ToString().c_str());
      return 1;
    }
    for (const std::string& command : commands) {
      Result<ArchiveQueryResult> r = serial->Query(command);
      if (!r.ok()) {
        std::fprintf(stderr, "oracle %s: %s\n", command.c_str(),
                     r.status().ToString().c_str());
        return 1;
      }
      oracle[command] = std::move(r->hits);
    }
  }

  DaemonOptions options;
  options.service.root = root;
  options.num_threads = clients + 1;
  options.max_inflight_queries = clients + 1;
  LoggrepDaemon daemon(options);
  Result<uint16_t> port = daemon.Start();
  if (!port.ok()) {
    std::fprintf(stderr, "start: %s\n", port.status().ToString().c_str());
    return 1;
  }

  auto run_suite = [&](DaemonClient* client, std::vector<double>* lat_ms,
                       std::atomic<size_t>* mismatches, bool cold) {
    for (const std::string& command : commands) {
      if (cold) {
        daemon.service().Clear();
      }
      const auto t0 = std::chrono::steady_clock::now();
      Result<RemoteQueryResult> r = client->Query("arch", command);
      const auto t1 = std::chrono::steady_clock::now();
      lat_ms->push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
      if (!r.ok() || r->http_status != 200 || r->hits != oracle[command]) {
        mismatches->fetch_add(1, std::memory_order_relaxed);
      }
    }
  };

  // --- cold pass: one client, every request on a freshly opened handle ----
  PhaseResult cold;
  {
    std::atomic<size_t> mismatches{0};
    std::vector<double> lat_ms;
    DaemonClient client("127.0.0.1", *port);
    const auto t0 = std::chrono::steady_clock::now();
    while (lat_ms.size() < kMinP99Samples) {
      run_suite(&client, &lat_ms, &mismatches, /*cold=*/true);
    }
    cold.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    cold.requests = lat_ms.size();
    cold.mismatches = mismatches.load();
    cold.qps = cold.seconds > 0 ? cold.requests / cold.seconds : 0;
    cold.p50_ms = PercentileMs(&lat_ms, 0.50);
    cold.p99_ms = PercentileMs(&lat_ms, 0.99);
  }

  // --- warm pass: closed loop, N clients x R rounds ----------------------
  PhaseResult warm;
  {
    std::atomic<size_t> mismatches{0};
    std::vector<std::vector<double>> lat_ms(clients);
    std::vector<std::thread> threads;
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        DaemonClient client("127.0.0.1", *port);
        for (size_t round = 0; round < rounds; ++round) {
          run_suite(&client, &lat_ms[c], &mismatches, /*cold=*/false);
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    warm.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::vector<double> all;
    for (const std::vector<double>& per_client : lat_ms) {
      all.insert(all.end(), per_client.begin(), per_client.end());
    }
    warm.requests = all.size();
    warm.mismatches = mismatches.load();
    warm.qps = warm.seconds > 0 ? warm.requests / warm.seconds : 0;
    warm.p50_ms = PercentileMs(&all, 0.50);
    warm.p99_ms = PercentileMs(&all, 0.99);
  }
  daemon.Shutdown();
  std::filesystem::remove_all(root);

  std::printf("daemon_throughput: %zu commands, %zu blocks x %zu lines\n",
              commands.size(), kBlocks, lines_per_block);
  std::printf("%-6s %8s %10s %10s %10s %6s\n", "phase", "reqs", "qps",
              "p50_ms", "p99_ms", "bad");
  for (const auto& [name, phase] :
       {std::pair<const char*, const PhaseResult&>{"cold", cold},
        {"warm", warm}}) {
    std::printf("%-6s %8zu %10.1f %10.3f %10.3f %6zu\n", name, phase.requests,
                phase.qps, phase.p50_ms, phase.p99_ms, phase.mismatches);
    if (phase.requests < kMinP99Samples) {
      std::fflush(stdout);
      std::fprintf(stderr,
                   "WARNING: %s p99 rests on %zu samples (< %zu); treat it "
                   "as an anecdote\n",
                   name, phase.requests, kMinP99Samples);
    }
  }

  {
    std::ofstream out(BenchOutputPath("BENCH_daemon.json"));
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"clients\":%zu,\"rounds\":%zu,\"commands\":%zu,"
        "\"cold\":{\"requests\":%zu,\"samples\":%zu,\"qps\":%.1f,"
        "\"p50_ms\":%.3f,\"p99_ms\":%.3f},"
        "\"warm\":{\"requests\":%zu,\"samples\":%zu,\"qps\":%.1f,"
        "\"p50_ms\":%.3f,\"p99_ms\":%.3f},"
        "\"mismatches\":%zu,\"warm_faster\":%s}\n",
        clients, rounds, commands.size(), cold.requests, cold.requests,
        cold.qps, cold.p50_ms, cold.p99_ms, warm.requests, warm.requests,
        warm.qps, warm.p50_ms,
        warm.p99_ms,
        cold.mismatches + warm.mismatches,
        warm.p50_ms < cold.p50_ms ? "true" : "false");
    out << buf;
  }

  if (cold.mismatches + warm.mismatches > 0) {
    std::fprintf(stderr, "FAIL: %zu responses disagreed with the oracle\n",
                 cold.mismatches + warm.mismatches);
    return 1;
  }
  if (!(warm.p50_ms < cold.p50_ms)) {
    std::fprintf(stderr,
                 "FAIL: warm p50 %.3f ms not below cold p50 %.3f ms — the "
                 "process-wide cache pool is not paying off\n",
                 warm.p50_ms, cold.p50_ms);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace loggrep

int main() { return loggrep::bench::Run(); }
