// Service-level observability tests: request-id propagation/minting, the
// access log (JSON well-formedness under concurrent keep-alive load, the
// drop-and-count rule), slow-query capture + /debug/slow, windowed SLO
// telemetry, and the /statusz + /metrics + build-info surfaces.
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/build_info.h"
#include "src/common/json.h"
#include "src/query/locator.h"
#include "src/server/client.h"
#include "src/server/daemon.h"
#include "src/server/request_log.h"
#include "src/server/telemetry.h"
#include "src/store/archive_set.h"
#include "src/store/log_archive.h"
#include "src/workload/datasets.h"
#include "src/workload/loggen.h"
#include "src/workload/queries.h"

namespace loggrep {
namespace {

// ---- request ids -----------------------------------------------------------

TEST(RequestIdTest, GeneratedIdsAreSixteenHexAndUnique) {
  std::string a = GenerateRequestId();
  std::string b = GenerateRequestId();
  EXPECT_EQ(a.size(), 16u);
  EXPECT_EQ(b.size(), 16u);
  EXPECT_NE(a, b);
  for (char c : a) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << a;
  }
}

TEST(RequestIdTest, HashIsStableFnv1a) {
  // FNV-1a 64 of "a": (offset ^ 'a') * prime.
  EXPECT_EQ(RequestIdHash("a"),
            (14695981039346656037ull ^ 'a') * 1099511628211ull);
  EXPECT_EQ(RequestIdHash("abc"), RequestIdHash("abc"));
  EXPECT_NE(RequestIdHash("abc"), RequestIdHash("abd"));
}

// ---- access log ------------------------------------------------------------

TEST(AccessLogTest, ConcurrentWritersEveryLineIsWellFormed) {
  std::mutex mu;
  std::vector<std::string> captured;
  AccessLogOptions options;
  options.sink = [&](std::string_view line) {
    std::lock_guard<std::mutex> lock(mu);
    captured.emplace_back(line);
  };
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 1'000;
  static_assert(kThreads * kPerThread <= kAccessLogCapacity,
                "nothing may drop, however late the flusher runs");
  {
    AccessLog log(options);
    std::vector<std::thread> writers;
    for (size_t t = 0; t < kThreads; ++t) {
      writers.emplace_back([&log, t] {
        for (size_t i = 0; i < kPerThread; ++i) {
          log.Write("{\"t\":" + std::to_string(t) +
                    ",\"i\":" + std::to_string(i) + "}");
        }
      });
    }
    for (std::thread& w : writers) {
      w.join();
    }
    log.Flush();
    EXPECT_EQ(log.written(), kThreads * kPerThread);
    EXPECT_EQ(log.dropped(), 0u);
  }
  ASSERT_EQ(captured.size(), kThreads * kPerThread);
  std::vector<size_t> next(kThreads, 0);
  for (const std::string& line : captured) {
    ASSERT_FALSE(line.empty());
    ASSERT_EQ(line.back(), '\n');
    Result<JsonValue> doc = ParseJson(line);
    ASSERT_TRUE(doc.ok()) << line;
    // Per-producer order is preserved even though producers interleave.
    const size_t t = doc->Get("t").AsUint();
    ASSERT_LT(t, kThreads);
    EXPECT_EQ(doc->Get("i").AsUint(), next[t]);
    next[t]++;
  }
}

// With the sink parked on its first line, the flusher takes no more lines:
// the buffer holds exactly kAccessLogCapacity, and each Write beyond that is
// dropped and counted, never waited for.
TEST(AccessLogTest, FullBufferDropsAndCountsTheExcess) {
  std::mutex mu;
  std::condition_variable cv;
  bool parked = false;
  bool released = false;
  size_t sunk = 0;
  AccessLogOptions options;
  options.sink = [&](std::string_view) {
    std::unique_lock<std::mutex> lock(mu);
    ++sunk;
    if (!parked) {
      parked = true;
      cv.notify_all();
      cv.wait(lock, [&] { return released; });
    }
  };
  constexpr size_t kExcess = 64;
  AccessLog log(options);
  log.Write("{\"park\":true}");
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return parked; });
  }
  for (size_t i = 0; i < kAccessLogCapacity + kExcess; ++i) {
    log.Write("{\"i\":" + std::to_string(i) + "}");
  }
  EXPECT_EQ(log.dropped(), kExcess);
  EXPECT_EQ(log.written(), 1 + kAccessLogCapacity);
  {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
  }
  cv.notify_all();
  log.Flush();
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(sunk, 1 + kAccessLogCapacity);
}

// ---- slow-query log --------------------------------------------------------

TEST(SlowQueryLogTest, BoundedNewestFirst) {
  SlowQueryLog log(3);
  for (int i = 0; i < 5; ++i) {
    SlowQueryEntry entry;
    entry.request_id = "rid" + std::to_string(i);
    entry.dur_ns = static_cast<uint64_t>(i);
    log.Record(std::move(entry));
  }
  EXPECT_EQ(log.captured(), 5u);
  const std::vector<SlowQueryEntry> snapshot = log.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);  // capacity evicted the two oldest
  EXPECT_EQ(snapshot[0].request_id, "rid4");
  EXPECT_EQ(snapshot[2].request_id, "rid2");

  Result<JsonValue> doc = ParseJson(log.RenderJson(123));
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Get("threshold_ns").AsUint(), 123u);
  EXPECT_EQ(doc->Get("captured").AsUint(), 5u);
  EXPECT_EQ(doc->Get("entries").AsArray().size(), 3u);
}

// ---- windowed telemetry ----------------------------------------------------
//
// A virtual clock drives the fixed geometry: window w covers
// [w * kWindow, (w + 1) * kWindow) and the horizon is the kWindows windows
// ending at the current one.

constexpr uint64_t kWindow = kTelemetryWindowNs;
constexpr uint64_t kWindows = kTelemetryWindows;

TEST(ServerTelemetryTest, SingleWindowAccumulates) {
  ServerTelemetry telemetry;
  telemetry.RecordRequest(200, 10, 100);
  telemetry.RecordRequest(200, 20, kWindow / 2);
  telemetry.RecordRequest(200, 30, kWindow - 1);
  const WindowedStats stats = telemetry.Compute(kWindow - 1);
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_GT(stats.p50_ns, 10u);
  EXPECT_EQ(stats.p999_ns, 30u);  // clamped to the window's max
}

TEST(ServerTelemetryTest, RotationAtExactBoundary) {
  ServerTelemetry telemetry;
  telemetry.RecordRequest(200, 1, kWindow - 1);  // window 0, last ns
  telemetry.RecordRequest(500, 2, kWindow);      // window 1, first ns
  // Both windows are inside the horizon.
  EXPECT_EQ(telemetry.Compute(kWindow).requests, 2u);
  EXPECT_EQ(telemetry.Compute(kWindow - 1).requests, 1u);  // window 1 is ahead
  // At window kWindows the horizon is windows 1..kWindows: only the
  // window-1 record (the 500) stays.
  const WindowedStats later = telemetry.Compute(kWindows * kWindow);
  EXPECT_EQ(later.requests, 1u);
  EXPECT_DOUBLE_EQ(later.error_rate, 1.0);
  EXPECT_EQ(later.p50_ns, 2u);
}

TEST(ServerTelemetryTest, OldWindowsExpireAfterAQuietPeriod) {
  ServerTelemetry telemetry;
  telemetry.RecordRequest(200, 5, 0);  // window 0
  // Window 0 is outside the horizon even before any record reuses its slot.
  EXPECT_EQ(telemetry.Compute(kWindows * kWindow).requests, 0u);
  // A quiet period truly empties the view (not "latest non-empty window").
  telemetry.RecordRequest(200, 7, kWindows * kWindow);
  EXPECT_EQ(telemetry.Compute(kWindows * kWindow).requests, 1u);
  EXPECT_EQ(telemetry.Compute((2 * kWindows - 1) * kWindow).requests, 1u);
  EXPECT_EQ(telemetry.Compute(2 * kWindows * kWindow).requests, 0u);
}

TEST(ServerTelemetryTest, CountsRollOffOneWindowAtATime) {
  ServerTelemetry telemetry;
  const uint64_t per_window[] = {5, 8, 1};  // windows 0, 1, 2
  for (uint64_t w = 0; w < 3; ++w) {
    for (uint64_t i = 0; i < per_window[w]; ++i) {
      telemetry.RecordRequest(200, 1, w * kWindow);
    }
  }
  EXPECT_EQ(telemetry.Compute((kWindows - 1) * kWindow).requests, 14u);
  EXPECT_EQ(telemetry.Compute(kWindows * kWindow).requests, 9u);
  EXPECT_EQ(telemetry.Compute((kWindows + 1) * kWindow).requests, 1u);
  EXPECT_EQ(telemetry.Compute((kWindows + 2) * kWindow).requests, 0u);
}

TEST(ServerTelemetryTest, SlotRecyclingResetsOldData) {
  ServerTelemetry telemetry;
  telemetry.RecordRequest(500, 100, 0);        // window 0 -> slot 0
  telemetry.RecordRequest(200, 200, kWindow);  // window 1 -> slot 1
  telemetry.RecordRequest(200, 300, kWindows * kWindow);  // slot 0 recycled
  // The horizon covers windows 1..kWindows; window 0's 500 must be gone
  // even though its slot was just reused.
  const WindowedStats stats = telemetry.Compute(kWindows * kWindow);
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_DOUBLE_EQ(stats.error_rate, 0.0);
  EXPECT_EQ(stats.p999_ns, 300u);
}

TEST(ServerTelemetryTest, BehindClockRecordCountsInTheNewestWindow) {
  ServerTelemetry telemetry;
  telemetry.RecordRequest(200, 1, 10 * kWindow);  // window 10
  // A thread with a stale clock reading records into window 6. It counts in
  // window 10 rather than reviving or recycling an older window.
  telemetry.RecordRequest(500, 2, 6 * kWindow);
  EXPECT_EQ(telemetry.Compute(10 * kWindow).requests, 2u);
  // Window 6 has left the horizon here; the record is still counted.
  const WindowedStats stats = telemetry.Compute((6 + kWindows) * kWindow);
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_DOUBLE_EQ(stats.error_rate, 0.5);
  EXPECT_EQ(telemetry.Compute((10 + kWindows) * kWindow).requests, 0u);
}

// Writers race across window boundaries (each thread's clock runs through
// kRotations windows, so the threads are often behind one another) while a
// reader computes continuously. Every record lands in some window inside
// the horizon, so the total is exact.
TEST(ServerTelemetryTest, ConcurrentRecordsAcrossWindowsAreConserved) {
  constexpr size_t kThreads = 4;
  constexpr uint64_t kRecordsPerThread = 20'000;
  constexpr uint64_t kRotations = 16;
  static_assert(kRotations < kWindows, "every window stays in the horizon");
  ServerTelemetry telemetry;
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&telemetry, t] {
      for (uint64_t i = 0; i < kRecordsPerThread; ++i) {
        const uint64_t window = i * kRotations / kRecordsPerThread;
        telemetry.RecordRequest(t == 0 ? 500 : 200, i, window * kWindow + t);
      }
    });
  }
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const WindowedStats stats = telemetry.Compute(kRotations * kWindow);
      ASSERT_LE(stats.requests, kThreads * kRecordsPerThread);
    }
  });
  for (std::thread& w : writers) {
    w.join();
  }
  done.store(true, std::memory_order_relaxed);
  reader.join();

  const WindowedStats stats = telemetry.Compute(kRotations * kWindow);
  EXPECT_EQ(stats.requests, kThreads * kRecordsPerThread);
  EXPECT_DOUBLE_EQ(stats.error_rate, 1.0 / kThreads);
}

TEST(ServerTelemetryTest, WindowedRatesAndBurn) {
  ServerTelemetry telemetry;
  // 8 requests in window 0: one 500, one 429, two 206, one over the SLO.
  uint64_t now = 10;
  for (int i = 0; i < 4; ++i) {
    telemetry.RecordRequest(200, 50, now);
  }
  telemetry.RecordRequest(500, 50, now);
  telemetry.RecordRequest(429, 10, now);
  telemetry.RecordRequest(206, 60, now);
  telemetry.RecordRequest(206, kLatencySloNs + 1, now);
  telemetry.RecordRequest(206, kLatencySloNs, now - 1);  // at the SLO: within

  WindowedStats stats = telemetry.Compute(now);
  EXPECT_EQ(stats.requests, 9u);
  EXPECT_DOUBLE_EQ(stats.error_rate, 1.0 / 9);
  EXPECT_DOUBLE_EQ(stats.shed_rate, 1.0 / 9);
  EXPECT_DOUBLE_EQ(stats.degraded_rate, 3.0 / 9);
  EXPECT_DOUBLE_EQ(stats.over_latency_slo_rate, 1.0 / 9);
  // availability burn = (1/9) / (1 - 0.999); latency burn = (1/9) / (1 - 0.99).
  EXPECT_NEAR(stats.availability_burn_rate, 1000.0 / 9, 1e-9);
  EXPECT_NEAR(stats.latency_burn_rate, 100.0 / 9, 1e-9);

  // After the horizon passes, the window is clean: old badness does not
  // haunt today's gauges.
  now += kWindow * kWindows;
  stats = telemetry.Compute(now);
  EXPECT_EQ(stats.requests, 0u);
  EXPECT_DOUBLE_EQ(stats.error_rate, 0.0);

  std::string page;
  telemetry.AppendWindowedMetrics(&page, now);
  EXPECT_NE(page.find("loggrep_window_requests"), std::string::npos);
  EXPECT_NE(page.find("loggrep_slo_availability_burn_rate"),
            std::string::npos);
}

TEST(BuildInfoTest, MetricsAndJsonFragments) {
  std::string metrics;
  AppendBuildInfoMetrics(&metrics);
  EXPECT_NE(metrics.find("loggrep_build_info{version=\""), std::string::npos);
  EXPECT_NE(metrics.find("git_sha=\""), std::string::npos);
  EXPECT_NE(metrics.find("loggrep_process_uptime_seconds"),
            std::string::npos);

  std::string json = "{";
  AppendBuildInfoJsonFields(&json);
  json.push_back('}');
  Result<JsonValue> doc = ParseJson(json);
  ASSERT_TRUE(doc.ok()) << json;
  EXPECT_EQ(doc->Get("version").AsString(), BuildVersion());
}

// ---- end-to-end against a live daemon -------------------------------------

class TelemetryServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (std::filesystem::temp_directory_path() /
             ("loggrep_telemetry_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                .string();
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);

    DatasetSpec spec = AllDatasets().front();
    spec.seed = 42 * 1000003 + 1;  // the SLO harness's block-0 stream
    LogGenerator gen(spec);
    Result<LogArchive> archive = LogArchive::Create(root_ + "/arch", {});
    ASSERT_TRUE(archive.ok()) << archive.status().ToString();
    ASSERT_TRUE(archive->AppendBlock(gen.GenerateLines(300)).ok());
    // Pick a suite command that actually touches the block: a command whose
    // keywords the manifest prunes would make every stats field legitimately
    // zero, which is not what these tests are about.
    for (const std::string& cmd : QuerySuiteForDataset(spec.name)) {
      Result<ArchiveQueryResult> probe = archive->Query(cmd);
      if (probe.ok() && probe->blocks_queried > 0) {
        command_ = cmd;
        break;
      }
    }
    ASSERT_FALSE(command_.empty()) << "no suite command survives pruning";
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  DaemonOptions BaseOptions() {
    DaemonOptions options;
    options.service.root = root_;
    options.num_threads = 6;
    return options;
  }

  std::string root_;
  std::string command_;
};

TEST_F(TelemetryServerTest, RequestIdEchoedMintedAndJoinsTheLogs) {
  std::mutex mu;
  std::vector<std::string> lines;
  DaemonOptions options = BaseOptions();
  options.access_log.sink = [&](std::string_view line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.emplace_back(line);
  };
  options.slow_query_threshold_ns = 1;  // everything is "slow": capture all
  LoggrepDaemon daemon(std::move(options));
  Result<uint16_t> port = daemon.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  DaemonClient client("127.0.0.1", *port);
  // Caller-supplied id round-trips.
  RemoteQueryOptions qopts;
  qopts.request_id = "my-request-0001";
  Result<RemoteQueryResult> r = client.Query("arch", command_, qopts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->http_status, 200);
  EXPECT_EQ(r->request_id, "my-request-0001");

  // Daemon-minted id comes back non-empty on every endpoint.
  Result<ParsedResponse> health = client.Get("/healthz");
  ASSERT_TRUE(health.ok());
  ASSERT_NE(health->headers.find("x-request-id"), health->headers.end());
  EXPECT_FALSE(health->headers.at("x-request-id").empty());

  daemon.Shutdown();  // flushes the access log

  // The access log line for the query joins on rid and rid64.
  const uint64_t rid64 = RequestIdHash("my-request-0001");
  bool found = false;
  {
    std::lock_guard<std::mutex> lock(mu);
    for (const std::string& line : lines) {
      Result<JsonValue> doc = ParseJson(line);
      ASSERT_TRUE(doc.ok()) << line;
      if (doc->Get("rid").AsString() == "my-request-0001") {
        found = true;
        EXPECT_EQ(doc->Get("rid64").AsString(), std::to_string(rid64));
        EXPECT_EQ(doc->Get("path").AsString(), "/query");
        EXPECT_EQ(doc->Get("archive").AsString(), "arch");
        EXPECT_EQ(doc->Get("status").AsUint(), 200u);
        EXPECT_GT(doc->Get("dur_ns").AsUint(), 0u);
        EXPECT_GT(doc->Get("stats").Get("blocks_queried").AsUint(), 0u);
      }
    }
  }
  EXPECT_TRUE(found) << "query line missing from the access log";

  // The slow-query log captured it too (threshold 1 ns), same join key.
  const std::vector<SlowQueryEntry> slow = daemon.slow_log().Snapshot();
  ASSERT_FALSE(slow.empty());
  bool slow_found = false;
  for (const SlowQueryEntry& entry : slow) {
    if (entry.request_id == "my-request-0001") {
      slow_found = true;
      EXPECT_EQ(entry.rid64, rid64);
      EXPECT_EQ(entry.archive, "arch");
      EXPECT_EQ(entry.command, command_);
      EXPECT_FALSE(entry.explain_render.empty());
    }
  }
  EXPECT_TRUE(slow_found);
}

// Slow-query capture replays the request as it was served: its tenant
// predicate prunes the same shards, and its degrade=0 fails the same way
// instead of quarantining a block the served request left alone.
// The access log and /metrics render the query ledger from the table the
// /query body uses: a cold query's access-log "stats" equals the body's key
// for key, and each stage the engine publishes moved its query.<stage>_ns
// histogram sum by exactly the body's figure.
TEST_F(TelemetryServerTest, AccessLogAndStageHistogramsAgreeWithTheBody) {
  std::mutex mu;
  std::vector<std::string> lines;
  DaemonOptions options = BaseOptions();
  options.access_log.sink = [&](std::string_view line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.emplace_back(line);
  };
  LoggrepDaemon daemon(std::move(options));
  Result<uint16_t> port = daemon.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  const std::map<std::string, HistogramSnapshot> before =
      daemon.metrics().HistogramSnapshots();
  DaemonClient client("127.0.0.1", *port);
  RemoteQueryOptions qopts;
  qopts.request_id = "ledger-agreement-1";
  Result<RemoteQueryResult> r = client.Query("arch", command_, qopts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->http_status, 200) << r->body;
  const std::map<std::string, HistogramSnapshot> after =
      daemon.metrics().HistogramSnapshots();
  daemon.Shutdown();  // flushes the access log

  Result<JsonValue> body = ParseJson(r->body);
  ASSERT_TRUE(body.ok()) << r->body;
  const std::map<std::string, JsonValue>& body_stats =
      body->Get("stats").AsObject();
  ASSERT_FALSE(body_stats.empty()) << r->body;
  EXPECT_GT(body_stats.at("blocks_queried").AsUint(), 0u) << r->body;

  bool found = false;
  {
    std::lock_guard<std::mutex> lock(mu);
    for (const std::string& line : lines) {
      Result<JsonValue> doc = ParseJson(line);
      ASSERT_TRUE(doc.ok()) << line;
      if (doc->Get("rid").AsString() != qopts.request_id) {
        continue;
      }
      found = true;
      EXPECT_EQ(doc->Get("hits").AsUint(), r->hits.size()) << line;
      const JsonValue& logged = doc->Get("stats");
      ASSERT_TRUE(logged.is_object()) << line;
      EXPECT_EQ(logged.AsObject().size(), body_stats.size()) << line;
      for (const auto& [key, value] : body_stats) {
        EXPECT_FALSE(logged.Get(key).is_null()) << key << " missing: " << line;
        EXPECT_EQ(logged.Get(key).AsUint(), value.AsUint()) << key;
      }
    }
  }
  EXPECT_TRUE(found) << "query line missing from the access log";

  size_t stages = 0;
  for (const LedgerRow& row : kQueryLedger) {
    if (!row.stage || !row.engine_metric) {
      continue;
    }
    std::string key;
    AppendLedgerKey(&key, row);
    const std::string series = "query." + key;
    const auto was = before.find(series);
    const auto now = after.find(series);
    ASSERT_NE(now, after.end()) << series << " not published";
    const uint64_t delta =
        now->second.sum - (was == before.end() ? 0 : was->second.sum);
    EXPECT_EQ(delta, body_stats.at(key).AsUint()) << series;
    ++stages;
  }
  EXPECT_EQ(stages, 5u);  // open, stamp_filter, decompress, scan, reconstruct
}

TEST_F(TelemetryServerTest, SlowQueryCaptureReplaysTheWholeRequest) {
  DatasetSpec spec = AllDatasets().front();
  spec.seed = 42 * 1000003 + 1;  // the same text as "arch": command_ hits it
  const std::string text = LogGenerator(spec).GenerateLines(300);
  {
    Result<std::unique_ptr<ArchiveSet>> set =
        ArchiveSet::Create(root_ + "/set", {});
    ASSERT_TRUE(set.ok()) << set.status().ToString();
    ASSERT_TRUE((*set)->Append("ta", text, 1000).ok());
    ASSERT_TRUE((*set)->Append("tb", text, 1000).ok());
  }
  {
    Result<LogArchive> bad = LogArchive::Create(root_ + "/bad", {});
    ASSERT_TRUE(bad.ok()) << bad.status().ToString();
    ASSERT_TRUE(bad->AppendBlock(text).ok());
    ASSERT_TRUE(bad->AppendBlock(text).ok());
  }
  const std::string block = root_ + "/bad/block-1.lgc";
  {
    std::fstream f(block, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(std::filesystem::file_size(block) / 2));
    f.write("XXXXXXXXXXXXXXXX", 16);
    ASSERT_TRUE(f.good());
  }

  DaemonOptions options = BaseOptions();
  options.slow_query_threshold_ns = 1;  // capture every query
  LoggrepDaemon daemon(std::move(options));
  Result<uint16_t> port = daemon.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  DaemonClient client("127.0.0.1", *port);
  RemoteQueryOptions tenant_ta;
  tenant_ta.tenant = "ta";
  tenant_ta.request_id = "tenant-ta";
  Result<RemoteQueryResult> r = client.Query("set", command_, tenant_ta);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->http_status, 200);
  RemoteQueryOptions strict;
  strict.degrade = false;
  strict.request_id = "strict";
  r = client.Query("bad", command_, strict);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->http_status, 500);
  daemon.Shutdown();  // drains connections: every capture has run

  std::map<std::string, SlowQueryEntry> captured;
  for (SlowQueryEntry& entry : daemon.slow_log().Snapshot()) {
    captured[entry.request_id] = std::move(entry);
  }
  ASSERT_EQ(captured.count("tenant-ta"), 1u);
  const std::string& tree = captured["tenant-ta"].explain_render;
  EXPECT_NE(tree.find("tenant 'ta': visited"), std::string::npos) << tree;
  EXPECT_NE(tree.find("tenant 'tb': pruned"), std::string::npos) << tree;
  ASSERT_EQ(captured.count("strict"), 1u);
  EXPECT_EQ(captured["strict"].status, 500);
  EXPECT_FALSE(std::filesystem::exists(root_ + "/bad/quarantine.json"))
      << "the capture re-run quarantined a block the strict request did not";
}

TEST_F(TelemetryServerTest, AccessLogWellFormedUnderConcurrentKeepAlive) {
  std::mutex mu;
  std::vector<std::string> lines;
  DaemonOptions options = BaseOptions();
  options.access_log.sink = [&](std::string_view line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.emplace_back(line);
  };
  LoggrepDaemon daemon(std::move(options));
  Result<uint16_t> port = daemon.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  constexpr size_t kClients = 4;
  constexpr size_t kRequests = 30;
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      DaemonClient client("127.0.0.1", *port);  // one keep-alive connection
      for (size_t i = 0; i < kRequests; ++i) {
        RemoteQueryOptions qopts;
        qopts.request_id =
            "c" + std::to_string(c) + "-" + std::to_string(i);
        Result<RemoteQueryResult> r = client.Query("arch", command_, qopts);
        if (!r.ok() || r->http_status != 200) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  daemon.Shutdown();
  EXPECT_EQ(failures.load(), 0u);

  // Every line the concurrent handlers emitted is one complete JSON object
  // with the full field set — no torn, interleaved, or truncated lines.
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_GE(lines.size(), kClients * kRequests);
  size_t query_lines = 0;
  for (const std::string& line : lines) {
    Result<JsonValue> doc = ParseJson(line);
    ASSERT_TRUE(doc.ok()) << line;
    for (const char* field :
         {"ts_ms", "rid", "rid64", "method", "path", "status", "bytes",
          "dur_ns", "stats", "degraded", "shed"}) {
      EXPECT_FALSE(doc->Get(field).is_null()) << field << " in " << line;
    }
    if (doc->Get("path").AsString() == "/query") {
      query_lines++;
    }
  }
  EXPECT_EQ(query_lines, kClients * kRequests);
}

TEST_F(TelemetryServerTest, StatuszSlowEndpointAndWindowedMetrics) {
  DaemonOptions options = BaseOptions();
  options.slow_query_threshold_ns = 1;
  LoggrepDaemon daemon(std::move(options));
  Result<uint16_t> port = daemon.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  DaemonClient client("127.0.0.1", *port);
  Result<RemoteQueryResult> r = client.Query("arch", command_);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->http_status, 200);

  Result<ParsedResponse> statusz = client.Get("/statusz");
  ASSERT_TRUE(statusz.ok());
  EXPECT_EQ(statusz->status, 200);
  for (const char* needle :
       {"loggrepd statusz", "uptime", "archives_open", "rolling window",
        "latency p99", "slo burn", "slow_queries"}) {
    EXPECT_NE(statusz->body.find(needle), std::string::npos)
        << needle << " missing from:\n"
        << statusz->body;
  }

  Result<ParsedResponse> slow = client.Get("/debug/slow");
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(slow->status, 200);
  Result<JsonValue> slow_doc = ParseJson(slow->body);
  ASSERT_TRUE(slow_doc.ok()) << slow->body;
  EXPECT_GE(slow_doc->Get("captured").AsUint(), 1u);
  const auto& entries = slow_doc->Get("entries").AsArray();
  ASSERT_FALSE(entries.empty());
  EXPECT_FALSE(entries[0].Get("explain").AsString().empty());

  Result<ParsedResponse> metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  for (const char* needle :
       {"loggrep_window_requests", "loggrep_window_request_p99_ns",
        "loggrep_slo_availability_burn_rate", "loggrep_build_info{",
        "loggrep_process_uptime_seconds", "loggrep_access_log_dropped",
        "loggrep_server_request_ns_p99"}) {
    EXPECT_NE(metrics->body.find(needle), std::string::npos)
        << needle << " missing from /metrics";
  }
}

TEST_F(TelemetryServerTest, AccessLogFileIsWritten) {
  DaemonOptions options = BaseOptions();
  options.access_log.path = root_ + "/access.log";
  LoggrepDaemon daemon(std::move(options));
  Result<uint16_t> port = daemon.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  DaemonClient client("127.0.0.1", *port);
  ASSERT_TRUE(client.Query("arch", command_).ok());
  daemon.Shutdown();

  std::ifstream in(root_ + "/access.log");
  ASSERT_TRUE(in.good());
  std::string line;
  size_t parsed = 0;
  while (std::getline(in, line)) {
    ASSERT_TRUE(ParseJson(line).ok()) << line;
    parsed++;
  }
  EXPECT_GE(parsed, 1u);
}

}  // namespace
}  // namespace loggrep
