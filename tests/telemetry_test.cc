// Service-level observability tests: request-id propagation/minting, the
// lock-free access log (JSON well-formedness under concurrent keep-alive
// load), slow-query capture + /debug/slow, windowed SLO telemetry, and the
// /statusz + /metrics + build-info surfaces.
#include <atomic>
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

// ---- log line ring + access log -------------------------------------------

TEST(LogLineRingTest, PushPopFifoAndFullBehavior) {
  LogLineRing ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.TryPush("line" + std::to_string(i)));
  }
  std::string overflow = "overflow";
  EXPECT_FALSE(ring.TryPush(std::move(overflow)));
  EXPECT_EQ(overflow, "overflow");  // full push leaves the line untouched
  std::string out;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out, "line" + std::to_string(i));
  }
  EXPECT_FALSE(ring.TryPop(&out));
}

TEST(AccessLogTest, ConcurrentWritersEveryLineIsWellFormed) {
  std::mutex mu;
  std::vector<std::string> captured;
  AccessLogOptions options;
  options.ring_capacity = 1 << 14;  // big enough that nothing drops
  options.flush_interval_ms = 1;
  options.sink = [&](std::string_view line) {
    std::lock_guard<std::mutex> lock(mu);
    captured.emplace_back(line);
  };
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 2'000;
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

TEST(AccessLogTest, FullRingDropsAndCounts) {
  AccessLogOptions options;
  options.ring_capacity = 4;
  options.flush_interval_ms = 10'000;  // flusher effectively asleep
  AccessLog log(options);
  for (int i = 0; i < 64; ++i) {
    log.Write("{\"i\":" + std::to_string(i) + "}");
  }
  EXPECT_GT(log.dropped(), 0u);
  EXPECT_EQ(log.written() + log.dropped(), 64u);
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

TEST(ServerTelemetryTest, WindowedRatesAndBurn) {
  TelemetryOptions options;
  options.window_ns = 1'000;
  options.num_windows = 4;
  options.latency_slo_ns = 100;
  options.latency_slo_quantile = 0.99;
  options.availability_slo = 0.999;
  ServerTelemetry telemetry(options);

  // 8 requests in window 0: one 500, one 429, two 206, one over-SLO.
  uint64_t now = 10;
  for (int i = 0; i < 4; ++i) {
    telemetry.RecordRequest(200, 50, now);
  }
  telemetry.RecordRequest(500, 50, now);
  telemetry.RecordRequest(429, 10, now);
  telemetry.RecordRequest(206, 60, now);
  telemetry.RecordRequest(206, 500, now);  // also over the 100ns SLO

  WindowedStats stats = telemetry.Compute(now);
  EXPECT_EQ(stats.requests, 8u);
  EXPECT_DOUBLE_EQ(stats.error_rate, 1.0 / 8);
  EXPECT_DOUBLE_EQ(stats.shed_rate, 1.0 / 8);
  EXPECT_DOUBLE_EQ(stats.degraded_rate, 2.0 / 8);
  EXPECT_DOUBLE_EQ(stats.over_latency_slo_rate, 1.0 / 8);
  // availability burn = (1/8) / (1 - 0.999) = 125x the budget.
  EXPECT_NEAR(stats.availability_burn_rate, 125.0, 1e-9);
  // latency burn = (1/8) / (1 - 0.99) = 12.5x.
  EXPECT_NEAR(stats.latency_burn_rate, 12.5, 1e-9);

  // After the horizon passes, the window is clean: old badness does not
  // haunt today's gauges.
  now += options.window_ns * options.num_windows;
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
  options.access_log.flush_interval_ms = 1;
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
        EXPECT_GT(doc->Get("blocks_queried").AsUint(), 0u);
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
  options.access_log.flush_interval_ms = 1;
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
          "dur_ns", "stage_ns", "degraded", "shed"}) {
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
  options.access_log.flush_interval_ms = 1;
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
