// End-to-end tests for loggrepd (src/server/daemon.h): a real daemon on an
// ephemeral loopback port, driven through the blocking DaemonClient and raw
// sockets. Every query answer is checked hit-for-hit against a serial
// LogArchive opened on the same directory — the daemon must be a transport,
// never a different engine.
//
// Covered contracts (single source: src/server/archive_service.h):
//   200 complete / 206 degraded+partial / 400 bad query / 404 missing
//   archive / 500 block failure with degrade=0 / 429 over admission limit,
// plus process-wide cache warmth across connections, keep-alive reuse,
// pipelining, per-request deadlines, and graceful drain under load.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/json.h"
#include "src/query/locator.h"
#include "src/server/archive_service.h"
#include "src/server/client.h"
#include "src/server/daemon.h"
#include "src/store/archive_set.h"
#include "src/store/fs_util.h"
#include "src/store/log_archive.h"
#include "src/store/shard_router.h"
#include "src/store/storage_env.h"
#include "src/workload/datasets.h"
#include "src/workload/loggen.h"
#include "src/workload/queries.h"

namespace loggrep {
namespace {

constexpr size_t kBlocks = 3;
constexpr size_t kLinesPerBlock = 120;
constexpr uint64_t kSeed = 42;

std::vector<std::string> SplitIntoLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    lines.emplace_back(text, pos, nl - pos);
    pos = nl + 1;
  }
  return lines;
}

// A keyword guaranteed to hit block `b` (its longest alphanumeric run in the
// block's first line) so block pruning cannot excuse the block.
std::string AnchorKeyword(const std::vector<std::string>& block_lines) {
  const std::string& line = block_lines.front();
  std::string best;
  std::string cur;
  for (char c : line) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      cur.push_back(c);
    } else {
      if (cur.size() > best.size()) best = cur;
      cur.clear();
    }
  }
  if (cur.size() > best.size()) best = cur;
  return best;
}

void ExpectHitsEqual(const QueryHits& expected, const QueryHits& actual,
                     const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label << ": hit count diverges";
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i].first, actual[i].first)
        << label << ": hit " << i << " line number diverges";
    ASSERT_EQ(expected[i].second, actual[i].second)
        << label << ": line " << expected[i].first << " text diverges";
  }
}

// Minimal raw-socket client for the byte-level cases (pipelining, 405) the
// structured DaemonClient deliberately cannot emit.
class RawConnection {
 public:
  explicit RawConnection(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawConnection() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  bool Send(std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t sent = ::send(fd_, bytes.data(), bytes.size(), 0);
      if (sent <= 0) return false;
      bytes.remove_prefix(static_cast<size_t>(sent));
    }
    return true;
  }

  // Reads until `count` complete responses have been parsed.
  bool ReadResponses(size_t count, std::vector<ParsedResponse>* out) {
    std::string data;
    char buf[8192];
    while (out->size() < count) {
      ParsedResponse response;
      size_t consumed = 0;
      if (ParseResponseBytes(data, &response, &consumed)) {
        out->push_back(std::move(response));
        data.erase(0, consumed);
        continue;
      }
      const ssize_t got = ::recv(fd_, buf, sizeof(buf), 0);
      if (got <= 0) return false;
      data.append(buf, static_cast<size_t>(got));
    }
    return true;
  }

 private:
  int fd_ = -1;
};

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (std::filesystem::temp_directory_path() /
             ("loggrep_server_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                .string();
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);

    DatasetSpec spec = AllDatasets().front();
    for (size_t b = 0; b < kBlocks; ++b) {
      spec.seed = kSeed * 1000003 + b + 1;
      LogGenerator gen(spec);
      block_texts_.push_back(gen.GenerateLines(kLinesPerBlock));
      block_lines_.push_back(SplitIntoLines(block_texts_.back()));
    }
    commands_ = QuerySuiteForDataset(spec.name);
    ASSERT_FALSE(commands_.empty());

    Result<LogArchive> archive = LogArchive::Create(ArchiveDir(), {});
    ASSERT_TRUE(archive.ok()) << archive.status().ToString();
    for (const std::string& text : block_texts_) {
      ASSERT_TRUE(archive->AppendBlock(text).ok());
    }
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  std::string ArchiveDir() const { return root_ + "/arch"; }

  DaemonOptions BaseOptions() {
    DaemonOptions options;
    options.service.root = root_;
    options.num_threads = 4;
    return options;
  }

  // Serial oracle: a private LogArchive on the same files.
  QueryHits OracleHits(const std::string& command) {
    Result<LogArchive> archive = LogArchive::Open(ArchiveDir());
    EXPECT_TRUE(archive.ok()) << archive.status().ToString();
    Result<ArchiveQueryResult> r = archive->Query(command);
    EXPECT_TRUE(r.ok()) << command << ": " << r.status().ToString();
    return r->hits;
  }

  std::string root_;
  std::vector<std::string> block_texts_;
  std::vector<std::vector<std::string>> block_lines_;
  std::vector<std::string> commands_;
};

TEST_F(ServerTest, HealthzMetricsAndUnknownEndpoints) {
  LoggrepDaemon daemon(BaseOptions());
  Result<uint16_t> port = daemon.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  ASSERT_GT(*port, 0);

  DaemonClient client("127.0.0.1", *port);
  Result<ParsedResponse> health = client.Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
  EXPECT_NE(health->body.find("\"status\":\"ok\""), std::string::npos)
      << health->body;
  EXPECT_NE(health->body.find("\"version\":"), std::string::npos);
  EXPECT_NE(health->body.find("\"uptime_seconds\":"), std::string::npos);
  EXPECT_NE(health->body.find("\"archives_open\":"), std::string::npos);

  Result<ParsedResponse> metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->status, 200);
  EXPECT_NE(metrics->body.find("loggrep_server_requests"), std::string::npos)
      << metrics->body.substr(0, 400);

  Result<ParsedResponse> missing = client.Get("/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);
}

TEST_F(ServerTest, QueryAndExplainMatchTheSerialOracleHitForHit) {
  LoggrepDaemon daemon(BaseOptions());
  Result<uint16_t> port = daemon.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  DaemonClient client("127.0.0.1", *port);
  for (const std::string& command : commands_) {
    const QueryHits expected = OracleHits(command);

    Result<RemoteQueryResult> post = client.Query("arch", command);
    ASSERT_TRUE(post.ok()) << command << ": " << post.status().ToString();
    EXPECT_EQ(post->http_status, 200) << post->body;
    EXPECT_TRUE(post->complete);
    ExpectHitsEqual(expected, post->hits, command + " [POST]");

    RemoteQueryOptions get_options;
    get_options.use_post = false;
    Result<RemoteQueryResult> get = client.Query("arch", command, get_options);
    ASSERT_TRUE(get.ok()) << command << ": " << get.status().ToString();
    EXPECT_EQ(get->http_status, 200);
    ExpectHitsEqual(expected, get->hits, command + " [GET]");

    Result<RemoteQueryResult> explain = client.Explain("arch", command);
    ASSERT_TRUE(explain.ok()) << explain.status().ToString();
    EXPECT_EQ(explain->http_status, 200);
    ExpectHitsEqual(expected, explain->hits, command + " [explain]");
    Result<JsonValue> doc = ParseJson(explain->body);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    const JsonValue& ex = doc->Get("explain");
    ASSERT_TRUE(ex.is_object()) << explain->body.substr(0, 200);
    EXPECT_TRUE(ex.Get("invariant_ok").AsBool())
        << ex.Get("invariant_detail").AsString();
    EXPECT_FALSE(ex.Get("render").AsString().empty());
  }
  EXPECT_EQ(daemon.service().open_archives(), 1u);
}

TEST_F(ServerTest, ArchiveStaysWarmAcrossConnections) {
  LoggrepDaemon daemon(BaseOptions());
  Result<uint16_t> port = daemon.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  const std::string command = AnchorKeyword(block_lines_[0]);

  // Cold: first client pays the decompression (nothing cached yet).
  uint64_t cold_bytes = 0;
  {
    DaemonClient first("127.0.0.1", *port);
    Result<RemoteQueryResult> cold = first.Query("arch", command);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    ASSERT_EQ(cold->http_status, 200);
    cold_bytes = cold->bytes_decompressed;
    EXPECT_GT(cold_bytes, 0u) << "cold query should decompress";
    EXPECT_EQ(cold->blocks_from_cache, 0u);
  }

  // Warm: a *different* connection reuses the process-wide archive handle —
  // every block answers from the command cache, which decodes nothing: the
  // stats report zero decode work and blocks_from_cache says why.
  DaemonClient second("127.0.0.1", *port);
  Result<RemoteQueryResult> warm = second.Query("arch", command);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_EQ(warm->http_status, 200);
  EXPECT_GT(warm->blocks_queried, 0u);
  EXPECT_EQ(warm->blocks_from_cache, warm->blocks_queried)
      << "a repeat of the same command must be fully cache-served";
  EXPECT_EQ(warm->bytes_decompressed, 0u);
  for (const char* zero :
       {"\"cache_misses\":0,", "\"capsules_decompressed\":0,",
        "\"decompress_ns\":0,", "\"open_ns\":0,", "\"scan_ns\":0,",
        "\"reconstruct_ns\":0,"}) {
    EXPECT_NE(warm->body.find(zero), std::string::npos)
        << zero << " missing in " << warm->body;
  }
  ExpectHitsEqual(OracleHits(command), warm->hits, command + " [warm]");
}

TEST_F(ServerTest, DegradedQueryReturns206WithPartialReport) {
  FaultInjectingStorageEnv fault(FaultOptions{.seed = kSeed});
  fault.AddPermanentFault("block-1.lgc", StatusCode::kIOError);

  DaemonOptions options = BaseOptions();
  options.service.archive.env = &fault;
  options.service.archive.retry.max_attempts = 2;
  options.service.archive.engine.box_cache_budget_bytes = 0;
  LoggrepDaemon daemon(options);
  Result<uint16_t> port = daemon.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  // An anchor from the sick block forces the degraded path.
  const std::string command = AnchorKeyword(block_lines_[1]);
  // Expected: the full oracle minus the sick block's line range.
  QueryHits expected;
  for (const auto& [line, text] : OracleHits(command)) {
    if (line < kLinesPerBlock || line >= 2 * kLinesPerBlock) {
      expected.emplace_back(line, text);
    }
  }

  DaemonClient client("127.0.0.1", *port);
  Result<RemoteQueryResult> degraded = client.Query("arch", command);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(degraded->http_status, 206) << degraded->body;
  EXPECT_FALSE(degraded->complete);
  EXPECT_EQ(degraded->lines_missing, kLinesPerBlock);
  ExpectHitsEqual(expected, degraded->hits, command + " [degraded]");
  EXPECT_EQ(ExitCodeForHttpStatus(degraded->http_status), 3);

  // The structured failure names the sick block.
  Result<JsonValue> doc = ParseJson(degraded->body);
  ASSERT_TRUE(doc.ok());
  const auto& failures = doc->Get("partial").Get("failures").AsArray();
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].Get("seq").AsUint(), 1u);
  EXPECT_FALSE(failures[0].Get("error").AsString().empty());
  // The hole names its block relative to the serving root.
  EXPECT_NE(failures[0].Get("error").AsString().find("arch/block-1.lgc"),
            std::string::npos)
      << degraded->body;
  EXPECT_EQ(degraded->body.find(root_), std::string::npos) << degraded->body;

  // ?degrade=0 flips the same query to a hard 500.
  RemoteQueryOptions no_degrade;
  no_degrade.degrade = false;
  Result<RemoteQueryResult> strict = client.Query("arch", command, no_degrade);
  ASSERT_TRUE(strict.ok()) << strict.status().ToString();
  EXPECT_EQ(strict->http_status, 500) << strict->body;
  EXPECT_FALSE(strict->error.empty());
  EXPECT_EQ(strict->body.find(root_), std::string::npos) << strict->body;
  EXPECT_EQ(ExitCodeForHttpStatus(strict->http_status), 1);
}

TEST_F(ServerTest, PerRequestDeadlineBoundsRetryStorms) {
  FaultInjectingStorageEnv fault(FaultOptions{.seed = kSeed});
  // Retryable failures forever: without a deadline the retry policy grinds
  // through max_attempts per block (virtual clock, so no wall time either
  // way — the assertion is on the *outcome*).
  fault.AddPermanentFault(".lgc", StatusCode::kUnavailable);

  DaemonOptions options = BaseOptions();
  options.service.archive.env = &fault;
  options.service.archive.retry.max_attempts = 100;
  options.service.archive.engine.box_cache_budget_bytes = 0;
  LoggrepDaemon daemon(options);
  Result<uint16_t> port = daemon.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  DaemonClient client("127.0.0.1", *port);
  RemoteQueryOptions with_deadline;
  with_deadline.deadline_ms = 50;
  Result<RemoteQueryResult> r =
      client.Query("arch", AnchorKeyword(block_lines_[0]), with_deadline);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->http_status, 206) << r->body;
  EXPECT_TRUE(r->hits.empty()) << "every block is sick";
  EXPECT_GT(
      daemon.metrics().GetOrCreate("storage.retry.deadline_exceeded")->value(),
      0u);
}

TEST_F(ServerTest, BadRequestsMapOntoTheStatusContract) {
  LoggrepDaemon daemon(BaseOptions());
  Result<uint16_t> port = daemon.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  DaemonClient client("127.0.0.1", *port);

  // Missing command entirely.
  Result<ParsedResponse> no_query = client.Get("/query?archive=arch");
  ASSERT_TRUE(no_query.ok());
  EXPECT_EQ(no_query->status, 400);

  // Unparseable query command.
  Result<RemoteQueryResult> bad = client.Query("arch", "x and and y");
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  EXPECT_EQ(bad->http_status, 400) << bad->body;
  EXPECT_FALSE(bad->error.empty());
  EXPECT_EQ(ExitCodeForHttpStatus(bad->http_status), 1);

  // Archive that does not exist under the root.
  Result<RemoteQueryResult> missing = client.Query("no-such-archive", "x");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->http_status, 404) << missing->body;
  // The error names the archive as the client did, not the serving root.
  EXPECT_NE(missing->error.find("no-such-archive/archive.manifest"),
            std::string::npos)
      << missing->body;
  EXPECT_EQ(missing->body.find(root_), std::string::npos) << missing->body;

  // Escape attempts are rejected before touching the filesystem.
  for (const char* name : {"../etc", "a/../../b", "/abs/path"}) {
    Result<RemoteQueryResult> escape = client.Query(name, "x");
    ASSERT_TRUE(escape.ok()) << name;
    EXPECT_EQ(escape->http_status, 400) << name << ": " << escape->body;
  }
}

TEST_F(ServerTest, ResolveArchivePathAndContractHelpers) {
  EXPECT_EQ(ResolveArchivePath("/root", "a/b"), "/root/a/b");
  EXPECT_EQ(ResolveArchivePath("/root", ""), "/root");
  EXPECT_EQ(ResolveArchivePath("/root", "."), "/root");
  EXPECT_EQ(ResolveArchivePath("/root", "/abs"), "");
  EXPECT_EQ(ResolveArchivePath("/root", ".."), "");
  EXPECT_EQ(ResolveArchivePath("/root", "a/../b"), "");
  EXPECT_EQ(ResolveArchivePath("/root", "a//b"), "");
  EXPECT_EQ(ResolveArchivePath("/root", "a\\b"), "");

  EXPECT_EQ(ExitCodeForHttpStatus(200), 0);
  EXPECT_EQ(ExitCodeForHttpStatus(206), 3);
  for (int status : {400, 404, 429, 500, 503}) {
    EXPECT_EQ(ExitCodeForHttpStatus(status), 1) << status;
  }

  EXPECT_EQ(HttpStatusForQueryError(InvalidArgument("x")), 400);
  EXPECT_EQ(HttpStatusForQueryError(NotFound("x")), 404);
  EXPECT_EQ(HttpStatusForQueryError(IOError("x")), 500);
  EXPECT_EQ(HttpStatusForQueryError(CorruptData("x")), 500);
}

// Builds a 2-tenant x 2-window ArchiveSet under `dir` (window span 1000 ns,
// no size cut) and returns the append receipts + per-row line texts so the
// caller can compute exact global line numbers. Rows land in shard-id order
// 0..3: a@w0, b@w0, a@w1 (seals shard 0), b@w1 (seals shard 1).
struct FedRow {
  const char* tenant;
  const char* tag;
  uint64_t ts;
};
constexpr FedRow kFedRows[] = {{"a", "alphaearly", 100},
                               {"b", "bravoearly", 150},
                               {"a", "alphalate", 1100},
                               {"b", "bravolate", 1150}};
constexpr size_t kFedLinesPerRow = 3;

void BuildFederatedSet(const std::string& dir,
                       std::vector<AppendReceipt>* receipts,
                       std::vector<std::vector<std::string>>* row_lines,
                       StorageEnv* env = nullptr) {
  ArchiveSetOptions set_options;
  set_options.window_span_ns = 1000;
  set_options.max_shard_bytes = 0;
  if (env != nullptr) set_options.archive.env = env;
  Result<std::unique_ptr<ArchiveSet>> set = ArchiveSet::Create(dir, set_options);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  for (const FedRow& row : kFedRows) {
    std::string text;
    for (size_t i = 0; i < kFedLinesPerRow; ++i) {
      text += std::string(row.tag) + " event-" + std::to_string(i) +
              " shared-token\n";
    }
    Result<AppendReceipt> receipt = (*set)->Append(row.tenant, text, row.ts);
    ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
    receipts->push_back(*receipt);
    row_lines->push_back(SplitIntoLines(text));
  }
}

// Expected global hits for a subset of rows: receipt line_base + local line.
QueryHits FedExpected(const std::vector<AppendReceipt>& receipts,
                      const std::vector<std::vector<std::string>>& row_lines,
                      std::initializer_list<size_t> rows) {
  QueryHits expected;
  for (size_t r : rows) {
    for (size_t i = 0; i < row_lines[r].size(); ++i) {
      expected.emplace_back(receipts[r].first_global_line + i,
                            row_lines[r][i]);
    }
  }
  return expected;
}

TEST_F(ServerTest, FederatedSetServesPredicatedQueriesOverHttp) {
  std::vector<AppendReceipt> receipts;
  std::vector<std::vector<std::string>> row_lines;
  ASSERT_NO_FATAL_FAILURE(
      BuildFederatedSet(root_ + "/fedset", &receipts, &row_lines));

  LoggrepDaemon daemon(BaseOptions());
  Result<uint16_t> port = daemon.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  DaemonClient client("127.0.0.1", *port);

  // Unpredicated: every shard answers, hits carry global line numbers.
  Result<RemoteQueryResult> full = client.Query("fedset", "shared-token");
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full->http_status, 200) << full->body;
  EXPECT_TRUE(full->complete);
  ExpectHitsEqual(FedExpected(receipts, row_lines, {0, 1, 2, 3}), full->hits,
                  "fedset [full]");
  {
    Result<JsonValue> doc = ParseJson(full->body);
    ASSERT_TRUE(doc.ok());
    const JsonValue& shards = doc->Get("shards");
    EXPECT_EQ(shards.Get("total").AsUint(), 4u) << full->body;
    EXPECT_EQ(shards.Get("pruned").AsUint(), 0u);
    EXPECT_EQ(shards.Get("visited").AsUint(), 4u);
    EXPECT_EQ(shards.Get("failed").AsUint(), 0u);
  }

  // Tenant predicate: the other tenant's shards are pruned, not scanned.
  RemoteQueryOptions tenant_a;
  tenant_a.tenant = "a";
  Result<RemoteQueryResult> only_a =
      client.Query("fedset", "shared-token", tenant_a);
  ASSERT_TRUE(only_a.ok()) << only_a.status().ToString();
  EXPECT_EQ(only_a->http_status, 200) << only_a->body;
  ExpectHitsEqual(FedExpected(receipts, row_lines, {0, 2}), only_a->hits,
                  "fedset [tenant=a]");
  {
    Result<JsonValue> doc = ParseJson(only_a->body);
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc->Get("shards").Get("pruned").AsUint(), 2u) << only_a->body;
    EXPECT_EQ(doc->Get("shards").Get("visited").AsUint(), 2u);
  }

  // Time predicate: from= past window 0 prunes the two sealed early shards.
  RemoteQueryOptions late_only;
  late_only.from_ns = 1000;
  Result<RemoteQueryResult> late =
      client.Query("fedset", "shared-token", late_only);
  ASSERT_TRUE(late.ok()) << late.status().ToString();
  EXPECT_EQ(late->http_status, 200) << late->body;
  ExpectHitsEqual(FedExpected(receipts, row_lines, {2, 3}), late->hits,
                  "fedset [from=1000]");
  {
    Result<JsonValue> doc = ParseJson(late->body);
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc->Get("shards").Get("pruned").AsUint(), 2u) << late->body;
  }

  // An empty time range is a client error, not an empty answer.
  RemoteQueryOptions inverted;
  inverted.from_ns = 2000;
  inverted.to_ns = 1000;
  Result<RemoteQueryResult> bad =
      client.Query("fedset", "shared-token", inverted);
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  EXPECT_EQ(bad->http_status, 400) << bad->body;
  EXPECT_FALSE(bad->error.empty());

  // Explain over the set: same hits, shard accounting invariant holds.
  Result<RemoteQueryResult> explain =
      client.Explain("fedset", "shared-token", tenant_a);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_EQ(explain->http_status, 200) << explain->body;
  ExpectHitsEqual(FedExpected(receipts, row_lines, {0, 2}), explain->hits,
                  "fedset [explain tenant=a]");
  {
    Result<JsonValue> doc = ParseJson(explain->body);
    ASSERT_TRUE(doc.ok());
    const JsonValue& ex = doc->Get("explain");
    ASSERT_TRUE(ex.is_object()) << explain->body.substr(0, 200);
    EXPECT_TRUE(ex.Get("invariant_ok").AsBool())
        << ex.Get("invariant_detail").AsString();
    EXPECT_FALSE(ex.Get("render").AsString().empty());
  }

  // The same daemon keeps serving the plain (non-set) archive: one process,
  // both handle kinds.
  const std::string mono_command = commands_.front();
  Result<RemoteQueryResult> mono = client.Query("arch", mono_command);
  ASSERT_TRUE(mono.ok()) << mono.status().ToString();
  EXPECT_EQ(mono->http_status, 200);
  ExpectHitsEqual(OracleHits(mono_command), mono->hits,
                  mono_command + " [mono beside set]");
  EXPECT_EQ(daemon.service().open_archives(), 2u);
}

TEST_F(ServerTest, MalformedRequestParametersAreRefused) {
  // Regression: `to=abc` parsed as 0 and time-pruned every shard, so the
  // daemon answered 200, complete, with hits silently missing. Every
  // malformed knob is a 400 naming the parameter.
  std::vector<AppendReceipt> receipts;
  std::vector<std::vector<std::string>> row_lines;
  ASSERT_NO_FATAL_FAILURE(
      BuildFederatedSet(root_ + "/fedset", &receipts, &row_lines));
  LoggrepDaemon daemon(BaseOptions());
  Result<uint16_t> port = daemon.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  DaemonClient client("127.0.0.1", *port);

  const std::string query = "/query?archive=fedset&q=shared-token";
  const std::pair<const char*, const char*> bad[] = {
      {"to", "abc"},        {"to", "-1"},          {"from", ""},
      {"from", "%205"},     {"deadline_ms", "5s"}, {"degrade", "off"},
      {"degrade", ""},      {"to", "18446744073709551616"}};
  for (const auto& [name, value] : bad) {
    const std::string path = query + "&" + name + "=" + value;
    Result<ParsedResponse> response = client.Get(path);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status, 400) << path << " -> " << response->body;
    EXPECT_NE(response->body.find(std::string("'") + name + "'"),
              std::string::npos)
        << path << " -> " << response->body;
  }

  // Well-formed values still answer, with every hit.
  const QueryHits all = FedExpected(receipts, row_lines, {0, 1, 2, 3});
  for (const char* ok_suffix :
       {"&to=18446744073709551615", "&from=0&to=2000", "&degrade=yes",
        "&degrade=0", "&deadline_ms=5000"}) {
    Result<ParsedResponse> response = client.Get(query + ok_suffix);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status, 200) << ok_suffix << " -> " << response->body;
    Result<JsonValue> doc = ParseJson(response->body);
    ASSERT_TRUE(doc.ok()) << response->body;
    EXPECT_EQ(doc->Get("hits").AsArray().size(), all.size()) << ok_suffix;
  }
}

TEST_F(ServerTest, FederatedBrokenShardMapsTo206WithShardFailures) {
  FaultInjectingStorageEnv fault(FaultOptions{.seed = kSeed});
  std::vector<AppendReceipt> receipts;
  std::vector<std::vector<std::string>> row_lines;
  ASSERT_NO_FATAL_FAILURE(
      BuildFederatedSet(root_ + "/fedset", &receipts, &row_lines, &fault));

  // Every file of shard 1 (tenant b, early window) fails: the daemon's cold
  // open of that shard dies, so the federation degrades to the other three.
  const size_t kSick = 1;
  fault.AddPermanentFault(
      ShardDirName(receipts[kSick].shard_id, kFedRows[kSick].tenant),
      StatusCode::kIOError);

  DaemonOptions options = BaseOptions();
  options.service.archive.env = &fault;
  options.service.archive.retry.max_attempts = 2;
  options.service.archive.engine.box_cache_budget_bytes = 0;
  LoggrepDaemon daemon(options);
  Result<uint16_t> port = daemon.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  DaemonClient client("127.0.0.1", *port);

  Result<RemoteQueryResult> degraded = client.Query("fedset", "shared-token");
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(degraded->http_status, 206) << degraded->body;
  EXPECT_FALSE(degraded->complete);
  ExpectHitsEqual(FedExpected(receipts, row_lines, {0, 2, 3}), degraded->hits,
                  "fedset [degraded]");
  EXPECT_EQ(ExitCodeForHttpStatus(degraded->http_status), 3);

  // The body names the sick shard.
  Result<JsonValue> doc = ParseJson(degraded->body);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Get("shards").Get("failed").AsUint(), 1u) << degraded->body;
  const auto& failures = doc->Get("shard_failures").AsArray();
  ASSERT_EQ(failures.size(), 1u) << degraded->body;
  EXPECT_EQ(failures[0].Get("shard").AsUint(), receipts[kSick].shard_id);
  EXPECT_EQ(failures[0].Get("tenant").AsString(), kFedRows[kSick].tenant);
  EXPECT_FALSE(failures[0].Get("error").AsString().empty());
  EXPECT_EQ(degraded->body.find(root_), std::string::npos) << degraded->body;

  // Strict mode refuses the partial answer outright.
  RemoteQueryOptions no_degrade;
  no_degrade.degrade = false;
  Result<RemoteQueryResult> strict =
      client.Query("fedset", "shared-token", no_degrade);
  ASSERT_TRUE(strict.ok()) << strict.status().ToString();
  EXPECT_EQ(strict->http_status, 500) << strict->body;
  EXPECT_FALSE(strict->error.empty());
}

// A corrupt block inside a visited shard is a block hole, not a shard hole:
// the set's explain render lists it under its shard, worded as a plain
// archive's render words it, and no body names the serving root.
TEST_F(ServerTest, FederatedExplainListsFailedBlocksOfVisitedShards) {
  std::vector<AppendReceipt> receipts;
  std::vector<std::vector<std::string>> row_lines;
  ASSERT_NO_FATAL_FAILURE(
      BuildFederatedSet(root_ + "/fedset", &receipts, &row_lines));
  const size_t kSick = 1;
  const std::string shard_dir =
      ShardDirName(receipts[kSick].shard_id, kFedRows[kSick].tenant);
  ASSERT_TRUE(WriteFileBytes(root_ + "/fedset/" + shard_dir + "/block-0.lgc",
                             "garbage-bytes", nullptr)
                  .ok());

  LoggrepDaemon daemon(BaseOptions());
  Result<uint16_t> port = daemon.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  DaemonClient client("127.0.0.1", *port);
  Result<RemoteQueryResult> explained = client.Explain("fedset", "shared-token");
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  EXPECT_EQ(explained->http_status, 206) << explained->body;
  ExpectHitsEqual(FedExpected(receipts, row_lines, {0, 2, 3}), explained->hits,
                  "fedset [explain, corrupt block]");
  EXPECT_EQ(explained->body.find(root_), std::string::npos) << explained->body;

  Result<JsonValue> doc = ParseJson(explained->body);
  ASSERT_TRUE(doc.ok()) << explained->body;
  EXPECT_EQ(doc->Get("shards").Get("failed").AsUint(), 0u);
  const auto& failures = doc->Get("partial").Get("failures").AsArray();
  ASSERT_EQ(failures.size(), 1u) << explained->body;
  const std::string& error = failures[0].Get("error").AsString();
  EXPECT_NE(error.find("CORRUPT"), std::string::npos) << error;
  const std::string render =
      doc->Get("explain").Get("render").AsString();
  const std::string shard_line =
      "shard " + std::to_string(receipts[kSick].shard_id) + " tenant 'b': ";
  const size_t at = render.find(shard_line);
  ASSERT_NE(at, std::string::npos) << render;
  const size_t next = render.find('\n', at) + 1;
  EXPECT_EQ(render.substr(next, render.find('\n', next) + 1 - next),
            "  block 0  [FAILED: " + error + "]\n")
      << render;
}

// Set maintenance runs only on request: POST /compact merges, the merge is
// counted once (the registry's set.compaction.* counters, read by both
// /statusz and /metrics), and the access log carries request lines only.
TEST_F(ServerTest, ServedSetCompactionIsCountedOnStatuszAndMetrics) {
  {
    // One tenant over three windows: two sealed shards and the active one.
    ArchiveSetOptions set_options;
    set_options.window_span_ns = 1000;
    set_options.max_shard_bytes = 0;
    Result<std::unique_ptr<ArchiveSet>> set =
        ArchiveSet::Create(root_ + "/fedset", set_options);
    ASSERT_TRUE(set.ok()) << set.status().ToString();
    for (uint64_t w = 0; w < 3; ++w) {
      const std::string text =
          "alpha event-" + std::to_string(w) + " shared-token\n";
      ASSERT_TRUE((*set)->Append("a", text, w * 1000 + 100).ok());
    }
  }
  std::mutex log_mu;
  std::vector<std::string> log_lines;
  DaemonOptions options = BaseOptions();
  options.access_log.flush_interval_ms = 1;
  options.access_log.sink = [&](std::string_view line) {
    std::lock_guard<std::mutex> lock(log_mu);
    log_lines.emplace_back(line);
  };
  LoggrepDaemon daemon(std::move(options));
  Result<uint16_t> port = daemon.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  DaemonClient client("127.0.0.1", *port);

  Result<RemoteQueryResult> before = client.Query("fedset", "shared-token");
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_EQ(before->http_status, 200) << before->body;
  ASSERT_EQ(before->hits.size(), 3u);

  // Viewing /statusz creates no compaction series.
  Result<ParsedResponse> idle = client.Get("/statusz");
  ASSERT_TRUE(idle.ok());
  EXPECT_NE(idle->body.find("0 merges (0 shards merged), 0 failures"),
            std::string::npos)
      << idle->body;
  Result<ParsedResponse> idle_metrics = client.Get("/metrics");
  ASSERT_TRUE(idle_metrics.ok());
  EXPECT_EQ(idle_metrics->body.find("set_compaction"), std::string::npos);

  RawConnection raw(*port);
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(raw.Send(
      "POST /compact?archive=fedset HTTP/1.1\r\nHost: t\r\n"
      "Content-Length: 0\r\n\r\n"));
  std::vector<ParsedResponse> compacted;
  ASSERT_TRUE(raw.ReadResponses(1, &compacted));
  EXPECT_EQ(compacted[0].status, 200) << compacted[0].body;
  Result<JsonValue> doc = ParseJson(compacted[0].body);
  ASSERT_TRUE(doc.ok()) << compacted[0].body;
  EXPECT_EQ(doc->Get("report").Get("merges_committed").AsUint(), 1u);
  EXPECT_EQ(doc->Get("report").Get("shards_merged").AsUint(), 2u);

  Result<ParsedResponse> statusz = client.Get("/statusz");
  ASSERT_TRUE(statusz.ok());
  EXPECT_EQ(statusz->status, 200);
  EXPECT_NE(statusz->body.find("federation maintenance (1 set(s) open)"),
            std::string::npos)
      << statusz->body;
  EXPECT_NE(statusz->body.find("1 merges (2 shards merged), 0 failures"),
            std::string::npos)
      << statusz->body;
  EXPECT_EQ(statusz->body.find("janitor"), std::string::npos)
      << statusz->body;

  Result<ParsedResponse> metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->body.find("\nloggrep_set_compaction_merges 1\n"),
            std::string::npos)
      << metrics->body;
  EXPECT_NE(metrics->body.find("\nloggrep_sets_open 1"), std::string::npos);

  Result<RemoteQueryResult> after = client.Query("fedset", "shared-token");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->http_status, 200) << after->body;
  ExpectHitsEqual(before->hits, after->hits, "fedset [after compaction]");

  daemon.Shutdown();  // flushes the access log
  std::lock_guard<std::mutex> lock(log_mu);
  size_t compact_lines = 0;
  for (const std::string& line : log_lines) {
    Result<JsonValue> entry = ParseJson(line);
    ASSERT_TRUE(entry.ok()) << line;
    EXPECT_TRUE(entry->Get("event").is_null()) << line;
    EXPECT_FALSE(entry->Get("path").AsString().empty()) << line;
    compact_lines += entry->Get("path").AsString() == "/compact" ? 1 : 0;
  }
  EXPECT_EQ(compact_lines, 1u);
}

// The layout every /query and /explain body shares, whatever the handle
// kind: it parses, the hit list is followed directly by "stats" (clients
// such as perfbench locate the stats by that adjacency), the stats are one
// flat object of the 15 counters, and "shards" appears exactly for sets.
void ExpectResponseLayout(const ServiceResponse& response, bool is_set) {
  const std::string& body = response.body;
  Result<JsonValue> doc = ParseJson(body);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString() << "\n" << body;
  const size_t hits_at = body.find("\"hits\":[");
  ASSERT_NE(hits_at, std::string::npos) << body;
  const size_t list_at = hits_at + 7;
  const size_t stats_at = body.find("],\"stats\":{", list_at);
  ASSERT_NE(stats_at, std::string::npos) << body;
  Result<JsonValue> hits = ParseJson(
      std::string_view(body).substr(list_at, stats_at + 1 - list_at));
  ASSERT_TRUE(hits.ok()) << "hit list does not end at \"stats\": " << body;
  EXPECT_EQ(hits->AsArray().size(), doc->Get("hits").AsArray().size());

  const std::map<std::string, JsonValue>& stats =
      doc->Get("stats").AsObject();
  static const char* const kStatsFields[] = {
      "blocks_pruned",      "blocks_queried",        "blocks_from_cache",
      "bytes_decompressed", "bytes_saved",           "cache_hits",
      "cache_misses",       "capsules_decompressed", "capsules_stamp_filtered",
      "decompress_ns",      "open_ns",               "prune_ns",
      "reconstruct_ns",     "scan_ns",               "stamp_filter_ns"};
  EXPECT_EQ(stats.size(), std::size(kStatsFields)) << body;
  for (const char* field : kStatsFields) {
    const auto it = stats.find(field);
    ASSERT_NE(it, stats.end()) << field << " missing in " << body;
    EXPECT_EQ(it->second.kind(), JsonValue::Kind::kNumber) << field;
  }
  EXPECT_EQ(doc->Get("shards").is_object(), is_set) << body;
  EXPECT_EQ(body.find("\"shards\":") != std::string::npos, is_set) << body;
  EXPECT_EQ(doc->Get("complete").AsBool(), response.http_status == 200);
}

TEST_F(ServerTest, ArchivesAndSetsShareOneResponseLayout) {
  FaultInjectingStorageEnv fault(FaultOptions{.seed = kSeed});
  std::vector<AppendReceipt> receipts;
  std::vector<std::vector<std::string>> row_lines;
  ASSERT_NO_FATAL_FAILURE(
      BuildFederatedSet(root_ + "/fedset", &receipts, &row_lines, &fault));
  ServiceOptions options;
  options.root = root_;
  options.archive.env = &fault;
  options.archive.retry.max_attempts = 2;
  options.archive.engine.box_cache_budget_bytes = 0;

  const auto run = [](ArchiveService* service, const std::string& archive,
                      const std::string& command, bool explain) {
    ServiceRequest request;
    request.archive = archive;
    request.command = command;
    request.explain = explain;
    return service->Run(request);
  };
  {
    ArchiveService service(options);
    for (const bool explain : {false, true}) {
      SCOPED_TRACE(explain ? "/explain" : "/query");
      const ServiceResponse plain =
          run(&service, "arch", commands_.front(), explain);
      EXPECT_EQ(plain.http_status, 200) << plain.body;
      ExpectResponseLayout(plain, /*is_set=*/false);
      const ServiceResponse set =
          run(&service, "fedset", "shared-token", explain);
      EXPECT_EQ(set.http_status, 200) << set.body;
      ExpectResponseLayout(set, /*is_set=*/true);
    }
  }

  // Degraded: a sick block in the plain archive, a sick shard in the set.
  fault.AddPermanentFault("block-1.lgc", StatusCode::kIOError);
  fault.AddPermanentFault(
      ShardDirName(receipts[1].shard_id, kFedRows[1].tenant),
      StatusCode::kIOError);
  ArchiveService service(options);
  for (const bool explain : {false, true}) {
    SCOPED_TRACE(explain ? "degraded /explain" : "degraded /query");
    const ServiceResponse plain =
        run(&service, "arch", AnchorKeyword(block_lines_[1]), explain);
    EXPECT_EQ(plain.http_status, 206) << plain.body;
    ExpectResponseLayout(plain, /*is_set=*/false);
    const ServiceResponse set =
        run(&service, "fedset", "shared-token", explain);
    EXPECT_EQ(set.http_status, 206) << set.body;
    ExpectResponseLayout(set, /*is_set=*/true);
  }
}

// The query ledger is one table: the body's stats object renders every row
// exactly once, under its key and with its own value, in table order after
// the three block counts; Accumulate sums every row.
TEST(QueryLedgerTest, StatsObjectRendersEveryRowOnceInTableOrder) {
  ArchiveQueryResult result;
  result.blocks_pruned = 1;
  result.blocks_queried = 2;
  result.blocks_from_cache = 3;
  uint64_t value = 100;
  for (const LedgerRow& row : kQueryLedger) {
    result.locator.*row.field = value++;
  }
  const std::string json = QueryStatsJson(result);
  Result<JsonValue> doc = ParseJson(json);
  ASSERT_TRUE(doc.ok()) << json;
  EXPECT_EQ(doc->AsObject().size(), 3 + std::size(kQueryLedger)) << json;
  EXPECT_EQ(doc->Get("blocks_pruned").AsUint(), 1u);
  EXPECT_EQ(doc->Get("blocks_queried").AsUint(), 2u);
  EXPECT_EQ(doc->Get("blocks_from_cache").AsUint(), 3u);
  size_t last_at = json.find("\"blocks_from_cache\":");
  value = 100;
  for (const LedgerRow& row : kQueryLedger) {
    std::string key;
    AppendLedgerKey(&key, row);
    const std::string quoted = "\"" + key + "\":";
    const size_t at = json.find(quoted);
    ASSERT_NE(at, std::string::npos) << key << " missing in " << json;
    EXPECT_EQ(json.find(quoted, at + 1), std::string::npos) << key;
    EXPECT_GT(at, last_at) << key << " out of table order in " << json;
    last_at = at;
    EXPECT_EQ(doc->Get(key).AsUint(), value++) << key;
  }

  LocatorStats sum = result.locator;
  sum.Accumulate(result.locator);
  for (const LedgerRow& row : kQueryLedger) {
    EXPECT_EQ(sum.*row.field, 2 * (result.locator.*row.field)) << row.name;
  }
}

TEST_F(ServerTest, AdmissionControlShedsLoadWith429) {
  DaemonOptions options = BaseOptions();
  // 0 is honored literally: every query bounces. This pins the overload
  // path deterministically (no timing games).
  options.max_inflight_queries = 0;
  options.retry_after_seconds = 7;
  LoggrepDaemon daemon(options);
  Result<uint16_t> port = daemon.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  DaemonClient client("127.0.0.1", *port);
  Result<ParsedResponse> bounced =
      client.Get("/query?archive=arch&q=" + UrlEncode("x"));
  ASSERT_TRUE(bounced.ok()) << bounced.status().ToString();
  EXPECT_EQ(bounced->status, 429);
  EXPECT_EQ(bounced->headers.at("retry-after"), "7");

  // Health and metrics stay reachable under overload — admission control
  // only covers query execution.
  Result<ParsedResponse> health = client.Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 200);
  EXPECT_GT(
      daemon.metrics().GetOrCreate("server.admission_rejects")->value(), 0u);
}

TEST_F(ServerTest, KeepAliveReusesOneConnection) {
  LoggrepDaemon daemon(BaseOptions());
  Result<uint16_t> port = daemon.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  DaemonClient client("127.0.0.1", *port);
  const std::string command = commands_.front();
  const QueryHits expected = OracleHits(command);
  for (int i = 0; i < 5; ++i) {
    Result<RemoteQueryResult> r = client.Query("arch", command);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->http_status, 200);
    ExpectHitsEqual(expected, r->hits, command + " [reuse]");
  }
  EXPECT_EQ(
      daemon.metrics().GetOrCreate("server.connections_accepted")->value(),
      1u)
      << "five keep-alive queries must ride one connection";
}

TEST_F(ServerTest, PipelinedRequestsAnswerInOrder) {
  LoggrepDaemon daemon(BaseOptions());
  Result<uint16_t> port = daemon.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  RawConnection raw(*port);
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(raw.Send(
      "GET /healthz HTTP/1.1\r\n\r\n"
      "POST /metrics HTTP/1.1\r\n\r\n"   // wrong method: 405, closes
      ));
  std::vector<ParsedResponse> responses;
  ASSERT_TRUE(raw.ReadResponses(2, &responses));
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_EQ(responses[1].status, 405);
  EXPECT_EQ(responses[1].headers.at("connection"), "close");
}

TEST_F(ServerTest, MalformedBytesGetA4xxNeverACrash) {
  LoggrepDaemon daemon(BaseOptions());
  Result<uint16_t> port = daemon.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  {
    RawConnection raw(*port);
    ASSERT_TRUE(raw.ok());
    ASSERT_TRUE(raw.Send("THIS IS NOT HTTP\r\n\r\n"));
    std::vector<ParsedResponse> responses;
    ASSERT_TRUE(raw.ReadResponses(1, &responses));
    EXPECT_GE(responses[0].status, 400);
    EXPECT_EQ(responses[0].headers.at("connection"), "close");
  }

  // The daemon survives and keeps serving.
  DaemonClient client("127.0.0.1", *port);
  Result<ParsedResponse> health = client.Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 200);
  EXPECT_GT(daemon.metrics().GetOrCreate("server.parse_errors")->value(), 0u);
}

TEST_F(ServerTest, ShutdownDrainsInflightWorkThenStops) {
  LoggrepDaemon daemon(BaseOptions());
  Result<uint16_t> port = daemon.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  const std::string command = commands_.front();
  const QueryHits expected = OracleHits(command);

  // Clients hammer the daemon while the main thread shuts it down. Every
  // *answered* query must be a correct answer — a drain finishes work, it
  // never truncates it. Transport errors after the drain are expected.
  std::atomic<bool> stop{false};
  std::atomic<size_t> answered{0};
  std::atomic<size_t> wrong{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&] {
      DaemonClient client("127.0.0.1", *port);
      while (!stop.load(std::memory_order_acquire)) {
        Result<RemoteQueryResult> r = client.Query("arch", command);
        if (!r.ok()) {
          break;  // daemon gone
        }
        if (r->http_status != 200 || r->hits != expected) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Let the clients get some answers, then pull the plug mid-storm.
  while (answered.load(std::memory_order_acquire) < 8) {
    std::this_thread::yield();
  }
  daemon.Shutdown();
  EXPECT_FALSE(daemon.running());
  stop.store(true, std::memory_order_release);
  for (std::thread& t : clients) {
    t.join();
  }
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GE(answered.load(), 8u);
  EXPECT_EQ(daemon.inflight_queries(), 0u);
  EXPECT_EQ(daemon.service().open_archives(), 0u) << "Clear() after drain";

  // Idempotent: a second Shutdown (and the destructor's) is a no-op.
  daemon.Shutdown();
}

}  // namespace
}  // namespace loggrep
