// loggrep_cli: a grep-for-compressed-logs command line tool over real files.
//
// A <target> is any stored form: a regular file is one CapsuleBox (.lgc); a
// directory is an archive, or a federated ArchiveSet root when it holds a
// set_manifest.json. Directories are queried through the same ArchiveService
// code loggrepd runs (open, sniff, predicate check, explain, status).
//
//   loggrep_cli compress <input.log> <output.lgc>
//   loggrep_cli demo <output.lgc>          (writes a synthetic sample block)
//   loggrep_cli ingest <dir> <input.log|-> [block_mb] [threads]
//       (streaming pipelined ingest into an archive, created if missing;
//        '-' reads stdin; prints IngestMetrics)
//   loggrep_cli set-ingest <root> <tenant> <input.log> [ts_ns]
//       (appends to the tenant's active shard of the ArchiveSet at root,
//        creating the set / rolling shards as needed)
//   loggrep_cli grep <target> "<query>" [tenant|-] [from_ns] [to_ns]
//       (prints the matching lines as line:text; on a set, the tenant ("-" =
//        all) and the inclusive event-time range prune whole shards before
//        the scatter; a box or plain archive ignores them, as loggrepd does)
//   loggrep_cli explain <target> "<query>" [tenant|-] [from_ns] [to_ns]
//       (per-shard / per-block / per-variable / per-Capsule decision tree;
//        exits 1 if the pruned+cached+decompressed==visited invariant fails)
//   loggrep_cli metrics <target> "<query>" [tenant|-] [from_ns] [to_ns]
//       (runs the query, then prints the metrics registry in Prometheus
//        exposition format — or JSON with --stats-json)
//   loggrep_cli stat <target>
//       (box: templates and groups; archive: per-block table; set: per-shard
//        table and per-tenant compaction debt)
//   loggrep_cli verify <dir>
//   loggrep_cli repair <dir|root>
//       (re-verifies quarantined blocks, in every shard of a set; reinstates
//        healthy ones, tombstones the rest)
//   loggrep_cli set-compact <root>
//   loggrep_cli serve <root-dir> [port] [threads] [max_inflight]
//       (runs loggrepd: serves every archive under root-dir over HTTP;
//        prints the bound port; SIGTERM/SIGINT drain gracefully)
//   loggrep_cli remote-query <host:port> <archive> "<query>"
//       (queries a running loggrepd; prints hits like grep)
//
// Global flags (any subcommand):
//   --stats-json     emit registry counters+histograms as sorted-key JSON
//   --trace=<file>   enable span tracing, write Chrome trace_event JSON
//                    (open in chrome://tracing or Perfetto)
//   --no-degrade     strict complete-or-error queries: any failed or
//                    quarantined block is exit 1 (local) / HTTP 500 (remote)
//                    instead of a partial result
//
// Exit codes: 0 = success, 1 = error, 2 = usage, 3 = PARTIAL (the query
// succeeded but one or more quarantined blocks left holes in the result —
// scripts must be able to tell a complete answer from a degraded one). Query
// verbs, local or remote, map their outcome through the one contract in
// src/server/archive_service.h.
//
// Query commands follow §3: search strings joined by AND / OR / NOT,
// wildcards ('*', '?') within a single token, e.g.
//   loggrep_cli grep app.lgc "error AND dst:11.8.* NOT state:503"
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <filesystem>

#include "src/capsule/capsule_box.h"
#include "src/common/metrics.h"
#include "src/common/metrics_export.h"
#include "src/common/trace.h"
#include "src/core/engine.h"
#include "src/ingest/log_ingestor.h"
#include "src/query/explain.h"
#include "src/server/archive_service.h"
#include "src/server/client.h"
#include "src/server/daemon.h"
#include "src/store/archive_set.h"
#include "src/store/log_archive.h"
#include "src/store/shard_router.h"
#include "src/store/verify.h"
#include "src/workload/datasets.h"
#include "src/workload/loggen.h"

namespace {

using namespace loggrep;

// Process-wide registry shared by every subcommand ("query.*", "ingest.*",
// "query.box_cache.*"); exported by `metrics` / --stats-json.
MetricsRegistry g_metrics;
bool g_stats_json = false;
// --no-degrade: strict complete-or-error queries. Locally this sets
// ServiceRequest::degrade = false; against a daemon it sends ?degrade=0 —
// the same contract either way (a block failure or standing quarantined
// hole is exit 1 / HTTP 500 instead of exit 3 / HTTP 206).
bool g_no_degrade = false;

// Exit code for a repair that left tombstoned holes (the contract's
// "partial").
constexpr int kExitPartial = 3;

int Fail(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return 1;
}

EngineOptions CliEngineOptions() {
  EngineOptions opts;
  opts.metrics = &g_metrics;
  return opts;
}

ArchiveOptions CliArchiveOptions() {
  ArchiveOptions opts;
  opts.metrics = &g_metrics;
  opts.engine.metrics = &g_metrics;
  return opts;
}

ArchiveSetOptions CliSetOptions() {
  ArchiveSetOptions opts;
  opts.archive = CliArchiveOptions();
  return opts;
}

void MaybePrintStatsJson() {
  if (g_stats_json) {
    std::printf("%s\n", ExportJson(g_metrics).c_str());
  }
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return IOError("cannot open " + path);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  return out.good();
}

int Compress(const std::string& in_path, const std::string& out_path) {
  Result<std::string> raw = ReadFile(in_path);
  if (!raw.ok()) {
    return Fail(raw.status());
  }
  LogGrepEngine engine;
  const std::string box = engine.CompressBlock(*raw);
  if (!WriteFile(out_path, box)) {
    return 1;
  }
  std::printf("%zu -> %zu bytes (ratio %.2fx)\n", raw->size(), box.size(),
              box.empty() ? 0.0 : static_cast<double>(raw->size()) / box.size());
  return 0;
}

int BoxStat(const std::string& path) {
  Result<std::string> bytes = ReadFile(path);
  if (!bytes.ok()) {
    return Fail(bytes.status());
  }
  auto box = CapsuleBox::Open(*bytes);
  if (!box.ok()) {
    std::fprintf(stderr, "not a capsule box: %s\n",
                 box.status().ToString().c_str());
    return 1;
  }
  const CapsuleBoxMeta& meta = box->meta();
  std::printf("lines:      %u\n", meta.total_lines);
  std::printf("templates:  %zu\n", meta.templates.size());
  std::printf("capsules:   %zu\n", box->CapsuleCount());
  std::printf("layout:     %s\n", meta.padded ? "fixed-length (padded)"
                                              : "variable-length");
  std::printf("outliers:   %zu lines\n", meta.outlier_line_numbers.size());
  for (size_t g = 0; g < meta.groups.size() && g < 12; ++g) {
    const GroupMeta& group = meta.groups[g];
    int real = 0;
    int nominal = 0;
    int whole = 0;
    for (const VarMeta& v : group.vars) {
      if (v.is_real()) {
        ++real;
      } else if (v.is_nominal()) {
        ++nominal;
      } else {
        ++whole;
      }
    }
    std::printf("  group %-2zu rows=%-8u vars(real/nominal/whole)=%d/%d/%d  %s\n",
                g, group.row_count, real, nominal, whole,
                meta.templates[group.template_id].ToString().c_str());
  }
  if (meta.groups.size() > 12) {
    std::printf("  ... and %zu more groups\n", meta.groups.size() - 12);
  }
  return 0;
}

int Demo(const std::string& out_path) {
  const DatasetSpec* spec = FindDataset("Log G");
  const std::string raw = LogGenerator(*spec).Generate(1 << 20);
  const std::string raw_path = out_path + ".raw.log";
  if (!WriteFile(raw_path, raw)) {
    return 1;
  }
  std::printf("wrote sample log %s\n", raw_path.c_str());
  const int rc = Compress(raw_path, out_path);
  if (rc == 0) {
    std::printf("try: loggrep_cli grep %s \"Operation:ReadChunk and "
                "SATADiskId:7\"\n",
                out_path.c_str());
  }
  return rc;
}

// Streaming pipelined ingest: reads `in_path` (or stdin when "-") in fixed
// chunks and feeds them to a LogIngestor, then prints the metrics snapshot.
int Ingest(const std::string& dir, const std::string& in_path,
           size_t block_mb, size_t threads) {
  IngestOptions options;
  options.target_block_bytes = block_mb << 20;
  options.num_workers = threads;
  options.metrics = &g_metrics;
  auto ingestor = LogIngestor::Start(dir, options);
  if (!ingestor.ok()) {
    return Fail(ingestor.status());
  }

  std::ifstream file;
  std::istream* in = &std::cin;
  if (in_path != "-") {
    file.open(in_path, std::ios::binary);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", in_path.c_str());
      return 1;
    }
    in = &file;
  }

  std::string chunk(1 << 20, '\0');
  while (in->good()) {
    in->read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    const std::streamsize got = in->gcount();
    if (got <= 0) {
      break;
    }
    if (Status s = (*ingestor)->Append(
            std::string_view(chunk.data(), static_cast<size_t>(got)));
        !s.ok()) {
      return Fail(s);
    }
  }
  if (Status s = (*ingestor)->Finish(); !s.ok()) {
    return Fail(s);
  }

  const IngestMetrics m = (*ingestor)->metrics();
  std::printf("blocks committed:   %llu (cut %llu)\n",
              static_cast<unsigned long long>(m.blocks_committed),
              static_cast<unsigned long long>(m.blocks_cut));
  std::printf("raw -> stored:      %.1f MB -> %.1f MB (ratio %.2fx)\n",
              m.raw_bytes / 1e6, m.stored_bytes / 1e6,
              m.stored_bytes > 0
                  ? static_cast<double>(m.raw_bytes) / m.stored_bytes
                  : 0.0);
  std::printf("lines:              %llu\n",
              static_cast<unsigned long long>(m.lines));
  std::printf("throughput:         %.1f MB/s over %.2f s wall\n",
              m.wall_seconds > 0 ? m.raw_bytes / 1e6 / m.wall_seconds : 0.0,
              m.wall_seconds);
  std::printf("queue depth hwm:    %llu (window)\n",
              static_cast<unsigned long long>(m.queue_depth_hwm));
  std::printf("producer stalled:   %.2f s\n", m.producer_stall_seconds);
  std::printf("stage seconds:      summary %.2f  compress %.2f  commit %.2f\n",
              m.summary_seconds, m.compress_seconds, m.commit_seconds);
  MaybePrintStatsJson();
  return 0;
}

// Runs one query verb's request against `target`. A regular file is one
// CapsuleBox answered by the engine; like a plain archive it has no tenant or
// time, so the predicates are ignored. Anything else is a directory served by
// an ArchiveService rooted at it, through the code loggrepd runs.
Result<QueryOutcome> RunQuery(const std::string& target,
                              const ServiceRequest& request) {
  if (!std::filesystem::is_regular_file(target)) {
    ServiceOptions options;
    options.root = target;
    options.archive = CliArchiveOptions();
    return ArchiveService(std::move(options)).Query(request);
  }
  Result<std::string> box = ReadFile(target);
  if (!box.ok()) {
    return box.status();
  }
  QueryExplain tree;
  tree.command = request.command;
  BlockExplain* block =
      request.explain ? &tree.blocks.emplace_back() : nullptr;
  LogGrepEngine engine(CliEngineOptions());
  Result<QueryResult> result = engine.Query(*box, request.command, block);
  if (!result.ok()) {
    return result.status();
  }
  QueryOutcome outcome;
  outcome.result.hits = std::move(result->hits);
  outcome.result.blocks_queried = 1;
  outcome.result.blocks_from_cache = result->from_cache ? 1 : 0;
  outcome.result.locator = result->locator;
  if (block != nullptr) {
    outcome.explain = SummarizeExplain(tree);
  }
  return outcome;
}

void PrintHits(const QueryHits& hits) {
  for (const auto& [line, text] : hits) {
    std::printf("%llu:%s\n", static_cast<unsigned long long>(line + 1),
                text.c_str());
  }
}

// The stderr summary of every query verb, whatever the target kind; only a
// set has the shard line.
void PrintSummary(const QueryOutcome& outcome) {
  const SetQueryResult& r = outcome.result;
  const LocatorStats& s = r.locator;
  std::fprintf(stderr, "%zu hits; blocks: %u pruned, %u queried, %u cached\n",
               r.hits.size(), r.blocks_pruned, r.blocks_queried,
               r.blocks_from_cache);
  if (outcome.is_set) {
    std::fprintf(stderr, "shards: %u pruned, %u visited, %u failed of %u\n",
                 r.shards_pruned, r.shards_visited, r.shards_failed,
                 r.shards_total);
  }
  std::fprintf(stderr,
               "stages (ms): prune %.2f  open %.2f  scan %.2f  stamp %.2f  "
               "decompress %.2f  reconstruct %.2f\n",
               s.prune_nanos / 1e6, s.open_nanos / 1e6, s.scan_nanos / 1e6,
               s.stamp_filter_nanos / 1e6, s.decompress_nanos / 1e6,
               s.reconstruct_nanos / 1e6);
  std::fprintf(stderr,
               "capsules: %llu decompressed, %llu filtered by stamps; "
               "cache: %llu hits, %llu misses, %.1f MB saved\n",
               static_cast<unsigned long long>(s.capsules_decompressed),
               static_cast<unsigned long long>(s.capsules_stamp_filtered),
               static_cast<unsigned long long>(s.cache_hits),
               static_cast<unsigned long long>(s.cache_misses),
               s.bytes_saved / 1e6);
  if (!r.complete()) {
    std::fputs(r.RenderPartial().c_str(), stderr);
  }
}

// grep, explain and metrics share one run and one summary; each prints its
// own stdout (the hit lines, the decision tree, the registry). Explain also
// gates on the pruned+cached+decompressed==visited invariant.
int QueryVerb(const std::string& verb, const std::string& target,
              const ServiceRequest& request) {
  Result<QueryOutcome> outcome = RunQuery(target, request);
  if (!outcome.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 outcome.status().ToString().c_str());
    return ExitCodeForHttpStatus(HttpStatusForQueryError(outcome.status()));
  }
  if (verb == "grep") {
    PrintHits(outcome->result.hits);
  } else if (verb == "explain") {
    std::fputs(outcome->explain->render.c_str(), stdout);
  }
  PrintSummary(*outcome);
  if (outcome->explain && !outcome->explain->invariant_ok) {
    std::fprintf(stderr, "explain accounting invariant VIOLATED: %s\n",
                 outcome->explain->invariant_detail.c_str());
    return 1;
  }
  if (verb == "metrics") {
    const std::string out = g_stats_json ? ExportJson(g_metrics) + "\n"
                                         : ExportPrometheus(g_metrics);
    std::fputs(out.c_str(), stdout);
  } else {
    MaybePrintStatsJson();
  }
  return ExitCodeForHttpStatus(HttpStatusForQuery(outcome->result));
}

// fsck: re-hash stored bytes, decompress every Capsule, reconstruct every
// line and checksum against the manifest's content hashes. Read-only.
int Verify(const std::string& dir) {
  const VerifyReport report = VerifyArchive(dir);
  std::printf("%s\n", report.Summary().c_str());
  if (!report.fatal.ok()) {
    return 1;
  }
  for (const BlockVerifyResult& block : report.blocks) {
    std::printf("  block %-3u %8llu lines  %8llu bytes  %s\n", block.seq,
                static_cast<unsigned long long>(block.line_count),
                static_cast<unsigned long long>(block.stored_bytes),
                block.ok() ? "OK" : "CORRUPT");
  }
  return report.ok() ? 0 : 1;
}

bool IsSetRoot(const std::string& dir) {
  return std::filesystem::exists(ArchiveSet::SetManifestPath(dir));
}

// Self-healing pass: re-verify every quarantined block (in every live shard
// of a set); reinstate the healthy, tombstone the rest. Exit 0 when every
// examined block was reinstated (or none were quarantined), 3 when
// tombstoned holes remain.
int Repair(const std::string& target) {
  const auto finish = [](const auto& report) {
    std::printf("%s\n", report.Summary().c_str());
    if (!report.ok()) {
      return 1;
    }
    return report.tombstoned == 0 ? 0 : kExitPartial;
  };
  if (!IsSetRoot(target)) {
    return finish(RepairArchive(target));
  }
  auto set = ArchiveSet::Open(target, CliSetOptions());
  if (!set.ok()) {
    return Fail(set.status());
  }
  return finish((*set)->RepairAll());
}

Result<std::unique_ptr<ArchiveSet>> OpenOrCreateSet(const std::string& root) {
  if (IsSetRoot(root)) {
    return ArchiveSet::Open(root, CliSetOptions());
  }
  return ArchiveSet::Create(root, CliSetOptions());
}

int SetIngest(const std::string& root, const std::string& tenant,
              const std::string& in_path, uint64_t ts_ns) {
  Result<std::string> raw = ReadFile(in_path);
  if (!raw.ok()) {
    return Fail(raw.status());
  }
  auto set = OpenOrCreateSet(root);
  if (!set.ok()) {
    return Fail(set.status());
  }
  auto receipt = (*set)->Append(tenant, *raw, ts_ns);
  if (!receipt.ok()) {
    return Fail(receipt.status());
  }
  std::printf("shard %llu (%s%s): %llu lines at global line %llu; "
              "set now %zu live shards, %llu lines\n",
              static_cast<unsigned long long>(receipt->shard_id),
              tenant.c_str(),
              receipt->rolled
                  ? (std::string(", rolled: ") +
                     RollReasonName(receipt->roll_reason)).c_str()
                  : "",
              static_cast<unsigned long long>(receipt->lines),
              static_cast<unsigned long long>(receipt->first_global_line),
              (*set)->live_shard_count(),
              static_cast<unsigned long long>((*set)->total_lines()));
  return 0;
}

int SetCompact(const std::string& root) {
  auto set = ArchiveSet::Open(root, CliSetOptions());
  if (!set.ok()) {
    return Fail(set.status());
  }
  const SetCompactionReport report = (*set)->Compact();
  std::printf("%s\n", report.Summary().c_str());
  return report.ok() ? 0 : 1;
}

int SetStat(const std::string& root) {
  auto set = ArchiveSet::Open(root, CliSetOptions());
  if (!set.ok()) {
    return Fail(set.status());
  }
  if (Status s = (*set)->RefreshStats(); !s.ok()) {
    std::fprintf(stderr, "warning: stale stats: %s\n", s.ToString().c_str());
  }
  std::printf("shards: %zu live (%zu tenants)  lines: %llu  raw: %.1f MB  "
              "stored: %.1f MB\n",
              (*set)->live_shard_count(), (*set)->tenant_count(),
              static_cast<unsigned long long>((*set)->total_lines()),
              (*set)->total_raw_bytes() / 1e6,
              (*set)->total_stored_bytes() / 1e6);
  // Per-tenant compaction debt: sealed live shards are exactly what a
  // `set-compact` pass would merge, so their count and bytes measure how
  // much scatter width compaction can still buy back.
  struct Debt {
    size_t sealed_shards = 0;
    uint64_t raw_bytes = 0;
    uint64_t stored_bytes = 0;
  };
  std::map<std::string, Debt> debt;
  for (const ShardInfo& s : (*set)->shards()) {
    std::printf("  shard %-4llu %-20s window [%llu, %llu)  %8llu lines  "
                "%8.1f KB  %s%s%s\n",
                static_cast<unsigned long long>(s.id), s.tenant.c_str(),
                static_cast<unsigned long long>(s.window_start_ns),
                static_cast<unsigned long long>(s.window_end_ns),
                static_cast<unsigned long long>(s.lines),
                s.stored_bytes / 1e3, s.sealed ? "sealed" : "active",
                s.expired ? " EXPIRED" : "",
                s.superseded() ? " SUPERSEDED" : "");
    if (s.live() && s.sealed) {
      Debt& d = debt[s.tenant];
      ++d.sealed_shards;
      d.raw_bytes += s.raw_bytes;
      d.stored_bytes += s.stored_bytes;
    }
  }
  if (!debt.empty()) {
    std::printf("compaction debt (sealed live shards per tenant):\n");
    for (const auto& [tenant, d] : debt) {
      std::printf("  %-20s %zu shard(s)  raw %.1f MB  stored %.1f MB\n",
                  tenant.c_str(), d.sealed_shards, d.raw_bytes / 1e6,
                  d.stored_bytes / 1e6);
    }
  }
  return 0;
}

// serve-only flags: structured access-log destination and the slow-query
// capture threshold (0 keeps the daemon default).
std::string g_access_log_path;
uint64_t g_slow_ms = 0;

// Raised by the signal handler; the serve loop polls it. (A flag + poll is
// the only async-signal-safe way to reach the daemon's mutex-using drain.)
volatile std::sig_atomic_t g_shutdown_requested = 0;

void HandleShutdownSignal(int) { g_shutdown_requested = 1; }

// Runs loggrepd over `root` until SIGTERM/SIGINT, then drains.
int Serve(const std::string& root, uint16_t port, size_t threads,
          size_t max_inflight) {
  DaemonOptions options;
  options.port = port;
  options.num_threads = threads;
  options.max_inflight_queries = max_inflight;
  options.service.root = root;
  options.metrics = &g_metrics;
  if (!g_access_log_path.empty()) {
    options.access_log.path = g_access_log_path;
  }
  if (g_slow_ms > 0) {
    options.slow_query_threshold_ns = g_slow_ms * 1'000'000ull;
  }
  LoggrepDaemon daemon(options);
  auto bound = daemon.Start();
  if (!bound.ok()) {
    return Fail(bound.status());
  }
  std::printf("loggrepd listening on %s:%u (root %s, %zu threads, "
              "max %zu in-flight queries)\n",
              options.host.c_str(), static_cast<unsigned>(*bound),
              root.c_str(), threads, max_inflight);
  std::fflush(stdout);
  std::signal(SIGTERM, HandleShutdownSignal);
  std::signal(SIGINT, HandleShutdownSignal);
  while (g_shutdown_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::fprintf(stderr, "loggrepd: draining...\n");
  daemon.Shutdown();
  std::fprintf(stderr, "loggrepd: drained, bye\n");
  return 0;
}

// Queries a running daemon; prints hits like grep and exits by the shared
// contract (200 -> 0, 206 -> 3, anything else -> 1).
int RemoteQuery(const std::string& endpoint, const std::string& archive,
                const std::string& command) {
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "endpoint must be host:port\n");
    return 2;
  }
  const std::string host = endpoint.substr(0, colon);
  const int port = std::atoi(endpoint.c_str() + colon + 1);
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "bad port in %s\n", endpoint.c_str());
    return 2;
  }
  DaemonClient client(host, static_cast<uint16_t>(port));
  RemoteQueryOptions query_options;
  query_options.degrade = !g_no_degrade;
  auto result = client.Query(archive, command, query_options);
  if (!result.ok()) {
    std::fprintf(stderr, "remote query failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  if (!result->ok()) {
    std::fprintf(stderr, "HTTP %d: %s\n", result->http_status,
                 result->error.c_str());
    return ExitCodeForHttpStatus(result->http_status);
  }
  PrintHits(result->hits);
  std::fprintf(stderr, "%zu hits (HTTP %d%s)\n", result->hits.size(),
               result->http_status,
               result->complete ? "" : ", PARTIAL");
  if (!result->complete) {
    std::fprintf(stderr, "lines missing: %llu\n",
                 static_cast<unsigned long long>(result->lines_missing));
  }
  return ExitCodeForHttpStatus(result->http_status);
}

int ArchiveStat(const std::string& dir) {
  auto archive = LogArchive::Open(dir);
  if (!archive.ok()) {
    return Fail(archive.status());
  }
  std::printf("blocks: %zu  lines: %llu  raw: %.1f MB  stored: %.1f MB "
              "(ratio %.2fx)\n",
              archive->blocks().size(),
              static_cast<unsigned long long>(archive->total_lines()),
              archive->total_raw_bytes() / 1e6,
              archive->total_stored_bytes() / 1e6,
              archive->total_stored_bytes() > 0
                  ? static_cast<double>(archive->total_raw_bytes()) /
                        static_cast<double>(archive->total_stored_bytes())
                  : 0.0);
  for (const BlockInfo& b : archive->blocks()) {
    std::printf("  block %-3u lines [%llu, %llu)  %8llu -> %8llu bytes  "
                "bloom fill %.2f\n",
                b.seq, static_cast<unsigned long long>(b.first_line),
                static_cast<unsigned long long>(b.first_line + b.line_count),
                static_cast<unsigned long long>(b.raw_bytes),
                static_cast<unsigned long long>(b.stored_bytes),
                b.shingles.FillRatio());
  }
  return 0;
}

int Stat(const std::string& target) {
  if (std::filesystem::is_regular_file(target)) {
    return BoxStat(target);
  }
  return IsSetRoot(target) ? SetStat(target) : ArchiveStat(target);
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  loggrep_cli compress <input.log> <output.lgc>\n"
               "  loggrep_cli demo <output.lgc>\n"
               "  loggrep_cli ingest <dir> <input.log|-> [block_mb] "
               "[threads]\n"
               "  loggrep_cli set-ingest <root> <tenant> <input.log> "
               "[ts_ns]\n"
               "  loggrep_cli grep|explain|metrics <target> \"<query>\" "
               "[tenant|-] [from_ns] [to_ns]\n"
               "  loggrep_cli stat <target>\n"
               "  loggrep_cli verify <dir>\n"
               "  loggrep_cli repair <dir|root>\n"
               "  loggrep_cli set-compact <root>\n"
               "  loggrep_cli serve <root-dir> [port] [threads] "
               "[max_inflight]\n"
               "  loggrep_cli remote-query <host:port> <archive> "
               "\"<query>\"\n"
               "<target>: a .lgc box file, an archive dir or a set root\n"
               "flags: --stats-json   --trace=<file>   --no-degrade\n"
               "serve flags: --access-log=<path> (JSON-lines per-request "
               "log)   --slow-ms=<n> (slow-query capture threshold)\n"
               "exit codes: 0 ok, 1 error, 2 usage, 3 partial result "
               "(quarantined blocks; --no-degrade turns 3 into 1)\n");
  return 2;
}

}  // namespace

int main(int raw_argc, char** raw_argv) {
  // Strip global flags (anywhere on the command line).
  std::string trace_path;
  std::vector<char*> args;
  args.reserve(static_cast<size_t>(raw_argc));
  for (int i = 0; i < raw_argc; ++i) {
    const std::string_view arg = raw_argv[i];
    if (arg == "--stats-json") {
      g_stats_json = true;
    } else if (arg == "--no-degrade") {
      g_no_degrade = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(8);
    } else if (arg.rfind("--access-log=", 0) == 0) {
      g_access_log_path = arg.substr(13);
    } else if (arg.rfind("--slow-ms=", 0) == 0) {
      g_slow_ms = std::strtoull(arg.substr(10).data(), nullptr, 10);
    } else {
      args.push_back(raw_argv[i]);
    }
  }
  const int argc = static_cast<int>(args.size());
  char** argv = args.data();
  if (!trace_path.empty()) {
    Tracer::Global().Enable(true);
  }
  const auto finish = [&trace_path](int rc) {
    if (!trace_path.empty() &&
        !Tracer::Global().WriteChromeJson(trace_path)) {
      std::fprintf(stderr, "cannot write trace to %s\n", trace_path.c_str());
      return rc == 0 ? 1 : rc;
    }
    return rc;
  };
  if (argc < 3) {
    return finish(Usage());
  }
  const std::string cmd = argv[1];
  if (cmd == "compress" && argc == 4) {
    return finish(Compress(argv[2], argv[3]));
  }
  if ((cmd == "grep" || cmd == "explain" || cmd == "metrics") && argc >= 4 &&
      argc <= 7) {
    ServiceRequest request;
    request.command = argv[3];
    if (argc >= 5 && std::string_view(argv[4]) != "-") {
      request.tenant = argv[4];
    }
    if (argc >= 6) {
      request.from_ns = std::strtoull(argv[5], nullptr, 10);
    }
    if (argc >= 7) {
      request.to_ns = std::strtoull(argv[6], nullptr, 10);
    }
    request.explain = cmd == "explain";
    request.degrade = !g_no_degrade;
    return finish(QueryVerb(cmd, argv[2], request));
  }
  if (cmd == "stat" && argc == 3) {
    return finish(Stat(argv[2]));
  }
  if (cmd == "demo" && argc == 3) {
    return finish(Demo(argv[2]));
  }
  if (cmd == "verify" && argc == 3) {
    return finish(Verify(argv[2]));
  }
  if (cmd == "repair" && argc == 3) {
    return finish(Repair(argv[2]));
  }
  if (cmd == "set-ingest" && (argc == 5 || argc == 6)) {
    const uint64_t ts_ns =
        argc == 6 ? std::strtoull(argv[5], nullptr, 10) : 0;
    return finish(SetIngest(argv[2], argv[3], argv[4], ts_ns));
  }
  if (cmd == "set-compact" && argc == 3) {
    return finish(SetCompact(argv[2]));
  }
  if (cmd == "serve" && argc >= 3 && argc <= 6) {
    const int port = argc >= 4 ? std::atoi(argv[3]) : 0;
    const size_t threads =
        argc >= 5 ? static_cast<size_t>(std::strtoul(argv[4], nullptr, 10)) : 8;
    const size_t max_inflight =
        argc >= 6 ? static_cast<size_t>(std::strtoul(argv[5], nullptr, 10)) : 16;
    if (port < 0 || port > 65535 || threads == 0) {
      std::fprintf(stderr, "bad port/threads\n");
      return finish(2);
    }
    return finish(Serve(argv[2], static_cast<uint16_t>(port), threads,
                        max_inflight));
  }
  if (cmd == "remote-query" && argc == 5) {
    return finish(RemoteQuery(argv[2], argv[3], argv[4]));
  }
  if (cmd == "ingest" && argc >= 4 && argc <= 6) {
    const size_t block_mb =
        argc >= 5 ? static_cast<size_t>(std::strtoul(argv[4], nullptr, 10)) : 64;
    const size_t threads =
        argc >= 6 ? static_cast<size_t>(std::strtoul(argv[5], nullptr, 10)) : 0;
    if (block_mb == 0) {
      std::fprintf(stderr, "block_mb must be > 0\n");
      return finish(2);
    }
    return finish(Ingest(argv[2], argv[3], block_mb, threads));
  }
  return finish(Usage());
}
