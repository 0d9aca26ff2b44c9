#include "src/workload/slo_harness.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <utility>

#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/server/client.h"
#include "src/server/daemon.h"
#include "src/store/log_archive.h"
#include "src/store/storage_env.h"
#include "src/workload/datasets.h"
#include "src/workload/loggen.h"
#include "src/workload/queries.h"

namespace loggrep {

namespace {

void AppendDouble(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  out->append(buf);
}

// One query the tenants can draw: where to aim, what to ask, and the
// serial ground truth computed before the daemon ever saw the archive.
struct CatalogEntry {
  std::string archive;
  std::string command;
  QueryHits oracle;
};

double PercentileMs(std::vector<double>* sorted_in_place, double p) {
  if (sorted_in_place->empty()) {
    return 0;
  }
  std::sort(sorted_in_place->begin(), sorted_in_place->end());
  const size_t idx = std::min(
      sorted_in_place->size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted_in_place->size())));
  return (*sorted_in_place)[idx];
}

// A degraded (206) answer must be the oracle minus whole failed blocks —
// i.e. an ordered subset. Anything *not* in the oracle is a wrong answer.
bool IsOrderedSubset(const QueryHits& sub, const QueryHits& full) {
  size_t j = 0;
  for (const auto& hit : sub) {
    while (j < full.size() && full[j] != hit) {
      ++j;
    }
    if (j == full.size()) {
      return false;
    }
    ++j;
  }
  return true;
}

// First value of a bare (label-free) metric line: "name 123.4".
double FindMetricValue(const std::string& body, std::string_view name) {
  size_t pos = 0;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) {
      eol = body.size();
    }
    const std::string_view line(body.data() + pos, eol - pos);
    if (line.size() > name.size() && line.compare(0, name.size(), name) == 0 &&
        line[name.size()] == ' ') {
      return std::strtod(line.data() + name.size() + 1, nullptr);
    }
    pos = eol + 1;
  }
  return 0;
}

// Builds one archive of `blocks` blocks and computes the serial oracle for
// every command in `commands`, appending the entries to `catalog` starting
// at `first_slot` (the catalog is pre-sized; see RunSloHarness).
Status BuildArchiveAndOracle(const std::string& dir, DatasetSpec spec,
                             uint64_t seed, size_t blocks,
                             size_t lines_per_block,
                             const std::vector<std::string>& commands,
                             const std::string& archive_name,
                             std::vector<CatalogEntry>* catalog,
                             size_t first_slot) {
  {
    Result<LogArchive> archive = LogArchive::Create(dir, {});
    if (!archive.ok()) {
      return archive.status();
    }
    for (size_t b = 0; b < blocks; ++b) {
      spec.seed = seed * 1000003 + b + 1;
      LogGenerator gen(spec);
      if (Status s = archive->AppendBlock(gen.GenerateLines(lines_per_block));
          !s.ok()) {
        return s;
      }
    }
  }
  Result<LogArchive> serial = LogArchive::Open(dir);
  if (!serial.ok()) {
    return serial.status();
  }
  for (size_t c = 0; c < commands.size(); ++c) {
    Result<ArchiveQueryResult> r = serial->Query(commands[c]);
    if (!r.ok()) {
      return r.status();
    }
    CatalogEntry& entry = (*catalog)[first_slot + c];
    entry.archive = archive_name;
    entry.command = commands[c];
    entry.oracle = std::move(r->hits);
  }
  return OkStatus();
}

// Per-tenant tallies, merged after the join.
struct TenantTally {
  uint64_t requests = 0;
  uint64_t ok_200 = 0;
  uint64_t degraded_206 = 0;
  uint64_t shed_429 = 0;
  uint64_t errors = 0;
  uint64_t mismatches = 0;
  uint64_t blocks_queried = 0;
  uint64_t blocks_from_cache = 0;
  std::vector<std::vector<double>> window_lat_ms;
};

}  // namespace

ZipfPicker::ZipfPicker(size_t n, double s) {
  cdf_.reserve(n);
  double total = 0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_.push_back(total);
  }
}

size_t ZipfPicker::Pick(double u, size_t limit) const {
  if (cdf_.empty() || limit == 0) {
    return 0;
  }
  limit = std::min(limit, cdf_.size());
  const double target = u * cdf_[limit - 1];
  const auto it =
      std::lower_bound(cdf_.begin(), cdf_.begin() + limit, target);
  return std::min<size_t>(it - cdf_.begin(), limit - 1);
}

bool SloHarnessReport::GatesPass(std::string* why) const {
  if (mismatches > 0) {
    if (why != nullptr) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "%" PRIu64 " responses disagreed with the oracle",
                    mismatches);
      *why = buf;
    }
    return false;
  }
  if (!(warm_p99_ms < cold_p99_ms)) {
    if (why != nullptr) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "warm p99 %.3f ms not below cold p99 %.3f ms — the warm "
                    "cache pool is not paying off under skew",
                    warm_p99_ms, cold_p99_ms);
      *why = buf;
    }
    return false;
  }
  return true;
}

std::string SloHarnessReport::ToJson() const {
  std::string out;
  out.reserve(1024 + windows.size() * 96);
  out.append("{\"requests\":");
  AppendUint(&out, requests);
  out.append(",\"ok_200\":");
  AppendUint(&out, ok_200);
  out.append(",\"degraded_206\":");
  AppendUint(&out, degraded_206);
  out.append(",\"shed_429\":");
  AppendUint(&out, shed_429);
  out.append(",\"errors\":");
  AppendUint(&out, errors);
  out.append(",\"mismatches\":");
  AppendUint(&out, mismatches);
  out.append(",\"achieved_qps\":");
  AppendDouble(&out, achieved_qps);
  out.append(",\"shed_rate\":");
  AppendDouble(&out, shed_rate);
  out.append(",\"degraded_rate\":");
  AppendDouble(&out, degraded_rate);
  out.append(",\"error_rate\":");
  AppendDouble(&out, error_rate);
  out.append(",\"blocks_queried\":");
  AppendUint(&out, blocks_queried);
  out.append(",\"blocks_from_cache\":");
  AppendUint(&out, blocks_from_cache);
  out.append(",\"cache_hit_rate\":");
  AppendDouble(&out, cache_hit_rate);
  out.append(",\"cold_p99_ms\":");
  AppendDouble(&out, cold_p99_ms);
  out.append(",\"warm_p99_ms\":");
  AppendDouble(&out, warm_p99_ms);
  out.append(",\"slow_queries_captured\":");
  AppendUint(&out, slow_queries_captured);
  out.append(",\"server_window_p99_ms\":");
  AppendDouble(&out, server_window_p99_ms);
  out.append(",\"access_log_dropped\":");
  AppendUint(&out, access_log_dropped);
  out.append(",\"windows\":[");
  bool first = true;
  for (const SloWindow& w : windows) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    out.append("{\"start_ms\":");
    AppendUint(&out, w.start_ms);
    out.append(",\"requests\":");
    AppendUint(&out, w.requests);
    out.append(",\"p50_ms\":");
    AppendDouble(&out, w.p50_ms);
    out.append(",\"p99_ms\":");
    AppendDouble(&out, w.p99_ms);
    out.push_back('}');
  }
  std::string why;
  const bool pass = GatesPass(&why);
  out.append("],\"gates_pass\":");
  out.append(pass ? "true" : "false");
  out.append(",\"gates_why\":");
  AppendJsonString(&out, why);
  out.push_back('}');
  return out;
}

Result<SloHarnessReport> RunSloHarness(const SloHarnessOptions& options) {
  namespace fs = std::filesystem;
  SloHarnessReport report;

  const bool temp_root = options.root.empty();
  const std::string root =
      temp_root ? (fs::temp_directory_path() /
                   ("loggrep_slo_" + std::to_string(::getpid())))
                      .string()
                : options.root;
  report.root = root;
  std::error_code ec;
  fs::remove_all(root, ec);
  fs::create_directories(root);

  // --- Corpus + oracles (serial, fault-free, before the daemon) ----------
  const DatasetSpec base_spec = AllDatasets().front();
  const std::vector<std::string> commands =
      QuerySuiteForDataset(base_spec.name);
  if (commands.empty()) {
    return Internal("empty query suite for dataset " + base_spec.name);
  }
  const size_t total_archives = options.static_archives + options.live_archives;
  // Pre-sized so tenants can index the published prefix lock-free while the
  // ingest thread fills later slots (publication is the release store).
  std::vector<CatalogEntry> catalog(total_archives * commands.size());
  std::atomic<size_t> published{0};

  for (size_t a = 0; a < options.static_archives; ++a) {
    const std::string name = "arch-" + std::to_string(a);
    if (Status s = BuildArchiveAndOracle(
            root + "/" + name, base_spec, options.seed + a,
            options.blocks_per_archive, options.lines_per_block, commands,
            name, &catalog, a * commands.size());
        !s.ok()) {
      return s;
    }
  }
  published.store(options.static_archives * commands.size(),
                  std::memory_order_release);

  // --- Daemon, with seeded chaos underneath ------------------------------
  FaultOptions fault_options;
  fault_options.seed = options.seed * 7919 + 17;
  fault_options.read_fail_p = options.inject_faults ? options.read_fail_p : 0;
  fault_options.max_faults_per_path = options.max_faults_per_path;
  FaultInjectingStorageEnv fault_env(fault_options);
  if (options.inject_faults && options.permanent_fault &&
      options.static_archives > 0) {
    // Kill one block of arch-0 for good: every query touching it degrades
    // to 206 for the whole run — the degraded-rate + subset-check path.
    fault_env.AddPermanentFault("arch-0/block-0.lgc");
  }

  DaemonOptions daemon_options;
  daemon_options.service.root = root;
  if (options.inject_faults) {
    daemon_options.service.archive.env = &fault_env;
  }
  daemon_options.num_threads =
      options.daemon_threads > 0 ? options.daemon_threads : options.tenants + 2;
  daemon_options.max_inflight_queries =
      options.max_inflight > 0 ? options.max_inflight : options.tenants + 2;
  daemon_options.slow_query_threshold_ns = options.slow_query_threshold_ns;
  daemon_options.access_log.path = root + "/access.log";
  LoggrepDaemon daemon(std::move(daemon_options));
  Result<uint16_t> port = daemon.Start();
  if (!port.ok()) {
    return port.status();
  }

  // --- Live ingest: publish archives while tenants are driving -----------
  std::atomic<bool> ingest_failed{false};
  std::string ingest_error;
  std::thread ingest([&] {
    for (size_t k = 0; k < options.live_archives; ++k) {
      const size_t a = options.static_archives + k;
      const std::string name = "live-" + std::to_string(k);
      if (Status s = BuildArchiveAndOracle(
              root + "/" + name, base_spec, options.seed + 1000 + k,
              options.blocks_per_archive, options.lines_per_block, commands,
              name, &catalog, a * commands.size());
          !s.ok()) {
        ingest_error = s.ToString();
        ingest_failed.store(true, std::memory_order_release);
        return;
      }
      // Publish: from here on tenants can draw this archive's queries.
      published.store((a + 1) * commands.size(), std::memory_order_release);
      std::this_thread::sleep_for(std::chrono::milliseconds(
          options.duration_ms / (options.live_archives + 1)));
    }
  });

  // --- Tenants: open-loop Zipf-skewed drive ------------------------------
  const ZipfPicker zipf(catalog.size(), options.zipf_s);
  const size_t num_windows =
      static_cast<size_t>(options.duration_ms / options.window_ms) + 1;
  const double per_tenant_qps =
      options.offered_qps / static_cast<double>(options.tenants);
  const uint64_t interval_ns = per_tenant_qps > 0
                                   ? static_cast<uint64_t>(1e9 / per_tenant_qps)
                                   : 1'000'000'000ull;
  std::vector<TenantTally> tallies(options.tenants);
  std::vector<std::thread> tenants;
  const auto run_start = std::chrono::steady_clock::now();
  const uint64_t duration_ns = options.duration_ms * 1'000'000ull;

  for (size_t t = 0; t < options.tenants; ++t) {
    tallies[t].window_lat_ms.resize(num_windows);
    tenants.emplace_back([&, t] {
      Rng rng(options.seed ^ (0xABCDEF + t * 977));
      DaemonClient client("127.0.0.1", *port);
      TenantTally& tally = tallies[t];
      uint64_t seq = 0;
      // Stagger tenants across the first interval so arrivals interleave.
      uint64_t next_ns = interval_ns * t / options.tenants;
      while (next_ns < duration_ns) {
        const auto arrival = run_start + std::chrono::nanoseconds(next_ns);
        std::this_thread::sleep_until(arrival);  // no-op when behind: open loop
        const size_t limit = published.load(std::memory_order_acquire);
        const CatalogEntry& entry = catalog[zipf.Pick(rng.NextDouble(), limit)];

        RemoteQueryOptions qopts;
        char rid[48];
        std::snprintf(rid, sizeof(rid), "t%zu-%" PRIu64, t, seq++);
        qopts.request_id = rid;
        Result<RemoteQueryResult> r =
            client.Query(entry.archive, entry.command, qopts);
        const auto done = std::chrono::steady_clock::now();
        // Latency from the *scheduled* arrival: queueing delay a slow server
        // causes is part of what the tenant experienced (open-loop rule).
        const double lat_ms =
            std::chrono::duration<double, std::milli>(done - arrival).count();
        const size_t w = std::min<size_t>(num_windows - 1,
                                          next_ns / 1'000'000ull /
                                              options.window_ms);
        tally.window_lat_ms[w].push_back(lat_ms);
        tally.requests++;
        next_ns += interval_ns;

        if (!r.ok()) {
          tally.errors++;
          continue;
        }
        if (r->http_status == 200) {
          if (r->hits == entry.oracle) {
            tally.ok_200++;
          } else {
            tally.mismatches++;
          }
        } else if (r->http_status == 206) {
          if (IsOrderedSubset(r->hits, entry.oracle)) {
            tally.degraded_206++;
          } else {
            tally.mismatches++;
          }
        } else if (r->http_status == 429) {
          tally.shed_429++;
        } else if (r->http_status >= 500) {
          tally.errors++;
        } else {
          tally.mismatches++;  // 400/404 on a known-good query is a bug
        }
        if (r->http_status == 200 || r->http_status == 206) {
          tally.blocks_queried += r->blocks_queried;
          tally.blocks_from_cache += r->blocks_from_cache;
        }
      }
    });
  }
  for (std::thread& t : tenants) {
    t.join();
  }
  ingest.join();
  const double elapsed_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - run_start)
                               .count();
  if (ingest_failed.load(std::memory_order_acquire)) {
    daemon.Shutdown();
    return Internal("live ingest failed: " + ingest_error);
  }

  // --- Merge + windowed percentiles --------------------------------------
  std::vector<std::vector<double>> window_lat(num_windows);
  for (TenantTally& tally : tallies) {
    report.requests += tally.requests;
    report.ok_200 += tally.ok_200;
    report.degraded_206 += tally.degraded_206;
    report.shed_429 += tally.shed_429;
    report.errors += tally.errors;
    report.mismatches += tally.mismatches;
    report.blocks_queried += tally.blocks_queried;
    report.blocks_from_cache += tally.blocks_from_cache;
    for (size_t w = 0; w < num_windows; ++w) {
      window_lat[w].insert(window_lat[w].end(),
                           tally.window_lat_ms[w].begin(),
                           tally.window_lat_ms[w].end());
    }
  }
  report.achieved_qps = elapsed_s > 0 ? report.requests / elapsed_s : 0;
  if (report.requests > 0) {
    const double n = static_cast<double>(report.requests);
    report.shed_rate = report.shed_429 / n;
    report.degraded_rate = report.degraded_206 / n;
    report.error_rate = report.errors / n;
  }
  if (report.blocks_queried > 0) {
    report.cache_hit_rate = static_cast<double>(report.blocks_from_cache) /
                            static_cast<double>(report.blocks_queried);
  }
  for (size_t w = 0; w < num_windows; ++w) {
    SloWindow window;
    window.start_ms = w * options.window_ms;
    window.requests = window_lat[w].size();
    window.p50_ms = PercentileMs(&window_lat[w], 0.50);
    window.p99_ms = PercentileMs(&window_lat[w], 0.99);
    report.windows.push_back(window);
  }
  report.cold_p99_ms = report.windows.empty() ? 0 : report.windows[0].p99_ms;
  std::vector<double> warm;
  for (size_t w = num_windows / 2; w < num_windows; ++w) {
    // window_lat[w] is already sorted (PercentileMs); merging keeps values
    warm.insert(warm.end(), window_lat[w].begin(), window_lat[w].end());
  }
  report.warm_p99_ms = PercentileMs(&warm, 0.99);

  // --- Server-side views --------------------------------------------------
  {
    DaemonClient probe("127.0.0.1", *port);
    if (Result<ParsedResponse> m = probe.Get("/metrics"); m.ok()) {
      report.server_window_p99_ms =
          FindMetricValue(m->body, "loggrep_window_request_p99_ns") / 1e6;
      report.access_log_dropped = static_cast<uint64_t>(
          FindMetricValue(m->body, "loggrep_access_log_dropped"));
    }
    if (Result<ParsedResponse> s = probe.Get("/debug/slow"); s.ok()) {
      if (Result<JsonValue> doc = ParseJson(s->body); doc.ok()) {
        report.slow_queries_captured = doc->Get("captured").AsUint();
      }
    }
    if (Result<ParsedResponse> z = probe.Get("/statusz"); z.ok()) {
      report.statusz = std::move(z->body);
    }
  }
  daemon.Shutdown();

  std::string why;
  if (temp_root && report.GatesPass(&why)) {
    fs::remove_all(root, ec);  // keep the dir on failure for post-mortem
  }
  return report;
}

}  // namespace loggrep
