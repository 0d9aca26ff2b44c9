// ArchiveService: the process-wide warm state behind loggrepd.
//
// The whole point of running LogGrep as a daemon (instead of the one-shot
// CLI) is that open archives — manifests, quarantine sets, and above all the
// sharded BoxCache of decompressed capsules (PR 2's 17.8x warm win) — live
// as long as the process and are shared by *every* connection. The service
// keeps one handle per archive directory: first request pays the cold open,
// every later request from any client starts warm.
//
// Concurrency model: LogArchive and ArchiveSet are safe for concurrent
// queries (shared reads, exclusive commits; a set snapshots its shards and
// then scatters without its lock), so the service takes no lock around a
// query: any number of requests run on one archive at once, all sharing its
// warm caches. Per-request knobs (degrade, deadline) travel by value in a
// QueryOptions and never touch the shared handle. Admission control (how
// many queries may be in flight process-wide) lives in the daemon and is
// the only concurrency limit.
//
// This header is also the single home of the status contract shared by the
// CLI and the HTTP API (see HttpStatusForQuery, HttpStatusForQueryError and
// ExitCodeForHttpStatus):
//
//   query outcome                      CLI exit     HTTP
//   ------------------------------     --------     -----------------------
//   complete result                    0            200
//   degraded result (healthy-block     3            206 + "partial" JSON
//     hits + PartialReport holes)
//   bad query / bad request            1 (2 usage)  400
//   archive missing                    1            404
//   block failure, degrade disabled    1            500
//   overload (admission control)       n/a          429 + Retry-After
//
// `--no-degrade` on the CLI and `?degrade=0` on POST /query are the same
// switch: the first failing block aborts the query (HTTP 500) instead of
// degrading to a 206.
//
// Federation: a served directory that contains a set_manifest.json is an
// ArchiveSet root (src/store/archive_set.h) — the service opens it as one
// warm federated handle and honors the `tenant=` / `from=` / `to=` request
// predicates, which prune whole shards before the scatter. A quarantined
// block or an unopenable shard degrades the federated answer to the same
// 206 + partial contract as above; shard-level holes are listed under
// "shard_failures" in the body.
#ifndef SRC_SERVER_ARCHIVE_SERVICE_H_
#define SRC_SERVER_ARCHIVE_SERVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "src/query/explain.h"
#include "src/store/archive_set.h"
#include "src/store/log_archive.h"
#include "src/store/shard_router.h"

namespace loggrep {

struct ServiceOptions {
  // Base options for every archive the service opens (metrics registry,
  // storage env, cache budget, retry policy); the cache budget covers each
  // archive, or each whole set (not each shard). Per-request deadline/degrade
  // knobs come from each ServiceRequest.
  ArchiveOptions archive;
  // Root directory archive names resolve under. A request's `archive`
  // parameter is a relative path below this root; "" or "." is the root
  // itself. Absolute paths and ".." components are rejected.
  std::string root;
};

struct ServiceRequest {
  std::string archive;   // relative to ServiceOptions::root
  std::string command;   // query command (§3 syntax)
  bool explain = false;  // run Explain() and include the decision tree
  bool degrade = true;   // false = fail on first block failure (HTTP 500)
  uint64_t deadline_ms = 0;  // per-query retry budget; 0 = unlimited

  // Federation predicates (HTTP `tenant=` / `from=` / `to=`), honored when
  // the resolved directory is an ArchiveSet root (it has a
  // set_manifest.json). Ignored for plain single-archive directories.
  std::string tenant;         // empty = all tenants
  uint64_t from_ns = 0;       // inclusive event-time lower bound
  uint64_t to_ns = UINT64_MAX;  // inclusive event-time upper bound
};

struct ServiceResponse {
  int http_status = 200;
  std::string body;  // JSON document (see RenderQueryJson)
  bool degraded = false;  // true on 206 (PartialReport in the body)
  // The hit count and the body's "stats" object (QueryStatsJson), which
  // the access log carries as is; 0 and empty on error responses.
  uint64_t hits = 0;
  std::string stats;
  // Rendered explain fate tree; filled only when the request asked for
  // explain (the slow-query log re-runs with explain=true to capture it).
  std::string explain_render;
};

// The explain fields of a response, summarized once per explained request
// from either tree kind (QueryExplain or SetExplain).
struct ExplainSection {
  bool invariant_ok = true;
  std::string invariant_detail;
  ExplainTotals totals;
  std::string render;
};

template <typename Tree>
ExplainSection SummarizeExplain(const Tree& tree) {
  ExplainSection section;
  section.invariant_ok = tree.CheckInvariant(&section.invariant_detail);
  section.totals = tree.Totals();
  section.render = tree.Render();
  return section;
}

// The query half of one request, before any rendering: the answer (a plain
// archive's result is moved into the set shape), whether a set produced it,
// and the explain summary when the request asked for one.
struct QueryOutcome {
  SetQueryResult result;
  bool is_set = false;
  std::optional<ExplainSection> explain;
};

// The "stats" object of a /query or /explain body: the block counts, then
// every kQueryLedger row of result.locator under its key, in table order.
// One flat object; clients find it directly after the hit list.
std::string QueryStatsJson(const ArchiveQueryResult& result);

// Resolves `name` under `root`, rejecting absolute paths and any ".."
// component. Returns the joined path; empty string on rejection.
std::string ResolveArchivePath(const std::string& root, std::string_view name);

// Maps a query answer to the HTTP status in the table above: 200 when it is
// complete, 206 when holes degraded it.
int HttpStatusForQuery(const SetQueryResult& result);
// Maps a failed query Status to the HTTP status in the table above.
int HttpStatusForQueryError(const Status& status);
// Maps an HTTP status back to the CLI exit-code contract (0 ok, 3 partial,
// 1 error) — used by every `loggrep_cli` query verb, local or remote, so
// scripting against the daemon and against local targets reads identically.
int ExitCodeForHttpStatus(int http_status);

class ArchiveService {
 public:
  explicit ArchiveService(ServiceOptions options);

  // The query half of Run: opens (or reuses) the request's handle, checks
  // the request against the handle kind (from > to is an error on sets
  // only) and runs the query or explain. `loggrep_cli` calls it directly.
  // Thread-safe; requests on the same archive run concurrently.
  Result<QueryOutcome> Query(const ServiceRequest& request);

  // Query plus the render half: the JSON body, the status mapping and the
  // access-log stats.
  ServiceResponse Run(const ServiceRequest& request);

  // Admin: runs one compaction pass (ArchiveSet::Compact) over the named
  // ArchiveSet. 200 + report JSON on success, 400 when the target is a
  // plain (non-federated) archive, 404/500 as usual.
  // ArchiveSet::Compact is internally safe against concurrent queries, and
  // a long merge does not stall reads.
  ServiceResponse Compact(const std::string& archive);

  // Number of archives currently held open (for /healthz and tests), and
  // how many of them are ArchiveSet roots (for /statusz and /metrics).
  size_t open_archives() const;
  size_t open_sets() const;

  // Drops every open handle (the daemon calls this on shutdown so archives
  // release their caches before the process exits).
  void Clear();

 private:
  // A handle is either a plain archive or a federated ArchiveSet — the
  // service sniffs set_manifest.json at open time. Exactly one of the two
  // pointers is set; both are immutable after open. Both kinds run through
  // one Run body: a plain archive's result is moved into the set result
  // shape, and only a set's body carries the "shards" accounting.
  struct Handle {
    std::unique_ptr<LogArchive> archive;
    std::unique_ptr<ArchiveSet> set;
  };

  // Returns the open handle for `name`, opening (and caching) it on first
  // use. kNotFound when the directory has no manifest.
  Result<std::shared_ptr<Handle>> GetOrOpen(const std::string& name);

  ServiceOptions options_;
  mutable std::mutex mu_;  // guards handles_ (not the archives themselves)
  std::map<std::string, std::shared_ptr<Handle>> handles_;
};

}  // namespace loggrep

#endif  // SRC_SERVER_ARCHIVE_SERVICE_H_
