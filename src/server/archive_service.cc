#include "src/server/archive_service.h"

#include <cstring>
#include <utility>

#include "src/common/json.h"
#include "src/common/trace.h"

namespace loggrep {

namespace {

// Writes every path under `root` relative to it: "<root>/a/b" becomes
// "a/b" and the bare root ".". Every diagnostic a served body carries
// (errors, holes, explain renders) goes through here, so an archive appears
// as the client named it and the daemon's own filesystem layout never
// reaches a client. Hit text is log data and never passes through here.
std::string WithoutRoot(std::string_view text, const std::string& root) {
  std::string out(text);
  if (root.empty()) {
    return out;
  }
  for (const auto& [from, to] : {std::pair{root + "/", ""}, {root, "."}}) {
    for (size_t at = out.find(from); at != std::string::npos;
         at = out.find(from, at + std::strlen(to))) {
      out.replace(at, from.size(), to);
    }
  }
  return out;
}

void AppendDiagnosticJson(std::string* out, std::string_view text,
                          const std::string& root) {
  AppendJsonString(out, WithoutRoot(text, root));
}

void AppendPartialJson(std::string* out, const PartialReport& partial,
                       const std::string& root) {
  out->append("{\"lines_missing\":");
  AppendUint(out, partial.lines_missing());
  out->append(",\"failures\":[");
  bool first = true;
  for (const BlockQueryFailure& f : partial.failures) {
    if (!first) {
      out->push_back(',');
    }
    first = false;
    out->append("{\"seq\":");
    AppendUint(out, f.seq);
    out->append(",\"first_line\":");
    AppendUint(out, f.first_line);
    out->append(",\"line_count\":");
    AppendUint(out, f.line_count);
    out->append(",\"error\":");
    AppendDiagnosticJson(out, f.error, root);
    out->append(",\"newly_quarantined\":");
    out->append(f.newly_quarantined ? "true" : "false");
    out->append(",\"tombstoned\":");
    out->append(f.tombstoned ? "true" : "false");
    out->push_back('}');
  }
  out->append("]}");
}

// The /query (and /explain) success body of both handle kinds. Shape:
//   {"complete":bool,"hits":[[line,"text"],...],"stats":{...},
//    "shards":{"total":n,"pruned":n,"visited":n,"failed":n},  -- sets only
//    "partial":{...},            -- only when degraded
//    "shard_failures":[...],     -- only when a whole shard failed
//    "explain":{"invariant_ok":bool,"totals":{...},"render":"..."}}
// The hit list is followed directly by "stats", which clients locate by
// that adjacency. Diagnostics name paths relative to `root`.
std::string RenderQueryJson(const SetQueryResult& result,
                            std::string_view stats, bool is_set,
                            const ExplainSection* explain,
                            const std::string& root) {
  std::string out;
  out.reserve(4096 + result.hits.size() * 48);
  out.append("{\"complete\":");
  out.append(result.complete() ? "true" : "false");
  out.append(",\"hits\":[");
  bool first = true;
  for (const auto& [line, text] : result.hits) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    out.append("[");
    AppendUint(&out, line);
    out.push_back(',');
    AppendJsonString(&out, text);
    out.push_back(']');
  }
  out.append("],\"stats\":");
  out.append(stats);
  if (is_set) {
    out.append(",\"shards\":{\"total\":");
    AppendUint(&out, result.shards_total);
    out.append(",\"pruned\":");
    AppendUint(&out, result.shards_pruned);
    out.append(",\"visited\":");
    AppendUint(&out, result.shards_visited);
    out.append(",\"failed\":");
    AppendUint(&out, result.shards_failed);
    out.push_back('}');
  }
  if (result.partial.partial()) {
    out.append(",\"partial\":");
    AppendPartialJson(&out, result.partial, root);
  }
  if (!result.shard_failures.empty()) {
    out.append(",\"shard_failures\":[");
    first = true;
    for (const SetShardFailure& f : result.shard_failures) {
      if (!first) {
        out.push_back(',');
      }
      first = false;
      out.append("{\"shard\":");
      AppendUint(&out, f.shard_id);
      out.append(",\"tenant\":");
      AppendJsonString(&out, f.tenant);
      out.append(",\"first_line\":");
      AppendUint(&out, f.line_base);
      out.append(",\"line_count\":");
      AppendUint(&out, f.lines);
      out.append(",\"error\":");
      AppendDiagnosticJson(&out, f.error, root);
      out.push_back('}');
    }
    out.push_back(']');
  }
  if (explain != nullptr) {
    out.append(",\"explain\":{\"invariant_ok\":");
    out.append(explain->invariant_ok ? "true" : "false");
    if (!explain->invariant_ok) {
      out.append(",\"invariant_detail\":");
      AppendDiagnosticJson(&out, explain->invariant_detail, root);
    }
    out.append(",\"totals\":{\"visited\":");
    AppendUint(&out, explain->totals.visited);
    out.append(",\"pruned\":");
    AppendUint(&out, explain->totals.pruned);
    out.append(",\"cached\":");
    AppendUint(&out, explain->totals.cached);
    out.append(",\"decompressed\":");
    AppendUint(&out, explain->totals.decompressed);
    out.append("},\"render\":");
    AppendDiagnosticJson(&out, explain->render, root);
    out.append("}");
  }
  out.push_back('}');
  return out;
}

ServiceResponse ErrorResponse(const Status& status, const std::string& root) {
  ServiceResponse response;
  response.http_status = HttpStatusForQueryError(status);
  response.body = "{\"error\":";
  AppendDiagnosticJson(&response.body, status.ToString(), root);
  response.body.append(",\"code\":");
  AppendJsonString(&response.body, StatusCodeName(status.code()));
  response.body.push_back('}');
  return response;
}

// A plain archive's answer, moved into the set result shape (no shards, no
// shard holes). A plain archive has no tenant or time dimension, so those
// request predicates are ignored.
Status QueryArchive(LogArchive* archive, const ServiceRequest& request,
                    const QueryOptions& options, QueryOutcome* outcome) {
  QueryExplain tree;
  Result<ArchiveQueryResult> result = archive->Query(
      request.command, options, request.explain ? &tree : nullptr);
  if (!result.ok()) {
    return result.status();
  }
  if (request.explain) {
    outcome->explain.emplace(SummarizeExplain(tree));
  }
  static_cast<ArchiveQueryResult&>(outcome->result) = std::move(*result);
  return OkStatus();
}

// Federated execution: the predicates prune shards, the rest scatters
// across the set's shards.
Status QuerySet(ArchiveSet* set, const ServiceRequest& request,
                const QueryOptions& options, QueryOutcome* outcome) {
  SetQueryPredicate pred;
  if (!request.tenant.empty()) {
    pred.tenant = request.tenant;
  }
  pred.from_ns = request.from_ns;
  pred.to_ns = request.to_ns;
  if (pred.from_ns > pred.to_ns) {
    return InvalidArgument("empty time range: from > to");
  }
  SetExplain tree;
  Result<SetQueryResult> result = set->Query(
      request.command, pred, options, request.explain ? &tree : nullptr);
  if (!result.ok()) {
    return result.status();
  }
  if (request.explain) {
    outcome->explain.emplace(SummarizeExplain(tree));
  }
  outcome->result = std::move(*result);
  return OkStatus();
}

}  // namespace

std::string QueryStatsJson(const ArchiveQueryResult& result) {
  std::string out;
  out.reserve(384);
  out.append("{\"blocks_pruned\":");
  AppendUint(&out, result.blocks_pruned);
  out.append(",\"blocks_queried\":");
  AppendUint(&out, result.blocks_queried);
  // Cached blocks add no stage time or decode counts (a replay decodes
  // nothing); this count says how many blocks were replayed.
  out.append(",\"blocks_from_cache\":");
  AppendUint(&out, result.blocks_from_cache);
  for (const LedgerRow& row : kQueryLedger) {
    out.append(",\"");
    AppendLedgerKey(&out, row);
    out.append("\":");
    AppendUint(&out, result.locator.*row.field);
  }
  out.push_back('}');
  return out;
}

std::string ResolveArchivePath(const std::string& root, std::string_view name) {
  if (name.empty() || name == ".") {
    return root;
  }
  if (name.front() == '/') {
    return "";
  }
  // Reject any "." / ".." component (and backslash tricks; names here are
  // plain POSIX relative paths).
  std::string_view rest = name;
  while (!rest.empty()) {
    const size_t slash = rest.find('/');
    const std::string_view part = rest.substr(0, slash);
    if (part.empty() || part == "." || part == ".." ||
        part.find('\\') != std::string_view::npos) {
      return "";
    }
    if (slash == std::string_view::npos) {
      break;
    }
    rest.remove_prefix(slash + 1);
  }
  return root + "/" + std::string(name);
}

int HttpStatusForQuery(const SetQueryResult& result) {
  return result.complete() ? 200 : 206;
}

int HttpStatusForQueryError(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    default:
      // Block failure with degrade disabled, corruption, I/O storms the
      // retry budget could not ride out: the server failed to answer.
      return 500;
  }
}

int ExitCodeForHttpStatus(int http_status) {
  if (http_status == 200) {
    return 0;
  }
  if (http_status == 206) {
    return 3;
  }
  return 1;
}

ArchiveService::ArchiveService(ServiceOptions options)
    : options_(std::move(options)) {}

Result<std::shared_ptr<ArchiveService::Handle>> ArchiveService::GetOrOpen(
    const std::string& name) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = handles_.find(name);
    if (it != handles_.end()) {
      return it->second;
    }
  }
  const std::string dir = ResolveArchivePath(options_.root, name);
  if (dir.empty()) {
    return InvalidArgument("archive name escapes the serving root: " + name);
  }
  // Open outside the map lock (cold opens read the manifest + quarantine
  // from storage); racing openers adopt whichever handle lands first. A
  // set_manifest.json marks the directory as a federated ArchiveSet root.
  auto handle = std::make_shared<Handle>();
  StorageEnv* env = EnvOrDefault(options_.archive.env);
  if (env->FileExists(ArchiveSet::SetManifestPath(dir))) {
    ArchiveSetOptions set_options;
    set_options.archive = options_.archive;
    Result<std::unique_ptr<ArchiveSet>> set = ArchiveSet::Open(dir, set_options);
    if (!set.ok()) {
      return set.status();
    }
    handle->set = std::move(*set);
  } else {
    Result<LogArchive> archive = LogArchive::Open(dir, options_.archive);
    if (!archive.ok()) {
      return archive.status();
    }
    handle->archive = std::make_unique<LogArchive>(std::move(*archive));
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = handles_.emplace(name, handle);
  if (!inserted) {
    return it->second;  // another thread won the race; keep its warm handle
  }
  return handle;
}

Result<QueryOutcome> ArchiveService::Query(const ServiceRequest& request) {
  Result<std::shared_ptr<Handle>> handle = GetOrOpen(request.archive);
  if (!handle.ok()) {
    return handle.status();
  }
  // Per-request knobs travel by value: they govern this execution only. The
  // deadline feeds the RetryBudget every storage retry in this query checks.
  QueryOptions options;
  options.degrade = request.degrade;
  options.deadline_ns = request.deadline_ms * 1'000'000ull;
  const Handle& h = **handle;
  QueryOutcome outcome;
  outcome.is_set = h.set != nullptr;
  const Status status =
      outcome.is_set
          ? QuerySet(h.set.get(), request, options, &outcome)
          : QueryArchive(h.archive.get(), request, options, &outcome);
  if (!status.ok()) {
    return status;
  }
  return outcome;
}

ServiceResponse ArchiveService::Run(const ServiceRequest& request) {
  const TraceSpan span("server.run_query", "server");
  Result<QueryOutcome> outcome = Query(request);
  if (!outcome.ok()) {
    return ErrorResponse(outcome.status(), options_.root);
  }
  const SetQueryResult& result = outcome->result;
  ServiceResponse response;
  response.http_status = HttpStatusForQuery(result);
  response.degraded = response.http_status == 206;
  response.hits = result.hits.size();
  response.stats = QueryStatsJson(result);
  response.body = RenderQueryJson(
      result, response.stats, outcome->is_set,
      outcome->explain ? &*outcome->explain : nullptr, options_.root);
  if (outcome->explain) {
    response.explain_render = WithoutRoot(outcome->explain->render,
                                          options_.root);
  }
  return response;
}

ServiceResponse ArchiveService::Compact(const std::string& archive) {
  Result<std::shared_ptr<Handle>> handle = GetOrOpen(archive);
  if (!handle.ok()) {
    return ErrorResponse(handle.status(), options_.root);
  }
  if ((*handle)->set == nullptr) {
    return ErrorResponse(
        InvalidArgument("compaction targets an ArchiveSet root; '" + archive +
                        "' is a plain archive"),
        options_.root);
  }
  // Compact serializes against other compactors itself and commits under
  // the set's own lock, so queries keep flowing while blocks are rewritten.
  const SetCompactionReport report = (*handle)->set->Compact();
  ServiceResponse response;
  response.http_status = report.ok() ? 200 : 500;
  std::string& out = response.body;
  out.append("{\"ok\":");
  out.append(report.ok() ? "true" : "false");
  if (!report.ok()) {
    out.append(",\"error\":");
    AppendDiagnosticJson(&out, report.fatal.ToString(), options_.root);
  }
  out.append(",\"summary\":");
  AppendDiagnosticJson(&out, report.Summary(), options_.root);
  out.append(",\"report\":{\"runs_planned\":");
  AppendUint(&out, report.runs_planned);
  out.append(",\"merges_committed\":");
  AppendUint(&out, report.merges_committed);
  out.append(",\"shards_merged\":");
  AppendUint(&out, report.shards_merged);
  out.append(",\"dirs_removed\":");
  AppendUint(&out, report.dirs_removed);
  out.append(",\"runs_aborted\":");
  AppendUint(&out, report.runs_aborted);
  out.append(",\"skipped_quarantined\":");
  AppendUint(&out, report.skipped_quarantined);
  out.append(",\"merged_ids\":[");
  bool first = true;
  for (uint64_t id : report.merged_ids) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    AppendUint(&out, id);
  }
  out.append("]}}");
  return response;
}

size_t ArchiveService::open_archives() const {
  std::lock_guard<std::mutex> lock(mu_);
  return handles_.size();
}

size_t ArchiveService::open_sets() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [name, handle] : handles_) {
    n += handle->set != nullptr ? 1 : 0;
  }
  return n;
}

void ArchiveService::Clear() {
  std::map<std::string, std::shared_ptr<Handle>> doomed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    doomed.swap(handles_);
  }
  // Destroy outside mu_; a straggling query holding a handle keeps its
  // shared_ptr alive until it finishes.
}

}  // namespace loggrep
