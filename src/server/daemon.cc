#include "src/server/daemon.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>

#include "src/common/build_info.h"
#include "src/common/json.h"
#include "src/common/metrics_export.h"
#include "src/common/string_util.h"
#include "src/common/trace.h"

namespace loggrep {

namespace {

// Poll granularity for blocking reads: how quickly an idle connection
// notices a drain. Short enough that Shutdown() feels immediate, long
// enough to cost nothing.
constexpr uint64_t kReadPollMs = 100;

// RAII decrement for the gauges tracked with atomics.
class ScopedCount {
 public:
  explicit ScopedCount(std::atomic<size_t>* counter) : counter_(counter) {
    counter_->fetch_add(1, std::memory_order_acq_rel);
  }
  ~ScopedCount() { counter_->fetch_sub(1, std::memory_order_acq_rel); }
  ScopedCount(const ScopedCount&) = delete;
  ScopedCount& operator=(const ScopedCount&) = delete;

 private:
  std::atomic<size_t>* counter_;
};

bool SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t sent =
        ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    data.remove_prefix(static_cast<size_t>(sent));
  }
  return true;
}

HttpResponse TextResponse(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.content_type = "text/plain; charset=utf-8";
  response.body = std::move(body);
  return response;
}

HttpResponse JsonError(int status, std::string_view message) {
  HttpResponse response;
  response.status = status;
  response.body = "{\"error\":";
  AppendJsonString(&response.body, message);
  response.body.push_back('}');
  return response;
}

// Reads an optional whole-decimal parameter into `out` (left as is when
// absent). False when the parameter is present but malformed.
bool ReadUintParam(const HttpRequest& request, const std::string& name,
                   uint64_t* out) {
  const auto it = request.params.find(name);
  return it == request.params.end() || ParseUint64(it->second, out);
}

// Reads an optional 0/1/false/true/no/yes parameter into `out` (left as is
// when absent). False when the parameter is present with any other value.
bool ReadBoolParam(const HttpRequest& request, const std::string& name,
                   bool* out) {
  const auto it = request.params.find(name);
  if (it == request.params.end()) {
    return true;
  }
  const std::string& v = it->second;
  if (v == "1" || v == "true" || v == "yes") {
    *out = true;
  } else if (v == "0" || v == "false" || v == "no") {
    *out = false;
  } else {
    return false;
  }
  return true;
}

}  // namespace

LoggrepDaemon::LoggrepDaemon(DaemonOptions options)
    : options_(std::move(options)) {
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  // The service's archives share the daemon registry unless the caller
  // wired a different one in explicitly.
  if (options_.service.archive.metrics == nullptr) {
    options_.service.archive.metrics = metrics_;
  }
  access_log_ = std::make_unique<AccessLog>(options_.access_log);
  service_ = std::make_unique<ArchiveService>(options_.service);
  telemetry_ = std::make_unique<ServerTelemetry>();
  slow_log_ = std::make_unique<SlowQueryLog>(kSlowLogCapacity);
  start_ns_ = Tracer::Global().NowNanos();
  // Prime the process-uptime epoch now; its first caller wins it, and that
  // should be daemon construction, not the first /healthz scrape.
  ProcessUptimeNanos();
}

uint64_t LoggrepDaemon::uptime_ns() const {
  const uint64_t now = Tracer::Global().NowNanos();
  return now > start_ns_ ? now - start_ns_ : 0;
}

LoggrepDaemon::~LoggrepDaemon() { Shutdown(); }

Result<uint16_t> LoggrepDaemon::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Internal("daemon already running");
  }
  if (!access_log_->status().ok()) {
    return access_log_->status();
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return InvalidArgument("bad listen address: " + options_.host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return IOError("bind " + options_.host + ": " + err);
  }
  if (::listen(fd, 128) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return IOError("listen: " + err);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return IOError("getsockname: " + err);
  }
  port_ = ntohs(bound.sin_port);
  listen_fd_ = fd;
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  accept_thread_ = std::thread([this, fd] { AcceptLoop(fd); });
  return port_;
}

void LoggrepDaemon::Shutdown() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    return;
  }
  stopping_.store(true, std::memory_order_release);
  // shutdown() unblocks an accept() mid-call on the accept thread; the fd
  // is closed only after that thread is joined, so it never races a reader
  // of listen_fd_ or an fd number reused by a new connection.
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Drain: every connection handler notices stopping_ within one read poll,
  // finishes its in-flight request (responses still go out, tagged
  // "Connection: close"), and exits.
  {
    std::unique_lock<std::mutex> lock(drain_mu_);
    drained_.wait(lock, [this] {
      return active_connections_.load(std::memory_order_acquire) == 0;
    });
  }
  pool_.reset();       // joins the workers
  service_->Clear();   // releases archives + caches deterministically
  access_log_->Flush();  // every served request's line reaches the sinks
}

void LoggrepDaemon::AcceptLoop(int listen_fd) {
  Tracer::Global().SetCurrentThreadName("loggrepd-accept");
  Counter* accepted = metrics_->GetOrCreate("server.connections_accepted");
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;  // listener closed (shutdown) or fatal accept error
    }
    accepted->Increment();
    // Count the connection *before* it enters the pool queue, so Shutdown
    // waits for queued-but-unstarted connections too (they still own fds).
    active_connections_.fetch_add(1, std::memory_order_acq_rel);
    pool_->Submit([this, fd] {
      HandleConnection(fd);
      if (active_connections_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(drain_mu_);
        drained_.notify_all();
      }
    });
  }
}

void LoggrepDaemon::HandleConnection(int fd) {
  // Bounded read poll so drains and idle timeouts are noticed promptly.
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(kReadPollMs / 1000);
  tv.tv_usec = static_cast<suseconds_t>((kReadPollMs % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  Counter* requests = metrics_->GetOrCreate("server.requests");
  Counter* parse_errors = metrics_->GetOrCreate("server.parse_errors");
  Histogram* request_ns =
      metrics_->GetOrCreateHistogram("server.request_ns");

  HttpRequestParser parser;
  std::string pending;  // unconsumed bytes (pipelined next request)
  char buf[16 * 1024];
  uint64_t idle_ms = 0;
  bool close_connection = false;

  while (!close_connection) {
    // Drive the parser from the pending buffer first, then the socket.
    if (!pending.empty()) {
      const size_t used = parser.Feed(pending);
      pending.erase(0, used);
    }
    if (parser.state() == HttpRequestParser::State::kNeedMore) {
      if (stopping_.load(std::memory_order_acquire)) {
        break;  // idle or mid-request during drain; drop the connection
      }
      const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
      if (got == 0) {
        break;  // peer closed
      }
      if (got < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          idle_ms += kReadPollMs;
          if (idle_ms >= kIdleTimeoutMs) {
            break;
          }
          continue;
        }
        break;  // hard socket error
      }
      idle_ms = 0;
      pending.append(buf, static_cast<size_t>(got));
      continue;
    }

    if (parser.state() == HttpRequestParser::State::kError) {
      parse_errors->Increment();
      // Even a malformed request gets a request id (generated — the headers
      // may not have parsed), a telemetry sample, and an access-log line.
      RequestRecord rec;
      rec.request_id = GenerateRequestId();
      rec.rid64 = RequestIdHash(rec.request_id);
      HttpResponse response =
          JsonError(parser.error_status(), parser.error());
      response.headers.emplace_back("X-Request-Id", rec.request_id);
      const uint64_t now_ns = Tracer::Global().NowNanos();
      FinishRequest(nullptr, response, &rec, now_ns, now_ns);
      SendAll(fd, SerializeResponse(response, /*keep_alive=*/false));
      break;  // framing is unrecoverable; never try to resync a bad peer
    }

    // One complete request.
    requests->Increment();
    const uint64_t start_ns = Tracer::Global().NowNanos();
    const HttpRequest& request = parser.request();
    bool close_after = !request.KeepAlive();
    // Propagate the client's X-Request-Id; mint one when absent. rid64 is
    // the FNV-1a of the id — the join key across spans and logs.
    RequestRecord rec;
    rec.request_id = std::string(request.Header("x-request-id"));
    if (rec.request_id.empty()) {
      rec.request_id = GenerateRequestId();
    }
    rec.rid64 = RequestIdHash(rec.request_id);
    HttpResponse response;
    {
      const TraceSpan span("server.request", "server", "rid", rec.rid64);
      response = Route(request, &close_after, &rec);
    }
    response.headers.emplace_back("X-Request-Id", rec.request_id);
    if (stopping_.load(std::memory_order_acquire)) {
      close_after = true;  // drain: answer, then hang up
    }
    metrics_
        ->GetOrCreate("server.responses_" +
                      std::to_string(response.status / 100) + "xx")
        ->Increment();
    const uint64_t end_ns = Tracer::Global().NowNanos();
    request_ns->Record(end_ns - start_ns);
    FinishRequest(&request, response, &rec, start_ns, end_ns);
    if (!SendAll(fd, SerializeResponse(response, !close_after))) {
      break;
    }
    if (close_after) {
      break;
    }
    parser.Reset();
  }
  ::close(fd);
}

HttpResponse LoggrepDaemon::Route(const HttpRequest& request,
                                  bool* close_after, RequestRecord* rec) {
  if (request.path == "/healthz") {
    HttpResponse response;
    response.body = RenderHealthz();
    return response;
  }
  if (request.path == "/statusz") {
    return TextResponse(200,
                        RenderStatuszPage(Tracer::Global().NowNanos()));
  }
  if (request.path == "/debug/slow") {
    HttpResponse response;
    response.body = slow_log_->RenderJson(options_.slow_query_threshold_ns);
    return response;
  }
  if (request.path == "/metrics") {
    if (request.method != "GET") {
      *close_after = true;
      return JsonError(405, "use GET");
    }
    // The scrape runs concurrently with live queries by design; the
    // registry's snapshot path is the synchronization (see
    // tests/metrics_race_test.cc).
    std::string body = ExportPrometheus(*metrics_);
    telemetry_->AppendWindowedMetrics(&body, Tracer::Global().NowNanos());
    AppendPrometheusGauge(&body, "loggrep_access_log_dropped",
                          static_cast<double>(access_log_->dropped()));
    // The registry's set.compaction.* counters already export the
    // maintenance totals; only the open-set gauge has no counter
    // equivalent.
    AppendPrometheusGauge(&body, "loggrep_sets_open",
                          static_cast<double>(service_->open_sets()));
    AppendBuildInfoMetrics(&body);
    return TextResponse(200, std::move(body));
  }
  if (request.path == "/query" || request.path == "/explain") {
    const bool explain = request.path == "/explain";
    if (request.method != "GET" && request.method != "POST") {
      *close_after = true;
      return JsonError(405, "use GET or POST");
    }
    return RunQuery(request, explain, rec);
  }
  if (request.path == "/compact") {
    // Admin surface, deliberately outside the query admission gate: a
    // compaction pass is maintenance, not a query, and must not eat a query
    // slot (nor be shed with the queries under load).
    if (request.method != "POST") {
      *close_after = true;
      return JsonError(405, "use POST");
    }
    std::string archive;
    const auto archive_it = request.params.find("archive");
    if (archive_it != request.params.end()) {
      archive = archive_it->second;
    }
    rec->request.archive = archive;
    metrics_->GetOrCreate("server.compaction_requests")->Increment();
    ServiceResponse service_response = service_->Compact(archive);
    HttpResponse response;
    response.status = service_response.http_status;
    response.body = std::move(service_response.body);
    return response;
  }
  return JsonError(404, "no such endpoint: " + request.path);
}

HttpResponse LoggrepDaemon::RunQuery(const HttpRequest& request,
                                     bool explain, RequestRecord* rec) {
  // Admission gate, checked before any archive work. fetch_add + rollback
  // keeps the gate exact under races (two latecomers can both bounce, never
  // both enter past the limit).
  if (inflight_queries_.fetch_add(1, std::memory_order_acq_rel) >=
      options_.max_inflight_queries) {
    inflight_queries_.fetch_sub(1, std::memory_order_acq_rel);
    metrics_->GetOrCreate("server.admission_rejects")->Increment();
    rec->shed = true;
    HttpResponse response = JsonError(
        429, "query admission limit reached; retry after backoff");
    response.headers.emplace_back("Retry-After",
                                  std::to_string(kRetryAfterSeconds));
    return response;
  }
  struct Release {
    std::atomic<size_t>* gate;
    ~Release() { gate->fetch_sub(1, std::memory_order_acq_rel); }
  } release{&inflight_queries_};
  metrics_->GetOrCreate("server.inflight_hwm")
      ->UpdateMax(inflight_queries_.load(std::memory_order_relaxed));

  ServiceRequest& sr = rec->request;
  const auto archive_it = request.params.find("archive");
  if (archive_it != request.params.end()) {
    sr.archive = archive_it->second;
  }
  // POST carries the command in the body; GET in ?q=. A POST with an empty
  // body falls back to ?q= so curl one-liners stay convenient.
  if (request.method == "POST" && !request.body.empty()) {
    sr.command = request.body;
  } else {
    const auto q = request.params.find("q");
    if (q == request.params.end() || q->second.empty()) {
      return JsonError(400, "missing query: POST a command body or pass ?q=");
    }
    sr.command = q->second;
  }
  sr.explain = explain;
  // A malformed knob is refused, never guessed at: a misread bound would
  // prune real hits from an answer that still reads complete. Federation
  // predicates (honored when the archive is an ArchiveSet root): an
  // inclusive [from, to] event-time window in ns plus the tenant name.
  if (!ReadBoolParam(request, "degrade", &sr.degrade)) {
    return JsonError(400,
                     "bad parameter 'degrade': want 0/1/false/true/no/yes");
  }
  for (const auto& [name, field] :
       {std::pair<const char*, uint64_t*>{"deadline_ms", &sr.deadline_ms},
        {"from", &sr.from_ns},
        {"to", &sr.to_ns}}) {
    if (!ReadUintParam(request, name, field)) {
      return JsonError(400, std::string("bad parameter '") + name +
                                "': want a decimal number");
    }
  }
  const auto tenant = request.params.find("tenant");
  if (tenant != request.params.end()) {
    sr.tenant = tenant->second;
  }

  ServiceResponse service_response = service_->Run(sr);
  if (service_response.http_status == 206) {
    metrics_->GetOrCreate("server.degraded_responses")->Increment();
  }
  rec->degraded = service_response.degraded;
  rec->hits = service_response.hits;
  rec->stats = std::move(service_response.stats);
  rec->explain_render = std::move(service_response.explain_render);
  HttpResponse response;
  response.status = service_response.http_status;
  response.body = std::move(service_response.body);
  return response;
}

void LoggrepDaemon::FinishRequest(const HttpRequest* request,
                                  const HttpResponse& response,
                                  RequestRecord* rec, uint64_t start_ns,
                                  uint64_t end_ns) {
  const uint64_t dur_ns = end_ns > start_ns ? end_ns - start_ns : 0;
  telemetry_->RecordRequest(response.status, dur_ns, end_ns);

  const uint64_t ts_ms =
      (end_ns > start_ns_ ? end_ns - start_ns_ : 0) / 1'000'000ull;
  std::string line;
  line.reserve(768);
  line.append("{\"ts_ms\":");
  AppendUint(&line, ts_ms);
  line.append(",\"rid\":");
  AppendJsonString(&line, rec->request_id);
  // String, not number: rid64 spans the full uint64 range and JSON readers
  // that go through doubles would round ids above 2^53, breaking the join.
  line.append(",\"rid64\":\"");
  AppendUint(&line, rec->rid64);
  line.push_back('"');
  line.append(",\"method\":");
  AppendJsonString(&line, request != nullptr ? request->method : "");
  line.append(",\"path\":");
  AppendJsonString(&line, request != nullptr ? request->path : "");
  line.append(",\"archive\":");
  AppendJsonString(&line, rec->request.archive);
  line.append(",\"status\":");
  AppendUint(&line, static_cast<uint64_t>(response.status));
  line.append(",\"bytes\":");
  AppendUint(&line, response.body.size());
  line.append(",\"dur_ns\":");
  AppendUint(&line, dur_ns);
  line.append(",\"hits\":");
  AppendUint(&line, rec->hits);
  // The query body's own "stats" object, byte for byte; requests that ran
  // no query (errors, sheds, other endpoints) log the all-zero one.
  static const std::string kNoStats = QueryStatsJson(ArchiveQueryResult{});
  line.append(",\"stats\":");
  line.append(rec->stats.empty() ? kNoStats : rec->stats);
  line.append(",\"degraded\":");
  line.append(rec->degraded ? "true" : "false");
  line.append(",\"shed\":");
  line.append(rec->shed ? "true" : "false");
  line.push_back('}');
  access_log_->Write(std::move(line));

  // Slow-query capture. Shed requests never qualify (they did no archive
  // work); requests with no command (metrics scrapes, health checks) have
  // no fate tree to capture.
  if (options_.slow_query_threshold_ns == 0 ||
      dur_ns < options_.slow_query_threshold_ns ||
      rec->request.command.empty() || rec->shed) {
    return;
  }
  SlowQueryEntry entry;
  entry.ts_ms = ts_ms;
  entry.request_id = rec->request_id;
  entry.rid64 = rec->rid64;
  entry.archive = rec->request.archive;
  entry.command = rec->request.command;
  entry.dur_ns = dur_ns;
  entry.status = response.status;
  if (!rec->explain_render.empty()) {
    entry.explain_render = std::move(rec->explain_render);
  } else {
    // Re-run with explain to get the fate tree. The slow run just warmed
    // the caches this re-run reads, so capture is cheap; what debugging
    // needs is the tree's *structure* (visited/pruned/cached), which the
    // warm re-run preserves. It replays the whole request (predicates,
    // degrade, deadline), so it prunes and fails exactly as the slow run did.
    ServiceRequest sr = rec->request;
    sr.explain = true;
    entry.explain_render = service_->Run(sr).explain_render;
  }
  slow_log_->Record(std::move(entry));
  metrics_->GetOrCreate("server.slow_queries")->Increment();
}

std::string LoggrepDaemon::RenderHealthz() const {
  std::string body("{\"status\":\"ok\",");
  AppendBuildInfoJsonFields(&body);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                ",\"daemon_uptime_seconds\":%.3f,\"archives_open\":%zu,"
                "\"inflight_queries\":%zu}",
                static_cast<double>(uptime_ns()) / 1e9,
                service_->open_archives(),
                inflight_queries_.load(std::memory_order_relaxed));
  body.append(buf);
  return body;
}

std::string LoggrepDaemon::RenderStatuszPage(uint64_t now_ns) const {
  StatuszInfo info;
  info.uptime_ns = uptime_ns();
  info.archives_open = service_->open_archives();
  info.inflight_queries = inflight_queries_.load(std::memory_order_relaxed);
  info.max_inflight_queries = options_.max_inflight_queries;
  info.requests_total = metrics_->GetOrCreate("server.requests")->value();
  info.admission_rejects_total =
      metrics_->GetOrCreate("server.admission_rejects")->value();
  info.degraded_total =
      metrics_->GetOrCreate("server.degraded_responses")->value();
  info.access_log_written = access_log_->written();
  info.access_log_dropped = access_log_->dropped();
  info.slow_queries_captured = slow_log_->captured();
  info.slow_threshold_ns = options_.slow_query_threshold_ns;
  info.sets_open = service_->open_sets();
  // Read, not GetOrCreate: a page view must not add zero-valued
  // set.compaction.* series to /metrics.
  const std::map<std::string, uint64_t> counters =
      options_.service.archive.metrics->Snapshot();
  auto counter = [&counters](const char* name) -> uint64_t {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  };
  info.compaction_merges = counter("set.compaction.merges");
  info.compaction_shards_merged = counter("set.compaction.shards_merged");
  info.compaction_failures = counter("set.compaction.failures");
  return RenderStatusz(*telemetry_, info, now_ns);
}

}  // namespace loggrep
