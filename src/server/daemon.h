// loggrepd: a long-lived query-serving daemon over POSIX sockets.
//
// The paper's cost model (§5) assumes LogGrep runs as a shared cloud
// service: many users grepping hot compressed archives through one process
// whose caches amortize across all of them. This daemon is that shape. A
// minimal HTTP/1.1 API (src/server/http.h, no external dependencies) rides
// on one accept thread plus the existing ThreadPool:
//
//   accept thread ──► ThreadPool::Submit(connection)
//                          │ one pool task per connection; the task owns
//                          │ the socket for the connection's whole life
//                          ▼
//                     parse request ─► admission check ─► ArchiveService
//                          ▲                                   │
//                          └────── keep-alive loop ◄───────────┘
//
// Endpoints:
//   POST /query?archive=<rel>[&degrade=0][&deadline_ms=N]   body = command
//   GET  /query?archive=<rel>&q=<command>[&...]             (same, in URL)
//   GET  /explain?archive=<rel>&q=<command>[&...]
//   POST /compact?archive=<rel>   admin: one compaction pass over an
//                      ArchiveSet root (400 for plain archives); returns
//                      the merge report as JSON
//   GET  /metrics      Prometheus exposition: registry counters/histograms,
//                      windowed SLO gauges, build_info + uptime
//   GET  /healthz      liveness JSON: version, uptime, open-archive /
//                      in-flight counts
//   GET  /statusz      human-readable service state (src/server/telemetry.h)
//   GET  /debug/slow   bounded slow-query log with explain fate trees
//
// Per-request telemetry: every response carries an X-Request-Id header —
// the client's own (X-Request-Id request header) or a generated 16-hex id.
// The id's FNV-1a hash is attached to the request's trace spans ("rid" arg)
// and emitted as "rid64" in the JSON-lines access log, so one value joins
// the access log, the slow-query log, and the exported trace. Requests
// slower than `slow_query_threshold_ns` are re-run with explain to capture
// their fate tree into the slow-query log (bounded, served by /debug/slow).
//
// Status contract (single source of truth: src/server/archive_service.h):
// 200 complete, 206 degraded (PartialReport in the body), 400 bad query,
// 404 unknown archive, 429 over admission limit (Retry-After:
// kRetryAfterSeconds), 500 block failure with ?degrade=0.
//
// Admission control: at most `max_inflight_queries` query/explain requests
// execute at once, enforced with an atomic gate *before* any archive work.
// Excess requests are bounced immediately with 429 + Retry-After — the
// daemon sheds load instead of queueing it, so overload degrades service
// latency for no one and can never collapse into an unbounded backlog.
//
// Shutdown: Shutdown() (the CLI wires SIGTERM to it) stops the accept loop,
// nudges idle keep-alive connections closed, lets in-flight requests finish
// and respond with "Connection: close", and joins every worker before
// returning — a drain, not an abort.
//
// DaemonOptions holds only what a deployment chooses (address, pool size,
// admission limit, root, registry, access-log destinations, slow-query
// threshold). The rest is fixed: the constants below, HttpLimits' defaults,
// the telemetry windows (telemetry.h) and the access-log buffer
// (request_log.h).
#ifndef SRC_SERVER_DAEMON_H_
#define SRC_SERVER_DAEMON_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "src/common/metrics.h"
#include "src/common/thread_pool.h"
#include "src/server/archive_service.h"
#include "src/server/http.h"
#include "src/server/request_log.h"
#include "src/server/telemetry.h"

namespace loggrep {

// A 429's Retry-After header, in seconds.
inline constexpr unsigned kRetryAfterSeconds = 1;
// Idle keep-alive connections are closed after this long without a request
// byte.
inline constexpr uint64_t kIdleTimeoutMs = 30'000;
// Entries the slow-query log retains (oldest evicted first).
inline constexpr size_t kSlowLogCapacity = 64;

struct DaemonOptions {
  // Listening address. Port 0 binds an ephemeral port (tests/bench read the
  // real one from LoggrepDaemon::port()). Loopback by default: loggrepd has
  // no authentication story yet, so it must not listen on the open network.
  std::string host = "127.0.0.1";
  uint16_t port = 0;

  // Connection-handling pool. One pool task per live connection, so this
  // is also the concurrent-connection ceiling; further accepted connections
  // queue inside the pool until a slot frees.
  size_t num_threads = 8;

  // Admission control: maximum concurrently executing query/explain
  // requests. 0 is honored literally (every query bounced 429) — tests use
  // it to pin the overload contract.
  size_t max_inflight_queries = 16;

  // Serving root + per-archive options (metrics/env/cache budget/retry).
  ServiceOptions service;

  // Registry for "server.*" counters and the /metrics endpoint. Borrowed;
  // null = daemon-private registry.
  MetricsRegistry* metrics = nullptr;

  // Access log destinations. Always on (the in-memory buffer is cheap); set
  // `access_log.path` to persist JSON lines to a file. Start() fails on a
  // path that cannot be opened.
  AccessLogOptions access_log;

  // Queries at least this slow get their explain fate tree captured into
  // the slow-query log (GET /debug/slow). 0 disables capture.
  uint64_t slow_query_threshold_ns = 1'000'000'000ull;  // 1 s
};

class LoggrepDaemon {
 public:
  explicit LoggrepDaemon(DaemonOptions options);
  ~LoggrepDaemon();  // implies Shutdown()

  LoggrepDaemon(const LoggrepDaemon&) = delete;
  LoggrepDaemon& operator=(const LoggrepDaemon&) = delete;

  // Binds, listens and starts the accept loop. Returns the bound port, or
  // the access log's IOError when its path could not be opened.
  Result<uint16_t> Start();

  // Graceful drain (see file comment). Idempotent; safe from any thread
  // except a connection handler's own.
  void Shutdown();

  bool running() const { return running_.load(std::memory_order_acquire); }
  uint16_t port() const { return port_; }
  // Currently executing query/explain requests (admission gate reading).
  size_t inflight_queries() const {
    return inflight_queries_.load(std::memory_order_relaxed);
  }
  ArchiveService& service() { return *service_; }
  MetricsRegistry& metrics() { return *metrics_; }
  ServerTelemetry& telemetry() { return *telemetry_; }
  AccessLog& access_log() { return *access_log_; }
  SlowQueryLog& slow_log() { return *slow_log_; }
  // Nanoseconds since this daemon object was constructed.
  uint64_t uptime_ns() const;

 private:
  // Everything one request contributes to the access log beyond what the
  // HttpRequest/HttpResponse pair already carries. Route/RunQuery fill it;
  // HandleConnection emits the line and runs slow-query capture.
  struct RequestRecord {
    std::string request_id;
    uint64_t rid64 = 0;
    // The service request as parsed (archive and command are empty for
    // endpoints that run none); slow-query capture replays it with explain.
    ServiceRequest request;
    bool shed = false;      // bounced by admission control (429)
    bool degraded = false;  // 206 partial
    // The query's hit count and its body's "stats" object (empty when the
    // request ran no query; the access log then writes an all-zero one).
    uint64_t hits = 0;
    std::string stats;
    std::string explain_render;  // filled when the request was /explain
  };

  // Accepts on `listen_fd` (passed by value: Shutdown owns listen_fd_)
  // until Shutdown shuts the listener down.
  void AcceptLoop(int listen_fd);
  void HandleConnection(int fd);
  // Routes one parsed request. Sets `close_after` when the response must be
  // the connection's last (errors, drain).
  HttpResponse Route(const HttpRequest& request, bool* close_after,
                     RequestRecord* rec);
  HttpResponse RunQuery(const HttpRequest& request, bool explain,
                        RequestRecord* rec);
  // Access-log emission + telemetry + slow-query capture for one finished
  // request. `request` may be null (parse errors have no parsed request).
  void FinishRequest(const HttpRequest* request, const HttpResponse& response,
                     RequestRecord* rec, uint64_t start_ns, uint64_t end_ns);
  std::string RenderHealthz() const;
  std::string RenderStatuszPage(uint64_t now_ns) const;

  DaemonOptions options_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<AccessLog> access_log_;
  std::unique_ptr<ArchiveService> service_;
  std::unique_ptr<ServerTelemetry> telemetry_;
  std::unique_ptr<SlowQueryLog> slow_log_;
  uint64_t start_ns_ = 0;  // construction time (uptime + ts_ms base)
  std::unique_ptr<ThreadPool> pool_;
  std::thread accept_thread_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<size_t> inflight_queries_{0};
  std::atomic<size_t> active_connections_{0};
  std::mutex drain_mu_;
  std::condition_variable drained_;
};

}  // namespace loggrep

#endif  // SRC_SERVER_DAEMON_H_
