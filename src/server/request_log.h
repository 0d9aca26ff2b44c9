// Per-request logging for loggrepd: a structured JSON-lines access log
// written by a background flusher, and a bounded slow-query log that keeps
// the explain fate tree of the worst offenders.
//
// Access log design: request handlers must never block on log I/O — a slow
// disk under the access log must not become tail latency for every tenant.
// Producers therefore format their line and append it, under a mutex held
// only for the append, to a buffer of at most kAccessLogCapacity lines; a
// dedicated flusher thread swaps the buffer out every
// kAccessLogFlushIntervalMs and writes it to the sinks outside the lock.
// When the buffer is full the line is *dropped and counted* (`dropped()` /
// the loggrep_access_log_dropped gauge), never queued unboundedly and never
// waited for — the same shed-don't-queue stance as admission control.
//
// One line per request, one JSON object per line (jq-able), e.g.:
//   {"ts_ms":123,"rid":"5f3a...","rid64":123456,"method":"POST",
//    "path":"/query","archive":"arch","status":200,"bytes":512,
//    "dur_ns":18343210,"hits":3,"stats":{"blocks_pruned":0,
//    "blocks_queried":4,...,"stamp_filter_ns":..},
//    "degraded":false,"shed":false}
// "stats" is the /query body's own stats object (QueryStatsJson), all
// zero on lines that ran no query.
// `rid64` is the FNV-1a hash of the request id — the exact value attached
// to the request's trace spans, so log lines join against spans (and the
// slow-query log) on one integer.
//
// The slow-query log is a cold-path mutex-protected ring (capturing is rare
// by construction): the daemon records requests over its latency threshold
// together with the re-run explain fate tree, served by GET /debug/slow.
#ifndef SRC_SERVER_REQUEST_LOG_H_
#define SRC_SERVER_REQUEST_LOG_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/result.h"

namespace loggrep {

// Lines buffered between two flushes; a Write beyond them is dropped.
inline constexpr size_t kAccessLogCapacity = 4096;
// How often the flusher writes the buffered lines to the sinks.
inline constexpr uint64_t kAccessLogFlushIntervalMs = 20;

struct AccessLogOptions {
  // Destination file ("" = no file; a sink function may still be set).
  std::string path;
  // Optional extra sink (tests, /debug endpoints). Called from the flusher
  // thread only, one '\n'-terminated line per call.
  std::function<void(std::string_view)> sink;
};

class AccessLog {
 public:
  explicit AccessLog(AccessLogOptions options);
  ~AccessLog();  // stops the flusher after a final drain

  AccessLog(const AccessLog&) = delete;
  AccessLog& operator=(const AccessLog&) = delete;

  // IOError naming `path` when it could not be opened for appending (the
  // log then reaches the sink only); OK otherwise.
  const Status& status() const { return status_; }

  // Appends one line (a complete JSON object, no trailing newline — Write
  // adds it). Dropped (and counted) when kAccessLogCapacity lines wait.
  void Write(std::string&& line);

  // Blocks until every line written before the call has reached the sinks
  // (tests; the destructor drains implicitly).
  void Flush();

  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  uint64_t written() const {
    return written_.load(std::memory_order_relaxed);
  }

 private:
  void FlusherLoop();
  // Writes the buffered lines to the sinks. Called by the flusher thread,
  // and by the destructor once that thread has stopped.
  void DrainOnce();

  AccessLogOptions options_;
  std::FILE* file_ = nullptr;
  Status status_;
  std::mutex mu_;
  std::vector<std::string> pending_;  // guarded by mu_
  std::vector<std::string> draining_;  // the flusher's swapped-out batch
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> written_{0};   // accepted into pending_
  std::atomic<uint64_t> flushed_{0};   // drained to sinks
  std::atomic<bool> stopping_{false};
  std::thread flusher_;
};

// One captured slow request, with the explain fate tree re-run after the
// slow execution (re-runs are usually warm, so capture is cheap; the tree's
// *structure* — what was visited, pruned, cached — is what debugging needs).
struct SlowQueryEntry {
  uint64_t ts_ms = 0;        // capture time (ms since daemon start)
  std::string request_id;
  uint64_t rid64 = 0;        // FNV-1a of request_id (joins log + spans)
  std::string archive;
  std::string command;
  uint64_t dur_ns = 0;       // the slow execution's latency
  int status = 0;
  std::string explain_render;  // fate tree; "" when re-explain failed

  // Renders this entry as a JSON object.
  std::string ToJson() const;
};

// Bounded ring of the most recent slow queries. Mutex-protected: entries
// arrive at slow-query rate, not request rate.
class SlowQueryLog {
 public:
  explicit SlowQueryLog(size_t capacity) : capacity_(capacity) {}

  void Record(SlowQueryEntry entry);

  // Newest first.
  std::vector<SlowQueryEntry> Snapshot() const;

  // JSON body for GET /debug/slow:
  //   {"threshold_ns":N,"captured":N,"entries":[...newest first...]}
  std::string RenderJson(uint64_t threshold_ns) const;

  uint64_t captured() const;

 private:
  size_t capacity_;
  mutable std::mutex mu_;
  std::deque<SlowQueryEntry> entries_;
  uint64_t captured_ = 0;
};

// FNV-1a 64-bit over `s` — the request-id hash attached to trace spans and
// emitted as `rid64` in the access log.
uint64_t RequestIdHash(std::string_view s);

// Generates a 16-hex-char request id, unique within the process and
// non-guessable across runs. When the daemon generated the id itself,
// RequestIdHash(id) is still the join key — ids are opaque strings either
// way (clients may supply their own via X-Request-Id).
std::string GenerateRequestId();

}  // namespace loggrep

#endif  // SRC_SERVER_REQUEST_LOG_H_
