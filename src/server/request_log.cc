#include "src/server/request_log.h"

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "src/common/hash.h"
#include "src/common/json.h"

namespace loggrep {

// ---------------------------------------------------------------------------
// AccessLog
// ---------------------------------------------------------------------------

AccessLog::AccessLog(AccessLogOptions options)
    : options_(std::move(options)) {
  if (!options_.path.empty()) {
    file_ = std::fopen(options_.path.c_str(), "a");
    if (file_ == nullptr) {
      // Counted lines still reach the sink; the daemon refuses to start.
      status_ = IOError("access log " + options_.path + ": " +
                        std::strerror(errno));
    }
  }
  flusher_ = std::thread([this] { FlusherLoop(); });
}

AccessLog::~AccessLog() {
  stopping_.store(true, std::memory_order_release);
  if (flusher_.joinable()) {
    flusher_.join();
  }
  DrainOnce();  // final drain after the flusher stopped
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

void AccessLog::Write(std::string&& line) {
  line.push_back('\n');
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.size() < kAccessLogCapacity) {
      pending_.push_back(std::move(line));
      written_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  dropped_.fetch_add(1, std::memory_order_relaxed);
}

void AccessLog::DrainOnce() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_.swap(pending_);
  }
  for (const std::string& line : draining_) {
    if (file_ != nullptr) {
      std::fwrite(line.data(), 1, line.size(), file_);
    }
    if (options_.sink) {
      options_.sink(line);
    }
  }
  if (!draining_.empty() && file_ != nullptr) {
    std::fflush(file_);
  }
  flushed_.fetch_add(draining_.size(), std::memory_order_release);
  draining_.clear();
}

void AccessLog::FlusherLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    DrainOnce();
    std::this_thread::sleep_for(
        std::chrono::milliseconds(kAccessLogFlushIntervalMs));
  }
}

void AccessLog::Flush() {
  const uint64_t target = written_.load(std::memory_order_acquire);
  while (flushed_.load(std::memory_order_acquire) < target &&
         !stopping_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// ---------------------------------------------------------------------------
// SlowQueryLog
// ---------------------------------------------------------------------------

std::string SlowQueryEntry::ToJson() const {
  std::string out("{\"ts_ms\":");
  out.append(std::to_string(ts_ms));
  out.append(",\"rid\":");
  AppendJsonString(&out, request_id);
  // As a string: rid64 spans the full uint64 range, and JSON consumers that
  // parse numbers as doubles would silently round ids above 2^53.
  out.append(",\"rid64\":\"");
  out.append(std::to_string(rid64));
  out.push_back('"');
  out.append(",\"archive\":");
  AppendJsonString(&out, archive);
  out.append(",\"command\":");
  AppendJsonString(&out, command);
  out.append(",\"dur_ns\":");
  out.append(std::to_string(dur_ns));
  out.append(",\"status\":");
  out.append(std::to_string(status));
  out.append(",\"explain\":");
  AppendJsonString(&out, explain_render);
  out.push_back('}');
  return out;
}

void SlowQueryLog::Record(SlowQueryEntry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  ++captured_;
  entries_.push_back(std::move(entry));
  while (entries_.size() > capacity_) {
    entries_.pop_front();
  }
}

std::vector<SlowQueryEntry> SlowQueryLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {entries_.rbegin(), entries_.rend()};
}

std::string SlowQueryLog::RenderJson(uint64_t threshold_ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out("{\"threshold_ns\":");
  out.append(std::to_string(threshold_ns));
  out.append(",\"captured\":");
  out.append(std::to_string(captured_));
  out.append(",\"entries\":[");
  bool first = true;
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    out.append(it->ToJson());
  }
  out.append("]}");
  return out;
}

uint64_t SlowQueryLog::captured() const {
  std::lock_guard<std::mutex> lock(mu_);
  return captured_;
}

// ---------------------------------------------------------------------------
// Request ids
// ---------------------------------------------------------------------------

uint64_t RequestIdHash(std::string_view s) { return Fnv1a64(s); }

std::string GenerateRequestId() {
  // splitmix64 over (per-process random base + counter): unique in-process,
  // different across runs, no coordination.
  static const uint64_t base = [] {
    const uint64_t t = static_cast<uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    return t ^ (static_cast<uint64_t>(::getpid()) << 32);
  }();
  static std::atomic<uint64_t> counter{0};
  uint64_t z = base + 0x9e3779b97f4a7c15ull *
                          (counter.fetch_add(1, std::memory_order_relaxed) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(z));
  return buf;
}

}  // namespace loggrep
