#include "src/common/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "src/common/json.h"

namespace loggrep {
namespace {

// Thread-local span context. A single slot suffices because spans are
// strictly scoped: each TraceSpan saves the previous value and restores it
// on destruction (LIFO).
thread_local uint64_t tls_current_span = 0;
thread_local uint32_t tls_thread_id = 0;
thread_local bool tls_thread_id_set = false;

uint64_t SteadyNowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Microsecond timestamp with sub-microsecond fraction, as Chrome expects.
void AppendMicros(std::string& out, uint64_t nanos) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(nanos / 1000),
                static_cast<unsigned long long>(nanos % 1000));
  out += buf;
}

std::string g_trace_out_path;  // set once by Global() before atexit

void DumpGlobalTraceAtExit() {
  if (!g_trace_out_path.empty()) {
    Tracer::Global().WriteChromeJson(g_trace_out_path);
  }
}

}  // namespace

Tracer::Tracer(size_t capacity) : epoch_ns_(SteadyNowNanos()) {
  ring_.resize(std::max<size_t>(1, capacity));
}

Tracer& Tracer::Global() {
  static Tracer* tracer = [] {
    auto* t = new Tracer();
    const char* on = std::getenv("LOGGREP_TRACE");
    if (on != nullptr && on[0] != '\0' && std::strcmp(on, "0") != 0) {
      t->Enable(true);
    }
    const char* out = std::getenv("LOGGREP_TRACE_OUT");
    if (out != nullptr && out[0] != '\0') {
      t->Enable(true);
      g_trace_out_path = out;
      std::atexit(DumpGlobalTraceAtExit);
    }
    return t;
  }();
  return *tracer;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  head_ = 0;
  count_ = 0;
  dropped_ = 0;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

uint64_t Tracer::NowNanos() const { return SteadyNowNanos() - epoch_ns_; }

uint64_t Tracer::NextSpanId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

uint64_t Tracer::CurrentSpanId() { return tls_current_span; }

uint32_t Tracer::CurrentThreadId() {
  if (!tls_thread_id_set) {
    static std::atomic<uint32_t> next{0};
    tls_thread_id = next.fetch_add(1, std::memory_order_relaxed);
    tls_thread_id_set = true;
  }
  return tls_thread_id;
}

void Tracer::SetCurrentThreadName(std::string name) {
  const uint32_t tid = CurrentThreadId();
  std::lock_guard<std::mutex> lock(mu_);
  thread_names_[tid] = std::move(name);
}

void Tracer::Record(const TraceEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  ring_[head_] = event;
  head_ = (head_ + 1) % ring_.size();
  if (count_ < ring_.size()) {
    ++count_;
  } else {
    ++dropped_;  // overwrote the oldest event
  }
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(count_);
  const size_t cap = ring_.size();
  const size_t first = (head_ + cap - count_) % cap;
  for (size_t i = 0; i < count_; ++i) {
    out.push_back(ring_[(first + i) % cap]);
  }
  return out;
}

std::string Tracer::ExportChromeJson() const {
  std::vector<TraceEvent> events;
  std::unordered_map<uint32_t, std::string> names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    events.reserve(count_);
    const size_t cap = ring_.size();
    const size_t first = (head_ + cap - count_) % cap;
    for (size_t i = 0; i < count_; ++i) {
      events.push_back(ring_[(first + i) % cap]);
    }
    names = thread_names_;
  }

  // Index by span id for cross-thread flow stitching.
  std::unordered_map<uint64_t, const TraceEvent*> by_id;
  by_id.reserve(events.size());
  for (const TraceEvent& e : events) {
    by_id.emplace(e.span_id, &e);
  }

  std::string out;
  out.reserve(events.size() * 160 + 256);
  out += "{\"traceEvents\":[";
  bool first_event = true;
  auto comma = [&] {
    if (!first_event) {
      out += ",\n";
    }
    first_event = false;
  };

  // Thread-name metadata events.
  for (const auto& [tid, name] : names) {
    comma();
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(tid) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":";
    AppendJsonString(&out, name);
    out += "}}";
  }

  for (const TraceEvent& e : events) {
    // Complete event.
    comma();
    out += "{\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(e.tid) +
           ",\"name\":";
    AppendJsonString(&out, e.name != nullptr ? e.name : "?");
    out += ",\"cat\":";
    AppendJsonString(&out, e.category != nullptr ? e.category : "loggrep");
    out += ",\"ts\":";
    AppendMicros(out, e.start_ns);
    out += ",\"dur\":";
    AppendMicros(out, e.dur_ns);
    out += ",\"args\":{\"span\":" + std::to_string(e.span_id) +
           ",\"parent\":" + std::to_string(e.parent_id);
    if (e.arg_name != nullptr) {
      out += ',';
      AppendJsonString(&out, e.arg_name);
      out += ':' + std::to_string(e.arg_value);
    }
    out += "}}";

    // Flow arrow when the parent span lives on another thread.
    if (e.parent_id != 0) {
      const auto it = by_id.find(e.parent_id);
      if (it != by_id.end() && it->second->tid != e.tid) {
        const TraceEvent& p = *it->second;
        // Flow start must sit inside the parent slice.
        const uint64_t s_ts =
            std::min(std::max(e.start_ns, p.start_ns), p.start_ns + p.dur_ns);
        comma();
        out += "{\"ph\":\"s\",\"pid\":1,\"tid\":" + std::to_string(p.tid) +
               ",\"id\":" + std::to_string(e.span_id) +
               ",\"name\":\"submit\",\"cat\":\"flow\",\"ts\":";
        AppendMicros(out, s_ts);
        out += "}";
        comma();
        out += "{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":" +
               std::to_string(e.tid) + ",\"id\":" + std::to_string(e.span_id) +
               ",\"name\":\"submit\",\"cat\":\"flow\",\"ts\":";
        AppendMicros(out, e.start_ns);
        out += "}";
      }
    }
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return false;
  }
  const std::string json = ExportChromeJson();
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  return out.good();
}

TraceSpan::TraceSpan(const char* name, const char* category) {
  if (Tracer::Global().enabled()) {
    Begin(name, category, nullptr, 0);
  }
}

TraceSpan::TraceSpan(const char* name, const char* category,
                     const char* arg_name, uint64_t arg_value) {
  if (Tracer::Global().enabled()) {
    Begin(name, category, arg_name, arg_value);
  }
}

void TraceSpan::Begin(const char* name, const char* category,
                      const char* arg_name, uint64_t arg_value) {
  name_ = name;
  category_ = category;
  arg_name_ = arg_name;
  arg_value_ = arg_value;
  span_id_ = Tracer::NextSpanId();
  parent_id_ = tls_current_span;
  tls_current_span = span_id_;
  start_ns_ = Tracer::Global().NowNanos();
  active_ = true;
}

TraceSpan::~TraceSpan() {
  if (!active_) {
    return;
  }
  tls_current_span = parent_id_;
  Tracer& tracer = Tracer::Global();
  TraceEvent event;
  event.name = name_;
  event.category = category_;
  event.span_id = span_id_;
  event.parent_id = parent_id_;
  event.tid = Tracer::CurrentThreadId();
  event.start_ns = start_ns_;
  const uint64_t now = tracer.NowNanos();
  event.dur_ns = now > start_ns_ ? now - start_ns_ : 0;
  event.arg_name = arg_name_;
  event.arg_value = arg_value_;
  // Record even if tracing was toggled off mid-span: the span began under an
  // enabled tracer, and a half-recorded trace is worse than one extra event.
  tracer.Record(event);
}

ScopedTraceParent::ScopedTraceParent(uint64_t parent_span_id) {
  if (parent_span_id == 0) {
    return;
  }
  saved_ = tls_current_span;
  tls_current_span = parent_span_id;
  installed_ = true;
}

ScopedTraceParent::~ScopedTraceParent() {
  if (installed_) {
    tls_current_span = saved_;
  }
}

}  // namespace loggrep
