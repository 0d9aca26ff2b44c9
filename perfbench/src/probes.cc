#include "perfbench/src/probes.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <thread>
#include <unordered_map>

#include "src/common/bytes.h"

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SpinUntil(uint64_t deadline_ns) {
  while (NowNs() < deadline_ns) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

namespace {

thread_local std::vector<uint32_t> t_open_spans;

uint32_t ThreadNumber() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t number = next.fetch_add(1);
  return number;
}

}  // namespace

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder* recorder = new SpanRecorder();
  return *recorder;
}

uint32_t SpanRecorder::Begin(const char* name, uint64_t request_id) {
  if (!enabled()) {
    return 0;
  }
  Span span;
  span.name = name;
  span.request_id = request_id;
  span.thread = ThreadNumber();
  span.parent = t_open_spans.empty() ? ambient_.load(std::memory_order_relaxed)
                                     : t_open_spans.back();
  span.start_ns = NowNs();
  uint32_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<uint32_t>(spans_.size() + 1);
    span.id = id;
    spans_.push_back(span);
  }
  t_open_spans.push_back(id);
  return id;
}

void SpanRecorder::End(uint32_t id) {
  if (id == 0) {
    return;
  }
  const uint64_t end = NowNs();
  if (!t_open_spans.empty() && t_open_spans.back() == id) {
    t_open_spans.pop_back();
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (id <= spans_.size()) {
    spans_[id - 1].end_ns = end;
  }
}

std::vector<Span> SpanRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void SpanRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
  ambient_.store(0, std::memory_order_relaxed);
}

std::map<std::string, SpanTotals> SummarizeSpans(const std::vector<Span>& spans) {
  std::unordered_map<uint32_t, std::vector<const Span*>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      children[span.parent].push_back(&span);
    }
  }
  std::map<std::string, SpanTotals> totals;
  std::vector<std::pair<uint64_t, uint64_t>> covered;
  for (const Span& span : spans) {
    if (span.end_ns < span.start_ns) {
      continue;  // never closed
    }
    const uint64_t dur = span.end_ns - span.start_ns;
    // Union of the children's intervals, clipped to this span.
    covered.clear();
    const auto it = children.find(span.id);
    if (it != children.end()) {
      for (const Span* child : it->second) {
        const uint64_t lo = std::max(child->start_ns, span.start_ns);
        const uint64_t hi = std::min(child->end_ns, span.end_ns);
        if (hi > lo) {
          covered.emplace_back(lo, hi);
        }
      }
    }
    std::sort(covered.begin(), covered.end());
    uint64_t child_ns = 0;
    uint64_t run_lo = 0;
    uint64_t run_hi = 0;
    for (const auto& [lo, hi] : covered) {
      if (lo > run_hi) {
        child_ns += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    child_ns += run_hi - run_lo;
    SpanTotals& t = totals[span.name];
    ++t.count;
    t.total_ms += static_cast<double>(dur) / 1e6;
    t.self_ms += static_cast<double>(dur - std::min(dur, child_ns)) / 1e6;
  }
  return totals;
}

std::string SpansToChromeJson(const std::vector<Span>& spans) {
  std::string out = "{\"traceEvents\":[";
  uint64_t base = UINT64_MAX;
  for (const Span& span : spans) {
    base = std::min(base, span.start_ns);
  }
  bool first = true;
  for (const Span& span : spans) {
    if (span.end_ns < span.start_ns) {
      continue;
    }
    if (!first) {
      out += ",\n";
    }
    first = false;
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,"
                  "\"rid\":%llu}}",
                  span.name, span.thread,
                  static_cast<double>(span.start_ns - base) / 1e3,
                  static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                  span.id, span.parent,
                  static_cast<unsigned long long>(span.request_id));
    out += buf;
  }
  out += "]}\n";
  return out;
}

// ---------------------------------------------------------------------------
// TimingCodec
// ---------------------------------------------------------------------------

std::string TimingCodec::CompressPayload(std::string_view raw) const {
  ScopedSpan span("codec.compress");
  const uint64_t t0 = NowNs();
  std::string blob = inner_.Compress(raw);
  compress_ns_ += NowNs() - t0;
  compress_raw_bytes_ += raw.size();
  // Strip the container header ([u8 id][LEB128 raw size]); Compress() of
  // this wrapper writes an identical one back.
  size_t pos = 1;
  while (pos < blob.size() && (static_cast<uint8_t>(blob[pos]) & 0x80) != 0) {
    ++pos;
  }
  return blob.substr(pos + 1);
}

loggrep::Result<std::string> TimingCodec::DecompressPayload(
    std::string_view payload, size_t raw_size) const {
  loggrep::ByteWriter blob;
  blob.PutU8(inner_.id());
  blob.PutVarint(raw_size);
  blob.PutBytes(payload);
  return inner_.Decompress(blob.Take());
}

// ---------------------------------------------------------------------------
// ModeledSyncEnv
// ---------------------------------------------------------------------------

loggrep::Status ModeledSyncEnv::SyncFile(const std::string& path) {
  if (!base_->FileExists(path)) {
    return loggrep::NotFound("sync: no such file: " + path);
  }
  SpinUntil(NowNs() + kSyncFileNs);
  return loggrep::OkStatus();
}

loggrep::Status ModeledSyncEnv::SyncDir(const std::string& dir) {
  if (!base_->FileExists(dir)) {
    return loggrep::NotFound("sync: no such directory: " + dir);
  }
  SpinUntil(NowNs() + kSyncDirNs);
  return loggrep::OkStatus();
}

HostSync MeasureHostSync(const std::string& dir, int rounds) {
  loggrep::StorageEnv* env = loggrep::DefaultStorageEnv();
  const std::string data(16u << 10, 'x');
  std::vector<double> file_us;
  std::vector<double> dir_us;
  for (int i = 0; i < rounds; ++i) {
    const std::string path = dir + "/sync-probe-" + std::to_string(i);
    if (!env->WriteFile(path, data).ok()) {
      break;
    }
    uint64_t t0 = NowNs();
    const bool file_ok = env->SyncFile(path).ok();
    file_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    t0 = NowNs();
    const bool dir_ok = env->SyncDir(dir).ok();
    dir_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    (void)env->RemoveFile(path);
    if (!file_ok || !dir_ok) {
      break;
    }
  }
  return HostSync{Quantile(file_us, 0.5), Quantile(dir_us, 0.5)};
}

// ---------------------------------------------------------------------------
// TimingEnv
// ---------------------------------------------------------------------------

loggrep::Result<std::string> TimingEnv::ReadFile(const std::string& path) {
  ScopedSpan span("store.read");
  const uint64_t t0 = NowNs();
  loggrep::Result<std::string> data = base_->ReadFile(path);
  const uint64_t ns = NowNs() - t0;
  std::lock_guard<std::mutex> lock(mu_);
  totals_.read_ns += ns;
  if (data.ok()) {
    totals_.read_bytes += data->size();
  }
  return data;
}

loggrep::Status TimingEnv::WriteFile(const std::string& path,
                                     std::string_view data) {
  ScopedSpan span("store.write");
  loggrep::Status status = base_->WriteFile(path, data);
  std::lock_guard<std::mutex> lock(mu_);
  totals_.written_bytes += data.size();
  return status;
}

loggrep::Status TimingEnv::Rename(const std::string& from, const std::string& to) {
  ScopedSpan span("store.rename");
  return base_->Rename(from, to);
}

loggrep::Status TimingEnv::RemoveFile(const std::string& path) {
  return base_->RemoveFile(path);
}

loggrep::Status TimingEnv::SyncFile(const std::string& path) {
  ScopedSpan span("store.fsync");
  const uint64_t t0 = NowNs();
  loggrep::Status status = base_->SyncFile(path);
  const uint64_t ns = NowNs() - t0;
  std::lock_guard<std::mutex> lock(mu_);
  ++totals_.fsyncs;
  totals_.fsync_ns += ns;
  return status;
}

loggrep::Status TimingEnv::SyncDir(const std::string& dir) {
  ScopedSpan span("store.fsync");
  const uint64_t t0 = NowNs();
  loggrep::Status status = base_->SyncDir(dir);
  const uint64_t ns = NowNs() - t0;
  std::lock_guard<std::mutex> lock(mu_);
  ++totals_.fsyncs;
  totals_.fsync_ns += ns;
  return status;
}

bool TimingEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

TimingEnv::Totals TimingEnv::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

// ---------------------------------------------------------------------------
// Summaries
// ---------------------------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0;
  }
  double sum = 0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

size_t SamplesBeyond(size_t n, double q) {
  return static_cast<size_t>(std::floor(static_cast<double>(n) * (1.0 - q) + 1e-9));
}

namespace {

double ReadStatusKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr);
    }
  }
  return 0;
}

}  // namespace

void PeakRss::Reset() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

double PeakRss::PeakMb() const { return ReadStatusKb("VmHWM") / 1024.0; }

StealMeter::Ticks StealMeter::Read() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0, softirq = 0,
           steal = 0;
  if (!(in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> steal) ||
      cpu != "cpu") {
    return Ticks{};
  }
  return Ticks{steal, user + nice + system + irq + softirq + steal};
}

double StealMeter::Share() const {
  const Ticks now = Read();
  const uint64_t busy = now.busy - start_.busy;
  return busy > 0 ? static_cast<double>(now.steal - start_.steal) / static_cast<double>(busy)
                  : 0;
}

}  // namespace perfbench
