// Measurement probes for the benchmark: an in-memory span recorder,
// delegating Codec / StorageEnv wrappers that time the calls the program
// makes into those plug-in interfaces, latency summaries, and peak-RSS
// sampling. Everything here sits outside the program: it only implements the
// program's public plug-in interfaces (Codec, StorageEnv) and wraps calls the
// benchmark itself makes.
#ifndef PERFBENCH_SRC_PROBES_H_
#define PERFBENCH_SRC_PROBES_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/codec/codec.h"
#include "src/store/storage_env.h"

namespace perfbench {

// Monotonic nanoseconds (std::chrono::steady_clock).
uint64_t NowNs();

// Busy-waits until NowNs() >= `deadline_ns`. The open-loop appender and the
// modeled durability barrier wait this way instead of sleeping: a sleep on
// a shared virtual machine overshoots, and the vCPU wakes on cold caches,
// by an amount that changes from run to run.
void SpinUntil(uint64_t deadline_ns);

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct Span {
  uint32_t id = 0;      // 1-based; 0 means "no span"
  uint32_t parent = 0;  // enclosing span (same thread) or the ambient span
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t request_id = 0;  // the benchmark's op number; joins a request's spans
  uint32_t thread = 0;      // small per-process thread number
};

// Process-wide span store. Spans are kept in memory and written out at
// exit. Disabled recorders cost one relaxed load per probe.
class SpanRecorder {
 public:
  static SpanRecorder& Get();

  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Opens a span whose parent is this thread's innermost open span, or the
  // ambient span when this thread has none (pool workers the benchmark does
  // not own). Returns 0 when disabled.
  uint32_t Begin(const char* name, uint64_t request_id = 0);
  void End(uint32_t id);

  // Parent for spans begun on threads with no open span of their own.
  void SetAmbient(uint32_t id) { ambient_.store(id, std::memory_order_relaxed); }

  std::vector<Span> Snapshot() const;
  void Clear();

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint32_t> ambient_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_; index = id - 1
};

// RAII span; a no-op while the recorder is disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t request_id = 0)
      : id_(SpanRecorder::Get().Begin(name, request_id)) {}
  ~ScopedSpan() { SpanRecorder::Get().End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return id_; }

 private:
  uint32_t id_;
};

// Per span name: count, total duration and self time (duration minus the
// part of the span covered by its children).
struct SpanTotals {
  uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};
std::map<std::string, SpanTotals> SummarizeSpans(const std::vector<Span>& spans);

// Chrome trace_event JSON of `spans` (one "X" event each).
std::string SpansToChromeJson(const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Delegating Codec
// ---------------------------------------------------------------------------

// Wraps a registered codec under the same id(), so blobs it writes decode
// through the normal registry. Times every compression call.
class TimingCodec : public loggrep::Codec {
 public:
  explicit TimingCodec(const loggrep::Codec& inner) : inner_(inner) {}

  const char* name() const override { return inner_.name(); }
  uint8_t id() const override { return inner_.id(); }

  uint64_t compress_ns() const { return compress_ns_.load(); }
  uint64_t compress_raw_bytes() const { return compress_raw_bytes_.load(); }

 protected:
  std::string CompressPayload(std::string_view raw) const override;
  loggrep::Result<std::string> DecompressPayload(std::string_view payload,
                                                 size_t raw_size) const override;

 private:
  const loggrep::Codec& inner_;
  mutable std::atomic<uint64_t> compress_ns_{0};
  mutable std::atomic<uint64_t> compress_raw_bytes_{0};
};

// ---------------------------------------------------------------------------
// Delegating StorageEnv
// ---------------------------------------------------------------------------

// The benchmark's storage backend: every read, write, rename and remove
// goes to the real POSIX filesystem, but a durability barrier costs a fixed
// modeled latency instead of an fsync. fsync latency on a shared virtual
// disk moves between runs by several times its median (1.5-5 ms per append
// on one day, 0.2 ms on another, on the same VM), which would bury every
// other change. The model charges each barrier the program issues, busy-
// waiting its fixed cost (SpinUntil) so that the charge is exact, but not
// the bytes a barrier has to flush. The constants are the medians of
// 600 measured barriers of each kind (MeasureHostSync below: SyncFile of a
// fresh 16 KiB file, SyncDir of its directory, through DefaultStorageEnv) on
// a 4-vCPU KVM guest with a virtio disk and ext4. Every result prints them
// as "sync_model_us" beside the host's medians of that run,
// "host_sync_p50_us".
class ModeledSyncEnv : public loggrep::StorageEnv {
 public:
  static constexpr uint64_t kSyncFileNs = 130'000;
  static constexpr uint64_t kSyncDirNs = 55'000;

  ModeledSyncEnv() : base_(loggrep::DefaultStorageEnv()) {}

  loggrep::Result<std::string> ReadFile(const std::string& path) override {
    return base_->ReadFile(path);
  }
  loggrep::Status WriteFile(const std::string& path, std::string_view data) override {
    return base_->WriteFile(path, data);
  }
  loggrep::Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }
  loggrep::Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  loggrep::Status SyncFile(const std::string& path) override;
  loggrep::Status SyncDir(const std::string& dir) override;
  bool FileExists(const std::string& path) override { return base_->FileExists(path); }
  uint64_t NowNanos() override { return base_->NowNanos(); }
  void SleepNanos(uint64_t nanos) override { base_->SleepNanos(nanos); }
  const char* name() const override { return "modeled-sync"; }

 private:
  loggrep::StorageEnv* base_;
};

// Median latencies in microseconds of `rounds` real durability barriers of
// each kind through DefaultStorageEnv: SyncFile of a freshly written 16 KiB
// file under `dir`, then SyncDir of `dir`. Removes its files.
struct HostSync {
  double file_us = 0;
  double dir_us = 0;
};
HostSync MeasureHostSync(const std::string& dir, int rounds);

// Counts and times every storage call, delegating to `base`.
class TimingEnv : public loggrep::StorageEnv {
 public:
  struct Totals {
    uint64_t read_bytes = 0;
    uint64_t read_ns = 0;
    uint64_t written_bytes = 0;
    uint64_t fsyncs = 0;  // SyncFile + SyncDir
    uint64_t fsync_ns = 0;
  };

  explicit TimingEnv(loggrep::StorageEnv* base) : base_(base) {}

  loggrep::Result<std::string> ReadFile(const std::string& path) override;
  loggrep::Status WriteFile(const std::string& path,
                            std::string_view data) override;
  loggrep::Status Rename(const std::string& from, const std::string& to) override;
  loggrep::Status RemoveFile(const std::string& path) override;
  loggrep::Status SyncFile(const std::string& path) override;
  loggrep::Status SyncDir(const std::string& dir) override;
  bool FileExists(const std::string& path) override;
  uint64_t NowNanos() override { return base_->NowNanos(); }
  void SleepNanos(uint64_t nanos) override { base_->SleepNanos(nanos); }
  const char* name() const override { return "timing"; }

  Totals totals() const;

 private:
  loggrep::StorageEnv* base_;
  mutable std::mutex mu_;
  Totals totals_;  // guarded by mu_
};

// ---------------------------------------------------------------------------
// Summaries
// ---------------------------------------------------------------------------

// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

// Samples strictly above the q-quantile position: floor(n * (1 - q)).
size_t SamplesBeyond(size_t n, double q);

// Peak resident set of the measured phase. Resets the kernel's high-water
// mark when allowed (/proc/self/clear_refs), else keeps the process peak.
class PeakRss {
 public:
  void Reset();
  double PeakMb() const;  // VmHWM in MiB
};

// Share of the machine's busy CPU time that the hypervisor gave to other
// guests ("steal" in /proc/stat) since construction: steal / (user + nice +
// system + irq + softirq + steal). It shows how much a run was disturbed
// from outside the guest; 0 when /proc/stat is unreadable.
class StealMeter {
 public:
  StealMeter() : start_(Read()) {}
  double Share() const;

 private:
  struct Ticks {
    uint64_t steal = 0;
    uint64_t busy = 0;  // including steal
  };
  static Ticks Read();
  Ticks start_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PROBES_H_
