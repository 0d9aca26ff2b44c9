#include "perfbench/src/workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "perfbench/src/corpus.h"
#include "perfbench/src/probes.h"
#include "src/capsule/capsule_box.h"
#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/core/engine.h"
#include "src/ingest/log_ingestor.h"
#include "src/parser/block_parser.h"
#include "src/server/client.h"
#include "src/server/daemon.h"
#include "src/store/archive_set.h"
#include "src/store/log_archive.h"
#include "src/store/verify.h"
#include "src/workload/queries.h"
#include "src/workload/slo_harness.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using loggrep::LocatorStats;
using loggrep::QueryHits;

// ---------------------------------------------------------------------------
// Workload sizes (fixed; only the random streams depend on the seed)
// ---------------------------------------------------------------------------

constexpr size_t kIngestFileBytes = 2u << 20;    // one file per dataset
constexpr size_t kIngestBlockBytes = 256u << 10;  // 8 blocks per file
constexpr size_t kIngestChunkBytes = 64u << 10;   // producer Append() size
constexpr size_t kIngestWorkers = 3;
constexpr double kIngestTailQ = 0.90;

constexpr size_t kColdDatasetBytes = 1u << 20;
constexpr size_t kColdBlockBytes = 512u << 10;
constexpr size_t kColdIdPool = 256;
// One op is a round: a fresh-handle id lookup and a fresh-handle Table-1
// query on every archive. Single queries cost 0.15 to 12 ms in clusters
// that depend on dataset and kind (id lookups near 1.3 ms on three datasets
// and 2.7-3.4 ms on the others), and the median single query fell in the
// gap between two clusters: it read 1.7 or 2.2 ms on the same seed,
// depending on the mix a run happened to draw. Every round has the same mix.
constexpr double kColdTailQ = 0.95;

constexpr size_t kServedTenantBytes = 1u << 20;
constexpr size_t kServedBlockBytes = 512u << 10;
constexpr size_t kServedIdPool = 300;
constexpr double kServedZipfS = 0.5;
constexpr size_t kServedClients = 3;
constexpr double kServedDashboardShare = 0.2;
// p90, not p99: with 3 clients serialized on one set lock, a run's p99 moved
// between 10.6 and 19.5 ms over five runs (quartile spread 47% of the
// median), wider than any usable bound; p99 is still printed.
constexpr double kServedTailQ = 0.90;
// peak_rss_mb on served_grep is the high-water mark when this many measured
// requests have completed. Every novel command adds to the daemon's command
// cache, so the peak at the end of a run grew with the number of requests
// the host's speed allowed: 117 MB after 9500 requests, 159 MB after 14400.
constexpr size_t kServedRssRequests = 4000;

constexpr size_t kAppendQueryTenants = 3;
constexpr size_t kAppendTenantBytes = 1u << 20;
constexpr size_t kAppendSetupBlockBytes = 512u << 10;
constexpr size_t kAppendBlockBytes = 8u << 10;
constexpr size_t kAppendStreamBytes = 1u << 20;  // cycled per appender tenant
constexpr uint64_t kAppendShardBytes = 256u << 10;
constexpr double kAppendRatePerS = 40;
constexpr size_t kAppendQueryThreads = 2;
// Think time between one query thread's queries, so that reads leave the
// set lock free part of the time and the appender stays below saturation.
constexpr uint64_t kAppendThinkNs = 10'000'000;
constexpr size_t kAppendIdPool = 100;
// Appends still queued this long after the run's end count as failed, so a
// saturated appender cannot stretch a run past its time limit.
constexpr uint64_t kAppendGraceNs = 5'000'000'000;
constexpr double kAppendTailQ = 0.95;
// Appends and queries of the first seconds after the set is opened are
// checked but not timed: while the query threads first fill the capsule
// cache, appends there ran at about twice their later p50.
constexpr double kAppendWarmUpS = 3;

constexpr size_t kDecodeLadderBoxes = 16;
constexpr int kSetups = 7;  // set-ups per run; setup_s is their median

// The end-to-end latency and rate metrics come from the faster half of a
// run's time windows (QuietHalf below). On a shared 4-vCPU KVM guest a
// fixed CPU-only loop timed in 1 s buckets read 4.2 to 5.7 ms per pass
// over 40 s, in slow stretches of a few seconds, which moved whole-run
// medians of the same code by up to 20% between runs.
constexpr size_t kQuietWindows = 10;
constexpr size_t kQuietKept = 5;

// ---------------------------------------------------------------------------
// Per-layer metric table (every traced run prints all of them; a layer the
// workload bypasses reads 0)
// ---------------------------------------------------------------------------

const std::vector<std::pair<std::string, std::string>>& LayerDefs() {
  static const auto* kDefs = new std::vector<std::pair<std::string, std::string>>{
      {"ingest.worker_busy_s", "s"},
      {"ingest.producer_stall_s", "s"},
      {"ingest.commit_s", "s"},
      {"ingest.worker_utilization", "share"},
      {"codec.compress_s", "s"},
      {"codec.compress_mb_s", "MB/s"},
      {"codec.decode_mb_s", "MB/s"},
      {"parser.parse_s", "s"},
      {"capsule.assemble_s", "s"},
      {"store.bytes_written", "bytes"},
      {"store.write_amplification", "x"},
      {"store.fsyncs", "count"},
      {"store.fsync_s", "s"},
      {"store.read_bytes_per_query", "bytes"},
      {"store.read_ms", "ms"},
      {"store.open_ms", "ms"},
      {"store.append_ms", "ms"},
      {"store.append_late_ms", "ms"},
      {"query.prune_ms", "ms"},
      {"query.open_ms", "ms"},
      {"query.stamp_ms", "ms"},
      {"query.decompress_ms", "ms"},
      {"query.scan_ms", "ms"},
      {"query.reconstruct_ms", "ms"},
      {"query.unaccounted_ms", "ms"},
      {"query.blocks_pruned_share", "share"},
      {"query.capsules_skipped_share", "share"},
      {"query.candidates_per_hit", "x"},
      {"query_cache.hit_share", "share"},
      {"box_cache.hit_share", "share"},
      {"server.service_ms", "ms"},
      {"server.outside_ms", "ms"},
      {"server.queue_ms", "ms"},
      {"server.admission_rejects", "count"},
      {"trace.overhead_share", "share"},
      {"trace.residual_share", "share"},
  };
  return *kDefs;
}

class Layers {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  std::vector<Metric> ToMetrics() const {
    std::vector<Metric> out;
    for (const auto& [name, unit] : LayerDefs()) {
      const auto it = values_.find(name);
      out.push_back({name, it == values_.end() ? 0.0 : it->second, unit});
    }
    return out;
  }

 private:
  std::map<std::string, double> values_;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// The storage backend of every archive the benchmark creates (see
// ModeledSyncEnv); `env` when a traced phase passes its TimingEnv.
loggrep::StorageEnv* BenchEnv(loggrep::StorageEnv* env = nullptr) {
  static ModeledSyncEnv* modeled = new ModeledSyncEnv();
  return env != nullptr ? env : modeled;
}

// ---------------------------------------------------------------------------
// Line spaces and answer checking
// ---------------------------------------------------------------------------

// The lines one store holds, each with the line number the store reports.
struct LineSpace {
  std::deque<std::string> texts;  // owners of the views below
  std::vector<std::string_view> lines;
  std::vector<uint64_t> number;

  // Adds `text` (entry-aligned) whose first line is numbered `first`.
  void Add(std::string text, uint64_t first) {
    texts.push_back(std::move(text));
    uint64_t n = first;
    for (const std::string_view line : SplitLines(texts.back())) {
      lines.push_back(line);
      number.push_back(n++);
    }
  }
};

// Compares a returned hit list with the oracle's line indices, hit for hit.
bool SameHits(const QueryHits& got, const std::vector<uint32_t>& want,
              const LineSpace& space, std::string* detail) {
  if (got.size() != want.size()) {
    *detail = "hit count " + std::to_string(got.size()) + ", oracle " +
              std::to_string(want.size());
    return false;
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (got[i].first != space.number[want[i]] || got[i].second != space.lines[want[i]]) {
      *detail = "hit " + std::to_string(i) + " is line " + std::to_string(got[i].first) +
                ", oracle line " + std::to_string(space.number[want[i]]);
      return false;
    }
  }
  return true;
}

// Entry-aligned cuts of at most ~`bytes` each.
std::vector<std::string_view> CutBlocks(std::string_view text, size_t bytes) {
  std::vector<std::string_view> blocks;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = std::min(text.size(), pos + bytes);
    if (end < text.size()) {
      const size_t nl = text.rfind('\n', end - 1);
      end = (nl == std::string_view::npos || nl < pos) ? text.size() : nl + 1;
    }
    blocks.push_back(text.substr(pos, end - pos));
    pos = end;
  }
  return blocks;
}

// "Log A" -> "t-a".
std::string TenantName(const std::string& dataset) {
  return std::string("t-") +
         static_cast<char>(std::tolower(static_cast<unsigned char>(dataset.back())));
}

// Shared bookkeeping of one measured phase.
struct OpLog {
  std::mutex mu;
  std::vector<double> latency_ms;  // successful ops
  std::vector<uint64_t> done_ns;   // when each of them ended
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  std::string first_problem;

  void Ok(double ms) {
    std::lock_guard<std::mutex> lock(mu);
    ++attempted;
    latency_ms.push_back(ms);
    done_ns.push_back(NowNs());
  }
  // A correct operation of a warm-up: counted, not timed.
  void OkUntimed() {
    std::lock_guard<std::mutex> lock(mu);
    ++attempted;
  }
  void Fail(const std::string& why) {
    std::lock_guard<std::mutex> lock(mu);
    ++attempted;
    ++failed;
    if (first_problem.empty()) {
      first_problem = "failed: " + why;
    }
  }
  void Wrong(const std::string& why) {
    std::lock_guard<std::mutex> lock(mu);
    ++attempted;
    ++wrong;
    first_problem = "WRONG ANSWER: " + why;
  }
};

// Sums of what query results report about their own execution.
struct QueryLedger {
  uint64_t queries = 0;
  double wall_ms = 0;
  LocatorStats loc;
  uint64_t hits = 0;
  uint64_t blocks_pruned = 0;
  uint64_t blocks_queried = 0;
  uint64_t blocks_from_cache = 0;

  void Add(double ms, const LocatorStats& stats, uint64_t n_hits, uint64_t pruned,
           uint64_t queried, uint64_t from_cache) {
    ++queries;
    wall_ms += ms;
    loc.Accumulate(stats);
    hits += n_hits;
    blocks_pruned += pruned;
    blocks_queried += queried;
    blocks_from_cache += from_cache;
  }

  void Emit(Layers* layers) const {
    const double n = static_cast<double>(std::max<uint64_t>(1, queries));
    const auto ms = [n](uint64_t ns) { return static_cast<double>(ns) / 1e6 / n; };
    layers->Set("query.prune_ms", ms(loc.prune_nanos));
    layers->Set("query.open_ms", ms(loc.open_nanos));
    layers->Set("query.stamp_ms", ms(loc.stamp_filter_nanos));
    layers->Set("query.decompress_ms", ms(loc.decompress_nanos));
    layers->Set("query.scan_ms", ms(loc.scan_nanos));
    layers->Set("query.reconstruct_ms", ms(loc.reconstruct_nanos));
    const uint64_t staged = loc.prune_nanos + loc.open_nanos + loc.stamp_filter_nanos +
                            loc.decompress_nanos + loc.scan_nanos + loc.reconstruct_nanos;
    layers->Set("query.unaccounted_ms", wall_ms / n - ms(staged));
    layers->Set("query.blocks_pruned_share",
                Ratio(static_cast<double>(blocks_pruned),
                      static_cast<double>(blocks_pruned + blocks_queried)));
    const double examined =
        static_cast<double>(loc.capsules_decompressed + loc.cache_hits);
    layers->Set("query.capsules_skipped_share",
                Ratio(static_cast<double>(loc.capsules_stamp_filtered),
                      static_cast<double>(loc.capsules_stamp_filtered) + examined));
    layers->Set("query.candidates_per_hit",
                Ratio(examined, static_cast<double>(std::max<uint64_t>(1, hits))));
    layers->Set("query_cache.hit_share",
                Ratio(static_cast<double>(blocks_from_cache),
                      static_cast<double>(blocks_queried)));
    layers->Set("box_cache.hit_share",
                Ratio(static_cast<double>(loc.cache_hits),
                      static_cast<double>(loc.cache_hits + loc.cache_misses)));
  }
};

// Store-layer totals per op.
void EmitStore(const TimingEnv::Totals& t, double ops, uint64_t stored_bytes,
               Layers* layers) {
  const double n = std::max(1.0, ops);
  layers->Set("store.bytes_written", static_cast<double>(t.written_bytes) / n);
  layers->Set("store.write_amplification",
              Ratio(static_cast<double>(t.written_bytes), static_cast<double>(stored_bytes)));
  layers->Set("store.fsyncs", static_cast<double>(t.fsyncs) / n);
  layers->Set("store.fsync_s", static_cast<double>(t.fsync_ns) / 1e9 / n);
}

void EmitCodec(const TimingCodec& codec, double ops, Layers* layers) {
  const double s = static_cast<double>(codec.compress_ns()) / 1e9;
  layers->Set("codec.compress_s", s / std::max(1.0, ops));
  layers->Set("codec.compress_mb_s",
              Ratio(static_cast<double>(codec.compress_raw_bytes()) / 1e6, s));
}

// Decode speed over serialized boxes: CapsuleBox::Open plus ReadCapsule of
// every capsule, decoded MB per second.
double DecodeMbPerS(const std::vector<std::string>& boxes) {
  uint64_t decoded = 0;
  const uint64_t t0 = NowNs();
  for (const std::string& bytes : boxes) {
    loggrep::Result<loggrep::CapsuleBox> box = loggrep::CapsuleBox::Open(bytes);
    if (!box.ok()) {
      continue;
    }
    for (uint32_t id = 0; id < box->CapsuleCount(); ++id) {
      loggrep::Result<std::string> capsule = box->ReadCapsule(id);
      if (capsule.ok()) {
        decoded += capsule->size();
      }
    }
  }
  const double s = static_cast<double>(NowNs() - t0) / 1e9;
  return Ratio(static_cast<double>(decoded) / 1e6, s);
}

// Up to kDecodeLadderBoxes block files found under `root` (recursively).
std::vector<std::string> ReadBlockFiles(const std::string& root) {
  std::vector<std::string> paths;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && name.rfind("block-", 0) == 0 &&
        name.size() > 4 && name.compare(name.size() - 4, 4, ".lgc") == 0) {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  if (paths.size() > kDecodeLadderBoxes) {
    paths.resize(kDecodeLadderBoxes);
  }
  std::vector<std::string> boxes;
  for (const std::string& path : paths) {
    loggrep::Result<std::string> bytes = loggrep::DefaultStorageEnv()->ReadFile(path);
    if (bytes.ok()) {
      boxes.push_back(std::move(*bytes));
    }
  }
  return boxes;
}

// Trace bookkeeping: self times per span name plus the share of load-thread
// time no root span covers.
void EmitTrace(const std::vector<Span>& spans, double phase_s, size_t load_threads,
               double untraced_op_ms, double traced_op_ms, Layers* layers,
               std::ostream& report) {
  double root_ms = 0;
  for (const Span& span : spans) {
    if (span.parent == 0 && span.end_ns >= span.start_ns) {
      root_ms += static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    }
  }
  const double thread_ms = phase_s * 1e3 * static_cast<double>(load_threads);
  const double residual = 1.0 - Ratio(root_ms, thread_ms);
  const double overhead = Ratio(traced_op_ms, untraced_op_ms) - 1.0;
  layers->Set("trace.residual_share", residual);
  layers->Set("trace.overhead_share", overhead);
  report << "trace: self time by span (count, total ms, self ms); "
         << load_threads << " load thread(s) x " << phase_s << " s\n";
  for (const auto& [name, t] : SummarizeSpans(spans)) {
    char line[200];
    std::snprintf(line, sizeof(line), "  %-22s %8llu %12.3f %12.3f\n", name.c_str(),
                  static_cast<unsigned long long>(t.count), t.total_ms, t.self_ms);
    report << line;
  }
  report << "trace: residual (load-thread time outside every root span) = "
         << residual << " share; tracing overhead = " << overhead
         << " share of mean op time (" << traced_op_ms << " ms traced vs "
         << untraced_op_ms << " ms untraced)\n";
}

// Percentile label, e.g. 0.99 -> "p99".
std::string PercentileName(double q) {
  return "p" + std::to_string(static_cast<int>(q * 100 + 0.5));
}

// Prints a latency summary line with its sample count.
void ReportLatency(std::ostream& report, const std::string& what,
                   const std::vector<double>& ms, double tail_q) {
  const size_t beyond = SamplesBeyond(ms.size(), tail_q);
  report << what << "_p50_ms = " << Quantile(ms, 0.5) << " ms, " << what << "_"
         << PercentileName(tail_q) << "_ms = " << Quantile(ms, tail_q) << " ms (n="
         << ms.size() << ", " << beyond << " beyond " << PercentileName(tail_q)
         << (beyond < 10 ? "; FEWER THAN 10 - tail is not resolved" : "") << ")\n";
}

// The end-to-end metrics every workload reports, each on its own primary
// operation.
void EmitEndToEnd(const std::vector<double>& setup_s, double ops_per_s,
                  const std::vector<double>& op_ms, double tail_q, double peak_rss_mb,
                  double compression_ratio, Outcome* out) {
  out->metrics = {
      {"setup_s", Quantile(setup_s, 0.5), "s"},
      {"ops_per_s", ops_per_s, "1/s"},
      {"op_p50_ms", Quantile(op_ms, 0.5), "ms"},
      {"op_tail_ms", Quantile(op_ms, tail_q), "ms"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"compression_ratio", compression_ratio, "x"},
  };
}

// The successful ops of a run's faster windows: the span from the start of
// the first op to the end of the last is cut into kQuietWindows equal
// windows, each op goes to the window it ended in, and the kQuietKept
// windows with the lowest mean latency are kept (a window in which no op
// ended ranks slowest). The mean, unlike the median, does not jump when a
// window's mix of cheap and costly ops shifts a little. A slowdown of the program shows in every window; a
// slow stretch of the host only in some.
struct QuietHalf {
  std::vector<double> ms;  // latencies of the ops that ended in kept windows
  double seconds = 0;      // total length of the kept windows
};

QuietHalf PickQuietHalf(const OpLog& log) {
  QuietHalf out;
  if (log.latency_ms.empty()) {
    return out;
  }
  double first = 1e300;
  double last = 0;
  for (size_t i = 0; i < log.done_ns.size(); ++i) {
    first = std::min(first, static_cast<double>(log.done_ns[i]) - log.latency_ms[i] * 1e6);
    last = std::max(last, static_cast<double>(log.done_ns[i]));
  }
  const double width = std::max(1.0, (last - first) / kQuietWindows);
  std::vector<std::vector<double>> windows(kQuietWindows);
  for (size_t i = 0; i < log.done_ns.size(); ++i) {
    const double at = (static_cast<double>(log.done_ns[i]) - first) / width;
    windows[std::min<size_t>(kQuietWindows - 1, static_cast<size_t>(std::max(0.0, at)))]
        .push_back(log.latency_ms[i]);
  }
  std::vector<std::pair<double, size_t>> ranked;
  for (size_t w = 0; w < windows.size(); ++w) {
    ranked.emplace_back(windows[w].empty() ? 1e300 : Mean(windows[w]), w);
  }
  std::sort(ranked.begin(), ranked.end());
  for (size_t k = 0; k < kQuietKept; ++k) {
    const std::vector<double>& w = windows[ranked[k].second];
    out.ms.insert(out.ms.end(), w.begin(), w.end());
  }
  out.seconds = width * kQuietKept / 1e9;
  return out;
}

// Prints the whole-run latency line, then the kept windows' line that the
// end-to-end metrics come from.
void ReportQuiet(std::ostream& report, const std::string& what, const OpLog& log,
                 const QuietHalf& quiet, double tail_q) {
  ReportLatency(report, what + "_whole_run", log.latency_ms, tail_q);
  report << "end-to-end figures below come from the faster " << kQuietKept << " of "
         << kQuietWindows << " windows (" << quiet.seconds << " s):\n";
  ReportLatency(report, what, quiet.ms, tail_q);
}

void ReportSetups(std::ostream& report, const std::vector<double>& setup_s) {
  report << "setup_s = " << Quantile(setup_s, 0.5) << " s (median of";
  for (const double s : setup_s) {
    report << " " << s;
  }
  report << ")\n";
}

void FinishOutcome(const OpLog& log, Outcome* out, std::ostream& report) {
  out->attempted += log.attempted;
  out->failed += log.failed;
  if (log.wrong > 0) {
    out->correct = false;
  }
  if (!log.first_problem.empty()) {
    report << log.first_problem << "\n";
  }
}

void ReportErrorRate(std::ostream& report, const OpLog& log) {
  report << "error_rate = "
         << Ratio(static_cast<double>(log.failed), static_cast<double>(log.attempted))
         << " share (" << log.failed << " failed of " << log.attempted
         << " attempted; " << log.wrong << " wrong answers)\n";
}

double ElapsedS(uint64_t since_ns) {
  return static_cast<double>(NowNs() - since_ns) / 1e9;
}

// Runs `setup` kSetups times, keeping the last result; returns each duration.
template <class T>
std::vector<double> TimedSetups(const std::function<std::unique_ptr<T>()>& setup,
                                std::unique_ptr<T>* keep) {
  std::vector<double> times;
  for (int i = 0; i < kSetups; ++i) {
    keep->reset();  // tear the previous one down first (outside the timing)
    const uint64_t t0 = NowNs();
    *keep = setup();
    times.push_back(ElapsedS(t0));
  }
  return times;
}

// ===========================================================================
// ingest
// ===========================================================================

struct IngestCorpus {
  std::vector<std::string> names;
  std::vector<std::string> files;
  std::vector<size_t> lines;
  uint64_t raw_bytes = 0;
};

std::unique_ptr<IngestCorpus> MakeIngestCorpus(uint64_t seed) {
  auto corpus = std::make_unique<IngestCorpus>();
  for (const std::string& name : CorpusDatasets()) {
    corpus->names.push_back(name);
    corpus->files.push_back(GenerateText(name, seed, kIngestFileBytes));
    corpus->lines.push_back(SplitLines(corpus->files.back()).size());
    corpus->raw_bytes += corpus->files.back().size();
  }
  return corpus;
}

struct IngestResult {
  double wall_s = 0;
  loggrep::IngestMetrics metrics;
  loggrep::Status status;
};

IngestResult IngestFile(const std::string& dir, std::string_view text, size_t workers,
                        const loggrep::Codec* codec, loggrep::StorageEnv* env,
                        uint64_t request_id) {
  IngestResult result;
  loggrep::IngestOptions options;
  options.target_block_bytes = kIngestBlockBytes;
  options.max_in_flight_blocks = 2 * workers;
  options.num_workers = workers;
  options.archive.engine.codec = codec;
  options.archive.env = BenchEnv(env);
  ScopedSpan span("ingest.file", request_id);
  SpanRecorder::Get().SetAmbient(span.id());
  const uint64_t t0 = NowNs();
  auto ingestor = loggrep::LogIngestor::Start(dir, options);
  if (!ingestor.ok()) {
    result.status = ingestor.status();
    return result;
  }
  for (size_t pos = 0; pos < text.size() && result.status.ok(); pos += kIngestChunkBytes) {
    result.status = (*ingestor)->Append(text.substr(pos, kIngestChunkBytes));
  }
  if (result.status.ok()) {
    result.status = (*ingestor)->Finish();
  }
  result.wall_s = ElapsedS(t0);
  result.metrics = (*ingestor)->metrics();
  SpanRecorder::Get().SetAmbient(0);
  return result;
}

// Proves an ingested archive decodes to exactly `text`: each block's
// manifest content hash equals the hash of the corresponding corpus slice,
// and VerifyArchive reconstructs every block to that hash.
bool VerifyIngested(const std::string& dir, std::string_view text, std::string* detail) {
  const loggrep::VerifyReport report = loggrep::VerifyArchive(dir, BenchEnv());
  if (!report.ok()) {
    *detail = report.Summary();
    return false;
  }
  loggrep::ArchiveOptions options;
  options.env = BenchEnv();
  auto archive = loggrep::LogArchive::Open(dir, options);
  if (!archive.ok()) {
    *detail = archive.status().ToString();
    return false;
  }
  size_t pos = 0;
  for (const loggrep::BlockInfo& block : archive->blocks()) {
    size_t end = pos;
    for (uint64_t i = 0; i < block.line_count; ++i) {
      const size_t nl = text.find('\n', end);
      if (nl == std::string_view::npos) {
        *detail = "block " + std::to_string(block.seq) + " holds more lines than the input";
        return false;
      }
      end = nl + 1;
    }
    if (loggrep::HashBlockContent(text.substr(pos, end - pos)) != block.content_hash) {
      *detail = "block " + std::to_string(block.seq) + " content differs from the input";
      return false;
    }
    pos = end;
  }
  if (pos != text.size()) {
    *detail = "archive holds " + std::to_string(pos) + " of " +
              std::to_string(text.size()) + " input bytes";
    return false;
  }
  return true;
}

struct IngestPhase {
  OpLog log;
  double wall_sum_s = 0;
  uint64_t raw = 0;
  uint64_t stored = 0;
  loggrep::IngestMetrics sums;  // summed over files
  uint64_t files = 0;
};

// Ingests files round-robin until `seconds` pass. With `warm_up`, first
// ingests every file once untimed and proves each archive decodes to its
// input (VerifyIngested).
void RunIngestPhase(const IngestCorpus& corpus, const std::string& workdir, double seconds,
                    bool warm_up, const loggrep::Codec* codec, loggrep::StorageEnv* env,
                    size_t workers, uint64_t* op_counter, IngestPhase* phase) {
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  const size_t first_timed = warm_up ? corpus.files.size() : 0;
  for (size_t i = 0; NowNs() < deadline; ++i) {
    const size_t f = i % corpus.files.size();
    const std::string dir = workdir + "/ingest-" + std::to_string((*op_counter)++);
    const IngestResult r = IngestFile(dir, corpus.files[f], workers, codec, env, *op_counter);
    std::string detail;
    if (!r.status.ok()) {
      phase->log.Fail(r.status.ToString());
    } else if (r.metrics.lines != corpus.lines[f] ||
               r.metrics.raw_bytes != corpus.files[f].size() ||
               r.metrics.blocks_committed != r.metrics.blocks_cut) {
      phase->log.Wrong(corpus.names[f] + ": ingest counters disagree with the input");
    } else if (i < first_timed) {
      if (!VerifyIngested(dir, corpus.files[f], &detail)) {
        phase->log.Wrong(corpus.names[f] + ": " + detail);
      }
    } else {
      phase->log.Ok(r.wall_s * 1e3);
      phase->wall_sum_s += r.wall_s;
      phase->raw += r.metrics.raw_bytes;
      phase->stored += r.metrics.stored_bytes;
      phase->sums.summary_seconds += r.metrics.summary_seconds;
      phase->sums.compress_seconds += r.metrics.compress_seconds;
      phase->sums.commit_seconds += r.metrics.commit_seconds;
      phase->sums.producer_stall_seconds += r.metrics.producer_stall_seconds;
      ++phase->files;
    }
    fs::remove_all(dir);
  }
}

Outcome RunIngest(const RunOptions& opt, std::ostream& report) {
  Outcome out;
  const size_t workers =
      std::min<size_t>(kIngestWorkers, std::max(1u, std::thread::hardware_concurrency()));
  out.stamp.emplace_back("workers", std::to_string(workers));
  std::unique_ptr<IngestCorpus> corpus;
  const std::vector<double> setup =
      TimedSetups<IngestCorpus>([&] { return MakeIngestCorpus(opt.seed); }, &corpus);
  ReportSetups(report, setup);
  report << "ingest: " << corpus->files.size() << " files x "
         << kIngestFileBytes / 1024 << " KiB (" << corpus->raw_bytes / 1e6
         << " MB raw), blocks of " << kIngestBlockBytes / 1024 << " KiB, " << workers
         << " workers; op = one file, LogIngestor Start..Finish\n";
  uint64_t ops = 0;
  if (!opt.trace) {
    PeakRss rss;
    rss.Reset();
    IngestPhase phase;
    RunIngestPhase(*corpus, opt.workdir, opt.seconds, /*warm_up=*/true, nullptr, nullptr,
                   workers, &ops, &phase);
    const double peak = rss.PeakMb();
    const QuietHalf quiet = PickQuietHalf(phase.log);
    // Files run one at a time, so the rate is files over their summed walls.
    const double quiet_wall_s = Mean(quiet.ms) * static_cast<double>(quiet.ms.size()) / 1e3;
    const double files_per_s = Ratio(static_cast<double>(quiet.ms.size()), quiet_wall_s);
    const double ratio = Ratio(static_cast<double>(phase.raw), static_cast<double>(phase.stored));
    EmitEndToEnd(setup, files_per_s, quiet.ms, kIngestTailQ, peak, ratio, &out);
    report << "ingest_mb_s_whole_run = " << Ratio(phase.raw / 1e6, phase.wall_sum_s)
           << " MB/s (raw MB / Start..Finish wall, " << phase.files << " files)\n";
    report << "compression_ratio = " << ratio << " x (raw / stored bytes)\n";
    ReportQuiet(report, "file_ingest", phase.log, quiet, kIngestTailQ);
    report << "ingest_mb_s = " << files_per_s * static_cast<double>(phase.raw) / 1e6 /
                                      static_cast<double>(std::max<uint64_t>(1, phase.files))
           << " MB/s (files_per_s x mean file size)\n";
    report << "peak_rss_mb = " << peak << " MB (measured phase)\n";
    ReportErrorRate(report, phase.log);
    FinishOutcome(phase.log, &out, report);
    return out;
  }

  // Traced run: an untraced half, then a traced half with the delegating
  // codec and storage env in place.
  IngestPhase plain;
  RunIngestPhase(*corpus, opt.workdir, opt.seconds / 2, true, nullptr, nullptr, workers,
                 &ops, &plain);
  TimingCodec codec(loggrep::GetXzCodec());
  TimingEnv env(BenchEnv());
  SpanRecorder::Get().Clear();
  SpanRecorder::Get().Enable(true);
  const uint64_t t0 = NowNs();
  IngestPhase traced;
  RunIngestPhase(*corpus, opt.workdir, opt.seconds / 2, false, &codec, &env, workers, &ops,
                 &traced);
  const double phase_s = ElapsedS(t0);
  SpanRecorder::Get().Enable(false);
  const std::vector<Span> spans = SpanRecorder::Get().Snapshot();

  Layers layers;
  const double n = std::max<double>(1, static_cast<double>(traced.files));
  const double busy = traced.sums.summary_seconds + traced.sums.compress_seconds;
  layers.Set("ingest.worker_busy_s", busy / n);
  layers.Set("ingest.producer_stall_s", traced.sums.producer_stall_seconds / n);
  layers.Set("ingest.commit_s", traced.sums.commit_seconds / n);
  layers.Set("ingest.worker_utilization",
             Ratio(busy, traced.wall_sum_s * static_cast<double>(workers)));
  EmitCodec(codec, n, &layers);
  EmitStore(env.totals(), n, traced.stored, &layers);

  // Layer ladder over one file's blocks, serially: parse alone, then the
  // whole CompressBlock (parse + assemble + codec) with the timing codec.
  {
    loggrep::EngineOptions engine_options;
    engine_options.codec = &codec;
    const loggrep::LogGrepEngine engine(engine_options);
    const loggrep::BlockParser parser(engine_options.miner);
    const uint64_t codec_before = codec.compress_ns();
    uint64_t parse_ns = 0;
    uint64_t compress_block_ns = 0;
    std::vector<std::string> boxes;
    for (const std::string_view block : CutBlocks(corpus->files[0], kIngestBlockBytes)) {
      uint64_t t = NowNs();
      {
        ScopedSpan span("parser.parse");
        const loggrep::ParsedBlock parsed = parser.Parse(block);
        (void)parsed;
      }
      parse_ns += NowNs() - t;
      t = NowNs();
      {
        ScopedSpan span("engine.compress_block");
        boxes.push_back(engine.CompressBlock(block));
      }
      compress_block_ns += NowNs() - t;
    }
    const uint64_t codec_ns = codec.compress_ns() - codec_before;
    layers.Set("parser.parse_s", static_cast<double>(parse_ns) / 1e9);
    layers.Set("capsule.assemble_s",
               static_cast<double>(compress_block_ns) / 1e9 -
                   static_cast<double>(parse_ns + codec_ns) / 1e9);
    layers.Set("codec.decode_mb_s", DecodeMbPerS(boxes));
  }
  EmitTrace(spans, phase_s, 1, Mean(plain.log.latency_ms), Mean(traced.log.latency_ms),
            &layers, report);
  out.metrics = layers.ToMetrics();
  FinishOutcome(plain.log, &out, report);
  FinishOutcome(traced.log, &out, report);
  return out;
}

// ===========================================================================
// cold_grep
// ===========================================================================

struct ColdArchive {
  std::string dataset;
  std::string dir;
  LineSpace space;
  IdIndex ids;
  std::vector<std::string> suite;
  std::vector<std::vector<uint32_t>> suite_lines;
};

struct ColdState {
  std::string root;
  std::vector<std::unique_ptr<ColdArchive>> archives;
  uint64_t raw = 0;
  uint64_t stored = 0;
  ~ColdState() {
    std::error_code ec;
    fs::remove_all(root, ec);
  }
};

std::unique_ptr<ColdState> MakeColdState(uint64_t seed, const std::string& root,
                                         std::string* error) {
  auto state = std::make_unique<ColdState>();
  state->root = root;
  fs::remove_all(root);
  for (const std::string& name : CorpusDatasets()) {
    auto a = std::make_unique<ColdArchive>();
    a->dataset = name;
    a->dir = root + "/" + TenantName(name);
    a->space.Add(GenerateText(name, seed, kColdDatasetBytes), 0);
    loggrep::IngestOptions options;
    options.target_block_bytes = kColdBlockBytes;
    options.num_workers = kIngestWorkers;
    options.archive.env = BenchEnv();
    auto ingestor = loggrep::LogIngestor::Start(a->dir, options);
    loggrep::Status status = ingestor.ok() ? (*ingestor)->Append(a->space.texts[0])
                                           : ingestor.status();
    if (status.ok()) {
      status = (*ingestor)->Finish();
    }
    if (!status.ok()) {
      *error = "cold_grep setup: " + status.ToString();
      return nullptr;
    }
    state->raw += (*ingestor)->archive().total_raw_bytes();
    state->stored += (*ingestor)->archive().total_stored_bytes();
    a->ids = IdIndex(a->space.lines, kColdIdPool);
    a->suite = loggrep::QuerySuiteForDataset(name);
    for (const std::string& command : a->suite) {
      a->suite_lines.push_back(ReferenceLines(a->space.lines, command));
    }
    state->archives.push_back(std::move(a));
  }
  return state;
}

// The seeded cold query sequence: (archive, command, oracle).
struct ColdQuery {
  size_t archive = 0;
  std::string command;
  const std::vector<uint32_t>* oracle = nullptr;
};

class ColdSequence {
 public:
  ColdSequence(const ColdState& state, uint64_t seed)
      : state_(state), rng_(Fnv64("cold_grep", seed)) {}
  // One round: for each archive in order, a random pool id (a Table-1
  // query when the archive has no ids), then a random Table-1 query.
  std::vector<ColdQuery> NextRound() {
    std::vector<ColdQuery> round;
    for (size_t i = 0; i < state_.archives.size(); ++i) {
      const ColdArchive& a = *state_.archives[i];
      for (const bool suite : {a.ids.pool().empty(), true}) {
        ColdQuery q;
        q.archive = i;
        if (suite) {
          const size_t s = rng_.NextBelow(a.suite.size());
          q.command = a.suite[s];
          q.oracle = &a.suite_lines[s];
        } else {
          const size_t id = rng_.NextBelow(a.ids.pool().size());
          q.command = a.ids.pool()[id];
          q.oracle = &a.ids.LinesFor(id);
        }
        round.push_back(std::move(q));
      }
    }
    return round;
  }

 private:
  const ColdState& state_;
  loggrep::Rng rng_;
};

struct ColdPhase {
  OpLog log;  // one op = one round
  std::vector<double> query_ms;
  QueryLedger ledger;
  double elapsed_s = 0;
  uint64_t open_ns = 0;
};

void RunColdPhase(const ColdState& state, ColdSequence* seq, double seconds,
                  loggrep::StorageEnv* env, ColdPhase* phase) {
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  uint64_t rid = 0;
  while (NowNs() < deadline) {
    double round_ms = 0;
    std::string failed;
    std::string wrong;
    for (const ColdQuery& q : seq->NextRound()) {
      const ColdArchive& a = *state.archives[q.archive];
      loggrep::ArchiveOptions options;
      options.env = BenchEnv(env);
      std::string detail;
      ScopedSpan op("cold.query", ++rid);
      const uint64_t t0 = NowNs();
      loggrep::Result<loggrep::LogArchive> archive = [&] {
        ScopedSpan span("store.open");
        return loggrep::LogArchive::Open(a.dir, options);
      }();
      const uint64_t t1 = NowNs();
      if (!archive.ok()) {
        failed = archive.status().ToString();
        continue;
      }
      loggrep::Result<loggrep::ArchiveQueryResult> result = [&] {
        ScopedSpan span("archive.query");
        return archive->Query(q.command);
      }();
      const uint64_t t2 = NowNs();
      if (!result.ok()) {
        failed = result.status().ToString();
      } else if (result->partial.partial()) {
        failed = a.dataset + " [" + q.command + "]: degraded answer";
      } else if (!SameHits(result->hits, *q.oracle, a.space, &detail)) {
        wrong = a.dataset + " [" + q.command + "]: " + detail;
      } else {
        const double ms = static_cast<double>(t2 - t0) / 1e6;
        round_ms += ms;
        phase->query_ms.push_back(ms);
        phase->open_ns += t1 - t0;
        phase->ledger.Add(static_cast<double>(t2 - t1) / 1e6, result->locator,
                          result->hits.size(), result->blocks_pruned,
                          result->blocks_queried, result->blocks_from_cache);
      }
    }
    // The round's time is the sum of its queries' Open + Query times; the
    // answer checks between them are not timed.
    if (!wrong.empty()) {
      phase->log.Wrong(wrong);
    } else if (!failed.empty()) {
      phase->log.Fail(failed);
    } else {
      phase->log.Ok(round_ms);
    }
  }
  phase->elapsed_s = ElapsedS(start);
}

Outcome RunCold(const RunOptions& opt, std::ostream& report) {
  Outcome out;
  out.stamp.emplace_back("workers", std::to_string(kIngestWorkers));
  out.stamp.emplace_back("clients", "1");
  std::string error;
  std::unique_ptr<ColdState> state;
  const std::vector<double> setup =
      TimedSetups<ColdState>([&] { return MakeColdState(opt.seed, opt.workdir + "/cold", &error); },
                             &state);
  ReportSetups(report, setup);
  if (state == nullptr) {
    report << error << "\n";
    out.correct = false;
    out.attempted = 1;
    out.failed = 1;
    return out;
  }
  report << "cold_grep: " << state->archives.size() << " archives x "
         << kColdDatasetBytes / 1024 << " KiB in " << kColdBlockBytes / 1024
         << " KiB blocks; op = one round of " << 2 * state->archives.size()
         << " queries, each LogArchive::Open + Query on a fresh handle: per archive a "
         << "pool id, then a Table-1 query. Decode-cold: block files stay in the OS page "
         << "cache, so no disk reads are timed\n";
  ColdSequence seq(*state, opt.seed);
  if (!opt.trace) {
    PeakRss rss;
    rss.Reset();
    ColdPhase phase;
    RunColdPhase(*state, &seq, opt.seconds, nullptr, &phase);
    const double peak = rss.PeakMb();
    const QuietHalf quiet = PickQuietHalf(phase.log);
    const double rounds_per_s = Ratio(static_cast<double>(quiet.ms.size()), quiet.seconds);
    const double ratio = Ratio(static_cast<double>(state->raw), static_cast<double>(state->stored));
    EmitEndToEnd(setup, rounds_per_s, quiet.ms, kColdTailQ, peak, ratio, &out);
    ReportLatency(report, "single_query_whole_run", phase.query_ms, 0.99);
    ReportQuiet(report, "round", phase.log, quiet, kColdTailQ);
    report << "rounds_per_s = " << rounds_per_s << " 1/s; query_qps = "
           << rounds_per_s * 2 * static_cast<double>(state->archives.size()) << " 1/s\n";
    report << "compression_ratio = " << ratio << " x (archives read)\n";
    report << "peak_rss_mb = " << peak << " MB (measured phase)\n";
    ReportErrorRate(report, phase.log);
    FinishOutcome(phase.log, &out, report);
    return out;
  }

  ColdPhase plain;
  RunColdPhase(*state, &seq, opt.seconds / 2, nullptr, &plain);
  TimingEnv env(BenchEnv());
  SpanRecorder::Get().Clear();
  SpanRecorder::Get().Enable(true);
  ColdPhase traced;
  RunColdPhase(*state, &seq, opt.seconds / 2, &env, &traced);
  SpanRecorder::Get().Enable(false);
  const std::vector<Span> spans = SpanRecorder::Get().Snapshot();

  Layers layers;
  const double n = std::max<double>(1, static_cast<double>(traced.ledger.queries));
  const TimingEnv::Totals io = env.totals();
  layers.Set("store.read_bytes_per_query", static_cast<double>(io.read_bytes) / n);
  layers.Set("store.read_ms", static_cast<double>(io.read_ns) / 1e6 / n);
  layers.Set("store.open_ms", static_cast<double>(traced.open_ns) / 1e6 / n);
  traced.ledger.Emit(&layers);
  std::vector<std::string> boxes;
  for (const auto& a : state->archives) {
    for (std::string& box : ReadBlockFiles(a->dir)) {
      if (boxes.size() < kDecodeLadderBoxes) {
        boxes.push_back(std::move(box));
      }
    }
  }
  layers.Set("codec.decode_mb_s", DecodeMbPerS(boxes));
  EmitTrace(spans, traced.elapsed_s, 1, Mean(plain.log.latency_ms),
            Mean(traced.log.latency_ms), &layers, report);
  out.metrics = layers.ToMetrics();
  FinishOutcome(plain.log, &out, report);
  FinishOutcome(traced.log, &out, report);
  return out;
}

// ===========================================================================
// Shared by served_grep and append_under_query: a seeded multi-tenant set
// ===========================================================================

struct Tenant {
  std::string name;
  LineSpace space;
  IdIndex ids;
};

// Appends `text` to `set` as `tenant` in blocks of `block_bytes`, recording
// each line's global number.
loggrep::Status AppendTenant(loggrep::ArchiveSet* set, const std::string& tenant,
                             const std::string& text, size_t block_bytes, uint64_t* ts,
                             LineSpace* space) {
  for (const std::string_view block : CutBlocks(text, block_bytes)) {
    loggrep::Result<loggrep::AppendReceipt> receipt = set->Append(tenant, block, ++*ts);
    if (!receipt.ok()) {
      return receipt.status();
    }
    space->Add(std::string(block), receipt->first_global_line);
  }
  return loggrep::OkStatus();
}

// ===========================================================================
// served_grep
// ===========================================================================

struct ServedRequest {
  std::string command;
  int dashboard = -1;           // index into dashboards, or -1 (novel OR)
  std::vector<uint32_t> oracle;  // indices into the all-tenant line space
};

// The seeded request stream: mostly novel "<id> OR <id>" commands (Zipf
// over the id pool, never repeating a pair), plus a fixed share of
// repeated dashboard commands.
class ServedSequence {
 public:
  ServedSequence(const IdIndex& ids, const std::vector<std::string>& dashboards,
                 const std::vector<std::vector<uint32_t>>& dashboard_lines, uint64_t seed)
      : ids_(ids),
        dashboards_(dashboards),
        dashboard_lines_(dashboard_lines),
        zipf_(ids.pool().size(), kServedZipfS),
        rng_(Fnv64("served_grep", seed)) {
    // Zipf rank -> pool id, shuffled so that the hot ids are spread over
    // every tenant instead of following the pool's first-appearance order.
    for (size_t i = 0; i < ids.pool().size(); ++i) {
      rank_to_id_.push_back(i);
    }
    for (size_t i = rank_to_id_.size(); i > 1; --i) {
      std::swap(rank_to_id_[i - 1], rank_to_id_[rng_.NextBelow(i)]);
    }
  }

  // Thread-safe; the sequence order is fixed by the seed.
  ServedRequest Next(bool allow_dashboards) {
    std::lock_guard<std::mutex> lock(mu_);
    ServedRequest r;
    if (allow_dashboards && rng_.NextDouble() < kServedDashboardShare) {
      r.dashboard = static_cast<int>(rng_.NextBelow(dashboards_.size()));
      r.command = dashboards_[r.dashboard];
      r.oracle = dashboard_lines_[r.dashboard];
      return r;
    }
    size_t a = 0;
    size_t b = 0;
    for (int attempt = 0; attempt < 64; ++attempt) {
      a = rank_to_id_[zipf_.Pick(rng_.NextDouble(), zipf_.size())];
      b = rank_to_id_[zipf_.Pick(rng_.NextDouble(), zipf_.size())];
      if (a == b) {
        continue;
      }
      const uint64_t key = std::min(a, b) * ids_.pool().size() + std::max(a, b);
      if (issued_.insert(key).second) {
        break;
      }
    }
    r.command = ids_.pool()[a] + " OR " + ids_.pool()[b];
    r.oracle = UnionSorted(ids_.LinesFor(a), ids_.LinesFor(b));
    return r;
  }

 private:
  const IdIndex& ids_;
  const std::vector<std::string>& dashboards_;
  const std::vector<std::vector<uint32_t>>& dashboard_lines_;
  loggrep::ZipfPicker zipf_;
  std::vector<size_t> rank_to_id_;
  std::mutex mu_;
  loggrep::Rng rng_;
  std::unordered_set<uint64_t> issued_;
};

struct ServedState {
  std::string root;
  LineSpace space;  // every tenant, in set order
  IdIndex ids;
  std::vector<std::string> dashboards;
  std::vector<std::vector<uint32_t>> dashboard_lines;
  std::unique_ptr<ServedSequence> seq;
  std::unique_ptr<TimingEnv> env;  // while the daemon runs with probes
  std::unique_ptr<loggrep::LoggrepDaemon> daemon;
  uint64_t raw = 0;
  uint64_t stored = 0;
  ~ServedState() {
    daemon.reset();
    std::error_code ec;
    fs::remove_all(root, ec);
  }
};

// (Re)starts the daemon over the state's set and warms it up: every
// dashboard command once, then every pool id on its own, so that each
// capsule a measured request can touch is decompressed and cached before
// timing. The measured "<id> OR <id>" commands are new to the command cache.
// With `probes` the daemon reads through a fresh TimingEnv and writes an
// access log; without, it runs exactly as in the untraced run.
loggrep::Status StartDaemon(ServedState* state, bool probes) {
  state->daemon.reset();
  state->env.reset();
  loggrep::DaemonOptions options;
  options.service.root = state->root;
  options.service.archive.env = BenchEnv();
  if (probes) {
    state->env = std::make_unique<TimingEnv>(BenchEnv());
    options.service.archive.env = state->env.get();
    options.access_log.path = state->root + "/access.log";
  }
  state->daemon = std::make_unique<loggrep::LoggrepDaemon>(options);
  loggrep::Result<uint16_t> port = state->daemon->Start();
  if (!port.ok()) {
    return port.status();
  }
  std::vector<std::string> warm_up = state->dashboards;
  warm_up.insert(warm_up.end(), state->ids.pool().begin(), state->ids.pool().end());
  loggrep::DaemonClient client("127.0.0.1", *port);
  for (const std::string& command : warm_up) {
    auto result = client.Query("set", command);
    if (!result.ok() || result->http_status != 200) {
      return loggrep::Internal("served_grep warm-up failed on [" + command + "]: " +
                               (result.ok() ? result->error : result.status().ToString()));
    }
  }
  return loggrep::OkStatus();
}

std::unique_ptr<ServedState> MakeServedState(const RunOptions& opt, std::string* error) {
  auto state = std::make_unique<ServedState>();
  state->root = opt.workdir + "/served";
  fs::remove_all(state->root);
  fs::create_directories(state->root);
  {
    loggrep::ArchiveSetOptions set_options;
    set_options.archive.env = BenchEnv();
    auto set = loggrep::ArchiveSet::Create(state->root + "/set", set_options);
    if (!set.ok()) {
      *error = set.status().ToString();
      return nullptr;
    }
    uint64_t ts = 1'000'000'000;
    for (const std::string& name : CorpusDatasets()) {
      const loggrep::Status status =
          AppendTenant(set->get(), TenantName(name),
                       GenerateText(name, opt.seed, kServedTenantBytes),
                       kServedBlockBytes, &ts, &state->space);
      if (!status.ok()) {
        *error = status.ToString();
        return nullptr;
      }
      state->dashboards.push_back(loggrep::QueryForDataset(name));
    }
    state->raw = (*set)->total_raw_bytes();
    state->stored = (*set)->total_stored_bytes();
  }
  state->ids = IdIndex(state->space.lines, kServedIdPool);
  for (const std::string& command : state->dashboards) {
    state->dashboard_lines.push_back(ReferenceLines(state->space.lines, command));
  }
  state->seq = std::make_unique<ServedSequence>(state->ids, state->dashboards,
                                                state->dashboard_lines, opt.seed);

  const loggrep::Status started = StartDaemon(state.get(), /*probes=*/false);
  if (!started.ok()) {
    *error = started.ToString();
    return nullptr;
  }
  return state;
}
struct ServedSample {
  std::string rid;
  double ms = 0;
  // From the response's "stats" object (traced phase only).
  LocatorStats loc;
  uint64_t hits = 0;
  uint64_t blocks_pruned = 0;
  uint64_t blocks_queried = 0;
  uint64_t blocks_from_cache = 0;
};

// Reads the "stats" object the daemon renders after the hit list.
void ParseResponseStats(const std::string& body, ServedSample* sample) {
  const size_t at = body.rfind("],\"stats\":");
  if (at == std::string::npos) {
    return;
  }
  const size_t begin = at + 10;
  const size_t end = body.find('}', begin);
  auto stats = loggrep::ParseJson(std::string_view(body).substr(begin, end + 1 - begin));
  if (!stats.ok()) {
    return;
  }
  const auto get = [&](const char* key) { return stats->Get(key).AsUint(); };
  sample->blocks_pruned = get("blocks_pruned");
  sample->blocks_queried = get("blocks_queried");
  sample->blocks_from_cache = get("blocks_from_cache");
  LocatorStats& loc = sample->loc;
  loc.bytes_decompressed = get("bytes_decompressed");
  loc.bytes_saved = get("bytes_saved");
  loc.cache_hits = get("cache_hits");
  loc.cache_misses = get("cache_misses");
  loc.capsules_decompressed = get("capsules_decompressed");
  loc.capsules_stamp_filtered = get("capsules_stamp_filtered");
  loc.prune_nanos = get("prune_ns");
  loc.open_nanos = get("open_ns");
  loc.stamp_filter_nanos = get("stamp_filter_ns");
  loc.decompress_nanos = get("decompress_ns");
  loc.scan_nanos = get("scan_ns");
  loc.reconstruct_nanos = get("reconstruct_ns");
}

struct ServedPhase {
  OpLog log;
  double elapsed_s = 0;
  uint64_t blocks_queried = 0;
  uint64_t blocks_from_cache = 0;
  uint64_t dashboard_requests = 0;
  std::vector<ServedSample> samples;
  double rss_mark_mb = 0;  // peak RSS after kServedRssRequests requests
};

void RunServedPhase(ServedState* state, double seconds, const std::string& rid_prefix,
                    bool with_stats, const PeakRss* rss, ServedPhase* phase) {
  std::atomic<uint64_t> next_rid{0};
  std::mutex mu;
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kServedClients; ++c) {
    clients.emplace_back([&] {
      loggrep::DaemonClient client("127.0.0.1", state->daemon->port());
      while (NowNs() < deadline) {
        ServedRequest r = state->seq->Next(/*allow_dashboards=*/true);
        loggrep::RemoteQueryOptions options;
        const uint64_t rid = ++next_rid;
        options.request_id = rid_prefix + std::to_string(rid);
        std::string detail;
        const uint64_t t0 = NowNs();
        loggrep::Result<loggrep::RemoteQueryResult> result = [&] {
          ScopedSpan span("client.request", rid);
          return client.Query("set", r.command, options);
        }();
        const double ms = static_cast<double>(NowNs() - t0) / 1e6;
        if (!result.ok()) {
          phase->log.Fail(result.status().ToString());
        } else if (result->http_status != 200) {
          phase->log.Fail("HTTP " + std::to_string(result->http_status) + " " + result->error);
        } else if (!SameHits(result->hits, r.oracle, state->space, &detail)) {
          phase->log.Wrong("[" + r.command + "]: " + detail);
        } else {
          phase->log.Ok(ms);
          ServedSample sample;
          sample.rid = options.request_id;
          sample.ms = ms;
          if (with_stats) {
            ParseResponseStats(result->body, &sample);
            sample.hits = result->hits.size();
          }
          std::lock_guard<std::mutex> lock(mu);
          phase->blocks_queried += result->blocks_queried;
          phase->blocks_from_cache += result->blocks_from_cache;
          phase->dashboard_requests += r.dashboard >= 0 ? 1 : 0;
          phase->samples.push_back(std::move(sample));
          if (rss != nullptr && phase->samples.size() == kServedRssRequests) {
            phase->rss_mark_mb = rss->PeakMb();
          }
        }
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  phase->elapsed_s = ElapsedS(start);
}

// Median loopback round trip of GET /healthz: the HTTP-only floor a query
// request's latency is compared with.
double HealthzRoundTripMs(ServedState* state) {
  loggrep::DaemonClient client("127.0.0.1", state->daemon->port());
  std::vector<double> ms;
  for (int i = 0; i < 200; ++i) {
    const uint64_t t0 = NowNs();
    if (client.Get("/healthz").ok()) {
      ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    }
  }
  return Quantile(ms, 0.5);
}

uint64_t AdmissionRejects(ServedState* state) {
  loggrep::DaemonClient client("127.0.0.1", state->daemon->port());
  auto metrics = client.Get("/metrics");
  if (!metrics.ok()) {
    return 0;
  }
  std::istringstream in(metrics->body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("loggrep_server_admission_rejects", 0) == 0) {
      return std::strtoull(line.substr(line.rfind(' ') + 1).c_str(), nullptr, 10);
    }
  }
  return 0;
}

Outcome RunServed(const RunOptions& opt, std::ostream& report) {
  Outcome out;
  out.stamp.emplace_back("clients", std::to_string(kServedClients));
  std::string error;
  std::unique_ptr<ServedState> state;
  const std::vector<double> setup =
      TimedSetups<ServedState>([&] { return MakeServedState(opt, &error); }, &state);
  ReportSetups(report, setup);
  if (state == nullptr) {
    report << "served_grep setup: " << error << "\n";
    out.correct = false;
    out.attempted = 1;
    out.failed = 1;
    return out;
  }
  report << "served_grep: loggrepd on loopback, one ArchiveSet of "
         << CorpusDatasets().size() << " tenants x " << kServedTenantBytes / 1024
         << " KiB; " << kServedClients << " closed-loop keep-alive clients; "
         << kServedDashboardShare << " repeated dashboard commands, rest novel "
         << "'<id> OR <id>' (Zipf " << kServedZipfS << " over " << state->ids.pool().size()
         << " ids) after a warm-up of every dashboard and every pool id\n";
  if (!opt.trace) {
    PeakRss rss;
    rss.Reset();
    ServedPhase phase;
    RunServedPhase(state.get(), opt.seconds, "pb-", false, &rss, &phase);
    const double whole_peak = rss.PeakMb();
    const double peak = phase.rss_mark_mb > 0 ? phase.rss_mark_mb : whole_peak;
    const QuietHalf quiet = PickQuietHalf(phase.log);
    const double qps = Ratio(static_cast<double>(quiet.ms.size()), quiet.seconds);
    const double ratio = Ratio(static_cast<double>(state->raw), static_cast<double>(state->stored));
    EmitEndToEnd(setup, qps, quiet.ms, kServedTailQ, peak, ratio, &out);
    report << "query_qps_whole_run = "
           << Ratio(static_cast<double>(phase.log.latency_ms.size()), phase.elapsed_s)
           << " 1/s\n";
    ReportQuiet(report, "query", phase.log, quiet, kServedTailQ);
    ReportLatency(report, "query", quiet.ms, 0.99);
    report << "query_qps = " << qps << " 1/s\n";
    report << "query_cache.hit_share = "
           << Ratio(static_cast<double>(phase.blocks_from_cache),
                    static_cast<double>(phase.blocks_queried))
           << " share (blocks_from_cache / blocks_queried); dashboard requests = "
           << phase.dashboard_requests << "\n";
    report << "http_only_rtt_p50_ms = " << HealthzRoundTripMs(state.get())
           << " ms (GET /healthz on the same daemon, after the measured phase)\n";
    report << "compression_ratio = " << ratio << " x (set served)\n";
    report << "peak_rss_mb = " << peak << " MB (daemon in-process; "
           << (phase.rss_mark_mb > 0 ? "after the first " + std::to_string(kServedRssRequests) +
                                           " measured requests)"
                                     : "whole phase: FEWER THAN " +
                                           std::to_string(kServedRssRequests) +
                                           " requests completed)")
           << "; peak_rss_mb_whole_run = " << whole_peak << " MB\n";
    ReportErrorRate(report, phase.log);
    FinishOutcome(phase.log, &out, report);
    return out;
  }

  // The untraced half runs on the daemon exactly as the untraced run sets
  // it up; the traced half on a restarted, re-warmed daemon with the
  // TimingEnv and the access log, so the overhead below includes theirs.
  ServedPhase plain;
  RunServedPhase(state.get(), opt.seconds / 2, "pb-u", false, nullptr, &plain);
  const loggrep::Status restarted = StartDaemon(state.get(), /*probes=*/true);
  if (!restarted.ok()) {
    report << "served_grep restart with probes: " << restarted.ToString() << "\n";
    out.correct = false;
    out.attempted = 1;
    out.failed = 1;
    return out;
  }
  const TimingEnv::Totals warm_io = state->env->totals();
  const uint64_t rejects_before = AdmissionRejects(state.get());
  SpanRecorder::Get().Clear();
  SpanRecorder::Get().Enable(true);
  ServedPhase traced;
  RunServedPhase(state.get(), opt.seconds / 2, "pb-t", true, nullptr, &traced);
  SpanRecorder::Get().Enable(false);
  const std::vector<Span> spans = SpanRecorder::Get().Snapshot();
  const uint64_t rejects = AdmissionRejects(state.get()) - rejects_before;
  state->daemon->access_log().Flush();

  // Join the access log to the client's samples on X-Request-Id.
  std::map<std::string, const ServedSample*> by_rid;
  for (const ServedSample& s : traced.samples) {
    by_rid[s.rid] = &s;
  }
  QueryLedger ledger;
  double service_ms = 0;
  double outside_ms = 0;
  double queue_ms = 0;
  uint64_t joined = 0;
  std::ifstream log(state->root + "/access.log");
  std::string line;
  while (std::getline(log, line)) {
    auto json = loggrep::ParseJson(line);
    if (!json.ok()) {
      continue;
    }
    const auto it = by_rid.find(json->Get("rid").AsString());
    if (it == by_rid.end()) {
      continue;
    }
    const ServedSample& sample = *it->second;
    const LocatorStats& loc = sample.loc;
    const double dur_ms = static_cast<double>(json->Get("dur_ns").AsUint()) / 1e6;
    const double staged_ms =
        static_cast<double>(loc.prune_nanos + loc.open_nanos + loc.stamp_filter_nanos +
                            loc.decompress_nanos + loc.scan_nanos + loc.reconstruct_nanos) /
        1e6;
    ledger.Add(dur_ms, loc, sample.hits, sample.blocks_pruned, sample.blocks_queried,
               sample.blocks_from_cache);
    service_ms += dur_ms;
    outside_ms += sample.ms - dur_ms;
    queue_ms += dur_ms - staged_ms;
    ++joined;
  }
  Layers layers;
  ledger.Emit(&layers);
  const double n = std::max<double>(1, static_cast<double>(joined));
  layers.Set("server.service_ms", service_ms / n);
  layers.Set("server.outside_ms", outside_ms / n);
  layers.Set("server.queue_ms", queue_ms / n);
  layers.Set("server.admission_rejects", static_cast<double>(rejects));
  // Reads of the traced half only: the warm-up's are subtracted.
  const uint64_t read_bytes = state->env->totals().read_bytes - warm_io.read_bytes;
  layers.Set("store.read_bytes_per_query",
             static_cast<double>(read_bytes) / std::max<double>(1, traced.samples.size()));
  layers.Set("codec.decode_mb_s", DecodeMbPerS(ReadBlockFiles(state->root + "/set")));
  report << "server: joined " << joined << " of " << traced.samples.size()
         << " traced requests to the access log by X-Request-Id\n";
  EmitTrace(spans, traced.elapsed_s, kServedClients, Mean(plain.log.latency_ms),
            Mean(traced.log.latency_ms), &layers, report);
  out.metrics = layers.ToMetrics();
  FinishOutcome(plain.log, &out, report);
  FinishOutcome(traced.log, &out, report);
  return out;
}

// ===========================================================================
// append_under_query
// ===========================================================================

struct AppendState {
  std::string root;
  std::vector<std::unique_ptr<Tenant>> tenants;  // queried, never appended to
  std::vector<std::string> append_tenants;
  std::vector<std::string> streams;                          // per appender tenant
  std::vector<std::vector<std::string_view>> stream_blocks;  // cuts of streams
  uint64_t ts = 0;
  ~AppendState() {
    std::error_code ec;
    fs::remove_all(root, ec);
  }
};

loggrep::ArchiveSetOptions AppendSetOptions(const loggrep::Codec* codec,
                                            loggrep::StorageEnv* env) {
  loggrep::ArchiveSetOptions options;
  options.max_shard_bytes = kAppendShardBytes;
  options.archive.engine.codec = codec;
  options.archive.env = BenchEnv(env);
  return options;
}

std::unique_ptr<AppendState> MakeAppendState(const RunOptions& opt, std::string* error) {
  auto state = std::make_unique<AppendState>();
  state->root = opt.workdir + "/append";
  fs::remove_all(state->root);
  auto set = loggrep::ArchiveSet::Create(state->root, AppendSetOptions(nullptr, nullptr));
  if (!set.ok()) {
    *error = set.status().ToString();
    return nullptr;
  }
  state->ts = 1'000'000'000;
  const std::vector<std::string>& names = CorpusDatasets();
  for (size_t i = 0; i < names.size(); ++i) {
    if (i < kAppendQueryTenants) {
      auto t = std::make_unique<Tenant>();
      t->name = TenantName(names[i]);
      const loggrep::Status status =
          AppendTenant(set->get(), t->name, GenerateText(names[i], opt.seed, kAppendTenantBytes),
                       kAppendSetupBlockBytes, &state->ts, &t->space);
      if (!status.ok()) {
        *error = status.ToString();
        return nullptr;
      }
      t->ids = IdIndex(t->space.lines, kAppendIdPool);
      state->tenants.push_back(std::move(t));
    } else {
      state->append_tenants.push_back("app-" + TenantName(names[i]));
      state->streams.push_back(GenerateText(names[i], opt.seed + 7919, kAppendStreamBytes));
    }
  }
  for (const std::string& stream : state->streams) {
    state->stream_blocks.push_back(CutBlocks(stream, kAppendBlockBytes));
  }
  return state;
}

struct AppendPhase {
  OpLog appends;  // latency from the due time
  OpLog queries;
  std::vector<double> service_ms;  // Append() call only
  std::vector<double> late_ms;     // start - due
  QueryLedger ledger;
  double elapsed_s = 0;
  uint64_t stored = 0;
  uint64_t raw = 0;
};

void RunAppendPhase(AppendState* state, double seconds, uint64_t seed, uint64_t phase_no,
                    const loggrep::Codec* codec, loggrep::StorageEnv* env,
                    AppendPhase* phase) {
  auto opened = loggrep::ArchiveSet::Open(state->root, AppendSetOptions(codec, env));
  if (!opened.ok()) {
    phase->appends.Fail("open: " + opened.status().ToString());
    return;
  }
  loggrep::ArchiveSet& set = **opened;
  std::mutex issued_mu;
  std::unordered_set<std::string> issued;
  const uint64_t warm_start = NowNs();
  const uint64_t start = warm_start + static_cast<uint64_t>(kAppendWarmUpS * 1e9);
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (size_t q = 0; q < kAppendQueryThreads; ++q) {
    threads.emplace_back([&, q] {
      loggrep::Rng rng(Fnv64("append_under_query", seed * 31 + phase_no * 7 + q));
      uint64_t rid = 0;
      while (!stop.load(std::memory_order_relaxed) && NowNs() < deadline) {
        const Tenant& t = *state->tenants[rng.NextBelow(state->tenants.size())];
        const size_t pool = t.ids.pool().size();
        const size_t a = rng.NextBelow(pool);
        const size_t b = rng.NextBelow(pool);
        const std::string command = t.ids.pool()[a] + " OR " + t.ids.pool()[b];
        {
          std::lock_guard<std::mutex> lock(issued_mu);
          if (a == b || !issued.insert(t.name + command).second) {
            continue;  // keep every query novel
          }
        }
        loggrep::SetQueryPredicate pred;
        pred.tenant = t.name;
        std::string detail;
        const uint64_t t0 = NowNs();
        loggrep::Result<loggrep::SetQueryResult> result = [&] {
          ScopedSpan span("set.query", ++rid);
          return set.Query(command, pred);
        }();
        const double ms = static_cast<double>(NowNs() - t0) / 1e6;
        {
          ScopedSpan think("query.think");
          std::this_thread::sleep_for(std::chrono::nanoseconds(kAppendThinkNs));
        }
        if (!result.ok()) {
          phase->queries.Fail(result.status().ToString());
        } else if (!result->complete()) {
          phase->queries.Fail("[" + command + "]: degraded answer");
        } else if (!SameHits(result->hits, UnionSorted(t.ids.LinesFor(a), t.ids.LinesFor(b)),
                             t.space, &detail)) {
          phase->queries.Wrong(t.name + " [" + command + "]: " + detail);
        } else if (t0 < start) {
          phase->queries.OkUntimed();
        } else {
          phase->queries.Ok(ms);
          std::lock_guard<std::mutex> lock(issued_mu);
          phase->ledger.Add(ms, result->locator, result->hits.size(), result->blocks_pruned,
                            result->blocks_queried, result->blocks_from_cache);
        }
      }
    });
  }

  // Open-loop appender: append i is due at warm_start + i / rate and is
  // timed from its due time, so a stall also charges the appends queued
  // behind it.
  const uint64_t interval_ns = static_cast<uint64_t>(1e9 / kAppendRatePerS);
  for (uint64_t i = 0;; ++i) {
    const uint64_t due = warm_start + i * interval_ns;
    if (due >= deadline) {
      break;
    }
    if (NowNs() >= deadline + kAppendGraceNs) {
      phase->appends.Fail("append due " + std::to_string((NowNs() - due) / 1'000'000) +
                          " ms earlier was never started: the backlog outlived the run");
      continue;
    }
    if (NowNs() < due) {
      ScopedSpan idle("append.idle");
      SpinUntil(due);
    }
    const size_t which = i % state->append_tenants.size();
    const std::vector<std::string_view>& blocks = state->stream_blocks[which];
    const std::string_view block = blocks[(i / state->append_tenants.size()) % blocks.size()];
    const uint64_t lines = static_cast<uint64_t>(std::count(block.begin(), block.end(), '\n'));
    const uint64_t t0 = NowNs();
    loggrep::Result<loggrep::AppendReceipt> receipt = [&] {
      ScopedSpan span("set.append", i + 1);
      return set.Append(state->append_tenants[which], block, ++state->ts);
    }();
    const uint64_t t1 = NowNs();
    if (!receipt.ok()) {
      phase->appends.Fail(receipt.status().ToString());
    } else if (receipt->lines != lines) {
      phase->appends.Wrong("append receipt covers " + std::to_string(receipt->lines) +
                           " of " + std::to_string(lines) + " lines");
    } else if (due < start) {
      phase->appends.OkUntimed();
    } else {
      phase->appends.Ok(static_cast<double>(t1 - due) / 1e6);
      phase->service_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      phase->late_ms.push_back(static_cast<double>(t0 - due) / 1e6);
    }
  }
  stop = true;
  for (std::thread& t : threads) {
    t.join();
  }
  phase->elapsed_s = ElapsedS(start);
  phase->raw = set.total_raw_bytes();
  phase->stored = set.total_stored_bytes();
}

Outcome RunAppend(const RunOptions& opt, std::ostream& report) {
  Outcome out;
  out.stamp.emplace_back("clients", std::to_string(kAppendQueryThreads));
  out.stamp.emplace_back("appenders", "1");
  std::string error;
  std::unique_ptr<AppendState> state;
  const std::vector<double> setup =
      TimedSetups<AppendState>([&] { return MakeAppendState(opt, &error); }, &state);
  ReportSetups(report, setup);
  if (state == nullptr) {
    report << "append_under_query setup: " << error << "\n";
    out.correct = false;
    out.attempted = 1;
    out.failed = 1;
    return out;
  }
  report << "append_under_query: ArchiveSet in-process; 1 open-loop appender at "
         << kAppendRatePerS << " appends/s of " << kAppendBlockBytes / 1024 << " KiB to "
         << state->append_tenants.size() << " tenants no query names (shards roll at "
         << kAppendShardBytes / 1024 << " KiB); " << kAppendQueryThreads
         << " closed-loop threads query " << state->tenants.size()
         << " other tenants with novel tenant-predicated '<id> OR <id>'; op = one append, "
         << "timed from its due time\n";
  if (!opt.trace) {
    PeakRss rss;
    rss.Reset();
    AppendPhase phase;
    RunAppendPhase(state.get(), opt.seconds, opt.seed, 0, nullptr, nullptr, &phase);
    const double peak = rss.PeakMb();
    const QuietHalf quiet = PickQuietHalf(phase.appends);
    const double appends_per_s = Ratio(static_cast<double>(quiet.ms.size()), quiet.seconds);
    const double ratio = Ratio(static_cast<double>(phase.raw), static_cast<double>(phase.stored));
    EmitEndToEnd(setup, appends_per_s, quiet.ms, kAppendTailQ, peak, ratio, &out);
    ReportQuiet(report, "append", phase.appends, quiet, kAppendTailQ);
    report << "appends_per_s = " << appends_per_s << " 1/s (offered " << kAppendRatePerS
           << ")\n";
    report << "append_late_p95_ms = " << Quantile(phase.late_ms, 0.95)
           << " ms (how late the appender started appends)\n";
    report << "query_qps = "
           << Ratio(static_cast<double>(phase.queries.latency_ms.size()), phase.elapsed_s)
           << " 1/s (beside the appends)\n";
    ReportLatency(report, "query", phase.queries.latency_ms, 0.99);
    report << "compression_ratio = " << ratio << " x (whole set after the appends)\n";
    report << "peak_rss_mb = " << peak << " MB (measured phase)\n";
    ReportErrorRate(report, phase.appends);
    ReportErrorRate(report, phase.queries);
    FinishOutcome(phase.appends, &out, report);
    FinishOutcome(phase.queries, &out, report);
    return out;
  }

  AppendPhase plain;
  RunAppendPhase(state.get(), opt.seconds / 2, opt.seed, 1, nullptr, nullptr, &plain);
  TimingCodec codec(loggrep::GetXzCodec());
  TimingEnv env(BenchEnv());
  SpanRecorder::Get().Clear();
  SpanRecorder::Get().Enable(true);
  AppendPhase traced;
  RunAppendPhase(state.get(), opt.seconds / 2, opt.seed, 2, &codec, &env, &traced);
  SpanRecorder::Get().Enable(false);
  const std::vector<Span> spans = SpanRecorder::Get().Snapshot();

  Layers layers;
  const double n = std::max<double>(1, static_cast<double>(traced.service_ms.size()));
  EmitCodec(codec, n, &layers);
  const TimingEnv::Totals io = env.totals();
  // Stored growth of the traced phase is what its appends committed.
  EmitStore(io, n, traced.stored - plain.stored, &layers);
  layers.Set("store.append_ms", Mean(traced.service_ms));
  layers.Set("store.append_late_ms", Mean(traced.late_ms));
  layers.Set("store.read_bytes_per_query",
             static_cast<double>(io.read_bytes) /
                 std::max<double>(1, static_cast<double>(traced.ledger.queries)));
  traced.ledger.Emit(&layers);
  layers.Set("codec.decode_mb_s", DecodeMbPerS(ReadBlockFiles(state->root)));
  EmitTrace(spans, traced.elapsed_s, 1 + kAppendQueryThreads, Mean(plain.service_ms),
            Mean(traced.service_ms), &layers, report);
  out.metrics = layers.ToMetrics();
  FinishOutcome(plain.appends, &out, report);
  FinishOutcome(plain.queries, &out, report);
  FinishOutcome(traced.appends, &out, report);
  FinishOutcome(traced.queries, &out, report);
  return out;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const auto* kNames = new std::vector<std::string>{
      "ingest", "cold_grep", "served_grep", "append_under_query"};
  return *kNames;
}

Outcome RunWorkload(const RunOptions& options, std::ostream& report) {
  if (options.workload == "ingest") {
    return RunIngest(options, report);
  }
  if (options.workload == "cold_grep") {
    return RunCold(options, report);
  }
  if (options.workload == "served_grep") {
    return RunServed(options, report);
  }
  return RunAppend(options, report);
}

std::string DigestInputs(uint64_t seed, const std::string& workdir) {
  // Corpora of every workload.
  uint64_t corpus = Fnv64("corpus");
  for (const std::string& name : CorpusDatasets()) {
    for (const size_t bytes : {kIngestFileBytes, kColdDatasetBytes, kServedTenantBytes}) {
      corpus = Fnv64(GenerateText(name, seed, bytes), corpus);
    }
    corpus = Fnv64(GenerateText(name, seed + 7919, kAppendStreamBytes), corpus);
  }
  // Request sequences: the first cold queries and served requests.
  uint64_t queries = Fnv64("queries");
  std::string error;
  {
    std::unique_ptr<ColdState> cold = MakeColdState(seed, workdir + "/digest-cold", &error);
    if (cold == nullptr) {
      return "{\"error\":" + loggrep::JsonQuote(error) + "}";
    }
    ColdSequence seq(*cold, seed);
    for (int i = 0; i < 40; ++i) {
      for (const ColdQuery& q : seq.NextRound()) {
        queries = Fnv64(std::to_string(q.archive) + q.command, queries);
      }
    }
  }
  {
    LineSpace space;
    for (const std::string& name : CorpusDatasets()) {
      space.Add(GenerateText(name, seed, kServedTenantBytes), space.lines.size());
    }
    const IdIndex ids(space.lines, kServedIdPool);
    std::vector<std::string> dashboards;
    for (const std::string& name : CorpusDatasets()) {
      dashboards.push_back(loggrep::QueryForDataset(name));
    }
    const std::vector<std::vector<uint32_t>> dashboard_lines(dashboards.size());
    ServedSequence seq(ids, dashboards, dashboard_lines, seed);
    for (int i = 0; i < 500; ++i) {
      queries = Fnv64(seq.Next(true).command, queries);
    }
  }
  // Compression ratio of one pass over the ingest corpus.
  const std::unique_ptr<IngestCorpus> ingest = MakeIngestCorpus(seed);
  uint64_t raw = 0;
  uint64_t stored = 0;
  for (size_t f = 0; f < ingest->files.size(); ++f) {
    const std::string dir = workdir + "/digest-ingest-" + std::to_string(f);
    const IngestResult r = IngestFile(dir, ingest->files[f], kIngestWorkers, nullptr,
                                      nullptr, 0);
    raw += r.metrics.raw_bytes;
    stored += r.metrics.stored_bytes;
    fs::remove_all(dir);
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"seed\":%llu,\"corpus\":\"%016llx\",\"queries\":\"%016llx\","
                "\"compression_ratio\":%.9g}",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(corpus),
                static_cast<unsigned long long>(queries),
                Ratio(static_cast<double>(raw), static_cast<double>(stored)));
  return buf;
}

}  // namespace perfbench
