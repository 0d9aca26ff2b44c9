// Streaming ingestion: pipelined block compression with bounded memory.
//
// The paper compresses one 64 MB block at a time and notes compression
// "can easily be parallelized" (§6, §8). LogIngestor is that scale-out
// path: a producer streams raw log text in (any chunking — lines, pipes,
// whole files), the ingestor cuts the stream into entry-aligned blocks of
// ~target_block_bytes, compresses blocks concurrently on a ThreadPool, and
// commits finished blocks to a LogArchive strictly in sequence order using
// the archive's crash-safe commit protocol (tmp + rename for both block
// files and the manifest).
//
// Backpressure: at most `max_in_flight_blocks` blocks may be queued or
// compressing at once; Append() blocks the producer beyond that, so peak
// memory is O(max_in_flight_blocks * target_block_bytes) regardless of input
// size. Producer stall time is surfaced in IngestMetrics.
//
// Concurrency shape:
//   producer thread  -> Append() cuts blocks, waits on the in-flight window
//   pool workers     -> build block summary + compress (embarrassingly
//                       parallel, through the archive's one const engine)
//   committer        -> whichever worker completes the next-in-order block
//                       drains the ready set in sequence order; commits are
//                       serialized by a flag so the archive never sees
//                       concurrent mutation
//
// Crash safety: a crash (or injected kill, see CommitHook) at any point
// leaves the archive directory openable; LogArchive::Open recovers the
// longest consistent block prefix and sweeps temp/orphan files.
#ifndef SRC_INGEST_LOG_INGESTOR_H_
#define SRC_INGEST_LOG_INGESTOR_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "src/common/metrics.h"
#include "src/common/thread_pool.h"
#include "src/common/timer.h"
#include "src/store/log_archive.h"

namespace loggrep {

struct IngestOptions {
  // Target raw size of one block; cuts happen at the last entry ('\n')
  // boundary at or before this size. 64 MB mirrors the paper's block size.
  size_t target_block_bytes = 64ull << 20;
  // Bounded in-flight window (queued + compressing blocks). Append() blocks
  // the producer once the window is full.
  size_t max_in_flight_blocks = 4;
  // Compression workers; 0 means std::thread::hardware_concurrency().
  size_t num_workers = 0;
  // Forwarded to the underlying LogArchive (its engine, which the workers
  // compress through, and the archive's cache budget).
  ArchiveOptions archive;
  // Fault injection for tests: forwarded to every block commit.
  CommitHook kill_hook;
  // Optional external registry for the "ingest.*" counters and per-block
  // stage-latency histograms ("ingest.block_*_ns"). Borrowed; must outlive
  // the ingestor. When null the ingestor owns a private registry.
  MetricsRegistry* metrics = nullptr;
};

// Point-in-time ingest statistics (all stages, all threads).
struct IngestMetrics {
  uint64_t raw_bytes = 0;         // raw text handed to workers
  uint64_t stored_bytes = 0;      // compressed bytes committed
  uint64_t lines = 0;             // log entries across cut blocks
  uint64_t blocks_cut = 0;        // blocks submitted to the pool
  uint64_t blocks_committed = 0;  // blocks durably in the manifest
  uint64_t queue_depth_hwm = 0;   // in-flight window high-water mark
  double producer_stall_seconds = 0;  // Append() blocked on backpressure
  double summary_seconds = 0;         // per-stage: block summary building
  double compress_seconds = 0;        // per-stage: engine compression
  double commit_seconds = 0;          // per-stage: crash-safe commit I/O
  double wall_seconds = 0;            // Start() .. Finish()/now
};

class LogIngestor {
 public:
  // Opens (or creates) the archive at `dir` and spins up the worker pool.
  static Result<std::unique_ptr<LogIngestor>> Start(std::string dir,
                                                    IngestOptions options = {});

  // Drains and finalizes (best effort) if Finish() was never called.
  ~LogIngestor();

  LogIngestor(const LogIngestor&) = delete;
  LogIngestor& operator=(const LogIngestor&) = delete;

  // Streams a chunk of raw log text. May cut and enqueue any number of
  // blocks; blocks the caller while the in-flight window is full. Once the
  // pipeline has failed, returns that error (and the stream is dead).
  Status Append(std::string_view chunk);

  // Seals the final partial block, drains all workers and commits, and
  // returns the pipeline status. Idempotent; Append() is invalid afterwards.
  Status Finish();

  // Snapshot of the ingest counters (callable at any time, thread-safe).
  IngestMetrics metrics() const;

  // The registry holding the raw "ingest.*" counters and histograms (the
  // external one when IngestOptions::metrics was set, else the private one).
  const MetricsRegistry& registry() const { return *registry_; }

  // The underlying archive. Only safe to use after Finish() returned.
  LogArchive& archive() { return *archive_; }
  const LogArchive& archive() const { return *archive_; }

 private:
  // One compressed block waiting for its turn to commit.
  struct ReadyBlock {
    BlockInfo info;
    std::string box;
  };

  LogIngestor(IngestOptions options, std::unique_ptr<LogArchive> archive);

  // Cuts as many entry-aligned blocks as `buffer_` holds.
  Status CutReadyBlocks();
  // Admits one block into the in-flight window (waits on backpressure) and
  // submits it to the pool.
  Status EnqueueBlock(std::string text);
  // Worker: summary + compression, then hand off to the committer.
  void WorkerCompress(uint64_t seq, std::shared_ptr<std::string> text);
  // Registers a finished block and, if this thread wins the committer role,
  // drains the ready set in sequence order.
  void OnBlockReady(uint64_t seq, ReadyBlock ready);

  IngestOptions options_;
  std::unique_ptr<LogArchive> archive_;
  std::unique_ptr<ThreadPool> pool_;

  std::string buffer_;       // producer-side, partial block (producer thread only)
  bool finished_ = false;    // producer thread only
  Status final_status_;      // producer thread only, set by Finish()

  mutable std::mutex mu_;
  std::condition_variable window_open_;
  uint64_t next_seq_ = 0;      // next block number to cut
  uint64_t next_commit_ = 0;   // next block number to commit
  size_t in_flight_ = 0;       // cut but not yet committed (or failed)
  bool committing_ = false;    // a thread is inside the commit drain loop
  Status status_;              // first pipeline error
  std::map<uint64_t, ReadyBlock> completed_;

  // All times are integer nanoseconds ("_ns" names; see metrics.h).
  MetricsRegistry own_registry_;
  MetricsRegistry* registry_;  // own_registry_ or IngestOptions::metrics
  Counter* raw_bytes_;
  Counter* stored_bytes_;
  Counter* lines_;
  Counter* blocks_cut_;
  Counter* blocks_committed_;
  Counter* queue_hwm_;
  Counter* stall_ns_;
  Counter* summary_ns_;
  Counter* compress_ns_;
  Counter* commit_ns_;
  Counter* wall_ns_;
  Histogram* block_summary_ns_;   // per-block stage latency distributions
  Histogram* block_compress_ns_;
  Histogram* block_commit_ns_;
  WallTimer started_;
};

}  // namespace loggrep

#endif  // SRC_INGEST_LOG_INGESTOR_H_
