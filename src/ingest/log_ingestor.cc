#include "src/ingest/log_ingestor.h"

#include <filesystem>
#include <thread>
#include <utility>

#include "src/common/trace.h"

namespace loggrep {

Result<std::unique_ptr<LogIngestor>> LogIngestor::Start(std::string dir,
                                                        IngestOptions options) {
  if (options.target_block_bytes == 0) {
    return InvalidArgument("ingest: target_block_bytes must be > 0");
  }
  if (options.max_in_flight_blocks == 0) {
    return InvalidArgument("ingest: max_in_flight_blocks must be > 0");
  }
  const bool exists =
      EnvOrDefault(options.archive.env)->FileExists(dir + "/archive.manifest");
  Result<LogArchive> archive = exists
                                   ? LogArchive::Open(dir, options.archive)
                                   : LogArchive::Create(dir, options.archive);
  if (!archive.ok()) {
    return archive.status();
  }
  auto owned = std::make_unique<LogArchive>(std::move(*archive));
  return std::unique_ptr<LogIngestor>(
      new LogIngestor(std::move(options), std::move(owned)));
}

LogIngestor::LogIngestor(IngestOptions options,
                         std::unique_ptr<LogArchive> archive)
    : options_(std::move(options)), archive_(std::move(archive)) {
  size_t workers = options_.num_workers;
  if (workers == 0) {
    workers = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  pool_ = std::make_unique<ThreadPool>(workers);
  registry_ = options_.metrics != nullptr ? options_.metrics : &own_registry_;
  raw_bytes_ = registry_->GetOrCreate("ingest.raw_bytes");
  stored_bytes_ = registry_->GetOrCreate("ingest.stored_bytes");
  lines_ = registry_->GetOrCreate("ingest.lines");
  blocks_cut_ = registry_->GetOrCreate("ingest.blocks_cut");
  blocks_committed_ = registry_->GetOrCreate("ingest.blocks_committed");
  queue_hwm_ = registry_->GetOrCreate("ingest.queue_depth_hwm");
  stall_ns_ = registry_->GetOrCreate("ingest.producer_stall_ns");
  summary_ns_ = registry_->GetOrCreate("ingest.summary_ns");
  compress_ns_ = registry_->GetOrCreate("ingest.compress_ns");
  commit_ns_ = registry_->GetOrCreate("ingest.commit_ns");
  wall_ns_ = registry_->GetOrCreate("ingest.wall_ns");
  block_summary_ns_ = registry_->GetOrCreateHistogram("ingest.block_summary_ns");
  block_compress_ns_ =
      registry_->GetOrCreateHistogram("ingest.block_compress_ns");
  block_commit_ns_ = registry_->GetOrCreateHistogram("ingest.block_commit_ns");
}

LogIngestor::~LogIngestor() {
  if (!finished_) {
    (void)Finish();  // best effort drain; errors were already recorded
  }
}

Status LogIngestor::Append(std::string_view chunk) {
  if (finished_) {
    return InvalidArgument("ingest: Append after Finish");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!status_.ok()) {
      return status_;
    }
  }
  buffer_.append(chunk);
  return CutReadyBlocks();
}

Status LogIngestor::CutReadyBlocks() {
  const size_t target = options_.target_block_bytes;
  while (buffer_.size() >= target) {
    // Entry-aligned cut: last newline at or before the target size...
    size_t cut = buffer_.rfind('\n', target - 1);
    if (cut == std::string::npos) {
      // ...or, for an entry longer than a whole block, the entry's own end
      // (one oversized single-entry block rather than a torn entry).
      cut = buffer_.find('\n', target);
      if (cut == std::string::npos) {
        return OkStatus();  // need more data to close the giant entry
      }
    }
    std::string block = buffer_.substr(0, cut + 1);
    buffer_.erase(0, cut + 1);
    LOGGREP_RETURN_IF_ERROR(EnqueueBlock(std::move(block)));
  }
  return OkStatus();
}

Status LogIngestor::EnqueueBlock(std::string text) {
  uint64_t seq = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (in_flight_ >= options_.max_in_flight_blocks && status_.ok()) {
      const TraceSpan stall_span("ingest.backpressure_stall", "ingest");
      WallTimer stall;
      window_open_.wait(lock, [this] {
        return in_flight_ < options_.max_in_flight_blocks || !status_.ok();
      });
      stall_ns_->Add(stall.ElapsedNanos());
    }
    if (!status_.ok()) {
      return status_;
    }
    seq = next_seq_++;
    ++in_flight_;
    queue_hwm_->UpdateMax(in_flight_);
  }
  blocks_cut_->Increment();
  auto shared = std::make_shared<std::string>(std::move(text));
  // Spans the worker opens for this block stitch to this enqueue span
  // (ThreadPool::Submit captures the current span as the task's parent).
  const TraceSpan span("ingest.enqueue_block", "ingest", "seq", seq);
  pool_->Submit([this, seq, shared] { WorkerCompress(seq, shared); });
  return OkStatus();
}

void LogIngestor::WorkerCompress(uint64_t seq,
                                 std::shared_ptr<std::string> text) {
  WallTimer timer;
  ReadyBlock ready;
  {
    const TraceSpan span("ingest.summary", "ingest", "seq", seq);
    ready.info = BuildBlockSummary(*text);
  }
  uint64_t nanos = timer.ElapsedNanos();
  summary_ns_->Add(nanos);
  block_summary_ns_->Record(nanos);

  timer.Reset();
  // Every worker compresses through the archive's engine: CompressBlock is
  // const and shares nothing across blocks, so workers stay lock-free.
  {
    const TraceSpan span("ingest.compress", "ingest", "seq", seq);
    ready.box = archive_->engine().CompressBlock(*text);
  }
  nanos = timer.ElapsedNanos();
  compress_ns_->Add(nanos);
  block_compress_ns_->Record(nanos);

  raw_bytes_->Add(text->size());
  lines_->Add(ready.info.line_count);
  text.reset();  // release raw text before queueing for commit
  OnBlockReady(seq, std::move(ready));
}

void LogIngestor::OnBlockReady(uint64_t seq, ReadyBlock ready) {
  std::unique_lock<std::mutex> lock(mu_);
  completed_.emplace(seq, std::move(ready));
  if (committing_) {
    return;  // the active committer will drain this block in order
  }
  committing_ = true;
  while (status_.ok()) {
    auto it = completed_.find(next_commit_);
    if (it == completed_.end()) {
      break;
    }
    ReadyBlock block = std::move(it->second);
    completed_.erase(it);
    const uint64_t stored = block.box.size();

    lock.unlock();
    uint64_t commit_nanos = 0;
    Status s;
    {
      const TraceSpan span("ingest.commit", "ingest", "seq", next_commit_);
      WallTimer timer;
      s = archive_->CommitCompressedBlock(block.box, std::move(block.info),
                                          options_.kill_hook);
      commit_nanos = timer.ElapsedNanos();
    }
    lock.lock();

    commit_ns_->Add(commit_nanos);
    block_commit_ns_->Record(commit_nanos);
    if (s.ok()) {
      ++next_commit_;
      stored_bytes_->Add(stored);
      blocks_committed_->Increment();
    } else if (status_.ok()) {
      status_ = s;  // first failure wins; stream is dead from here
    }
    --in_flight_;
    window_open_.notify_all();
  }
  committing_ = false;
}

Status LogIngestor::Finish() {
  if (finished_) {
    return final_status_;
  }
  finished_ = true;
  Status seal = OkStatus();
  if (!buffer_.empty()) {
    seal = EnqueueBlock(std::move(buffer_));
    buffer_.clear();
  }
  pool_->Wait();  // all compressions + in-order commits done after this
  {
    std::lock_guard<std::mutex> lock(mu_);
    final_status_ = status_.ok() ? seal : status_;
  }
  wall_ns_->UpdateMax(started_.ElapsedNanos());
  return final_status_;
}

IngestMetrics LogIngestor::metrics() const {
  IngestMetrics m;
  m.raw_bytes = raw_bytes_->value();
  m.stored_bytes = stored_bytes_->value();
  m.lines = lines_->value();
  m.blocks_cut = blocks_cut_->value();
  m.blocks_committed = blocks_committed_->value();
  m.queue_depth_hwm = queue_hwm_->value();
  m.producer_stall_seconds = NanosToSeconds(stall_ns_->value());
  m.summary_seconds = NanosToSeconds(summary_ns_->value());
  m.compress_seconds = NanosToSeconds(compress_ns_->value());
  m.commit_seconds = NanosToSeconds(commit_ns_->value());
  const uint64_t wall = wall_ns_->value();
  m.wall_seconds = wall > 0 ? NanosToSeconds(wall) : started_.ElapsedSeconds();
  return m;
}

}  // namespace loggrep
