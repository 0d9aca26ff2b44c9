// Concurrency contract for loggrepd: many clients on many threads, every
// answered query checked hit-for-hit against a serial oracle computed before
// the daemon starts. Three storms:
//
//   (a) clean archive, 8 clients x mixed query/explain — all 200s, every
//       response identical to the serial run;
//   (b) fault-injected archive — responses are degraded 206s (or 200s when
//       pruning excused the sick block), always exactly the healthy-block
//       subset: concurrency must never turn a partial answer into a *wrong*
//       answer;
//   (c) admission limit 1 under 8 clients — excess load bounces 429 and a
//       bounded retry loop still gets every client every answer, unchanged.
#include <atomic>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/server/client.h"
#include "src/server/daemon.h"
#include "src/store/log_archive.h"
#include "src/store/storage_env.h"
#include "src/workload/datasets.h"
#include "src/workload/loggen.h"
#include "src/workload/queries.h"

namespace loggrep {
namespace {

constexpr size_t kBlocks = 3;
constexpr size_t kLinesPerBlock = 120;
constexpr size_t kClients = 8;
constexpr size_t kRequestsPerClient = 12;
constexpr uint64_t kSeed = 20260809;

std::vector<std::string> SplitIntoLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    lines.emplace_back(text, pos, nl - pos);
    pos = nl + 1;
  }
  return lines;
}

std::string AnchorKeyword(const std::vector<std::string>& block_lines) {
  const std::string& line = block_lines.front();
  std::string best;
  std::string cur;
  for (char c : line) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      cur.push_back(c);
    } else {
      if (cur.size() > best.size()) best = cur;
      cur.clear();
    }
  }
  if (cur.size() > best.size()) best = cur;
  return best;
}

class DaemonConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (std::filesystem::temp_directory_path() /
             ("loggrep_dconc_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                .string();
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);

    DatasetSpec spec = AllDatasets().front();
    for (size_t b = 0; b < kBlocks; ++b) {
      spec.seed = kSeed * 1000003 + b + 1;
      LogGenerator gen(spec);
      block_texts_.push_back(gen.GenerateLines(kLinesPerBlock));
      block_lines_.push_back(SplitIntoLines(block_texts_.back()));
    }
    commands_ = QuerySuiteForDataset(spec.name);
    // The anchor guarantees at least one command must touch block 1 (the
    // sick one in storm (b)).
    commands_.push_back(AnchorKeyword(block_lines_[1]));

    Result<LogArchive> archive = LogArchive::Create(ArchiveDir(), {});
    ASSERT_TRUE(archive.ok()) << archive.status().ToString();
    for (const std::string& text : block_texts_) {
      ASSERT_TRUE(archive->AppendBlock(text).ok());
    }

    // Serial oracle, computed before any daemon exists.
    Result<LogArchive> serial = LogArchive::Open(ArchiveDir());
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    for (const std::string& command : commands_) {
      Result<ArchiveQueryResult> r = serial->Query(command);
      ASSERT_TRUE(r.ok()) << command << ": " << r.status().ToString();
      ASSERT_FALSE(r->partial.partial());
      oracle_[command] = r->hits;
      // The healthy-subset oracle for storm (b): block 1's global line
      // range is [kLinesPerBlock, 2*kLinesPerBlock).
      QueryHits healthy;
      for (const auto& [line, text] : r->hits) {
        if (line < kLinesPerBlock || line >= 2 * kLinesPerBlock) {
          healthy.emplace_back(line, text);
        }
      }
      degraded_oracle_[command] = std::move(healthy);
    }
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  std::string ArchiveDir() const { return root_ + "/arch"; }

  std::string root_;
  std::vector<std::string> block_texts_;
  std::vector<std::vector<std::string>> block_lines_;
  std::vector<std::string> commands_;
  std::map<std::string, QueryHits> oracle_;
  std::map<std::string, QueryHits> degraded_oracle_;
};

TEST_F(DaemonConcurrencyTest, EightClientsMatchTheSerialOracleHitForHit) {
  DaemonOptions options;
  options.service.root = root_;
  options.num_threads = kClients;
  LoggrepDaemon daemon(options);
  Result<uint16_t> port = daemon.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> transport_errors{0};
  std::atomic<size_t> answered{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      DaemonClient client("127.0.0.1", *port);
      for (size_t i = 0; i < kRequestsPerClient; ++i) {
        // Each client walks the suite from its own offset; odd requests go
        // through /explain so both paths race each other.
        const std::string& command = commands_[(c + i) % commands_.size()];
        const bool explain = (c + i) % 2 == 1;
        Result<RemoteQueryResult> r =
            explain ? client.Explain("arch", command)
                    : client.Query("arch", command);
        if (!r.ok()) {
          transport_errors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        answered.fetch_add(1, std::memory_order_relaxed);
        if (r->http_status != 200 || !r->complete ||
            r->hits != oracle_[command]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  EXPECT_EQ(transport_errors.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(answered.load(), kClients * kRequestsPerClient);
  // One shared handle served everyone; the admission gate is fully released.
  EXPECT_EQ(daemon.service().open_archives(), 1u);
  EXPECT_EQ(daemon.inflight_queries(), 0u);
}

TEST_F(DaemonConcurrencyTest, FaultsDegradeTo206sButNeverWrongAnswers) {
  FaultInjectingStorageEnv fault(FaultOptions{.seed = kSeed});
  fault.AddPermanentFault("block-1.lgc", StatusCode::kIOError);

  DaemonOptions options;
  options.service.root = root_;
  options.num_threads = kClients;
  options.service.archive.env = &fault;
  options.service.archive.retry.max_attempts = 2;
  options.service.archive.engine.box_cache_budget_bytes = 0;
  LoggrepDaemon daemon(options);
  Result<uint16_t> port = daemon.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  const std::string anchor = commands_.back();  // guaranteed to touch block 1
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> bad_status{0};
  std::atomic<size_t> anchor_not_degraded{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      DaemonClient client("127.0.0.1", *port);
      for (size_t i = 0; i < kRequestsPerClient; ++i) {
        const std::string& command = commands_[(c + i) % commands_.size()];
        Result<RemoteQueryResult> r = client.Query("arch", command);
        if (!r.ok()) {
          bad_status.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        // 206 when the sick block was needed, 200 when pruning excused it;
        // anything else (500, wrong subset) is a contract violation.
        if (r->http_status != 200 && r->http_status != 206) {
          bad_status.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (r->hits != degraded_oracle_[command]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        if (command == anchor && r->http_status != 206) {
          anchor_not_degraded.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  EXPECT_EQ(bad_status.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(anchor_not_degraded.load(), 0u)
      << "queries that need the sick block must answer 206, never 200";
}

// Wraps the real env and parks block reads on a gate: one query provably
// *holds* the single admission slot for as long as the test wants, so the
// 429 path runs deterministically even on a one-core machine where queries
// otherwise finish faster than clients can collide.
class GatedStorageEnv : public StorageEnv {
 public:
  explicit GatedStorageEnv(StorageEnv* base) : base_(base) {}

  Result<std::string> ReadFile(const std::string& path) override {
    if (path.find(".lgc") != std::string::npos) {
      std::unique_lock<std::mutex> lock(mu_);
      ++blocked_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return !closed_; });
      --blocked_;
    }
    return base_->ReadFile(path);
  }
  Status WriteFile(const std::string& path, std::string_view data) override {
    return base_->WriteFile(path, data);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }
  Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  Status SyncFile(const std::string& path) override {
    return base_->SyncFile(path);
  }
  Status SyncDir(const std::string& dir) override {
    return base_->SyncDir(dir);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  uint64_t NowNanos() override { return base_->NowNanos(); }
  void SleepNanos(uint64_t nanos) override { base_->SleepNanos(nanos); }
  const char* name() const override { return "gated"; }

  void CloseGate() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  void OpenGate() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = false;
    cv_.notify_all();
  }
  void AwaitBlockedReader() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return blocked_ > 0; });
  }

 private:
  StorageEnv* base_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool closed_ = false;
  size_t blocked_ = 0;
};

TEST_F(DaemonConcurrencyTest, OverloadBounces429AndRetriesStillConverge) {
  GatedStorageEnv gated(DefaultStorageEnv());

  DaemonOptions options;
  options.service.root = root_;
  options.num_threads = kClients;
  options.service.archive.env = &gated;
  // Every query must hit storage (no warm shortcuts), so the gate below
  // really pins the slot.
  options.service.archive.engine.box_cache_budget_bytes = 0;
  options.service.archive.engine.use_cache = false;
  options.max_inflight_queries = 1;
  LoggrepDaemon daemon(options);
  Result<uint16_t> port = daemon.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  const std::string pinned_command = commands_.back();  // touches block 1

  // Phase 1 — deterministic shed: close the gate, park one query mid-read so
  // it owns the only slot, then prove the next request bounces with 429.
  gated.CloseGate();
  std::thread pinned([&] {
    DaemonClient client("127.0.0.1", *port);
    Result<RemoteQueryResult> r = client.Query("arch", pinned_command);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->http_status, 200);
    EXPECT_EQ(r->hits, oracle_[pinned_command]);
  });
  gated.AwaitBlockedReader();  // the slot is now provably held

  {
    DaemonClient bouncer("127.0.0.1", *port);
    Result<RemoteQueryResult> shed = bouncer.Query("arch", pinned_command);
    ASSERT_TRUE(shed.ok()) << shed.status().ToString();
    EXPECT_EQ(shed->http_status, 429) << "slot held, must shed";
  }
  gated.OpenGate();
  pinned.join();

  // Phase 2 — convergence: 8 clients, limit still 1; clients own the retry
  // loop (shed, not queued) and every answer must still match the oracle.
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> gave_up{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      DaemonClient client("127.0.0.1", *port);
      for (size_t i = 0; i < kRequestsPerClient; ++i) {
        const std::string& command = commands_[(c + i) % commands_.size()];
        bool done = false;
        for (int attempt = 0; attempt < 500 && !done; ++attempt) {
          Result<RemoteQueryResult> r = client.Query("arch", command);
          if (!r.ok()) {
            break;  // transport failure counts as giving up below
          }
          if (r->http_status == 429) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            continue;  // shed, not queued: the client owns the retry
          }
          if (r->http_status != 200 || r->hits != oracle_[command]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
          done = true;
        }
        if (!done) {
          gave_up.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(gave_up.load(), 0u);
  // The gate drained completely and at least the phase-1 request was shed.
  EXPECT_EQ(daemon.inflight_queries(), 0u);
  EXPECT_GT(daemon.metrics().GetOrCreate("server.admission_rejects")->value(),
            0u);
}

}  // namespace
}  // namespace loggrep
