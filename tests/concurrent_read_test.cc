// Concurrent reads on one archive set and one served archive.
//
//   (a) 4 reader threads query one ArchiveSet while an appender grows the
//       active shard (rolling new ones), a compactor merges sealed shards and
//       a retention pass expires a tenant's old shards. Every answer must be
//       complete and equal, hit for hit, the reference grep over the lines
//       that were committed at some instant during the query: all appends
//       finished before it started, a prefix of the ones running during it,
//       and the expiring tenant either wholly present or wholly gone.
//   (b) a query parked mid-scatter on a shard that compaction or retention
//       then retires still reads that shard's blocks; the directory goes
//       away when the query lets go of it.
//   (c) an append parked mid-compression does not hold the set lock, so a
//       query on another tenant still returns.
//   (d) degrade=0 and degrade=1 requests at a quarantined block run at the
//       same time through one ArchiveService and get 500 and 206: per-request
//       options travel by value and never leak between requests.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/codec/codec.h"
#include "src/common/bytes.h"
#include "src/query/line_match.h"
#include "src/query/query_parser.h"
#include "src/server/archive_service.h"
#include "src/store/archive_set.h"
#include "src/store/log_archive.h"
#include "src/store/quarantine.h"
#include "src/store/storage_env.h"

namespace loggrep {
namespace {

constexpr size_t kReaders = 4;
constexpr size_t kConcurrentAppends = 12;
constexpr size_t kLinesPerAppend = 6;
constexpr uint64_t kOldTs = 1'000;
constexpr uint64_t kMainTs = 1'000'000'000'000;
constexpr uint64_t kRetentionNs = 1'000'000'000;

std::string TestDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("loggrep_concurrent_read_" + name + "_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

// One appended block: its lines and the global line of the first one.
struct Appended {
  uint64_t first_line = 0;
  std::vector<std::string> lines;
};

std::string MakeBlock(const std::string& tenant, size_t block,
                      std::vector<std::string>* lines) {
  std::string text;
  for (size_t i = 0; i < kLinesPerAppend; ++i) {
    const size_t n = block * kLinesPerAppend + i;
    std::string line = "evt " + tenant + " k" + std::to_string(n % 7) +
                       " id" + std::to_string(n) + " payload";
    if (n % 3 == 0) {
      line += " slow";
    }
    lines->push_back(line);
    text += line + "\n";
  }
  return text;
}

void AddMatches(const Appended& block, const QueryExpr& expr, QueryHits* out) {
  for (size_t i = 0; i < block.lines.size(); ++i) {
    if (LineMatchesQuery(block.lines[i], expr)) {
      out->emplace_back(block.first_line + i, block.lines[i]);
    }
  }
}

TEST(ConcurrentReadTest, SetReadersMatchReferenceUnderAppendCompactRetain) {
  const std::string root = TestDir("set");
  ArchiveSetOptions options;
  options.max_shard_bytes = 2 * kLinesPerAppend * 30;  // roll every ~2 appends
  options.retention_ns = kRetentionNs;
  options.compaction.min_run_shards = 2;
  // No box cache: every query reads its block files, so a shard directory
  // removed under an in-flight query would surface as a hole.
  options.archive.engine.box_cache_budget_bytes = 0;
  auto created = ArchiveSet::Create(root, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ArchiveSet& set = **created;

  // Base state, fully committed before any reader starts: sealed "old"
  // shards that retention will expire (plus the tenant's active shard,
  // which never expires) and a few "main" shards.
  std::vector<Appended> expiring;  // lines in sealed "old" shards
  std::vector<Appended> stable;    // every other base line
  std::vector<std::pair<uint64_t, Appended>> old_blocks;  // (shard, block)
  for (size_t b = 0; b < 6; ++b) {
    Appended block;
    auto receipt = set.Append("old", MakeBlock("old", b, &block.lines), kOldTs);
    ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
    block.first_line = receipt->first_global_line;
    old_blocks.emplace_back(receipt->shard_id, std::move(block));
  }
  const uint64_t old_active = old_blocks.back().first;
  for (auto& [shard, block] : old_blocks) {
    (shard == old_active ? stable : expiring).push_back(std::move(block));
  }
  ASSERT_FALSE(expiring.empty());
  for (size_t b = 0; b < 4; ++b) {
    Appended block;
    auto receipt =
        set.Append("main", MakeBlock("main", b, &block.lines), kMainTs + b);
    ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
    block.first_line = receipt->first_global_line;
    stable.push_back(std::move(block));
  }

  // Concurrent appends are prepared up front; `started` / `finished` count
  // them (one appender, so they are totally ordered).
  std::vector<Appended> appends(kConcurrentAppends);
  std::vector<std::string> append_text(kConcurrentAppends);
  for (size_t a = 0; a < kConcurrentAppends; ++a) {
    append_text[a] = MakeBlock("main", 100 + a, &appends[a].lines);
  }
  std::atomic<size_t> started{0};
  std::atomic<size_t> finished{0};
  std::atomic<bool> writers_done{false};

  const std::vector<std::string> commands = {"k3", "slow and main",
                                             "payload not k1", "old"};
  std::vector<std::unique_ptr<QueryExpr>> exprs;
  for (const std::string& command : commands) {
    auto expr = ParseQuery(command);
    ASSERT_TRUE(expr.ok()) << command;
    exprs.push_back(std::move(*expr));
  }

  // Readers record what they saw; the check runs after every thread has
  // joined, when each concurrent append's receipt (its global line) is known.
  struct Observation {
    size_t command = 0;
    size_t done_before = 0;    // appends finished before the query started
    size_t started_after = 0;  // appends started before the query ended
    QueryHits hits;
  };
  std::vector<std::vector<Observation>> observed(kReaders);
  std::vector<std::string> errors(kReaders);
  auto reader = [&](size_t r) {
    for (size_t iter = 0; !writers_done.load() || iter < 8; ++iter) {
      const size_t c = (r + iter) % commands.size();
      Observation o;
      o.command = c;
      o.done_before = finished.load();
      Result<SetQueryResult> result =
          iter % 2 == 0 ? set.Query(commands[c])
                        : set.Query(commands[c], {}, {.threads = 2});
      o.started_after = started.load();
      if (!result.ok()) {
        errors[r] = commands[c] + ": " + result.status().ToString();
        return;
      }
      if (!result->complete()) {
        errors[r] = commands[c] + ": incomplete: " + result->RenderPartial();
        return;
      }
      o.hits = std::move(result->hits);
      observed[r].push_back(std::move(o));
    }
  };

  std::vector<std::thread> threads;
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back(reader, r);
  }
  Status append_status = OkStatus();
  std::thread appender([&] {
    for (size_t a = 0; a < kConcurrentAppends; ++a) {
      started.store(a + 1);
      Result<AppendReceipt> receipt =
          set.Append("main", append_text[a], kMainTs + 10 + a);
      if (!receipt.ok()) {
        append_status = receipt.status();
        return;
      }
      appends[a].first_line = receipt->first_global_line;
      finished.store(a + 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  std::thread compactor([&] {
    while (!writers_done.load()) {
      (void)set.Compact();
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  });
  Status retention_status = OkStatus();
  std::thread retention([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    Result<SetRetentionReport> report = set.RunRetention(kMainTs);
    if (!report.ok()) {
      retention_status = report.status();
    } else if (!report->ok()) {
      retention_status = report->fatal;
    }
  });
  appender.join();
  retention.join();
  writers_done.store(true);
  compactor.join();
  for (std::thread& t : threads) {
    t.join();
  }
  ASSERT_TRUE(append_status.ok()) << append_status.ToString();
  ASSERT_TRUE(retention_status.ok()) << retention_status.ToString();

  // An answer is right iff it equals the reference grep at some instant:
  // every append finished before the query started, a prefix of the ones
  // running during it, and the expiring tenant wholly present or gone.
  size_t checked = 0;
  for (size_t r = 0; r < kReaders; ++r) {
    EXPECT_TRUE(errors[r].empty()) << "reader " << r << ": " << errors[r];
    for (const Observation& o : observed[r]) {
      const QueryExpr& expr = *exprs[o.command];
      bool matched = false;
      for (bool with_expiring : {true, false}) {
        QueryHits want;
        for (const Appended& block : stable) {
          AddMatches(block, expr, &want);
        }
        if (with_expiring) {
          for (const Appended& block : expiring) {
            AddMatches(block, expr, &want);
          }
        }
        for (size_t j = 0; j <= o.started_after && !matched; ++j) {
          if (j > 0) {
            AddMatches(appends[j - 1], expr, &want);
          }
          if (j >= o.done_before) {
            QueryHits sorted = want;
            std::sort(sorted.begin(), sorted.end());
            matched = sorted == o.hits;
          }
        }
        if (matched) {
          break;
        }
      }
      EXPECT_TRUE(matched) << "reader " << r << " [" << commands[o.command]
                           << "]: " << o.hits.size()
                           << " hits match no committed state (appends "
                           << o.done_before << ".." << o.started_after << ")";
      ++checked;
    }
  }
  EXPECT_GE(checked, kReaders * 8);
  EXPECT_GT(set.compaction_totals().merges, 0u);

  // Quiescent end state: retention expired every sealed "old" shard and
  // every append is visible, exactly once, at its receipt's line.
  for (size_t c = 0; c < commands.size(); ++c) {
    QueryHits want;
    for (const Appended& block : stable) {
      AddMatches(block, *exprs[c], &want);
    }
    for (const Appended& block : appends) {
      AddMatches(block, *exprs[c], &want);
    }
    std::sort(want.begin(), want.end());
    Result<SetQueryResult> result = set.Query(commands[c]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->complete());
    EXPECT_EQ(result->hits, want) << commands[c];
  }
  // No retired shard directory outlives the queries that pinned it.
  for (const ShardInfo& s : set.shards()) {
    EXPECT_EQ(std::filesystem::exists(root + "/" + s.dir_name), s.live())
        << s.dir_name;
  }
  std::filesystem::remove_all(root);
}

// Parks the first read of a path containing the armed pattern until
// Release(), so a test can hold a query mid-scatter at a chosen shard.
class GateEnv : public LatencyStorageEnv {
 public:
  GateEnv() : LatencyStorageEnv(LatencyOptions{}) {}

  void Arm(std::string pattern) {
    const std::lock_guard<std::mutex> lock(mu_);
    pattern_ = std::move(pattern);
  }
  void AwaitParked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return parked_; });
  }
  void Release() {
    const std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

  Result<std::string> ReadFile(const std::string& path) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (!pattern_.empty() && path.find(pattern_) != std::string::npos) {
        pattern_.clear();  // park only the first match
        parked_ = true;
        cv_.notify_all();
        cv_.wait(lock, [this] { return released_; });
      }
    }
    return LatencyStorageEnv::ReadFile(path);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::string pattern_;  // empty = disarmed
  bool parked_ = false;
  bool released_ = false;
};

// Parks a query on the first sealed shard's first block, retires that shard
// (`retire` runs compaction or retention), then lets the query finish.
void ExpectRetiredShardServesInFlightQuery(
    const std::string& name, const std::function<void(ArchiveSet&)>& retire) {
  const std::string root = TestDir(name);
  GateEnv env;
  ArchiveSetOptions options;
  options.max_shard_bytes = 1;  // every append rolls a fresh shard
  options.retention_ns = kRetentionNs;
  options.archive.env = &env;
  // Every query reads blocks.
  options.archive.engine.box_cache_budget_bytes = 0;
  auto created = ArchiveSet::Create(root, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ArchiveSet& set = **created;
  std::vector<Appended> blocks;
  for (size_t b = 0; b < 4; ++b) {
    Appended block;
    auto receipt = set.Append("old", MakeBlock("old", b, &block.lines), kOldTs);
    ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
    block.first_line = receipt->first_global_line;
    blocks.push_back(std::move(block));
  }
  const ShardInfo first = set.shards().front();
  ASSERT_TRUE(first.sealed);
  const std::string first_dir = root + "/" + first.dir_name;

  env.Arm(first.dir_name + "/block-");
  Result<SetQueryResult> parked = InvalidArgument("not run");
  std::thread reader([&] { parked = set.Query("payload"); });
  env.AwaitParked();
  retire(set);
  bool retired = false;
  for (const ShardInfo& s : set.shards()) {
    retired |= s.id == first.id && !s.live();
  }
  const bool dir_kept = std::filesystem::exists(first_dir);
  env.Release();
  reader.join();

  EXPECT_TRUE(retired) << name << ": the parked shard was not retired";
  EXPECT_TRUE(dir_kept) << name << ": directory removed under a query";
  ASSERT_TRUE(parked.ok()) << parked.status().ToString();
  EXPECT_TRUE(parked->complete()) << parked->RenderPartial();
  auto expr = ParseQuery("payload");
  ASSERT_TRUE(expr.ok());
  QueryHits want;
  for (const Appended& block : blocks) {
    AddMatches(block, **expr, &want);
  }
  EXPECT_EQ(parked->hits, want);
  EXPECT_FALSE(std::filesystem::exists(first_dir))
      << name << ": directory outlived the last query holding it";
  std::filesystem::remove_all(root);
}

TEST(ConcurrentReadTest, CompactedShardServesInFlightQuery) {
  ExpectRetiredShardServesInFlightQuery("compact", [](ArchiveSet& set) {
    const SetCompactionReport report = set.Compact();
    EXPECT_TRUE(report.ok()) << report.Summary();
    EXPECT_GT(report.merges_committed, 0u) << report.Summary();
  });
}

TEST(ConcurrentReadTest, ExpiredShardServesInFlightQuery) {
  ExpectRetiredShardServesInFlightQuery("retain", [](ArchiveSet& set) {
    Result<SetRetentionReport> report = set.RunRetention(kMainTs);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_FALSE(report->expired_ids.empty());
  });
}

// Parks the first compression after Arm() until Release(). The bytes come
// from the zstd-like codec, whose id this codec shares, so reads decode
// through the registry as usual.
class GateCodec : public Codec {
 public:
  const char* name() const override { return "gated"; }
  uint8_t id() const override { return GetZstdCodec().id(); }

  void Arm() {
    const std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
  }
  void AwaitParked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return parked_; });
  }
  void Release() {
    const std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 protected:
  std::string CompressPayload(std::string_view raw) const override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (armed_) {
        armed_ = false;  // park only the first compression
        parked_ = true;
        cv_.notify_all();
        cv_.wait(lock, [this] { return released_; });
      }
    }
    // Strip the zstd-like container header; Compress() re-adds it.
    const std::string blob = GetZstdCodec().Compress(raw);
    ByteReader in(blob);
    (void)in.ReadU8();
    (void)in.ReadVarint();
    return std::string(*in.ReadBytes(in.remaining()));
  }
  Result<std::string> DecompressPayload(std::string_view,
                                        size_t) const override {
    return Internal("GateCodec only compresses");
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable bool armed_ = false;
  mutable bool parked_ = false;
  bool released_ = false;
};

// An append parked mid-compression must not hold the set lock: a query on
// another tenant still returns, and the parked append then commits.
TEST(ConcurrentReadTest, QueryDoesNotWaitBehindAppendCompression) {
  const std::string root = TestDir("append_lock");
  GateCodec codec;
  ArchiveSetOptions options;
  options.archive.engine.codec = &codec;
  auto created = ArchiveSet::Create(root, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ArchiveSet& set = **created;
  Appended quiet;
  auto receipt = set.Append("quiet", MakeBlock("quiet", 0, &quiet.lines));
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  quiet.first_line = receipt->first_global_line;

  codec.Arm();
  Appended busy;
  const std::string busy_text = MakeBlock("busy", 1, &busy.lines);
  Result<AppendReceipt> parked = InvalidArgument("not run");
  std::thread appender([&] { parked = set.Append("busy", busy_text); });
  codec.AwaitParked();

  SetQueryPredicate pred;
  pred.tenant = "quiet";
  std::future<Result<SetQueryResult>> query = std::async(
      std::launch::async, [&] { return set.Query("payload", pred); });
  const bool returned =
      query.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  codec.Release();  // unblock the appender either way, so the test ends
  appender.join();
  EXPECT_TRUE(returned) << "query waited behind a parked append";
  Result<SetQueryResult> result = query.get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto expr = ParseQuery("payload");
  ASSERT_TRUE(expr.ok());
  QueryHits want;
  AddMatches(quiet, **expr, &want);
  EXPECT_EQ(result->hits, want);

  ASSERT_TRUE(parked.ok()) << parked.status().ToString();
  busy.first_line = parked->first_global_line;
  AddMatches(busy, **expr, &want);
  Result<SetQueryResult> all = set.Query("payload");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  std::sort(want.begin(), want.end());
  QueryHits got = all->hits;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);
  std::filesystem::remove_all(root);
}

TEST(ConcurrentReadTest, PerRequestDegradeIsIsolated) {
  const std::string root = TestDir("service");
  {
    auto archive = LogArchive::Create(root + "/arch");
    ASSERT_TRUE(archive.ok()) << archive.status().ToString();
    ASSERT_TRUE(archive->AppendBlock("alpha one shared\nalpha two shared\n").ok());
    ASSERT_TRUE(archive->AppendBlock("beta three shared\nbeta four shared\n").ok());
  }
  QuarantineSet quarantine;
  QuarantineEntry entry;
  entry.seq = 1;
  entry.code = "CORRUPT_DATA";
  entry.error = "injected";
  quarantine.Add(entry);
  ASSERT_TRUE(SaveQuarantine(root + "/arch", quarantine).ok());

  ServiceOptions options;
  options.root = root;
  ArchiveService service(options);
  constexpr int kRounds = 40;
  std::atomic<int> strict_500{0};
  std::atomic<int> degraded_206{0};
  std::atomic<int> ready{0};
  auto client = [&](bool degrade) {
    for (int round = 0; round < kRounds; ++round) {
      // Line the two requests up so they overlap inside the service.
      ready.fetch_add(1);
      while (ready.load() < 2 * (round + 1)) {
        std::this_thread::yield();
      }
      ServiceRequest request;
      request.archive = "arch";
      request.command = "shared";
      request.degrade = degrade;
      const ServiceResponse response = service.Run(request);
      if (!degrade && response.http_status == 500) {
        ++strict_500;
      }
      if (degrade && response.http_status == 206) {
        ++degraded_206;
      }
    }
  };
  std::thread strict(client, false);
  std::thread lenient(client, true);
  strict.join();
  lenient.join();
  EXPECT_EQ(strict_500.load(), kRounds);
  EXPECT_EQ(degraded_206.load(), kRounds);
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace loggrep
