// Tests for the observability layer: log2-bucketed histograms, the span
// tracer (nesting, cross-thread stitching, ring overflow, Chrome JSON
// export), the metrics exporters (golden output), MetricsRegistry::Reset,
// and the query explain accounting invariant
//   pruned + cached + decompressed == visited
// across every production dataset and at the archive level.
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/histogram.h"
#include "src/common/metrics.h"
#include "src/common/metrics_export.h"
#include "src/common/thread_pool.h"
#include "src/common/trace.h"
#include "src/core/engine.h"
#include "src/query/explain.h"
#include "src/store/log_archive.h"
#include "src/workload/datasets.h"
#include "src/workload/loggen.h"
#include "src/workload/queries.h"

namespace loggrep {
namespace {

// ---- histogram bucket math --------------------------------------------------------

TEST(HistogramTest, BucketLayout) {
  EXPECT_EQ(Histogram::BucketFor(0), 0u);
  EXPECT_EQ(Histogram::BucketFor(1), 1u);
  EXPECT_EQ(Histogram::BucketFor(2), 2u);
  EXPECT_EQ(Histogram::BucketFor(3), 2u);
  EXPECT_EQ(Histogram::BucketFor(4), 3u);
  EXPECT_EQ(Histogram::BucketFor((uint64_t{1} << 62) - 1), 62u);
  EXPECT_EQ(Histogram::BucketFor(uint64_t{1} << 62), 63u);
  EXPECT_EQ(Histogram::BucketFor(UINT64_MAX), 63u);

  // Bounds round-trip: every bucket contains both of its own bounds.
  for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
    EXPECT_EQ(Histogram::BucketFor(Histogram::BucketLowerBound(b)), b) << b;
    EXPECT_EQ(Histogram::BucketFor(Histogram::BucketUpperBound(b)), b) << b;
  }
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(Histogram::BucketUpperBound(63), UINT64_MAX);
}

TEST(HistogramTest, EmptySnapshotIsAllZero) {
  Histogram h;
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0u);
  EXPECT_EQ(snap.max, 0u);
  EXPECT_EQ(snap.Percentile(50), 0u);
  EXPECT_EQ(snap.Percentile(99), 0u);
  EXPECT_EQ(snap.mean(), 0.0);
}

TEST(HistogramTest, ZeroValuesLandInBucketZero) {
  Histogram h;
  h.Record(0);
  h.Record(0);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.buckets[0], 2u);
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.max, 0u);
  EXPECT_EQ(snap.p50(), 0u);
  EXPECT_EQ(snap.p99(), 0u);
}

TEST(HistogramTest, PercentilesInterpolateAndClampToMax) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) {
    h.Record(v);
  }
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_EQ(snap.sum, 5050u);
  EXPECT_EQ(snap.max, 100u);
  // p50 rank is 50; values 1..63 fill buckets 1..6 (cumulative 63 at le=63),
  // so the estimate must sit inside bucket 6's range [32, 63].
  const uint64_t p50 = snap.p50();
  EXPECT_GE(p50, 32u);
  EXPECT_LE(p50, 63u);
  // p99 rank is 99, landing in bucket 7 ([64, 127]) but clamped to max=100.
  const uint64_t p99 = snap.p99();
  EXPECT_GE(p99, 64u);
  EXPECT_LE(p99, 100u);
  // Percentiles are monotone in q and never exceed the observed max.
  EXPECT_LE(snap.Percentile(0), snap.p50());
  EXPECT_LE(snap.p50(), snap.p90());
  EXPECT_LE(snap.p90(), snap.p99());
  EXPECT_LE(snap.Percentile(100), snap.max);
}

TEST(HistogramTest, OverflowBucketCannotInventValues) {
  Histogram h;
  h.Record(uint64_t{1} << 62);
  h.Record(UINT64_MAX);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.buckets[63], 2u);
  EXPECT_EQ(snap.max, UINT64_MAX);
  // Both records live in the overflow bucket; estimates stay within
  // [lower bound of the bucket, observed max].
  EXPECT_GE(snap.p50(), uint64_t{1} << 62);
  EXPECT_LE(snap.p50(), UINT64_MAX);
  EXPECT_LE(snap.p99(), snap.max);
}

TEST(HistogramTest, ConcurrentRecordLosesNothing) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 1; i <= kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(i));
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.sum, static_cast<uint64_t>(kThreads) * kPerThread *
                          (kPerThread + 1) / 2);
  EXPECT_EQ(snap.max, static_cast<uint64_t>(kPerThread));
  uint64_t bucket_total = 0;
  for (uint64_t b : snap.buckets) {
    bucket_total += b;
  }
  EXPECT_EQ(bucket_total, snap.count);
}

// ---- registry reset ---------------------------------------------------------------

TEST(MetricsRegistryTest, ResetZeroesCellsButKeepsHandles) {
  MetricsRegistry registry;
  Counter* c = registry.GetOrCreate("test.counter");
  Histogram* h = registry.GetOrCreateHistogram("test.hist_ns");
  c->Add(7);
  h->Record(42);
  ASSERT_EQ(c->value(), 7u);
  ASSERT_EQ(h->Snapshot().count, 1u);

  registry.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->Snapshot().count, 0u);
  EXPECT_EQ(h->Snapshot().sum, 0u);
  EXPECT_EQ(h->Snapshot().max, 0u);

  // Handles stay live and re-registering returns the same cells.
  c->Increment();
  h->Record(3);
  EXPECT_EQ(registry.GetOrCreate("test.counter"), c);
  EXPECT_EQ(registry.GetOrCreateHistogram("test.hist_ns"), h);
  EXPECT_EQ(registry.Snapshot().at("test.counter"), 1u);
  EXPECT_EQ(registry.HistogramSnapshots().at("test.hist_ns").count, 1u);
}

// ---- exporter goldens -------------------------------------------------------------

TEST(MetricsExportTest, PrometheusGolden) {
  MetricsRegistry registry;
  registry.GetOrCreate("a.count")->Add(1);
  registry.GetOrCreate("b.count")->Add(3);
  Histogram* h = registry.GetOrCreateHistogram("lat_ns");
  h->Record(1);  // bucket 1, le=1
  h->Record(3);  // bucket 2, le=3
  const std::string expected =
      "# TYPE loggrep_a_count counter\n"
      "loggrep_a_count 1\n"
      "# TYPE loggrep_b_count counter\n"
      "loggrep_b_count 3\n"
      "# TYPE loggrep_lat_ns histogram\n"
      "loggrep_lat_ns_bucket{le=\"1\"} 1\n"
      "loggrep_lat_ns_bucket{le=\"3\"} 2\n"
      "loggrep_lat_ns_bucket{le=\"+Inf\"} 2\n"
      "loggrep_lat_ns_sum 4\n"
      "loggrep_lat_ns_count 2\n"
      "# TYPE loggrep_lat_ns_p50 gauge\n"
      "loggrep_lat_ns_p50 1\n"
      "# TYPE loggrep_lat_ns_p99 gauge\n"
      "loggrep_lat_ns_p99 3\n"
      "# TYPE loggrep_lat_ns_p999 gauge\n"
      "loggrep_lat_ns_p999 3\n";
  EXPECT_EQ(ExportPrometheus(registry), expected);
}

TEST(MetricsExportTest, JsonGolden) {
  MetricsRegistry registry;
  registry.GetOrCreate("a.count")->Add(1);
  registry.GetOrCreate("b.count")->Add(3);
  Histogram* h = registry.GetOrCreateHistogram("lat_ns");
  h->Record(1);
  h->Record(3);
  // p50: rank 1 falls in bucket 1 whose range degenerates to [1,1] -> 1.
  // p90/p95/p99: rank 2 falls in bucket 2, interpolated to hi=min(3,max)=3.
  const std::string expected =
      "{\"counters\":{\"a.count\":1,\"b.count\":3},"
      "\"histograms\":{\"lat_ns\":{\"count\":2,\"sum\":4,\"max\":3,"
      "\"p50\":1,\"p90\":3,\"p95\":3,\"p99\":3,\"p999\":3}}}";
  EXPECT_EQ(ExportJson(registry), expected);
}

TEST(MetricsExportTest, EmptyRegistry) {
  MetricsRegistry registry;
  EXPECT_EQ(ExportPrometheus(registry), "");
  EXPECT_EQ(ExportJson(registry), "{\"counters\":{},\"histograms\":{}}");
}

// ---- tracer -----------------------------------------------------------------------

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Global().Clear();
    Tracer::Global().Enable(true);
  }
  void TearDown() override {
    Tracer::Global().Enable(false);
    Tracer::Global().Clear();
  }

  static const TraceEvent* Find(const std::vector<TraceEvent>& events,
                                const char* name) {
    for (const TraceEvent& e : events) {
      if (e.name != nullptr && std::string_view(e.name) == name) {
        return &e;
      }
    }
    return nullptr;
  }
};

TEST_F(TraceTest, NestedSpansRecordParents) {
  uint64_t outer_id = 0;
  uint64_t inner_id = 0;
  {
    TraceSpan outer("test.outer", "test");
    ASSERT_TRUE(outer.active());
    outer_id = outer.span_id();
    {
      TraceSpan inner("test.inner", "test");
      inner_id = inner.span_id();
      EXPECT_NE(inner_id, outer_id);
    }
  }
  const std::vector<TraceEvent> events = Tracer::Global().Snapshot();
  const TraceEvent* outer = Find(events, "test.outer");
  const TraceEvent* inner = Find(events, "test.inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->parent_id, 0u);
  EXPECT_EQ(inner->parent_id, outer_id);
  EXPECT_EQ(inner->span_id, inner_id);
  EXPECT_EQ(outer->tid, inner->tid);
  // The inner span is fully contained in the outer one.
  EXPECT_GE(inner->start_ns, outer->start_ns);
  EXPECT_LE(inner->start_ns + inner->dur_ns, outer->start_ns + outer->dur_ns);
}

TEST_F(TraceTest, SpansAreInertWhenDisabled) {
  Tracer::Global().Enable(false);
  {
    TraceSpan span("test.disabled", "test");
    EXPECT_FALSE(span.active());
    EXPECT_EQ(span.span_id(), 0u);
  }
  EXPECT_EQ(Tracer::Global().size(), 0u);
}

TEST_F(TraceTest, CrossThreadStitchingThroughThreadPool) {
  const uint32_t main_tid = Tracer::CurrentThreadId();
  uint64_t outer_id = 0;
  {
    TraceSpan outer("test.submit_root", "test");
    outer_id = outer.span_id();
    ThreadPool pool(2);
    for (int i = 0; i < 4; ++i) {
      pool.Submit([] { TraceSpan worker("test.worker_span", "test"); });
    }
    pool.Wait();
  }
  const std::vector<TraceEvent> events = Tracer::Global().Snapshot();
  size_t workers = 0;
  for (const TraceEvent& e : events) {
    if (e.name != nullptr && std::string_view(e.name) == "test.worker_span") {
      ++workers;
      // Stitched: the worker span's parent is the submitting span even
      // though it ran on a pool thread.
      EXPECT_EQ(e.parent_id, outer_id);
      EXPECT_NE(e.tid, main_tid);
    }
  }
  EXPECT_EQ(workers, 4u);
}

TEST_F(TraceTest, RingOverflowDropsOldestAndCounts) {
  Tracer tracer(4);
  tracer.Enable(true);
  static const char* kNames[6] = {"e0", "e1", "e2", "e3", "e4", "e5"};
  for (int i = 0; i < 6; ++i) {
    TraceEvent e;
    e.name = kNames[i];
    e.category = "test";
    e.span_id = static_cast<uint64_t>(i + 1);
    tracer.Record(e);
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 2u);
  const std::vector<TraceEvent> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest two were overwritten; the rest come back oldest first.
  EXPECT_STREQ(events[0].name, "e2");
  EXPECT_STREQ(events[3].name, "e5");
  tracer.Clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

// Brace/bracket balance outside of string literals — a cheap structural
// validity check for the exported JSON.
void ExpectBalancedJson(const std::string& json) {
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip the escaped char
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++braces; break;
      case '}': --braces; break;
      case '[': ++brackets; break;
      case ']': --brackets; break;
      default: break;
    }
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST_F(TraceTest, ChromeJsonExportIsWellFormed) {
  Tracer::Global().SetCurrentThreadName("observability-test-main");
  {
    TraceSpan outer("test.export_root", "test");
    ThreadPool pool(2);
    pool.Submit([] { TraceSpan worker("test.export_worker", "test", "seq", 7); });
    pool.Wait();
  }
  const std::string json = Tracer::Global().ExportChromeJson();
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // thread names
  // The worker span's parent lives on another thread -> flow arrows.
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("test.export_worker"), std::string::npos);
  EXPECT_NE(json.find("\"seq\":7"), std::string::npos);
  EXPECT_NE(json.find("observability-test-main"), std::string::npos);
}

// ---- explain accounting invariant -------------------------------------------------

TEST(ExplainInvariantTest, HoldsOnEveryProductionDataset) {
  for (const DatasetSpec* spec : ProductionDatasets()) {
    SCOPED_TRACE(spec->name);
    const std::string command = QueryForDataset(spec->name);
    ASSERT_FALSE(command.empty());

    const LogGenerator gen(*spec);
    const std::string text = gen.Generate(48 << 10);
    LogGrepEngine engine;
    const std::string box = engine.CompressBlock(text);

    QueryExplain explain;
    explain.command = command;
    BlockExplain& block = explain.blocks.emplace_back();
    auto result = engine.Query(box, command, &block);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    std::string detail;
    EXPECT_TRUE(explain.CheckInvariant(&detail)) << detail;
    const ExplainTotals totals = explain.Totals();
    EXPECT_GT(totals.visited, 0u);
    EXPECT_EQ(totals.pruned + totals.cached + totals.decompressed,
              totals.visited);
    // Cold engine, one execution: the explain record's decompression
    // accounting must agree with the locator's own cost accounting.
    EXPECT_EQ(totals.decompressed, result->locator.capsules_decompressed);
    EXPECT_EQ(totals.bytes_decompressed, result->locator.bytes_decompressed);
    EXPECT_EQ(block.hits, result->hits.size());

    // Explained execution returns the same hits as a plain query.
    LogGrepEngine fresh;
    auto plain = fresh.Query(box, command);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    EXPECT_EQ(result->hits, plain->hits);

    // The render mentions every fate line and the accounting summary.
    const std::string rendered = explain.Render();
    EXPECT_NE(rendered.find(command), std::string::npos);
  }
}

TEST(ExplainInvariantTest, ExplainBypassesQueryCache) {
  const DatasetSpec* spec = ProductionDatasets().front();
  const LogGenerator gen(*spec);
  const std::string text = gen.Generate(16 << 10);
  const std::string command = QueryForDataset(spec->name);
  LogGrepEngine engine;
  const std::string box = engine.CompressBlock(text);

  // Warm the command cache, then explain: the record must describe a real
  // execution, not a cache hit.
  auto warm = engine.Query(box, command);
  ASSERT_TRUE(warm.ok());
  QueryExplain explain;
  BlockExplain& block = explain.blocks.emplace_back();
  auto result = engine.Query(box, command, &block);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->from_cache);
  EXPECT_GT(explain.Totals().visited, 0u);
  std::string detail;
  EXPECT_TRUE(explain.CheckInvariant(&detail)) << detail;
}

class ArchiveExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("loggrep_observability_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(ArchiveExplainTest, PrunedBlocksCarryReasonsAndInvariantHolds) {
  auto archive = LogArchive::Create(dir_);
  ASSERT_TRUE(archive.ok()) << archive.status().ToString();
  std::string block_a;
  std::string block_b;
  for (int i = 0; i < 200; ++i) {
    block_a += "alpha service request widget-" + std::to_string(i) + " ok\n";
    block_b += "omega daemon heartbeat node-" + std::to_string(i) + " ok\n";
  }
  ASSERT_TRUE(archive->AppendBlock(block_a).ok());
  ASSERT_TRUE(archive->AppendBlock(block_b).ok());

  QueryExplain explain;
  auto result = archive->Query("widget", {}, &explain);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(explain.command, "widget");
  ASSERT_EQ(explain.blocks.size(), 2u);
  EXPECT_EQ(result->blocks_pruned, 1u);
  EXPECT_EQ(result->blocks_queried, 1u);

  size_t pruned_blocks = 0;
  for (const BlockExplain& block : explain.blocks) {
    if (block.block_pruned) {
      ++pruned_blocks;
      EXPECT_FALSE(block.prune_reason.empty());
      EXPECT_NE(block.prune_reason.find("widget"), std::string::npos);
      EXPECT_EQ(block.Totals().visited, 0u);  // never opened
    } else {
      EXPECT_GT(block.Totals().visited, 0u);
    }
  }
  EXPECT_EQ(pruned_blocks, 1u);

  std::string detail;
  EXPECT_TRUE(explain.CheckInvariant(&detail)) << detail;

  // Reusing the tree resets it: one entry per block, not one per call.
  auto again = archive->Query("widget", {}, &explain);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(explain.command, "widget");
  ASSERT_EQ(explain.blocks.size(), 2u);
  EXPECT_TRUE(explain.CheckInvariant(&detail)) << detail;
  // An explained run bypasses the command cache, so it is never a replay.
  EXPECT_EQ(again->blocks_from_cache, 0u);

  // Same answer as the regular (cache-served) query path.
  auto plain = archive->Query("widget");
  ASSERT_TRUE(plain.ok());
  for (const ArchiveQueryResult* r : {&*result, &*again}) {
    EXPECT_EQ(r->hits, plain->hits);
    EXPECT_EQ(r->blocks_pruned, plain->blocks_pruned);
    EXPECT_EQ(r->blocks_queried, plain->blocks_queried);
    EXPECT_EQ(r->partial.failures.size(), plain->partial.failures.size());
  }
  EXPECT_EQ(result->hits.size(), 200u);

  // The rendered tree names the pruned block and balances its ledger.
  const std::string rendered = explain.Render();
  EXPECT_NE(rendered.find("widget"), std::string::npos);

  // A disjunction prunes a block only when every branch fails, and the
  // reason names the failing keyword of each branch.
  QueryExplain or_explain;
  auto or_result = archive->Query("widget or gadget", {}, &or_explain);
  ASSERT_TRUE(or_result.ok()) << or_result.status().ToString();
  EXPECT_EQ(or_result->blocks_pruned, 1u);
  EXPECT_EQ(or_result->hits.size(), 200u);
  for (const BlockExplain& block : or_explain.blocks) {
    if (block.block_pruned) {
      EXPECT_NE(block.prune_reason.find("widget"), std::string::npos)
          << block.prune_reason;
      EXPECT_NE(block.prune_reason.find("gadget"), std::string::npos)
          << block.prune_reason;
    }
  }
  EXPECT_TRUE(or_explain.CheckInvariant(&detail)) << detail;

  // One branch present in each block: nothing is pruned.
  auto both = archive->Query("widget or heartbeat");
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(both->blocks_pruned, 0u);
  EXPECT_EQ(both->hits.size(), 400u);
}

TEST_F(ArchiveExplainTest, ParallelQueryTraceStitchesWorkerSpans) {
  auto archive = LogArchive::Create(dir_);
  ASSERT_TRUE(archive.ok()) << archive.status().ToString();
  std::string block_a;
  std::string block_b;
  for (int i = 0; i < 100; ++i) {
    block_a += "statusfine alpha request-" + std::to_string(i) + "\n";
    block_b += "statusfine omega request-" + std::to_string(i) + "\n";
  }
  ASSERT_TRUE(archive->AppendBlock(block_a).ok());
  ASSERT_TRUE(archive->AppendBlock(block_b).ok());

  Tracer::Global().Clear();
  Tracer::Global().Enable(true);
  auto result = archive->Query("statusfine", {.threads = 2});
  Tracer::Global().Enable(false);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->hits.size(), 200u);

  const std::vector<TraceEvent> events = Tracer::Global().Snapshot();
  const TraceEvent* parallel = nullptr;
  for (const TraceEvent& e : events) {
    if (e.name != nullptr &&
        std::string_view(e.name) == "archive.query") {
      parallel = &e;
    }
  }
  ASSERT_NE(parallel, nullptr);

  size_t stitched_blocks = 0;
  for (const TraceEvent& e : events) {
    if (e.name != nullptr && std::string_view(e.name) == "archive.query_block") {
      // Worker spans nest under the archive.query span across threads.
      EXPECT_EQ(e.parent_id, parallel->span_id);
      EXPECT_NE(e.tid, parallel->tid);
      ++stitched_blocks;
    }
  }
  EXPECT_EQ(stitched_blocks, 2u);

  const std::string json = Tracer::Global().ExportChromeJson();
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"archive.query\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("pool-worker-"), std::string::npos);
  Tracer::Global().Clear();
}

}  // namespace
}  // namespace loggrep
