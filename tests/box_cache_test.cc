#include "src/query/box_cache.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/metrics.h"
#include "src/core/engine.h"

namespace loggrep {
namespace {

std::string SampleBoxBytes(int salt = 0) {
  std::string text;
  for (int i = 0; i < 64; ++i) {
    text += "INFO request id:REQ_" + std::to_string(i * 7 + salt) +
            " served bytes:" + std::to_string(i * 100) + "\n";
  }
  LogGrepEngine engine;
  return engine.CompressBlock(text);
}

// ---- BoxKey identity --------------------------------------------------------

TEST(BoxKeyTest, ContentKeysDifferPerContent) {
  const BoxKey a = BoxKey::FromBytes("hello world");
  const BoxKey b = BoxKey::FromBytes("hello worle");
  const BoxKey a2 = BoxKey::FromBytes("hello world");
  EXPECT_TRUE(a == a2);
  EXPECT_FALSE(a == b);
  EXPECT_NE(a.ToString(), b.ToString());
}

TEST(BoxKeyTest, SizeIsPartOfTheIdentity) {
  // Even if both hashes collided, differing sizes keep the keys distinct.
  BoxKey a = BoxKey::FromBytes("aaaa");
  BoxKey forged = a;
  forged.size += 1;
  EXPECT_FALSE(a == forged);
}

TEST(BoxKeyTest, SequenceKeysNeverCollideWithContentKeys) {
  // Sequence keys use a sentinel size no serialized box can reach.
  const BoxKey seq = BoxKey::ForSequence(1, 0);
  EXPECT_EQ(seq.size, UINT64_MAX);
  const BoxKey content = BoxKey::FromBytes(SampleBoxBytes());
  EXPECT_FALSE(seq == content);
}

TEST(BoxKeyTest, SequenceKeysDifferAcrossNamespacesAndSeqs) {
  const uint64_t ns1 = BoxKey::NextNamespaceId();
  const uint64_t ns2 = BoxKey::NextNamespaceId();
  EXPECT_NE(ns1, ns2);
  EXPECT_FALSE(BoxKey::ForSequence(ns1, 0) == BoxKey::ForSequence(ns2, 0));
  EXPECT_FALSE(BoxKey::ForSequence(ns1, 0) == BoxKey::ForSequence(ns1, 1));
  EXPECT_TRUE(BoxKey::ForSequence(ns1, 3) == BoxKey::ForSequence(ns1, 3));
}

// ---- OpenedBox --------------------------------------------------------------

TEST(OpenedBoxTest, ParsesAndPinsBytes) {
  auto opened = OpenedBox::Open(SampleBoxBytes());
  ASSERT_TRUE(opened.ok());
  EXPECT_GT((*opened)->bytes().size(), 0u);
  EXPECT_EQ((*opened)->box().meta().total_lines, 64u);
}

TEST(OpenedBoxTest, RejectsGarbage) {
  EXPECT_FALSE(OpenedBox::Open("definitely not a capsule box").ok());
}

// ---- CachedCapsule ----------------------------------------------------------

TEST(CachedCapsuleTest, LazySplitsViewIntoBlob) {
  const std::string blob = "alpha\nbeta\ngamma\n";
  CachedCapsule capsule{std::string(blob)};
  const auto& splits = capsule.splits();
  ASSERT_EQ(splits.size(), 3u);
  EXPECT_EQ(splits[0], "alpha");
  EXPECT_EQ(splits[2], "gamma");
  // Views must point inside the capsule's own blob.
  EXPECT_GE(splits[0].data(), capsule.blob().data());
  EXPECT_LE(splits[2].data() + splits[2].size(),
            capsule.blob().data() + capsule.blob().size());
}

// ---- BoxCache ---------------------------------------------------------------

TEST(BoxCacheTest, BoxMissThenHitLoadsOnce) {
  BoxCache cache;
  const std::string bytes = SampleBoxBytes();
  const BoxKey key = BoxKey::FromBytes(bytes);
  int loads = 0;
  auto loader = [&]() -> Result<std::string> {
    ++loads;
    return bytes;
  };
  bool was_hit = true;
  auto first = cache.GetOrOpenBox(key, loader, &was_hit);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(was_hit);
  auto second = cache.GetOrOpenBox(key, loader, &was_hit);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(was_hit);
  EXPECT_EQ(loads, 1);
  EXPECT_EQ(first->get(), second->get());  // same resident object

  const BoxCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.box_hits, 1u);
  EXPECT_EQ(stats.box_misses, 1u);
  EXPECT_GT(stats.bytes_saved, 0u);
}

TEST(BoxCacheTest, CapsuleMissThenHitLoadsOnce) {
  BoxCache cache;
  const BoxKey key = BoxKey::ForSequence(BoxKey::NextNamespaceId(), 0);
  int loads = 0;
  auto loader = [&]() -> Result<std::string> {
    ++loads;
    return std::string("decompressed capsule payload");
  };
  bool was_hit = true;
  auto first = cache.GetOrLoadCapsule(key, 7, loader, &was_hit);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(was_hit);
  auto second = cache.GetOrLoadCapsule(key, 7, loader, &was_hit);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(was_hit);
  EXPECT_EQ(loads, 1);
  // A different capsule id is a different entry.
  auto third = cache.GetOrLoadCapsule(key, 8, loader, &was_hit);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(was_hit);
  EXPECT_EQ(loads, 2);
}

TEST(BoxCacheTest, LoaderErrorIsNotCached) {
  BoxCache cache;
  const BoxKey key = BoxKey::ForSequence(BoxKey::NextNamespaceId(), 0);
  auto failing = []() -> Result<std::string> {
    return Internal("disk on fire");
  };
  EXPECT_FALSE(cache.GetOrLoadCapsule(key, 0, failing).ok());
  // A later good load must succeed and be a miss (nothing poisoned).
  bool was_hit = true;
  auto ok = cache.GetOrLoadCapsule(
      key, 0, []() -> Result<std::string> { return std::string("fine"); },
      &was_hit);
  ASSERT_TRUE(ok.ok());
  EXPECT_FALSE(was_hit);
  EXPECT_EQ((*ok)->blob(), "fine");
}

TEST(BoxCacheTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  BoxCacheOptions options;
  options.byte_budget = 4096;
  options.shards = 1;  // deterministic LRU order
  BoxCache cache(options);
  const BoxKey key = BoxKey::ForSequence(BoxKey::NextNamespaceId(), 0);
  auto blob = []() -> Result<std::string> { return std::string(1500, 'z'); };

  ASSERT_TRUE(cache.GetOrLoadCapsule(key, 0, blob).ok());
  ASSERT_TRUE(cache.GetOrLoadCapsule(key, 1, blob).ok());
  // Touch capsule 0 so capsule 1 is the LRU victim.
  ASSERT_TRUE(cache.GetOrLoadCapsule(key, 0, blob).ok());
  ASSERT_TRUE(cache.GetOrLoadCapsule(key, 2, blob).ok());

  const BoxCacheStats stats = cache.Stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(stats.bytes_in_use, options.byte_budget);

  bool was_hit = false;
  ASSERT_TRUE(cache.GetOrLoadCapsule(key, 0, blob, &was_hit).ok());
  EXPECT_TRUE(was_hit);  // survived: it was promoted
  ASSERT_TRUE(cache.GetOrLoadCapsule(key, 1, blob, &was_hit).ok());
  EXPECT_FALSE(was_hit);  // evicted: reloads
}

TEST(BoxCacheTest, OversizedEntryIsStillAdmitted) {
  BoxCacheOptions options;
  options.byte_budget = 64;  // smaller than any entry
  options.shards = 1;
  BoxCache cache(options);
  const BoxKey key = BoxKey::ForSequence(BoxKey::NextNamespaceId(), 0);
  bool was_hit = true;
  auto huge = cache.GetOrLoadCapsule(
      key, 0, []() -> Result<std::string> { return std::string(1 << 16, 'h'); },
      &was_hit);
  ASSERT_TRUE(huge.ok());
  EXPECT_FALSE(was_hit);
  // Never evict the freshest entry: it is immediately warm.
  ASSERT_TRUE(cache
                  .GetOrLoadCapsule(
                      key, 0,
                      []() -> Result<std::string> { return std::string(); },
                      &was_hit)
                  .ok());
  EXPECT_TRUE(was_hit);
}

TEST(BoxCacheTest, PinnedEntriesSurviveEvictionAndClear) {
  BoxCacheOptions options;
  options.byte_budget = 2048;
  options.shards = 1;
  BoxCache cache(options);
  const BoxKey key = BoxKey::ForSequence(BoxKey::NextNamespaceId(), 0);

  auto pinned = cache.GetOrLoadCapsule(key, 0, []() -> Result<std::string> {
    return std::string(1024, 'p');
  });
  ASSERT_TRUE(pinned.ok());
  const std::string_view view = (*pinned)->blob();

  // Push the pinned entry out...
  for (uint32_t id = 1; id <= 8; ++id) {
    ASSERT_TRUE(cache
                    .GetOrLoadCapsule(key, id,
                                      []() -> Result<std::string> {
                                        return std::string(1024, 'q');
                                      })
                    .ok());
  }
  cache.Clear();
  EXPECT_EQ(cache.Stats().entries, 0u);
  // ...yet the pinned shared_ptr keeps its bytes alive and intact.
  EXPECT_EQ(view.size(), 1024u);
  EXPECT_EQ(view[0], 'p');
  EXPECT_EQ(view[1023], 'p');
}

// Shared across runs of this test binary; Reset() isolates each use without
// throwing away the registered cells (handles stay valid, per metrics.h).
MetricsRegistry& SharedMetrics() {
  static MetricsRegistry registry;
  registry.Reset();
  return registry;
}

TEST(BoxCacheTest, MetricsRegistryMirrorsCounters) {
  MetricsRegistry& metrics = SharedMetrics();
  BoxCacheOptions options;
  options.metrics = &metrics;
  BoxCache cache(options);
  const BoxKey key = BoxKey::ForSequence(BoxKey::NextNamespaceId(), 0);
  auto blob = []() -> Result<std::string> { return std::string(100, 'm'); };
  ASSERT_TRUE(cache.GetOrLoadCapsule(key, 0, blob).ok());
  ASSERT_TRUE(cache.GetOrLoadCapsule(key, 0, blob).ok());
  EXPECT_EQ(metrics.GetOrCreate("query.box_cache.misses")->value(), 1u);
  EXPECT_EQ(metrics.GetOrCreate("query.box_cache.hits")->value(), 1u);
  EXPECT_GE(metrics.GetOrCreate("query.box_cache.bytes_saved")->value(), 100u);
}

TEST(BoxCacheTest, ZeroBudgetKeepsNothing) {
  // A zero budget hands every loaded entry back uncached: each call runs its
  // loader and counts a miss, and the cache never holds an entry or a byte.
  MetricsRegistry& metrics = SharedMetrics();
  BoxCacheOptions options;
  options.byte_budget = 0;
  options.metrics = &metrics;
  BoxCache cache(options);
  const std::string bytes = SampleBoxBytes();
  const BoxKey key = BoxKey::FromBytes(bytes);
  int loads = 0;
  auto box_loader = [&]() -> Result<std::string> {
    ++loads;
    return bytes;
  };
  auto capsule_loader = [&]() -> Result<std::string> {
    ++loads;
    return std::string(1000, 'c');
  };
  int calls = 0;
  for (int round = 0; round < 3; ++round) {
    bool was_hit = true;
    auto box = cache.GetOrOpenBox(key, box_loader, &was_hit);
    ASSERT_TRUE(box.ok());
    EXPECT_FALSE(was_hit);
    EXPECT_EQ((*box)->bytes(), bytes);
    ++calls;
    for (uint32_t id = 0; id < 16; ++id) {
      auto capsule = cache.GetOrLoadCapsule(key, id, capsule_loader, &was_hit);
      ASSERT_TRUE(capsule.ok());
      EXPECT_FALSE(was_hit);
      EXPECT_EQ((*capsule)->blob().size(), 1000u);
      ++calls;
    }
    const BoxCacheStats stats = cache.Stats();
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_EQ(stats.bytes_in_use, 0u);
  }
  EXPECT_EQ(loads, calls);
  const BoxCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.box_hits + stats.capsule_hits, 0u);
  EXPECT_EQ(stats.box_misses, 3u);
  EXPECT_EQ(stats.capsule_misses, 48u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(metrics.GetOrCreate("query.box_cache.misses")->value(),
            static_cast<uint64_t>(calls));
  EXPECT_EQ(metrics.GetOrCreate("query.box_cache.bytes_in_use_hwm")->value(),
            0u);
}

TEST(BoxCacheTest, BytesInUseHighWaterMarkCoversEveryShard) {
  // The high-water mark tracks the cache-wide total that Stats() reports,
  // not the fullest single shard.
  MetricsRegistry& metrics = SharedMetrics();
  BoxCacheOptions options;
  options.shards = 8;
  options.metrics = &metrics;
  BoxCache cache(options);
  const BoxKey key = BoxKey::ForSequence(BoxKey::NextNamespaceId(), 0);
  auto blob = []() -> Result<std::string> { return std::string(1000, 'w'); };
  for (uint32_t id = 0; id < 16; ++id) {
    ASSERT_TRUE(cache.GetOrLoadCapsule(key, id, blob).ok());
  }
  const BoxCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 16u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(metrics.GetOrCreate("query.box_cache.bytes_in_use_hwm")->value(),
            stats.bytes_in_use);
  cache.Clear();
  EXPECT_EQ(cache.Stats().bytes_in_use, 0u);
}

TEST(BoxCacheTest, ConcurrentMixedLoadsStayConsistent) {
  BoxCacheOptions options;
  options.byte_budget = 64 << 10;
  options.shards = 4;
  BoxCache cache(options);
  const uint64_t ns = BoxKey::NextNamespaceId();

  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const uint32_t id = static_cast<uint32_t>((t + i) % 16);
        const BoxKey key = BoxKey::ForSequence(ns, id % 4);
        auto got = cache.GetOrLoadCapsule(key, id, [id]() -> Result<std::string> {
          return std::string(64 + id, static_cast<char>('a' + id % 26));
        });
        if (!got.ok() || (*got)->blob().size() != 64 + id ||
            (*got)->blob()[0] != static_cast<char>('a' + id % 26)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  const BoxCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.capsule_hits + stats.capsule_misses,
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_LE(stats.bytes_in_use,
            options.byte_budget + (64 + 16 + 128) * options.shards);
}

}  // namespace
}  // namespace loggrep
