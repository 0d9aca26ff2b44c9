#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/session.h"
#include "src/workload/datasets.h"
#include "src/workload/loggen.h"

namespace loggrep {
namespace {

// ---- thread pool ---------------------------------------------------------------

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.Wait();
  SUCCEED();
}

TEST(ThreadPoolTest, TasksSubmittedFromTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&pool, &counter] {
      counter.fetch_add(1);
      pool.Submit([&counter] { counter.fetch_add(1); });
    });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPoolTest, DestructorJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
  }
  EXPECT_EQ(counter.load(), 20);
}

// The ingest pipeline Submits from its producer while workers run; many
// producers racing Submit must never lose a task.
TEST(ThreadPoolTest, ConcurrentSubmitFromManyProducers) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 8; ++p) {
    producers.emplace_back([&pool, &counter] {
      for (int i = 0; i < 500; ++i) {
        pool.Submit([&counter] { counter.fetch_add(1); });
      }
    });
  }
  for (std::thread& t : producers) {
    t.join();
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 8 * 500);
}

// Backpressure reuses one pool across many Append/Wait rounds.
TEST(ThreadPoolTest, ReusableAfterWait) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 40; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), (round + 1) * 40);
  }
}

// Destruction with tasks still queued: the pool drains the queue before the
// workers exit (documented behavior the ingestor's destructor relies on).
TEST(ThreadPoolTest, DestructionWithQueuedTasksRunsThemAll) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);  // single worker: queue necessarily backs up
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        counter.fetch_add(1);
      });
    }
    // No Wait(): destructor must drain the queue, not drop it.
  }
  EXPECT_EQ(counter.load(), 50);
}

// ---- refining-mode session --------------------------------------------------------

class QuerySessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    text_ = LogGenerator(*FindDataset("Log A")).Generate(48 * 1024);
    box_ = engine_.CompressBlock(text_);
  }

  LogGrepEngine engine_;
  std::string text_;
  std::string box_;
};

TEST_F(QuerySessionTest, IncrementalRefinementMatchesFullQuery) {
  QuerySession session(&engine_, box_);
  auto broad = session.Query("ERROR");
  ASSERT_TRUE(broad.ok());
  EXPECT_FALSE(broad->refined_incrementally);

  auto narrow = session.Query("ERROR and state:REQ_ST_CLOSED");
  ASSERT_TRUE(narrow.ok());
  EXPECT_TRUE(narrow->refined_incrementally);

  // Ground truth: the same command via a fresh engine.
  LogGrepEngine fresh;
  auto full = fresh.Query(fresh.CompressBlock(text_),
                          "ERROR and state:REQ_ST_CLOSED");
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(narrow->hits.size(), full->hits.size());
  for (size_t i = 0; i < full->hits.size(); ++i) {
    EXPECT_EQ(narrow->hits[i].first, full->hits[i].first);
    EXPECT_EQ(narrow->hits[i].second, full->hits[i].second);
  }
}

TEST_F(QuerySessionTest, ChainedRefinements) {
  QuerySession session(&engine_, box_);
  ASSERT_TRUE(session.Query("ERROR").ok());
  auto second = session.Query("ERROR and aborted");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->refined_incrementally);
  auto third = session.Query("ERROR and aborted and state:REQ_ST_TIMEOUT");
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->refined_incrementally);
  for (const auto& [line, hit_text] : third->hits) {
    EXPECT_NE(hit_text.find("REQ_ST_TIMEOUT"), std::string::npos);
  }
}

TEST_F(QuerySessionTest, NonRefinementFallsBackToFullQuery) {
  QuerySession session(&engine_, box_);
  ASSERT_TRUE(session.Query("ERROR").ok());
  // OR-extension is NOT a sound narrowing: must re-run fully.
  auto widened = session.Query("ERROR or WARN");
  ASSERT_TRUE(widened.ok());
  EXPECT_FALSE(widened->refined_incrementally);
  // A completely different command likewise.
  auto other = session.Query("heartbeat");
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other->refined_incrementally);
}

TEST_F(QuerySessionTest, AppendedNotClauseIsNotIncremental) {
  QuerySession session(&engine_, box_);
  ASSERT_TRUE(session.Query("ERROR").ok());
  auto negated = session.Query("ERROR not aborted");
  ASSERT_TRUE(negated.ok());
  EXPECT_FALSE(negated->refined_incrementally);
  // But it must still be correct.
  for (const auto& [line, hit_text] : negated->hits) {
    EXPECT_EQ(hit_text.find("aborted"), std::string::npos);
  }
}

TEST_F(QuerySessionTest, RevisitingAnyEarlierCommandIsMemoized) {
  QuerySession session(&engine_, box_);
  ASSERT_TRUE(session.Query("ERROR").ok());
  auto refined = session.Query("ERROR and aborted");
  ASSERT_TRUE(refined.ok());
  ASSERT_TRUE(refined->refined_incrementally);
  // Revisit the refined command: served from the session memo even though
  // the engine's own cache never executed it.
  auto revisit = session.Query("ERROR and aborted");
  ASSERT_TRUE(revisit.ok());
  EXPECT_TRUE(revisit->from_cache);
  ASSERT_EQ(revisit->hits.size(), refined->hits.size());
  // And refinement continues from the revisited state.
  auto deeper = session.Query("ERROR and aborted and code:");
  ASSERT_TRUE(deeper.ok());
  EXPECT_TRUE(deeper->refined_incrementally);
}

TEST_F(QuerySessionTest, ResetForgetsRefinementState) {
  QuerySession session(&engine_, box_);
  ASSERT_TRUE(session.Query("ERROR").ok());
  session.Reset();
  auto after = session.Query("ERROR and aborted");
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->refined_incrementally);
}

TEST_F(QuerySessionTest, ResetAlsoFlushesEngineCommandCache) {
  // The session memo fronts the engine's command cache; Reset must flush
  // both, or a post-reset query could be served pre-reset hits.
  QuerySession session(&engine_, box_);
  ASSERT_TRUE(session.Query("ERROR").ok());
  EXPECT_GT(engine_.cache().size(), 0u);
  session.Reset();
  EXPECT_EQ(engine_.cache().size(), 0u);
  auto after = session.Query("ERROR");
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->from_cache);
}

// ---- property test: refinement == cold full query ---------------------------
//
// For every production dataset, grow a command by appending AND clauses —
// including wildcard and quoted-keyword suffixes — and check that the
// incremental path produces hit-for-hit exactly what a cold engine (no query
// cache, no box cache) computes for the full command.
TEST(QuerySessionPropertyTest, RefinementMatchesColdQueryAcrossDatasets) {
  const std::vector<std::vector<std::string>> suffix_chains = {
      {"ERROR", "ERROR and 1", "ERROR and 1 and 2"},
      {"INFO", "INFO and id*", "INFO and id* and 1?"},        // wildcards
      {"0", "0 and \"1\"", "0 and \"1\" and \"id\""},         // quoted
      {"1", "1 and 2*3", "1 and 2*3 and \"4\""},              // mixed
  };
  for (const DatasetSpec* spec_ptr : ProductionDatasets()) {
    const DatasetSpec& spec = *spec_ptr;
    const std::string text = LogGenerator(spec).Generate(12 * 1024);
    LogGrepEngine engine;
    const std::string box = engine.CompressBlock(text);

    EngineOptions cold_options;
    cold_options.use_cache = false;
    cold_options.box_cache_budget_bytes = 0;
    LogGrepEngine cold(cold_options);

    for (const std::vector<std::string>& chain : suffix_chains) {
      QuerySession session(&engine, box);
      for (const std::string& command : chain) {
        auto via_session = session.Query(command);
        ASSERT_TRUE(via_session.ok()) << spec.name << ": " << command;
        auto ground_truth = cold.Query(box, command);
        ASSERT_TRUE(ground_truth.ok()) << spec.name << ": " << command;
        ASSERT_EQ(via_session->hits.size(), ground_truth->hits.size())
            << spec.name << ": " << command;
        for (size_t i = 0; i < ground_truth->hits.size(); ++i) {
          EXPECT_EQ(via_session->hits[i].first, ground_truth->hits[i].first)
              << spec.name << ": " << command;
          EXPECT_EQ(via_session->hits[i].second, ground_truth->hits[i].second)
              << spec.name << ": " << command;
        }
      }
    }
  }
}

}  // namespace
}  // namespace loggrep
