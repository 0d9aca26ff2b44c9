// Rolling-window histogram/counter semantics: rotation at window
// boundaries driven by an explicit virtual clock, horizon expiry, and the
// conservation bound under concurrent observe-while-rotate hammering.
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rolling_histogram.h"

namespace loggrep {
namespace {

constexpr uint64_t kWindow = 1'000;  // ns per window; tiny virtual windows

TEST(RollingHistogramTest, SingleWindowAccumulates) {
  RollingHistogram rolling(4, kWindow);
  rolling.Record(10, 100);
  rolling.Record(20, 500);
  rolling.Record(30, 999);
  const HistogramSnapshot snap = rolling.WindowedSnapshot(999);
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.sum, 60u);
  EXPECT_EQ(snap.max, 30u);
}

TEST(RollingHistogramTest, RotationAtExactBoundary) {
  RollingHistogram rolling(4, kWindow);
  rolling.Record(1, kWindow - 1);  // window 0, last nanosecond
  rolling.Record(2, kWindow);      // window 1, first nanosecond
  // The merged view still sees both while both are inside the horizon.
  EXPECT_EQ(rolling.WindowedSnapshot(kWindow).count, 2u);
  // At window 4 the horizon is windows 1..4: only the window-1 record stays.
  const HistogramSnapshot later = rolling.WindowedSnapshot(4 * kWindow);
  EXPECT_EQ(later.count, 1u);
  EXPECT_EQ(later.sum, 2u);
}

TEST(RollingHistogramTest, OldWindowsExpireFromTheMergedView) {
  RollingHistogram rolling(4, kWindow);
  rolling.Record(5, 0);  // window 0
  // Advance to window 4: slot 0 recycles; window 0 is outside the horizon
  // even before any record reuses its slot.
  EXPECT_EQ(rolling.WindowedSnapshot(4 * kWindow).count, 0u);
  // A quiet period truly empties the view (not "latest non-empty window").
  rolling.Record(7, 4 * kWindow);
  EXPECT_EQ(rolling.WindowedSnapshot(4 * kWindow).count, 1u);
  EXPECT_EQ(rolling.WindowedSnapshot(9 * kWindow).count, 0u);
}

TEST(RollingHistogramTest, SlotRecyclingResetsOldData) {
  RollingHistogram rolling(2, kWindow);
  rolling.Record(100, 0);            // window 0 -> slot 0
  rolling.Record(200, kWindow);      // window 1 -> slot 1
  rolling.Record(300, 2 * kWindow);  // window 2 -> slot 0 recycled
  const HistogramSnapshot snap = rolling.WindowedSnapshot(2 * kWindow);
  // Horizon covers windows 1..2; window 0's 100 must be gone even though
  // its slot was just reused.
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.sum, 500u);
}

TEST(RollingHistogramTest, StaleClockRecordsDoNotResurrectOldWindows) {
  RollingHistogram rolling(4, kWindow);
  rolling.Record(1, 10 * kWindow);  // window 10 claims slot 2
  // A thread with a stale clock reading tries to record into window 6
  // (same slot). The slot must not rotate *backwards*; the stale record
  // lands in the newer window rather than reviving an expired one.
  rolling.Record(2, 6 * kWindow);
  const HistogramSnapshot snap = rolling.WindowedSnapshot(10 * kWindow);
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.sum, 3u);
}

TEST(RollingCounterTest, WindowedSumRollsOff) {
  RollingCounter counter(3, kWindow);
  counter.Add(5, 0);
  counter.Add(7, kWindow);
  counter.Increment(2 * kWindow);
  EXPECT_EQ(counter.WindowedSum(2 * kWindow), 13u);
  // Window 0 exits the 3-window horizon.
  EXPECT_EQ(counter.WindowedSum(3 * kWindow), 8u);
  EXPECT_EQ(counter.WindowedSum(4 * kWindow), 1u);
  EXPECT_EQ(counter.WindowedSum(5 * kWindow), 0u);
}

// Observe-while-rotate hammering: writers race across window boundaries
// while a reader snapshots continuously. The boundary is documented as
// monitoring-grade — each of the R rotations may lose (or misplace) at most
// a few in-flight records per thread — so totals must be conserved within
// threads * rotations, and nothing may crash, hang, or double-count.
TEST(RollingHistogramTest, ConcurrentObserveWhileRotate) {
  constexpr size_t kThreads = 4;
  constexpr uint64_t kRecordsPerThread = 20'000;
  constexpr uint64_t kRotations = 16;
  RollingHistogram rolling(kRotations + 2, kWindow);
  std::atomic<uint64_t> clock{0};

  std::vector<std::thread> writers;
  for (size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (uint64_t i = 0; i < kRecordsPerThread; ++i) {
        rolling.Record(1, clock.load(std::memory_order_relaxed));
      }
    });
  }
  std::thread rotator([&] {
    for (uint64_t w = 1; w <= kRotations; ++w) {
      clock.store(w * kWindow, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });
  std::thread reader([&] {
    for (int i = 0; i < 1'000; ++i) {
      const uint64_t now = clock.load(std::memory_order_relaxed);
      const HistogramSnapshot snap = rolling.WindowedSnapshot(now);
      ASSERT_LE(snap.count, kThreads * kRecordsPerThread);
    }
  });
  for (std::thread& w : writers) {
    w.join();
  }
  rotator.join();
  reader.join();

  // Every window is still within the horizon (ring is deep enough), so the
  // merged count must conserve the total minus bounded boundary loss.
  const HistogramSnapshot final =
      rolling.WindowedSnapshot(kRotations * kWindow);
  const uint64_t total = kThreads * kRecordsPerThread;
  const uint64_t slack = kThreads * (kRotations + 1);
  EXPECT_LE(final.count, total);
  EXPECT_GE(final.count, total - slack);
}

}  // namespace
}  // namespace loggrep
