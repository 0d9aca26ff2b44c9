// Rolling-time-window metrics: a ring of the existing lock-free cells
// (Histogram / plain counters) rotated on a coarse clock, so the serving
// layer can answer "p99 over the last minute" instead of "p99 since boot".
//
// The cumulative-since-boot histograms from PR 3 are the right shape for
// Prometheus scrapes (the scraper differentiates), but the daemon's own
// /statusz, SLO burn-rate gauges, and the workload harness all need *local*
// windows: a latency regression five minutes ago must not haunt today's
// percentiles. A RollingHistogram keeps N window slots of `window_ns` each;
// slot `w % N` belongs to window index `w = now / window_ns` and is lazily
// reset the first time a recorder lands in a new window.
//
// Clocking is explicit: every Record/Snapshot call takes `now_ns` from the
// caller (the daemon passes its tracer clock, tests pass a virtual clock),
// so rotation is deterministic and testable in zero wall time.
//
// Concurrency: Record() is the same handful of relaxed atomic ops as
// Histogram::Record plus one acquire load (and, once per window boundary,
// one CAS + reset by the claiming thread). Like Histogram::Snapshot, the
// boundary itself is monitoring-grade, not transactional: a record racing
// the claimant's reset within the same window rotation can be lost, and a
// straggler holding a pre-rotation view can land a record in the slot that
// just recycled. Both windows of raciness are a few in-flight operations
// wide; totals are conserved to within the thread count at each boundary
// (tests pin this bound under hammering).
#ifndef SRC_COMMON_ROLLING_HISTOGRAM_H_
#define SRC_COMMON_ROLLING_HISTOGRAM_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/histogram.h"

namespace loggrep {

class RollingHistogram {
 public:
  // `num_windows` slots of `window_ns` nanoseconds each. The merged view
  // spans at most num_windows * window_ns of history.
  RollingHistogram(size_t num_windows, uint64_t window_ns);

  RollingHistogram(const RollingHistogram&) = delete;
  RollingHistogram& operator=(const RollingHistogram&) = delete;

  // Records `value` into the window containing `now_ns`. Lock-free.
  void Record(uint64_t value, uint64_t now_ns);

  // Merged snapshot of every slot still inside the rolling horizon
  // [now - num_windows * window_ns, now], including the current partial
  // window. Slots whose window has expired are excluded (not merely stale:
  // a quiet period truly empties the view).
  HistogramSnapshot WindowedSnapshot(uint64_t now_ns) const;

  size_t num_windows() const { return slots_.size(); }
  uint64_t window_ns() const { return window_ns_; }

 private:
  struct Slot {
    // Window index this slot's data belongs to; kNeverUsed until first hit.
    std::atomic<uint64_t> epoch{kNeverUsed};
    Histogram hist;
  };
  static constexpr uint64_t kNeverUsed = UINT64_MAX;

  // Rotates `slot` into window `w` if it still holds an older window.
  // Returns true when the slot now belongs to `w`.
  bool Rotate(Slot* slot, uint64_t w) const;

  std::vector<std::unique_ptr<Slot>> slots_;
  uint64_t window_ns_;
};

// Same rotation scheme for a plain sum, giving windowed rates (requests,
// errors, sheds) without histogram weight.
class RollingCounter {
 public:
  RollingCounter(size_t num_windows, uint64_t window_ns);

  RollingCounter(const RollingCounter&) = delete;
  RollingCounter& operator=(const RollingCounter&) = delete;

  void Add(uint64_t delta, uint64_t now_ns);
  void Increment(uint64_t now_ns) { Add(1, now_ns); }

  // Sum over every window still inside the rolling horizon.
  uint64_t WindowedSum(uint64_t now_ns) const;

  size_t num_windows() const { return slots_.size(); }
  uint64_t window_ns() const { return window_ns_; }

 private:
  struct Slot {
    std::atomic<uint64_t> epoch{UINT64_MAX};
    std::atomic<uint64_t> sum{0};
  };

  std::vector<std::unique_ptr<Slot>> slots_;
  uint64_t window_ns_;
};

}  // namespace loggrep

#endif  // SRC_COMMON_ROLLING_HISTOGRAM_H_
