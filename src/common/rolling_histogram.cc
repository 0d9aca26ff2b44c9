#include "src/common/rolling_histogram.h"

namespace loggrep {

RollingHistogram::RollingHistogram(size_t num_windows, uint64_t window_ns)
    : window_ns_(window_ns == 0 ? 1 : window_ns) {
  if (num_windows == 0) {
    num_windows = 1;
  }
  slots_.reserve(num_windows);
  for (size_t i = 0; i < num_windows; ++i) {
    slots_.push_back(std::make_unique<Slot>());
  }
}

bool RollingHistogram::Rotate(Slot* slot, uint64_t w) const {
  uint64_t e = slot->epoch.load(std::memory_order_acquire);
  for (;;) {
    if (e == w) {
      return true;  // someone already rotated (or never left) this window
    }
    // kNeverUsed compares greater than any real window index, so it takes
    // the claim path below; a slot holding a *newer* window than `w` means
    // the caller's clock is behind a racing recorder — drop the rotation,
    // the value lands in the newer window's slot (bounded skew, documented).
    if (e != kNeverUsed && e > w) {
      return false;
    }
    if (slot->epoch.compare_exchange_weak(e, w, std::memory_order_acq_rel)) {
      // Claimed: wipe the expired window's data. Recorders that raced in
      // after the CAS but before this reset may lose their record — the
      // boundary raciness the header documents.
      slot->hist.Reset();
      return true;
    }
  }
}

void RollingHistogram::Record(uint64_t value, uint64_t now_ns) {
  const uint64_t w = now_ns / window_ns_;
  Slot* slot = slots_[w % slots_.size()].get();
  Rotate(slot, w);
  slot->hist.Record(value);
}

HistogramSnapshot RollingHistogram::WindowedSnapshot(uint64_t now_ns) const {
  const uint64_t current = now_ns / window_ns_;
  const uint64_t oldest =
      current >= slots_.size() - 1 ? current - (slots_.size() - 1) : 0;
  HistogramSnapshot merged;
  for (const auto& slot : slots_) {
    const uint64_t e = slot->epoch.load(std::memory_order_acquire);
    if (e == kNeverUsed || e < oldest || e > current) {
      continue;  // expired, future (racing clock), or never used
    }
    merged.Merge(slot->hist.Snapshot());
  }
  return merged;
}

RollingCounter::RollingCounter(size_t num_windows, uint64_t window_ns)
    : window_ns_(window_ns == 0 ? 1 : window_ns) {
  if (num_windows == 0) {
    num_windows = 1;
  }
  slots_.reserve(num_windows);
  for (size_t i = 0; i < num_windows; ++i) {
    slots_.push_back(std::make_unique<Slot>());
  }
}

void RollingCounter::Add(uint64_t delta, uint64_t now_ns) {
  const uint64_t w = now_ns / window_ns_;
  Slot* slot = slots_[w % slots_.size()].get();
  uint64_t e = slot->epoch.load(std::memory_order_acquire);
  for (;;) {
    if (e == w) {
      break;
    }
    if (e != UINT64_MAX && e > w) {
      break;  // racing clock skew: count into the newer window's slot
    }
    if (slot->epoch.compare_exchange_weak(e, w, std::memory_order_acq_rel)) {
      slot->sum.store(0, std::memory_order_relaxed);
      break;
    }
  }
  slot->sum.fetch_add(delta, std::memory_order_relaxed);
}

uint64_t RollingCounter::WindowedSum(uint64_t now_ns) const {
  const uint64_t current = now_ns / window_ns_;
  const uint64_t oldest =
      current >= slots_.size() - 1 ? current - (slots_.size() - 1) : 0;
  uint64_t total = 0;
  for (const auto& slot : slots_) {
    const uint64_t e = slot->epoch.load(std::memory_order_acquire);
    if (e == UINT64_MAX || e < oldest || e > current) {
      continue;
    }
    total += slot->sum.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace loggrep
