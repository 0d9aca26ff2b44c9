// Fixed log2-bucketed histograms for latency / size distributions.
//
// Record() is lock-free (a handful of relaxed atomic adds), so histograms
// can sit on hot paths shared by many threads, exactly like Counter. Values
// are unitless uint64s; by convention the pipeline records nanoseconds
// (metric names carry a `_ns` suffix) or bytes (`_bytes`).
//
// Buckets: bucket 0 holds the value 0; bucket b (1..62) holds
// [2^(b-1), 2^b); bucket 63 is the overflow bucket [2^62, inf). Percentile
// estimates interpolate linearly inside a bucket and are clamped to the
// observed maximum, so the overflow bucket cannot report a value that was
// never seen.
#ifndef SRC_COMMON_HISTOGRAM_H_
#define SRC_COMMON_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstdint>

namespace loggrep {

struct HistogramSnapshot {
  static constexpr size_t kNumBuckets = 64;

  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  std::array<uint64_t, kNumBuckets> buckets{};

  // Estimated value at quantile `q` in [0, 100]. Returns 0 on an empty
  // snapshot; clamped to `max`.
  uint64_t Percentile(double q) const;

  uint64_t p50() const { return Percentile(50); }
  uint64_t p90() const { return Percentile(90); }
  uint64_t p95() const { return Percentile(95); }
  uint64_t p99() const { return Percentile(99); }
  uint64_t p999() const { return Percentile(99.9); }
  double mean() const { return count == 0 ? 0.0 : static_cast<double>(sum) / count; }

  // Accumulates `other` into this snapshot (bucket-wise sum, max of max).
  // The server's telemetry windows merge through this.
  void Merge(const HistogramSnapshot& other);
};

class Histogram {
 public:
  static constexpr size_t kNumBuckets = HistogramSnapshot::kNumBuckets;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  // Lock-free; safe from any thread.
  void Record(uint64_t value);

  // Point-in-time copy (relaxed loads; buckets may lag one another by a few
  // in-flight records — acceptable for monitoring).
  HistogramSnapshot Snapshot() const;

  // Zeroes every cell (used by MetricsRegistry::Reset in tests).
  void Reset();

  // Bucket index holding `value` (see the bucket layout above).
  static size_t BucketFor(uint64_t value);
  // Smallest value of bucket `b` (0 for b == 0).
  static uint64_t BucketLowerBound(size_t b);
  // Largest value of bucket `b` (UINT64_MAX for the overflow bucket).
  static uint64_t BucketUpperBound(size_t b);

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

}  // namespace loggrep

#endif  // SRC_COMMON_HISTOGRAM_H_
