// A log-linear latency histogram — the percentile primitive of the
// observability layer (src/obs/metrics.hpp), also used by perfbench.
//
// HDR-style bucketing: values below 2^kSubBits land in exact unit buckets;
// above that, each power-of-two octave is split into 2^kSubBits sub-buckets,
// so the relative quantization error is bounded by 2^-kSubBits (~3% at the
// default) across the whole nanosecond range. Recording is one shift + one
// increment — cheap enough to sit inside a per-op timing loop — and
// instances merge bucket-wise: the metrics registry keeps per-thread
// atomic bucket shards and merges them into a plain histogram at snapshot
// time (AccumulateBucket / AccumulateSummary below are that merge's entry
// points).
//
// Empty-histogram contract: every percentile of an empty histogram is 0 —
// never the clamp max, never a bucket representative. Snapshots taken
// before any op ran must read as "no data", not as a latency.

#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"

namespace neats::obs {

class LatencyHistogram {
 public:
  /// Sub-bucket resolution: 2^5 = 32 sub-buckets per octave, ~3% relative
  /// error on every reported percentile.
  static constexpr int kSubBits = 5;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  // Octave 0 holds [0, kSub) exactly; every higher msb position gets its
  // own octave, so any uint64 value is representable.
  static constexpr size_t kNumBuckets = (64 - kSubBits + 1) * kSub;

  LatencyHistogram() : buckets_(kNumBuckets, 0) {}

  /// Records one sample (nanoseconds by convention, but unit-agnostic).
  void Record(uint64_t v) {
    ++buckets_[BucketOf(v)];
    ++count_;
    sum_ += v;
    max_ = std::max(max_, v);
  }

  /// Bucket-wise merge; the result reports over both sample sets.
  void Merge(const LatencyHistogram& o) {
    for (size_t b = 0; b < kNumBuckets; ++b) buckets_[b] += o.buckets_[b];
    count_ += o.count_;
    sum_ += o.sum_;
    max_ = std::max(max_, o.max_);
  }

  /// Raw-merge entry points for the sharded recorder (metrics.hpp): fold in
  /// `n` samples already attributed to bucket `b`, then the shard's sum/max
  /// once. Equivalent to Merge() against the shard's logical histogram.
  void AccumulateBucket(size_t b, uint64_t n) {
    NEATS_DCHECK(b < kNumBuckets);
    buckets_[b] += n;
    count_ += n;
  }
  void AccumulateSummary(uint64_t sum, uint64_t max) {
    sum_ += sum;
    max_ = std::max(max_, max);
  }

  uint64_t count() const { return count_; }
  uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_;
  }

  /// The q-quantile (q in [0, 1]) as a representative value of the bucket
  /// holding the sample of that rank: exact below 2^kSubBits, bucket
  /// midpoint (±~3%) above, clamped to the exact max so the tail quantiles
  /// never report past an observed value. Every quantile of an empty
  /// histogram is 0 (see the header comment; obs_test pins this).
  uint64_t Percentile(double q) const {
    if (count_ == 0) return 0;
    q = std::clamp(q, 0.0, 1.0);
    // Rank of the requested sample, 1-based; q = 0.5 of 10 samples -> 5th.
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count_));
    rank = std::clamp<uint64_t>(rank, 1, count_);
    uint64_t seen = 0;
    for (size_t b = 0; b < kNumBuckets; ++b) {
      seen += buckets_[b];
      if (seen >= rank) return std::min(Representative(b), max_);
    }
    return max_;  // unreachable with count_ > 0
  }

  uint64_t p50() const { return Percentile(0.50); }
  uint64_t p99() const { return Percentile(0.99); }
  uint64_t p999() const { return Percentile(0.999); }

  /// The bucket a value lands in — public so the per-thread metric shards
  /// can bucket at record time and merge bucket-wise at snapshot time.
  static size_t BucketOf(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    const int msb = 63 - std::countl_zero(v);
    const int octave = msb - kSubBits + 1;  // >= 1 here
    const uint64_t sub = (v >> (msb - kSubBits)) & (kSub - 1);
    return static_cast<size_t>(octave) * kSub + static_cast<size_t>(sub);
  }

 private:
  /// Midpoint of bucket b's value range (its exact value in octave 0).
  static uint64_t Representative(size_t b) {
    const uint64_t octave = b >> kSubBits;
    const uint64_t sub = b & (kSub - 1);
    if (octave == 0) return sub;
    const uint64_t width = uint64_t{1} << (octave - 1);
    const uint64_t low = (kSub + sub) << (octave - 1);
    return low + width / 2;
  }

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t max_ = 0;
};

}  // namespace neats::obs
