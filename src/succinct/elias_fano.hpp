// Elias-Fano encoding of monotone (non-decreasing) integer sequences.
//
// A sequence of m values in [0, u) takes m*ceil(log(u/m)) + 2m + o(m) bits and
// supports Access in O(1) (one sampled Select1) and Rank — the number of
// elements <= x — in O(1) plus an in-bucket search. Elements sharing a high
// part form a bucket; a bucket index built at construction and at Load (a
// PackedArray with one BitWidth(m)-bit entry per high bucket, O(m) entries)
// gives x's bucket bounds in one table read, and the in-bucket search is
// a linear probe for small buckets or a binary search for pile-ups. The
// index lives in memory only: it is rebuilt from the high bits on every
// open, so the serialized bytes and SizeInBits() are those of the plain
// encoding. These are exactly the operations the NeaTS layout needs on the
// S (fragment starts) array (Sec. III-C).

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "succinct/bit_vector.hpp"
#include "succinct/packed_array.hpp"
#include "succinct/storage.hpp"

namespace neats {

/// Immutable Elias-Fano-coded monotone sequence.
class EliasFano {
 public:
  EliasFano() = default;

  /// Builds from a non-decreasing sequence of values.
  /// `universe` must be strictly greater than the last (largest) value;
  /// pass 0 to derive it from the data.
  explicit EliasFano(const std::vector<uint64_t>& values, uint64_t universe = 0)
      : size_(values.size()) {
    if (values.empty()) return;
    if (universe == 0) universe = values.back() + 1;
    NEATS_REQUIRE(universe > values.back(), "universe too small");
    uint64_t m = values.size();
    low_bits_ = (universe / m <= 1) ? 0 : BitWidth(universe / m) - 1;

    std::vector<uint64_t> lows;
    lows.reserve(values.size());
    uint64_t prev = 0;
    for (uint64_t v : values) {
      NEATS_REQUIRE(v >= prev, "sequence must be non-decreasing");
      prev = v;
      lows.push_back(v & LowMask(low_bits_));
    }
    low_ = PackedArray(lows, low_bits_);

    size_t high_len = m + (values.back() >> low_bits_) + 1;
    BitVector high(high_len);
    for (size_t i = 0; i < values.size(); ++i) {
      high.Set((values[i] >> low_bits_) + i);
    }
    high_ = RankSelect(std::move(high));
    BuildBucketIndex();
  }

  /// Value at index `i`, in O(1).
  uint64_t Access(size_t i) const {
    NEATS_DCHECK(i < size_);
    uint64_t hi = high_.Select1(i) - i;
    return (hi << low_bits_) | low_[i];
  }

  /// Number of elements <= x (the S.rank(k) operation of the paper).
  size_t Rank(uint64_t x) const {
    if (size_ == 0) return 0;
    return RankIn(BucketOf(x), x);
  }

  size_t size() const { return size_; }

  /// Fused Rank + Access of the predecessor: returns {i, Access(i)} for the
  /// largest element <= x. The bucket index gives x's bucket in one table
  /// read; when the predecessor lies inside it, its value follows from x's
  /// high part, and otherwise one backward word scan of the high bits
  /// recovers the earlier bucket's high part — no select either way. This
  /// is the fragment-lookup primitive of Algorithm 3 (index AND start in
  /// one pass). Precondition: at least one element <= x (Rank(x) >= 1).
  std::pair<size_t, uint64_t> Predecessor(uint64_t x) const {
    NEATS_DCHECK(size_ > 0);
    const Bucket b = BucketOf(x);
    const size_t r = RankIn(b, x);
    NEATS_DCHECK(r > 0);
    uint64_t hb = b.hb;
    if (r == b.lo) {
      // Nothing in x's bucket is <= x: element r-1 closes an earlier bucket.
      // Bucket hb's bits start at position lo + hb, and an element's high
      // part is the number of zeros before its high bit.
      hb = high_.PrevOne(b.lo + b.hb - 1) - (r - 1);
    }
    return {r - 1, (hb << low_bits_) | low_[r - 1]};
  }

  /// Batched predecessor — the entry point behind Neats::AccessBatch.
  /// Next(x) returns Predecessor(x); queries must be non-decreasing across
  /// calls. Each query costs one O(1) bucket lookup, so the scanner keeps
  /// no cursor: a forward walk between probes would cost one word scan per
  /// skipped element, more than the lookup it replaces.
  class PredecessorScanner {
   public:
    explicit PredecessorScanner(const EliasFano& ef) : ef_(&ef) {}

    /// Predecessor {index, value} of `x`; precondition as Predecessor.
    std::pair<size_t, uint64_t> Next(uint64_t x) const {
      return ef_->Predecessor(x);
    }

   private:
    const EliasFano* ef_;
  };

  /// Payload size in bits.
  size_t SizeInBits() const {
    return low_.SizeInBits() + high_.SizeInBits() + 2 * 64;
  }

  void Serialize(WordWriter& w) const {
    w.Put(size_);
    w.Put(static_cast<uint64_t>(low_bits_));
    low_.Serialize(w);
    high_.Serialize(w);
  }

  static EliasFano Load(WordReader& r) {
    EliasFano ef;
    ef.size_ = r.Get();
    ef.low_bits_ = static_cast<int>(r.Get());
    // The builder caps low_bits_ at 63 (BitWidth(u/m) - 1); 64 would make
    // every query shift by the full word width — UB.
    NEATS_REQUIRE(ef.low_bits_ >= 0 && ef.low_bits_ <= 63,
                  "corrupt NeaTS blob");
    ef.low_ = PackedArray::Load(r);
    ef.high_ = RankSelect::Load(r);
    NEATS_REQUIRE(ef.low_.size() == ef.size_ && ef.high_.ones() == ef.size_,
                  "corrupt NeaTS blob");
    // The bucket index holds one entry per high zero. A builder writes at
    // most 2*size+1 of them and always ends the high bits with one (it
    // closes the last bucket); demanding both keeps a forged blob from
    // sizing the index far beyond the blob itself.
    const size_t zeros = ef.high_.size() - ef.size_;
    NEATS_REQUIRE(zeros <= 2 * ef.size_ + 1 &&
                      (ef.size_ == 0 || !ef.high_.Get(ef.high_.size() - 1)),
                  "corrupt NeaTS blob");
    ef.BuildBucketIndex();
    return ef;
  }

 private:
  /// Bucket hb: the elements whose high part is hb, as the index range
  /// [lo, hi). A high part past the last bucket clamps hb to the bucket
  /// count, leaving the empty range at size_ whose bits would start at the
  /// end of the high bitvector.
  struct Bucket {
    size_t lo, hi;
    uint64_t hb;
  };

  /// One read of the bucket index. Precondition: size_ > 0.
  Bucket BucketOf(uint64_t x) const {
    const uint64_t hb = x >> low_bits_;
    const size_t buckets = first_.size() - 1;
    if (hb >= buckets) return {size_, size_, buckets};
    return {first_[hb], first_[hb + 1], hb};
  }

  /// Fills first_: first_[h] is the index of the first element whose high
  /// part is >= h, for h in [0, zeros]. Zero k of the high bits closes
  /// bucket k, so first_[k + 1] is the number of ones before it. One pass
  /// over the bits, O(size_) by the Load bound on the zero count.
  void BuildBucketIndex() {
    std::vector<uint64_t> first;
    first.reserve(high_.size() - size_ + 1);
    first.push_back(0);
    for (size_t pos = 0; pos < high_.size(); ++pos) {
      if (!high_.Get(pos)) first.push_back(pos - (first.size() - 1));
    }
    first_ = PackedArray(first, BitWidth(size_));
  }

  /// Rank of x given x's bucket: b.lo plus the number of the bucket's
  /// elements — all sharing x's high part — whose low part is <= x's. The
  /// lows inside a bucket are non-decreasing: probe linearly when the bucket
  /// is small, binary-search single-bucket pile-ups.
  size_t RankIn(Bucket b, uint64_t x) const {
    if (low_bits_ == 0) return b.hi;  // every element equals x's high part
    const uint64_t xl = x & LowMask(low_bits_);
    size_t lo = b.lo, hi = b.hi;
    if (hi - lo <= 16) {
      while (lo < hi && low_[lo] <= xl) ++lo;
      return lo;
    }
    while (lo < hi) {
      size_t mid = lo + (hi - lo) / 2;
      if (low_[mid] <= xl) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  size_t size_ = 0;
  int low_bits_ = 0;
  PackedArray low_;
  RankSelect high_;
  PackedArray first_;  // bucket index, rebuilt at load; never serialized
};

}  // namespace neats
