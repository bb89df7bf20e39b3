// NeatsLossyExact — the exact-path adapter over NeaTS-L (codec id 1).
//
// NeaTS-L alone cannot serve a lossless store shard: it guarantees only
// |decoded - original| <= eps + 1. This codec makes it exact the same way
// NeaTS itself treats its learned functions: keep the lossy approximation as
// the predictor and bit-pack the per-value residuals at one fixed width next
// to it. Random access stays O(1) on top of the lossy predecessor lookup (one
// extra ReadBits), and the representation degrades gracefully — a series the
// partitioner approximates tightly stores near-zero-width residuals.
//
// Wire format (flat word grammar of docs/FORMAT.md): magic "NEATSLX",
// version, n, residual base, residual width, the packed residual words, then
// the embedded NeaTS-L v3 blob (length-prefixed, word-aligned). View opens
// the residuals and the nested lossy blob zero-copy.

#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "core/codec_id.hpp"
#include "core/neats_lossy.hpp"
#include "core/series_codec.hpp"
#include "succinct/bit_stream.hpp"
#include "succinct/storage.hpp"

namespace neats {

/// Exact SeriesCodec built from a NeaTS-L approximation plus packed
/// fixed-width residual corrections.
class NeatsLossyExact : public ScalarCodecBase<NeatsLossyExact> {
 public:
  NeatsLossyExact() = default;

  static constexpr bool kZeroCopyView = true;

  /// Compresses `values` exactly. The error bound handed to the lossy
  /// partitioner comes from options.partition.epsilons (median) or, when
  /// unset, the median of the data-derived default E set — a middle ground
  /// between long fragments (big eps, wide residuals) and many fragments
  /// (small eps, narrow residuals).
  static NeatsLossyExact Compress(std::span<const int64_t> values,
                                  const NeatsOptions& options = {}) {
    std::vector<int64_t> eps = options.partition.epsilons;
    if (eps.empty()) eps = DefaultEpsilons(values);
    NeatsLossyExact out;
    out.lossy_ =
        NeatsLossy::Compress(values, eps[eps.size() / 2], options.partition);
    out.n_ = values.size();
    if (values.empty()) return out;
    std::vector<int64_t> approx;
    out.lossy_.Decompress(&approx);
    int64_t lo = INT64_MAX, hi = INT64_MIN;
    for (size_t k = 0; k < values.size(); ++k) {
      int64_t r = values[k] - approx[k];
      lo = std::min(lo, r);
      hi = std::max(hi, r);
    }
    out.base_ = lo;
    out.width_ = BitWidth(static_cast<uint64_t>(hi - lo));
    BitWriter residuals;
    for (size_t k = 0; k < values.size(); ++k) {
      residuals.Append(static_cast<uint64_t>(values[k] - approx[k] - lo),
                       out.width_);
    }
    out.residuals_ = Storage<uint64_t>(residuals.TakeWords());
    return out;
  }

  uint64_t size() const { return n_; }
  size_t num_fragments() const { return lossy_.num_fragments(); }

  /// The exact value at k: the lossy prediction plus its packed residual.
  /// The sum runs in unsigned arithmetic: it cannot overflow for blobs this
  /// encoder wrote, but a forged blob can pick any base — wraparound is
  /// defined, signed overflow would be UB.
  int64_t Access(uint64_t k) const {
    NEATS_DCHECK(k < n_);
    uint64_t pred = static_cast<uint64_t>(lossy_.Access(k)) +
                    static_cast<uint64_t>(base_);
    if (width_ == 0) return static_cast<int64_t>(pred);
    uint64_t o = k * static_cast<uint64_t>(width_);
    return static_cast<int64_t>(pred + ReadBits(residuals_.data(), o, width_));
  }

  /// Exact serialized size (8 * Serialize output bytes): the five header
  /// words, the length-prefixed residual and blob sections, and the nested
  /// lossy blob (whose SizeInBits is its serialized size by contract).
  size_t SizeInBits() const {
    return (5 + 1 + residuals_.size() + 1) * 64 + lossy_.SizeInBits();
  }

  void Serialize(std::vector<uint8_t>* out) const {
    out->clear();
    WordWriter w(out);
    w.Put(kMagic);
    w.Put(kFormatVersion);
    w.Put(n_);
    w.Put(static_cast<uint64_t>(base_));
    w.Put(static_cast<uint64_t>(width_));
    w.PutArray(residuals_);
    std::vector<uint8_t> blob;
    lossy_.Serialize(&blob);
    w.Put(blob.size());
    w.PutCells(blob.data(), blob.size());
  }

  static NeatsLossyExact Deserialize(std::span<const uint8_t> bytes) {
    return Load(bytes, /*borrow=*/false);
  }

  /// Opens a blob zero-copy (8-byte-aligned `bytes` outliving the result):
  /// the residual words and the nested NeaTS-L payload are both served as
  /// spans into `bytes`.
  static NeatsLossyExact View(std::span<const uint8_t> bytes) {
    return Load(bytes, /*borrow=*/true);
  }

 private:
  static NeatsLossyExact Load(std::span<const uint8_t> bytes, bool borrow) {
    WordReader r(bytes, borrow);
    NEATS_REQUIRE(r.Get() == kMagic, "not a NeaTS-LX blob");
    NEATS_REQUIRE(r.Get() == kFormatVersion,
                  "unsupported NeaTS-LX format version");
    NeatsLossyExact out;
    out.n_ = r.Get();
    out.base_ = static_cast<int64_t>(r.Get());
    uint64_t width = r.Get();
    NEATS_REQUIRE(out.n_ <= (uint64_t{1} << 56) && width <= 64,
                  "corrupt NeaTS-LX blob");
    out.width_ = static_cast<int>(width);
    out.residuals_ = r.GetArray<uint64_t>();
    NEATS_REQUIRE(out.residuals_.size() == CeilDiv(out.n_ * width, 64),
                  "corrupt NeaTS-LX blob");
    Storage<uint8_t> blob = r.GetCells<uint8_t>(r.Get());
    NEATS_REQUIRE(r.position() == bytes.size(), "corrupt NeaTS-LX blob");
    out.lossy_ = borrow ? NeatsLossy::View(blob.span())
                        : NeatsLossy::Deserialize(blob.span());
    NEATS_REQUIRE(out.lossy_.size() == out.n_, "corrupt NeaTS-LX blob");
    // Base/width consistency cannot be cross-checked against the lossy blob
    // (the residuals are exactly the information it dropped); the length
    // checks above bound every ReadBits inside the payload.
    return out;
  }

  static constexpr uint64_t kMagic = MagicWord("NEATSLX\0");
  static constexpr uint64_t kFormatVersion = 2;

  uint64_t n_ = 0;
  int64_t base_ = 0;
  int width_ = 0;
  NeatsLossy lossy_;
  Storage<uint64_t> residuals_;  // n_ fixed-width biased residuals
};

static_assert(SeriesCodec<NeatsLossyExact>);

}  // namespace neats
