// LeCo-style learned compression (after Liu, Zeng & Zhang, SIGMOD 2024).
//
// LeCo fits a regression model per fragment and stores fixed-width residuals;
// fragments come from a *heuristic* partitioner (greedy split on an estimated
// compression-ratio gain, then merge of neighbouring fragments), in contrast
// to NeaTS's error-bounded optimal fits and shortest-path partitioning.
//
// This implementation follows that recipe: least-squares linear fit per
// fragment, residuals bit-packed with a per-fragment frame of reference,
// greedy growth in steps while the marginal cost decreases, then a merge
// pass. Random access reads one fragment header and one residual.
//
// The model is evaluated with NeaTS's pinned linear kind (Fma(slope, x,
// intercept), floored and clamped to ±2^61; src/functions/kinds.hpp) at
// x = k - start, so blobs decode identically in every build, and range
// decode runs on the same decode lanes as NeaTS.

#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "functions/decode_lanes.hpp"
#include "succinct/bit_stream.hpp"
#include "succinct/elias_fano.hpp"
#include "succinct/packed_array.hpp"
#include "succinct/storage.hpp"

namespace neats {

/// LeCo-style compressed sequence of signed 64-bit integers.
class Leco {
 public:
  Leco() = default;

  static Leco Compress(std::span<const int64_t> values) {
    Leco out;
    out.n_ = values.size();
    if (values.empty()) return out;

    // --- Phase 1: greedy growth in steps of kStep values. ---
    std::vector<uint64_t> boundaries;  // fragment starts
    uint64_t start = 0;
    while (start < values.size()) {
      boundaries.push_back(start);
      uint64_t end = std::min<uint64_t>(start + kStep, values.size());
      double best_bpv = CostOf(values, start, end) /
                        static_cast<double>(end - start);
      while (end < values.size() && end - start < kMaxFragment) {
        uint64_t trial = std::min<uint64_t>(end + kStep, values.size());
        double bpv = CostOf(values, start, trial) /
                     static_cast<double>(trial - start);
        if (bpv > best_bpv * 1.02) break;  // marginal cost grows: split here
        best_bpv = std::min(best_bpv, bpv);
        end = trial;
      }
      start = end;
    }

    // --- Phase 2: merge neighbouring fragments when it pays off. ---
    bool merged = true;
    int passes = 0;
    while (merged && passes++ < 4) {
      merged = false;
      std::vector<uint64_t> next;
      size_t i = 0;
      while (i < boundaries.size()) {
        uint64_t a = boundaries[i];
        uint64_t a_end = i + 1 < boundaries.size() ? boundaries[i + 1]
                                                   : values.size();
        if (i + 1 < boundaries.size()) {
          uint64_t b_end = i + 2 < boundaries.size() ? boundaries[i + 2]
                                                     : values.size();
          double separate = CostOf(values, a, a_end) + CostOf(values, a_end, b_end);
          double joined = CostOf(values, a, b_end);
          if (joined <= separate) {
            next.push_back(a);
            i += 2;
            merged = true;
            continue;
          }
        }
        next.push_back(a);
        ++i;
      }
      boundaries = std::move(next);
    }

    out.Build(values, boundaries);
    return out;
  }

  size_t size() const { return n_; }
  size_t num_fragments() const { return slopes_.size(); }

  /// Random access: Elias-Fano rank to find the fragment, then one residual.
  int64_t Access(size_t i) const {
    size_t f = starts_.Rank(i) - 1;
    uint64_t start = starts_.Access(f);
    int bits = static_cast<int>(widths_[f]);
    uint64_t o = offsets_.Access(f) +
                 (i - start) * static_cast<uint64_t>(bits);
    uint64_t r = ReadBits(residual_words_.data(), o, bits);
    const double model[2] = {slopes_[f], intercepts_[f]};
    const int64_t pred = PredictFloor(FunctionKind::kLinear, model,
                                      static_cast<int64_t>(i - start));
    // Unsigned adds, as in the decode lanes: a forged base or residual word
    // wraps (defined) instead of overflowing a signed add (UB).
    return static_cast<int64_t>(static_cast<uint64_t>(pred) +
                                static_cast<uint64_t>(bases_[f]) + r);
  }

  void Decompress(std::vector<int64_t>* out) const {
    out->resize(n_);
    if (n_ > 0) DecompressRange(0, n_, out->data());
  }

  /// Decompresses values[from, from + len) into out: one rank to find the
  /// first fragment, then a fragment-at-a-time scan (no per-value rank).
  void DecompressRange(size_t from, size_t len, int64_t* out) const {
    if (len == 0) return;
    NEATS_DCHECK(from + len <= n_);
    const size_t m = slopes_.size();
    size_t f = starts_.Rank(from) - 1;
    size_t produced = 0;
    while (produced < len) {
      uint64_t start = starts_.Access(f);
      uint64_t end = f + 1 < m ? starts_.Access(f + 1) : n_;
      uint64_t lo = std::max<uint64_t>(from + produced, start);
      uint64_t hi = std::min<uint64_t>(from + len, end);
      const double model[2] = {slopes_[f], intercepts_[f]};
      FragmentRun run;
      run.kind = FunctionKind::kLinear;
      run.params = model;
      run.x0 = static_cast<int64_t>(lo - start);
      run.count = hi - lo;
      run.words = residual_words_.data();
      run.num_words = residual_words_.size();
      run.bits = static_cast<int>(widths_[f]);
      run.bit_offset =
          offsets_.Access(f) + (lo - start) * static_cast<uint64_t>(run.bits);
      run.add = static_cast<uint64_t>(bases_[f]);
      run.out = out + produced;
      DecodeFragmentRun(run);
      produced += hi - lo;
      ++f;
    }
  }

  size_t SizeInBits() const {
    return 2 * 64 + starts_.SizeInBits() + widths_.SizeInBits() +
           offsets_.SizeInBits() + residual_words_.size() * 64 +
           slopes_.size() * (64 + 64 + 64) + 64;
  }

  /// Serializes in the flat word grammar of format v2/v3 (docs/FORMAT.md):
  /// magic "NEATSLC", version, n, m, the succinct sections, then the
  /// residual words and per-fragment model arrays. Every section is word
  /// aligned, so View opens the blob zero-copy.
  void Serialize(std::vector<uint8_t>* out) const {
    out->clear();
    WordWriter w(out);
    w.Put(kMagic);
    w.Put(kFormatVersion);
    w.Put(n_);
    w.Put(slopes_.size());
    if (!slopes_.empty()) {
      starts_.Serialize(w);
      widths_.Serialize(w);
      offsets_.Serialize(w);
    }
    w.PutArray(residual_words_);
    w.PutArray(slopes_);
    w.PutArray(intercepts_);
    w.PutArray(bases_);
  }

  /// Rebuilds from Serialize output into owned storage.
  static Leco Deserialize(std::span<const uint8_t> bytes) {
    return Load(bytes, /*borrow=*/false);
  }

  /// Opens a blob zero-copy; `bytes` must be 8-byte aligned and outlive the
  /// returned object.
  static Leco View(std::span<const uint8_t> bytes) {
    return Load(bytes, /*borrow=*/true);
  }

 private:
  /// Shared body of Deserialize and View, hardened like the NeaTS loaders:
  /// the fragment geometry is cross-checked (contiguous starts, offset
  /// deltas equal to length*width, residual words backing the final offset)
  /// so Access can trust the packed arrays without per-query bounds checks.
  static Leco Load(std::span<const uint8_t> bytes, bool borrow) {
    WordReader r(bytes, borrow);
    NEATS_REQUIRE(r.Get() == kMagic, "not a LeCo blob");
    NEATS_REQUIRE(r.Get() == kFormatVersion,
                  "unsupported LeCo format version");
    Leco out;
    out.n_ = r.Get();
    size_t m = r.Get();
    NEATS_REQUIRE(out.n_ <= (uint64_t{1} << 56) && m <= out.n_ &&
                      (m > 0 || out.n_ == 0),
                  "corrupt LeCo blob");
    uint64_t total_bits = 0;
    if (m > 0) {
      out.starts_ = EliasFano::Load(r);
      out.widths_ = PackedArray::Load(r);
      out.offsets_ = EliasFano::Load(r);
      NEATS_REQUIRE(out.starts_.size() == m && out.starts_.Access(0) == 0 &&
                        out.starts_.Access(m - 1) < out.n_ &&
                        out.widths_.size() == m &&
                        out.offsets_.size() == m + 1 &&
                        out.offsets_.Access(0) == 0,
                    "corrupt LeCo blob");
      uint64_t prev_start = 0, prev_off = 0;
      for (size_t f = 1; f <= m; ++f) {
        uint64_t start = f < m ? out.starts_.Access(f) : out.n_;
        uint64_t off = out.offsets_.Access(f);
        uint64_t width = out.widths_[f - 1];
        NEATS_REQUIRE(start > prev_start && off >= prev_off && width <= 64 &&
                          off - prev_off == (start - prev_start) * width,
                      "corrupt LeCo blob");
        prev_start = start;
        prev_off = off;
      }
      total_bits = out.offsets_.Access(m);
    }
    out.residual_words_ = r.GetArray<uint64_t>();
    NEATS_REQUIRE(out.residual_words_.size() == CeilDiv(total_bits, 64),
                  "corrupt LeCo blob");
    out.slopes_ = r.GetArray<double>();
    out.intercepts_ = r.GetArray<double>();
    out.bases_ = r.GetArray<int64_t>();
    NEATS_REQUIRE(out.slopes_.size() == m && out.intercepts_.size() == m &&
                      out.bases_.size() == m,
                  "corrupt LeCo blob");
    return out;
  }
  static constexpr uint64_t kStep = 256;
  static constexpr uint64_t kMaxFragment = 8192;  // caps the O(len^2) growth

  struct Fit {
    double slope, intercept;
    int64_t min_r, max_r;
  };

  /// Least-squares fit plus residual range on [start, end).
  static Fit FitRangeLs(std::span<const int64_t> values, uint64_t start,
                        uint64_t end) {
    const uint64_t len = end - start;
    // Closed-form least squares over x = 0..len-1.
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    for (uint64_t k = start; k < end; ++k) {
      double x = static_cast<double>(k - start);
      double y = static_cast<double>(values[k]);
      sx += x;
      sy += y;
      sxx += x * x;
      sxy += x * y;
    }
    double nd = static_cast<double>(len);
    double denom = nd * sxx - sx * sx;
    Fit fit;
    fit.slope = denom == 0 ? 0 : (nd * sxy - sx * sy) / denom;
    fit.intercept = (sy - fit.slope * sx) / nd;
    fit.min_r = INT64_MAX;
    fit.max_r = INT64_MIN;
    ForEachResidual(values, start, end, fit, [&](int64_t r) {
      fit.min_r = std::min(fit.min_r, r);
      fit.max_r = std::max(fit.max_r, r);
    });
    return fit;
  }

  /// Calls f(values[k] - prediction) for k in [start, end) in order, predicting
  /// in chunks on the decode lanes with the pinned linear evaluation.
  template <typename F>
  static void ForEachResidual(std::span<const int64_t> values, uint64_t start,
                              uint64_t end, const Fit& fit, F&& f) {
    constexpr uint64_t kChunk = 256;
    int64_t pred[kChunk];
    const double model[2] = {fit.slope, fit.intercept};
    for (uint64_t k = start; k < end; k += kChunk) {
      const uint64_t n = std::min(kChunk, end - k);
      PredictFloorRun(FunctionKind::kLinear, model,
                      static_cast<int64_t>(k - start), n, pred);
      for (uint64_t j = 0; j < n; ++j) f(values[k + j] - pred[j]);
    }
  }

  /// Estimated bit cost of one fragment (header + packed residuals).
  static double CostOf(std::span<const int64_t> values, uint64_t start,
                       uint64_t end) {
    Fit fit = FitRangeLs(values, start, end);
    int bits = BitWidth(static_cast<uint64_t>(fit.max_r - fit.min_r));
    return kHeaderBitsPerFragment +
           static_cast<double>(end - start) * static_cast<double>(bits);
  }

  static constexpr double kHeaderBitsPerFragment = 3 * 64 + 48;

  void Build(std::span<const int64_t> values,
             const std::vector<uint64_t>& boundaries) {
    size_t m = boundaries.size();
    std::vector<uint64_t> starts(boundaries), widths(m), offsets(m + 1);
    BitWriter residuals;
    std::vector<double> slopes(m), intercepts(m);
    std::vector<int64_t> bases(m);
    for (size_t f = 0; f < m; ++f) {
      uint64_t start = boundaries[f];
      uint64_t end = f + 1 < m ? boundaries[f + 1] : values.size();
      Fit fit = FitRangeLs(values, start, end);
      int bits = BitWidth(static_cast<uint64_t>(fit.max_r - fit.min_r));
      slopes[f] = fit.slope;
      intercepts[f] = fit.intercept;
      bases[f] = fit.min_r;
      widths[f] = static_cast<uint64_t>(bits);
      offsets[f] = residuals.bit_size();
      ForEachResidual(values, start, end, fit, [&](int64_t r) {
        residuals.Append(static_cast<uint64_t>(r - fit.min_r), bits);
      });
    }
    offsets[m] = residuals.bit_size();
    starts_ = EliasFano(starts, n_);
    widths_ = PackedArray::FromValues(widths);
    offsets_ = EliasFano(offsets, offsets[m] + 1);
    residual_words_ = Storage<uint64_t>(residuals.TakeWords());
    slopes_ = Storage<double>(std::move(slopes));
    intercepts_ = Storage<double>(std::move(intercepts));
    bases_ = Storage<int64_t>(std::move(bases));
  }

  // Little-endian "NEATSLC\0" — ASCII-readable at the head of the blob,
  // like the other magics of the format family.
  static constexpr uint64_t kMagic = 0x00434C535441454EULL;
  static constexpr uint64_t kFormatVersion = 2;

  size_t n_ = 0;
  EliasFano starts_;
  PackedArray widths_;
  EliasFano offsets_;
  // Storage-backed payload arrays: owned after Compress/Deserialize, spans
  // into the caller's buffer after View (same policy as the NeaTS core).
  Storage<uint64_t> residual_words_;
  Storage<double> slopes_, intercepts_;
  Storage<int64_t> bases_;
};

}  // namespace neats
