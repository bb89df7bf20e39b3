// NeaTS-L: the lossy variant of NeaTS (paper, Sec. III-B, "Partitioning for
// lossy compression", evaluated in Sec. IV-B).
//
// A single error bound eps is used, corrections are dropped, and the
// partitioner minimises the storage of the function parameters alone. The
// result is a piecewise nonlinear eps-approximation with a maximum-error
// guarantee: |decoded[k] - original[k]| <= eps + 1 for every k (the +1
// accounts for the floor applied to predictions; the un-floored function is
// within eps).

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "core/partitioner.hpp"
#include "functions/approximator.hpp"
#include "functions/decode_lanes.hpp"
#include "functions/kinds.hpp"
#include "succinct/elias_fano.hpp"
#include "succinct/packed_array.hpp"
#include "succinct/storage.hpp"
#include "succinct/wavelet_tree.hpp"

namespace neats {

/// Lossy compressed representation: fragments + functions, no corrections.
class NeatsLossy {
 public:
  NeatsLossy() = default;

  /// Compresses `values` under the error bound `eps` (>= 0).
  static NeatsLossy Compress(std::span<const int64_t> values, int64_t eps,
                             const PartitionOptions& options = {}) {
    NeatsLossy out;
    out.n_ = values.size();
    out.eps_ = eps;
    if (values.empty()) return out;

    int64_t lo = values[0];
    for (int64_t v : values) {
      NEATS_REQUIRE(v >= -kMaxAbsValue && v <= kMaxAbsValue,
                    "value outside ±2^61");
      lo = std::min(lo, v);
    }
    if (lo < 1) out.shift_ = 1 - lo;

    std::vector<int64_t> shifted;
    std::span<const int64_t> view = values;
    if (out.shift_ != 0) {
      shifted.reserve(values.size());
      for (int64_t v : values) shifted.push_back(v + out.shift_);
      view = shifted;
    }

    std::vector<Fragment> fragments = PartitionLossy(view, eps, options);
    out.Build(fragments);
    return out;
  }

  uint64_t size() const { return n_; }
  size_t num_fragments() const { return m_; }
  int64_t epsilon() const { return eps_; }

  /// The approximated value at index k: one Elias-Fano predecessor lookup on
  /// the starts, one wavelet-tree access-and-rank for the fragment's kind
  /// and its parameters' position among that kind's, and its displacement.
  int64_t Access(uint64_t k) const {
    NEATS_DCHECK(k < n_);
    auto [i, start] = starts_.Predecessor(k);
    auto [dense, occ] = kinds_wt_.AccessAndRank(i);
    FunctionKind kind = kind_table_[dense];
    const double* params =
        params_[dense].data() + occ * static_cast<size_t>(NumParams(kind));
    uint64_t origin = start - displacement_[i];
    return PredictFloor(kind, params, static_cast<int64_t>(k - origin) + 1) -
           shift_;
  }

  /// Reconstructs the whole approximated series. Fragments are visited in
  /// order, so each kind's parameters are consumed in order too: one running
  /// offset per kind replaces the rank Access pays per fragment.
  void Decompress(std::vector<int64_t>* out) const {
    out->resize(n_);
    std::vector<size_t> param_offset(kind_table_.size(), 0);
    uint64_t start = 0;
    for (size_t i = 0; i < m_; ++i) {
      const uint64_t end = i + 1 < m_ ? starts_.Access(i + 1) : n_;
      const uint32_t dense = kinds_wt_.Access(i);
      FragmentRun run;
      run.kind = kind_table_[dense];
      run.params = params_[dense].data() + param_offset[dense];
      param_offset[dense] += static_cast<size_t>(NumParams(run.kind));
      run.x0 = static_cast<int64_t>(displacement_[i]) + 1;
      run.count = end - start;
      run.add = 0 - static_cast<uint64_t>(shift_);
      run.out = out->data() + start;
      DecodeFragmentRun(run);
      start = end;
    }
  }

  /// Size of the lossy representation in bits — exactly the v3 serialized
  /// size (8 * Serialize output bytes).
  size_t SizeInBits() const {
    size_t bits = (7 + kind_table_.size()) * 64 + 64;  // header + params count
    for (const auto& p : params_) bits += 64 + p.size() * 64;
    if (m_ == 0) return bits;
    return bits + starts_.SizeInBits() + displacement_.SizeInBits() +
           kinds_wt_.SizeInBits();
  }

  /// Format v3 (flat, word-aligned; same section grammar as Neats). Unlike
  /// the lossless format it has no interleaved directory: the lossy layout
  /// competes with PLA byte-for-byte on parameter storage alone, so queries
  /// read the kinds K and displacements D directly. v3 is v2 with the
  /// pinned model evaluation and without the select-0 samples (see
  /// docs/FORMAT.md).
  void Serialize(std::vector<uint8_t>* out) const {
    out->clear();
    WordWriter w(out);
    w.Put(kMagicV2);
    w.Put(kFormatVersion);
    w.Put(n_);
    w.Put(static_cast<uint64_t>(m_));
    w.Put(static_cast<uint64_t>(eps_));
    w.Put(static_cast<uint64_t>(shift_));
    w.Put(kind_table_.size());
    for (FunctionKind kind : kind_table_) w.Put(static_cast<uint64_t>(kind));
    if (m_ > 0) {
      starts_.Serialize(w);
      displacement_.Serialize(w);
      kinds_wt_.Serialize(w);
    }
    w.Put(params_.size());
    for (const auto& p : params_) w.PutArray(p);
  }

  /// Rebuilds from Serialize output into owned storage.
  static NeatsLossy Deserialize(std::span<const uint8_t> bytes) {
    return Load(bytes, /*borrow=*/false);
  }

  /// Opens a blob zero-copy; `bytes` must be 8-byte aligned and outlive the
  /// returned object.
  static NeatsLossy View(std::span<const uint8_t> bytes) {
    return Load(bytes, /*borrow=*/true);
  }

 private:
  static NeatsLossy Load(std::span<const uint8_t> bytes, bool borrow) {
    WordReader r(bytes, borrow);
    NEATS_REQUIRE(r.Get() == kMagicV2, "not a NeaTS-L blob");
    NEATS_REQUIRE(r.Get() == kFormatVersion,
                  "unsupported NeaTS-L format version");
    NeatsLossy out;
    out.n_ = r.Get();
    out.m_ = r.Get();
    NEATS_REQUIRE(out.n_ <= (uint64_t{1} << 56) && (out.m_ > 0) == (out.n_ > 0),
                  "corrupt NeaTS-L blob");
    out.eps_ = static_cast<int64_t>(r.Get());
    out.shift_ = static_cast<int64_t>(r.Get());
    size_t kinds = r.Get();
    NEATS_REQUIRE(kinds <= static_cast<size_t>(kNumFunctionKinds),
                  "corrupt NeaTS-L blob");
    for (size_t i = 0; i < kinds; ++i) {
      const uint64_t kind = r.Get();
      NEATS_REQUIRE(kind < static_cast<uint64_t>(kNumFunctionKinds),
                    "corrupt NeaTS-L blob");
      out.kind_table_.push_back(static_cast<FunctionKind>(kind));
    }
    if (out.m_ > 0) {
      out.starts_ = EliasFano::Load(r);
      out.displacement_ = PackedArray::Load(r);
      out.kinds_wt_ = WaveletTree::Load(r);
      NEATS_REQUIRE(out.starts_.size() == out.m_ &&
                        out.starts_.Access(0) == 0 &&
                        out.starts_.Access(out.m_ - 1) < out.n_ &&
                        out.displacement_.size() == out.m_ &&
                        out.kinds_wt_.size() == out.m_,
                    "corrupt NeaTS-L blob");
    }
    size_t n_params = r.Get();
    NEATS_REQUIRE(n_params == kinds || (out.m_ == 0 && n_params == 0),
                  "corrupt NeaTS-L blob");
    out.params_.reserve(n_params);
    size_t ranked = 0;  // fragments whose kind symbol is in the kind table
    for (size_t i = 0; i < n_params; ++i) {
      out.params_.push_back(r.GetArray<double>());
      const size_t count = out.kinds_wt_.Rank(static_cast<uint32_t>(i), out.m_);
      NEATS_REQUIRE(out.params_[i].size() ==
                        count * static_cast<size_t>(
                                    NumParams(out.kind_table_[i])),
                    "corrupt NeaTS-L blob");
      ranked += count;
    }
    NEATS_REQUIRE(ranked == out.m_, "corrupt NeaTS-L blob");
    // Strictly increasing starts keep every run Decompress writes inside
    // [0, n); the check above keeps every kind symbol inside the table.
    for (uint64_t i = 1, prev = 0; i < out.m_; ++i) {
      const uint64_t start = out.starts_.Access(i);
      NEATS_REQUIRE(start > prev, "corrupt NeaTS-L blob");
      prev = start;
    }
    return out;
  }

  void Build(const std::vector<Fragment>& fragments) {
    m_ = fragments.size();
    std::vector<int> kind_to_dense(kNumFunctionKinds, -1);
    std::vector<uint32_t> kind_symbols(m_);
    std::vector<uint64_t> starts(m_), displacement(m_);
    for (size_t i = 0; i < m_; ++i) {
      const Fragment& frag = fragments[i];
      int raw = static_cast<int>(frag.kind);
      if (kind_to_dense[raw] < 0) {
        kind_to_dense[raw] = static_cast<int>(kind_table_.size());
        kind_table_.push_back(frag.kind);
      }
      kind_symbols[i] = static_cast<uint32_t>(kind_to_dense[raw]);
      starts[i] = frag.start;
      displacement[i] = frag.start - frag.origin;
    }
    std::vector<std::vector<double>> params(kind_table_.size());
    for (size_t i = 0; i < m_; ++i) {
      for (int j = 0; j < NumParams(fragments[i].kind); ++j) {
        params[kind_symbols[i]].push_back(fragments[i].params[j]);
      }
    }
    params_.reserve(params.size());
    for (auto& p : params) params_.emplace_back(std::move(p));
    starts_ = EliasFano(starts, n_);
    kinds_wt_ = WaveletTree(kind_symbols, static_cast<uint32_t>(kind_table_.size()));
    displacement_ = PackedArray::FromValues(displacement);
  }

  // Little-endian "NEATSL2\0" — ASCII-readable at the head of the blob.
  static constexpr uint64_t kMagicV2 = 0x00324C535441454EULL;
  static constexpr uint64_t kFormatVersion = 3;

  uint64_t n_ = 0;
  size_t m_ = 0;
  int64_t eps_ = 0;
  int64_t shift_ = 0;
  EliasFano starts_;
  WaveletTree kinds_wt_;
  PackedArray displacement_;
  std::vector<FunctionKind> kind_table_;
  std::vector<Storage<double>> params_;  // one array per dense kind
};

}  // namespace neats
