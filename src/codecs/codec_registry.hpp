// The codec registry: runtime dispatch from a CodecId (the word a manifest
// row stores) to a concrete SeriesCodec, behind the type-erased SealedSeries
// interface the store serves shards through.
//
//   compress:  CodecRegistry::Compress(id, values, options)  -> SealedSeries
//              (a NeaTS seal selects its models per shard: kSealTopPairs)
//   open:      CodecRegistry::Open(id, bytes, allow_view)    -> SealedSeries
//
// SealedSeries mirrors the SeriesCodec query surface one virtual call deep;
// SealedCodec<C> is the only implementation, stamped out per codec type, so
// adding a codec is: implement the concept, add a CodecId, add one switch
// case in WithCodecType. Open() uses C::View when the caller guarantees the
// bytes outlive the result (an mmap'd shard) and the codec supports
// borrowing (C::kZeroCopyView); otherwise it falls back to the owning
// Deserialize. Walkthrough: docs/ARCHITECTURE.md, "Codec layer".

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "codecs/alp_codec.hpp"
#include "codecs/leco_codec.hpp"
#include "codecs/xor_codec.hpp"
#include "common/assert.hpp"
#include "core/codec_id.hpp"
#include "core/neats.hpp"
#include "core/series_codec.hpp"

namespace neats {

/// A sealed, immutable compressed series behind a stable virtual interface —
/// the unit a NeatsStore shard serves queries through, whatever codec
/// compressed it. AccessBatch requires non-decreasing probes, like the
/// concept it erases.
class SealedSeries {
 public:
  virtual ~SealedSeries() = default;

  virtual CodecId codec() const = 0;
  virtual uint64_t size() const = 0;
  virtual size_t SizeInBits() const = 0;
  virtual int64_t Access(uint64_t i) const = 0;
  virtual void AccessBatch(std::span<const uint64_t> idx,
                           int64_t* out) const = 0;
  virtual void DecompressRange(uint64_t from, uint64_t len,
                               int64_t* out) const = 0;
  virtual void DecompressRanges(std::span<const IndexRange> ranges,
                                int64_t* out) const = 0;
  virtual int64_t RangeSum(uint64_t from, uint64_t len) const = 0;
  virtual void Serialize(std::vector<uint8_t>* out) const = 0;
};

/// The one SealedSeries implementation: forwards every virtual to the
/// wrapped SeriesCodec.
template <SeriesCodec C>
class SealedCodec final : public SealedSeries {
 public:
  SealedCodec(CodecId id, C codec) : id_(id), c_(std::move(codec)) {}

  CodecId codec() const override { return id_; }
  uint64_t size() const override { return c_.size(); }
  size_t SizeInBits() const override { return c_.SizeInBits(); }
  int64_t Access(uint64_t i) const override { return c_.Access(i); }
  void AccessBatch(std::span<const uint64_t> idx,
                   int64_t* out) const override {
    c_.AccessBatch(idx, out);
  }
  void DecompressRange(uint64_t from, uint64_t len,
                       int64_t* out) const override {
    c_.DecompressRange(from, len, out);
  }
  void DecompressRanges(std::span<const IndexRange> ranges,
                        int64_t* out) const override {
    c_.DecompressRanges(ranges, out);
  }
  int64_t RangeSum(uint64_t from, uint64_t len) const override {
    return c_.RangeSum(from, len);
  }
  void Serialize(std::vector<uint8_t>* out) const override {
    c_.Serialize(out);
  }
 private:
  CodecId id_;
  C c_;
};

/// A NeaTS seal runs the paper's model selection (SNeaTS, Sec. IV-C1) per
/// shard instead of Neats::Compress's full kinds × eps search: Algorithm 1
/// on the shard's first kSealSampleFraction, then the full shard over the
/// kinds × epsilons of the kSealTopPairs most-used pairs. Each seal stays a
/// pure function of its own values, so a WAL replay, a Scrub repair or a
/// re-seal writes the same bytes. Measured on 16 ECG 64Ki shards, seeds
/// 1-3, one thread (bits/value; full search 10.1675 / 10.1402 / 10.1548):
/// top 8 reads 10.110 / 10.108 / 10.122 at 2.3-2.4x less CPU, top 5 (the
/// paper's SNeaTS) 10.27 / 10.26 / 10.26 at 3.2-3.3x less. Fixed, not
/// options.
inline constexpr double kSealSampleFraction = 0.1;
inline constexpr size_t kSealTopPairs = 8;

namespace internal {

/// The single id -> type mapping: every registry operation funnels through
/// this switch, so registering a codec is one new case. The retired id has
/// no case: a shard naming it fails to open and is quarantined.
template <typename F>
auto WithCodecType(CodecId id, F&& f) {
  switch (id) {
    case CodecId::kNeats: return f(std::type_identity<Neats>{});
    case CodecId::kLeco: return f(std::type_identity<LecoCodec>{});
    case CodecId::kAlp: return f(std::type_identity<AlpCodec>{});
    case CodecId::kGorilla: return f(std::type_identity<GorillaCodec>{});
    case CodecId::kChimp: return f(std::type_identity<ChimpCodec>{});
  }
  NEATS_REQUIRE(static_cast<uint32_t>(id) != kRetiredCodecId,
                "retired codec id");
  NEATS_REQUIRE(false, "unknown codec id");
}

}  // namespace internal

/// Runtime codec dispatch (see file comment).
struct CodecRegistry {
  /// Compresses `values` with the codec named by `id`, as a store seal
  /// does (NeaTS through model selection; see kSealTopPairs).
  static std::unique_ptr<SealedSeries> Compress(CodecId id,
                                                std::span<const int64_t> values,
                                                const NeatsOptions& options) {
    return internal::WithCodecType(
        id, [&](auto t) -> std::unique_ptr<SealedSeries> {
          using C = typename decltype(t)::type;
          if constexpr (std::is_same_v<C, Neats>) {
            return std::make_unique<SealedCodec<C>>(
                id, Neats::CompressWithModelSelection(
                        values, options, kSealSampleFraction, kSealTopPairs));
          } else {
            return std::make_unique<SealedCodec<C>>(
                id, C::Compress(values, options));
          }
        });
  }

  /// Opens a serialized blob. With allow_view (the caller keeps `bytes`
  /// alive and 8-byte-aligned — e.g. an mmap'd shard) codecs that support
  /// borrowing open zero-copy; everything else deserializes into owned
  /// storage. Throws on corrupt or mismatched blobs.
  static std::unique_ptr<SealedSeries> Open(CodecId id,
                                            std::span<const uint8_t> bytes,
                                            bool allow_view) {
    return internal::WithCodecType(
        id, [&](auto t) -> std::unique_ptr<SealedSeries> {
          using C = typename decltype(t)::type;
          C codec = (allow_view && C::kZeroCopyView) ? C::View(bytes)
                                                     : C::Deserialize(bytes);
          return std::make_unique<SealedCodec<C>>(id, std::move(codec));
        });
  }

  /// True when the codec's View borrows the caller's buffer (so an mmap'd
  /// shard should keep its mapping alive).
  static bool ZeroCopyView(CodecId id) {
    return internal::WithCodecType(id, [](auto t) {
      return decltype(t)::type::kZeroCopyView;
    });
  }

  /// Every registered codec id, in wire order (the retired id skipped).
  static std::vector<CodecId> All() {
    std::vector<CodecId> ids;
    for (uint32_t i = 0; i < kNumCodecIds; ++i) {
      if (IsRegisteredCodecId(i)) ids.push_back(static_cast<CodecId>(i));
    }
    return ids;
  }
};

}  // namespace neats
