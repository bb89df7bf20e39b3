// ALP-style adaptive lossless floating-point compression (after Afroozeh,
// Kuffo & Boncz, SIGMOD 2024).
//
// Doubles that originated as decimals are encoded per 1024-value vector via
// the pseudo-decimal scheme: pick the exponent e (sampled) maximising the
// number of values for which d = round(x * 10^e) reconstructs x bit-exactly
// as d / 10^e; store the d's with frame-of-reference bit-packing, and the
// failures ("exceptions") verbatim next to their positions. Decompression
// is a tight multiply-and-bitunpack loop; random access reads one packed
// bit field directly (AccessPoint) or decodes the containing vector
// (Access, vector-at-a-time as in the original engine).

#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "succinct/bit_stream.hpp"
#include "succinct/storage.hpp"

namespace neats {

/// ALP-style compressed sequence of doubles.
class Alp {
 public:
  Alp() = default;

  static constexpr size_t kVector = 1024;
  static constexpr int kMaxExponent = 18;

  static Alp Compress(std::span<const double> values) {
    Alp out;
    out.n_ = values.size();
    size_t num_blocks = CeilDiv(values.size(), kVector);
    out.blocks_.reserve(num_blocks);
    for (size_t b = 0; b < num_blocks; ++b) {
      size_t begin = b * kVector;
      size_t end = std::min(values.size(), begin + kVector);
      out.blocks_.push_back(EncodeBlock(values.subspan(begin, end - begin)));
    }
    return out;
  }

  void Decompress(std::vector<double>* out) const {
    out->resize(n_);
    for (size_t b = 0; b < blocks_.size(); ++b) {
      DecodeBlock(blocks_[b], out->data() + b * kVector);
    }
  }

  /// Random access: decodes the containing 1024-value vector.
  double Access(size_t i) const {
    double buffer[kVector];
    DecodeBlock(blocks_[i / kVector], buffer);
    return buffer[i % kVector];
  }

  /// Point access: O(log exceptions) + one bit-field read — no vector
  /// decode. The FOR+bit-packed layout is directly addressable, so only
  /// the (typically empty) exception list needs a search.
  double AccessPoint(size_t i) const {
    const Block& blk = blocks_[i / kVector];
    const uint16_t p = static_cast<uint16_t>(i % kVector);
    if (!blk.exceptions.empty()) {
      auto it = std::lower_bound(
          blk.exceptions.begin(), blk.exceptions.end(), p,
          [](const Exception& e, uint16_t q) { return e.position < q; });
      if (it != blk.exceptions.end() && it->position == p) {
        return std::bit_cast<double>(it->raw);
      }
    }
    // An all-exception block (exponent < 0) lists every position, so the
    // lookup above always hit; only packed blocks reach here.
    NEATS_DCHECK(blk.exponent >= 0);
    const int64_t d = static_cast<int64_t>(
        static_cast<uint64_t>(blk.base) +
        ReadBits(blk.packed.data(),
                 static_cast<uint64_t>(p) * blk.width, blk.width));
    return static_cast<double>(d) / Pow10(blk.exponent);
  }

  // Block geometry, for wrappers that decode vector-at-a-time themselves
  // (AlpCodec's hybrid batch kernel).
  size_t num_blocks() const { return blocks_.size(); }

  /// Fully decodes vector b into out (sized kVector).
  void DecodeBlockInto(size_t b, double* out) const {
    DecodeBlock(blocks_[b], out);
  }

  /// Range decompression: decodes each covered vector once.
  void DecompressRange(size_t from, size_t len, double* out) const {
    double buffer[kVector];
    size_t produced = 0;
    while (produced < len) {
      size_t b = (from + produced) / kVector;
      DecodeBlock(blocks_[b], buffer);
      size_t offset = (from + produced) - b * kVector;
      size_t take = std::min(len - produced,
                             static_cast<size_t>(blocks_[b].count) - offset);
      std::memcpy(out + produced, buffer + offset, take * sizeof(double));
      produced += take;
    }
  }

  size_t size() const { return n_; }

  size_t SizeInBits() const {
    size_t bits = 2 * 64;
    for (const auto& blk : blocks_) {
      bits += 8 + 8 + 16 + 64 + 64;  // e, width, counts, base
      bits += blk.packed.size() * 64;
      bits += blk.exceptions.size() * (16 + 64);
    }
    return bits;
  }

  /// Appends the blocks to a flat word writer (no magic — the caller frames
  /// it; see src/codecs/alp_codec.hpp for the framed SeriesCodec wrapper).
  /// `block_offsets` receives, per block, the word offset of the block's
  /// header relative to the payload start — the vector-offset index
  /// AlpCodec serializes after the payload.
  void SerializeInto(WordWriter& w,
                     std::vector<uint64_t>* block_offsets) const {
    const size_t base = w.position();
    block_offsets->clear();
    w.Put(n_);
    w.Put(blocks_.size());
    for (const Block& blk : blocks_) {
      block_offsets->push_back((w.position() - base) / 8);
      w.Put(static_cast<uint64_t>(blk.count) |
            (static_cast<uint64_t>(static_cast<uint8_t>(blk.exponent)) << 16) |
            (static_cast<uint64_t>(blk.width) << 24));
      w.Put(static_cast<uint64_t>(blk.base));
      w.Put(blk.packed.size());
      w.PutCells(blk.packed.data(), blk.packed.size());
      w.Put(blk.exceptions.size());
      for (const Exception& ex : blk.exceptions) {
        w.Put(ex.position);
        w.Put(ex.raw);
      }
    }
  }

  /// Inverse of SerializeInto. Every count, width and exception position is
  /// validated against the block geometry before any decode can trust it —
  /// DecodeBlock writes out[ex.position] unchecked, so a forged position
  /// must never survive the load. In a borrowing reader the packed words
  /// stay views into the blob (zero-copy open). `block_offsets` receives
  /// each block header's word offset relative to the payload start,
  /// mirroring SerializeInto.
  static Alp LoadFrom(WordReader& r, std::vector<uint64_t>* block_offsets) {
    const size_t base = r.position();
    block_offsets->clear();
    Alp out;
    out.n_ = r.Get();
    NEATS_REQUIRE(out.n_ <= (uint64_t{1} << 56), "corrupt ALP blob");
    size_t num_blocks = r.Get();
    NEATS_REQUIRE(num_blocks == CeilDiv(out.n_, kVector), "corrupt ALP blob");
    out.blocks_.reserve(num_blocks);
    for (size_t b = 0; b < num_blocks; ++b) {
      Block blk;
      block_offsets->push_back((r.position() - base) / 8);
      uint64_t head = r.Get();
      blk.count = static_cast<uint16_t>(head & 0xFFFF);
      blk.exponent = static_cast<int8_t>((head >> 16) & 0xFF);
      blk.width = static_cast<uint8_t>((head >> 24) & 0xFF);
      size_t expected =
          std::min<size_t>(kVector, out.n_ - b * kVector);
      NEATS_REQUIRE(blk.count == expected && (head >> 32) == 0 &&
                        blk.exponent >= -1 && blk.exponent <= kMaxExponent &&
                        blk.width <= 64,
                    "corrupt ALP blob");
      blk.base = static_cast<int64_t>(r.Get());
      blk.packed = r.GetCells<uint64_t>(r.Get());
      size_t want_words =
          blk.exponent < 0
              ? 0
              : CeilDiv(static_cast<uint64_t>(blk.count) * blk.width, 64);
      NEATS_REQUIRE(blk.packed.size() == want_words, "corrupt ALP blob");
      size_t num_ex = r.Get();
      NEATS_REQUIRE(num_ex <= blk.count &&
                        (blk.exponent >= 0 || num_ex == blk.count),
                    "corrupt ALP blob");
      blk.exceptions.reserve(num_ex);
      for (size_t e = 0; e < num_ex; ++e) {
        Exception ex;
        uint64_t pos = r.Get();
        // Strictly increasing and in range: duplicates could leave output
        // slots uninitialized in an all-exception block (DecodeBlock fills
        // exactly the listed positions there).
        NEATS_REQUIRE(pos < blk.count &&
                          (e == 0 || pos > blk.exceptions.back().position),
                      "corrupt ALP blob");
        ex.position = static_cast<uint16_t>(pos);
        ex.raw = r.Get();
        blk.exceptions.push_back(ex);
      }
      out.blocks_.push_back(std::move(blk));
    }
    return out;
  }

 private:
  struct Exception {
    uint16_t position;
    uint64_t raw;
  };

  struct Block {
    uint16_t count = 0;
    int8_t exponent = 0;   // -1: all-exception block (packed empty)
    uint8_t width = 0;
    int64_t base = 0;
    Storage<uint64_t> packed;           // FOR+bit-packed d values; borrows
                                        // the blob in a zero-copy open
    std::vector<Exception> exceptions;  // bit-exact failures
  };

  static double Pow10(int e) {
    static const double kTable[] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,
                                    1e7,  1e8,  1e9,  1e10, 1e11, 1e12, 1e13,
                                    1e14, 1e15, 1e16, 1e17, 1e18};
    return kTable[e];
  }

  /// True iff x survives the round trip through d = round(x * 10^e).
  /// Reconstruction uses d / 10^e — a correctly-rounded quotient, which is
  /// exactly the double a decimal parser produces for "d * 10^-e", so
  /// decimal-origin data round-trips with almost no exceptions. The decode
  /// loop must use the very same expression.
  static bool Encodable(double x, int e, int64_t* d_out) {
    double scaled = x * Pow10(e);
    if (!(scaled > -9.2e18 && scaled < 9.2e18)) return false;
    double rounded = std::nearbyint(scaled);
    int64_t d = static_cast<int64_t>(rounded);
    double back = static_cast<double>(d) / Pow10(e);
    if (std::bit_cast<uint64_t>(back) != std::bit_cast<uint64_t>(x)) {
      return false;
    }
    *d_out = d;
    return true;
  }

  static Block EncodeBlock(std::span<const double> values) {
    Block blk;
    blk.count = static_cast<uint16_t>(values.size());
    // Sample up to 32 values to choose the exponent.
    int best_e = -1;
    int best_hits = -1;
    size_t stride = std::max<size_t>(1, values.size() / 32);
    for (int e = 0; e <= kMaxExponent; ++e) {
      int hits = 0;
      int64_t d;
      for (size_t i = 0; i < values.size(); i += stride) {
        if (Encodable(values[i], e, &d)) ++hits;
      }
      if (hits > best_hits) {
        best_hits = hits;
        best_e = e;
      }
      if (hits == static_cast<int>((values.size() + stride - 1) / stride) &&
          best_hits == hits) {
        break;  // first exponent that encodes the whole sample: prefer small e
      }
    }
    blk.exponent = static_cast<int8_t>(best_e);

    std::vector<int64_t> ds(values.size());
    std::vector<bool> ok(values.size());
    int64_t lo = INT64_MAX, hi = INT64_MIN;
    for (size_t i = 0; i < values.size(); ++i) {
      ok[i] = Encodable(values[i], best_e, &ds[i]);
      if (ok[i]) {
        lo = std::min(lo, ds[i]);
        hi = std::max(hi, ds[i]);
      }
    }
    if (lo > hi) {  // every value is an exception
      blk.exponent = -1;
      for (size_t i = 0; i < values.size(); ++i) {
        blk.exceptions.push_back(
            {static_cast<uint16_t>(i), std::bit_cast<uint64_t>(values[i])});
      }
      return blk;
    }
    blk.base = lo;
    blk.width = static_cast<uint8_t>(BitWidth(static_cast<uint64_t>(hi - lo)));
    BitWriter writer;
    for (size_t i = 0; i < values.size(); ++i) {
      if (ok[i]) {
        writer.Append(static_cast<uint64_t>(ds[i] - lo), blk.width);
      } else {
        writer.Append(0, blk.width);  // placeholder, patched by exception
        blk.exceptions.push_back(
            {static_cast<uint16_t>(i), std::bit_cast<uint64_t>(values[i])});
      }
    }
    blk.packed = Storage<uint64_t>(writer.TakeWords());
    return blk;
  }

  static void DecodeBlock(const Block& blk, double* out) {
    if (blk.exponent < 0) {
      for (const Exception& ex : blk.exceptions) {
        out[ex.position] = std::bit_cast<double>(ex.raw);
      }
      return;
    }
    const double div = Pow10(blk.exponent);
    const int width = blk.width;
    const uint64_t* words = blk.packed.data();
    uint64_t o = 0;
    for (size_t i = 0; i < blk.count; ++i, o += static_cast<uint64_t>(width)) {
      // Unsigned add: base + residual cannot overflow for blobs this
      // encoder wrote, but a forged blob can pick any base — wraparound is
      // defined (and decodes to garbage), signed overflow would be UB.
      int64_t d = static_cast<int64_t>(static_cast<uint64_t>(blk.base) +
                                       ReadBits(words, o, width));
      out[i] = static_cast<double>(d) / div;
    }
    for (const Exception& ex : blk.exceptions) {
      out[ex.position] = std::bit_cast<double>(ex.raw);
    }
  }

  size_t n_ = 0;
  std::vector<Block> blocks_;
};

}  // namespace neats
