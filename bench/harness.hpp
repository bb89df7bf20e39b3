// Shared benchmark harness: uniform adapters over every lossless compressor,
// timing helpers, and table printing.
//
// Substitution note (see DESIGN.md): the general-purpose family is covered by
// three from-scratch engines taking the roles of the paper's five tools:
//   LzHuf-strong  — slow, strongest ratio      (role of Xz / Brotli)
//   LzHuf-fast    — balanced                    (role of Zstd)
//   FastLz        — fastest, weakest ratio      (role of Lz4 / Snappy)
// All compressors without native random access run block-wise (1000 values).

#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/alp.hpp"
#include "baselines/blockwise.hpp"
#include "baselines/chimp.hpp"
#include "baselines/dac.hpp"
#include "baselines/general_purpose.hpp"
#include "baselines/gorilla.hpp"
#include "baselines/leco.hpp"
#include "baselines/tsxor.hpp"
#include "common/timer.hpp"
#include "core/variants.hpp"
#include "datasets/generators.hpp"
#include "neats/neats.hpp"

namespace neats::bench {

/// Caps a dataset's default size: NEATS_BENCH_N=0 keeps the spec default,
/// otherwise sizes are clamped to the given value (default 120k for a
/// laptop-scale run).
inline size_t BenchSize(const DatasetSpec& spec) {
  static const size_t cap = [] {
    const char* env = std::getenv("NEATS_BENCH_N");
    if (env == nullptr) return size_t{120000};
    size_t v = static_cast<size_t>(std::strtoull(env, nullptr, 10));
    return v == 0 ? SIZE_MAX : v;
  }();
  return std::min(spec.default_n, cap);
}

inline Dataset LoadDataset(const DatasetSpec& spec) {
  return MakeDataset(spec.code, BenchSize(spec));
}

/// Type-erased compressed blob.
class AnyCompressed {
 public:
  virtual ~AnyCompressed() = default;
  virtual size_t SizeInBits() const = 0;
  /// Full decompression; returns a checksum of the output (prevents the
  /// optimizer from discarding the work).
  virtual uint64_t DecompressAll() const = 0;
  /// Random access to one value, as a 64-bit checksum contribution.
  virtual uint64_t Access(size_t i) const = 0;
  /// Range decompression (random access + scan); returns a checksum.
  virtual uint64_t Range(size_t from, size_t len) const = 0;
};

namespace internal {

template <typename C>
class IntAdapter : public AnyCompressed {
 public:
  explicit IntAdapter(C compressed) : c_(std::move(compressed)) {}
  size_t SizeInBits() const override { return c_.SizeInBits(); }
  uint64_t DecompressAll() const override {
    // Every codec pays the same O(n) materialization here so the cross-codec
    // comparison stays apples-to-apples.
    std::vector<int64_t> out;
    c_.Decompress(&out);
    uint64_t checksum = 0;
    for (int64_t v : out) checksum += static_cast<uint64_t>(v);
    return checksum;
  }
  uint64_t Access(size_t i) const override {
    return static_cast<uint64_t>(c_.Access(i));
  }
  uint64_t Range(size_t from, size_t len) const override {
    std::vector<int64_t> out(len);
    RangeInto(from, len, out.data());
    uint64_t checksum = 0;
    for (int64_t v : out) checksum += static_cast<uint64_t>(v);
    return checksum;
  }

 private:
  void RangeInto(size_t from, size_t len, int64_t* out) const {
    if constexpr (requires { c_.DecompressRange(from, len, out); }) {
      c_.DecompressRange(from, len, out);
    } else {
      for (size_t j = 0; j < len; ++j) out[j] = c_.Access(from + j);
    }
  }
  C c_;
};

template <typename C>
class DoubleAdapter : public AnyCompressed {
 public:
  explicit DoubleAdapter(C compressed) : c_(std::move(compressed)) {}
  size_t SizeInBits() const override { return c_.SizeInBits(); }
  uint64_t DecompressAll() const override {
    std::vector<double> out;
    c_.Decompress(&out);
    uint64_t checksum = 0;
    for (double v : out) checksum += std::bit_cast<uint64_t>(v);
    return checksum;
  }
  uint64_t Access(size_t i) const override {
    return std::bit_cast<uint64_t>(c_.Access(i));
  }
  uint64_t Range(size_t from, size_t len) const override {
    std::vector<double> out(len);
    if constexpr (requires { c_.DecompressRange(from, len, out.data()); }) {
      c_.DecompressRange(from, len, out.data());
    } else {
      for (size_t j = 0; j < len; ++j) out[j] = c_.Access(from + j);
    }
    uint64_t checksum = 0;
    for (double v : out) checksum += std::bit_cast<uint64_t>(v);
    return checksum;
  }

 private:
  C c_;
};

}  // namespace internal

/// A named compressor with a type-erased Compress entry point.
struct Compressor {
  std::string name;
  bool general_purpose;
  std::function<std::unique_ptr<AnyCompressed>(const Dataset&)> compress;
};

/// The full lossless roster of Table III (substitutions noted in the names).
inline std::vector<Compressor> LosslessRoster() {
  using namespace internal;
  std::vector<Compressor> roster;
  roster.push_back({"LzHuf-strong", true, [](const Dataset& ds) {
    return std::unique_ptr<AnyCompressed>(new IntAdapter(
        BlockwiseBytes<LzHufStrongPolicy>::Compress(ds.values)));
  }});
  roster.push_back({"LzHuf-fast", true, [](const Dataset& ds) {
    return std::unique_ptr<AnyCompressed>(new IntAdapter(
        BlockwiseBytes<LzHufFastPolicy>::Compress(ds.values)));
  }});
  roster.push_back({"FastLz", true, [](const Dataset& ds) {
    return std::unique_ptr<AnyCompressed>(new IntAdapter(
        BlockwiseBytes<FastLzPolicy>::Compress(ds.values)));
  }});
  roster.push_back({"Chimp128", false, [](const Dataset& ds) {
    return std::unique_ptr<AnyCompressed>(new DoubleAdapter(
        Blockwise<Chimp128>::Compress(ds.doubles)));
  }});
  roster.push_back({"Chimp", false, [](const Dataset& ds) {
    return std::unique_ptr<AnyCompressed>(new DoubleAdapter(
        Blockwise<Chimp>::Compress(ds.doubles)));
  }});
  roster.push_back({"TSXor", false, [](const Dataset& ds) {
    return std::unique_ptr<AnyCompressed>(new DoubleAdapter(
        Blockwise<TsXor>::Compress(ds.doubles)));
  }});
  roster.push_back({"DAC", false, [](const Dataset& ds) {
    return std::unique_ptr<AnyCompressed>(new IntAdapter(
        Dac::Compress(ds.values)));
  }});
  roster.push_back({"Gorilla", false, [](const Dataset& ds) {
    return std::unique_ptr<AnyCompressed>(new DoubleAdapter(
        Blockwise<Gorilla>::Compress(ds.doubles)));
  }});
  roster.push_back({"LeCo", false, [](const Dataset& ds) {
    return std::unique_ptr<AnyCompressed>(new IntAdapter(
        Leco::Compress(ds.values)));
  }});
  roster.push_back({"ALP", false, [](const Dataset& ds) {
    return std::unique_ptr<AnyCompressed>(new DoubleAdapter(
        Alp::Compress(ds.doubles)));
  }});
  roster.push_back({"NeaTS", false, [](const Dataset& ds) {
    return std::unique_ptr<AnyCompressed>(new IntAdapter(
        Neats::Compress(ds.values)));
  }});
  return roster;
}

/// Compression ratio in percent (compressed bits / raw 64-bit values).
inline double RatioPct(size_t bits, size_t n) {
  return 100.0 * static_cast<double>(bits) / (64.0 * static_cast<double>(n));
}

/// Runs `op()` repeatedly until ~min_seconds elapse; returns ops per second.
template <typename Op>
double OpsPerSecond(Op&& op, double min_seconds = 0.2, size_t max_ops = 1u << 22) {
  // Warm-up.
  op(0);
  Timer timer;
  size_t done = 0;
  uint64_t sink = 0;
  while (timer.ElapsedSeconds() < min_seconds && done < max_ops) {
    sink += op(done);
    ++done;
  }
  double elapsed = timer.ElapsedSeconds();
  // Prevent the compiler from dropping the loop.
  if (sink == 0xDEADBEEFCAFEBABEULL) std::fprintf(stderr, "!");
  return static_cast<double>(done) / elapsed;
}

inline const char* kRuler =
    "--------------------------------------------------------------------"
    "--------------------------------------------------------------------";

}  // namespace neats::bench
