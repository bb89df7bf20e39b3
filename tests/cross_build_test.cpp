// Lossless across builds: blobs written by this (default) build decode
// exactly in a second build of the library compiled with -ffp-contract=fast
// -mfma (tests/cross_build/contracted.cpp), and the reverse. That build may
// fuse every a * b + c into one fused multiply-add, so this holds only
// because the model evaluation pins its roundings (src/functions/
// pinned_math.hpp). Covered: NeaTS, NeaTS-L (eps 50) and LeCo on ECG, IT,
// CT, DP, UK and US; full range decodes and scalar Access; and PredictValue
// itself, bit for bit, on every kind. NeaTS-L is lossy: both builds must
// decode its blobs to the same values, each within eps + 1 of the original.
// The contracted build executes FMA instructions, so the test runs only on
// CPUs that have FMA.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "codecs/leco_codec.hpp"
#include "core/neats.hpp"
#include "core/neats_lossy.hpp"
#include "datasets/generators.hpp"

#if NEATS_CROSS_BUILD_TU
#include "cross_build/codec_ops.hpp"
#include "cross_build/contracted.hpp"
#endif

namespace neats {
namespace {

#if NEATS_CROSS_BUILD_TU

bool CpuHasFma() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("fma") != 0;
}

#define SKIP_WITHOUT_FMA()                                            \
  if (!CpuHasFma()) {                                                 \
    std::cout << "[ lanes    ] skipped: this CPU lacks fma\n";        \
    GTEST_SKIP() << "the contracted build needs the FMA instruction set"; \
  }

/// Index of the first value of `got` farther than `max_error` from `want`,
/// or -1 — a readable failure.
int64_t FirstBeyond(const std::vector<int64_t>& got,
                    const std::vector<int64_t>& want, int64_t max_error = 0) {
  if (got.size() != want.size()) return 0;
  for (size_t k = 0; k < got.size(); ++k) {
    if (std::abs(got[k] - want[k]) > max_error) return static_cast<int64_t>(k);
  }
  return -1;
}

/// Blobs written by either build decode in both to the same values, by full
/// decode and by scalar Access, and those values lie within `max_error` of
/// the original (0: lossless).
template <typename C>
void CheckBothDirections(cross_build::Codec codec, const char* name,
                         int64_t max_error) {
  std::cout << "[ lanes    ] " << name << ": default build decodes on "
            << ActiveDecodeLane().name << "\n";
  for (const char* code : {"ECG", "IT", "CT", "DP", "UK", "US"}) {
    SCOPED_TRACE(std::string(name) + " on " + code);
    const Dataset ds = MakeDataset(code, 65536);
    std::vector<uint64_t> idx;
    for (uint64_t k = 0; k < ds.values.size(); k += 3) idx.push_back(k);
    std::vector<int64_t> sampled;
    for (uint64_t k : idx) sampled.push_back(ds.values[k]);

    const std::vector<uint8_t> here = cross_build::CompressWith<C>(ds.values);
    const std::vector<uint8_t> there = cross_build::Compress(codec, ds.values);
    for (const std::vector<uint8_t>* blob : {&here, &there}) {
      SCOPED_TRACE(blob == &here ? "written by the default build"
                                 : "written by the contracted build");
      const std::vector<int64_t> decoded = cross_build::DecodeAll<C>(*blob);
      const std::vector<int64_t> accessed =
          cross_build::AccessAll<C>(*blob, idx);
      EXPECT_EQ(FirstBeyond(decoded, ds.values, max_error), -1);
      EXPECT_EQ(FirstBeyond(accessed, sampled, max_error), -1);
      EXPECT_EQ(FirstBeyond(cross_build::Decompress(codec, *blob), decoded),
                -1);
      EXPECT_EQ(FirstBeyond(cross_build::Access(codec, *blob, idx), accessed),
                -1);
    }
  }
}

TEST(CrossBuild, NeatsBlobsDecodeInBothBuilds) {
  SKIP_WITHOUT_FMA();
  CheckBothDirections<Neats>(cross_build::Codec::kNeats, "NeaTS", 0);
}

TEST(CrossBuild, NeatsLossyBlobsDecodeInBothBuilds) {
  SKIP_WITHOUT_FMA();
  CheckBothDirections<NeatsLossy>(cross_build::Codec::kNeatsLossy, "NeaTS-L",
                                  cross_build::kLossyEpsilon + 1);
}

TEST(CrossBuild, LecoBlobsDecodeInBothBuilds) {
  SKIP_WITHOUT_FMA();
  CheckBothDirections<LecoCodec>(cross_build::Codec::kLeco, "LeCo", 0);
}

TEST(CrossBuild, PredictValueIsBitIdenticalOnEveryKind) {
  SKIP_WITHOUT_FMA();
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> slope(-2.0, 2.0);
  std::uniform_real_distribution<double> rate(-1e-3, 1e-3);
  std::uniform_real_distribution<double> level(-1e6, 1e6);
  for (int kind = 0; kind < kNumFunctionKinds; ++kind) {
    size_t differ = 0;
    const FunctionKind k = static_cast<FunctionKind>(kind);
    const bool exp_kind = k == FunctionKind::kExponential ||
                          k == FunctionKind::kPower ||
                          k == FunctionKind::kGaussian;
    for (int trial = 0; trial < 20000; ++trial) {
      const double params[3] = {exp_kind ? rate(rng) : slope(rng),
                                exp_kind ? level(rng) * 1e-5 : level(rng),
                                exp_kind ? rate(rng) : level(rng)};
      const int64_t xi = static_cast<int64_t>(rng() % 100000) + 1;
      const double here = PredictValue(k, params, xi);
      const double there = cross_build::PredictValue(kind, params, xi);
      if (std::bit_cast<uint64_t>(here) != std::bit_cast<uint64_t>(there)) {
        ++differ;
      }
    }
    EXPECT_EQ(differ, 0u) << "kind " << KindName(k);
  }
}

#else

TEST(CrossBuild, NeedsTheContractedBuild) {
  GTEST_SKIP() << "the contracted build is compiled only for x86-64 with GCC "
                  "or Clang";
}

#endif

}  // namespace
}  // namespace neats
