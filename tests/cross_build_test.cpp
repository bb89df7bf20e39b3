// Lossless across builds: blobs written by this (default) build decode
// exactly in a second build of the library compiled with -ffp-contract=fast
// -mfma (tests/cross_build/contracted.cpp), and the reverse. That build may
// fuse every a * b + c into one fused multiply-add, so this holds only
// because the model evaluation pins its roundings (src/functions/
// pinned_math.hpp). Covered: NeaTS, NeaTS-LX and LeCo on ECG, IT, CT, DP,
// UK and US; full range decodes and scalar Access; and PredictValue itself,
// bit for bit, on every kind. The contracted build executes FMA
// instructions, so the test runs only on CPUs that have FMA.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "codecs/leco_codec.hpp"
#include "codecs/lossy_exact_codec.hpp"
#include "core/neats.hpp"
#include "datasets/generators.hpp"

#if NEATS_CROSS_BUILD_TU
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

template <typename C>
std::vector<uint8_t> CompressHere(const std::vector<int64_t>& values) {
  std::vector<uint8_t> blob;
  C::Compress(values).Serialize(&blob);
  return blob;
}

template <typename C>
std::vector<int64_t> DecompressHere(const std::vector<uint8_t>& blob) {
  const C codec = C::Deserialize(blob);
  std::vector<int64_t> out(codec.size());
  codec.DecompressRange(0, codec.size(), out.data());
  return out;
}

template <typename C>
std::vector<int64_t> AccessHere(const std::vector<uint8_t>& blob,
                                const std::vector<uint64_t>& idx) {
  const C codec = C::Deserialize(blob);
  std::vector<int64_t> out;
  for (uint64_t k : idx) out.push_back(codec.Access(k));
  return out;
}

/// Index of the first mismatch, or -1 — a readable failure.
int64_t FirstMismatch(const std::vector<int64_t>& got,
                      const std::vector<int64_t>& want) {
  if (got.size() != want.size()) return 0;
  for (size_t k = 0; k < got.size(); ++k) {
    if (got[k] != want[k]) return static_cast<int64_t>(k);
  }
  return -1;
}

template <typename C>
void CheckBothDirections(cross_build::Codec codec, const char* name) {
  std::cout << "[ lanes    ] " << name << ": default build decodes on "
            << ActiveDecodeLane().name << "\n";
  for (const char* code : {"ECG", "IT", "CT", "DP", "UK", "US"}) {
    SCOPED_TRACE(std::string(name) + " on " + code);
    const Dataset ds = MakeDataset(code, 65536);
    std::vector<uint64_t> idx;
    for (uint64_t k = 0; k < ds.values.size(); k += 3) idx.push_back(k);
    std::vector<int64_t> sampled;
    for (uint64_t k : idx) sampled.push_back(ds.values[k]);

    // Written here, read by the contracted build.
    const std::vector<uint8_t> here = CompressHere<C>(ds.values);
    EXPECT_EQ(FirstMismatch(cross_build::Decompress(codec, here), ds.values),
              -1);
    EXPECT_EQ(FirstMismatch(cross_build::Access(codec, here, idx), sampled),
              -1);

    // Written by the contracted build, read here.
    const std::vector<uint8_t> there = cross_build::Compress(codec, ds.values);
    EXPECT_EQ(FirstMismatch(DecompressHere<C>(there), ds.values), -1);
    EXPECT_EQ(FirstMismatch(AccessHere<C>(there, idx), sampled), -1);
  }
}

TEST(CrossBuild, NeatsBlobsDecodeInBothBuilds) {
  SKIP_WITHOUT_FMA();
  CheckBothDirections<Neats>(cross_build::Codec::kNeats, "NeaTS");
}

TEST(CrossBuild, NeatsLossyExactBlobsDecodeInBothBuilds) {
  SKIP_WITHOUT_FMA();
  CheckBothDirections<NeatsLossyExact>(cross_build::Codec::kNeatsLossyExact,
                                       "NeaTS-LX");
}

TEST(CrossBuild, LecoBlobsDecodeInBothBuilds) {
  SKIP_WITHOUT_FMA();
  CheckBothDirections<LecoCodec>(cross_build::Codec::kLeco, "LeCo");
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
