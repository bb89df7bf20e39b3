#include "core/neats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "core/neats_lossy.hpp"
#include "core/variants.hpp"
#include "neats/neats.hpp"

namespace neats {
namespace {

void CheckRoundTrip(const std::vector<int64_t>& values,
                    const NeatsOptions& options = {}) {
  Neats compressed = Neats::Compress(values, options);
  ASSERT_EQ(compressed.size(), values.size());

  // Algorithm 2: full decompression.
  std::vector<int64_t> decoded;
  compressed.Decompress(&decoded);
  ASSERT_EQ(decoded, values);

  // Algorithm 3: random access at every position.
  for (size_t k = 0; k < values.size(); ++k) {
    ASSERT_EQ(compressed.Access(k), values[k]) << "access at " << k;
  }
}

std::vector<int64_t> RandomWalk(size_t n, uint64_t seed, int64_t step) {
  std::mt19937_64 rng(seed);
  std::vector<int64_t> values;
  int64_t cur = 0;
  for (size_t i = 0; i < n; ++i) {
    cur += static_cast<int64_t>(rng() % (2 * step + 1)) - step;
    values.push_back(cur);
  }
  return values;
}

TEST(Neats, EmptySeries) {
  Neats compressed = Neats::Compress(std::vector<int64_t>{});
  EXPECT_EQ(compressed.size(), 0u);
  std::vector<int64_t> out;
  compressed.Decompress(&out);
  EXPECT_TRUE(out.empty());
}

TEST(Neats, SingleValue) { CheckRoundTrip({12345}); }

TEST(Neats, TwoValues) { CheckRoundTrip({-7, 999}); }

TEST(Neats, ConstantSeries) { CheckRoundTrip(std::vector<int64_t>(5000, -3)); }

TEST(Neats, LinearRamp) {
  std::vector<int64_t> values;
  for (int i = 0; i < 3000; ++i) values.push_back(5 * i - 100);
  CheckRoundTrip(values);
  Neats compressed = Neats::Compress(values);
  // A perfect line: one fragment, zero correction bits, tiny output. The
  // bound is the exact v3 serialized footprint (SizeInBits == on-disk
  // bits): headers, count words, sampled select directories and the
  // interleaved fragment directory (one 32-byte record plus its count word
  // and 64-byte alignment pad) cost a few hundred bits even for a
  // one-fragment structure — under 0.2 bits/value here and amortized to
  // nothing on real series.
  EXPECT_LE(compressed.num_fragments(), 2u);
  EXPECT_LT(compressed.SizeInBits(), 5200u);
}

TEST(Neats, StepFunction) {
  std::vector<int64_t> values;
  for (int s = 0; s < 20; ++s) {
    for (int i = 0; i < 100; ++i) values.push_back(s * 1000);
  }
  CheckRoundTrip(values);
}

TEST(Neats, AlternatingExtremes) {
  std::vector<int64_t> values;
  for (int i = 0; i < 500; ++i) {
    values.push_back(i % 2 == 0 ? 1000000 : -1000000);
  }
  CheckRoundTrip(values);
}

TEST(Neats, RandomWalks) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    CheckRoundTrip(RandomWalk(10000, seed, 50));
  }
}

TEST(Neats, PureNoise) {
  std::mt19937_64 rng(11);
  std::vector<int64_t> values(5000);
  for (auto& v : values) v = static_cast<int64_t>(rng() % 100000) - 50000;
  CheckRoundTrip(values);
}

TEST(Neats, NonlinearTrends) {
  std::vector<int64_t> values;
  for (int i = 0; i < 1000; ++i) {
    values.push_back(static_cast<int64_t>(50.0 * std::exp(0.008 * i)));
  }
  for (int i = 0; i < 1000; ++i) {
    values.push_back(values.back() + static_cast<int64_t>(90.0 * std::sqrt(i)));
  }
  CheckRoundTrip(values);
}

TEST(Neats, NegativeHeavySeries) {
  std::vector<int64_t> values;
  for (int i = 0; i < 2000; ++i) {
    values.push_back(-1000000000LL + 997 * i + (i * i) % 83);
  }
  CheckRoundTrip(values);
}

TEST(Neats, LargeMagnitudeValues) {
  std::vector<int64_t> values;
  int64_t base = int64_t{1} << 60;
  for (int i = 0; i < 300; ++i) values.push_back(base + i * 1000);
  for (int i = 0; i < 300; ++i) values.push_back(-base + i * 777);
  CheckRoundTrip(values);
}

// A negative epsilon is an options error: the Status facade reports it
// instead of compressing with wrapped correction widths.
TEST(Neats, NegativeEpsilonIsAFailedStatus) {
  std::vector<int64_t> values = RandomWalk(3000, 8, 5);
  NeatsOptions by_eps;
  by_eps.partition.epsilons = {-1, 4};
  NeatsOptions by_pairs;
  by_pairs.partition.pairs = {{FunctionKind::kLinear, 2},
                              {FunctionKind::kRadical, -3}};
  for (NeatsOptions options : {by_eps, by_pairs}) {
    for (uint64_t chunk : {uint64_t{0}, uint64_t{1000}}) {
      options.chunk_size = chunk;
      options.num_threads = 2;
      auto compress = [&] { return Neats::Compress(values, options); };
      EXPECT_FALSE(Checked(compress).ok()) << "chunk_size=" << chunk;
    }
  }
  EXPECT_FALSE(Checked([&] { return NeatsLossy::Compress(values, -1); }).ok());
}

TEST(Neats, BitVectorStartsVariant) {
  NeatsOptions options;
  options.starts_index = StartsIndex::kBitVector;
  CheckRoundTrip(RandomWalk(8000, 7, 30), options);
}

TEST(Neats, BothStartsVariantsAgreeOnSize) {
  auto values = RandomWalk(20000, 13, 40);
  NeatsOptions ef, bv;
  bv.starts_index = StartsIndex::kBitVector;
  Neats a = Neats::Compress(values, ef);
  Neats b = Neats::Compress(values, bv);
  EXPECT_EQ(a.num_fragments(), b.num_fragments());
  // Same corrections and fragments; only the S representation differs.
  for (size_t k = 0; k < values.size(); k += 97) {
    EXPECT_EQ(a.Access(k), b.Access(k));
  }
}

TEST(Neats, DecompressRangeMatchesSlices) {
  auto values = RandomWalk(30000, 17, 25);
  Neats compressed = Neats::Compress(values);
  std::mt19937_64 rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    uint64_t k = rng() % values.size();
    uint64_t len = std::min<uint64_t>(rng() % 500, values.size() - k);
    std::vector<int64_t> out(len);
    compressed.DecompressRange(k, len, out.data());
    for (uint64_t j = 0; j < len; ++j) {
      ASSERT_EQ(out[j], values[k + j]) << "range at " << k << "+" << j;
    }
  }
}

TEST(Neats, RangeAcrossManyFragments) {
  // Force many fragments with a zig-zag that breaks every ~16 points.
  std::vector<int64_t> values;
  std::mt19937_64 rng(19);
  for (int b = 0; b < 400; ++b) {
    int64_t base = static_cast<int64_t>(rng() % 100000);
    for (int i = 0; i < 16; ++i) values.push_back(base + ((b + i) % 2) * 5000);
  }
  Neats compressed = Neats::Compress(values);
  std::vector<int64_t> out(values.size());
  compressed.DecompressRange(0, values.size(), out.data());
  EXPECT_EQ(out, values);
}

TEST(Neats, FragmentIntrospectionIsConsistent) {
  auto values = RandomWalk(5000, 23, 15);
  Neats compressed = Neats::Compress(values);
  uint64_t expected_start = 0;
  for (size_t i = 0; i < compressed.num_fragments(); ++i) {
    auto info = compressed.GetFragment(i);
    EXPECT_EQ(info.start, expected_start);
    EXPECT_GT(info.end, info.start);
    EXPECT_LE(info.origin, info.start);
    EXPECT_GE(info.correction_bits, 0);
    EXPECT_LE(info.correction_bits, 64);
    expected_start = info.end;
  }
  EXPECT_EQ(expected_start, values.size());
}

TEST(Neats, CompressionBeatsRawOnSmoothData) {
  std::vector<int64_t> values;
  std::mt19937_64 rng(29);
  for (int i = 0; i < 50000; ++i) {
    values.push_back(static_cast<int64_t>(
        100000.0 * std::sin(i * 0.001) + static_cast<double>(rng() % 32)));
  }
  Neats compressed = Neats::Compress(values);
  double ratio = static_cast<double>(compressed.SizeInBits()) /
                 (64.0 * static_cast<double>(values.size()));
  EXPECT_LT(ratio, 0.25) << "smooth data should compress below 25%";
  std::vector<int64_t> decoded;
  compressed.Decompress(&decoded);
  EXPECT_EQ(decoded, values);
}

TEST(Neats, ModelSelectionStaysLossless) {
  auto values = RandomWalk(30000, 31, 20);
  Neats compressed = CompressSNeaTS(values);
  std::vector<int64_t> decoded;
  compressed.Decompress(&decoded);
  EXPECT_EQ(decoded, values);
}

TEST(Neats, LeaTSStaysLossless) {
  auto values = RandomWalk(20000, 37, 20);
  Neats compressed = CompressLeaTS(values);
  std::vector<int64_t> decoded;
  compressed.Decompress(&decoded);
  EXPECT_EQ(decoded, values);
  for (size_t i = 0; i < compressed.num_fragments(); ++i) {
    EXPECT_EQ(compressed.GetFragment(i).kind, FunctionKind::kLinear);
  }
}

class NeatsDatasetShapeTest : public ::testing::TestWithParam<int> {};

TEST_P(NeatsDatasetShapeTest, RoundTripOnShape) {
  int shape = GetParam();
  std::mt19937_64 rng(static_cast<uint64_t>(shape) * 101 + 1);
  std::vector<int64_t> values;
  const int n = 6000;
  for (int i = 0; i < n; ++i) {
    double v = 0;
    switch (shape) {
      case 0: v = 2000 * std::sin(i * 0.01); break;                  // seasonal
      case 1: v = 0.5 * i + 300 * std::sin(i * 0.05); break;         // trend+season
      case 2: v = std::exp(0.002 * i); break;                        // growth
      case 3: v = (i / 500) * 1000 + static_cast<double>(rng() % 7); break;  // steps
      case 4: v = 1e12 + static_cast<double>(rng() % 1000); break;   // huge offset
      case 5: v = static_cast<double>(rng() % 3); break;             // tiny alphabet
    }
    values.push_back(static_cast<int64_t>(v));
  }
  CheckRoundTrip(values);
}

INSTANTIATE_TEST_SUITE_P(Shapes, NeatsDatasetShapeTest, ::testing::Range(0, 6));

// ---- Lossy variant ----

TEST(NeatsLossy, MaxErrorGuarantee) {
  auto values = RandomWalk(20000, 41, 60);
  for (int64_t eps : {1, 10, 100, 1000}) {
    NeatsLossy lossy = NeatsLossy::Compress(values, eps);
    std::vector<int64_t> approx;
    lossy.Decompress(&approx);
    ASSERT_EQ(approx.size(), values.size());
    int64_t max_err = 0;
    for (size_t k = 0; k < values.size(); ++k) {
      max_err = std::max(max_err, std::abs(approx[k] - values[k]));
    }
    // eps plus 1 slack for floor/rounding of stored double parameters.
    EXPECT_LE(max_err, eps + 1) << "eps=" << eps;
  }
}

TEST(NeatsLossy, AccessMatchesDecompress) {
  auto values = RandomWalk(10000, 43, 30);
  NeatsLossy lossy = NeatsLossy::Compress(values, 25);
  std::vector<int64_t> approx;
  lossy.Decompress(&approx);
  for (size_t k = 0; k < values.size(); k += 53) {
    EXPECT_EQ(lossy.Access(k), approx[k]);
  }
}

TEST(NeatsLossy, SmallerThanLossless) {
  auto values = RandomWalk(30000, 47, 80);
  Neats lossless = Neats::Compress(values);
  // eps at ~1% of range: lossy must be much smaller than lossless.
  int64_t lo = *std::min_element(values.begin(), values.end());
  int64_t hi = *std::max_element(values.begin(), values.end());
  int64_t eps = std::max<int64_t>(1, (hi - lo) / 100);
  NeatsLossy lossy = NeatsLossy::Compress(values, eps);
  EXPECT_LT(lossy.SizeInBits(), lossless.SizeInBits());
}

TEST(NeatsLossy, EmptyAndTiny) {
  NeatsLossy empty = NeatsLossy::Compress(std::vector<int64_t>{}, 5);
  EXPECT_EQ(empty.size(), 0u);
  NeatsLossy one = NeatsLossy::Compress(std::vector<int64_t>{{77}}, 5);
  EXPECT_EQ(one.size(), 1u);
  EXPECT_NEAR(static_cast<double>(one.Access(0)), 77.0, 5.0);
}

}  // namespace
}  // namespace neats
