#include "functions/approximator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include "functions/kinds.hpp"

namespace neats {
namespace {

// Checks that the fragment's fitted function is within eps of every covered
// value, modulo the floor (so the allowed band is [-eps-1, eps] around the
// floored prediction... we check the un-floored prediction with 1 ULP slack).
void CheckFragmentApproximates(const std::vector<int64_t>& values,
                               const Fragment& frag, double slack = 1e-6) {
  for (uint64_t k = frag.start; k < frag.end; ++k) {
    double pred =
        PredictValue(frag.kind, frag.params,
                     static_cast<int64_t>(k - frag.origin) + 1);
    double err = std::abs(pred - static_cast<double>(values[k]));
    EXPECT_LE(err, static_cast<double>(frag.epsilon) +
                       slack * (1.0 + std::abs(pred)))
        << "kind=" << KindName(frag.kind) << " k=" << k;
  }
}

std::vector<int64_t> FromDoubles(const std::vector<double>& xs) {
  std::vector<int64_t> out(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) out[i] = std::llround(xs[i]);
  return out;
}

// --- Exact-generation tests: data generated from each kind (plus noise
// within eps) must be covered by a single fragment of that kind. ---

class ExactKindTest : public ::testing::TestWithParam<FunctionKind> {};

TEST_P(ExactKindTest, SingleFragmentCoversGeneratedData) {
  FunctionKind kind = GetParam();
  const int n = 300;
  const int64_t eps = 8;
  std::mt19937_64 rng(static_cast<uint64_t>(kind) + 17);
  std::uniform_int_distribution<int64_t> noise(-6, 6);

  std::vector<double> raw(n);
  for (int i = 0; i < n; ++i) {
    double x = i + 1;  // local coordinate, matches a fragment starting at 0
    double v = 0;
    switch (kind) {
      case FunctionKind::kLinear: v = 3.5 * x + 1000; break;
      case FunctionKind::kQuadratic: v = 0.25 * x * x + 500; break;
      case FunctionKind::kRadical: v = 120 * std::sqrt(x) + 40; break;
      case FunctionKind::kExponential: v = 900 * std::exp(0.018 * x); break;
      case FunctionKind::kPower: v = 15 * std::pow(x, 1.4); break;
      case FunctionKind::kLogarithm: v = 400 * std::log(x) + 800; break;
      case FunctionKind::kQuadMixed: v = 0.3 * x * x + 11 * x; break;
      case FunctionKind::kCubicOdd: v = 0.002 * x * x * x + 7 * x; break;
      case FunctionKind::kCubicMixed: v = 0.001 * x * x * x + 0.4 * x * x; break;
      case FunctionKind::kQuadraticFull: v = 0.2 * x * x - 9 * x + 4000; break;
      case FunctionKind::kGaussian:
        // Keep the tails comfortably above eps so ln(y - eps) stays defined,
        // and the peak/first-point ratio small enough that rounding the
        // (exactly interpolated) first value cannot push the peak out of the
        // eps band.
        v = 5000 * std::exp(-0.00008 * (x - 150) * (x - 150));
        break;
    }
    raw[i] = v;
  }
  std::vector<int64_t> values = FromDoubles(raw);
  // Through-first kinds interpolate the first value exactly; noise there is
  // amplified multiplicatively (Gaussian) or quadratically (QuadraticFull),
  // so the single-fragment property only holds for noise-free data.
  if (!IsThroughFirst(kind)) {
    for (auto& v : values) v += noise(rng);
  }

  Fragment frag = LongestFragment(values, 0, kind, eps);
  EXPECT_EQ(frag.start, 0u);
  EXPECT_EQ(frag.end, static_cast<uint64_t>(n))
      << "kind " << KindName(kind) << " stopped early at " << frag.end;
  CheckFragmentApproximates(values, frag, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ExactKindTest,
    ::testing::Values(FunctionKind::kLinear, FunctionKind::kQuadratic,
                      FunctionKind::kRadical, FunctionKind::kExponential,
                      FunctionKind::kPower, FunctionKind::kLogarithm,
                      FunctionKind::kQuadMixed, FunctionKind::kCubicOdd,
                      FunctionKind::kCubicMixed, FunctionKind::kQuadraticFull,
                      FunctionKind::kGaussian),
    [](const ::testing::TestParamInfo<FunctionKind>& info) {
      return std::string(KindName(info.param));
    });

// --- Maximality: the returned fragment cannot be extended by one point. ---

TEST(Approximator, LinearFragmentIsMaximal) {
  // Line then a break: fragment must stop exactly at the break.
  std::vector<int64_t> values;
  for (int i = 0; i < 100; ++i) values.push_back(10 * i + 5);
  for (int i = 0; i < 50; ++i) values.push_back(3000 - 100 * i);
  Fragment frag = LongestFragment(values, 0, FunctionKind::kLinear, 2);
  // The fragment may include a couple of points past the corner (a line can
  // still fit them within eps), but extending to its end+1 must fail.
  FragmentBuilder builder(0, FunctionKind::kLinear, 2, values[0]);
  for (uint64_t k = 0; k < frag.end; ++k) {
    ASSERT_TRUE(builder.TryExtend(k, values[k]));
  }
  EXPECT_FALSE(builder.TryExtend(frag.end, values[frag.end]));
}

TEST(Approximator, ZeroEpsExactLine) {
  std::vector<int64_t> values;
  for (int i = 0; i < 1000; ++i) values.push_back(7 * i - 300);
  Fragment frag = LongestFragment(values, 0, FunctionKind::kLinear, 0);
  EXPECT_EQ(frag.end, values.size());
  for (uint64_t k = 0; k < values.size(); ++k) {
    EXPECT_EQ(frag.Predict(k), values[k]);
  }
}

TEST(Approximator, ConstantSeriesCoveredByOneFragmentAnyKind) {
  std::vector<int64_t> values(500, 42);
  for (FunctionKind kind :
       {FunctionKind::kLinear, FunctionKind::kQuadratic, FunctionKind::kRadical,
        FunctionKind::kExponential, FunctionKind::kLogarithm}) {
    Fragment frag = LongestFragment(values, 0, kind, 1);
    EXPECT_EQ(frag.end, values.size()) << KindName(kind);
    CheckFragmentApproximates(values, frag);
  }
}

TEST(Approximator, ExponentialDomainGuard) {
  // Negative values: exponential/power kinds are inapplicable at start.
  std::vector<int64_t> values = {-5, -4, -3};
  Fragment frag = LongestFragment(values, 0, FunctionKind::kExponential, 1);
  EXPECT_EQ(frag.length(), 0u);
  frag = LongestFragment(values, 0, FunctionKind::kPower, 1);
  EXPECT_EQ(frag.length(), 0u);
  // ... but fine once shifted positive.
  std::vector<int64_t> shifted = {5, 4, 3};
  frag = LongestFragment(shifted, 0, FunctionKind::kExponential, 1);
  EXPECT_GT(frag.length(), 0u);
}

TEST(Approximator, ExponentialStopsWhenLogUndefined) {
  // y - eps <= 0 at the fourth point: fragment must stop before it.
  std::vector<int64_t> values = {100, 50, 25, 2, 1, 1};
  Fragment frag = LongestFragment(values, 0, FunctionKind::kExponential, 3);
  EXPECT_LE(frag.end, 3u);
  EXPECT_GT(frag.length(), 0u);
}

TEST(Approximator, GaussianInapplicableAtNonPositiveStart) {
  std::vector<int64_t> values = {0, 5, 10};
  Fragment frag = LongestFragment(values, 0, FunctionKind::kGaussian, 1);
  EXPECT_EQ(frag.length(), 0u);
}

TEST(Approximator, ThroughFirstKindsInterpolateFirstPoint) {
  std::mt19937_64 rng(5);
  std::vector<int64_t> values;
  for (int i = 0; i < 50; ++i) {
    values.push_back(1000 + static_cast<int64_t>(rng() % 200));
  }
  for (FunctionKind kind :
       {FunctionKind::kQuadraticFull, FunctionKind::kGaussian}) {
    Fragment frag = LongestFragment(values, 0, kind, 500);
    ASSERT_GT(frag.length(), 0u) << KindName(kind);
    // The first covered value must be predicted (nearly) exactly.
    double pred = PredictValue(frag.kind, frag.params, 1);
    EXPECT_NEAR(pred, static_cast<double>(values[0]),
                1e-9 * (1 + std::abs(pred)))
        << KindName(kind);
  }
}

TEST(Approximator, SingleTrailingPointFragment) {
  std::vector<int64_t> values = {0, 1000000, 3};
  Fragment frag = LongestFragment(values, 2, FunctionKind::kLinear, 0);
  EXPECT_EQ(frag.start, 2u);
  EXPECT_EQ(frag.end, 3u);
  EXPECT_EQ(frag.Predict(2), 3);
}

TEST(Approximator, PiecewiseCoversWholeSeries) {
  std::mt19937_64 rng(9);
  std::vector<int64_t> values;
  int64_t cur = 0;
  for (int i = 0; i < 5000; ++i) {
    cur += static_cast<int64_t>(rng() % 21) - 10;
    values.push_back(cur);
  }
  for (int64_t eps : {0, 1, 4, 64}) {
    auto fragments = PiecewiseApproximation(values, FunctionKind::kLinear, eps);
    uint64_t expected_start = 0;
    for (const auto& frag : fragments) {
      EXPECT_EQ(frag.start, expected_start);
      EXPECT_GT(frag.length(), 0u);
      CheckFragmentApproximates(values, frag);
      expected_start = frag.end;
    }
    EXPECT_EQ(expected_start, values.size());
  }
}

TEST(Approximator, LargerEpsNeverMoreFragments) {
  std::mt19937_64 rng(13);
  std::vector<int64_t> values;
  for (int i = 0; i < 3000; ++i) {
    values.push_back(static_cast<int64_t>(
        2000 * std::sin(i * 0.01) + static_cast<double>(rng() % 50)));
  }
  size_t prev = SIZE_MAX;
  for (int64_t eps : {1, 2, 8, 32, 128, 1024}) {
    auto fragments = PiecewiseApproximation(values, FunctionKind::kLinear, eps);
    EXPECT_LE(fragments.size(), prev) << "eps=" << eps;
    prev = fragments.size();
  }
}

// Greedy longest-prefix partitioning yields the minimum number of pieces
// (Corollary 1). Verify against an O(n^2) DP that uses the same feasibility
// primitive on small inputs.
TEST(Approximator, GreedyMatchesDPPieceCount) {
  std::mt19937_64 rng(21);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<int64_t> values;
    int64_t cur = static_cast<int64_t>(rng() % 100);
    for (int i = 0; i < 120; ++i) {
      cur += static_cast<int64_t>(rng() % 31) - 15;
      values.push_back(cur);
    }
    const int64_t eps = 3;
    auto greedy = PiecewiseApproximation(values, FunctionKind::kLinear, eps);

    // DP over prefixes: dp[j] = min pieces to cover values[0, j).
    const size_t n = values.size();
    std::vector<int> dp(n + 1, INT32_MAX);
    dp[0] = 0;
    for (size_t i = 0; i < n; ++i) {
      if (dp[i] == INT32_MAX) continue;
      FragmentBuilder builder(i, FunctionKind::kLinear, eps, values[i]);
      for (size_t j = i; j < n && builder.TryExtend(j, values[j]); ++j) {
        dp[j + 1] = std::min(dp[j + 1], dp[i] + 1);
      }
    }
    EXPECT_EQ(greedy.size(), static_cast<size_t>(dp[n])) << "trial " << trial;
  }
}

// A reused builder (the partitioner keeps one per (kind, eps) pair and
// restarts it at every rebuild) must fit exactly what a fresh builder fits —
// after long fragments, after inapplicable starts, and right after a failed
// TryExtend. The series mixes regimes: a line, a parabola, non-positive
// values (exponential/power/Gaussian inapplicable), an exponential, small
// positive noise (y - eps <= 0 for the larger eps) and a large sqrt trend.
TEST(Approximator, ReusedBuilderMatchesFreshBuilder) {
  std::mt19937_64 rng(5);
  std::vector<int64_t> values;
  for (int i = 0; i < 60; ++i) values.push_back(1000 + 3 * i);
  for (int i = 0; i < 60; ++i) values.push_back(1200 + i * i / 2);
  for (int i = 0; i < 40; ++i) values.push_back(-5 + i % 7 - 3);
  for (int i = 0; i < 60; ++i) {
    values.push_back(std::llround(50 * std::exp(0.03 * i)));
  }
  for (int i = 0; i < 40; ++i) {
    values.push_back(1 + static_cast<int64_t>(rng() % 40));
  }
  for (int i = 0; i < 60; ++i) {
    values.push_back(1000000 + std::llround(900 * std::sqrt(i + 1.0)));
  }

  for (int id = 0; id < kNumFunctionKinds; ++id) {
    const FunctionKind kind = static_cast<FunctionKind>(id);
    for (int64_t eps : {0, 1, 8, 500}) {
      FragmentBuilder reused(0, kind, eps, values[0]);
      for (uint64_t start = 0; start < values.size(); ++start) {
        Fragment got = LongestFragment(values, start, &reused);
        Fragment want = LongestFragment(values, start, kind, eps);
        ASSERT_EQ(got.start, want.start);
        ASSERT_EQ(got.end, want.end)
            << KindName(kind) << " eps=" << eps << " start=" << start;
        ASSERT_EQ(got.origin, want.origin);
        ASSERT_EQ(got.kind, want.kind);
        ASSERT_EQ(got.epsilon, want.epsilon);
        ASSERT_EQ(std::memcmp(got.params, want.params, sizeof(got.params)), 0)
            << KindName(kind) << " eps=" << eps << " start=" << start;
      }
    }
  }
}

}  // namespace
}  // namespace neats
