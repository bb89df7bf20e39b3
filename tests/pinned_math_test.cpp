// The in-repo exp and log (src/functions/pinned_math.hpp) against libm:
// sweeps over their whole useful domain with a stated ulp bound, the special
// values, and the exactness of the floor conversion. The bound is what the
// decode format relies on only loosely — corrections absorb any error — but
// a regression in the polynomial or the range reduction shows up here first.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

#include "functions/pinned_math.hpp"

namespace neats::pinned {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Distance in ulps between two finite doubles of the same sign.
uint64_t UlpDistance(double a, double b) {
  const int64_t ia = std::bit_cast<int64_t>(a);
  const int64_t ib = std::bit_cast<int64_t>(b);
  return static_cast<uint64_t>(ia > ib ? ia - ib : ib - ia);
}

// Measured on x86-64 glibc 2.36: both functions stay within 1 ulp of libm,
// itself within 1 ulp of the exact value, so 2 ulps bound the error.
constexpr uint64_t kExpUlpBound = 1;
constexpr uint64_t kLogUlpBound = 1;

TEST(PinnedMath, ExpWithinBoundOfLibmAcrossTheDomain) {
  std::mt19937_64 rng(7);
  uint64_t worst = 0;
  double worst_x = 0;
  // Uniform over the whole finite, non-overflowing range (subnormal results
  // included), plus a dense sweep near 0 where the prediction exponents
  // of real fragments live.
  std::uniform_real_distribution<double> wide(-745.0, 709.78);
  std::uniform_real_distribution<double> near(-2.0, 2.0);
  for (int i = 0; i < 400000; ++i) {
    const double x = (i % 2 == 0) ? wide(rng) : near(rng);
    const uint64_t d = UlpDistance(Exp(x), std::exp(x));
    if (d > worst) {
      worst = d;
      worst_x = x;
    }
  }
  EXPECT_LE(worst, kExpUlpBound) << "at x = " << worst_x;
}

TEST(PinnedMath, ExpSpecialValues) {
  EXPECT_EQ(Exp(0.0), 1.0);
  EXPECT_EQ(Exp(-0.0), 1.0);
  EXPECT_EQ(Exp(kInf), kInf);
  EXPECT_EQ(Exp(-kInf), 0.0);
  EXPECT_TRUE(std::isnan(Exp(std::numeric_limits<double>::quiet_NaN())));
  EXPECT_EQ(Exp(710.0), kInf);      // overflow
  EXPECT_EQ(Exp(1e300), kInf);
  EXPECT_EQ(Exp(-746.0), 0.0);      // underflow
  EXPECT_EQ(Exp(-1e300), 0.0);
  EXPECT_TRUE(std::isfinite(Exp(709.78)));
  EXPECT_GT(Exp(-745.0), 0.0);      // the smallest subnormal, not zero
  EXPECT_LE(UlpDistance(Exp(1.0), std::exp(1.0)), kExpUlpBound);
  for (int k = -20; k <= 20; ++k) {  // e^(k ln2) = 2^k up to the bound
    const double x = k * 0.6931471805599453;
    EXPECT_LE(UlpDistance(Exp(x), std::exp(x)), kExpUlpBound) << k;
  }
}

TEST(PinnedMath, LogWithinBoundOfLibmAcrossTheDomain) {
  std::mt19937_64 rng(11);
  uint64_t worst = 0;
  double worst_x = 0;
  std::uniform_real_distribution<double> exponent(-1070.0, 1020.0);
  std::uniform_real_distribution<double> near(0.5, 2.0);
  for (int i = 0; i < 400000; ++i) {
    double x = (i % 2 == 0) ? std::exp2(exponent(rng)) : near(rng);
    if (i % 7 == 0) x = static_cast<double>(rng() % 100000 + 1);  // kinds' ln x
    const uint64_t d = UlpDistance(Log(x), std::log(x));
    if (d > worst) {
      worst = d;
      worst_x = x;
    }
  }
  EXPECT_LE(worst, kLogUlpBound) << "at x = " << worst_x;
}

TEST(PinnedMath, LogSpecialValues) {
  EXPECT_EQ(Log(1.0), 0.0);
  EXPECT_EQ(Log(0.0), -kInf);
  EXPECT_EQ(Log(-0.0), -kInf);
  EXPECT_EQ(Log(kInf), kInf);
  EXPECT_TRUE(std::isnan(Log(-1.0)));
  EXPECT_TRUE(std::isnan(Log(-kInf)));
  EXPECT_TRUE(std::isnan(Log(std::numeric_limits<double>::quiet_NaN())));
  const double tiny = std::numeric_limits<double>::denorm_min();
  EXPECT_LE(UlpDistance(Log(tiny), std::log(tiny)), kLogUlpBound);
  const double big = std::numeric_limits<double>::max();
  EXPECT_LE(UlpDistance(Log(big), std::log(big)), kLogUlpBound);
  for (int k = -1074; k <= 1023; k += 97) {
    const double x = std::ldexp(1.0, k);
    EXPECT_LE(UlpDistance(Log(x), std::log(x)), kLogUlpBound) << k;
  }
}

TEST(PinnedMath, FloorClampedIsExactFloor) {
  std::mt19937_64 rng(5);
  for (int i = 0; i < 200000; ++i) {
    const double mantissa = static_cast<double>(static_cast<int64_t>(rng()));
    const double v = std::ldexp(mantissa, static_cast<int>(rng() % 80) - 70);
    const double c = std::clamp(v, -0x1p61, 0x1p61);
    ASSERT_EQ(FloorClamped(v), static_cast<int64_t>(std::floor(c))) << v;
  }
  EXPECT_EQ(FloorClamped(-0.5), -1);
  EXPECT_EQ(FloorClamped(-0.0), 0);
  EXPECT_EQ(FloorClamped(2.0), 2);
  EXPECT_EQ(FloorClamped(std::numeric_limits<double>::quiet_NaN()), 0);
  EXPECT_EQ(FloorClamped(kInf), int64_t{1} << 61);
  EXPECT_EQ(FloorClamped(-kInf), -(int64_t{1} << 61));
  EXPECT_EQ(FloorClamped(0x1p62), int64_t{1} << 61);
  EXPECT_EQ(FloorClamped(-0x1p61 - 0x1p10), -(int64_t{1} << 61));
  EXPECT_EQ(FloorClamped(0x1p52 + 0.5), (int64_t{1} << 52));
}

}  // namespace
}  // namespace neats::pinned
