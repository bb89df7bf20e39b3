// Pinned floating-point evaluation: the arithmetic every NeaTS reader and
// writer uses to turn a stored model into a prediction.
//
// A blob stores corrections y - floor(f(x)), so a reader reproduces y only
// if it evaluates f(x) with exactly the roundings the writer used. The
// compiler may not pick those roundings for us: with -ffp-contract=fast it
// fuses any `a * b + c` into one fused multiply-add (one rounding instead of
// two), and libm's exp/log differ between versions. So the functions below
// are written under three rules:
//
//   - every multiply whose result feeds an add or subtract is an explicit
//     Fma (the rounding is then fixed whether or not the compiler contracts);
//     a product may feed a multiply, a divide, a comparison or the addend of
//     an Fma, none of which the compiler fuses;
//   - Exp and Log are built here from IEEE +, -, *, / and fma with an exact
//     range reduction (no libm call), so they give the same bits everywhere;
//   - floor and the int64 conversion are integer operations on values that
//     are already exact, so they cannot round differently either.
//
// sqrt is correctly rounded by IEEE 754, so __builtin_sqrt needs no pinning.
// Everything is always_inline: a caller compiled for the FMA instruction set
// (the decode lanes in src/functions/decode_lanes.hpp) gets the instruction
// inlined, while a baseline x86-64 caller gets the libm fma call. Both are
// correctly rounded, so the results are identical bit for bit.

#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>

#if defined(__GNUC__) || defined(__clang__)
#define NEATS_PINNED_INLINE [[gnu::always_inline]] inline
#else
#define NEATS_PINNED_INLINE inline
#endif

namespace neats::pinned {

/// a * b + c with one rounding.
NEATS_PINNED_INLINE double Fma(double a, double b, double c) {
  return __builtin_fma(a, b, c);
}

/// sqrt(x), correctly rounded (no errno path: callers pass x >= 1).
NEATS_PINNED_INLINE double Sqrt(double x) { return __builtin_sqrt(x); }

// --- exp ---------------------------------------------------------------
//
// x = k*ln2 + r with k = round(x / ln2) and |r| <= ~ln2/2; exp(r) is a
// degree-13 Taylor polynomial (truncation error below 2^-57), and 2^k is
// applied as two exact power-of-two factors 2^k1 * 2^k2 (k1 = floor(k/2)),
// so results in the subnormal range round once and large k cannot overflow
// the exponent field. Inputs are clamped to [-746, 710], where exp is
// already 0 resp. +inf after rounding; NaN passes through.

inline constexpr double kExpShift = 0x1.8p52;  // round-to-integer constant
inline constexpr double kInvLn2 = 0x1.71547652b82fep0;
inline constexpr double kLn2Hi = 0x1.62e42fefa39efp-1;   // ln2 rounded
inline constexpr double kLn2Lo = 0x1.abc9e3b39803fp-56;  // ln2 - kLn2Hi
inline constexpr double kExpMin = -746.0;
inline constexpr double kExpMax = 710.0;
inline constexpr int kExpDegree = 13;

/// 1/n! for n = 0..kExpDegree, each correctly rounded (n! < 2^53 is exact).
inline constexpr std::array<double, kExpDegree + 1> kExpCoeffs = [] {
  std::array<double, kExpDegree + 1> c{};
  double f = 1.0;
  for (int n = 0; n <= kExpDegree; ++n) {
    if (n > 1) f *= n;
    c[static_cast<size_t>(n)] = 1.0 / f;
  }
  return c;
}();

/// The polynomial part of Exp: e^r for |r| <= ~0.35, Horner with Fma.
NEATS_PINNED_INLINE double ExpPoly(double r) {
  double p = kExpCoeffs[kExpDegree];
  for (int n = kExpDegree - 1; n >= 0; --n) {
    p = Fma(p, r, kExpCoeffs[static_cast<size_t>(n)]);
  }
  return p;
}

/// 2^k as a double, for k in [-1022, 1023].
NEATS_PINNED_INLINE double Pow2(int64_t k) {
  return std::bit_cast<double>(static_cast<uint64_t>(k + 1023) << 52);
}

/// e^x; within 1 ulp of the exact value on normal results (see
/// tests/pinned_math_test.cpp for the measured bound).
NEATS_PINNED_INLINE double Exp(double x) {
  if (x != x) return x;  // NaN
  const double xc = x < kExpMin ? kExpMin : (x > kExpMax ? kExpMax : x);
  const double t = Fma(xc, kInvLn2, kExpShift);
  const double kd = t - kExpShift;  // exact: round(x / ln2)
  double r = Fma(kd, -kLn2Hi, xc);
  r = Fma(kd, -kLn2Lo, r);
  const int64_t k = static_cast<int64_t>(kd);
  const int64_t k1 = k >> 1;  // floor(k / 2)
  return ExpPoly(r) * Pow2(k1) * Pow2(k - k1);
}

// --- log ---------------------------------------------------------------
//
// x = 2^e * m with m in [sqrt(2)/2, sqrt(2)), f = m - 1 (exact), and
// log(1 + f) = f - f^2/2 + s * (f^2/2 + R) with s = f / (2 + f) and
// R = sum_{i>=1} 2 s^(2i) / (2i + 1) (fdlibm's decomposition, with Taylor
// coefficients through s^20; truncation error below 2^-60).

inline constexpr double kSqrt2 = 0x1.6a09e667f3bcdp0;
inline constexpr int kLogTerms = 10;

/// 2 / (2n + 1) for n = 0..kLogTerms, each correctly rounded (entry 0 is
/// unused).
inline constexpr std::array<double, kLogTerms + 1> kLogCoeffs = [] {
  std::array<double, kLogTerms + 1> c{};
  for (int n = 0; n <= kLogTerms; ++n) {
    c[static_cast<size_t>(n)] = 2.0 / (2 * n + 1);
  }
  return c;
}();

/// Natural logarithm; log(0) = -inf, log(x < 0) = NaN, log(+inf) = +inf.
NEATS_PINNED_INLINE double Log(double x) {
  if (!(x > 0.0)) {  // zero, negative or NaN
    if (x == 0.0) return -std::numeric_limits<double>::infinity();
    return x != x ? x : std::numeric_limits<double>::quiet_NaN();
  }
  if (x == std::numeric_limits<double>::infinity()) return x;
  uint64_t bits = std::bit_cast<uint64_t>(x);
  int64_t e = 0;
  if (bits < (uint64_t{1} << 52)) {  // subnormal: scale into the normal range
    bits = std::bit_cast<uint64_t>(x * 0x1p54);
    e = -54;
  }
  e += static_cast<int64_t>(bits >> 52) - 1023;
  uint64_t mbits = (bits & ((uint64_t{1} << 52) - 1)) | 0x3FF0000000000000ULL;
  if (mbits > std::bit_cast<uint64_t>(kSqrt2)) {  // m /= 2, exactly
    mbits -= uint64_t{1} << 52;
    ++e;
  }
  const double f = std::bit_cast<double>(mbits) - 1.0;  // exact (Sterbenz)
  const double s = f / (2.0 + f);
  const double z = s * s;
  double p = kLogCoeffs[kLogTerms];
  for (int n = kLogTerms - 1; n >= 1; --n) {
    p = Fma(p, z, kLogCoeffs[static_cast<size_t>(n)]);
  }
  const double r = z * p;
  const double h = 0.5 * f;                      // exact
  const double hr = Fma(h, f, r);                // f^2/2 + R
  const double ed = static_cast<double>(e);
  const double lo = Fma(s, hr, ed * kLn2Lo);     // s*(f^2/2 + R) + e*ln2_lo
  const double mid = Fma(h, f, -lo) - f;         // f^2/2 - lo - f
  return Fma(ed, kLn2Hi, -mid);
}

// --- floor to int64 ----------------------------------------------------

/// Predictions are clamped to ±kClamp (= kMaxAbsValue, src/functions/kinds.hpp).
inline constexpr double kClamp = 0x1p61;

/// floor(v) clamped to [-2^61, 2^61], NaN mapped to 0 — the ⌊f(x)⌋ of the
/// paper. The truncating conversion is exact on the clamped range and the
/// comparison turns truncation into floor, so no libm floor is called.
NEATS_PINNED_INLINE int64_t FloorClamped(double v) {
  constexpr double kMax = kClamp;
  v = v != v ? 0.0 : v;
  v = v < kMax ? v : kMax;
  v = v > -kMax ? v : -kMax;
  const int64_t i = static_cast<int64_t>(v);
  return i - (static_cast<double>(i) > v ? 1 : 0);
}

}  // namespace neats::pinned
