// The catalogue of two/three-parameter function kinds (paper, Table I).
//
// Every kind is described by the change of variables that turns its
// eps-approximation constraints into half-plane constraints
// alpha_k <= t_k*m + b <= omega_k (paper, Theorem 1):
//
//   kind                f(x)                   t_k        alpha_k / omega_k
//   -------------------------------------------------------------------------
//   Linear              m*x + b                x          y -+ eps
//   Quadratic           m*x^2 + b              x^2        y -+ eps
//   Radical             m*sqrt(x) + b          sqrt(x)    y -+ eps
//   Exponential         e^b * e^(m*x)          x          ln(y -+ eps)
//   Power               e^b * x^m              ln(x)      ln(y -+ eps)
//   Logarithm           m*ln(x) + b            ln(x)      y -+ eps
//   QuadMixed           m*x^2 + b*x            x          (y -+ eps)/x
//   CubicOdd            m*x^3 + b*x            x^2        (y -+ eps)/x
//   CubicMixed          m*x^3 + b*x^2          x          (y -+ eps)/x^2
//   QuadraticFull (3p)  m*x^2 + b*x + c        x + x_i    (y - y_i -+ eps)/(x - x_i)
//   Gaussian (3p)       e^(m*x^2 + b*x + c)    x + x_i    (ln(y -+ eps) - ln y_i)/(x - x_i)
//
// The two 3-parameter kinds are constrained to pass through the fragment's
// first data point (x_i, y_i), which fixes the third parameter c and reduces
// the feasible set to a 2D polygon (paper, Sec. III-A). All kinds operate on
// fragment-local coordinates x = (index - start + 1) >= 1 (paper, footnote 4),
// which both conditions the arithmetic and makes ln(x) well defined.
//
// Kinds taking ln(y -+ eps) require y - eps > 0; the NeaTS compressor
// guarantees positivity of values via a global shift (paper, footnote 2), and
// the approximator stops fragments of such kinds at any point where the
// current eps makes the logarithm undefined.

#pragma once

#include <cmath>
#include <cstdint>
#include <string_view>

#include "common/assert.hpp"
#include "functions/pinned_math.hpp"

namespace neats {

/// Identifier of an approximation function kind. Stable numbering: these ids
/// are stored inside the compressed representation (K array).
enum class FunctionKind : uint8_t {
  kLinear = 0,
  kQuadratic = 1,
  kRadical = 2,
  kExponential = 3,
  kPower = 4,
  kLogarithm = 5,
  kQuadMixed = 6,
  kCubicOdd = 7,
  kCubicMixed = 8,
  kQuadraticFull = 9,  // 3 parameters, through the first point
  kGaussian = 10,      // 3 parameters, through the first point
};

/// Number of kinds (size of the full catalogue).
inline constexpr int kNumFunctionKinds = 11;

/// Human-readable kind name.
inline std::string_view KindName(FunctionKind kind) {
  switch (kind) {
    case FunctionKind::kLinear: return "linear";
    case FunctionKind::kQuadratic: return "quadratic";
    case FunctionKind::kRadical: return "radical";
    case FunctionKind::kExponential: return "exponential";
    case FunctionKind::kPower: return "power";
    case FunctionKind::kLogarithm: return "logarithm";
    case FunctionKind::kQuadMixed: return "quad_mixed";
    case FunctionKind::kCubicOdd: return "cubic_odd";
    case FunctionKind::kCubicMixed: return "cubic_mixed";
    case FunctionKind::kQuadraticFull: return "quadratic_full";
    case FunctionKind::kGaussian: return "gaussian";
  }
  return "?";
}

/// Number of stored parameters for a kind (2, or 3 for through-first kinds).
inline constexpr int NumParams(FunctionKind kind) {
  return (kind == FunctionKind::kQuadraticFull ||
          kind == FunctionKind::kGaussian)
             ? 3
             : 2;
}

/// True for the 3-parameter kinds constrained through the first data point.
inline constexpr bool IsThroughFirst(FunctionKind kind) {
  return NumParams(kind) == 3;
}

/// One half-plane constraint pair in the transformed space.
struct TransformedConstraint {
  long double t;
  long double alpha;
  long double omega;
};

/// Computes the transformed constraint of `kind` for the data point with
/// fragment-local coordinate `xi` (>= 1) and value `y`, under error bound
/// `eps`. For through-first kinds, `y_first` is the value at the fragment's
/// first point and `xi` must be >= 2 (the first point carries no constraint).
/// Returns false if the point is outside the kind's domain (e.g. a
/// non-positive ln argument), in which case the fragment cannot cover it.
inline bool TransformConstraint(FunctionKind kind, int64_t xi, int64_t y,
                                int64_t eps, int64_t y_first,
                                TransformedConstraint* out) {
  const long double x = static_cast<long double>(xi);
  const long double lo = static_cast<long double>(y) - static_cast<long double>(eps);
  const long double hi = static_cast<long double>(y) + static_cast<long double>(eps);
  switch (kind) {
    case FunctionKind::kLinear:
      *out = {x, lo, hi};
      return true;
    case FunctionKind::kQuadratic:
      *out = {x * x, lo, hi};
      return true;
    case FunctionKind::kRadical:
      *out = {sqrtl(x), lo, hi};
      return true;
    case FunctionKind::kExponential:
      if (lo <= 0) return false;
      *out = {x, logl(lo), logl(hi)};
      return true;
    case FunctionKind::kPower:
      if (lo <= 0) return false;
      *out = {logl(x), logl(lo), logl(hi)};
      return true;
    case FunctionKind::kLogarithm:
      *out = {logl(x), lo, hi};
      return true;
    case FunctionKind::kQuadMixed:
      *out = {x, lo / x, hi / x};
      return true;
    case FunctionKind::kCubicOdd:
      *out = {x * x, lo / x, hi / x};
      return true;
    case FunctionKind::kCubicMixed:
      *out = {x, lo / (x * x), hi / (x * x)};
      return true;
    case FunctionKind::kQuadraticFull: {
      NEATS_DCHECK(xi >= 2);
      const long double dx = x - 1.0L;  // x_i == 1 in local coordinates
      const long double dy = static_cast<long double>(y - y_first);
      *out = {x + 1.0L, (dy - eps) / dx, (dy + eps) / dx};
      return true;
    }
    case FunctionKind::kGaussian: {
      NEATS_DCHECK(xi >= 2);
      if (lo <= 0 || y_first <= 0) return false;
      const long double dx = x - 1.0L;
      const long double ly0 = logl(static_cast<long double>(y_first));
      *out = {x + 1.0L, (logl(lo) - ly0) / dx, (logl(hi) - ly0) / dx};
      return true;
    }
  }
  return false;
}

/// True if a fragment of `kind` may start at a point with value `y_first`
/// under error bound `eps` (domain check for the first covered point).
inline bool KindApplicableAtStart(FunctionKind kind, int64_t y_first,
                                  int64_t eps) {
  switch (kind) {
    case FunctionKind::kExponential:
    case FunctionKind::kPower:
      return y_first - eps > 0;
    case FunctionKind::kGaussian:
      return y_first > 0;
    default:
      return true;
  }
}

/// Largest magnitude the compressor accepts for input values; predictions are
/// clamped to this band so residuals never overflow int64.
inline constexpr int64_t kMaxAbsValue = int64_t{1} << 61;
static_assert(static_cast<double>(kMaxAbsValue) == pinned::kClamp);

/// f(x) of `kind` with stored parameters `params` at the fragment-local
/// coordinate x — the pinned definition (src/functions/pinned_math.hpp):
/// every multiply feeding an add is an explicit Fma and exp/log are the
/// in-repo ones, so writer and reader round identically in every build. The
/// vector decode lanes (src/functions/decode_lanes.hpp) run the same
/// operation sequence per lane.
template <FunctionKind KIND>
NEATS_PINNED_INLINE double EvalKind(const double* params, double x) {
  using pinned::Exp;
  using pinned::Fma;
  using pinned::Log;
  const double m = params[0];
  const double b = params[1];
  switch (KIND) {
    case FunctionKind::kLinear: return Fma(m, x, b);
    case FunctionKind::kQuadratic: return Fma(m, x * x, b);
    case FunctionKind::kRadical: return Fma(m, pinned::Sqrt(x), b);
    case FunctionKind::kExponential: return Exp(Fma(m, x, b));
    case FunctionKind::kPower: return Exp(Fma(m, Log(x), b));
    case FunctionKind::kLogarithm: return Fma(m, Log(x), b);
    case FunctionKind::kQuadMixed: return Fma(m, x, b) * x;
    case FunctionKind::kCubicOdd: return Fma(m, x * x, b) * x;
    case FunctionKind::kCubicMixed: return Fma(m, x, b) * x * x;
    case FunctionKind::kQuadraticFull: return Fma(Fma(m, x, b), x, params[2]);
    case FunctionKind::kGaussian: return Exp(Fma(Fma(m, x, b), x, params[2]));
  }
  return 0.0;
}

/// ⌊f(xi)⌋ of KIND, clamped to ±kMaxAbsValue with NaN mapped to 0: the
/// prediction Algorithms 2 and 3 add a correction to.
template <FunctionKind KIND>
NEATS_PINNED_INLINE int64_t PredictFloorKind(const double* params, int64_t xi) {
  return pinned::FloorClamped(EvalKind<KIND>(params, static_cast<double>(xi)));
}

/// Expands X(kind) for every FunctionKind, in id order — the one list every
/// runtime-kind to compile-time-kind switch and per-kind table is built from.
#define NEATS_FOR_EACH_KIND(X)                                              \
  X(kLinear) X(kQuadratic) X(kRadical) X(kExponential) X(kPower)           \
  X(kLogarithm) X(kQuadMixed) X(kCubicOdd) X(kCubicMixed) X(kQuadraticFull) \
  X(kGaussian)

/// Evaluates the approximation of `kind` with stored parameters `params`
/// (as produced by the approximator) at fragment-local coordinate `xi`, with
/// the pinned arithmetic above.
inline double PredictValue(FunctionKind kind, const double* params,
                           int64_t xi) {
  const double x = static_cast<double>(xi);
  switch (kind) {
#define NEATS_EVAL_CASE(K) \
  case FunctionKind::K: return EvalKind<FunctionKind::K>(params, x);
    NEATS_FOR_EACH_KIND(NEATS_EVAL_CASE)
#undef NEATS_EVAL_CASE
  }
  return 0.0;
}

}  // namespace neats
