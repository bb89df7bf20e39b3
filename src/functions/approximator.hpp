// Longest-fragment eps-approximation (paper, Theorem 1 and Corollary 1).
//
// Given a start index, a function kind and an error bound eps, computes the
// longest fragment T[start, end) that admits an eps-approximation of that
// kind, in time linear in the fragment length, by feeding the transformed
// constraints of each data point into the FeasiblePolygon.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "convex/polygon.hpp"
#include "functions/decode_lanes.hpp"
#include "functions/kinds.hpp"

namespace neats {

/// A fragment of the time series together with its fitted approximation.
/// Indices are 0-based; the fragment covers values[start, end).
///
/// `origin` is the index where the fit's local coordinate system starts
/// (local coordinate of index k is k - origin + 1). It equals `start` except
/// for fragments produced by the partitioner's *suffix edges*, which reuse
/// parameters fitted from an earlier origin: most nonlinear kinds are not
/// closed under coordinate translation, so the original origin must be kept.
struct Fragment {
  uint64_t start = 0;
  uint64_t end = 0;  // exclusive; end == start means "kind not applicable"
  uint64_t origin = 0;
  FunctionKind kind = FunctionKind::kLinear;
  int64_t epsilon = 0;   // error bound the fragment was fitted under
  double params[3] = {0, 0, 0};

  uint64_t length() const { return end - start; }

  /// Prediction ⌊f(k)⌋ at global index k (must satisfy k >= origin).
  int64_t Predict(uint64_t k) const {
    return PredictFloor(kind, params, static_cast<int64_t>(k - origin) + 1);
  }

  /// Predictions for indices [from, from + count) into out (from >= origin),
  /// on the active decode lane.
  void PredictRun(uint64_t from, uint64_t count, int64_t* out) const {
    PredictFloorRun(kind, params, static_cast<int64_t>(from - origin) + 1,
                    count, out);
  }
};

/// Incremental fragment builder: feed points one at a time.
///
/// Usage: construct with (start, kind, eps, y_first), then call TryExtend for
/// values[start], values[start+1], ... until it returns false; Finish() then
/// yields the fitted parameters for the covered prefix.
class FragmentBuilder {
 public:
  FragmentBuilder(uint64_t start, FunctionKind kind, int64_t eps,
                  int64_t y_first)
      : kind_(kind), eps_(eps) {
    Restart(start, y_first);
  }

  /// Starts a new fragment at `start` (value `y_first`), keeping storage.
  void Restart(uint64_t start, int64_t y_first) {
    start_ = start;
    y_first_ = y_first;
    applicable_ = KindApplicableAtStart(kind_, y_first, eps_);
    covered_ = 0;
    polygon_.Reset();
  }

  /// Tries to extend the fragment with values[index] == y, where index must
  /// advance by one on each call starting from start. Returns false if the
  /// fragment cannot cover this point (the builder stays valid for Finish).
  bool TryExtend(uint64_t index, int64_t y) {
    NEATS_DCHECK(index == start_ + covered_);
    if (!applicable_) return false;
    const int64_t xi = static_cast<int64_t>(index - start_) + 1;
    if (IsThroughFirst(kind_) && xi == 1) {
      // The first point is interpolated exactly via the third parameter.
      ++covered_;
      return true;
    }
    TransformedConstraint c;
    if (!TransformConstraint(kind_, xi, y, eps_, y_first_, &c)) return false;
    if (!polygon_.AddConstraint(c.t, c.alpha, c.omega)) return false;
    ++covered_;
    return true;
  }

  /// Returns the fitted fragment for the covered prefix (length >= 1 unless
  /// the kind was inapplicable, in which case end == start).
  Fragment Finish() const {
    Fragment frag;
    frag.start = start_;
    frag.end = start_ + covered_;
    frag.origin = start_;
    frag.kind = kind_;
    frag.epsilon = eps_;
    if (covered_ == 0) return frag;

    long double m = 0, b = 0;
    if (polygon_.num_constraints() > 0) {
      DualPoint p = polygon_.PickPoint();
      m = p.m;
      b = p.b;
    }
    frag.params[0] = static_cast<double>(m);
    frag.params[1] = static_cast<double>(b);
    if (IsThroughFirst(kind_)) {
      // Fix the third parameter so the curve passes through (1, y_first).
      // Computed from the *stored* double parameters for determinism.
      double sum = frag.params[0] + frag.params[1];
      if (kind_ == FunctionKind::kGaussian) {
        frag.params[2] = std::log(static_cast<double>(y_first_)) - sum;
      } else {
        frag.params[2] = static_cast<double>(y_first_) - sum;
      }
    }
    return frag;
  }

 private:
  FunctionKind kind_;
  int64_t eps_;
  uint64_t start_ = 0;
  int64_t y_first_ = 0;
  bool applicable_ = true;
  uint64_t covered_ = 0;
  FeasiblePolygon polygon_;
};

/// MAKEAPPROXIMATION of the paper: restarts `builder` at `start` and returns
/// the longest fragment of its (kind, eps) from there, in O(fragment length)
/// and without allocating once the builder's polygon has grown.
inline Fragment LongestFragment(std::span<const int64_t> values, uint64_t start,
                                FragmentBuilder* builder) {
  NEATS_DCHECK(start < values.size());
  builder->Restart(start, values[start]);
  for (uint64_t k = start; k < values.size(); ++k) {
    if (!builder->TryExtend(k, values[k])) break;
  }
  return builder->Finish();
}

/// LongestFragment of `kind` and `eps` from `start`, on a fresh builder.
inline Fragment LongestFragment(std::span<const int64_t> values, uint64_t start,
                                FunctionKind kind, int64_t eps) {
  FragmentBuilder builder(start, kind, eps, values[start]);
  return LongestFragment(values, start, &builder);
}

/// Corollary 1: the piecewise eps-approximation of the whole series with the
/// minimum number of fragments of a single kind. Points where the kind is
/// not applicable fall back to a Linear fragment (always applicable).
inline std::vector<Fragment> PiecewiseApproximation(
    std::span<const int64_t> values, FunctionKind kind, int64_t eps) {
  std::vector<Fragment> result;
  uint64_t start = 0;
  while (start < values.size()) {
    Fragment frag = LongestFragment(values, start, kind, eps);
    if (frag.length() == 0) {
      frag = LongestFragment(values, start, FunctionKind::kLinear, eps);
    }
    NEATS_DCHECK(frag.length() > 0);
    result.push_back(frag);
    start = frag.end;
  }
  return result;
}

}  // namespace neats
