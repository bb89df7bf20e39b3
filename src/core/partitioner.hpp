// Space-optimal partitioning of a time series into approximated fragments
// (paper, Algorithm 1).
//
// The series induces a DAG with one node per data point plus a sink: every
// fragment T[i, j) that is eps-approximated by a function f contributes the
// edge (i, j) weighted by the bit size of its encoding, together with all of
// its prefix edges (i, k) and suffix edges (k, j). The shortest 0 -> n path
// is the space-minimal partition. As in the paper, the |F| x |E| piecewise
// approximations are not precomputed: one edge per (f, eps) pair is kept
// "active" and lazily rebuilt, and prefix/suffix edges are relaxed on the
// fly while sweeping the nodes in topological (left-to-right) order, giving
// O(|F| |E| n) total time.
//
// Suffix fragments keep the parameters (and the coordinate origin) of the
// active fragment they were cut from: most nonlinear kinds are not closed
// under coordinate translation, so re-fitting them at the suffix start is
// not possible — the origin travels with the fragment instead (see
// Fragment::origin).

#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "functions/approximator.hpp"
#include "functions/kinds.hpp"

namespace neats {

/// Bit size of the corrections of one value under error bound eps
/// (⌈log(2*eps + 1)⌉ of the paper).
inline int CorrectionBits(int64_t eps) {
  return CeilLog2(2 * static_cast<uint64_t>(eps) + 1);
}

/// Number of bits used to store one correction of a fragment whose residuals
/// span [lo, hi] (two's-complement style, bias 2^(b-1)). This is the width
/// BuildLayout actually stores — CorrectionBits(eps) is only its upper bound.
inline int ResidualBits(int64_t lo, int64_t hi) {
  int bits = 0;
  if (lo < 0) bits = CeilLog2(static_cast<uint64_t>(-lo)) + 1;
  if (hi > 0) bits = std::max(bits, CeilLog2(static_cast<uint64_t>(hi) + 1) + 1);
  return bits;
}

/// Tuning knobs of the partitioner.
struct PartitionOptions {
  /// Set F of function kinds to combine. The paper's default: linear,
  /// exponential, quadratic, and radical (Sec. IV-A).
  std::vector<FunctionKind> kinds = {
      FunctionKind::kLinear, FunctionKind::kExponential,
      FunctionKind::kQuadratic, FunctionKind::kRadical};

  /// Set E of error bounds. Empty means "derive from the data":
  /// {0} ∪ {2^i : i = 0 .. ⌈log Δ⌉} with Δ the value range (Sec. III-B).
  std::vector<int64_t> epsilons;

  /// Bits charged for each stored function parameter.
  int bits_per_parameter = 64;

  /// Estimated per-fragment metadata bits (entries of S, B, O, K, D).
  int fragment_overhead_bits = 48;

  /// Whether to emit suffix edges (disabling them is an ablation; the result
  /// is still a valid partition, just possibly larger).
  bool use_suffix_edges = true;
};

/// Derives the default E set from the data: {0} ∪ {2^i : i <= ⌈log Δ⌉}.
inline std::vector<int64_t> DefaultEpsilons(std::span<const int64_t> values) {
  int64_t lo = values.empty() ? 0 : values[0];
  int64_t hi = lo;
  for (int64_t v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  uint64_t delta = static_cast<uint64_t>(hi - lo) + 1;
  std::vector<int64_t> eps = {0};
  for (int i = 0; i <= CeilLog2(delta) && i < 62; ++i) {
    eps.push_back(int64_t{1} << i);
  }
  return eps;
}

namespace internal {

/// Requires a non-empty (kind, eps) search set kinds × `epsilons` whose
/// every eps lies in [0, kMaxAbsValue].
inline void RequireValidSearchSet(const PartitionOptions& options,
                                  const std::vector<int64_t>& epsilons) {
  NEATS_REQUIRE(!options.kinds.empty() && !epsilons.empty(),
                "empty (kind, eps) search set");
  auto valid = [](int64_t eps) { return eps >= 0 && eps <= kMaxAbsValue; };
  NEATS_REQUIRE(std::ranges::all_of(epsilons, valid),
                "epsilon outside [0, 2^61]");
}

/// Weight of the lossless encoding of a fragment: corrections + parameters
/// + per-fragment metadata (w_{f,eps}(i, j) of the paper).
inline uint64_t LosslessWeight(const Fragment& frag,
                               const PartitionOptions& options) {
  return frag.length() * static_cast<uint64_t>(CorrectionBits(frag.epsilon)) +
         static_cast<uint64_t>(NumParams(frag.kind)) *
             static_cast<uint64_t>(options.bits_per_parameter) +
         static_cast<uint64_t>(options.fragment_overhead_bits);
}

/// Weight of the lossy encoding: parameters + metadata only (corrections are
/// dropped; paper, Sec. III-B "Partitioning for lossy compression").
inline uint64_t LossyWeight(const Fragment& frag,
                            const PartitionOptions& options) {
  return static_cast<uint64_t>(NumParams(frag.kind)) *
             static_cast<uint64_t>(options.bits_per_parameter) +
         static_cast<uint64_t>(options.fragment_overhead_bits);
}

/// Core of Algorithm 1, parameterised on the edge-weight model.
template <typename WeightFn>
std::vector<Fragment> PartitionImpl(std::span<const int64_t> values,
                                    const PartitionOptions& options,
                                    const std::vector<int64_t>& epsilons,
                                    WeightFn&& weight) {
  RequireValidSearchSet(options, epsilons);
  const uint64_t n = values.size();
  if (n == 0) return {};

  // Active fragment per (f, eps) pair; end <= k triggers a rebuild.
  struct Active {
    FragmentBuilder builder;  // restarted by each rebuild: no allocation
    Fragment frag;            // valid iff frag.length() > 0
    uint64_t next_k = 0;      // node at which to rebuild
  };
  std::vector<Active> active;
  active.reserve(options.kinds.size() * epsilons.size());
  for (FunctionKind kind : options.kinds) {
    for (int64_t eps : epsilons) {
      active.push_back({FragmentBuilder(0, kind, eps, values[0]), Fragment{}});
    }
  }

  // One back-pointer per node: the edge's start node, the origin of the
  // active fragment it was cut from, and that fragment's (kind, eps) pair.
  // The chosen fragments are refit from those at backtrack, so the sweep
  // never stores a Fragment per node (72 B against 24 B: 4.7 MiB of
  // scratch for a 64Ki-value series, the peak allocation of a NeaTS seal).
  // Allocated after the builders: the opposite order raised peak RSS with
  // two threads compressing shards (glibc heap placement).
  struct PrevEntry {
    uint64_t from = 0;
    uint64_t origin = 0;
    uint32_t pair = UINT32_MAX;  // UINT32_MAX marks "unset"
  };
  constexpr uint64_t kInf = UINT64_MAX / 2;
  std::vector<uint64_t> distance(n + 1, kInf);
  std::vector<PrevEntry> previous(n + 1);
  distance[0] = 0;

  auto relax = [&](uint64_t i, uint64_t j, const Fragment& frag,
                   const Active& a) {
    if (distance[i] >= kInf) return;
    uint64_t w = weight(frag);
    if (distance[i] + w < distance[j]) {
      distance[j] = distance[i] + w;
      previous[j] = {i, frag.origin,
                     static_cast<uint32_t>(&a - active.data())};
    }
  };

  for (uint64_t k = 0; k < n; ++k) {
    // Phase 1 (paper lines 8-15): rebuild exhausted edges; relax prefix
    // edges of the still-active ones into node k.
    for (Active& a : active) {
      if (a.next_k <= k) {
        a.frag = LongestFragment(values, k, &a.builder);
        a.next_k = (a.frag.length() == 0) ? k + 1 : a.frag.end;
      } else if (a.frag.length() > 0 && a.frag.start < k) {
        Fragment prefix = a.frag;
        prefix.end = k;
        relax(prefix.start, k, prefix, a);
      }
    }
    // Phase 2 (paper lines 16-20): relax suffix edges leaving node k. The
    // two-phase order matters: distance[k] must be final (all incoming
    // prefix edges processed) before the suffix edges out of k are used.
    for (Active& a : active) {
      if (a.frag.length() == 0 || a.frag.start > k || a.frag.end <= k) continue;
      if (!options.use_suffix_edges && a.frag.start != k) continue;
      Fragment suffix = a.frag;
      suffix.start = k;  // origin stays at the original fit start
      relax(k, suffix.end, suffix, a);
    }
  }

  NEATS_REQUIRE(distance[n] < kInf, "series not covered — internal error");

  // Read the shortest path backwards (paper lines 21-26), refitting each
  // edge's fragment from its origin: the fit is deterministic, so the
  // refit has the parameters the sweep weighed, and only its span is cut.
  std::vector<Fragment> result;
  uint64_t k = n;
  while (k != 0) {
    const PrevEntry& entry = previous[k];
    NEATS_DCHECK(entry.pair != UINT32_MAX);
    FragmentBuilder& builder = active[entry.pair].builder;
    Fragment frag = LongestFragment(values, entry.origin, &builder);
    NEATS_DCHECK(frag.end >= k);
    frag.start = entry.from;
    frag.end = k;
    result.push_back(frag);
    k = entry.from;
  }
  std::reverse(result.begin(), result.end());
  return result;
}

}  // namespace internal

/// Partitions `values` to minimise the bit size of the lossless NeaTS
/// encoding (functions + corrections). Returns contiguous fragments covering
/// [0, n).
inline std::vector<Fragment> PartitionLossless(std::span<const int64_t> values,
                                               const PartitionOptions& options = {}) {
  std::vector<int64_t> eps = options.epsilons;
  if (eps.empty()) eps = DefaultEpsilons(values);
  return internal::PartitionImpl(values, options, eps,
                                 [&](const Fragment& f) {
                                   return internal::LosslessWeight(f, options);
                                 });
}

/// Partitions `values` for lossy compression under the single error bound
/// `eps`, minimising the space of the functions alone. Linear time in
/// |F| * n.
inline std::vector<Fragment> PartitionLossy(std::span<const int64_t> values,
                                            int64_t eps,
                                            const PartitionOptions& options = {}) {
  return internal::PartitionImpl(values, options, {eps},
                                 [&](const Fragment& f) {
                                   return internal::LossyWeight(f, options);
                                 });
}

}  // namespace neats
