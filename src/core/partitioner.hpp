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
#include "common/thread_pool.hpp"
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

  /// Explicit (kind, eps) pairs. When non-empty, this list is used instead
  /// of the cross product kinds × epsilons (model selection keeps the top
  /// pairs, not a cross product; paper, Sec. IV-C1).
  std::vector<std::pair<FunctionKind, int64_t>> pairs;

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

/// Requires a non-empty (kind, eps) search set — `pairs`, else kinds ×
/// `epsilons` — whose every eps lies in [0, kMaxAbsValue].
inline void RequireValidSearchSet(const PartitionOptions& options,
                                  const std::vector<int64_t>& epsilons) {
  const bool by_pairs = !options.pairs.empty();
  NEATS_REQUIRE(by_pairs || (!options.kinds.empty() && !epsilons.empty()),
                "empty (kind, eps) search set");
  auto valid = [](int64_t eps) { return eps >= 0 && eps <= kMaxAbsValue; };
  auto eps_of = [](const auto& pair) { return pair.second; };
  NEATS_REQUIRE(by_pairs ? std::ranges::all_of(options.pairs, valid, eps_of)
                         : std::ranges::all_of(epsilons, valid),
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
  auto add_pair = [&](FunctionKind kind, int64_t eps) {
    active.push_back({FragmentBuilder(0, kind, eps, values[0]), Fragment{}});
  };
  if (!options.pairs.empty()) {
    active.reserve(options.pairs.size());
    for (const auto& [kind, eps] : options.pairs) add_pair(kind, eps);
  } else {
    active.reserve(options.kinds.size() * epsilons.size());
    for (FunctionKind kind : options.kinds) {
      for (int64_t eps : epsilons) add_pair(kind, eps);
    }
  }

  // Allocated after the builders: the opposite order raised peak RSS by
  // ~1.5 MiB (glibc heap placement) with two threads compressing shards.
  struct PrevEntry {
    uint64_t from = 0;
    Fragment frag;  // length() == 0 marks "unset"
  };
  constexpr uint64_t kInf = UINT64_MAX / 2;
  std::vector<uint64_t> distance(n + 1, kInf);
  std::vector<PrevEntry> previous(n + 1);
  distance[0] = 0;

  auto relax = [&](uint64_t i, uint64_t j, const Fragment& frag) {
    if (distance[i] >= kInf) return;
    uint64_t w = weight(frag);
    if (distance[i] + w < distance[j]) {
      distance[j] = distance[i] + w;
      previous[j] = {i, frag};
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
        relax(prefix.start, k, prefix);
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
      relax(k, suffix.end, suffix);
    }
  }

  NEATS_REQUIRE(distance[n] < kInf, "series not covered — internal error");

  // Read the shortest path backwards (paper lines 21-26).
  std::vector<Fragment> result;
  uint64_t k = n;
  while (k != 0) {
    const PrevEntry& entry = previous[k];
    NEATS_DCHECK(entry.frag.length() > 0);
    result.push_back(entry.frag);
    k = entry.from;
  }
  std::reverse(result.begin(), result.end());
  return result;
}

}  // namespace internal

/// The bit size BuildLayout will actually charge for `frag` — corrections at
/// the width of the real residual range (not the CorrectionBits(eps) bound
/// the partitioner plans with) plus parameters and per-fragment metadata.
inline uint64_t StoredFragmentBits(std::span<const int64_t> values,
                                   const Fragment& frag,
                                   const PartitionOptions& options) {
  int64_t lo = 0, hi = 0;
  for (uint64_t k = frag.start; k < frag.end; ++k) {
    int64_t r = values[k] - frag.Predict(k);
    lo = std::min(lo, r);
    hi = std::max(hi, r);
  }
  return frag.length() * static_cast<uint64_t>(ResidualBits(lo, hi)) +
         static_cast<uint64_t>(NumParams(frag.kind)) *
             static_cast<uint64_t>(options.bits_per_parameter) +
         static_cast<uint64_t>(options.fragment_overhead_bits);
}

namespace internal {

/// Boundary-merge pass of the chunked partitioner: when the fragment ending
/// at a chunk boundary and the one starting it share (kind, eps), refit the
/// union from a's start and keep the merged fragment when the fit is still
/// feasible AND the stored encoding does not grow (the merged residual width
/// can exceed either part's, so feasibility alone is not enough). Returns
/// the merged fragment through `out`; false leaves the pair split. The
/// refit's origin is a.start, so a suffix-born `a` loses its displaced
/// origin — correct, since the refit re-verifies the union from scratch.
inline bool TryMergeAtBoundary(std::span<const int64_t> values,
                               const Fragment& a, const Fragment& b,
                               const PartitionOptions& options, Fragment* out) {
  if (a.kind != b.kind || a.epsilon != b.epsilon || a.end != b.start) {
    return false;
  }
  FragmentBuilder builder(a.start, a.kind, a.epsilon, values[a.start]);
  for (uint64_t k = a.start; k < b.end; ++k) {
    if (!builder.TryExtend(k, values[k])) return false;
  }
  Fragment merged = builder.Finish();
  NEATS_DCHECK(merged.end == b.end);
  if (StoredFragmentBits(values, merged, options) >
      StoredFragmentBits(values, a, options) +
          StoredFragmentBits(values, b, options)) {
    return false;
  }
  *out = merged;
  return true;
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

/// Chunked variant of PartitionLossless: cuts the series into disjoint
/// blocks of `chunk_size` values, partitions each block independently (the
/// blocks run concurrently on `num_threads` threads), and stitches the
/// per-block fragment lists with a boundary-merge pass: adjacent fragments
/// meeting at a block boundary that share (kind, eps) are re-fitted as one
/// and merged whenever the union is still feasible and not larger — so a
/// fit that happens to span a boundary (a long trend cut mid-flight) is
/// recovered instead of paying two parameter sets and two metadata rows.
/// Merged fragments cascade across further boundaries up to a fixed span
/// cap (kMaxMergeSpanChunks blocks), which keeps the stitch pass linear.
/// The result is a valid partition of the whole series and is deterministic
/// — identical for every thread count — because the block boundaries are
/// fixed, each block's partition is deterministic, and the merge pass runs
/// serially on the stitched list. It can still differ from the global
/// partition, trading a (now smaller) sliver of compression ratio for
/// near-linear compression scaling.
///
/// When `options.epsilons` is empty the E set is derived once from the whole
/// series, not per block, so every block searches the same (kind, eps) grid.
inline std::vector<Fragment> PartitionLosslessChunked(
    std::span<const int64_t> values, uint64_t chunk_size, int num_threads,
    const PartitionOptions& options = {}) {
  const uint64_t n = values.size();
  if (chunk_size == 0 || chunk_size >= n) {
    return PartitionLossless(values, options);
  }
  PartitionOptions chunk_options = options;
  if (chunk_options.epsilons.empty()) {
    chunk_options.epsilons = DefaultEpsilons(values);
  }
  // Validated here: a throw inside a pool worker would terminate.
  internal::RequireValidSearchSet(chunk_options, chunk_options.epsilons);

  const size_t num_chunks = static_cast<size_t>(CeilDiv(n, chunk_size));
  std::vector<std::vector<Fragment>> per_chunk(num_chunks);
  auto run_chunk = [&](size_t c) {
    uint64_t begin = static_cast<uint64_t>(c) * chunk_size;
    uint64_t end = std::min<uint64_t>(n, begin + chunk_size);
    per_chunk[c] = PartitionLossless(values.subspan(begin, end - begin),
                                     chunk_options);
    for (Fragment& frag : per_chunk[c]) {
      frag.start += begin;
      frag.end += begin;
      frag.origin += begin;
    }
  };
  if (ResolveNumThreads(num_threads) > 1 && num_chunks > 1) {
    ThreadPool pool(std::min<int>(ResolveNumThreads(num_threads),
                                  static_cast<int>(num_chunks)));
    pool.ParallelFor(num_chunks, run_chunk);
  } else {
    for (size_t c = 0; c < num_chunks; ++c) run_chunk(c);
  }

  // Boundary-merge stitch. The cascade is capped: once a merged fragment
  // spans kMaxMergeSpanChunks blocks, further boundaries keep the split.
  // Every attempt costs O(merged length) (refit + residual-width scans),
  // so without the cap a fit spanning k blocks would cost O(k^2 * chunk)
  // across its boundaries — the cap bounds the whole pass at O(n) with a
  // small constant, and gives back only ~one fragment's metadata per
  // kMaxMergeSpanChunks blocks on endlessly mergeable input.
  constexpr uint64_t kMaxMergeSpanChunks = 16;
  const uint64_t max_merge_len = kMaxMergeSpanChunks * chunk_size;
  std::vector<Fragment> result;
  for (std::vector<Fragment>& frags : per_chunk) {
    size_t at = 0;
    if (!result.empty() && !frags.empty() &&
        result.back().length() + frags.front().length() <= max_merge_len) {
      Fragment merged;
      if (internal::TryMergeAtBoundary(values, result.back(), frags.front(),
                                       chunk_options, &merged)) {
        result.back() = merged;  // cascades: a block-spanning merge may
        at = 1;                  // merge again at the next boundary
      }
    }
    result.insert(result.end(), frags.begin() + static_cast<ptrdiff_t>(at),
                  frags.end());
  }
  return result;
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
