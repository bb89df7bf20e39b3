#include "core/partitioner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

namespace neats {
namespace {

void CheckContiguousCover(const std::vector<Fragment>& fragments, size_t n) {
  uint64_t expected = 0;
  for (const auto& frag : fragments) {
    ASSERT_EQ(frag.start, expected);
    ASSERT_GT(frag.length(), 0u);
    ASSERT_LE(frag.origin, frag.start);
    expected = frag.end;
  }
  ASSERT_EQ(expected, n);
}

// Every fragment must eps-approximate its values with its own parameters and
// origin (this is what guarantees small corrections downstream). Allow a
// small relative slack for double rounding of the parameters.
void CheckApproximation(const std::vector<int64_t>& values,
                        const std::vector<Fragment>& fragments) {
  for (const auto& frag : fragments) {
    for (uint64_t k = frag.start; k < frag.end; ++k) {
      double pred = PredictValue(frag.kind, frag.params,
                                 static_cast<int64_t>(k - frag.origin) + 1);
      double slack = 1e-6 * (1.0 + std::abs(pred));
      ASSERT_LE(std::abs(pred - static_cast<double>(values[k])),
                static_cast<double>(frag.epsilon) + slack)
          << KindName(frag.kind) << " at " << k;
    }
  }
}

uint64_t PartitionCost(const std::vector<Fragment>& fragments,
                       const PartitionOptions& options) {
  uint64_t cost = 0;
  for (const auto& frag : fragments) {
    cost += internal::LosslessWeight(frag, options);
  }
  return cost;
}

std::vector<int64_t> RandomWalk(size_t n, uint64_t seed, int64_t step) {
  std::mt19937_64 rng(seed);
  std::vector<int64_t> values;
  int64_t cur = 1000;
  for (size_t i = 0; i < n; ++i) {
    cur += static_cast<int64_t>(rng() % (2 * step + 1)) - step;
    values.push_back(cur);
  }
  return values;
}

TEST(Partitioner, CoversRandomWalk) {
  auto values = RandomWalk(20000, 3, 8);
  auto fragments = PartitionLossless(values);
  CheckContiguousCover(fragments, values.size());
  CheckApproximation(values, fragments);
}

TEST(Partitioner, SinglePoint) {
  std::vector<int64_t> values = {42};
  auto fragments = PartitionLossless(values);
  CheckContiguousCover(fragments, 1);
  EXPECT_EQ(fragments[0].Predict(0), 42);
}

TEST(Partitioner, EmptySeries) {
  std::vector<int64_t> values;
  auto fragments = PartitionLossless(values);
  EXPECT_TRUE(fragments.empty());
}

TEST(Partitioner, ConstantSeriesIsOneCheapFragment) {
  std::vector<int64_t> values(10000, 7);
  auto fragments = PartitionLossless(values);
  CheckContiguousCover(fragments, values.size());
  EXPECT_EQ(fragments.size(), 1u);
  EXPECT_EQ(CorrectionBits(fragments[0].epsilon), 0);
}

TEST(Partitioner, PiecewiseRegimesGetDifferentKinds) {
  // Exponential growth followed by a linear ramp: the partition should use
  // few fragments and approximate both regimes well.
  std::vector<int64_t> values;
  for (int i = 0; i < 400; ++i) {
    values.push_back(static_cast<int64_t>(100.0 * std::exp(0.02 * i)));
  }
  for (int i = 0; i < 400; ++i) values.push_back(values.back() + 13);
  auto fragments = PartitionLossless(values);
  CheckContiguousCover(fragments, values.size());
  CheckApproximation(values, fragments);
}

// The lazy single-sweep implementation of Algorithm 1 must find the same
// optimal cost as a transparent reference: materialise the full edge set
// (all prefixes and suffixes of every greedy-chain fragment of every
// (kind, eps) pair), then run a plain DAG shortest path over it.
TEST(Partitioner, MatchesReferenceShortestPath) {
  for (int trial = 0; trial < 8; ++trial) {
    auto values = RandomWalk(150, 100 + static_cast<uint64_t>(trial), 6);
    PartitionOptions options;
    options.kinds = {FunctionKind::kLinear, FunctionKind::kQuadratic,
                     FunctionKind::kExponential};
    options.epsilons = {0, 2, 8};

    auto fragments = PartitionLossless(values, options);
    CheckContiguousCover(fragments, values.size());
    uint64_t algo_cost = PartitionCost(fragments, options);

    struct Edge {
      uint64_t src, dst, weight;
    };
    std::vector<Edge> edges;
    const size_t n = values.size();
    for (FunctionKind kind : options.kinds) {
      for (int64_t eps : options.epsilons) {
        uint64_t k = 0;
        while (k < n) {
          Fragment frag = LongestFragment(values, k, kind, eps);
          if (frag.length() == 0) {
            ++k;
            continue;
          }
          for (uint64_t j = frag.start + 1; j <= frag.end; ++j) {
            Fragment piece = frag;
            piece.end = j;
            edges.push_back({frag.start, j,
                             internal::LosslessWeight(piece, options)});
          }
          for (uint64_t s = frag.start + 1; s < frag.end; ++s) {
            Fragment piece = frag;
            piece.start = s;
            edges.push_back({s, frag.end,
                             internal::LosslessWeight(piece, options)});
          }
          k = frag.end;
        }
      }
    }
    std::sort(edges.begin(), edges.end(),
              [](const Edge& a, const Edge& b) { return a.src < b.src; });
    constexpr uint64_t kInf = UINT64_MAX / 2;
    std::vector<uint64_t> dp(n + 1, kInf);
    dp[0] = 0;
    for (const Edge& e : edges) {
      if (dp[e.src] == kInf) continue;
      dp[e.dst] = std::min(dp[e.dst], dp[e.src] + e.weight);
    }
    ASSERT_LT(dp[n], kInf);
    EXPECT_EQ(algo_cost, dp[n]) << "trial " << trial;
  }
}

TEST(Partitioner, LossyUsesOnlyGivenEps) {
  auto values = RandomWalk(5000, 23, 20);
  auto fragments = PartitionLossy(values, 15);
  CheckContiguousCover(fragments, values.size());
  for (const auto& frag : fragments) EXPECT_EQ(frag.epsilon, 15);
  CheckApproximation(values, fragments);
}

TEST(Partitioner, LossyFewerFragmentsWithLargerEps) {
  auto values = RandomWalk(8000, 29, 25);
  size_t prev = SIZE_MAX;
  for (int64_t eps : {10, 50, 250, 1000}) {
    auto fragments = PartitionLossy(values, eps);
    EXPECT_LE(fragments.size(), prev) << "eps=" << eps;
    prev = fragments.size();
  }
}

TEST(Partitioner, SuffixEdgesNeverHurt) {
  auto values = RandomWalk(6000, 31, 12);
  PartitionOptions with, without;
  without.use_suffix_edges = false;
  auto frag_with = PartitionLossless(values, with);
  auto frag_without = PartitionLossless(values, without);
  CheckContiguousCover(frag_with, values.size());
  CheckContiguousCover(frag_without, values.size());
  EXPECT_LE(PartitionCost(frag_with, with), PartitionCost(frag_without, without));
  // Without suffix edges no displacement survives.
  for (const auto& frag : frag_without) EXPECT_EQ(frag.origin, frag.start);
}

TEST(Partitioner, ExplicitPairsRestrictTheSearch) {
  auto values = RandomWalk(3000, 37, 10);
  PartitionOptions options;
  options.pairs = {{FunctionKind::kLinear, 4}};
  auto fragments = PartitionLossless(values, options);
  CheckContiguousCover(fragments, values.size());
  for (const auto& frag : fragments) {
    EXPECT_EQ(frag.kind, FunctionKind::kLinear);
    EXPECT_EQ(frag.epsilon, 4);
  }
}

TEST(Partitioner, ExplicitPairsNeedNoKinds) {
  // `kinds` is unused when `pairs` is set, so an empty `kinds` is fine.
  auto values = RandomWalk(2000, 41, 6);
  PartitionOptions options;
  options.kinds.clear();
  options.pairs = {{FunctionKind::kQuadratic, 2}, {FunctionKind::kLinear, 8}};
  auto fragments = PartitionLossless(values, options);
  CheckContiguousCover(fragments, values.size());
  CheckApproximation(values, fragments);
  EXPECT_FALSE(PartitionLossy(values, 8, options).empty());
  // Without pairs, an empty kinds list leaves nothing to search.
  options.pairs.clear();
  EXPECT_THROW(PartitionLossless(values, options), Error);
}

TEST(Partitioner, RejectsEpsilonOutsideRange) {
  auto values = RandomWalk(3000, 43, 6);
  for (int64_t bad : {int64_t{-1}, kMaxAbsValue + 1}) {
    PartitionOptions by_eps;
    by_eps.epsilons = {bad, 4};
    EXPECT_THROW(PartitionLossless(values, by_eps), Error) << bad;
    EXPECT_THROW(PartitionLosslessChunked(values, 1000, 2, by_eps), Error);
    PartitionOptions by_pairs;
    by_pairs.pairs = {{FunctionKind::kLinear, 4}, {FunctionKind::kLinear, bad}};
    EXPECT_THROW(PartitionLossless(values, by_pairs), Error) << bad;
    EXPECT_THROW(PartitionLosslessChunked(values, 1000, 2, by_pairs), Error);
    EXPECT_THROW(PartitionLossy(values, bad), Error) << bad;
  }
  // The range's ends are valid.
  PartitionOptions edges;
  edges.kinds = {FunctionKind::kLinear};
  edges.epsilons = {0, kMaxAbsValue};
  CheckContiguousCover(PartitionLossless(values, edges), values.size());
}

TEST(Partitioner, NegativeValuesHandled) {
  std::vector<int64_t> values;
  for (int i = 0; i < 2000; ++i) {
    values.push_back(-5000 + 3 * i + (i % 7));
  }
  // Note: exponential kinds are simply inapplicable on negative data unless
  // the caller shifts; the partitioner must still cover everything.
  auto fragments = PartitionLossless(values);
  CheckContiguousCover(fragments, values.size());
  CheckApproximation(values, fragments);
}

TEST(Partitioner, DefaultEpsilonsShape) {
  std::vector<int64_t> values = {0, 100};  // delta = 101
  auto eps = DefaultEpsilons(values);
  EXPECT_EQ(eps.front(), 0);
  EXPECT_EQ(eps.back(), 128);  // 2^ceil(log2 101) = 128
  for (size_t i = 2; i < eps.size(); ++i) EXPECT_EQ(eps[i], 2 * eps[i - 1]);
}

// The chunked partitioner's boundary-merge pass: on a series one fit covers
// entirely, the stitched per-chunk fragments must collapse back into the
// single fragment the global partitioner finds — same refit from index 0,
// so the result is identical, not merely equivalent.
TEST(PartitionChunked, BoundaryMergeRecoversGlobalPartition) {
  std::vector<int64_t> values;
  for (size_t i = 0; i < 6000; ++i) {
    values.push_back(7 * static_cast<int64_t>(i) + 13);  // exact line
  }
  PartitionOptions options;
  std::vector<Fragment> global = PartitionLossless(values, options);
  ASSERT_EQ(global.size(), 1u);
  for (uint64_t chunk : {uint64_t{700}, uint64_t{1024}, uint64_t{2999}}) {
    std::vector<Fragment> chunked =
        PartitionLosslessChunked(values, chunk, 1, options);
    ASSERT_EQ(chunked.size(), 1u) << "chunk=" << chunk;
    EXPECT_EQ(chunked[0].start, global[0].start);
    EXPECT_EQ(chunked[0].end, global[0].end);
    EXPECT_EQ(chunked[0].origin, global[0].origin);
    EXPECT_EQ(chunked[0].kind, global[0].kind);
    EXPECT_EQ(chunked[0].epsilon, global[0].epsilon);
    for (int p = 0; p < 3; ++p) {
      EXPECT_EQ(chunked[0].params[p], global[0].params[p]) << p;
    }
  }
}

// On general inputs the merge must keep every invariant: contiguous cover,
// eps-valid fits, determinism across thread counts, and a stored size never
// above the merge-free stitching (the merge is gated on the actual residual
// widths, not just feasibility).
TEST(PartitionChunked, BoundaryMergeKeepsInvariantsOnMixedSeries) {
  std::vector<int64_t> values = RandomWalk(9000, 21, 40);
  // Splice in a long exact ramp crossing several chunk boundaries so at
  // least some merges actually fire.
  for (size_t i = 3000; i < 6000; ++i) {
    values[i] = 5 * static_cast<int64_t>(i);
  }
  PartitionOptions options;
  std::vector<Fragment> chunked1 =
      PartitionLosslessChunked(values, 1000, 1, options);
  std::vector<Fragment> chunked4 =
      PartitionLosslessChunked(values, 1000, 4, options);
  CheckContiguousCover(chunked1, values.size());
  CheckApproximation(values, chunked1);
  ASSERT_EQ(chunked1.size(), chunked4.size());
  for (size_t i = 0; i < chunked1.size(); ++i) {
    EXPECT_EQ(chunked1[i].start, chunked4[i].start) << i;
    EXPECT_EQ(chunked1[i].end, chunked4[i].end) << i;
    EXPECT_EQ(chunked1[i].params[0], chunked4[i].params[0]) << i;
  }
  // The ramp spans chunks [3000, 6000): without merging there would be a
  // fragment break at every 1000-boundary inside it.
  size_t breaks_inside_ramp = 0;
  for (const Fragment& f : chunked1) {
    if (f.start > 3000 && f.start < 6000 && f.start % 1000 == 0) {
      ++breaks_inside_ramp;
    }
  }
  EXPECT_LT(breaks_inside_ramp, 2u);
  // Merging never stores more bits than the unmerged stitching.
  uint64_t merged_bits = 0;
  for (const Fragment& f : chunked1) {
    merged_bits += StoredFragmentBits(values, f, options);
  }
  uint64_t split_bits = 0;
  for (uint64_t begin = 0; begin < values.size(); begin += 1000) {
    uint64_t len = std::min<uint64_t>(1000, values.size() - begin);
    std::span<const int64_t> block(values.data() + begin, len);
    for (const Fragment& f : PartitionLossless(block, options)) {
      Fragment shifted = f;
      shifted.start += begin;
      shifted.end += begin;
      shifted.origin += begin;
      split_bits += StoredFragmentBits(values, shifted, options);
    }
  }
  EXPECT_LE(merged_bits, split_bits);
}

TEST(Partitioner, CorrectionBitsFormula) {
  EXPECT_EQ(CorrectionBits(0), 0);
  EXPECT_EQ(CorrectionBits(1), 2);   // ceil(log2 3)
  EXPECT_EQ(CorrectionBits(2), 3);   // ceil(log2 5)
  EXPECT_EQ(CorrectionBits(4), 4);   // ceil(log2 9)
  EXPECT_EQ(CorrectionBits(128), 9);
}

}  // namespace
}  // namespace neats
