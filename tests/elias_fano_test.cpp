#include "succinct/elias_fano.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

namespace neats {
namespace {

size_t NaiveRank(const std::vector<uint64_t>& values, uint64_t x) {
  return static_cast<size_t>(
      std::upper_bound(values.begin(), values.end(), x) - values.begin());
}

// Rank, Predecessor and PredecessorScanner::Next against std::upper_bound.
// The bucket index behind them is rebuilt at every load, so each sequence
// is checked as built by the constructor, Loaded from its bytes into owned
// storage, and Loaded borrowing them (the View path).
void CheckQueries(const EliasFano& ef, const std::vector<uint64_t>& values,
                  const std::vector<uint64_t>& sorted_probes, const char* how) {
  SCOPED_TRACE(how);
  ASSERT_EQ(ef.size(), values.size());
  EliasFano::PredecessorScanner scanner(ef);
  for (uint64_t x : sorted_probes) {
    const size_t r = NaiveRank(values, x);
    ASSERT_EQ(ef.Rank(x), r) << "rank of " << x;
    if (r == 0) continue;  // no predecessor: outside the scanner contract
    const std::pair<size_t, uint64_t> expected{r - 1, values[r - 1]};
    ASSERT_EQ(ef.Predecessor(x), expected) << "predecessor of " << x;
    ASSERT_EQ(scanner.Next(x), expected) << "scanner at " << x;
  }
}

/// Checks a non-empty sequence: Access on the built EF, then every query on
/// all three open paths. Probes are `extra_probes` plus every value, its
/// neighbours, and probes past the last bucket.
void CheckSequence(const std::vector<uint64_t>& values, uint64_t universe = 0,
                   std::vector<uint64_t> extra_probes = {}) {
  EliasFano built(values, universe);
  ASSERT_EQ(built.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(built.Access(i), values[i]) << "access at " << i;
  }
  std::vector<uint64_t> probes = std::move(extra_probes);
  for (uint64_t v : values) {
    if (v > 0) probes.push_back(v - 1);
    probes.push_back(v);
    probes.push_back(v + 1);
  }
  for (uint64_t x : {uint64_t{0}, uint64_t{1}, values.back() + 100,
                     values.back() + (uint64_t{1} << 20), ~uint64_t{0}}) {
    probes.push_back(x);
  }
  std::sort(probes.begin(), probes.end());

  std::vector<uint8_t> bytes;
  WordWriter w(&bytes);
  built.Serialize(w);
  WordReader copy(bytes, /*borrow=*/false);
  const EliasFano loaded = EliasFano::Load(copy);
  WordReader borrow(bytes, /*borrow=*/true);
  const EliasFano viewed = EliasFano::Load(borrow);
  CheckQueries(built, values, probes, "built");
  CheckQueries(loaded, values, probes, "loaded");
  CheckQueries(viewed, values, probes, "viewed");
}

TEST(EliasFano, Empty) {
  EliasFano ef{std::vector<uint64_t>{}};
  EXPECT_EQ(ef.size(), 0u);
  EXPECT_EQ(ef.Rank(42), 0u);
}

TEST(EliasFano, SingleElement) {
  CheckSequence({0});
  CheckSequence({5});
  CheckSequence({5}, 1000, {999});
  CheckSequence({1ULL << 40});
}

TEST(EliasFano, DenseConsecutive) {
  // universe == size: low_bits is 0 and each bucket holds one value.
  std::vector<uint64_t> values(2000);
  for (size_t i = 0; i < values.size(); ++i) values[i] = i;
  CheckSequence(values);
  // Still low_bits 0, with duplicates and gaps: buckets of 0..3 values.
  std::mt19937_64 rng(3);
  uint64_t cur = 0;
  for (auto& v : values) v = (cur += rng() % 3 == 0 ? 0 : rng() % 2);
  CheckSequence(values, values.size());
}

TEST(EliasFano, WithDuplicates) {
  CheckSequence({3, 3, 3, 3});
  CheckSequence({0, 0, 1, 1, 1, 7, 7, 100, 100}, 0, {50, 99});
}

TEST(EliasFano, AllZeros) { CheckSequence(std::vector<uint64_t>(100, 0)); }

TEST(EliasFano, SingleBucketPileUps) {
  // Buckets far past the linear-probe length take the binary search.
  std::vector<uint64_t> values;
  for (uint64_t v : {uint64_t{0}, uint64_t{9000}, uint64_t{1} << 33}) {
    for (uint64_t i = 0; i < 900; ++i) values.push_back(v + i / 150);
  }
  CheckSequence(values, 0, {4500, uint64_t{1} << 32});
  CheckSequence(std::vector<uint64_t>(2000, 42));
}

TEST(EliasFano, ClusteredWithThousandsOfEmptyBuckets) {
  // Two dense clusters at the ends of a 2^30 universe: a probe in the gap
  // finds its predecessor with a backward word scan across hundreds of
  // all-zero words.
  const uint64_t u = uint64_t{1} << 30;
  std::vector<uint64_t> values;
  for (uint64_t i = 0; i < 10000; ++i) values.push_back(i);
  for (uint64_t i = 0; i < 10000; ++i) values.push_back(u - 10000 + i);
  // low_bits is BitWidth(u / m) - 1 = 15, so the clusters' buckets are
  // 0 and 32767 and the 32766 buckets between them are empty.
  ASSERT_EQ(BitWidth(u / values.size()) - 1, 15);
  std::mt19937_64 rng(5);
  std::vector<uint64_t> probes;
  for (int t = 0; t < 3000; ++t) probes.push_back(rng() % (u + 100));
  for (uint64_t x = 10000; x < u; x += u / 64) probes.push_back(x);
  CheckSequence(values, u, probes);
}

class EliasFanoRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EliasFanoRandomTest, RandomMonotoneWithGapScale) {
  uint64_t gap_scale = GetParam();
  std::mt19937_64 rng(gap_scale * 31 + 7);
  std::vector<uint64_t> values;
  uint64_t cur = 0;
  for (int i = 0; i < 3000; ++i) {
    cur += rng() % (gap_scale + 1);
    values.push_back(cur);
  }
  std::vector<uint64_t> probes;
  for (int t = 0; t < 2000; ++t) probes.push_back(rng() % (cur + 2 * gap_scale + 2));
  CheckSequence(values, 0, probes);
}

INSTANTIATE_TEST_SUITE_P(GapScales, EliasFanoRandomTest,
                         ::testing::Values(1, 2, 10, 1000, 1000000,
                                           1ULL << 40));

TEST(EliasFano, ExplicitUniverse) {
  std::vector<uint64_t> values = {1, 5, 9};
  EliasFano ef(values, 1000);
  for (size_t i = 0; i < values.size(); ++i) EXPECT_EQ(ef.Access(i), values[i]);
  EXPECT_EQ(ef.Rank(0), 0u);
  EXPECT_EQ(ef.Rank(5), 2u);
  EXPECT_EQ(ef.Rank(999), 3u);
}

TEST(EliasFano, SpaceIsNearOptimal) {
  // m values over universe u should take about m*(2 + log(u/m)) bits.
  const size_t m = 100000;
  const uint64_t u = 1ULL << 30;
  std::mt19937_64 rng(11);
  std::vector<uint64_t> values(m);
  for (auto& v : values) v = rng() % u;
  std::sort(values.begin(), values.end());
  EliasFano ef(values);
  double bits_per_element =
      static_cast<double>(ef.SizeInBits()) / static_cast<double>(m);
  // Theory: 2 + log2(u/m) ~ 2 + 13.4 = 15.4; allow generous slack for the
  // rank directories.
  EXPECT_LT(bits_per_element, 22.0);
}

}  // namespace
}  // namespace neats
