#include "succinct/bit_vector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

namespace neats {
namespace {

// Reference implementation for differential testing.
struct NaiveRankSelect {
  std::vector<bool> bits;

  uint64_t Rank1(size_t i) const {
    uint64_t r = 0;
    for (size_t k = 0; k < i; ++k) r += bits[k];
    return r;
  }
  size_t Select1(uint64_t k) const {
    for (size_t i = 0; i < bits.size(); ++i) {
      if (bits[i] && k-- == 0) return i;
    }
    return static_cast<size_t>(-1);
  }
};

BitVector MakeBitVector(const std::vector<bool>& bits) {
  BitVector bv(bits.size());
  for (size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) bv.Set(i);
  }
  return bv;
}

void CheckAgainstNaive(const std::vector<bool>& bits) {
  RankSelect rs(MakeBitVector(bits));
  NaiveRankSelect naive{bits};
  uint64_t ones = naive.Rank1(bits.size());
  ASSERT_EQ(rs.ones(), ones);
  for (size_t i = 0; i <= bits.size(); ++i) {
    ASSERT_EQ(rs.Rank1(i), naive.Rank1(i)) << "rank1 at " << i;
    ASSERT_EQ(rs.Rank0(i), i - naive.Rank1(i)) << "rank0 at " << i;
  }
  for (uint64_t k = 0; k < ones; ++k) {
    ASSERT_EQ(rs.Select1(k), naive.Select1(k)) << "select1 of " << k;
  }
}

TEST(RankSelect, Empty) {
  RankSelect rs((BitVector(0)));
  EXPECT_EQ(rs.size(), 0u);
  EXPECT_EQ(rs.ones(), 0u);
  EXPECT_EQ(rs.Rank1(0), 0u);
}

TEST(RankSelect, AllZeros) {
  std::vector<bool> bits(1000, false);
  CheckAgainstNaive(bits);
}

TEST(RankSelect, AllOnes) {
  std::vector<bool> bits(1000, true);
  CheckAgainstNaive(bits);
}

TEST(RankSelect, SingleBitEachPositionSmall) {
  for (size_t n : {1u, 63u, 64u, 65u, 127u, 128u}) {
    for (size_t pos = 0; pos < n; pos += (n > 80 ? 13 : 1)) {
      std::vector<bool> bits(n, false);
      bits[pos] = true;
      CheckAgainstNaive(bits);
    }
  }
}

class RankSelectDensityTest : public ::testing::TestWithParam<int> {};

TEST_P(RankSelectDensityTest, RandomAtDensityPercent) {
  int density = GetParam();
  std::mt19937_64 rng(static_cast<uint64_t>(density) * 7919 + 1);
  std::vector<bool> bits(4099);
  for (size_t i = 0; i < bits.size(); ++i) {
    bits[i] = static_cast<int>(rng() % 100) < density;
  }
  CheckAgainstNaive(bits);
}

INSTANTIATE_TEST_SUITE_P(Densities, RankSelectDensityTest,
                         ::testing::Values(1, 5, 25, 50, 75, 95, 99));

TEST(RankSelect, SizesAroundBlockBoundaries) {
  std::mt19937_64 rng(99);
  for (size_t n : {511u, 512u, 513u, 1023u, 1024u, 1025u, 4095u, 4096u}) {
    std::vector<bool> bits(n);
    for (size_t i = 0; i < n; ++i) bits[i] = rng() & 1;
    CheckAgainstNaive(bits);
  }
}

TEST(RankSelect, SparseLargeGaps) {
  std::vector<bool> bits(100000, false);
  for (size_t i = 0; i < bits.size(); i += 9973) bits[i] = true;
  RankSelect rs(MakeBitVector(bits));
  uint64_t count = 0;
  for (size_t i = 0; i < bits.size(); i += 9973) {
    EXPECT_EQ(rs.Select1(count), i);
    ++count;
  }
  EXPECT_EQ(rs.ones(), count);
  EXPECT_EQ(rs.Rank1(bits.size()), count);
}

// PrevOne against a backward bit-by-bit search: at every position of
// bitvectors with word-straddling runs, a long all-zero stretch (many
// whole words between ones) and a final word that is only partly used.
TEST(RankSelect, PrevOneMatchesBackwardSearch) {
  std::mt19937_64 rng(23);
  for (size_t n : {1u, 63u, 64u, 65u, 700u, 5000u}) {
    for (int density : {2, 50, 98}) {
      std::vector<bool> bits(n);
      for (size_t i = 0; i < n; ++i) {
        bits[i] = static_cast<int>(rng() % 100) < density;
      }
      bits[0] = true;  // every position then has a 1 at or before it
      if (n == 5000) {
        std::fill(bits.begin() + 100, bits.begin() + 4900, false);
      }
      RankSelect rs(MakeBitVector(bits));
      size_t last_one = 0;
      for (size_t pos = 0; pos < n; ++pos) {
        if (bits[pos]) last_one = pos;
        ASSERT_EQ(rs.PrevOne(pos), last_one)
            << "n=" << n << " density=" << density << " pos=" << pos;
      }
    }
  }
}

TEST(BitVector, PushBackMatchesSet) {
  std::mt19937_64 rng(5);
  std::vector<bool> bits(777);
  for (size_t i = 0; i < bits.size(); ++i) bits[i] = rng() & 1;
  BitVector a(bits.size());
  BitVector b;
  for (size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) a.Set(i);
    b.PushBack(bits[i]);
  }
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < bits.size(); ++i) {
    ASSERT_EQ(a.Get(i), b.Get(i));
    ASSERT_EQ(a.Get(i), bits[i]);
  }
}

}  // namespace
}  // namespace neats
