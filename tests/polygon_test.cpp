#include "convex/polygon.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

namespace neats {
namespace {

struct Constraint {
  long double t, alpha, omega;
};

// Independent feasibility oracle: exists (m, b) with
// alpha_k <= t_k*m + b <= omega_k for all k?  Feasible iff
// min_m [ max_k(alpha_k - t_k m) - min_k(omega_k - t_k m) ] <= 0.
// The inner expression is convex piecewise linear in m, and its minimum is
// attained at an intersection of two constraint lines (or at any m if the
// function is constant), so checking all pairwise crossings is exact.
bool OracleFeasible(const std::vector<Constraint>& cs, long double tol = 0) {
  auto gap = [&](long double m) {
    long double lo = -1e4900L, hi = 1e4900L;
    for (const auto& c : cs) {
      lo = std::max(lo, c.alpha - c.t * m);
      hi = std::min(hi, c.omega - c.t * m);
    }
    return lo - hi;  // feasible at m iff <= 0
  };
  std::vector<long double> candidates = {0.0L};
  for (size_t i = 0; i < cs.size(); ++i) {
    for (size_t j = i + 1; j < cs.size(); ++j) {
      if (cs[i].t == cs[j].t) continue;
      long double dt = cs[i].t - cs[j].t;
      candidates.push_back((cs[i].alpha - cs[j].alpha) / dt);
      candidates.push_back((cs[i].omega - cs[j].omega) / dt);
      candidates.push_back((cs[i].alpha - cs[j].omega) / dt);
      candidates.push_back((cs[i].omega - cs[j].alpha) / dt);
    }
  }
  for (long double m : candidates) {
    if (gap(m) <= tol) return true;
  }
  return false;
}

bool PointSatisfiesAll(const std::vector<Constraint>& cs, DualPoint p,
                       long double rel_tol) {
  for (const auto& c : cs) {
    long double v = c.t * p.m + p.b;
    long double slack =
        rel_tol * (1.0L + std::max(fabsl(c.alpha), fabsl(c.omega)));
    if (v < c.alpha - slack || v > c.omega + slack) return false;
  }
  return true;
}

TEST(FeasiblePolygon, SingleConstraintStrip) {
  FeasiblePolygon poly;
  EXPECT_TRUE(poly.AddConstraint(1.0L, 2.0L, 4.0L));
  DualPoint p = poly.PickPoint();
  EXPECT_GE(1.0L * p.m + p.b, 2.0L);
  EXPECT_LE(1.0L * p.m + p.b, 4.0L);
}

TEST(FeasiblePolygon, TwoConstraintsParallelogram) {
  FeasiblePolygon poly;
  ASSERT_TRUE(poly.AddConstraint(1.0L, 0.0L, 2.0L));
  ASSERT_TRUE(poly.AddConstraint(2.0L, 1.0L, 3.0L));
  DualPoint p = poly.PickPoint();
  EXPECT_TRUE(PointSatisfiesAll({{1, 0, 2}, {2, 1, 3}}, p, 1e-15L));
}

TEST(FeasiblePolygon, DetectsEmptiness) {
  // Points on a steep V shape cannot be covered by one line with eps = 0.5.
  FeasiblePolygon poly;
  // y = 10 at t=1, y = 0 at t=2, y = 10 at t=3, eps = 0.5.
  ASSERT_TRUE(poly.AddConstraint(1, 9.5L, 10.5L));
  ASSERT_TRUE(poly.AddConstraint(2, -0.5L, 0.5L));
  EXPECT_FALSE(poly.AddConstraint(3, 9.5L, 10.5L));
  // Polygon unchanged: picking a point must satisfy the first two.
  DualPoint p = poly.PickPoint();
  EXPECT_TRUE(PointSatisfiesAll({{1, 9.5L, 10.5L}, {2, -0.5L, 0.5L}}, p, 1e-15L));
}

TEST(FeasiblePolygon, ExactLineZeroEps) {
  // Degenerate strips (alpha == omega): points exactly on y = 3t + 7.
  FeasiblePolygon poly;
  for (int t = 1; t <= 50; ++t) {
    long double y = 3.0L * t + 7.0L;
    ASSERT_TRUE(poly.AddConstraint(t, y, y)) << "t=" << t;
  }
  DualPoint p = poly.PickPoint();
  EXPECT_NEAR(static_cast<double>(p.m), 3.0, 1e-9);
  EXPECT_NEAR(static_cast<double>(p.b), 7.0, 1e-9);
}

TEST(FeasiblePolygon, ZeroEpsRejectsOffLinePoint) {
  FeasiblePolygon poly;
  ASSERT_TRUE(poly.AddConstraint(1, 10, 10));
  ASSERT_TRUE(poly.AddConstraint(2, 13, 13));
  EXPECT_FALSE(poly.AddConstraint(3, 17, 17));  // not collinear
  EXPECT_TRUE(poly.AddConstraint(3, 16, 16));   // collinear
}

TEST(FeasiblePolygon, ResetClearsState) {
  FeasiblePolygon poly;
  ASSERT_TRUE(poly.AddConstraint(1, 0, 1));
  ASSERT_TRUE(poly.AddConstraint(2, 10, 11));
  poly.Reset();
  EXPECT_EQ(poly.num_constraints(), 0u);
  ASSERT_TRUE(poly.AddConstraint(1, 5, 6));
  EXPECT_EQ(poly.num_constraints(), 1u);
}

// Differential test: feed random monotone-t constraints; the polygon must
// agree with the oracle on when the system becomes infeasible, and any
// picked point must satisfy all accepted constraints.
class PolygonRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(PolygonRandomTest, AgreesWithOracle) {
  int scenario = GetParam();
  std::mt19937_64 rng(static_cast<uint64_t>(scenario) * 1337 + 11);
  std::uniform_real_distribution<double> noise(-1.0, 1.0);

  for (int trial = 0; trial < 60; ++trial) {
    FeasiblePolygon poly;
    std::vector<Constraint> accepted;
    double slope = noise(rng) * 5;
    double intercept = noise(rng) * 50;
    double eps = (scenario % 3 == 0) ? 0.75 : 8.0;
    long double t = 0;
    for (int k = 1; k <= 120; ++k) {
      t += 0.5L + static_cast<long double>(rng() % 100) / 25.0L;
      // Values roughly on a line, with occasional jumps that break the fit.
      double y = slope * static_cast<double>(t) + intercept + noise(rng) * eps;
      if (rng() % 17 == 0) y += noise(rng) * 40 * eps;
      Constraint c{t, static_cast<long double>(y) - static_cast<long double>(eps),
                   static_cast<long double>(y) + static_cast<long double>(eps)};
      std::vector<Constraint> tentative = accepted;
      tentative.push_back(c);
      bool oracle_ok = OracleFeasible(tentative, 1e-12L);
      bool poly_ok = poly.AddConstraint(c.t, c.alpha, c.omega);
      ASSERT_EQ(poly_ok, oracle_ok)
          << "scenario=" << scenario << " trial=" << trial << " k=" << k;
      if (!poly_ok) break;
      accepted.push_back(c);
      DualPoint p = poly.PickPoint();
      ASSERT_TRUE(PointSatisfiesAll(accepted, p, 1e-12L))
          << "picked point violates constraints at k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, PolygonRandomTest, ::testing::Range(0, 12));

TEST(FeasiblePolygon, ManyCollinearConstraintsStayFeasible) {
  FeasiblePolygon poly;
  long double t = 0;
  for (int k = 0; k < 100000; ++k) {
    t += 1;
    long double y = -2.5L * t + 1000.0L;
    ASSERT_TRUE(poly.AddConstraint(t, y - 3, y + 3));
  }
  DualPoint p = poly.PickPoint();
  EXPECT_NEAR(static_cast<double>(p.m), -2.5, 1e-6);
}

// Slabs tangent on both sides to a disk around (m0, b0) whose radius
// shrinks by `q` per slab, with slab directions sweeping (-1.5, 1.5) rad.
// Each slab cuts both ends of the polygon, and the shrinking radius makes
// it drop old vertices as well: both chains settle at ~100-200 vertices
// while their heads and tails each travel one slot per slab, i.e. wrap
// around the ring many times.
void AppendSpiralSlabs(std::vector<Constraint>* cs, int count, long double m0,
                       long double b0, long double r, long double q) {
  for (int k = 0; k < count; ++k, r *= q) {
    long double t = tanl(-1.5L + 3.0L * k / count);
    long double center = t * m0 + b0;
    long double half = r * sqrtl(t * t + 1.0L);
    cs->push_back({t, center - half, center + half});
  }
}

// Noisy points of the line b0 + m0*t from t = 15 on (past every spiral
// slab): the polygon shrinks to a sliver clipped at both ends. Every
// `outlier_every`-th point is far off the line and must be rejected.
void AppendNoisyLine(std::vector<Constraint>* cs, int count, long double m0,
                     long double b0, long double eps, uint64_t seed,
                     int outlier_every) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> noise(-0.95, 0.95);
  long double t = 15;
  for (int i = 1; i <= count; ++i, t += 0.37L) {
    long double y = t * m0 + b0 + eps * static_cast<long double>(noise(rng));
    if (i % outlier_every == 0) y += 1000 * eps;
    cs->push_back({t, y - eps, y + eps});
  }
}

struct Step {
  bool accepted;
  DualPoint picked;
};

std::vector<Step> Replay(FeasiblePolygon* poly,
                         const std::vector<Constraint>& cs) {
  std::vector<Step> steps;
  std::vector<Constraint> accepted;
  for (const Constraint& c : cs) {
    bool ok = poly->AddConstraint(c.t, c.alpha, c.omega);
    if (ok) accepted.push_back(c);
    steps.push_back({ok, poly->PickPoint()});
  }
  EXPECT_TRUE(PointSatisfiesAll(accepted, poly->PickPoint(), 1e-9L));
  return steps;
}

void ExpectSameSteps(const std::vector<Step>& got,
                     const std::vector<Step>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].accepted, want[i].accepted) << i;
    ASSERT_EQ(got[i].picked.m, want[i].picked.m) << i;
    ASSERT_EQ(got[i].picked.b, want[i].picked.b) << i;
  }
}

TEST(FeasiblePolygon, RingGrowthAndReuseMatchFreshPolygon) {
  // A grows both chains far past the initial ring capacity (16), through
  // several doublings taken while the rings are wrapped, then laps them.
  std::vector<Constraint> a;
  AppendSpiralSlabs(&a, 3000, 2.0L, 7.0L, 50.0L, 0.993L);
  AppendNoisyLine(&a, 5000, 2.0L, 7.0L, 3.0L, 1, 97);
  // B is a different sequence: another center, radius, shrink rate and
  // line, and more frequent rejected outliers.
  std::vector<Constraint> b;
  AppendSpiralSlabs(&b, 2000, -1.5L, 300.0L, 20.0L, 0.99L);
  AppendNoisyLine(&b, 3000, -1.5L, 300.0L, 0.5L, 2, 13);

  FeasiblePolygon reused;
  std::vector<Step> first = Replay(&reused, a);
  for (const std::vector<Constraint>* cs : {&b, &a, &b}) {
    reused.Reset();
    EXPECT_EQ(reused.num_constraints(), 0u);
    FeasiblePolygon fresh;
    ExpectSameSteps(Replay(&reused, *cs), Replay(&fresh, *cs));
  }
  reused.Reset();
  ExpectSameSteps(Replay(&reused, a), first);
}

}  // namespace
}  // namespace neats
