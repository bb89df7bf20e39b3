// Lane equivalence: every decode lane this CPU can run (src/functions/
// decode_lanes.hpp) must produce exactly the portable lane's bits — for
// single predictions and for whole FragmentRuns — on every kind, including
// NaN predictions, the ±2^61 clamps, exp overflow and underflow, runs
// shorter than one vector, odd starts and correction widths 0–64. A lane the
// CPU lacks is skipped by name; each test logs the lanes it ran.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "baselines/leco.hpp"
#include "core/neats.hpp"
#include "core/neats_lossy.hpp"
#include "datasets/generators.hpp"
#include "functions/decode_lanes.hpp"

namespace neats {
namespace {

/// The lanes this CPU runs, after logging which ran and which were skipped.
std::vector<const DecodeLane*> LanesToRun(const char* test) {
  std::vector<const DecodeLane*> lanes;
  std::string ran, skipped;
  for (const DecodeLane& lane : AllDecodeLanes()) {
    if (lane.supported()) {
      lanes.push_back(&lane);
      ran += " " + std::string(lane.name);
    } else {
      skipped += " " + std::string(lane.name);
    }
  }
  std::cout << "[ lanes    ] " << test << ": ran" << ran << "; skipped"
            << (skipped.empty() ? " none" : skipped) << " (not supported by "
            << "this CPU); active " << ActiveDecodeLane().name << "\n";
  return lanes;
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Parameter sets per kind: ordinary fits plus the edge cases (NaN and
/// infinite parameters, predictions past ±2^61, exp arguments that overflow
/// or underflow, tiny and negative slopes).
std::vector<std::vector<double>> ParamSets(FunctionKind kind) {
  std::vector<std::vector<double>> sets = {
      {0.75, 1000.5, 3.25},  {-2.5, 1e6, -7.0},     {1e-9, -0.5, 0.0},
      {kNaN, 1.0, 1.0},      {1.0, kNaN, 1.0},      {kInf, 0.0, 0.0},
      {-kInf, 0.0, 0.0},     {1e17, 1e18, 1e12},    {-1e17, -1e18, -1e12},
      {0.0, 3e18, 0.0},      {0.0, -3e18, 0.0},     {1.5e-3, 2.5e15, 1.0},
  };
  if (kind == FunctionKind::kExponential || kind == FunctionKind::kPower ||
      kind == FunctionKind::kGaussian) {
    // e^(m x + b): normal, huge (past 2^61 and past the double range),
    // tiny (subnormal and zero), and around the overflow threshold.
    for (std::vector<double> p : std::vector<std::vector<double>>{
             {1e-4, 9.2, 0.0},   {0.002, 30.0, 0.0}, {0.5, 700.0, 0.0},
             {-0.5, -700.0, 0.0}, {0.0, 709.78, 0.0}, {0.0, 709.79, 0.0},
             {-1e-3, -744.0, 0.0}, {-1e-3, -746.0, 0.0}, {0.0, 42.5, 0.0},
             {1.0, 0.0, -1e-3}}) {
      sets.push_back(p);
    }
  }
  return sets;
}

TEST(DecodeLanes, PredictionsMatchPortableOnEveryKind) {
  const std::vector<const DecodeLane*> lanes =
      LanesToRun("PredictionsMatchPortableOnEveryKind");
  const DecodeLane& ref = AllDecodeLanes()[0];
  ASSERT_EQ(ref.name, "portable");
  for (int k = 0; k < kNumFunctionKinds; ++k) {
    const FunctionKind kind = static_cast<FunctionKind>(k);
    for (const std::vector<double>& p : ParamSets(kind)) {
      for (int64_t xi : {int64_t{0}, int64_t{1}, int64_t{2}, int64_t{3},
                         int64_t{17}, int64_t{4095}, int64_t{65537},
                         int64_t{1} << 40, (int64_t{1} << 53) + 1}) {
        const int64_t want = ref.predict_floor(kind, p.data(), xi);
        for (const DecodeLane* lane : lanes) {
          ASSERT_EQ(lane->predict_floor(kind, p.data(), xi), want)
              << lane->name << " kind " << KindName(kind) << " x " << xi
              << " params " << p[0] << " " << p[1] << " " << p[2];
        }
        // The shared definition: floor of the pinned value, clamped.
        const double v = PredictValue(kind, p.data(), xi);
        const double c = std::isnan(v) ? 0.0
                                       : std::clamp(v, -0x1p61, 0x1p61);
        ASSERT_EQ(want, static_cast<int64_t>(std::floor(c)));
      }
    }
  }
}

/// Reference decode of one run, value by value: portable predictions plus
/// ReadBits corrections.
std::vector<int64_t> ReferenceRun(const FragmentRun& r) {
  std::vector<int64_t> out(r.count);
  for (uint64_t j = 0; j < r.count; ++j) {
    const int64_t pred = AllDecodeLanes()[0].predict_floor(
        r.kind, r.params, r.x0 + static_cast<int64_t>(j));
    const uint64_t pos = r.bit_offset + j * static_cast<uint64_t>(r.bits);
    const uint64_t corr = r.bits == 0 ? 0 : ReadBits(r.words, pos, r.bits);
    out[j] = static_cast<int64_t>(static_cast<uint64_t>(pred) + corr + r.add);
  }
  return out;
}

TEST(DecodeLanes, RunsMatchPortableAcrossWidthsStartsAndLengths) {
  const std::vector<const DecodeLane*> lanes =
      LanesToRun("RunsMatchPortableAcrossWidthsStartsAndLengths");
  std::mt19937_64 rng(2024);
  // A correction array sized exactly like a blob's: the vector lanes must
  // stay inside it when a run ends in its last word.
  std::vector<uint64_t> words(113);  // room for 100 values at 64 bits
  for (uint64_t& w : words) w = rng();
  std::vector<int64_t> got;
  size_t runs = 0;
  for (int k = 0; k < kNumFunctionKinds; ++k) {
    const FunctionKind kind = static_cast<FunctionKind>(k);
    const std::vector<std::vector<double>> sets = ParamSets(kind);
    for (int bits = 0; bits <= 64; ++bits) {
      for (uint64_t count : {uint64_t{1}, uint64_t{3}, uint64_t{4},
                             uint64_t{7}, uint64_t{8}, uint64_t{9},
                             uint64_t{31}, uint64_t{100}}) {
        const std::vector<double>& p = sets[rng() % sets.size()];
        FragmentRun run;
        run.kind = kind;
        run.params = p.data();
        run.x0 = static_cast<int64_t>(rng() % 5000);  // odd and even starts
        run.count = count;
        run.words = words.data();
        run.num_words = words.size();
        run.bits = bits;
        const uint64_t room =
            words.size() * 64 - count * static_cast<uint64_t>(bits);
        // Odd bit offsets, and runs that end exactly at the last bit.
        run.bit_offset = (rng() % 2 == 0) ? rng() % (room + 1) : room;
        run.add = rng();
        const std::vector<int64_t> want = ReferenceRun(run);
        for (const DecodeLane* lane : lanes) {
          got.assign(count, 0x5A5A5A5A5A5A5A5A);
          run.out = got.data();
          lane->decode(run);
          ASSERT_EQ(got, want) << lane->name << " kind " << KindName(kind)
                               << " bits " << bits << " count " << count
                               << " x0 " << run.x0 << " offset "
                               << run.bit_offset;
        }
        ++runs;
      }
    }
  }
  EXPECT_GT(runs, 5000u);
}

TEST(DecodeLanes, CoordinatesPastTheExactDoubleRangeFallBackToScalar) {
  const std::vector<const DecodeLane*> lanes =
      LanesToRun("CoordinatesPastTheExactDoubleRangeFallBackToScalar");
  const double p[3] = {0.5, 3.0, 0.0};
  for (int k = 0; k < 4; ++k) {  // the kinds with vector bodies
    FragmentRun run;
    run.kind = static_cast<FunctionKind>(k);
    run.params = p;
    run.x0 = (int64_t{1} << 52) - 5;  // crosses 2^52 mid-run
    run.count = 16;
    const std::vector<int64_t> want = ReferenceRun(run);
    for (const DecodeLane* lane : lanes) {
      std::vector<int64_t> got(run.count);
      run.out = got.data();
      lane->decode(run);
      ASSERT_EQ(got, want) << lane->name << " kind " << k;
    }
  }
}

// The codecs decode through the active lane; a range decode must agree with
// per-value Access (which predicts through the lane's scalar body) on real
// shapes, for NeaTS, NeaTS-L and LeCo alike.
TEST(DecodeLanes, CodecRangesMatchAccessOnDatasets) {
  LanesToRun("CodecRangesMatchAccessOnDatasets");
  for (const char* code : {"ECG", "IT", "CT", "DP", "UK", "US"}) {
    SCOPED_TRACE(code);
    const Dataset ds = MakeDataset(code, 20000);
    const Neats neats = Neats::Compress(ds.values);
    const Leco leco = Leco::Compress(ds.values);
    const NeatsLossy lossy = NeatsLossy::Compress(ds.values, 50);
    std::vector<int64_t> out(ds.values.size());
    neats.DecompressRange(0, ds.values.size(), out.data());
    ASSERT_EQ(out, ds.values);
    leco.DecompressRange(0, ds.values.size(), out.data());
    ASSERT_EQ(out, ds.values);
    std::vector<int64_t> approx;
    lossy.Decompress(&approx);
    for (uint64_t k = 0; k < ds.values.size(); k += 7) {
      ASSERT_EQ(neats.Access(k), ds.values[k]) << k;
      ASSERT_EQ(leco.Access(k), ds.values[k]) << k;
      ASSERT_EQ(lossy.Access(k), approx[k]) << k;
      ASSERT_LE(std::abs(approx[k] - ds.values[k]), 51) << k;
    }
  }
}

}  // namespace
}  // namespace neats
