// Ablations over the NeaTS design choices:
//   (a) the function set F (linear-only vs the paper's four kinds vs the
//       full catalogue with 3-parameter kinds),
//   (b) suffix edges in the partitioner on/off,
//   (c) the error-bound set E (dense powers of two vs sparse),
//   (d) model-selection sample size for SNeaTS (top 5 pairs), next to the
//       store's NeaTS seal setting (CodecRegistry::Compress: top 8 pairs).

#include <cstdio>
#include <random>
#include <vector>

#include "codecs/codec_registry.hpp"
#include "harness.hpp"

using namespace neats;
using namespace neats::bench;

namespace {

struct Row {
  const char* name;
  double ratio = 0, comp_s = 0, access_mb_s = 0;
};

Row Measure(const char* name, const Dataset& ds, const NeatsOptions& options) {
  Row row{name};
  Timer t;
  Neats blob = Neats::Compress(ds.values, options);
  row.comp_s = t.ElapsedSeconds();
  row.ratio = RatioPct(blob.SizeInBits(), ds.values.size());
  std::mt19937_64 rng(3);
  std::vector<size_t> probes(1 << 14);
  for (auto& p : probes) p = rng() % ds.values.size();
  row.access_mb_s = OpsPerSecond([&](size_t i) {
    return static_cast<uint64_t>(blob.Access(probes[i & (probes.size() - 1)]));
  }, 0.15) * 8.0 / 1048576.0;
  return row;
}

void Print(const Row& row) {
  std::printf("%-34s %10.2f %12.3f %16.2f\n", row.name, row.ratio, row.comp_s,
              row.access_mb_s);
}

}  // namespace

int main() {
  // A mid-size dataset with visible nonlinear structure.
  Dataset ds = MakeDataset("ECG", BenchSize(kDatasetSpecs[2]));
  std::printf("== NeaTS ablations (dataset ECG, n=%zu) ==\n\n",
              ds.values.size());
  std::printf("%-34s %10s %12s %16s\n", "variant", "ratio(%)", "comp(s)",
              "access(MB/s)");

  // (a) function set.
  NeatsOptions lin, four, full;
  lin.partition.kinds = {FunctionKind::kLinear};
  four.partition.kinds = {FunctionKind::kLinear, FunctionKind::kExponential,
                          FunctionKind::kQuadratic, FunctionKind::kRadical};
  full.partition.kinds = {
      FunctionKind::kLinear,      FunctionKind::kExponential,
      FunctionKind::kQuadratic,   FunctionKind::kRadical,
      FunctionKind::kPower,       FunctionKind::kLogarithm,
      FunctionKind::kQuadMixed,   FunctionKind::kCubicOdd,
      FunctionKind::kCubicMixed,  FunctionKind::kQuadraticFull,
      FunctionKind::kGaussian};
  Print(Measure("F = {linear}  (LeaTS)", ds, lin));
  Print(Measure("F = paper's 4 kinds (default)", ds, four));
  Print(Measure("F = full catalogue (11 kinds)", ds, full));

  // (b) suffix edges.
  NeatsOptions nosuffix;
  nosuffix.partition.use_suffix_edges = false;
  Print(Measure("no suffix edges", ds, nosuffix));

  // (c) E density.
  NeatsOptions sparse;
  auto dense_eps = DefaultEpsilons(ds.values);
  for (size_t i = 0; i < dense_eps.size(); i += 2) {
    sparse.partition.epsilons.push_back(dense_eps[i]);
  }
  Print(Measure("E = every other power of two", ds, sparse));

  // (d) model selection sample.
  for (double frac : {0.01, 0.1, 0.25}) {
    Timer t;
    Neats blob = Neats::CompressWithModelSelection(ds.values, {}, frac, 5);
    double secs = t.ElapsedSeconds();
    std::printf("%-24s sample=%4.0f%% %10.2f %12.3f %16s\n",
                "SNeaTS (top 5)", 100 * frac,
                RatioPct(blob.SizeInBits(), ds.values.size()), secs, "-");
  }
  Timer t;
  auto sealed = CodecRegistry::Compress(CodecId::kNeats, ds.values, {});
  double secs = t.ElapsedSeconds();
  char label[32];
  std::snprintf(label, sizeof(label), "store seal (top %zu)", kSealTopPairs);
  std::printf("%-24s sample=%4.0f%% %10.2f %12.3f %16s\n", label,
              100 * kSealSampleFraction,
              RatioPct(sealed->SizeInBits(), ds.values.size()), secs, "-");
  return 0;
}
