// Reproduces Figure 4: range-query throughput (queries/s) across range sizes
// 10*2^0 ... 10*2^16, for the best compressors in random access or
// decompression speed: ALP, DAC, FastLz (the paper's Lz4 role), and NeaTS,
// averaged over the largest datasets.
//
// Shape to expect (paper): DAC wins for ranges below ~40 points, NeaTS wins
// everywhere above, and both are at least an order of magnitude ahead of
// ALP and the LZ-family for small ranges.

#include <algorithm>
#include <cstdio>
#include <random>
#include <vector>

#include "harness.hpp"

using namespace neats;
using namespace neats::bench;

int main() {
  // The paper averages over the 11 largest datasets; laptop scale: first 8.
  const size_t kUseDatasets = 8;

  std::vector<Compressor> roster;
  auto full = LosslessRoster();
  for (auto& c : full) {
    if (c.name == "ALP" || c.name == "DAC" || c.name == "FastLz" ||
        c.name == "NeaTS") {
      roster.push_back(std::move(c));
    }
  }

  std::vector<std::vector<std::unique_ptr<AnyCompressed>>> blobs(roster.size());
  std::vector<size_t> ns;
  for (size_t d = 0; d < kUseDatasets; ++d) {
    Dataset ds = LoadDataset(kDatasetSpecs[d]);
    ns.push_back(ds.values.size());
    for (size_t c = 0; c < roster.size(); ++c) {
      blobs[c].push_back(roster[c].compress(ds));
    }
  }

  std::printf("== Figure 4 reproduction: range query throughput (queries/s) "
              "==\n\n");
  std::printf("%-10s", "range");
  for (const auto& c : roster) std::printf(" %14s", c.name.c_str());
  std::printf("\n");

  const size_t longest = *std::max_element(ns.begin(), ns.end());
  bool empty_rows = false;
  for (int p = 0; p <= 16; p += 2) {
    size_t range = 10u * (1u << p);
    std::printf("%-10zu", range);
    if (longest <= range) {
      // No dataset is long enough to hold a range this size: there is
      // nothing to time, and a 0 would read as a measurement.
      for (size_t c = 0; c < roster.size(); ++c) std::printf(" %14s", "n/a");
      std::printf("\n");
      empty_rows = true;
      continue;
    }
    for (size_t c = 0; c < roster.size(); ++c) {
      double qps_sum = 0;
      size_t counted = 0;
      for (size_t d = 0; d < kUseDatasets; ++d) {
        if (ns[d] <= range) continue;
        std::mt19937_64 rng(13 + p);
        std::vector<size_t> starts(512);
        for (auto& s : starts) s = rng() % (ns[d] - range);
        double qps = OpsPerSecond(
            [&](size_t i) {
              return blobs[c][d]->Range(starts[i & 511], range);
            },
            0.1, 4096);
        qps_sum += qps;
        ++counted;
      }
      std::printf(" %14.0f", qps_sum / static_cast<double>(counted));
    }
    std::printf("\n");
  }
  if (empty_rows) {
    std::printf("\nn/a: no dataset of the first %zu is longer than the "
                "range (longest: %zu values).\n",
                kUseDatasets, longest);
  }
  return 0;
}
