// Cache-lines-per-query microbenchmark: how many distinct 64-byte cache
// lines one random access touches, measured by replaying queries against a
// build instrumented with the NEATS_TOUCH probes (src/common/touch_probe.hpp;
// this translation unit is compiled with -DNEATS_PROFILE_TOUCH, see
// CMakeLists.txt — do not link it together with uninstrumented TUs).
//
// Reported per dataset for Neats::Access: the Elias-Fano predecessor on S
// plus one fragment-directory record, the parameters and the correction
// word.
//
// The count covers reads of frozen payload (bitvector words, rank/select
// directories, directory records, parameters, correction words).
// Object-header fields (sizes, widths, pointers) live in the hot Neats
// object itself and are excluded — they are resident after the first query
// anyway.
//
//   $ ./build/bench_dir_lines
//
// Environment: NEATS_BENCH_N caps dataset sizes (bench/harness.hpp).

#ifndef NEATS_PROFILE_TOUCH
#error "dir_lines.cpp must be compiled with -DNEATS_PROFILE_TOUCH"
#endif

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "core/neats.hpp"
#include "datasets/generators.hpp"
#include "harness.hpp"

namespace neats::bench {
namespace {

/// Runs `op` with the touch log armed and returns the number of distinct
/// cache lines it recorded.
template <typename Op>
size_t DistinctLines(Op&& op) {
  static thread_local std::vector<uint64_t> buf(1 << 16);
  touch::log = buf.data();
  touch::log_capacity = buf.size();
  touch::log_count = 0;
  op();
  touch::log = nullptr;
  std::sort(buf.begin(), buf.begin() + static_cast<ptrdiff_t>(touch::log_count));
  return static_cast<size_t>(
      std::unique(buf.begin(),
                  buf.begin() + static_cast<ptrdiff_t>(touch::log_count)) -
      buf.begin());
}

double MeasureDataset(const DatasetSpec& spec) {
  Dataset ds = LoadDataset(spec);
  Neats compressed = Neats::Compress(ds.values);
  std::mt19937_64 rng(42);
  std::vector<uint64_t> idx(1 << 12);
  for (auto& i : idx) i = rng() % ds.values.size();
  double lines = 0;
  uint64_t sink = 0;
  for (uint64_t i : idx) {
    lines += static_cast<double>(
        DistinctLines([&] { sink += static_cast<uint64_t>(compressed.Access(i)); }));
  }
  if (sink == 0xDEADBEEFCAFEBABEULL) std::fprintf(stderr, "!");
  return lines / static_cast<double>(idx.size());
}

}  // namespace
}  // namespace neats::bench

int main() {
  using namespace neats;
  using namespace neats::bench;
  std::printf("avg distinct cache lines per random access\n");
  std::printf("%-5s %8s\n", "set", "dir");
  for (const DatasetSpec& spec : kDatasetSpecs) {
    std::string code = spec.code;
    if (code != "CT" && code != "DP" && code != "UK" && code != "ECG") continue;
    double lines = MeasureDataset(spec);
    std::printf("%-5s %8.2f\n", spec.code, lines);
    std::fflush(stdout);
  }
  return 0;
}
