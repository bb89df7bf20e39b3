// Quickstart: compress a time series losslessly with NeaTS, inspect the
// learned fragments (the picture of Figure 1), query single values and
// ranges, and verify the round trip.
//
//   $ ./build/example_quickstart

#include <cmath>
#include <cstdio>
#include <random>
#include <vector>

#include "neats/neats.hpp"

int main() {
  // A little synthetic series: exponential growth, then a linear ramp,
  // then a noisy plateau — the kind of mixed trends NeaTS is built for.
  std::vector<int64_t> values;
  std::mt19937_64 rng(7);
  for (int i = 0; i < 400; ++i) {
    values.push_back(static_cast<int64_t>(100.0 * std::exp(0.012 * i)));
  }
  for (int i = 0; i < 400; ++i) {
    values.push_back(values.back() + 9);
  }
  for (int i = 0; i < 400; ++i) {
    values.push_back(12000 + static_cast<int64_t>(rng() % 32));
  }

  // --- Compress. ---
  neats::Neats compressed = neats::Neats::Compress(values);

  double ratio = 100.0 * static_cast<double>(compressed.SizeInBits()) /
                 (64.0 * static_cast<double>(values.size()));
  std::printf("compressed %zu values: %zu fragments, %.2f%% of raw size\n\n",
              values.size(), compressed.num_fragments(), ratio);

  // --- Inspect the learned fragments (compare with the paper's Figure 1). ---
  std::printf("%-8s %-8s %-14s %-10s %s\n", "start", "end", "kind",
              "corr.bits", "parameters");
  for (size_t i = 0; i < compressed.num_fragments() && i < 12; ++i) {
    auto frag = compressed.GetFragment(i);
    std::printf("%-8llu %-8llu %-14s %-10d [%.4g, %.4g, %.4g]\n",
                static_cast<unsigned long long>(frag.start),
                static_cast<unsigned long long>(frag.end),
                std::string(neats::KindName(frag.kind)).c_str(),
                frag.correction_bits, frag.params[0], frag.params[1],
                frag.params[2]);
  }

  // --- Random access (Algorithm 3): no block decompression needed. ---
  std::printf("\nrandom access: T[5]=%lld  T[500]=%lld  T[1100]=%lld\n",
              static_cast<long long>(compressed.Access(5)),
              static_cast<long long>(compressed.Access(500)),
              static_cast<long long>(compressed.Access(1100)));

  // --- Range query: one random access plus a scan. ---
  std::vector<int64_t> window(16);
  compressed.DecompressRange(395, window.size(), window.data());
  std::printf("range [395, 411): ");
  for (int64_t v : window) std::printf("%lld ", static_cast<long long>(v));
  std::printf("\n");

  // --- Sequential access: a cursor skips the per-call fragment rank. ---
  // Cursor::Next()/Seek() cache the current fragment and advance in O(1),
  // so scanning (or monotone skipping) is much cheaper than calling
  // Access(k) in a loop. Read() bulk-decodes into a buffer.
  neats::Neats::Cursor cursor(compressed, 390);
  int64_t sum = 0;
  for (int i = 0; i < 20; ++i) sum += cursor.Next();
  std::printf("cursor sum over [390, 410) = %lld\n",
              static_cast<long long>(sum));

  // --- Verify the lossless round trip. ---
  std::vector<int64_t> decoded;
  compressed.Decompress(&decoded);
  const bool ok = decoded == values;
  std::printf("\nlossless round trip: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
