// Tests for the performance subsystem: bulk correction unpacking, the
// thread pool, parallel/chunked compression (bit-identity & determinism),
// and the sequential-access cursor.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/neats.hpp"
#include "succinct/bit_stream.hpp"

namespace neats {
namespace {

// A series that exercises several function kinds: exponential growth, a
// linear ramp, a noisy plateau, and a quadratic arc.
std::vector<int64_t> MixedKindSeries(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<int64_t> values;
  values.reserve(n);
  size_t quarter = n / 4;
  for (size_t i = 0; i < quarter; ++i) {
    values.push_back(static_cast<int64_t>(
        100.0 * std::exp(0.004 * static_cast<double>(i))));
  }
  while (values.size() < 2 * quarter) values.push_back(values.back() + 9);
  while (values.size() < 3 * quarter) {
    values.push_back(50000 + static_cast<int64_t>(rng() % 64));
  }
  while (values.size() < n) {
    double x = static_cast<double>(values.size() - 3 * quarter);
    values.push_back(60000 - static_cast<int64_t>(0.02 * x * x) +
                     static_cast<int64_t>(rng() % 8));
  }
  return values;
}

TEST(UnpackBitsRun, MatchesPerElementReadBitsFuzz) {
  std::mt19937_64 rng(20260726);
  for (int trial = 0; trial < 500; ++trial) {
    const int width = static_cast<int>(rng() % 65);  // 0..64 inclusive
    const size_t count = rng() % 200;
    const size_t lead_bits = rng() % 131;  // unaligned start offset

    BitWriter writer;
    for (size_t b = 0; b < lead_bits; ++b) writer.AppendBit(rng() & 1);
    std::vector<uint64_t> expected;
    expected.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      uint64_t v = rng() & LowMask(width);
      expected.push_back(v);
      writer.Append(v, width);
    }
    std::vector<uint64_t> words = writer.TakeWords();

    std::vector<uint64_t> unpacked(count, 0xABABABABABABABABULL);
    UnpackBitsRun(words.data(), lead_bits, width, count, unpacked.data());
    for (size_t i = 0; i < count; ++i) {
      ASSERT_EQ(unpacked[i], expected[i])
          << "width=" << width << " lead=" << lead_bits << " i=" << i;
      ASSERT_EQ(unpacked[i],
                ReadBits(words.data(), lead_bits + i * width, width));
    }
  }
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  constexpr size_t kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(kCount, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kCount; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
  // Repeated jobs on the same pool.
  std::atomic<size_t> sum{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(97, [&](size_t i) { sum.fetch_add(i + 1); });
  }
  EXPECT_EQ(sum.load(), 50u * (97u * 98u) / 2u);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  size_t sum = 0;  // no atomics needed: everything runs on this thread
  pool.ParallelFor(100, [&](size_t i) { sum += i; });
  EXPECT_EQ(sum, 4950u);
}

TEST(Neats, ChunkedCompressionIsDeterministicAndLossless) {
  std::vector<int64_t> values = MixedKindSeries(8000, 2);
  NeatsOptions chunked1;
  chunked1.chunk_size = 1500;
  chunked1.num_threads = 1;
  NeatsOptions chunked4 = chunked1;
  chunked4.num_threads = 4;

  Neats c1 = Neats::Compress(values, chunked1);
  Neats c4 = Neats::Compress(values, chunked4);
  std::vector<uint8_t> bytes1, bytes4;
  c1.Serialize(&bytes1);
  c4.Serialize(&bytes4);
  EXPECT_EQ(bytes1, bytes4);

  // Without chunking the partition is one serial sweep: num_threads must
  // not change a byte.
  NeatsOptions global4;
  global4.num_threads = 4;
  std::vector<uint8_t> global_serial, global_threads;
  Neats::Compress(values).Serialize(&global_serial);
  Neats::Compress(values, global4).Serialize(&global_threads);
  EXPECT_EQ(global_serial, global_threads);

  std::vector<int64_t> decoded;
  c4.Decompress(&decoded);
  EXPECT_EQ(decoded, values);
  for (size_t k = 0; k < values.size(); k += 37) {
    ASSERT_EQ(c4.Access(k), values[k]) << k;
  }
}

TEST(Neats, ChunkedBoundaryMergeBitIdenticalToGlobalOnMergeFriendlyInput) {
  // On a series the global partitioner covers with one fragment, the
  // chunked path's boundary-merge pass must collapse the per-chunk
  // fragments back into that exact fragment — serialized bytes and all.
  std::vector<int64_t> values;
  for (size_t i = 0; i < 5000; ++i) {
    values.push_back(3 * static_cast<int64_t>(i) + 101);
  }
  std::vector<uint8_t> global_bytes;
  Neats::Compress(values).Serialize(&global_bytes);
  for (uint64_t chunk : {uint64_t{512}, uint64_t{1700}}) {
    NeatsOptions chunked;
    chunked.chunk_size = chunk;
    std::vector<uint8_t> chunked_bytes;
    Neats::Compress(values, chunked).Serialize(&chunked_bytes);
    EXPECT_EQ(chunked_bytes, global_bytes) << "chunk=" << chunk;
  }
}

TEST(Neats, CursorIterationMatchesAccessEverywhere) {
  std::vector<int64_t> values = MixedKindSeries(5000, 3);
  Neats compressed = Neats::Compress(values);
  Neats::Cursor cursor(compressed);
  for (size_t k = 0; k < values.size(); ++k) {
    ASSERT_FALSE(cursor.done());
    ASSERT_EQ(cursor.position(), k);
    ASSERT_EQ(cursor.Next(), values[k]) << k;
    ASSERT_EQ(compressed.Access(k), values[k]) << k;
  }
  EXPECT_TRUE(cursor.done());
}

TEST(Neats, CursorMonotoneAndBackwardSeeks) {
  std::vector<int64_t> values = MixedKindSeries(5000, 4);
  Neats compressed = Neats::Compress(values);
  std::mt19937_64 rng(99);
  Neats::Cursor cursor(compressed);
  // Monotone seeks with mixed stride lengths (within-fragment hops, short
  // fragment advances, and rank-fallback jumps).
  uint64_t k = 0;
  while (k < values.size()) {
    cursor.Seek(k);
    ASSERT_EQ(cursor.Value(), values[k]) << k;
    k += 1 + rng() % 400;
  }
  // Backward seeks fall back to the full rank.
  for (int trial = 0; trial < 50; ++trial) {
    uint64_t j = rng() % values.size();
    cursor.Seek(j);
    ASSERT_EQ(cursor.Value(), values[j]) << j;
  }
}

TEST(Neats, CursorBulkReadMatchesValues) {
  std::vector<int64_t> values = MixedKindSeries(4000, 5);
  Neats compressed = Neats::Compress(values);
  std::mt19937_64 rng(7);
  Neats::Cursor cursor(compressed);
  std::vector<int64_t> got;
  std::vector<int64_t> buffer(512);
  while (!cursor.done()) {
    uint64_t want = 1 + rng() % buffer.size();
    uint64_t produced = cursor.Read(want, buffer.data());
    ASSERT_GT(produced, 0u);
    got.insert(got.end(), buffer.begin(),
               buffer.begin() + static_cast<ptrdiff_t>(produced));
  }
  EXPECT_EQ(got, values);
}

TEST(Neats, StreamedRangeSumMatchesDirectSum) {
  std::vector<int64_t> values = MixedKindSeries(6000, 6);
  Neats compressed = Neats::Compress(values);
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    uint64_t from = rng() % values.size();
    uint64_t len = rng() % (values.size() - from);
    int64_t expected = 0;
    for (uint64_t j = from; j < from + len; ++j) expected += values[j];
    ASSERT_EQ(compressed.RangeSum(from, len), expected)
        << "from=" << from << " len=" << len;
  }
}

TEST(Neats, EmptyAndTinySeriesCursor) {
  Neats empty = Neats::Compress(std::vector<int64_t>{});
  Neats::Cursor cursor(empty);
  EXPECT_TRUE(cursor.done());
  EXPECT_EQ(cursor.Read(10, nullptr), 0u);

  std::vector<int64_t> one = {42};
  Neats single = Neats::Compress(one);
  Neats::Cursor c1(single);
  EXPECT_EQ(c1.Next(), 42);
  EXPECT_TRUE(c1.done());

  // Constructing at (or past) the end clamps to n instead of aborting.
  Neats::Cursor past(single, 7);
  EXPECT_TRUE(past.done());
  EXPECT_EQ(past.position(), 1u);
}

TEST(Neats, CursorConstructedMidSeries) {
  std::vector<int64_t> values = MixedKindSeries(3000, 8);
  Neats compressed = Neats::Compress(values);
  for (uint64_t start : {1ull, 500ull, 1499ull, 2999ull}) {
    Neats::Cursor cursor(compressed, start);
    ASSERT_EQ(cursor.position(), start);
    ASSERT_EQ(cursor.Value(), values[start]) << start;
  }
}

}  // namespace
}  // namespace neats
