#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <vector>

#include "codecs/codec_registry.hpp"
#include "core/neats.hpp"
#include "core/neats_lossy.hpp"
#include "datasets/generators.hpp"
#include "io/text_io.hpp"
#include "require_error.hpp"

namespace neats {
namespace {

std::vector<int64_t> RandomWalk(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<int64_t> values;
  int64_t cur = -500;
  for (size_t i = 0; i < n; ++i) {
    cur += static_cast<int64_t>(rng() % 41) - 20;
    values.push_back(cur);
  }
  return values;
}

void CheckSerializationRoundTrip(const std::vector<int64_t>& values,
                                 const NeatsOptions& options = {}) {
  Neats original = Neats::Compress(values, options);
  std::vector<uint8_t> bytes;
  original.Serialize(&bytes);
  Neats loaded = Neats::Deserialize(bytes);

  ASSERT_EQ(loaded.size(), values.size());
  ASSERT_EQ(loaded.num_fragments(), original.num_fragments());
  std::vector<int64_t> decoded;
  loaded.Decompress(&decoded);
  ASSERT_EQ(decoded, values);
  for (size_t k = 0; k < values.size(); k += 101) {
    ASSERT_EQ(loaded.Access(k), values[k]);
  }
  // Serialize the loaded copy again: byte-identical (canonical format).
  std::vector<uint8_t> bytes2;
  loaded.Serialize(&bytes2);
  EXPECT_EQ(bytes, bytes2);
}

TEST(Serialization, EmptySeries) {
  CheckSerializationRoundTrip({});
}

TEST(Serialization, SingleValue) { CheckSerializationRoundTrip({-42}); }

TEST(Serialization, RandomWalks) {
  CheckSerializationRoundTrip(RandomWalk(5000, 1));
  CheckSerializationRoundTrip(RandomWalk(20000, 2));
}

TEST(Serialization, AllDatasets) {
  for (const auto& code : AllDatasetCodes()) {
    Dataset ds = MakeDataset(code, 5000);
    CheckSerializationRoundTrip(ds.values);
  }
}

/// FNV-1a of a codec's serialized blob.
template <class Codec>
uint64_t BlobHash(const Codec& codec) {
  std::vector<uint8_t> bytes;
  codec.Serialize(&bytes);
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Pins the partitioner's output through the blobs it shapes: NeaTS and
// NeaTS-L (eps 8) of four generated datasets, each at one store shard's
// size and at the default shard size (seed 1, default options). A change to
// the partition search that alters any chosen fragment or parameter changes
// a hash.
TEST(Serialization, PartitionedBlobsHashAsPinned) {
  struct Golden {
    const char* code;
    size_t n;
    uint64_t neats, lossy;
  };
  const Golden kGolden[] = {
      {"ECG", 16384, 0x25f88767dc589969ull, 0xdb95791d5d2d2e76ull},
      {"ECG", 65536, 0x7802bd9838b80328ull, 0x0f9b5783fd9036eaull},
      {"IT", 16384, 0xdb4834b79a0a2759ull, 0x3472b3eb0383182aull},
      {"IT", 65536, 0x63d766657d0ab1ecull, 0xf1228a9cc4b8afe9ull},
      {"DP", 16384, 0x6562b850eae1e04bull, 0x8cd1b6b805c6ec54ull},
      {"DP", 65536, 0xde86bd52227f58c3ull, 0xb96c9f0beebbcea6ull},
      {"US", 16384, 0xe353cc192be2bc22ull, 0xd00afd101a1e0a17ull},
      {"US", 65536, 0xcd9e3706caf88eafull, 0xa0c1915ece0c5eb5ull},
  };
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(std::string(g.code) + " n=" + std::to_string(g.n));
    const std::vector<int64_t> values = MakeDataset(g.code, g.n, 1).values;
    EXPECT_EQ(BlobHash(Neats::Compress(values)), g.neats);
    EXPECT_EQ(BlobHash(NeatsLossy::Compress(values, 8)), g.lossy);
  }
}

// Pins the store's NeaTS seal (CodecRegistry::Compress with kNeats: model
// selection on a 10% sample, top 8 pairs) on the datasets and sizes above.
// Neats::Compress stays full Algorithm 1 and keeps the hashes above.
TEST(Serialization, SealedNeatsBlobsHashAsPinned) {
  struct Golden {
    const char* code;
    size_t n;
    uint64_t sealed;
  };
  const Golden kGolden[] = {
      {"ECG", 16384, 0x22d442b0e5d277bdull},
      {"ECG", 65536, 0x5290b61b4342bb41ull},
      {"IT", 16384, 0xf7d323d15e088491ull},
      {"IT", 65536, 0x50762e71ae74ee75ull},
      {"DP", 16384, 0x6562b850eae1e04bull},
      {"DP", 65536, 0x003f60f9bafb108bull},
      {"US", 16384, 0x2f1d0d7e63e2ef02ull},
      {"US", 65536, 0x863c569ea40bf006ull},
  };
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(std::string(g.code) + " n=" + std::to_string(g.n));
    const std::vector<int64_t> values = MakeDataset(g.code, g.n, 1).values;
    EXPECT_EQ(BlobHash(*CodecRegistry::Compress(CodecId::kNeats, values, {})),
              g.sealed);
  }
}

// The seal's model selection costs at most 1% of Neats::Compress's bits per
// dataset (its 16Ki and 64Ki shards together), and at most 2% on any one
// shard. Seed 1 reads 0.997-1.007 per shard except IT at 16Ki, 1.0174: its
// 1638-value sample picks only eps 16 and 32, where the full search also
// uses 0, 4 and 64.
TEST(Serialization, SealedNeatsBitsStayWithinBudget) {
  for (const char* code : {"ECG", "IT", "DP", "US"}) {
    size_t full_total = 0;
    size_t sealed_total = 0;
    for (size_t n : {size_t{16384}, size_t{65536}}) {
      SCOPED_TRACE(std::string(code) + " n=" + std::to_string(n));
      const std::vector<int64_t> values = MakeDataset(code, n, 1).values;
      const size_t full = Neats::Compress(values).SizeInBits();
      const size_t sealed =
          CodecRegistry::Compress(CodecId::kNeats, values, {})->SizeInBits();
      EXPECT_LE(static_cast<double>(sealed), 1.02 * static_cast<double>(full));
      full_total += full;
      sealed_total += sealed;
    }
    EXPECT_LE(static_cast<double>(sealed_total),
              1.01 * static_cast<double>(full_total))
        << code;
  }
}

TEST(Serialization, RejectsGarbage) {
  std::vector<uint8_t> junk(64, 0xAB);
  EXPECT_NEATS_ERROR(Neats::Deserialize(junk), "not a NeaTS blob");
}

TEST(TextIo, ParsesDecimalsWithMixedPrecision) {
  std::istringstream in("12.5\n-3.25\n7\n0.001\n");
  ParsedSeries series = ParseDecimalLines(in);
  EXPECT_EQ(series.digits, 3);
  ASSERT_EQ(series.values.size(), 4u);
  EXPECT_EQ(series.values[0], 12500);
  EXPECT_EQ(series.values[1], -3250);
  EXPECT_EQ(series.values[2], 7000);
  EXPECT_EQ(series.values[3], 1);
}

TEST(TextIo, ParsesIntegers) {
  std::istringstream in("5\n-17\n0\n");
  ParsedSeries series = ParseDecimalLines(in);
  EXPECT_EQ(series.digits, 0);
  EXPECT_EQ(series.values, (std::vector<int64_t>{5, -17, 0}));
}

TEST(TextIo, SkipsEmptyLinesAndCarriageReturns) {
  std::istringstream in("1.5\r\n\n2.5\r\n");
  ParsedSeries series = ParseDecimalLines(in);
  ASSERT_EQ(series.values.size(), 2u);
  EXPECT_EQ(series.values[0], 15);
  EXPECT_EQ(series.values[1], 25);
}

TEST(TextIo, FileRoundTrip) {
  std::vector<uint8_t> bytes = {0, 1, 2, 255, 128, 7};
  std::string path = ::testing::TempDir() + "/neats_io_test.bin";
  WriteFile(path, bytes);
  EXPECT_EQ(ReadFile(path), bytes);
}

}  // namespace
}  // namespace neats
