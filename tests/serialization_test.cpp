#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <vector>

#include "core/neats.hpp"
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
