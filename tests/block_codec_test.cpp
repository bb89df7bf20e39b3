// The block-codec random-access suite: the skip-index / offset-index point
// queries, the block-grouped batch kernels and the store serving their
// shards, fuzzed against raw-value ground truth for the three codecs that
// store values in fixed-size blocks (AlpCodec's 1024-value vectors,
// GorillaCodec's and ChimpCodec's 1000-value streams).
//
//   - block-by-block DecompressRange reassembles the series exactly
//     (partial last block, single-block and empty series included), and
//     owned Deserialize vs View agree on it;
//   - Access / sorted AccessBatch / DecompressRange vs the raw values, with
//     probe sets hammering block boundaries and duplicates;
//   - version policy: only format v2 opens; any other version word is
//     rejected by every open path;
//   - clobber sweep concentrated on the serialized index sections;
//   - store level: Access / AccessBatch over shards of each block codec
//     with unsorted / duplicate / descending probes, and a mixed-codec
//     directory store with batches and ranges crossing Neats <-> ALP <->
//     Gorilla shard boundaries.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "codecs/alp_codec.hpp"
#include "codecs/codec_registry.hpp"
#include "codecs/xor_codec.hpp"
#include "common/bits.hpp"
#include "core/codec_id.hpp"
#include "core/series_codec.hpp"
#include "require_error.hpp"
#include "store/neats_store.hpp"

namespace neats {
namespace {

// A series mixing regimes (exponential growth, ramp, noisy plateau,
// quadratic arc) so blocks get genuinely different content.
std::vector<int64_t> MixedSeries(size_t n, uint64_t seed) {
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

std::string TempStoreDir(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("neats_block_codec_test_") + tag + "_" +
           std::to_string(static_cast<unsigned long long>(
               std::chrono::steady_clock::now().time_since_epoch().count()))))
      .string();
}

// Per codec: its registry id, the message that rejects a foreign version
// word, its values per block, and the byte size of the index section that
// ends every blob — ALP's vector count plus one offset per vector, the XOR
// streams' interval and checkpoint total plus three words per checkpoint.
template <typename C>
struct BlockCodecInfo;

template <>
struct BlockCodecInfo<AlpCodec> {
  static constexpr CodecId kId = CodecId::kAlp;
  static constexpr const char* kVersionError =
      "unsupported ALP format version";
  static constexpr uint64_t kBlockValues = Alp::kVector;
  static size_t IndexSectionBytes(const AlpCodec& c) {
    return 8 * (1 + CeilDiv(c.size(), uint64_t{Alp::kVector}));
  }
};

template <typename C, CodecId id>
struct XorCodecInfo {
  static constexpr CodecId kId = id;
  static constexpr const char* kVersionError =
      "unsupported XOR-stream format version";
  static constexpr uint64_t kBlockValues = kDefaultBlockValues;
  static size_t IndexSectionBytes(const C& c) {
    uint64_t total = 0;
    for (uint64_t first = 0; first < c.size(); first += kBlockValues) {
      total += (std::min(kBlockValues, c.size() - first) - 1) /
               C::kSkipInterval;
    }
    return 8 * (2 + 3 * total);
  }
};

template <>
struct BlockCodecInfo<GorillaCodec>
    : XorCodecInfo<GorillaCodec, CodecId::kGorilla> {};
template <>
struct BlockCodecInfo<ChimpCodec>
    : XorCodecInfo<ChimpCodec, CodecId::kChimp> {};

template <typename C>
class BlockCodecTest : public ::testing::Test {
 protected:
  std::vector<int64_t> series_ = MixedSeries(12000, 7);
};

using BlockCodecs = ::testing::Types<AlpCodec, GorillaCodec, ChimpCodec>;
TYPED_TEST_SUITE(BlockCodecTest, BlockCodecs);

// DecompressRange over every block, one block at a time, reassembles the
// series exactly, including the partial last block; single-block and empty
// series hold up too.
TYPED_TEST(BlockCodecTest, BlockRangesReassembleSeries) {
  for (size_t n : {this->series_.size(), size_t{257}, size_t{1}, size_t{0}}) {
    std::vector<int64_t> values(this->series_.begin(),
                                this->series_.begin() + n);
    TypeParam c = TypeParam::Compress(values, {});
    ASSERT_EQ(c.size(), n);
    const uint64_t bv = BlockCodecInfo<TypeParam>::kBlockValues;
    std::vector<int64_t> reassembled(n);
    for (uint64_t first = 0; first < n; first += bv) {
      c.DecompressRange(first, std::min<uint64_t>(bv, n - first),
                        reassembled.data() + first);
    }
    ASSERT_EQ(reassembled, values) << "n " << n;
  }
}

// Scalar Access hammered at block boundaries (first/last value of every
// block) plus random probes.
TYPED_TEST(BlockCodecTest, AccessMatchesValuesAtBlockBoundaries) {
  TypeParam c = TypeParam::Compress(this->series_, {});
  const uint64_t bv = BlockCodecInfo<TypeParam>::kBlockValues;
  const uint64_t n = this->series_.size();
  for (uint64_t b = 0; b * bv < n; ++b) {
    for (uint64_t k : {b * bv, std::min(n, (b + 1) * bv) - 1}) {
      ASSERT_EQ(c.Access(k), this->series_[k]) << k;
    }
  }
  std::mt19937_64 rng(23);
  for (int t = 0; t < 3000; ++t) {
    uint64_t k = rng() % n;
    ASSERT_EQ(c.Access(k), this->series_[k]) << k;
  }
}

// The block-grouped batch kernel vs scalar ground truth: sorted probe sets
// of varying density (sparse spreads, dense clusters inside one block,
// heavy duplicates, block-boundary straddles).
TYPED_TEST(BlockCodecTest, SortedBatchFuzzMatchesValues) {
  TypeParam c = TypeParam::Compress(this->series_, {});
  const uint64_t bv = BlockCodecInfo<TypeParam>::kBlockValues;
  const uint64_t n = this->series_.size();
  std::mt19937_64 rng(29);
  for (int trial = 0; trial < 60; ++trial) {
    size_t count = 1 + rng() % 600;
    std::vector<uint64_t> idx(count);
    switch (trial % 4) {
      case 0:  // uniform spread
        for (auto& k : idx) k = rng() % n;
        break;
      case 1: {  // dense cluster inside one block
        uint64_t base = (rng() % (n / bv)) * bv;
        for (auto& k : idx) k = base + rng() % std::min<uint64_t>(bv, n - base);
        break;
      }
      case 2: {  // straddle a block boundary
        uint64_t edge = (1 + rng() % (n / bv)) * bv;
        for (auto& k : idx) {
          uint64_t span = 1 + rng() % 64;
          k = std::min<uint64_t>(n - 1, edge - std::min(edge, span) + rng() % (2 * span));
        }
        break;
      }
      default:  // heavy duplicates
        for (auto& k : idx) k = (rng() % n) / 40 * 40 % n;
        break;
    }
    std::sort(idx.begin(), idx.end());
    std::vector<int64_t> out(count);
    c.AccessBatch(idx, out.data());
    for (size_t j = 0; j < count; ++j) {
      ASSERT_EQ(out[j], this->series_[idx[j]])
          << "probe " << idx[j] << " trial " << trial;
    }
  }
}

// DecompressRange slices starting and ending mid-block, spanning several
// blocks, and hugging block edges.
TYPED_TEST(BlockCodecTest, RangesCrossBlockBoundaries) {
  TypeParam c = TypeParam::Compress(this->series_, {});
  const uint64_t bv = BlockCodecInfo<TypeParam>::kBlockValues;
  const uint64_t n = this->series_.size();
  std::mt19937_64 rng(31);
  std::vector<std::pair<uint64_t, uint64_t>> slices = {
      {bv - 1, 2},       // one value each side of the first boundary
      {bv, 1},           // block-aligned single value
      {0, n},            // everything
      {n - 1, 1},        // last value
      {bv / 2, 3 * bv},  // mid-block start spanning multiple blocks
  };
  for (int t = 0; t < 40; ++t) {
    uint64_t from = rng() % n;
    slices.push_back({from, rng() % std::min<uint64_t>(4 * bv, n - from)});
  }
  for (auto [from, len] : slices) {
    std::vector<int64_t> got(len);
    c.DecompressRange(from, len, got.data());
    for (uint64_t j = 0; j < len; ++j) {
      ASSERT_EQ(got[j], this->series_[from + j]) << from << "+" << j;
    }
  }
}

// View (an owning fallback for the XOR streams) decodes every block
// exactly as Deserialize does.
TYPED_TEST(BlockCodecTest, ViewMatchesDeserializeOnBlockRanges) {
  TypeParam c = TypeParam::Compress(this->series_, {});
  std::vector<uint8_t> blob;
  c.Serialize(&blob);
  std::vector<uint64_t> aligned((blob.size() + 7) / 8);
  std::memcpy(aligned.data(), blob.data(), blob.size());
  std::span<const uint8_t> bytes(
      reinterpret_cast<const uint8_t*>(aligned.data()), blob.size());
  TypeParam owned = TypeParam::Deserialize(blob);
  TypeParam viewed = TypeParam::View(bytes);
  const uint64_t n = this->series_.size();
  ASSERT_EQ(owned.size(), n);
  ASSERT_EQ(viewed.size(), n);
  const uint64_t bv = BlockCodecInfo<TypeParam>::kBlockValues;
  std::vector<int64_t> a(bv), b(bv);
  for (uint64_t first = 0; first < n; first += bv) {
    const uint64_t len = std::min(bv, n - first);
    owned.DecompressRange(first, len, a.data());
    viewed.DecompressRange(first, len, b.data());
    for (uint64_t j = 0; j < len; ++j) {
      ASSERT_EQ(a[j], b[j]) << first + j;
      ASSERT_EQ(a[j], this->series_[first + j]) << first + j;
    }
  }
}

// Only format v2 opens: a v2 blob with its version word patched to 0, 1
// (the retired index-free format) or 3 is rejected by Deserialize, View and
// the registry, borrowing or not — for an empty series too.
TYPED_TEST(BlockCodecTest, RejectsOtherFormatVersions) {
  using Info = BlockCodecInfo<TypeParam>;
  for (size_t n : {this->series_.size(), size_t{0}}) {
    std::vector<int64_t> values(this->series_.begin(),
                                this->series_.begin() + n);
    std::vector<uint8_t> blob;
    TypeParam::Compress(values, {}).Serialize(&blob);
    for (uint64_t version : {uint64_t{0}, uint64_t{1}, uint64_t{3}}) {
      SCOPED_TRACE("n " + std::to_string(n) + " version " +
                   std::to_string(version));
      std::vector<uint8_t> evil = blob;
      std::memcpy(evil.data() + 8, &version, 8);
      EXPECT_NEATS_ERROR(TypeParam::Deserialize(evil), Info::kVersionError);
      EXPECT_NEATS_ERROR(TypeParam::View(evil), Info::kVersionError);
      for (bool allow_view : {false, true}) {
        EXPECT_NEATS_ERROR(CodecRegistry::Open(Info::kId, evil, allow_view),
                           Info::kVersionError);
      }
    }
  }
}

// Clobber sweep concentrated on the index sections: the version word and
// every word of the index section at the blob's tail get flipped; the
// loader must throw or produce an object that serves without out-of-bounds
// access (the sanitizer CI job runs this).
TYPED_TEST(BlockCodecTest, IndexSectionClobberSweep) {
  TypeParam c = TypeParam::Compress(MixedSeries(4000, 41), {});
  std::vector<uint8_t> blob;
  c.Serialize(&blob);
  const size_t index_bytes = BlockCodecInfo<TypeParam>::IndexSectionBytes(c);
  ASSERT_LT(index_bytes, blob.size());
  std::vector<size_t> words = {8};  // the version word
  for (size_t w = blob.size() - index_bytes; w + 8 <= blob.size(); w += 8) {
    words.push_back(w);
  }
  for (size_t w : words) {
    std::vector<uint8_t> evil = blob;
    for (int b = 0; b < 8; ++b) evil[w + static_cast<size_t>(b)] ^= 0xFF;
    try {
      TypeParam loaded = TypeParam::Deserialize(evil);
      // A clobbered-but-validated index may decode garbage values; it must
      // never read out of bounds.
      std::vector<int64_t> sink(loaded.size());
      if (loaded.size() > 0) {
        loaded.DecompressRange(0, loaded.size(), sink.data());
        std::vector<uint64_t> idx;
        for (uint64_t k = 0; k < loaded.size(); k += 1 + loaded.size() / 97) {
          (void)loaded.Access(k);
          idx.push_back(k);
        }
        std::vector<int64_t> out(idx.size());
        loaded.AccessBatch(idx, out.data());
      }
    } catch (const Error&) {
      // The loader rejected the clobber — the expected common case.
    }
  }
}

// ---------------------------------------------------------------------------
// Store level: shards of every block codec, served by the codec's own
// Access / AccessBatch.
// ---------------------------------------------------------------------------

// Access/AccessBatch answer exactly like the raw values for every block
// codec, with unsorted / duplicate / descending probe orders.
TEST(BlockCodecStore, ServesBlockCodecsExactly) {
  std::vector<int64_t> values = MixedSeries(16000, 3);
  for (CodecId id : {CodecId::kAlp, CodecId::kGorilla, CodecId::kChimp}) {
    NeatsStoreOptions options;
    options.shard_size = 5000;
    options.codec = id;
    NeatsStore store(options);
    store.Append(values);
    store.Flush();
    ASSERT_EQ(store.shard_codec(0), id);

    std::mt19937_64 rng(47);
    for (int t = 0; t < 2000; ++t) {
      uint64_t k = rng() % values.size();
      ASSERT_EQ(store.Access(k), values[k]) << CodecName(id) << " " << k;
    }

    for (int trial = 0; trial < 30; ++trial) {
      size_t count = 1 + rng() % 700;
      std::vector<uint64_t> idx(count);
      for (auto& k : idx) k = rng() % values.size();
      if (trial % 3 == 1) {  // heavy duplicates
        for (auto& k : idx) k = idx[0] + k % 50;
        for (auto& k : idx) k = std::min<uint64_t>(k, values.size() - 1);
      }
      if (trial % 3 == 2) {  // strictly descending
        std::sort(idx.rbegin(), idx.rend());
      }
      std::vector<int64_t> out(count);
      store.AccessBatch(idx, out);
      for (size_t j = 0; j < count; ++j) {
        ASSERT_EQ(out[j], values[idx[j]])
            << CodecName(id) << " probe " << idx[j] << " trial " << trial;
      }
    }
  }
}

// A directory store whose shards were sealed by different codecs (Neats,
// then ALP, then Gorilla — options govern future seals across reopens):
// batches and multi-range reads crossing every shard boundary answer
// exactly, and so do strided scalar and batched reads over all three.
TEST(BlockCodecStore, MixedCodecStoreBatchesCrossShardBoundaries) {
  const std::string dir = TempStoreDir("mixed");
  constexpr uint64_t kShard = 6000;
  std::vector<int64_t> values = MixedSeries(3 * kShard, 13);
  NeatsStoreOptions options;
  options.shard_size = kShard;
  {
    options.codec = CodecId::kNeats;
    NeatsStore store = NeatsStore::CreateDir(dir, options);
    store.Append({values.data(), kShard});
    store.Flush();
  }
  {
    options.codec = CodecId::kAlp;
    NeatsStore store = NeatsStore::OpenDir(dir, options);
    store.Append({values.data() + kShard, kShard});
    store.Flush();
  }
  {
    options.codec = CodecId::kGorilla;
    NeatsStore store = NeatsStore::OpenDir(dir, options);
    store.Append({values.data() + 2 * kShard, kShard});
    store.Flush();
  }

  NeatsStore store = NeatsStore::OpenDir(dir);
  ASSERT_EQ(store.size(), values.size());
  ASSERT_EQ(store.num_shards(), 3u);
  ASSERT_EQ(store.shard_codec(0), CodecId::kNeats);
  ASSERT_EQ(store.shard_codec(1), CodecId::kAlp);
  ASSERT_EQ(store.shard_codec(2), CodecId::kGorilla);

  std::mt19937_64 rng(61);
  for (int trial = 0; trial < 25; ++trial) {
    // Unsorted probes deliberately spanning all three shards.
    size_t count = 3 + rng() % 500;
    std::vector<uint64_t> idx(count);
    for (size_t j = 0; j < count; ++j) {
      idx[j] = (j % 3) * kShard + rng() % kShard;
    }
    std::shuffle(idx.begin(), idx.end(), rng);
    std::vector<int64_t> out(count);
    store.AccessBatch(idx, out);
    for (size_t j = 0; j < count; ++j) {
      ASSERT_EQ(out[j], values[idx[j]]) << idx[j] << " trial " << trial;
    }
  }
  // Ranges straddling both codec boundaries (Neats->ALP, ALP->Gorilla).
  std::vector<IndexRange> ranges = {{kShard - 700, 1400},
                                    {2 * kShard - 5, 10},
                                    {0, 0},
                                    {kShard - 1, 2}};
  size_t total = 0;
  for (const IndexRange& r : ranges) total += r.len;
  std::vector<int64_t> got(total);
  store.DecompressRanges(ranges, got.data());
  size_t off = 0;
  for (const IndexRange& r : ranges) {
    for (uint64_t j = 0; j < r.len; ++j) {
      ASSERT_EQ(got[off + j], values[r.from + j]) << r.from << "+" << j;
    }
    off += r.len;
  }
  // Strided probes over all three shards, batched and scalar.
  std::vector<uint64_t> strided;
  for (uint64_t k = 0; k < values.size(); k += 37) strided.push_back(k);
  std::shuffle(strided.begin(), strided.end(), rng);
  std::vector<int64_t> strided_out(strided.size());
  store.AccessBatch(strided, strided_out);
  for (size_t j = 0; j < strided.size(); ++j) {
    ASSERT_EQ(strided_out[j], values[strided[j]]) << strided[j];
    ASSERT_EQ(store.Access(strided[j]), values[strided[j]]) << strided[j];
  }

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace neats
