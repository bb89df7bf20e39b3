// Randomized and adversarial coverage for the overhauled succinct layer:
//   - EliasFano::Rank/Access fuzz against std::upper_bound on dense, sparse,
//     single-bucket pile-up and empty distributions (the word-wise bucket
//     scan and the sampled select directories both get exercised),
//   - RankSelect sampled Select1 at scale via rank/select inverse
//     invariants,
//   - the EliasFano bucket index's load-time bound on the high zero count,
//     at the EF level and forged into NeaTS and LeCo blobs,
//   - NeaTS format v5: canonical bytes on every open path, rejection of
//     v1-v4 blobs (loaders, facade, store; a genuine v4 blob too) and of the
//     previous NeaTS-L/LeCo versions, one forged directory record per check
//     of the loader's validation walk, and a clobber sweep over the
//     directory section,
//   - NeaTS-L: Access, its zero-copy view and Decompress agree, a
//     truncation and word-clobber sweep over its blob, and a forged kind
//     symbol past the kind table,
//   - Cursor::Seek backward hops against Access ground truth.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <functional>
#include <random>
#include <vector>

#include "baselines/leco.hpp"
#include "core/neats.hpp"
#include "core/neats_lossy.hpp"
#include "datasets/generators.hpp"
#include "io/mmap_file.hpp"
#include "io/text_io.hpp"
#include "neats/neats.hpp"
#include "require_error.hpp"
#include "succinct/bit_stream.hpp"
#include "succinct/bit_vector.hpp"
#include "succinct/elias_fano.hpp"
#include "succinct/packed_array.hpp"
#include "succinct/storage.hpp"
#include "succinct/wavelet_tree.hpp"

namespace neats {
namespace {

// ---------------------------------------------------------------------------
// EliasFano fuzz vs std::upper_bound.
// ---------------------------------------------------------------------------

size_t NaiveRank(const std::vector<uint64_t>& values, uint64_t x) {
  return static_cast<size_t>(
      std::upper_bound(values.begin(), values.end(), x) - values.begin());
}

void FuzzSequence(const std::vector<uint64_t>& values, uint64_t seed) {
  EliasFano ef(values);
  ASSERT_EQ(ef.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(ef.Access(i), values[i]) << "access at " << i;
  }
  auto check_probe = [&](uint64_t x) {
    size_t r = NaiveRank(values, x);
    ASSERT_EQ(ef.Rank(x), r) << "rank of " << x;
    if (r > 0) {  // fused predecessor must agree with rank + access
      auto [pi, pv] = ef.Predecessor(x);
      ASSERT_EQ(pi, r - 1) << "predecessor index of " << x;
      ASSERT_EQ(pv, values[r - 1]) << "predecessor value of " << x;
    }
  };
  // Adversarial probes: every value and its neighbours...
  for (uint64_t v : values) {
    for (uint64_t x : {v == 0 ? 0 : v - 1, v, v + 1}) check_probe(x);
  }
  // ... plus uniform random probes over a slightly padded universe.
  if (!values.empty()) {
    std::mt19937_64 rng(seed);
    for (int t = 0; t < 2000; ++t) check_probe(rng() % (values.back() + 3));
  }
}

TEST(EliasFanoFuzz, Empty) {
  EliasFano ef{std::vector<uint64_t>{}};
  EXPECT_EQ(ef.Rank(0), 0u);
  EXPECT_EQ(ef.Rank(~0ULL), 0u);
}

TEST(EliasFanoFuzz, DenseConsecutiveAndNearConsecutive) {
  std::vector<uint64_t> values(5000);
  for (size_t i = 0; i < values.size(); ++i) values[i] = i;
  FuzzSequence(values, 1);
  std::mt19937_64 rng(2);
  uint64_t cur = 0;
  for (auto& v : values) v = (cur += rng() % 2);  // duplicates + steps
  FuzzSequence(values, 3);
}

TEST(EliasFanoFuzz, SparseHugeGaps) {
  std::mt19937_64 rng(4);
  std::vector<uint64_t> values;
  uint64_t cur = 0;
  for (int i = 0; i < 1500; ++i) {
    cur += 1 + (rng() % (1ULL << 40));
    values.push_back(cur);
  }
  FuzzSequence(values, 5);
}

TEST(EliasFanoFuzz, SingleBucketPileUps) {
  // Long runs of equal values land in one high bucket and stress the
  // in-bucket binary search (bucket length >> linear-probe threshold).
  std::vector<uint64_t> values;
  for (uint64_t v : {uint64_t{7}, uint64_t{7000}, uint64_t{1} << 35}) {
    for (int i = 0; i < 700; ++i) values.push_back(v);
  }
  FuzzSequence(values, 6);
  // All-equal corner: one bucket holds the entire sequence.
  FuzzSequence(std::vector<uint64_t>(3000, 42), 7);
}

TEST(EliasFanoFuzz, MixedAdversarialRounds) {
  std::mt19937_64 rng(8);
  for (int round = 0; round < 8; ++round) {
    std::vector<uint64_t> values;
    uint64_t cur = 0;
    int len = 500 + static_cast<int>(rng() % 2500);
    for (int i = 0; i < len; ++i) {
      switch (rng() % 4) {
        case 0: break;                         // duplicate
        case 1: cur += rng() % 3; break;       // dense
        case 2: cur += rng() % 1000; break;    // medium
        default: cur += rng() % (1ULL << 33);  // sparse jump
      }
      values.push_back(cur);
    }
    FuzzSequence(values, 100 + static_cast<uint64_t>(round));
  }
}

// ---------------------------------------------------------------------------
// RankSelect sampled select directories at scale.
// ---------------------------------------------------------------------------

void CheckSelectInverse(const RankSelect& rs) {
  const uint64_t ones = rs.ones();
  // Dense probe of the first/last few plus a stride across the middle; the
  // inverse invariants pin Select to the exact bit.
  auto probe1 = [&](uint64_t k) {
    size_t pos = rs.Select1(k);
    ASSERT_TRUE(rs.Get(pos)) << "select1(" << k << ")";
    ASSERT_EQ(rs.Rank1(pos), k);
  };
  for (uint64_t k = 0; k < std::min<uint64_t>(ones, 700); ++k) probe1(k);
  for (uint64_t k = 0; k < ones; k += 509) probe1(k);
  if (ones > 0) probe1(ones - 1);
}

TEST(RankSelectSampled, LargeAtExtremeDensities) {
  for (int permille : {1, 50, 500, 950, 999}) {
    std::mt19937_64 rng(static_cast<uint64_t>(permille) * 31 + 5);
    BitVector bv(300000);
    for (size_t i = 0; i < bv.size(); ++i) {
      if (static_cast<int>(rng() % 1000) < permille) bv.Set(i);
    }
    RankSelect rs{std::move(bv)};
    CheckSelectInverse(rs);
  }
}

TEST(RankSelectSampled, ClusteredRuns) {
  // Alternating solid runs of ones and zeros make the sampled directories
  // maximally uneven (many superblocks between consecutive samples).
  BitVector bv(200000);
  bool on = false;
  size_t i = 0;
  std::mt19937_64 rng(17);
  while (i < bv.size()) {
    size_t run = 1 + rng() % 3000;
    for (size_t j = 0; j < run && i < bv.size(); ++j, ++i) {
      if (on) bv.Set(i);
    }
    on = !on;
  }
  RankSelect rs{std::move(bv)};
  CheckSelectInverse(rs);
}

// ---------------------------------------------------------------------------
// EliasFano bucket index: Load bounds the high zero count.
// ---------------------------------------------------------------------------

/// Serialized Elias-Fano section for `values` at `low_bits`, with a high
/// bitvector of `high_len` bits. The builder writes
/// size + (last >> low_bits) + 1 bits; longer means forged trailing zeros,
/// one shorter leaves the last element's high bit at the very end.
std::vector<uint8_t> ForgedEliasFano(const std::vector<uint64_t>& values,
                                     int low_bits, size_t high_len) {
  std::vector<uint64_t> lows;
  BitVector high(high_len);
  for (size_t i = 0; i < values.size(); ++i) {
    lows.push_back(values[i] & LowMask(low_bits));
    high.Set((values[i] >> low_bits) + i);
  }
  std::vector<uint8_t> bytes;
  WordWriter w(&bytes);
  w.Put(values.size());
  w.Put(static_cast<uint64_t>(low_bits));
  PackedArray(lows, low_bits).Serialize(w);
  RankSelect(std::move(high)).Serialize(w);
  return bytes;
}

/// `blob` with the Elias-Fano section at byte offset `at` re-serialized
/// with `extra` more high zeros. Every directory stays consistent with the
/// payload, so only the zero-count bound can reject the result.
std::vector<uint8_t> WithExtraHighZeros(const std::vector<uint8_t>& blob,
                                        size_t at, size_t extra) {
  const std::span<const uint8_t> section(blob.data() + at, blob.size() - at);
  WordReader r(section, /*borrow=*/false);
  const EliasFano ef = EliasFano::Load(r);
  uint64_t low_bits;
  std::memcpy(&low_bits, section.data() + 8, 8);
  std::vector<uint64_t> values(ef.size());
  for (size_t i = 0; i < values.size(); ++i) values[i] = ef.Access(i);
  const std::vector<uint8_t> forged = ForgedEliasFano(
      values, static_cast<int>(low_bits),
      values.size() + (values.back() >> low_bits) + 1 + extra);
  std::vector<uint8_t> out(blob.begin(), blob.begin() + static_cast<ptrdiff_t>(at));
  out.insert(out.end(), forged.begin(), forged.end());
  out.insert(out.end(), section.begin() + static_cast<ptrdiff_t>(r.position()),
             section.end());
  return out;
}

TEST(EliasFanoIndex, LoadBoundsTheHighZeroCount) {
  const std::vector<uint64_t> values = {0, 3, 9, 9, 20, 21};
  const size_t m = values.size();
  const int low_bits = 1;  // BitWidth(22 / 6) - 1: 11 high zeros
  auto load = [](const std::vector<uint8_t>& bytes) {
    WordReader r(bytes, /*borrow=*/false);
    return EliasFano::Load(r);
  };
  const size_t canonical = m + (values.back() >> low_bits) + 1;
  {
    EliasFano ef(values);
    std::vector<uint8_t> bytes;
    WordWriter w(&bytes);
    ef.Serialize(w);
    ASSERT_EQ(ForgedEliasFano(values, low_bits, canonical), bytes);
  }
  // Up to 2m+1 zeros loads and answers like the builder's encoding...
  const EliasFano at_bound =
      load(ForgedEliasFano(values, low_bits, m + 2 * m + 1));
  for (uint64_t x = 0; x < 40; ++x) {
    const size_t r = static_cast<size_t>(
        std::upper_bound(values.begin(), values.end(), x) - values.begin());
    ASSERT_EQ(at_bound.Rank(x), r) << x;
    ASSERT_EQ(at_bound.Predecessor(x).second, values[r - 1]) << x;
  }
  // ... one more is rejected, as is a last high bit that is a one.
  EXPECT_NEATS_ERROR(load(ForgedEliasFano(values, low_bits, m + 2 * m + 2)),
                     "corrupt NeaTS blob");
  EXPECT_NEATS_ERROR(load(ForgedEliasFano(values, low_bits, canonical - 1)),
                     "corrupt NeaTS blob");
}

TEST(EliasFanoIndex, ForgedZeroCountsInBlobsAreRejected) {
  // 4096 extra zeros grow every RankSelect array by whole 64-byte lines
  // (64 payload words, 8 superblocks, 64 relative counts), so the NeaTS
  // directory keeps its alignment and the forgery
  // differs from a valid blob only in the zero count.
  Dataset ds = MakeDataset("ECG", 6000);
  std::vector<uint8_t> neats_blob;
  Neats::Compress(ds.values).Serialize(&neats_blob);
  uint64_t kinds;
  std::memcpy(&kinds, neats_blob.data() + 5 * 8, 8);
  const size_t neats_at = (6 + kinds) * 8;  // header words, then S
  ASSERT_EQ(WithExtraHighZeros(neats_blob, neats_at, 0), neats_blob);
  const std::vector<uint8_t> forged_neats =
      WithExtraHighZeros(neats_blob, neats_at, 16 * 4096);
  EXPECT_NEATS_ERROR(Neats::Deserialize(forged_neats), "corrupt NeaTS blob");
  EXPECT_NEATS_ERROR(Neats::View(forged_neats), "corrupt NeaTS blob");

  std::vector<uint8_t> leco_blob;
  Leco::Compress(ds.values).Serialize(&leco_blob);
  const size_t leco_at = 4 * 8;  // magic, version, n, m; then the starts
  ASSERT_EQ(WithExtraHighZeros(leco_blob, leco_at, 0), leco_blob);
  const std::vector<uint8_t> forged_leco =
      WithExtraHighZeros(leco_blob, leco_at, 16 * 4096);
  EXPECT_NEATS_ERROR(Leco::Deserialize(forged_leco), "corrupt NeaTS blob");
  EXPECT_NEATS_ERROR(Leco::View(forged_leco), "corrupt NeaTS blob");
}

// ---------------------------------------------------------------------------
// Format v5: canonical bytes and zero-copy views.
// ---------------------------------------------------------------------------

std::vector<int64_t> TestSeries(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<int64_t> values;
  int64_t cur = -1000;
  for (size_t i = 0; i < n; ++i) {
    cur += static_cast<int64_t>(rng() % 61) - 30;
    values.push_back(cur);
  }
  return values;
}

std::vector<uint8_t> SerializeOf(const Neats& c) {
  std::vector<uint8_t> bytes;
  c.Serialize(&bytes);
  return bytes;
}

TEST(FormatV2, ViewMatchesOwnedByteForByte) {
  for (const auto& code : AllDatasetCodes()) {
    SCOPED_TRACE(code);
    Dataset ds = MakeDataset(code, 4000);
    Neats original = Neats::Compress(ds.values);
    const std::vector<uint8_t> bytes = SerializeOf(original);
    EXPECT_EQ(original.SizeInBits(), 8 * bytes.size());

    Neats owned = Neats::Deserialize(bytes);
    Neats viewed = Neats::View(bytes);
    EXPECT_FALSE(owned.borrowed());
    EXPECT_TRUE(viewed.borrowed());  // no payload copied, no directory built

    // Identical query results...
    std::vector<int64_t> a, b;
    owned.Decompress(&a);
    viewed.Decompress(&b);
    ASSERT_EQ(a, b);
    ASSERT_EQ(a, ds.values);
    for (size_t k = 0; k < ds.values.size(); k += 97) {
      ASSERT_EQ(viewed.Access(k), ds.values[k]);
    }
    EXPECT_EQ(viewed.RangeSum(7, 1000), owned.RangeSum(7, 1000));

    // ... and byte-identical re-serialization from both open paths.
    EXPECT_EQ(SerializeOf(owned), bytes);
    EXPECT_EQ(SerializeOf(viewed), bytes);
  }
}

TEST(FormatV2, EmptyAndTinySeries) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}}) {
    std::vector<int64_t> values = TestSeries(n, 33);
    Neats original = Neats::Compress(values);
    std::vector<uint8_t> bytes;
    original.Serialize(&bytes);
    Neats viewed = Neats::View(bytes);
    Neats owned = Neats::Deserialize(bytes);
    EXPECT_EQ(viewed.size(), n);
    std::vector<int64_t> decoded;
    owned.Decompress(&decoded);
    EXPECT_EQ(decoded, values);
    viewed.Decompress(&decoded);
    EXPECT_EQ(decoded, values);
  }
}

TEST(FormatV2, SizeInBitsMatchesSerializedBytes) {
  // SizeInBits is documented as exactly the serialized size; benches and
  // the CLI report it as on-disk footprint.
  for (size_t n : {size_t{0}, size_t{1}, size_t{500}, size_t{12000}}) {
    Neats c = Neats::Compress(TestSeries(n, 13 + n));
    std::vector<uint8_t> bytes;
    c.Serialize(&bytes);
    EXPECT_EQ(c.SizeInBits(), bytes.size() * 8) << "n=" << n;
  }
  Dataset ds = MakeDataset("AP", 4000);
  NeatsLossy lossy = NeatsLossy::Compress(ds.values, 50);
  std::vector<uint8_t> bytes;
  lossy.Serialize(&bytes);
  EXPECT_EQ(lossy.SizeInBits(), bytes.size() * 8);
}

TEST(FormatV2, MagicIsAsciiReadable) {
  // The first bytes of a blob are the ASCII format name — the property
  // file sniffers and docs/FORMAT.md rely on.
  Neats c = Neats::Compress(TestSeries(100, 99));
  std::vector<uint8_t> bytes;
  c.Serialize(&bytes);
  EXPECT_EQ(std::memcmp(bytes.data(), "NEATSv2\0", 8), 0);
}

TEST(FormatV2, RejectsTruncatedAndCorruptBlobs) {
  Neats original = Neats::Compress(TestSeries(8000, 77));
  std::vector<uint8_t> bytes;
  original.Serialize(&bytes);

  // Truncation anywhere past the magic must die loudly, not load partially.
  for (size_t keep : {bytes.size() / 4, bytes.size() / 2, bytes.size() - 8}) {
    std::vector<uint8_t> cut(bytes.begin(),
                             bytes.begin() + static_cast<ptrdiff_t>(keep));
    EXPECT_NEATS_ERROR(Neats::Deserialize(cut), "NeaTS blob");
    EXPECT_NEATS_ERROR(Neats::View(cut), "NeaTS blob");
  }

  // An inflated n (header word 2) must be rejected outright — both the
  // direct bound (n <= 2^56, closing multiplication-wrap forgeries) and
  // the directory walk's payload check stand behind it.
  for (uint64_t evil_n : {uint64_t{1} << 60, uint64_t{8000 * 2}}) {
    std::vector<uint8_t> evil = bytes;
    std::memcpy(evil.data() + 16, &evil_n, 8);
    EXPECT_NEATS_ERROR(Neats::Deserialize(evil), "corrupt NeaTS blob");
    EXPECT_NEATS_ERROR(Neats::View(evil), "corrupt NeaTS blob");
  }

  // Header word 5 is the kind-table length: more kinds than the catalogue
  // holds is a corrupt blob on every open path.
  const std::string path = ::testing::TempDir() + "/neats_kinds.blob";
  for (uint64_t kinds : {uint64_t{kNumFunctionKinds + 1}, uint64_t{1} << 40}) {
    SCOPED_TRACE("kinds " + std::to_string(kinds));
    std::vector<uint8_t> evil = bytes;
    std::memcpy(evil.data() + 40, &kinds, 8);
    EXPECT_NEATS_ERROR(Neats::Deserialize(evil), "corrupt NeaTS blob");
    EXPECT_NEATS_ERROR(Neats::View(evil), "corrupt NeaTS blob");
    WriteFile(path, evil);
    Result<MappedSeries> opened = OpenSeriesFile(path);
    ASSERT_FALSE(opened.ok());
    EXPECT_NE(opened.status().message().find("corrupt NeaTS blob"),
              std::string::npos);
  }
  std::remove(path.c_str());

  // Clobbering a count/size word must either be caught by a loader
  // REQUIRE (throw) or — when the word was plain payload — load fine and
  // stay queryable. Sweep word positions across the blob; every outcome
  // other than clean-load-or-throw (e.g. a segfault from an unchecked
  // count) fails. The sanitizer CI job backs up the payload-word case.
  for (size_t w = 8; w + 8 <= bytes.size(); w += 8 * 97) {
    std::vector<uint8_t> evil = bytes;
    for (int b = 0; b < 8; ++b) evil[w + static_cast<size_t>(b)] = 0xFF;
    try {
      Neats loaded = Neats::Deserialize(evil);
      for (uint64_t k = 0; k < loaded.size(); k += 1 + loaded.size() / 13) {
        loaded.Access(k);
      }
    } catch (const Error&) {
      // A loader check caught the clobber — the expected common case.
    }
  }
}

// The magic of the retired v1 layout ("ENATEATS" little-endian).
constexpr uint64_t kMagicV1 = 0x5354414554414E45ULL;

/// `blob` dressed as an older NeaTS format: version word 2 or 3, or the v1
/// magic for version 1 (v1 had no version word).
std::vector<uint8_t> AsOldVersion(std::vector<uint8_t> blob, uint64_t version) {
  if (version == 1) {
    std::memcpy(blob.data(), &kMagicV1, 8);
  } else {
    std::memcpy(blob.data() + 8, &version, 8);
  }
  return blob;
}

TEST(FormatV2, RejectsOtherFormatVersions) {
  const std::vector<int64_t> values = TestSeries(3000, 44);
  const std::vector<uint8_t> bytes = SerializeOf(Neats::Compress(values));
  const std::string path = ::testing::TempDir() + "/neats_old_version.blob";
  for (uint64_t version : {uint64_t{1}, uint64_t{2}, uint64_t{3}, uint64_t{4},
                           uint64_t{6}}) {
    SCOPED_TRACE("version " + std::to_string(version));
    const std::vector<uint8_t> old = AsOldVersion(bytes, version);
    EXPECT_NEATS_ERROR(Neats::Deserialize(old),
                       "unsupported NeaTS format version");
    EXPECT_NEATS_ERROR(Neats::View(old), "unsupported NeaTS format version");
    WriteFile(path, old);
    Result<MappedSeries> opened = OpenSeriesFile(path);
    ASSERT_FALSE(opened.ok());
    EXPECT_NE(opened.status().message().find("unsupported NeaTS format version"),
              std::string::npos);
    EXPECT_FALSE(LoadSeriesFile(path).ok());
  }
  // The untouched blob opens through the same facade calls.
  WriteFile(path, bytes);
  Result<MappedSeries> opened = OpenSeriesFile(path);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  EXPECT_TRUE(opened->series.borrowed());
  EXPECT_EQ(opened->series.Access(1234), values[1234]);
  std::remove(path.c_str());

  std::vector<uint8_t> junk(64, 0xAB);
  EXPECT_NEATS_ERROR(Neats::View(junk), "not a NeaTS blob");
  EXPECT_NEATS_ERROR(Neats::Deserialize(junk), "not a NeaTS blob");
}

// A genuine format-v4 blob, as the previous writer serialized 40 values
// (two fragments, unpinned double evaluation, select-0 samples and the
// reserved header word 5). Its layout is intact, so only the version word
// stands between it and a reader that would decode it with the wrong model
// arithmetic: every open path must reject it with the typed version error.
constexpr uint64_t kGenuineV4Blob[] = {
    0x003276535441454eULL, 0x0000000000000004ULL, 0x0000000000000028ULL,
    0x0000000000000002ULL, 0x0000000000000001ULL, 0x0000000000000000ULL,
    0x0000000000000002ULL, 0x0000000000000000ULL, 0x0000000000000001ULL,
    0x0000000000000002ULL, 0x0000000000000004ULL, 0x0000000000000002ULL,
    0x0000000000000004ULL, 0x0000000000000080ULL, 0x0000000000000004ULL,
    0x0000000000000002ULL, 0x0000000000000001ULL, 0x0000000000000005ULL,
    0x0000000000000002ULL, 0x0000000000000000ULL, 0x0000000000000002ULL,
    0x0000000000000002ULL, 0x0000000000020000ULL, 0x0000000000000001ULL,
    0x0000000000000000ULL, 0x0000000000000001ULL, 0x0000000000000001ULL,
    0x0000000000000002ULL, 0xa975e79e79e79e79ULL, 0x0000789abcccccbbULL,
    0x0000000000000002ULL, 0x0000000000000002ULL, 0x4008000000000000ULL,
    0x4058c00000000000ULL, 0x0000000000000002ULL, 0xbfec62433b79890dULL,
    0x40794f31219dbcc5ULL, 0x0000000000000002ULL, 0x0000000000000006ULL,
    0x0000000000000000ULL, 0x0000000000000000ULL, 0x0000000000000001ULL,
    0x0000000000000003ULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
    0x0000000000000000ULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
    0x000000000009c100ULL,
};

TEST(FormatV5, GenuineV4BlobIsRejectedTyped) {
  std::vector<uint8_t> v4(sizeof(kGenuineV4Blob));
  std::memcpy(v4.data(), kGenuineV4Blob, v4.size());
  EXPECT_NEATS_ERROR(Neats::Deserialize(v4), "unsupported NeaTS format version");
  EXPECT_NEATS_ERROR(Neats::View(v4), "unsupported NeaTS format version");
  const std::string path = ::testing::TempDir() + "/neats_genuine_v4.blob";
  WriteFile(path, v4);
  Result<MappedSeries> opened = OpenSeriesFile(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("unsupported NeaTS format version"),
            std::string::npos);
  EXPECT_FALSE(LoadSeriesFile(path).ok());
  std::remove(path.c_str());
}

// NeaTS-L v2 and LeCo v1 were the previous formats of the other learned
// codecs (unpinned evaluation, select-0 samples); each is rejected with its
// typed version error.
TEST(FormatV5, PreviousLearnedCodecVersionsAreRejected) {
  Dataset ds = MakeDataset("ECG", 3000);
  auto with_version = [](std::vector<uint8_t> blob, uint64_t version) {
    std::memcpy(blob.data() + 8, &version, 8);
    return blob;
  };
  std::vector<uint8_t> lossy;
  NeatsLossy::Compress(ds.values, 20).Serialize(&lossy);
  EXPECT_NEATS_ERROR(NeatsLossy::Deserialize(with_version(lossy, 2)),
                     "unsupported NeaTS-L format version");
  EXPECT_NEATS_ERROR(NeatsLossy::View(with_version(lossy, 2)),
                     "unsupported NeaTS-L format version");
  std::vector<uint8_t> leco;
  Leco::Compress(ds.values).Serialize(&leco);
  EXPECT_NEATS_ERROR(Leco::Deserialize(with_version(leco, 1)),
                     "unsupported LeCo format version");
  EXPECT_NEATS_ERROR(Leco::View(with_version(leco, 1)),
                     "unsupported LeCo format version");
}

// A shard blob of an older format behind a valid CRC trailer and manifest
// row passes every checksum, so only the loader's version check stands
// between it and the query path: OpenDir must quarantine the shard and
// reads routed into it must fail typed.
TEST(FormatV2, StoreQuarantinesOldVersionShards) {
  const std::vector<int64_t> values = TestSeries(12000, 45);
  for (uint64_t version : {uint64_t{1}, uint64_t{2}, uint64_t{3}, uint64_t{4}}) {
    SCOPED_TRACE("version " + std::to_string(version));
    const std::string dir =
        (std::filesystem::path(::testing::TempDir()) /
         ("neats_old_shard_v" + std::to_string(version)))
            .string();
    std::filesystem::remove_all(dir);
    {
      NeatsStoreOptions options;
      options.shard_size = 4000;
      NeatsStore store = NeatsStore::CreateDir(dir, options);
      store.Append(values);
      store.Flush();
    }
    const std::string shard0 = dir + "/" + StoreManifest::ShardFileName(0);
    const std::vector<uint8_t> file = ReadFile(shard0);
    const TrailerInfo trailer = CheckChecksumTrailer(file);
    ASSERT_EQ(trailer.state, TrailerState::kValid);
    std::vector<uint8_t> old = AsOldVersion(
        std::vector<uint8_t>(trailer.payload.begin(), trailer.payload.end()),
        version);
    const uint32_t crc = Crc32c(old);
    AppendChecksumTrailer(&old);
    WriteFile(shard0, old);
    const std::string manifest_path = dir + "/" + StoreManifest::FileName();
    StoreManifest manifest = StoreManifest::Deserialize(ReadFile(manifest_path));
    manifest.shards[0].crc = crc;
    std::vector<uint8_t> manifest_bytes;
    manifest.Serialize(&manifest_bytes);
    WriteFile(manifest_path, manifest_bytes);

    Result<NeatsStore> store = OpenStoreDir(dir);
    ASSERT_TRUE(store.ok()) << store.status().message();
    EXPECT_TRUE(store->degraded());
    const NeatsStore::RepairReport& report = store->recovery_report();
    ASSERT_EQ(report.quarantined.size(), 1u);
    EXPECT_EQ(report.quarantined[0].shard, 0u);
    EXPECT_NE(report.quarantined[0].error.find("unsupported NeaTS format version"),
              std::string::npos)
        << report.quarantined[0].error;
    Result<int64_t> read = Checked([&] { return store->Access(17); });
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), StatusCode::kUnavailable);
    for (size_t k = 4000; k < values.size(); k += 271) {
      ASSERT_EQ(store->Access(k), values[k]) << k;
    }
    std::filesystem::remove_all(dir);
  }
}

TEST(FormatV2, LossyRoundTripAndView) {
  Dataset ds = MakeDataset("AP", 6000);
  NeatsLossy original = NeatsLossy::Compress(ds.values, 50);
  std::vector<uint8_t> bytes;
  original.Serialize(&bytes);
  NeatsLossy owned = NeatsLossy::Deserialize(bytes);
  NeatsLossy viewed = NeatsLossy::View(bytes);
  ASSERT_EQ(owned.size(), ds.values.size());
  ASSERT_EQ(owned.epsilon(), 50);
  std::vector<int64_t> a, b;
  owned.Decompress(&a);
  viewed.Decompress(&b);
  ASSERT_EQ(a, b);
  for (size_t k = 0; k < ds.values.size(); k += 61) {
    ASSERT_EQ(owned.Access(k), viewed.Access(k));
    ASSERT_LE(std::abs(a[k] - ds.values[k]), 51);  // eps + 1 (floor slack)
  }
  std::vector<uint8_t> again;
  viewed.Serialize(&again);
  EXPECT_EQ(bytes, again);
}

// ---------------------------------------------------------------------------
// Format v5: the fragment directory and the loader's validation walk.
// ---------------------------------------------------------------------------

using Record = FragmentDirectory::Record;
constexpr int kDirFields = 5;  // corr_offset, displacement, param_index,
                               // kind, correction_bits — in wire order

/// The directory section of a blob, decoded. It is the blob's last
/// section: a count word, five field-width words, zero words up to a
/// 64-byte blob offset, then the packed records — so it is found from the
/// tail, with no knowledge of the sections before it.
struct DirectorySection {
  size_t offset = 0;  // byte offset of the count word
  std::vector<Record> records;
};

uint64_t WordAt(const std::vector<uint8_t>& bytes, size_t at) {
  uint64_t v;
  std::memcpy(&v, bytes.data() + at, 8);
  return v;
}

DirectorySection FindDirectory(const std::vector<uint8_t>& bytes, size_t m) {
  for (size_t at = bytes.size() - 8 * (1 + kDirFields) + 8; at >= 8;) {
    at -= 8;
    if (WordAt(bytes, at) != m) continue;
    int widths[kDirFields];
    int record_width = 0;
    bool plausible = true;
    for (int f = 0; f < kDirFields; ++f) {
      const uint64_t w = WordAt(bytes, at + 8 * (1 + static_cast<size_t>(f)));
      plausible = plausible && w <= 64;
      widths[f] = static_cast<int>(w);
      record_width += widths[f];
    }
    const size_t payload = CeilDiv(at + 8 * (1 + kDirFields), 64) * 64;
    const size_t words = CeilDiv(m * static_cast<size_t>(record_width), 64);
    if (!plausible || payload + 8 * words != bytes.size()) continue;
    std::vector<uint64_t> packed(words);
    if (words > 0) std::memcpy(packed.data(), bytes.data() + payload, 8 * words);
    DirectorySection d;
    d.offset = at;
    size_t pos = 0;
    auto field = [&](int f) {
      const uint64_t v = ReadBits(packed.data(), pos, widths[f]);
      pos += static_cast<size_t>(widths[f]);
      return v;
    };
    for (size_t i = 0; i < m; ++i) {
      Record r;
      r.corr_offset = field(0);
      r.displacement = field(1);
      r.param_index = field(2);
      r.kind = static_cast<uint8_t>(field(3));
      r.correction_bits = static_cast<uint8_t>(field(4));
      d.records.push_back(r);
    }
    return d;
  }
  ADD_FAILURE() << "no directory section found";
  return {};
}

struct FieldWidths {
  int w[kDirFields] = {};
};

FieldWidths MinimalWidths(const std::vector<Record>& records) {
  FieldWidths fw;
  for (const Record& r : records) {
    fw.w[0] = std::max(fw.w[0], BitWidth(r.corr_offset));
    fw.w[1] = std::max(fw.w[1], BitWidth(r.displacement));
    fw.w[2] = std::max(fw.w[2], BitWidth(r.param_index));
    fw.w[3] = std::max(fw.w[3], BitWidth(r.kind));
    fw.w[4] = std::max(fw.w[4], BitWidth(r.correction_bits));
  }
  return fw;
}

/// `bytes` with its directory section replaced by `records` packed at
/// `widths`; `pad` is OR-ed into the bits past the last record.
std::vector<uint8_t> WithDirectory(const std::vector<uint8_t>& bytes,
                                   const DirectorySection& d,
                                   const std::vector<Record>& records,
                                   const FieldWidths& widths,
                                   uint64_t pad = 0) {
  std::vector<uint8_t> out(bytes.begin(),
                           bytes.begin() + static_cast<ptrdiff_t>(d.offset));
  WordWriter w(&out);
  w.Put(records.size());
  for (int f = 0; f < kDirFields; ++f) w.Put(static_cast<uint64_t>(widths.w[f]));
  w.AlignTo(FragmentDirectory::kPayloadAlignment);
  BitWriter packed;
  for (const Record& r : records) {
    packed.Append(r.corr_offset, widths.w[0]);
    packed.Append(r.displacement, widths.w[1]);
    packed.Append(r.param_index, widths.w[2]);
    packed.Append(r.kind, widths.w[3]);
    packed.Append(r.correction_bits, widths.w[4]);
  }
  const size_t used = packed.bit_size();
  std::vector<uint64_t> words = packed.TakeWords();
  if (pad != 0) words.back() |= pad << (used % 64);
  w.PutCells(words.data(), words.size());
  return out;
}

TEST(FormatV3, DirectoryMatchesOriginalSeries) {
  // Every open path resolves queries through the directory records alone;
  // they must reproduce the series exactly.
  for (const auto& code : AllDatasetCodes()) {
    Dataset ds = MakeDataset(code, 6000);
    Neats c = Neats::Compress(ds.values);
    const std::vector<uint8_t> bytes = SerializeOf(c);
    Neats owned = Neats::Deserialize(bytes);
    Neats viewed = Neats::View(bytes);
    std::mt19937_64 rng(7);
    for (int t = 0; t < 1200; ++t) {
      uint64_t k = rng() % ds.values.size();
      ASSERT_EQ(c.Access(k), ds.values[k]) << code << " k=" << k;
      ASSERT_EQ(owned.Access(k), ds.values[k]) << code << " k=" << k;
      ASSERT_EQ(viewed.Access(k), ds.values[k]) << code << " k=" << k;
    }
  }
}

TEST(FormatV3, DirectoryMatchesOriginalSeriesMmap) {
  std::vector<int64_t> values = TestSeries(20000, 101);
  Neats c = Neats::Compress(values);
  std::string path = ::testing::TempDir() + "/neats_dir_fuzz.v4";
  WriteFile(path, SerializeOf(c));
  {
    MmapFile map = MmapFile::Open(path);
    Neats view = Neats::View(map.bytes());
    EXPECT_TRUE(view.borrowed());
    std::mt19937_64 rng(8);
    for (int t = 0; t < 2000; ++t) {
      uint64_t k = rng() % values.size();
      ASSERT_EQ(view.Access(k), values[k]) << "k=" << k;
    }
  }
  std::remove(path.c_str());
}

// NeaTS-L answers every index three ways that must agree: Access on the
// compressed object, Access on a zero-copy view of its blob, and Decompress,
// which walks the fragments with one running parameter offset per kind
// where Access ranks the fragment's kind.
TEST(FormatV3, LossyAccessMatchesViewAndDecompress) {
  for (const char* code : {"AP", "ECG", "UK"}) {
    SCOPED_TRACE(code);
    Dataset ds = MakeDataset(code, 6000);
    NeatsLossy lossy = NeatsLossy::Compress(ds.values, 50);
    ASSERT_GT(lossy.num_fragments(), 1u);
    std::vector<uint8_t> bytes;
    lossy.Serialize(&bytes);
    NeatsLossy viewed = NeatsLossy::View(bytes);
    std::vector<int64_t> decoded;
    lossy.Decompress(&decoded);
    ASSERT_EQ(decoded.size(), ds.values.size());
    for (uint64_t k = 0; k < ds.values.size(); ++k) {
      ASSERT_EQ(lossy.Access(k), decoded[k]) << k;
      ASSERT_EQ(viewed.Access(k), decoded[k]) << k;
      ASSERT_LE(std::abs(decoded[k] - ds.values[k]), 51) << k;  // eps + 1
    }
  }
}

// NeaTS-L blobs under corruption (the sanitizer CI job runs this suite):
// every truncation throws, and a word clobber either throws or loads a blob
// whose every Access and whole Decompress stay in bounds. A clobbered
// parameter legitimately decodes to other values; only bounds are checked.
TEST(FormatV3, LossyCorruptBlobSweep) {
  for (const char* code : {"ECG", "AP"}) {
    SCOPED_TRACE(code);
    Dataset ds = MakeDataset(code, 3000);
    std::vector<uint8_t> blob;
    NeatsLossy::Compress(ds.values, 50).Serialize(&blob);
    for (size_t keep = 0; keep < blob.size(); keep += (keep < 64 ? 1 : 8)) {
      std::vector<uint8_t> cut(blob.begin(),
                               blob.begin() + static_cast<ptrdiff_t>(keep));
      EXPECT_NEATS_ERROR(NeatsLossy::Deserialize(cut), "");
    }
    std::vector<int64_t> decoded;
    for (size_t w = 0; w + 8 <= blob.size(); w += 8) {
      std::vector<uint8_t> evil = blob;
      for (size_t b = 0; b < 8; ++b) evil[w + b] ^= 0xFF;
      for (bool view : {false, true}) {
        try {
          const NeatsLossy loaded = view ? NeatsLossy::View(evil)
                                         : NeatsLossy::Deserialize(evil);
          loaded.Decompress(&decoded);
          ASSERT_EQ(decoded.size(), loaded.size());
          for (uint64_t k = 0; k < loaded.size(); ++k) {
            (void)loaded.Access(k);
          }
        } catch (const Error&) {
          // A loader check caught the clobber — the expected case.
        }
      }
    }
  }
}

// A forged NeaTS-L blob whose kind table drops its last kind while the
// wavelet tree K still names it. Every count and length stays consistent,
// so only the check that the per-kind ranks cover all m fragments keeps
// Access and Decompress from indexing past the kind table.
TEST(FormatV3, LossyForgedKindSymbolIsRejected) {
  Dataset ds = MakeDataset("ECG", 6000);
  std::vector<uint8_t> blob;
  NeatsLossy::Compress(ds.values, 50).Serialize(&blob);
  // Header words: magic, version, n, m, eps, shift, kind count; then the
  // kind table, S, D, K, the params count and one params array per kind.
  WordReader r(blob, /*borrow=*/false);
  for (int i = 0; i < 6; ++i) r.Get();
  const uint64_t kinds = r.Get();
  ASSERT_GE(kinds, 2u);
  const size_t table_at = r.position();
  for (uint64_t i = 0; i < kinds; ++i) r.Get();
  const size_t sections_at = r.position();
  (void)EliasFano::Load(r);
  (void)PackedArray::Load(r);
  (void)WaveletTree::Load(r);
  const size_t params_at = r.position();
  ASSERT_EQ(r.Get(), kinds);
  const size_t arrays_at = r.position();
  for (uint64_t i = 0; i + 1 < kinds; ++i) (void)r.GetArray<double>();
  const size_t last_array_at = r.position();

  std::vector<uint8_t> forged;
  WordWriter w(&forged);
  auto copy = [&](size_t from, size_t to) {
    forged.insert(forged.end(), blob.begin() + static_cast<ptrdiff_t>(from),
                  blob.begin() + static_cast<ptrdiff_t>(to));
  };
  copy(0, table_at - 8);
  w.Put(kinds - 1);
  copy(table_at, sections_at - 8);  // the kind table minus its last kind
  copy(sections_at, params_at);
  w.Put(kinds - 1);
  copy(arrays_at, last_array_at);
  EXPECT_NEATS_ERROR(NeatsLossy::Deserialize(forged), "corrupt NeaTS-L blob");
  EXPECT_NEATS_ERROR(NeatsLossy::View(forged), "corrupt NeaTS-L blob");
}

TEST(FormatV3, ForgedRecordsAreRejected) {
  // One forged directory per check of the loader's walk. Each forgery is
  // re-packed at minimal widths (unless the width is the forgery), so the
  // rest of the section stays well-formed. The kind and width forgeries
  // would also trip the later offset and count checks; the kind and width
  // checks come first so those never index past the kind table or read a
  // field wider than 64 bits.
  Dataset ds = MakeDataset("ECG", 6000);
  Neats c = Neats::Compress(ds.values);
  const std::vector<uint8_t> bytes = SerializeOf(c);
  const size_t m = c.num_fragments();
  const DirectorySection d = FindDirectory(bytes, m);
  ASSERT_EQ(d.records.size(), m);
  ASSERT_GE(m, 4u);
  // The re-packer reproduces the blob, so every forgery below differs from
  // a valid blob only where intended.
  ASSERT_EQ(WithDirectory(bytes, d, d.records, MinimalWidths(d.records)), bytes);

  const Record& last = d.records.back();
  const Neats::FragmentInfo last_info = c.GetFragment(m - 1);
  size_t kinds = 0;
  for (const Record& r : d.records) kinds = std::max<size_t>(kinds, r.kind + 1u);
  ASSERT_GE(kinds, 2u) << "the forgeries need a blob with two kinds";
  int record_width = 0;
  for (int w : MinimalWidths(d.records).w) record_width += w;
  ASSERT_NE(m * static_cast<size_t>(record_width) % 64, 0u)
      << "the pad forgery needs pad bits after the last record";

  struct Forgery {
    const char* name;
    std::function<void(std::vector<Record>*)> apply;
    uint64_t pad = 0;
  };
  const std::vector<Forgery> forgeries = {
      {"record count differs from m",
       [](std::vector<Record>* r) { r->pop_back(); }},
      {"kind outside the kind table",
       [&](std::vector<Record>* r) {
         (*r)[m / 2].kind = static_cast<uint8_t>(kinds);
       }},
      {"correction width over 64 bits",
       [](std::vector<Record>* r) {
         r->back().correction_bits = 65;
       }},
      {"correction offset off the running sum",
       [](std::vector<Record>* r) { (*r)[1].corr_offset += 1; }},
      {"corrections end past the payload",
       [&](std::vector<Record>* r) {
         // Widening the last fragment keeps every offset consistent but
         // moves the end past the payload's last word.
         ASSERT_LE(last.correction_bits, 32);
         ASSERT_GE(last_info.end - last_info.start, 2u);
         r->back().correction_bits = 64;
       }},
      {"parameter offset off the kind count",
       [](std::vector<Record>* r) { (*r)[2].param_index += 1; }},
      {"parameter arrays disagree with the kind counts",
       [&](std::vector<Record>* r) {
         // Move the last fragment to another kind, with the parameter
         // offset that kind's running count predicts: every record passes,
         // but the two kinds' parameter arrays no longer match their counts.
         const uint8_t other = static_cast<uint8_t>((last.kind + 1) % kinds);
         size_t seen = 0;
         FunctionKind other_kind = FunctionKind::kLinear;
         for (size_t i = 0; i + 1 < m; ++i) {
           if ((*r)[i].kind != other) continue;
           other_kind = c.GetFragment(i).kind;
           ++seen;
         }
         ASSERT_GT(seen, 0u);
         r->back().kind = other;
         r->back().param_index = seen * static_cast<size_t>(NumParams(other_kind));
       }},
      {"displacement before value 0",
       [&](std::vector<Record>* r) {
         (*r)[m - 1].displacement = last_info.start + 1;
       }},
      {"non-zero pad bits", [](std::vector<Record>*) {}, 1},
  };
  auto expect_rejected = [&](const std::string& name,
                             const std::vector<uint8_t>& evil) {
    SCOPED_TRACE(name);
    ASSERT_NE(evil, bytes);
    EXPECT_NEATS_ERROR(Neats::Deserialize(evil), "corrupt NeaTS blob");
    EXPECT_NEATS_ERROR(Neats::View(evil), "corrupt NeaTS blob");
  };
  for (const Forgery& f : forgeries) {
    std::vector<Record> records = d.records;
    f.apply(&records);
    if (::testing::Test::HasFatalFailure()) return;
    expect_rejected(f.name, WithDirectory(bytes, d, records,
                                          MinimalWidths(records), f.pad));
  }
  // Non-minimal field widths: the same records, one field one bit wider.
  for (int field = 0; field < kDirFields; ++field) {
    FieldWidths widths = MinimalWidths(d.records);
    ++widths.w[field];
    expect_rejected("field " + std::to_string(field) + " wider than minimal",
                    WithDirectory(bytes, d, d.records, widths));
  }
}

TEST(FormatV3, ClobberSweepDirectorySection) {
  // Flip every word of the trailing directory section: the count word, the
  // five width words, the alignment pad (zero on the wire) and the packed
  // records. Each flip must either throw a diagnostic or load into objects
  // that are internally consistent — owned and viewed Access agree with
  // each other and with Decompress at every position.
  Neats original = Neats::Compress(TestSeries(5000, 123));
  const std::vector<uint8_t> bytes = SerializeOf(original);
  const size_t dir_start = FindDirectory(bytes, original.num_fragments()).offset;
  ASSERT_GT(dir_start, 0u);
  for (size_t w = dir_start; w + 8 <= bytes.size(); w += 8) {
    std::vector<uint8_t> evil = bytes;
    for (int b = 0; b < 8; ++b) evil[w + static_cast<size_t>(b)] ^= 0xFF;
    try {
      Neats loaded = Neats::Deserialize(evil);
      Neats viewed = Neats::View(evil);
      std::vector<int64_t> decoded;
      loaded.Decompress(&decoded);
      ASSERT_EQ(decoded.size(), loaded.size());
      for (uint64_t k = 0; k < loaded.size(); ++k) {
        ASSERT_EQ(loaded.Access(k), decoded[k])
            << "clobbered directory word at byte " << w;
        ASSERT_EQ(viewed.Access(k), decoded[k])
            << "clobbered directory word at byte " << w;
      }
    } catch (const Error&) {
      // The loader rejected the clobbered directory — the expected case.
    }
  }
}

// ---------------------------------------------------------------------------
// Cursor seeks, both directions, vs Access ground truth.
// ---------------------------------------------------------------------------

TEST(CursorSeek, RandomBidirectionalSeeks) {
  std::vector<int64_t> values = TestSeries(30000, 55);
  Neats compressed = Neats::Compress(values);
  std::mt19937_64 rng(56);
  Neats::Cursor cursor(compressed);
  uint64_t pos = 0;
  for (int t = 0; t < 4000; ++t) {
    switch (rng() % 3) {
      case 0:  // local jitter around the current position (hop path)
        pos = std::min<uint64_t>(
            values.size() - 1,
            static_cast<uint64_t>(std::max<int64_t>(
                0, static_cast<int64_t>(pos) +
                       static_cast<int64_t>(rng() % 2001) - 1000)));
        break;
      case 1:  // short backward step (retreat path)
        pos = pos >= 37 ? pos - 37 : 0;
        break;
      default:  // far jump (rank fallback)
        pos = rng() % values.size();
    }
    cursor.Seek(pos);
    ASSERT_EQ(cursor.position(), pos);
    ASSERT_EQ(cursor.Value(), values[pos]) << "seek to " << pos;
  }
}

TEST(CursorSeek, BackwardSweepMatchesAccess) {
  std::vector<int64_t> values = TestSeries(20000, 57);
  Neats compressed = Neats::Compress(values);
  Neats::Cursor cursor(compressed, values.size() - 1);
  for (uint64_t k = values.size(); k-- > 0;) {
    cursor.Seek(k);
    ASSERT_EQ(cursor.Value(), values[k]) << "backward seek to " << k;
  }
}

}  // namespace
}  // namespace neats
