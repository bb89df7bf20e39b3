// Tests for the serving layer (src/store/neats_store.hpp) and its batch
// kernels: AccessBatch / DecompressRanges fuzz against scalar ground truth
// (random, duplicate, unsorted, cross-shard probe sets), shard-boundary
// range sums, append -> seal -> reopen byte identity, and the
// corrupt-manifest clobber sweep matching the blob-hardening suites.

#include "store/neats_store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "codecs/codec_registry.hpp"
#include "common/bits.hpp"
#include "core/codec_id.hpp"
#include "core/neats.hpp"
#include "gated_fs.hpp"
#include "io/checksum.hpp"
#include "io/fault_fs.hpp"
#include "io/manifest.hpp"
#include "io/mmap_file.hpp"
#include "io/text_io.hpp"
#include "neats/neats.hpp"
#include "require_error.hpp"

namespace neats {
namespace {

// A series mixing regimes so shards get genuinely different partitions:
// exponential growth, a ramp, a noisy plateau, and a quadratic arc.
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

// A store directory path unique to this test process.
std::string TempStoreDir(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("neats_store_test_") + tag + "_" +
           std::to_string(static_cast<unsigned long long>(
               std::chrono::steady_clock::now().time_since_epoch().count()))))
      .string();
}

// The tiers a test store is left holding values in.
enum class Tiers {
  // Background seals (seal_threads = 2): sealed shards and a hot tail, plus
  // whatever seals are still running — that part depends on timing.
  kMidIngest,
  // Inline seals (seal_threads = 1): they stay pending until the next
  // Append, and the last Append cuts at least two chunks, so the store
  // deterministically holds sealed shards, >= 2 pending chunks and a tail.
  kPending,
  // Everything sealed.
  kFlushed,
};
constexpr Tiers kAllTiers[] = {Tiers::kMidIngest, Tiers::kPending,
                               Tiers::kFlushed};

const char* TiersName(Tiers tiers) {
  switch (tiers) {
    case Tiers::kMidIngest: return "mid-ingest";
    case Tiers::kPending: return "pending";
    case Tiers::kFlushed: return "flushed";
  }
  return "?";
}

// Builds an in-memory store by appending `values` in ragged slices and
// leaves it in `tiers` (shard_size chosen so that every tier is present;
// kPending needs at least 2.5 shards of values).
NeatsStore BuildStore(const std::vector<int64_t>& values, uint64_t shard_size,
                      Tiers tiers) {
  NeatsStoreOptions options;
  options.shard_size = shard_size;
  options.seal_threads = tiers == Tiers::kPending ? 1 : 2;
  NeatsStore store(options);
  // kPending holds back 2.5 shards for one last Append: whatever the tail
  // holds before it, that Append cuts at least two chunks.
  const size_t last =
      tiers == Tiers::kPending ? static_cast<size_t>(5 * shard_size / 2) : 0;
  const size_t head = values.size() - std::min(last, values.size());
  size_t at = 0;
  const size_t slices[] = {997, 2011, 499, 3517};
  size_t s = 0;
  while (at < head) {
    size_t n = std::min(slices[s++ % 4], head - at);
    store.Append({values.data() + at, n});
    at += n;
  }
  if (at < values.size()) {
    store.Append({values.data() + at, values.size() - at});
  }
  if (tiers == Tiers::kPending) {
    EXPECT_GE(store.num_pending_seals(), 2u);
    EXPECT_GT(store.tail_size(), 0u);
  }
  if (tiers == Tiers::kFlushed) store.Flush();
  return store;
}

// Reader threads querying `store` below index `floor` (values acked before
// they start) until destroyed: Access, AccessBatch, DecompressRange and
// RangeSum, every answer checked against `truth`. Progress(n) is true once
// they complete `n` more rounds, false after 30 s — a blocked reader.
class ReaderStorm {
 public:
  ReaderStorm(const NeatsStore& store, const std::vector<int64_t>& truth,
              uint64_t floor) {
    for (uint64_t t = 0; t < 3; ++t) {
      threads_.emplace_back([this, &store, &truth, floor, t] {
        Run(store, truth, floor, t);
      });
    }
  }
  ReaderStorm(const ReaderStorm&) = delete;
  ReaderStorm& operator=(const ReaderStorm&) = delete;
  ~ReaderStorm() {
    stop_.store(true, std::memory_order_release);
    for (std::thread& t : threads_) t.join();
  }

  bool Progress(uint64_t n) const {
    const uint64_t target = rounds_.load() + n;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (rounds_.load() < target) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  bool wrong() const { return wrong_.load(); }

 private:
  void Run(const NeatsStore& store, const std::vector<int64_t>& truth,
           uint64_t floor, uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<uint64_t> idx(16);
    std::vector<int64_t> out(16);
    while (!stop_.load(std::memory_order_acquire)) {
      bool ok = store.size() >= floor;
      for (uint64_t& i : idx) i = rng() % floor;
      store.AccessBatch(idx, out);
      for (size_t k = 0; k < idx.size(); ++k) ok &= out[k] == truth[idx[k]];
      ok &= store.Access(idx[0]) == truth[idx[0]];
      const uint64_t from = idx[1] % (floor - out.size() + 1);
      store.DecompressRange(from, out.size(), out.data());
      int64_t sum = 0;
      for (size_t k = 0; k < out.size(); ++k) {
        ok &= out[k] == truth[from + k];
        sum += truth[from + k];
      }
      ok &= store.RangeSum(from, out.size()) == sum;
      if (!ok) wrong_.store(true);
      rounds_.fetch_add(1);
    }
  }

  std::atomic<bool> stop_{false};
  std::atomic<bool> wrong_{false};
  std::atomic<uint64_t> rounds_{0};
  std::vector<std::thread> threads_;  // last: the fields above exist first
};

// ---------------------------------------------------------------------------
// Neats::AccessBatch (the fragment-grouped kernel) against scalar Access.
// ---------------------------------------------------------------------------

TEST(NeatsAccessBatch, SortedProbesMatchScalarAccess) {
  std::vector<int64_t> values = MixedSeries(20000, 1);
  Neats compressed = Neats::Compress(values);
  std::mt19937_64 rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    size_t count = 1 + rng() % 700;
    std::vector<uint64_t> idx(count);
    for (auto& k : idx) k = rng() % values.size();
    if (trial % 3 == 0) {  // heavy duplicates
      for (auto& k : idx) k = idx[0] + k % 40;
      for (auto& k : idx) k = std::min<uint64_t>(k, values.size() - 1);
    }
    std::sort(idx.begin(), idx.end());
    std::vector<int64_t> out(count);
    compressed.AccessBatch(idx, out.data());
    for (size_t j = 0; j < count; ++j) {
      ASSERT_EQ(out[j], values[idx[j]])
          << "probe " << idx[j] << " trial " << trial;
    }
  }
  // Degenerate batches.
  std::vector<int64_t> one(1);
  compressed.AccessBatch(std::vector<uint64_t>{0}, one.data());
  EXPECT_EQ(one[0], values[0]);
  compressed.AccessBatch(std::vector<uint64_t>{values.size() - 1},
                         one.data());
  EXPECT_EQ(one[0], values.back());
  compressed.AccessBatch(std::span<const uint64_t>(), nullptr);
}

TEST(NeatsDecompressRanges, MatchesPerRangeDecompression) {
  std::vector<int64_t> values = MixedSeries(15000, 3);
  Neats compressed = Neats::Compress(values);
  std::mt19937_64 rng(4);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<IndexRange> ranges;
    size_t total = 0;
    for (int r = 0; r < 8; ++r) {
      uint64_t from = rng() % values.size();
      uint64_t len = rng() % std::min<uint64_t>(400, values.size() - from);
      ranges.push_back({from, len});
      total += len;
    }
    ranges.push_back({0, 0});  // empty range is legal anywhere in the batch
    std::vector<int64_t> got(total);
    compressed.DecompressRanges(ranges, got.data());
    size_t off = 0;
    for (const IndexRange& r : ranges) {
      for (uint64_t j = 0; j < r.len; ++j) {
        ASSERT_EQ(got[off + j], values[r.from + j])
            << "range [" << r.from << ", +" << r.len << ") at " << j;
      }
      off += r.len;
    }
  }
}

// ---------------------------------------------------------------------------
// Store queries against raw ground truth, mid-ingest and flushed.
// ---------------------------------------------------------------------------

TEST(NeatsStore, AccessBatchFuzzAllTiers) {
  std::vector<int64_t> values = MixedSeries(30000, 5);
  // Every tier mix (see Tiers), flushed last.
  for (Tiers tiers : kAllTiers) {
    NeatsStore store = BuildStore(values, 7000, tiers);
    ASSERT_EQ(store.size(), values.size());
    std::mt19937_64 rng(6);
    for (int trial = 0; trial < 40; ++trial) {
      size_t count = 1 + rng() % 600;
      std::vector<uint64_t> idx(count);
      for (auto& k : idx) k = rng() % values.size();
      switch (trial % 3) {
        case 0:  // unsorted random — leave as is
          break;
        case 1:  // duplicates piled on a shard boundary
          for (size_t j = 0; j < count; ++j) {
            idx[j] = (7000 - 2 + j % 5) % values.size();
          }
          break;
        case 2:  // descending
          std::sort(idx.rbegin(), idx.rend());
          break;
      }
      std::vector<int64_t> out(count);
      store.AccessBatch(idx, out);
      for (size_t j = 0; j < count; ++j) {
        ASSERT_EQ(out[j], values[idx[j]]) << TiersName(tiers) << " probe "
                                          << idx[j] << " trial " << trial;
        ASSERT_EQ(store.Access(idx[j]), values[idx[j]]);
      }
    }
  }
}

TEST(NeatsStore, DecompressRangesAcrossShardsAndTiers) {
  std::vector<int64_t> values = MixedSeries(30000, 7);
  for (Tiers tiers : kAllTiers) {
    NeatsStore store = BuildStore(values, 7000, tiers);
    std::mt19937_64 rng(8);
    for (int trial = 0; trial < 31; ++trial) {
      std::vector<IndexRange> ranges;
      if (trial == 30) {
        // Pinned to the kPending layout — shard [0, 7000), pending chunks
        // [7000, 28000) cut at 14000 and 21000, tail [28000, 30000): spans
        // starting, ending and crossing inside pending chunks.
        ranges = {{7500, 100},  {6990, 20},   {13990, 20},  {8000, 12500},
                  {20000, 8500}, {27990, 2010}, {12000, 3000}, {6999, 23001}};
      }
      for (int r = 0; r < 6 && trial < 30; ++r) {
        uint64_t from = rng() % values.size();
        uint64_t len =
            rng() % std::min<uint64_t>(9000, values.size() - from);
        ranges.push_back({from, len});
      }
      size_t total = 0;
      for (const IndexRange& r : ranges) total += r.len;
      std::vector<int64_t> got(total);
      store.DecompressRanges(ranges, got.data());
      size_t off = 0;
      for (const IndexRange& r : ranges) {
        for (uint64_t j = 0; j < r.len; ++j) {
          ASSERT_EQ(got[off + j], values[r.from + j])
              << TiersName(tiers) << " range [" << r.from << ", +" << r.len
              << ") at " << j;
        }
        off += r.len;
      }
      // The same ranges one DecompressRange call at a time.
      off = 0;
      for (const IndexRange& r : ranges) {
        std::vector<int64_t> one(r.len);
        store.DecompressRange(r.from, r.len, one.data());
        ASSERT_TRUE(std::equal(one.begin(), one.end(), got.begin() + off))
            << TiersName(tiers) << " range [" << r.from << ", +" << r.len
            << ")";
        off += r.len;
      }
    }
    // The full series in one range.
    std::vector<int64_t> all(values.size());
    store.DecompressRange(0, values.size(), all.data());
    EXPECT_EQ(all, values);
  }
}

// Bounded-magnitude series for the aggregate checks: small values whose
// sums cross zero, so a misrouted piece shows in the total.
std::vector<int64_t> BoundedSeries(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<int64_t> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    int64_t base = static_cast<int64_t>(i % 5000) * 7 - 12000;
    values.push_back(base + static_cast<int64_t>(rng() % 256));
  }
  return values;
}

TEST(NeatsStore, RangeSumsAcrossShardBoundaries) {
  std::vector<int64_t> values = BoundedSeries(30000, 9);
  std::vector<int64_t> prefix(values.size() + 1, 0);
  for (size_t i = 0; i < values.size(); ++i) {
    prefix[i + 1] = prefix[i] + values[i];
  }
  for (Tiers tiers : kAllTiers) {
    NeatsStore store = BuildStore(values, 7000, tiers);
    // Spans pinned to shard boundaries, spanning several shards, plus the
    // whole series. Under kPending, [7000, 28000) is three pending chunks
    // and [28000, 30000) the tail, so the same spans start, end and cross
    // inside pending chunks.
    std::vector<IndexRange> spans = {
        {6999, 2},          // exactly straddles the first boundary
        {7000, 7000},       // exactly one shard
        {0, 21000},         // three shards
        {3500, 21000},      // misaligned, four shards
        {0, values.size()}, // everything, including pending + tail
        {20999, 2},         {13999, 7002},
        {7500, 100},        // inside one pending chunk
        {12000, 3000},      // across two pending chunks
        {20000, 8500},      // pending into the tail
        {27990, 2010},      // the last pending values and the whole tail
        {28500, 1000},      // inside the tail
    };
    std::mt19937_64 rng(10);
    for (int t = 0; t < 20; ++t) {
      uint64_t from = rng() % values.size();
      spans.push_back(
          {from, rng() % std::min<uint64_t>(12000, values.size() - from)});
    }
    for (const IndexRange& s : spans) {
      ASSERT_EQ(store.RangeSum(s.from, s.len),
                prefix[s.from + s.len] - prefix[s.from])
          << TiersName(tiers) << " span [" << s.from << ", +" << s.len << ")";
    }
  }
}

TEST(NeatsStore, ParallelQueryFanOutMatchesSequential) {
  // The same multi-shard queries on a one-thread seal pool (always
  // sequential) and a two-thread pool (fanned out: every query spans more
  // than kParallelQueryValues sealed values) must agree exactly — per-shard
  // int64 partial sums reassociate without changing the answer, and decode
  // targets are disjoint output spans. Gorilla keeps the seals fast; the
  // test is about the fan-out, not the codec. Runs under the TSan CI job.
  constexpr uint64_t kFanOut = NeatsStore::kParallelQueryValues;
  std::vector<int64_t> values = BoundedSeries(3 * kFanOut, 13);
  std::vector<int64_t> prefix(values.size() + 1, 0);
  for (size_t i = 0; i < values.size(); ++i) {
    prefix[i + 1] = prefix[i] + values[i];
  }
  for (int seal_threads : {1, 2}) {
    NeatsStoreOptions options;
    options.shard_size = kFanOut / 4;  // twelve sealed shards
    options.seal_threads = seal_threads;
    options.codec = CodecId::kGorilla;
    NeatsStore store(options);
    store.Append(values);
    store.Flush();
    std::mt19937_64 rng(14);
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<IndexRange> ranges;
      size_t total = 0;
      for (int r = 0; r < 3; ++r) {
        uint64_t len = kFanOut / 2 + rng() % (kFanOut / 4);
        uint64_t from = rng() % (values.size() - len);
        ranges.push_back({from, len});
        total += len;
      }
      ASSERT_GT(total, kFanOut);
      std::vector<int64_t> got(total);
      store.DecompressRanges(ranges, got.data());
      size_t off = 0;
      for (const IndexRange& r : ranges) {
        for (uint64_t j = 0; j < r.len; ++j) {
          ASSERT_EQ(got[off + j], values[r.from + j])
              << "seal_threads=" << seal_threads << " range [" << r.from
              << ", +" << r.len << ") at " << j;
        }
        off += r.len;
      }
      const uint64_t len = kFanOut + rng() % kFanOut;
      const uint64_t from = rng() % (values.size() - len);
      ASSERT_EQ(store.RangeSum(from, len), prefix[from + len] - prefix[from])
          << "seal_threads=" << seal_threads;
    }
    // The whole series in one call covers every shard at once.
    std::vector<int64_t> all(values.size());
    store.DecompressRange(0, values.size(), all.data());
    EXPECT_EQ(all, values);
    EXPECT_EQ(store.RangeSum(0, values.size()), prefix[values.size()]);
  }
}

// ---------------------------------------------------------------------------
// Durability: append -> seal -> reopen.
// ---------------------------------------------------------------------------

TEST(NeatsStore, AppendSealReopenRoundTripByteIdentity) {
  std::vector<int64_t> values = MixedSeries(25000, 11);
  const uint64_t kShard = 6000;
  std::string dir = TempStoreDir("roundtrip");
  {
    NeatsStoreOptions options;
    options.shard_size = kShard;
    options.seal_threads = 2;
    NeatsStore store = NeatsStore::CreateDir(dir, options);
    // Ragged appends must not affect the sealed bytes — only shard_size
    // decides where shards get cut.
    size_t at = 0;
    const size_t slices[] = {1, 4099, 811, 9973};
    size_t s = 0;
    while (at < values.size()) {
      size_t n = std::min(slices[s++ % 4], values.size() - at);
      store.Append({values.data() + at, n});
      at += n;
    }
    store.Flush();
    EXPECT_EQ(store.num_shards(), (values.size() + kShard - 1) / kShard);
  }

  // Every shard blob is byte-identical to compressing that slice directly —
  // the append path adds no hidden state to the sealed form — plus the
  // 16-byte checksum trailer the durability layer appends, which must
  // verify against the payload.
  size_t num_shards = (values.size() + kShard - 1) / kShard;
  for (size_t s = 0; s < num_shards; ++s) {
    size_t first = s * kShard;
    size_t count = std::min<size_t>(kShard, values.size() - first);
    Neats direct = Neats::Compress({values.data() + first, count});
    std::vector<uint8_t> expected;
    direct.Serialize(&expected);
    std::vector<uint8_t> on_disk =
        ReadFile(dir + "/" + StoreManifest::ShardFileName(s));
    TrailerInfo trailer = CheckChecksumTrailer(on_disk);
    ASSERT_EQ(trailer.state, TrailerState::kValid) << "shard " << s;
    std::vector<uint8_t> payload(trailer.payload.begin(),
                                 trailer.payload.end());
    ASSERT_EQ(payload, expected) << "shard " << s;
  }

  // Reopen: zero-copy serving, values bit-identical to a one-shot
  // compression of the full series.
  NeatsStore reopened = NeatsStore::OpenDir(dir);
  ASSERT_EQ(reopened.size(), values.size());
  ASSERT_EQ(reopened.shard_size(), kShard);
  Neats one_shot = Neats::Compress(values);
  for (size_t k = 0; k < values.size(); k += 83) {
    ASSERT_EQ(reopened.Access(k), one_shot.Access(k)) << k;
    ASSERT_EQ(reopened.Access(k), values[k]) << k;
  }

  // A second Flush with no new data must rewrite the manifest verbatim.
  std::vector<uint8_t> manifest_before =
      ReadFile(dir + "/" + StoreManifest::FileName());
  reopened.Flush();
  EXPECT_EQ(ReadFile(dir + "/" + StoreManifest::FileName()), manifest_before);

  // Appending after reopen grows the store and survives another reopen.
  reopened.Append({values.data(), 1234});
  reopened.Flush();
  NeatsStore again = NeatsStore::OpenDir(dir);
  ASSERT_EQ(again.size(), values.size() + 1234);
  for (size_t k = 0; k < 1234; k += 13) {
    ASSERT_EQ(again.Access(values.size() + k), values[k]) << k;
  }
  std::filesystem::remove_all(dir);
}

TEST(NeatsStore, MoveAssignmentDrainsInFlightSeals) {
  // Overwriting a store that still has background seals in flight must not
  // free the chunks those seal tasks read (the sanitizer job would flag a
  // use-after-free here if move assignment skipped the drain).
  std::vector<int64_t> values = MixedSeries(20000, 15);
  NeatsStoreOptions options;
  options.shard_size = 4000;
  options.seal_threads = 2;
  NeatsStore dst(options);
  dst.Append(values);  // several chunks immediately handed to the sealer
  NeatsStore src(options);
  src.Append({values.data(), 5000});
  dst = std::move(src);
  dst.Flush();
  ASSERT_EQ(dst.size(), 5000u);
  for (size_t k = 0; k < 5000; k += 97) {
    ASSERT_EQ(dst.Access(k), values[k]) << k;
  }
}

// ---------------------------------------------------------------------------
// Corrupt-store hardening, matching the blob clobber-sweep suites.
// ---------------------------------------------------------------------------

TEST(NeatsStore, CorruptManifestClobberSweep) {
  std::vector<int64_t> values = MixedSeries(12000, 13);
  std::string dir = TempStoreDir("clobber");
  {
    NeatsStoreOptions options;
    options.shard_size = 5000;
    NeatsStore store = NeatsStore::CreateDir(dir, options);
    store.Append(values);
    store.Flush();
  }
  const std::string manifest_path = dir + "/" + StoreManifest::FileName();
  std::vector<uint8_t> good = ReadFile(manifest_path);

  // Truncations must be rejected loudly.
  for (size_t keep : {size_t{0}, size_t{7}, good.size() / 2, good.size() - 8}) {
    std::vector<uint8_t> cut(good.begin(),
                             good.begin() + static_cast<ptrdiff_t>(keep));
    WriteFile(manifest_path, cut);
    EXPECT_NEATS_ERROR(NeatsStore::OpenDir(dir), "manifest");
  }

  // Flipping any word of the manifest must either throw a diagnostic or
  // (if ever benign) still open into a store that serves correct values
  // — never a crash or silent misroute.
  for (size_t w = 0; w + 8 <= good.size(); w += 8) {
    std::vector<uint8_t> evil = good;
    for (int b = 0; b < 8; ++b) evil[w + static_cast<size_t>(b)] ^= 0xFF;
    WriteFile(manifest_path, evil);
    try {
      NeatsStore opened = NeatsStore::OpenDir(dir);
      for (uint64_t k = 0; k < opened.size(); k += 701) {
        ASSERT_EQ(opened.Access(k), values[k])
            << "clobbered manifest word at byte " << w;
      }
    } catch (const Error&) {
      // A loader check caught the clobber — the expected common case.
    }
  }
  WriteFile(manifest_path, good);

  // A shard blob that disagrees with the manifest (truncated file) no
  // longer poisons the whole store: OpenDir quarantines that shard, keeps
  // serving the healthy ones bit-identically, and reports the damage.
  // Queries routed into the quarantined range fail with a typed
  // kUnavailable error instead of a wrong answer.
  const std::string shard0 = dir + "/" + StoreManifest::ShardFileName(0);
  std::vector<uint8_t> blob = ReadFile(shard0);
  std::vector<uint8_t> short_blob(blob.begin(), blob.end() - 8);
  WriteFile(shard0, short_blob);
  {
    NeatsStore degraded = NeatsStore::OpenDir(dir);
    EXPECT_TRUE(degraded.degraded());
    ASSERT_EQ(degraded.recovery_report().quarantined.size(), 1u);
    EXPECT_EQ(degraded.recovery_report().quarantined[0].shard, 0u);
    ASSERT_EQ(degraded.size(), values.size());
    try {
      degraded.Access(17);  // shard 0's range
      FAIL() << "expected a quarantine error";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), StatusCode::kUnavailable);
      EXPECT_NE(std::string(e.what()).find("quarantined"), std::string::npos);
    }
    for (size_t k = 5000; k < values.size(); k += 977) {
      ASSERT_EQ(degraded.Access(k), values[k]);  // healthy shards serve
    }
  }
  WriteFile(shard0, blob);

  // Restored, the store opens and serves again.
  NeatsStore ok = NeatsStore::OpenDir(dir);
  for (size_t k = 0; k < values.size(); k += 977) {
    ASSERT_EQ(ok.Access(k), values[k]);
  }

  // CreateDir must refuse a directory that already holds a store — a
  // fresh store's seals would clobber the existing blobs out from under
  // the surviving manifest.
  EXPECT_NEATS_ERROR(NeatsStore::CreateDir(dir), "use OpenDir");
  std::filesystem::remove_all(dir);
}

// The `wal` option only decides whether new appends are logged: a reopen
// with it off still replays the acknowledged appends an earlier open
// logged, and its Flush resets that log once the manifest covers them, so a
// later reopen with the WAL on neither drops nor splices stale values.
TEST(NeatsStore, WalOffReopenKeepsAcknowledgedAppends) {
  const std::vector<int64_t> first = MixedSeries(100, 71);
  const std::vector<int64_t> second(50, -7);
  const std::string dir = TempStoreDir("wal_off");
  NeatsStoreOptions wal_on;
  wal_on.shard_size = 4096;
  NeatsStoreOptions wal_off = wal_on;
  wal_off.wal = false;
  {
    NeatsStore store = NeatsStore::CreateDir(dir, wal_on);
    store.Append(first);
  }  // dropped without a Flush: the WAL holds the only copy
  {
    NeatsStore store = NeatsStore::OpenDir(dir, wal_off);
    ASSERT_EQ(store.size(), first.size());
    store.Append(second);
    store.Flush();
  }
  std::vector<uint8_t> header;
  AppendWalHeader(&header);
  EXPECT_EQ(ReadFile(dir + "/" + WalFileName()), header);  // reset
  NeatsStore store = NeatsStore::OpenDir(dir, wal_on);
  ASSERT_EQ(store.size(), first.size() + second.size());
  for (size_t k = 0; k < first.size(); ++k) {
    ASSERT_EQ(store.Access(k), first[k]) << k;
  }
  for (size_t k = 0; k < second.size(); ++k) {
    ASSERT_EQ(store.Access(first.size() + k), second[k]) << k;
  }
  std::filesystem::remove_all(dir);
}

// Seal promotion opens the blob the seal task wrote through the same
// verified path as OpenDir: a blob damaged between seal and promotion fails
// the Flush with a typed error, the chunk stays pending and keeps serving
// its raw values, and once the blob is intact again the next Flush
// promotes it.
TEST(NeatsStore, PromotionVerifiesWrittenBlob) {
  const std::vector<int64_t> values = MixedSeries(4000, 73);
  const std::string dir = TempStoreDir("promote");
  NeatsStoreOptions options;
  options.shard_size = 4000;
  options.seal_threads = 1;  // the seal runs inline in Append
  NeatsStore store = NeatsStore::CreateDir(dir, options);
  store.Append(values);  // seals shard 0; promotion waits for the next op
  const std::string shard0 = dir + "/" + StoreManifest::ShardFileName(0);
  const std::vector<uint8_t> blob = ReadFile(shard0);
  std::vector<uint8_t> rotten = blob;
  rotten[rotten.size() / 2] ^= 0x10;  // inside the codec payload
  WriteFile(shard0, rotten);
  EXPECT_NEATS_ERROR(store.Flush(), "shard blob fails its checksum");
  EXPECT_EQ(store.num_shards(), 0u);
  EXPECT_EQ(store.num_pending_seals(), 1u);
  for (size_t k = 0; k < values.size(); k += 97) {
    ASSERT_EQ(store.Access(k), values[k]) << k;
  }
  WriteFile(shard0, blob);
  store.Flush();
  EXPECT_EQ(store.num_shards(), 1u);
  for (size_t k = 0; k < values.size(); k += 97) {
    ASSERT_EQ(store.Access(k), values[k]) << k;
  }
  std::filesystem::remove_all(dir);
}

// The writer's IO leaves readers serving. Reader threads run across an
// Append parked in its WAL fsync and a Flush parked in its seal drain (two
// seals parked in their blob fsyncs): every value they read is right, the
// parked Append's values stay invisible until its fsync returns, and a
// snapshot loaded meanwhile holds exactly the acked values.
TEST(NeatsStore, ReadersServeThroughWalFsyncAndSealDrain) {
  using testing::GatedFs;
  io::FaultFs disk;
  GatedFs seal_gate(disk, GatedFs::Op::kSync, "shard-");
  GatedFs wal_gate(seal_gate, GatedFs::Op::kSync, WalFileName());
  NeatsStoreOptions options;
  options.shard_size = 1024;
  options.seal_threads = 2;  // one worker seals; Flush's drain helps
  options.fs = &wal_gate;
  options.log_sink = obs::NullLogSink();
  NeatsStore store = NeatsStore::CreateDir("/overlap", options);
  const std::vector<int64_t> series = MixedSeries(6000, 91);
  store.Append({series.data(), 3000});
  store.Flush();

  // Readers see at least `acked` values (set after an Append returns) and
  // at most `visible` (raised just before a parked Append may finish).
  std::atomic<uint64_t> acked{3000}, visible{3000}, reads{0};
  std::atomic<bool> stop{false}, wrong{false};
  std::vector<std::thread> readers;
  for (uint64_t t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937_64 rng(t);
      std::vector<uint64_t> idx(16);
      std::vector<int64_t> out(16);
      while (!stop.load(std::memory_order_acquire)) {
        const uint64_t lo = acked.load(std::memory_order_acquire);
        const uint64_t size = store.size();
        const uint64_t hi = visible.load(std::memory_order_acquire);
        bool ok = lo <= size && size <= hi;
        for (uint64_t& i : idx) i = rng() % size;
        store.AccessBatch(idx, out);
        for (size_t k = 0; k < idx.size(); ++k) ok &= out[k] == series[idx[k]];
        ok &= store.Access(idx[0]) == series[idx[0]];
        const uint64_t from = idx[1] % (lo - 64);
        store.DecompressRange(from, out.size(), out.data());
        for (size_t k = 0; k < out.size(); ++k) {
          ok &= out[k] == series[from + k];
        }
        if (!ok) wrong.store(true);
        reads.fetch_add(1, std::memory_order_release);
      }
    });
  }
  struct Join {  // stops the readers even if an assert returns
    std::atomic<bool>& stop;
    std::vector<std::thread>& threads;
    ~Join() {
      stop.store(true, std::memory_order_release);
      for (std::thread& t : threads) t.join();
    }
  } join{stop, readers};
  // True once the readers complete `n` more reads (they are not blocked);
  // false after 30 s.
  const auto readers_progress = [&](uint64_t n) {
    const uint64_t target = reads.load() + n;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (reads.load() < target) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  };
  // While the writer is parked, a snapshot ends at `size` (the first
  // unacked index) and answers the acked values.
  const auto expect_snapshot_answers = [&](uint64_t size) {
    const auto snap = store.snapshot();
    EXPECT_EQ(snap->size(), size);
    EXPECT_EQ(snap->Access(7), series[7]);
    EXPECT_EQ(snap->RangeSum(size - 1, 1), series[size - 1]);
  };

  std::thread appender, flusher;
  struct Release {  // opens the gates and joins even if an assert returns
    GatedFs& seal_gate;
    GatedFs& wal_gate;
    std::thread& appender;
    std::thread& flusher;
    ~Release() {
      seal_gate.Open();
      wal_gate.Open();
      if (appender.joinable()) appender.join();
      if (flusher.joinable()) flusher.join();
    }
  } release{seal_gate, wal_gate, appender, flusher};

  // 1. An Append parked in its WAL fsync.
  wal_gate.Shut();
  appender = std::thread([&] { store.Append({series.data() + 3000, 500}); });
  wal_gate.AwaitParked();
  ASSERT_TRUE(readers_progress(1000)) << "readers wait out the WAL fsync";
  expect_snapshot_answers(3000);
  EXPECT_EQ(store.size(), 3000u);
  visible.store(3500, std::memory_order_release);
  wal_gate.Open();
  appender.join();
  acked.store(3500, std::memory_order_release);
  EXPECT_EQ(store.size(), 3500u);

  // 2. A Flush parked in its drain: the worker and the draining Flush each
  // park a seal in its blob fsync.
  seal_gate.Shut();
  visible.store(6000, std::memory_order_release);
  store.Append({series.data() + 3500, 2500});
  acked.store(6000, std::memory_order_release);
  flusher = std::thread([&] { store.Flush(); });
  seal_gate.AwaitParked(2);
  ASSERT_TRUE(readers_progress(1000)) << "readers wait out the seal drain";
  expect_snapshot_answers(6000);
  EXPECT_EQ(store.num_pending_seals(), 3u);
  seal_gate.Open();
  flusher.join();
  EXPECT_EQ(store.num_pending_seals(), 0u);
  EXPECT_EQ(store.num_shards(), 6u);
  ASSERT_TRUE(readers_progress(100));
  std::vector<int64_t> back(series.size());
  store.DecompressRange(0, back.size(), back.data());
  EXPECT_EQ(back, series);
  EXPECT_FALSE(wrong.load());
}

// Scrub re-verifying every shard blob holds nothing readers wait on: reader
// threads keep answering, correctly, while Scrub is parked in a shard
// open, and after it returns.
TEST(NeatsStore, ReadersServeThroughScrub) {
  using testing::GatedFs;
  io::FaultFs disk;
  GatedFs gate(disk, GatedFs::Op::kOpenRead, "shard-");
  NeatsStoreOptions options;
  options.shard_size = 1024;
  options.fs = &gate;
  options.log_sink = obs::NullLogSink();
  NeatsStore store = NeatsStore::CreateDir("/scrub", options);
  const std::vector<int64_t> series = MixedSeries(6000, 17);
  store.Append(series);
  store.Flush();

  ReaderStorm readers(store, series, series.size());
  std::thread scrubber;
  struct Release {  // opens the gate and joins even if an assert returns
    GatedFs& gate;
    std::thread& t;
    ~Release() {
      gate.Open();
      if (t.joinable()) t.join();
    }
  } release{gate, scrubber};
  gate.Shut();
  scrubber = std::thread([&] { store.Scrub(); });
  gate.AwaitParked();
  ASSERT_TRUE(readers.Progress(1000)) << "readers wait out Scrub";
  gate.Open();
  scrubber.join();
  EXPECT_TRUE(store.recovery_report().quarantined.empty());
  ASSERT_TRUE(readers.Progress(100));
  EXPECT_FALSE(readers.wrong());
}

// With seal_threads = 1 a seal runs inside the Append that cuts its chunk.
// Parked in its blob fsync, it holds nothing readers wait on: they keep
// answering the values acked before it, and the Append's values appear
// once it returns.
TEST(NeatsStore, ReadersServeThroughInlineSeal) {
  using testing::GatedFs;
  io::FaultFs disk;
  GatedFs gate(disk, GatedFs::Op::kSync, "shard-");
  NeatsStoreOptions options;
  options.shard_size = 1024;
  options.seal_threads = 1;
  options.fs = &gate;
  options.log_sink = obs::NullLogSink();
  NeatsStore store = NeatsStore::CreateDir("/inline", options);
  const std::vector<int64_t> series = MixedSeries(4096, 29);
  store.Append({series.data(), 2000});  // seals shard 0 inline, gate open

  ReaderStorm readers(store, series, 2000);
  std::thread appender;
  struct Release {  // opens the gate and joins even if an assert returns
    GatedFs& gate;
    std::thread& t;
    ~Release() {
      gate.Open();
      if (t.joinable()) t.join();
    }
  } release{gate, appender};
  gate.Shut();
  appender = std::thread([&] { store.Append({series.data() + 2000, 2096}); });
  gate.AwaitParked();
  ASSERT_TRUE(readers.Progress(1000)) << "readers wait out an inline seal";
  EXPECT_EQ(store.size(), 2000u);
  gate.Open();
  appender.join();
  EXPECT_EQ(store.size(), series.size());
  ASSERT_TRUE(readers.Progress(100));
  store.Flush();
  std::vector<int64_t> back(series.size());
  store.DecompressRange(0, back.size(), back.data());
  EXPECT_EQ(back, series);
  EXPECT_FALSE(readers.wrong());
}

// Appends, background seals and Flushes racing queries. Each reader round
// loads one snapshot and checks, against the reference, a multi-range
// DecompressRanges and a RangeSum over a run that ends at the snapshot's
// end — so it straddles the tail, the chunks still sealing and the sealed
// shards, including a tail just cut into a pending chunk — plus a
// store-level AccessBatch of probes near that end and anywhere below it.
TEST(NeatsStore, ConcurrentQueriesMatchReferenceAcrossCuts) {
  io::FaultFs disk;
  NeatsStoreOptions options;
  options.shard_size = 1000;
  options.seal_threads = 3;
  options.fs = &disk;
  options.log_sink = obs::NullLogSink();
  NeatsStore store = NeatsStore::CreateDir("/race", options);
  const std::vector<int64_t> series = MixedSeries(24000, 41);
  std::vector<int64_t> prefix(series.size() + 1, 0);
  for (size_t i = 0; i < series.size(); ++i) {
    prefix[i + 1] = prefix[i] + series[i];
  }

  std::atomic<bool> stop{false}, wrong{false};
  std::atomic<uint64_t> rounds{0};
  std::vector<std::thread> readers;
  for (uint64_t t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937_64 rng(100 + t);
      std::vector<uint64_t> idx(32);
      std::vector<int64_t> out(idx.size()), got;
      while (!stop.load(std::memory_order_acquire)) {
        const auto snap = store.snapshot();
        const uint64_t size = snap->size();
        if (size < 2) continue;
        const uint64_t run = 1 + rng() % std::min<uint64_t>(size, 2500);
        const uint64_t mid = rng() % size;
        const IndexRange ranges[] = {{size - run, run},
                                     {mid, 1 + rng() % (size - mid)}};
        got.assign(ranges[0].len + ranges[1].len, 0);
        snap->DecompressRanges(ranges, got.data());
        bool ok = std::equal(got.begin(), got.begin() + run,
                             series.begin() + (size - run)) &&
                  std::equal(got.begin() + run, got.end(),
                             series.begin() + mid);
        ok &= snap->RangeSum(size - run, run) ==
              prefix[size] - prefix[size - run];
        for (size_t k = 0; k < idx.size(); ++k) {
          idx[k] = k % 2 == 0 ? size - 1 - rng() % run : rng() % size;
        }
        store.AccessBatch(idx, out);
        for (size_t k = 0; k < idx.size(); ++k) ok &= out[k] == series[idx[k]];
        if (!ok) wrong.store(true);
        rounds.fetch_add(1);
      }
    });
  }
  struct Join {  // stops the readers even if an assert returns
    std::atomic<bool>& stop;
    std::vector<std::thread>& threads;
    ~Join() {
      stop.store(true, std::memory_order_release);
      for (std::thread& t : threads) t.join();
    }
  } join{stop, readers};

  std::mt19937_64 rng(7);
  size_t at = 0;
  for (int step = 1; at < series.size(); ++step) {
    const size_t n = std::min<size_t>(1 + rng() % 1500, series.size() - at);
    store.Append({series.data() + at, n});
    at += n;
    if (step % 9 == 0) store.Flush();
  }
  store.Flush();
  const uint64_t target = rounds.load() + 50;
  while (rounds.load() < target) std::this_thread::yield();
  EXPECT_FALSE(wrong.load());
  EXPECT_EQ(store.num_pending_seals(), 0u);
  std::vector<int64_t> back(series.size());
  store.DecompressRange(0, back.size(), back.data());
  EXPECT_EQ(back, series);
}

// ---------------------------------------------------------------------------
// Manifest unit coverage.
// ---------------------------------------------------------------------------

TEST(StoreManifest, RoundTripAndValidation) {
  StoreManifest m;
  m.shard_size = 4096;
  m.shards = {{0, 4096, 1000, CodecId::kNeats, 0xDEADBEEF},
              {4096, 4096, 900, CodecId::kGorilla, 0},
              {8192, 77, 500, CodecId::kLeco, 0xFFFFFFFF}};
  std::vector<uint8_t> bytes;
  m.Serialize(&bytes);
  StoreManifest back = StoreManifest::Deserialize(bytes);
  std::vector<uint8_t> again;
  back.Serialize(&again);
  EXPECT_EQ(again, bytes);  // canonical: a written manifest re-serializes
  EXPECT_EQ(back.shard_size, m.shard_size);
  ASSERT_EQ(back.shards.size(), m.shards.size());
  for (size_t i = 0; i < m.shards.size(); ++i) {
    EXPECT_EQ(back.shards[i].first, m.shards[i].first);
    EXPECT_EQ(back.shards[i].count, m.shards[i].count);
    EXPECT_EQ(back.shards[i].blob_bytes, m.shards[i].blob_bytes);
    EXPECT_EQ(back.shards[i].codec, m.shards[i].codec);
    EXPECT_EQ(back.shards[i].crc, m.shards[i].crc);
  }
  EXPECT_EQ(back.total(), 8192u + 77u);

  // Non-contiguous coverage is rejected.
  StoreManifest holey = m;
  holey.shards[1].first = 5000;
  std::vector<uint8_t> bad;
  holey.Serialize(&bad);
  EXPECT_NEATS_ERROR(StoreManifest::Deserialize(bad), "corrupt");

  // An unassigned codec id is rejected.
  StoreManifest alien = m;
  alien.shards[1].codec = static_cast<CodecId>(kNumCodecIds + 7);
  std::vector<uint8_t> bad_codec;
  alien.Serialize(&bad_codec);
  EXPECT_NEATS_ERROR(StoreManifest::Deserialize(bad_codec), "corrupt");
}


// ---------------------------------------------------------------------------
// Codec-pluggable shards: fixed non-NeaTS codecs, the auto seal policy,
// the current-version-only readers, and the durability/prefetch
// satellites.
// ---------------------------------------------------------------------------

// Every registered codec can serve a whole store: append -> seal -> flush ->
// reopen, with queries fuzzed against raw ground truth across shard
// boundaries.
TEST(NeatsStoreCodecs, FixedCodecStoresRoundTripAllCodecs) {
  std::vector<int64_t> values = MixedSeries(12000, 17);
  for (CodecId id : CodecRegistry::All()) {
    std::string dir = TempStoreDir(CodecName(id));
    {
      NeatsStoreOptions options;
      options.shard_size = 5000;
      options.seal_threads = 2;
      options.codec = id;
      NeatsStore store = NeatsStore::CreateDir(dir, options);
      store.Append(values);
      store.Flush();
      ASSERT_EQ(store.num_shards(), 3u);
      for (size_t s = 0; s < store.num_shards(); ++s) {
        EXPECT_EQ(store.shard_codec(s), id);
      }
    }
    NeatsStore reopened = NeatsStore::OpenDir(dir);
    ASSERT_EQ(reopened.size(), values.size()) << CodecName(id);
    std::mt19937_64 rng(18);
    for (int trial = 0; trial < 8; ++trial) {
      size_t count = 1 + rng() % 200;
      std::vector<uint64_t> idx(count);
      for (auto& k : idx) k = rng() % values.size();
      std::vector<int64_t> out(count);
      reopened.AccessBatch(idx, out);
      for (size_t j = 0; j < count; ++j) {
        ASSERT_EQ(out[j], values[idx[j]]) << CodecName(id);
      }
      uint64_t from = rng() % (values.size() - 100);
      uint64_t len = 1 + rng() % std::min<uint64_t>(
                              6000, values.size() - from);
      std::vector<int64_t> got(len);
      reopened.DecompressRange(from, len, got.data());
      for (uint64_t j = 0; j < len; ++j) {
        ASSERT_EQ(got[j], values[from + j]) << CodecName(id);
      }
    }
    // The manifest records the codec per shard.
    StoreManifest manifest = StoreManifest::Deserialize(
        ReadFile(dir + "/" + StoreManifest::FileName()));
    for (const StoreManifest::Shard& row : manifest.shards) {
      EXPECT_EQ(row.codec, id);
    }
    std::filesystem::remove_all(dir);
  }
}

// A series whose regimes favour different codecs: a smooth quadratic arc
// (NeaTS stores it as a handful of functions) followed by short runs of
// random 60-bit levels (Gorilla pays one bit per repeat; NeaTS pays two
// 64-bit parameters per run).
std::vector<int64_t> CodecContrastSeries(size_t arc_n, size_t step_n,
                                         uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<int64_t> values;
  values.reserve(arc_n + step_n);
  for (size_t i = 0; i < arc_n; ++i) {
    double x = static_cast<double>(i);
    values.push_back(1000 + static_cast<int64_t>(0.3 * x + 0.0004 * x * x));
  }
  int64_t level = 0;
  for (size_t i = 0; i < step_n; ++i) {
    if (i % 40 == 0) {
      level = static_cast<int64_t>(rng() & ((uint64_t{1} << 60) - 1));
    }
    values.push_back(level);
  }
  return values;
}

TEST(NeatsStoreCodecs, AutoSealPolicyPicksDistinctCodecsAndRoundTrips) {
  const size_t kShard = 6000;
  std::vector<int64_t> values = CodecContrastSeries(kShard, 2 * kShard, 19);
  std::string dir = TempStoreDir("auto");
  {
    NeatsStoreOptions options;
    options.shard_size = kShard;
    options.seal_threads = 2;
    options.seal_policy = SealPolicy::kAuto;
    options.codec_candidates = {CodecId::kNeats, CodecId::kGorilla,
                                CodecId::kChimp};
    NeatsStore store = NeatsStore::CreateDir(dir, options);
    // Ragged appends, mid-ingest queries against all tiers.
    size_t at = 0;
    const size_t slices[] = {1763, 4099, 811, 2973};
    size_t sl = 0;
    while (at < values.size()) {
      size_t n = std::min(slices[sl++ % 4], values.size() - at);
      store.Append({values.data() + at, n});
      at += n;
      ASSERT_EQ(store.Access(at - 1), values[at - 1]);
    }
    store.Flush();
    ASSERT_EQ(store.num_shards(), 3u);
    // The arc shard compresses best with NeaTS, the step shards with an
    // XOR codec — the auto policy must have mixed codecs in one store.
    EXPECT_EQ(store.shard_codec(0), CodecId::kNeats);
    EXPECT_NE(store.shard_codec(1), CodecId::kNeats);
    std::set<CodecId> distinct;
    for (size_t s = 0; s < store.num_shards(); ++s) {
      distinct.insert(store.shard_codec(s));
    }
    EXPECT_GE(distinct.size(), 2u);
  }

  // Manifest v2 records the mixed codec ids; reopen serves bit-identical
  // values through every query shape.
  StoreManifest manifest = StoreManifest::Deserialize(
      ReadFile(dir + "/" + StoreManifest::FileName()));
  ASSERT_EQ(manifest.shards.size(), 3u);
  EXPECT_EQ(manifest.shards[0].codec, CodecId::kNeats);
  EXPECT_NE(manifest.shards[1].codec, CodecId::kNeats);

  NeatsStore reopened = NeatsStore::OpenDir(dir);
  ASSERT_EQ(reopened.size(), values.size());
  for (size_t k = 0; k < values.size(); k += 37) {
    ASSERT_EQ(reopened.Access(k), values[k]) << k;
  }
  std::mt19937_64 rng(20);
  for (int trial = 0; trial < 20; ++trial) {
    size_t count = 1 + rng() % 500;
    std::vector<uint64_t> idx(count);
    for (auto& k : idx) k = rng() % values.size();
    std::vector<int64_t> out(count);
    reopened.AccessBatch(idx, out);
    for (size_t j = 0; j < count; ++j) {
      ASSERT_EQ(out[j], values[idx[j]]);
    }
    std::vector<IndexRange> ranges;
    size_t total = 0;
    for (int r = 0; r < 5; ++r) {
      uint64_t from = rng() % values.size();
      uint64_t len = rng() % std::min<uint64_t>(8000, values.size() - from);
      ranges.push_back({from, len});
      total += len;
    }
    std::vector<int64_t> got(total);
    reopened.DecompressRanges(ranges, got.data());
    size_t off = 0;
    for (const IndexRange& r : ranges) {
      for (uint64_t j = 0; j < r.len; ++j) {
        ASSERT_EQ(got[off + j], values[r.from + j]);
      }
      off += r.len;
    }
  }
  std::filesystem::remove_all(dir);
}

// The manifest persists per-shard geometry and codec ids, not the seal
// policy — a caller reopening with kAuto options keeps choosing codecs per
// shard, and one reopening with defaults seals kFixed/kNeats.
TEST(NeatsStoreCodecs, SealPolicyComesFromOpenOptionsAfterReopen) {
  const size_t kShard = 6000;
  std::vector<int64_t> values = CodecContrastSeries(kShard, kShard, 25);
  std::string dir = TempStoreDir("reopen_policy");
  NeatsStoreOptions options;
  options.shard_size = kShard;
  options.seal_policy = SealPolicy::kAuto;
  options.codec_candidates = {CodecId::kNeats, CodecId::kGorilla};
  {
    NeatsStore store = NeatsStore::CreateDir(dir, options);
    store.Append(values);
    store.Flush();
    ASSERT_EQ(store.num_shards(), 2u);
    ASSERT_NE(store.shard_codec(1), CodecId::kNeats);  // the step shard
  }
  // Reopen with the same options: appending another step shard must again
  // go through the auto policy and pick the XOR codec.
  {
    NeatsStore store = NeatsStore::OpenDir(dir, options);
    std::vector<int64_t> more(values.begin() + static_cast<ptrdiff_t>(kShard),
                              values.end());
    store.Append(more);
    store.Flush();
    ASSERT_EQ(store.num_shards(), 3u);
    EXPECT_NE(store.shard_codec(2), CodecId::kNeats);
    for (size_t k = 0; k < more.size(); k += 101) {
      ASSERT_EQ(store.Access(values.size() + k), more[k]);
    }
  }
  // Reopen with default options: the policy is NOT persisted, so the next
  // sealed shard is kFixed/kNeats — the documented contract.
  {
    NeatsStore store = NeatsStore::OpenDir(dir);
    store.Append({values.data(), kShard});
    store.Flush();
    ASSERT_EQ(store.num_shards(), 4u);
    EXPECT_EQ(store.shard_codec(3), CodecId::kNeats);
  }
  std::filesystem::remove_all(dir);
}

// Exact range sums hold across mixed-codec boundaries, with the
// not-yet-sealed tiers contributing their raw values.
TEST(NeatsStoreCodecs, AggregatesAcrossMixedCodecShards) {
  // Bounded contrast series: a quadratic arc shard (NeaTS wins) followed by
  // step shards of 40-value runs at random 17-bit levels (Gorilla wins).
  std::mt19937_64 gen(21);
  std::vector<int64_t> values;
  for (size_t i = 0; i < 6000; ++i) {
    double x = static_cast<double>(i);
    values.push_back(1000 + static_cast<int64_t>(0.3 * x + 0.0004 * x * x));
  }
  int64_t level = 0;
  while (values.size() < 18000) {
    if (values.size() % 40 == 0) {
      level = static_cast<int64_t>(gen() & 0x1FFFF);
    }
    values.push_back(level);
  }
  NeatsStoreOptions options;
  options.shard_size = 6000;
  options.seal_threads = 2;
  options.seal_policy = SealPolicy::kAuto;
  options.codec_candidates = {CodecId::kNeats, CodecId::kGorilla};
  NeatsStore store(options);
  store.Append({values.data(), 13000});
  store.Flush();  // two sealed shards (arc -> NeaTS, steps -> Gorilla)
  store.Append({values.data() + 13000, values.size() - 13000});
  // Mid-ingest: one pending/sealing chunk plus a raw tail remain.
  ASSERT_EQ(store.size(), values.size());
  std::set<CodecId> distinct;
  for (size_t sh = 0; sh < store.num_shards(); ++sh) {
    distinct.insert(store.shard_codec(sh));
  }
  EXPECT_GE(distinct.size(), 2u);

  std::vector<int64_t> prefix(values.size() + 1, 0);
  for (size_t i = 0; i < values.size(); ++i) {
    prefix[i + 1] = prefix[i] + values[i];
  }
  std::mt19937_64 rng(22);
  for (int t = 0; t < 25; ++t) {
    uint64_t from = rng() % values.size();
    uint64_t len = rng() % std::min<uint64_t>(9000, values.size() - from);
    ASSERT_EQ(store.RangeSum(from, len), prefix[from + len] - prefix[from]);
  }
  ASSERT_EQ(store.RangeSum(0, values.size()), prefix[values.size()]);
}

// Only manifest version 3 with a flagged CRC word in every row opens. The
// retired layouts — v1 (three words per row: no codec id, no checksum), v2
// (four words: no checksum), neither with a trailer — and a v3 manifest
// whose row has its CRC flag cleared (trailer refreshed, so only the row
// check can catch it) are each rejected by Deserialize and by OpenStoreDir
// with a failed Status, never a crash.
TEST(NeatsStoreCodecs, RejectsOldAndUnflaggedManifests) {
  std::vector<int64_t> values = CodecContrastSeries(4000, 8000, 27);
  std::string dir = TempStoreDir("old_manifest");
  {
    NeatsStoreOptions options;
    options.shard_size = 4000;
    NeatsStore store = NeatsStore::CreateDir(dir, options);
    store.Append(values);
    store.Flush();
  }
  const std::string manifest_path = dir + "/" + StoreManifest::FileName();
  const std::vector<uint8_t> good = ReadFile(manifest_path);
  const StoreManifest parsed = StoreManifest::Deserialize(good);
  ASSERT_EQ(parsed.shards.size(), 3u);
  uint64_t magic;
  std::memcpy(&magic, good.data(), 8);

  auto legacy = [&](uint64_t version) {
    std::vector<uint8_t> bytes;
    WordWriter w(&bytes);
    w.Put(magic);
    w.Put(version);
    w.Put(parsed.shard_size);
    w.Put(parsed.shards.size());
    for (const StoreManifest::Shard& row : parsed.shards) {
      w.Put(row.first);
      w.Put(row.count);
      w.Put(row.blob_bytes);
      if (version == 2) w.Put(static_cast<uint64_t>(row.codec));
    }
    return bytes;
  };
  // Row 1's CRC word sits after the four header words, one five-word row
  // and four words of its own row.
  std::vector<uint8_t> unflagged(good.begin(),
                                 good.end() - kChecksumTrailerBytes);
  const size_t crc_word = 8 * (4 + 5 + 4);
  uint64_t word;
  std::memcpy(&word, unflagged.data() + crc_word, 8);
  ASSERT_EQ(word >> 32, 1u);
  word &= 0xFFFFFFFFu;
  std::memcpy(unflagged.data() + crc_word, &word, 8);
  AppendChecksumTrailer(&unflagged);

  const std::pair<const char*, std::vector<uint8_t>> cases[] = {
      {"unsupported NeaTS store manifest version", legacy(1)},
      {"unsupported NeaTS store manifest version", legacy(2)},
      {"corrupt NeaTS store manifest", unflagged}};
  for (const auto& [message, bytes] : cases) {
    SCOPED_TRACE(message);
    EXPECT_NEATS_ERROR(StoreManifest::Deserialize(bytes), message);
    WriteFile(manifest_path, bytes);
    Result<NeatsStore> store = OpenStoreDir(dir);
    ASSERT_FALSE(store.ok());
    EXPECT_NE(store.status().message().find(message), std::string::npos)
        << store.status().message();
  }

  // The untouched manifest still opens every shard.
  WriteFile(manifest_path, good);
  NeatsStore reopened = NeatsStore::OpenDir(dir);
  EXPECT_FALSE(reopened.degraded());
  for (size_t k = 0; k < values.size(); k += 311) {
    ASSERT_EQ(reopened.Access(k), values[k]) << k;
  }
  std::filesystem::remove_all(dir);
}

// A version-1 ALP shard (the retired layout without the vector-offset
// index) behind a refreshed checksum trailer and manifest row passes the
// checksum check but not the codec: OpenDir quarantines it with the version
// message, reads into it fail with kUnavailable, and the healthy shards
// keep serving.
TEST(NeatsStoreCodecs, QuarantinesVersion1AlpShard) {
  const std::vector<int64_t> values = MixedSeries(12000, 45);
  const std::string dir = TempStoreDir("alp_v1");
  {
    NeatsStoreOptions options;
    options.shard_size = 4000;
    options.codec = CodecId::kAlp;
    NeatsStore store = NeatsStore::CreateDir(dir, options);
    store.Append(values);
    store.Flush();
  }
  const std::string shard0 = dir + "/" + StoreManifest::ShardFileName(0);
  const std::vector<uint8_t> file = ReadFile(shard0);
  const TrailerInfo trailer = CheckChecksumTrailer(file);
  ASSERT_EQ(trailer.state, TrailerState::kValid);
  // Drop the index section (vector count + one offset per vector) and
  // stamp version 1.
  const size_t index_bytes = 8 * (1 + CeilDiv(4000, Alp::kVector));
  std::vector<uint8_t> v1(trailer.payload.begin(),
                          trailer.payload.end() - index_bytes);
  const uint64_t version = 1;
  std::memcpy(v1.data() + 8, &version, 8);
  const uint64_t v1_bytes = v1.size();
  const uint32_t crc = AppendChecksumTrailer(&v1);
  WriteFile(shard0, v1);
  const std::string manifest_path = dir + "/" + StoreManifest::FileName();
  StoreManifest manifest = StoreManifest::Deserialize(ReadFile(manifest_path));
  manifest.shards[0].blob_bytes = v1_bytes;
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
  EXPECT_NE(report.quarantined[0].error.find("unsupported ALP format version"),
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

// Codec id 1 (NeaTS-LX) is retired. A CRC-valid manifest row naming it
// still parses, so OpenDir opens the store and quarantines that shard with a
// typed error: reads into it fail with kUnavailable and the other shards
// answer. Scrub leaves it quarantined even when the WAL still covers its
// values, since no codec can re-seal it under its manifest id.
TEST(NeatsStoreCodecs, QuarantinesRetiredCodecIdShard) {
  const std::vector<int64_t> values = MixedSeries(12000, 47);
  const std::string dir = TempStoreDir("retired_id");
  const std::string manifest_path = dir + "/" + StoreManifest::FileName();
  const CodecId retired = static_cast<CodecId>(kRetiredCodecId);
  auto retire = [&](size_t row) {
    StoreManifest manifest =
        StoreManifest::Deserialize(ReadFile(manifest_path));
    manifest.shards[row].codec = retired;
    std::vector<uint8_t> bytes;
    manifest.Serialize(&bytes);  // re-CRC'd: only the codec id is wrong
    WriteFile(manifest_path, bytes);
  };
  NeatsStoreOptions options;
  options.shard_size = 4000;
  {
    NeatsStore store = NeatsStore::CreateDir(dir, options);
    store.Append({values.data(), 4000});
    store.Flush();
  }
  retire(0);
  {
    // Degraded, so Flush keeps the WAL records of shards 1 and 2.
    NeatsStore store = NeatsStore::OpenDir(dir, options);
    ASSERT_TRUE(store.degraded());
    store.Append({values.data() + 4000, 8000});
    store.Flush();
  }
  retire(1);
  ASSERT_EQ(StoreManifest::Deserialize(ReadFile(manifest_path)).shards[1].codec,
            retired);

  Result<NeatsStore> store = OpenStoreDir(dir);
  ASSERT_TRUE(store.ok()) << store.status().message();
  EXPECT_TRUE(store->degraded());
  const NeatsStore::RepairReport& report = store->recovery_report();
  ASSERT_EQ(report.quarantined.size(), 2u);
  for (size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(report.quarantined[s].shard, s);
    EXPECT_EQ(report.quarantined[s].codec, retired);
    EXPECT_NE(report.quarantined[s].error.find("retired codec id"),
              std::string::npos)
        << report.quarantined[s].error;
    EXPECT_EQ(store->shard_codec(s), retired);
  }
  for (uint64_t k : {uint64_t{0}, uint64_t{4000}, uint64_t{7999}}) {
    Result<int64_t> read = Checked([&] { return store->Access(k); });
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), StatusCode::kUnavailable);
  }
  Result<int64_t> sum = Checked([&] { return store->RangeSum(7000, 2000); });
  ASSERT_FALSE(sum.ok());
  EXPECT_EQ(sum.status().code(), StatusCode::kUnavailable);
  for (size_t k = 8000; k < values.size(); k += 37) {
    ASSERT_EQ(store->Access(k), values[k]) << k;
  }
  int64_t tail_sum = 0;
  for (size_t k = 8000; k < values.size(); ++k) tail_sum += values[k];
  EXPECT_EQ(store->RangeSum(8000, 4000), tail_sum);

  const NeatsStore::RepairReport& scrubbed = store->Scrub();
  ASSERT_EQ(scrubbed.quarantined.size(), 2u);
  EXPECT_EQ(scrubbed.quarantined[1].shard, 1u);
  EXPECT_TRUE(scrubbed.repaired.empty());
  EXPECT_EQ(store->shard_codec(1), retired);
  std::filesystem::remove_all(dir);
}

// A store cannot be configured to seal with the retired id, and its metrics
// name one seal.codec counter per registered codec and none for id 1.
TEST(NeatsStoreCodecs, RetiredCodecIdIsRejectedAtConstruction) {
  const CodecId retired = static_cast<CodecId>(kRetiredCodecId);
  NeatsStoreOptions fixed;
  fixed.codec = retired;
  EXPECT_NEATS_ERROR(NeatsStore{fixed}, "retired codec id");
  NeatsStoreOptions candidates;
  candidates.seal_policy = SealPolicy::kAuto;
  candidates.codec_candidates = {retired};
  EXPECT_NEATS_ERROR(NeatsStore{candidates}, "retired codec id");

  NeatsStoreOptions options;
  options.shard_size = 4000;
  options.seal_policy = SealPolicy::kAuto;
  NeatsStore store(options);
  store.Append(MixedSeries(12000, 49));
  store.Flush();
  const obs::MetricsSnapshot snap = store.StatsSnapshot();
  uint64_t sealed = 0;
  for (CodecId id : CodecRegistry::All()) {
    const uint64_t* count =
        snap.counter(std::string("seal.codec.") + CodecName(id));
    ASSERT_NE(count, nullptr) << CodecName(id);
    sealed += *count;
  }
  EXPECT_EQ(sealed, *snap.counter("seal.count"));
  EXPECT_EQ(snap.counter("seal.codec.neats-lossy-exact"), nullptr);
  size_t rows = 0;
  for (const auto& [name, value] : snap.counters) {
    rows += name.starts_with("seal.codec.");
  }
  EXPECT_EQ(rows, CodecRegistry::All().size());
}

// Durability satellite: the fsync'd write path round-trips bytes exactly
// (behavioural fsync coverage needs power-loss injection; this pins the
// plumbing) and the prefetch satellite: every Advise hint is accepted on a
// real mapping.
TEST(NeatsStoreCodecs, DurableWriteAndAdviseSmoke) {
  std::string dir = TempStoreDir("durable");
  std::filesystem::create_directories(dir);
  std::vector<uint8_t> payload(12345);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 131);
  }
  WriteFileDurable(dir + "/blob", payload);
  SyncDir(dir);
  EXPECT_EQ(ReadFile(dir + "/blob"), payload);
  // Overwrite must truncate, not append.
  std::vector<uint8_t> shorter(100, 0x5A);
  WriteFileDurable(dir + "/blob", shorter);
  EXPECT_EQ(ReadFile(dir + "/blob"), shorter);

  MmapFile map = MmapFile::Open(dir + "/blob");
  map.Advise(MmapFile::Advice::kWillNeed);
  map.Advise(MmapFile::Advice::kSequential);
  map.Advise(MmapFile::Advice::kRandom);
  map.Advise(MmapFile::Advice::kNormal);
  EXPECT_EQ(map.size(), shorter.size());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace neats
