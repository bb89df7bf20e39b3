// Machine-readable performance report: emits BENCH_neats.json with the four
// numbers every perf PR is judged against — compression MB/s (single-thread
// and, when the build supports it, multi-threaded chunked mode), random
// access ns/op, full-scan decompression MB/s, and bits per value — measured
// on a spread of the synthetic dataset generators. Schema 5 adds a nested
// per-codec table per dataset (bits_per_value + random_access_ns for every
// registered SeriesCodec), measured through the same type-erased registry
// API the store serves shards with — the paper's comparison columns from
// one uniform surface. Schema 6 extends each codec entry with the batched
// access column (sorted 512-probe blocks through the sealed AccessBatch
// kernel, asserted bit-identical to the raw values — the Release bench
// smoke run doubles as a correctness gate) and the store-served scalar
// column with its decoded-block cache hit rate. Schema 7 adds the
// "scenarios" section: the scenario engine's built-in suite (seeded
// production-workload shapes against a live NeatsStore, every read
// verified) reporting p50/p99/p999 latency per op kind per scenario.
// Schema 8 adds the observability layer's own numbers: a "store_metrics"
// block (the StatsSnapshot of an instrumented store driven through a fixed
// mixed workload — op counters plus per-op latency percentiles as the store
// itself measured them) and a "metrics_overhead" block from a paired
// metrics-on vs metrics-off store timing the NeaTS scalar access path; the
// run aborts if the median overhead ratio exceeds 1.03, so the Release
// bench smoke doubles as the instrumentation-cost gate. Schema 10 drops
// the legacy-path access and cache-line columns: format v4 keeps no
// pre-directory metadata path to time.
//
//   $ ./build/bench_bench_report [output.json]
//
// Environment: NEATS_BENCH_N caps dataset sizes (default 120000, 0 = full);
// NEATS_BENCH_SCENARIO_SCALE scales the scenario workloads (default 1,
// 0 skips the section); NEATS_BENCH_SERVER points at a neats_loadgen --out
// report to embed as the schema-9 "server" block (absent → {}).

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.hpp"
#include "core/neats.hpp"
#include "datasets/generators.hpp"
#include "harness.hpp"
#include "io/mmap_file.hpp"
#include "io/text_io.hpp"
#include "succinct/bit_vector.hpp"
#include "succinct/elias_fano.hpp"

// The store layer arrived with schema 4; guarded so this source still
// compiles against earlier builds for paired before/after runs.
#if __has_include("store/neats_store.hpp")
#include "store/neats_store.hpp"
#define NEATS_BENCH_HAS_STORE 1
#else
#define NEATS_BENCH_HAS_STORE 0
#endif

// The codec registry (and the public facade) arrived with schema 5; same
// paired-build guard.
#if __has_include("neats/neats.hpp")
#include "neats/neats.hpp"
#define NEATS_BENCH_HAS_CODECS 1
#else
#define NEATS_BENCH_HAS_CODECS 0
#endif

// The scenario engine arrived with schema 7; same paired-build guard.
#if __has_include("scenario/scenarios.hpp")
#include <sstream>

#include "scenario/scenarios.hpp"
#define NEATS_BENCH_HAS_SCENARIOS 1
#else
#define NEATS_BENCH_HAS_SCENARIOS 0
#endif

// The observability layer arrived with schema 8; same paired-build guard.
#if __has_include("obs/metrics.hpp") && NEATS_BENCH_HAS_STORE
#include "obs/stats_json.hpp"
#define NEATS_BENCH_HAS_OBS 1
#else
#define NEATS_BENCH_HAS_OBS 0
#endif

namespace neats::bench {
namespace {

// Compiled against a build without the scaling knobs (the seed), the report
// simply omits the multi-threaded columns; this keeps the binary usable for
// before/after comparisons across the feature boundary.
template <typename O>
constexpr bool kHasScalingKnobs = requires(O o) {
  o.num_threads;
  o.chunk_size;
};

struct Row {
  std::string code;
  size_t n = 0;
  double bits_per_value = 0;
  double compress_mbps_1t = 0;         // single-thread, global partition
  double compress_mbps_1t_chunked = 0; // chunked mode, 1 thread (0 if absent)
  double compress_mbps_4t_chunked = 0; // chunked mode, 4 threads (0 if absent)
  double scan_mbps = 0;                // full decompression
  double cursor_scan_mbps = 0;         // cursor chunked scan (0 if absent)
  double access_ns = 0;                // random single-value access
  double access_ns_mmap = 0;           // same, against a zero-copy mmap view
  double range_sum_mbps = 0;           // 1000-value exact range sums
  double select1_ns = 0;               // RankSelect::Select1 microbenchmark
  double ef_rank_ns = 0;               // EliasFano::Rank microbenchmark
  double dir_lines_touched = 0;        // avg distinct cache lines per access
                                       // (directory path; 0 when the
                                       // bench_dir_lines sibling is absent)
  double batch_access_ns_b8 = 0;       // AccessBatch ns/probe, sorted
  double batch_access_ns_b64 = 0;      // batches of 8 / 64 / 512 probes
  double batch_access_ns_b512 = 0;     // (0 if the build lacks the kernel)
  double store_append_mbps = 0;        // NeatsStore streaming append +
                                       // Flush, end to end (0 if absent)

  /// One entry per registered SeriesCodec (schema 5): serialized bits per
  /// value and scalar random-access ns through the type-erased registry.
  /// Schema 6 adds the sorted-512-probe batch kernel, the store-served
  /// scalar path (decoded-block cache in front of block codecs) and that
  /// cache's hit rate over the measured probes (0 for non-block codecs).
  struct CodecRow {
    std::string name;
    double bits_per_value = 0;
    double random_access_ns = 0;
    double batch_access_ns_b512 = 0;  // 0 if the build lacks the kernel
    double store_access_ns = 0;       // 0 if the build lacks the store
    double cache_hit_rate = 0;
  };
  std::vector<CodecRow> codecs;
};

double RawMegabytes(size_t n) {
  return static_cast<double>(n) * 8.0 / (1024.0 * 1024.0);
}

/// Times `op` (which processes the full series once) until ~min_seconds
/// elapse and returns MB/s over the raw 64-bit series size.
template <typename Op>
double ThroughputMBps(size_t n, Op&& op, double min_seconds = 0.3) {
  op();  // warm-up
  Timer timer;
  size_t reps = 0;
  do {
    op();
    ++reps;
  } while (timer.ElapsedSeconds() < min_seconds);
  return RawMegabytes(n) * static_cast<double>(reps) / timer.ElapsedSeconds();
}

// Template so that the knob accesses are dependent names: against a seed
// build without them the branch is discarded instead of failing to compile.
template <typename Options>
void MeasureChunked(const Dataset& ds, double mb, Row* row) {
  if constexpr (kHasScalingKnobs<Options>) {
    Options chunked;
    // Scale the block size to the series so chunked mode is genuinely
    // exercised on small datasets; if even that would fall back to the
    // global partition (chunk_size >= n), leave the columns at 0 rather
    // than mislabel global-partition throughput as chunked.
    chunked.chunk_size = std::min<uint64_t>(
        16384, std::max<uint64_t>(256, ds.values.size() / 4));
    if (chunked.chunk_size >= ds.values.size()) return;
    chunked.num_threads = 1;
    Timer timer;
    Neats c1 = Neats::Compress(ds.values, chunked);
    row->compress_mbps_1t_chunked = mb / timer.ElapsedSeconds();
    chunked.num_threads = 4;
    timer.Reset();
    Neats c4 = Neats::Compress(ds.values, chunked);
    row->compress_mbps_4t_chunked = mb / timer.ElapsedSeconds();
  } else {
    (void)ds;
    (void)mb;
    (void)row;
  }
}

/// ns/op of `op` over the 4096-probe index list `idx`.
template <typename Op>
double AccessNs(const std::vector<uint64_t>& idx, Op&& op) {
  uint64_t sink = 0;
  double ops = OpsPerSecond([&](size_t rep) {
    uint64_t s = 0;
    for (uint64_t i : idx) s += op(i);
    sink += s + rep;
    return s;
  });
  if (sink == 0xDEADBEEFCAFEBABEULL) std::fprintf(stderr, "!");
  return 1e9 / (ops * static_cast<double>(idx.size()));
}

// Template guard: against builds without the v2 format there is no View and
// the mmap column stays 0.
template <typename N>
void MeasureMmapAccess(const N& compressed, const std::vector<uint64_t>& idx,
                       Row* row) {
  if constexpr (requires(std::span<const uint8_t> b) { N::View(b); }) {
    std::vector<uint8_t> blob;
    compressed.Serialize(&blob);
    // Timestamp-suffixed so concurrent bench runs cannot clobber each
    // other's mapped file.
    std::string tag = std::to_string(static_cast<unsigned long long>(
        std::chrono::steady_clock::now().time_since_epoch().count()));
    std::string path = (std::filesystem::temp_directory_path() /
                        ("neats_bench_" + row->code + "_" + tag + ".v2"))
                           .string();
    WriteFile(path, blob);
    MmapFile map = MmapFile::Open(path);
    N view = N::View(map.bytes());
    row->access_ns_mmap = AccessNs(
        idx, [&](uint64_t i) { return static_cast<uint64_t>(view.Access(i)); });
    std::filesystem::remove(path);
  } else {
    (void)compressed;
    (void)idx;
    (void)row;
  }
}

/// Succinct-substrate microbenchmarks tied to the access path: Select1 on a
/// half-density bitvector of n bits, and Elias-Fano rank over an n/32-element
/// monotone sequence (the shape of the S fragment-starts array).
void MeasureSelectMicro(size_t n, uint64_t seed, Row* row) {
  std::mt19937_64 rng(seed);
  BitVector bv(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng() & 1) bv.Set(i);
  }
  RankSelect rs{std::move(bv)};
  std::vector<uint64_t> probes(1 << 12);
  for (auto& p : probes) p = rng() % rs.ones();
  row->select1_ns =
      AccessNs(probes, [&](uint64_t k) { return static_cast<uint64_t>(rs.Select1(k)); });

  std::vector<uint64_t> values(std::max<size_t>(1, n / 32));
  uint64_t cur = 0;
  for (auto& v : values) {
    cur += rng() % 64;
    v = cur;
  }
  EliasFano ef(values);
  for (auto& p : probes) p = rng() % (values.back() + 1);
  row->ef_rank_ns =
      AccessNs(probes, [&](uint64_t x) { return static_cast<uint64_t>(ef.Rank(x)); });
}

// The batch-access columns: the same 4096 probes as the scalar access
// column, pre-sorted within consecutive blocks of B, served through the
// fragment-grouped AccessBatch kernel — ns per probe, directly comparable
// to access_ns. Guarded so pre-batch builds keep the columns at 0.
template <typename N>
void MeasureBatchAccess(const N& compressed, const std::vector<uint64_t>& idx,
                        Row* row) {
  if constexpr (requires(const N& n) {
                  n.AccessBatch(std::span<const uint64_t>{},
                                static_cast<int64_t*>(nullptr));
                }) {
    const std::pair<size_t, double Row::*> sizes[] = {
        {8, &Row::batch_access_ns_b8},
        {64, &Row::batch_access_ns_b64},
        {512, &Row::batch_access_ns_b512}};
    for (auto [batch, column] : sizes) {
      std::vector<uint64_t> sorted = idx;
      for (size_t at = 0; at < sorted.size(); at += batch) {
        std::sort(sorted.begin() + static_cast<ptrdiff_t>(at),
                  sorted.begin() + static_cast<ptrdiff_t>(
                                       std::min(at + batch, sorted.size())));
      }
      std::vector<int64_t> out(batch);
      uint64_t sink = 0;
      double ops = OpsPerSecond([&](size_t rep) {
        uint64_t s = 0;
        for (size_t at = 0; at < sorted.size(); at += batch) {
          const size_t n = std::min(batch, sorted.size() - at);
          compressed.AccessBatch({sorted.data() + at, n}, out.data());
          s += static_cast<uint64_t>(out[0]) + static_cast<uint64_t>(out[n - 1]);
        }
        sink += s + rep;
        return s;
      });
      if (sink == 0xDEADBEEFCAFEBABEULL) std::fprintf(stderr, "!");
      row->*column = 1e9 / (ops * static_cast<double>(sorted.size()));
    }
  } else {
    (void)compressed;
    (void)idx;
    (void)row;
  }
}

// Paired-build guard: compiled against a store without the decoded-block
// cache, the store columns stay 0.
template <typename O>
constexpr bool kHasBlockCache = requires(O o) { o.block_cache_bytes; };

// The per-codec comparison columns (schema 5/6): every registered codec
// compresses the dataset and serves the same probe set through the
// registry's SealedSeries surface — the uniform API the store queries by.
// bits_per_value is the actual serialized blob size. Schema 6 adds the
// sorted-512-probe batch kernel (with a hard bit-identity check against
// the raw values — the Release bench smoke run is the correctness gate)
// and the store-served scalar path with its decoded-block cache hit rate.
void MeasureCodecTable(const Dataset& ds, const std::vector<uint64_t>& idx,
                       Row* row) {
#if NEATS_BENCH_HAS_CODECS
  for (CodecId id : CodecRegistry::All()) {
    std::unique_ptr<SealedSeries> sealed =
        CodecRegistry::Compress(id, ds.values, {});
    std::vector<uint8_t> blob;
    sealed->Serialize(&blob);
    Row::CodecRow cr;
    cr.name = CodecName(id);
    cr.bits_per_value = 8.0 * static_cast<double>(blob.size()) /
                        static_cast<double>(ds.values.size());
    cr.random_access_ns = AccessNs(idx, [&](uint64_t i) {
      return static_cast<uint64_t>(sealed->Access(i));
    });

    // Batched access through the block-grouped kernels, same probes in
    // sorted blocks of 512 — directly comparable to random_access_ns.
    constexpr size_t kBatch = 512;
    std::vector<uint64_t> sorted = idx;
    for (size_t at = 0; at < sorted.size(); at += kBatch) {
      std::sort(sorted.begin() + static_cast<ptrdiff_t>(at),
                sorted.begin() + static_cast<ptrdiff_t>(
                                     std::min(at + kBatch, sorted.size())));
    }
    std::vector<int64_t> out(kBatch);
    for (size_t at = 0; at < sorted.size(); at += kBatch) {
      const size_t n = std::min(kBatch, sorted.size() - at);
      sealed->AccessBatch({sorted.data() + at, n}, out.data());
      for (size_t j = 0; j < n; ++j) {
        if (out[j] != ds.values[sorted[at + j]]) {
          std::fprintf(stderr,
                       "FATAL: %s batched access diverges from the values "
                       "at probe %" PRIu64 "\n",
                       cr.name.c_str(), sorted[at + j]);
          std::abort();
        }
      }
    }
    uint64_t sink = 0;
    double ops = OpsPerSecond([&](size_t rep) {
      uint64_t s = 0;
      for (size_t at = 0; at < sorted.size(); at += kBatch) {
        const size_t n = std::min(kBatch, sorted.size() - at);
        sealed->AccessBatch({sorted.data() + at, n}, out.data());
        s += static_cast<uint64_t>(out[0]) + static_cast<uint64_t>(out[n - 1]);
      }
      sink += s + rep;
      return s;
    });
    if (sink == 0xDEADBEEFCAFEBABEULL) std::fprintf(stderr, "!");
    cr.batch_access_ns_b512 =
        1e9 / (ops * static_cast<double>(sorted.size()));

    // The store-served scalar path: a fixed-codec store over the dataset,
    // probes warmed once (and checked), then timed — block codecs answer
    // from the decoded-block cache, so this is the cache-hit latency.
#if NEATS_BENCH_HAS_STORE
    if constexpr (kHasBlockCache<NeatsStoreOptions>) {
      NeatsStoreOptions so;
      so.shard_size = std::max<uint64_t>(4096, ds.values.size() / 8);
      so.codec = id;
      NeatsStore store(so);
      store.Append(ds.values);
      store.Flush();
      for (uint64_t i : idx) {
        if (store.Access(i) != ds.values[i]) std::abort();
      }
      cr.store_access_ns = AccessNs(idx, [&](uint64_t i) {
        return static_cast<uint64_t>(store.Access(i));
      });
      const DecodedBlockCache::Stats stats = store.block_cache_stats();
      const uint64_t lookups = stats.hits + stats.misses;
      cr.cache_hit_rate =
          lookups > 0
              ? static_cast<double>(stats.hits) / static_cast<double>(lookups)
              : 0.0;
    }
#endif
    row->codecs.push_back(std::move(cr));
  }
#else
  (void)ds;
  (void)idx;
  (void)row;
#endif
}

// Streaming ingest end to end: append the series in 4096-value slices into
// an in-memory NeatsStore (background sealing on one extra worker) and
// Flush; MB/s over the raw series size. One pass — sealing is
// compression-bound, so repetitions would only average compressor noise.
void MeasureStoreAppend(const Dataset& ds, double mb, Row* row) {
#if NEATS_BENCH_HAS_STORE
  NeatsStoreOptions options;
  options.shard_size = std::max<uint64_t>(4096, ds.values.size() / 8);
  options.seal_threads = 2;
  Timer timer;
  NeatsStore store(options);
  for (size_t at = 0; at < ds.values.size(); at += 4096) {
    const size_t n = std::min<size_t>(4096, ds.values.size() - at);
    store.Append(std::span<const int64_t>(ds.values.data() + at, n));
  }
  store.Flush();
  row->store_append_mbps = mb / timer.ElapsedSeconds();
  if (store.size() != ds.values.size()) std::abort();
#else
  (void)ds;
  (void)mb;
  (void)row;
#endif
}

// Template for the same reason as MeasureChunked: seed builds lack Cursor.
template <typename N>
void MeasureCursorScan(const N& compressed, Row* row) {
  if constexpr (requires { typename N::Cursor; }) {
    row->cursor_scan_mbps = ThroughputMBps(row->n, [&] {
      if (CursorScanChecksum(compressed) == 0xDEADBEEFCAFEBABEULL) {
        std::abort();
      }
    });
  } else {
    (void)compressed;
    (void)row;
  }
}

Row MeasureDataset(const DatasetSpec& spec) {
  Dataset ds = LoadDataset(spec);
  Row row;
  row.code = spec.code;
  row.n = ds.values.size();
  const double mb = RawMegabytes(row.n);

  // --- Compression, single-thread global partition (the seed path). ---
  Timer timer;
  Neats compressed = Neats::Compress(ds.values);
  row.compress_mbps_1t = mb / timer.ElapsedSeconds();
  row.bits_per_value =
      static_cast<double>(compressed.SizeInBits()) / static_cast<double>(row.n);

  // --- Compression, chunked mode (only when the build has the knobs). ---
  MeasureChunked<NeatsOptions>(ds, mb, &row);

  // --- Full-scan decompression. ---
  std::vector<int64_t> out;
  row.scan_mbps = ThroughputMBps(row.n, [&] {
    compressed.Decompress(&out);
    if (out[0] != ds.values[0]) std::abort();
  });

  // --- Cursor scan: sequential decode without materializing the output. ---
  MeasureCursorScan<Neats>(compressed, &row);

  // --- Random access: owned representation, then the zero-copy mmap view. ---
  std::mt19937_64 rng(42);
  std::vector<uint64_t> idx(1 << 12);
  for (auto& i : idx) i = rng() % row.n;
  row.access_ns = AccessNs(
      idx, [&](uint64_t i) { return static_cast<uint64_t>(compressed.Access(i)); });
  MeasureMmapAccess<Neats>(compressed, idx, &row);

  // --- Batched access (sorted blocks of 8/64/512 probes) and streaming
  // store ingest (schema 4). ---
  MeasureBatchAccess<Neats>(compressed, idx, &row);
  MeasureStoreAppend(ds, mb, &row);

  // --- The per-codec comparison table (schema 5). ---
  MeasureCodecTable(ds, idx, &row);

  // --- Succinct substrate microbenchmarks (select + Elias-Fano rank). ---
  MeasureSelectMicro(row.n, 42, &row);

  // --- Exact range sums over 1000-value windows. ---
  const uint64_t window = std::min<uint64_t>(1000, row.n);
  row.range_sum_mbps = ThroughputMBps(row.n, [&] {
    int64_t s = 0;
    for (uint64_t from = 0; from + window <= row.n; from += window) {
      s += compressed.RangeSum(from, window);
    }
    if (s == int64_t{0x0DDBA11}) std::abort();
  });
  return row;
}

/// Fills the cache-line column by shelling out to the instrumented sibling
/// binary (bench_dir_lines --tsv) — the one build that carries the
/// NEATS_TOUCH probes, keeping this binary's timing loops instrumentation-
/// free. The column stays 0 when the sibling is missing (e.g. when this
/// source is compiled against a pre-directory build for a paired run).
void FillCacheLineColumns(const char* argv0, std::vector<Row>* rows) {
  std::filesystem::path dir = std::filesystem::path(argv0).parent_path();
  if (dir.empty()) dir = ".";
  std::string cmd = "\"" + (dir / "bench_dir_lines").string() + "\" --tsv";
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return;
  char code[16];
  double dir_lines;
  while (std::fscanf(pipe, "%15s %lf", code, &dir_lines) == 2) {
    for (Row& r : *rows) {
      if (r.code == code) r.dir_lines_touched = dir_lines;
    }
  }
  pclose(pipe);
}

/// Runs the scenario engine's built-in suite (seeded, self-verifying — a
/// failure aborts the report with a scenario=X seed=Y repro line) and
/// returns the pre-rendered elements of the schema-7 "scenarios" array.
/// NEATS_BENCH_SCENARIO_SCALE scales the workloads; 0 skips the section.
std::string MeasureScenarios() {
#if NEATS_BENCH_HAS_SCENARIOS
  uint64_t scale = 1;
  if (const char* env = std::getenv("NEATS_BENCH_SCENARIO_SCALE")) {
    scale = std::strtoull(env, nullptr, 10);
  }
  if (scale == 0) return "";
  scenario::ScenarioOptions options;
  options.scale = scale;
  std::ostringstream os;
  bool first = true;
  for (const scenario::Scenario& s : scenario::BuiltinScenarios().All()) {
    std::printf("scenario %s ...\n", s.name.c_str());
    std::fflush(stdout);
    const scenario::ScenarioResult r = scenario::RunScenario(s, options);
    if (!first) os << ",\n";
    first = false;
    scenario::WriteScenarioJson(os, r, "    ");
  }
  return os.str();
#else
  return "";
#endif
}

// ---------------------------------------------------------------------------
// Schema 8: the observability layer's own numbers.

/// One paired metrics-on / metrics-off timing of the NeaTS scalar access
/// path (the hottest instrumented operation, and the one the 3% overhead
/// budget was engineered against).
struct OverheadRow {
  std::string code;
  double on_ns = 0;
  double off_ns = 0;
  double ratio = 0;
};

struct ObsSection {
  std::string store_metrics_json;   // pre-rendered value, "" when absent
  std::vector<OverheadRow> overhead;
  double median_ratio = 0;
};

#if NEATS_BENCH_HAS_OBS
/// Drives an instrumented store (every access sampled — this run measures
/// the store, not the sampling discount) through a fixed mixed workload and
/// returns its StatsSnapshot pre-rendered as the "store_metrics" JSON
/// value. Aborts if the snapshot is missing the op counters or the
/// access / access_batch percentiles the schema promises — the Release
/// bench smoke run is the gate that the instrumentation is actually live.
std::string MeasureStoreMetrics() {
  const DatasetSpec* spec = nullptr;
  for (const DatasetSpec& s : kDatasetSpecs) {
    if (std::string("CT") == s.code) spec = &s;  // CT: smooth sensor trend
  }
  Dataset ds = LoadDataset(*spec);
  NeatsStoreOptions options;
  options.shard_size = std::max<uint64_t>(4096, ds.values.size() / 8);
  options.latency_sample_every = 1;
  NeatsStore store(options);
  for (size_t at = 0; at < ds.values.size(); at += 4096) {
    const size_t n = std::min<size_t>(4096, ds.values.size() - at);
    store.Append(std::span<const int64_t>(ds.values.data() + at, n));
  }
  store.Flush();

  std::mt19937_64 rng(7);
  const uint64_t n = store.size();
  for (int pass = 0; pass < 16; ++pass) {
    for (int p = 0; p < 4096; ++p) {
      const uint64_t i = rng() % n;
      if (store.Access(i) != ds.values[i]) std::abort();
    }
  }
  std::vector<uint64_t> batch(512);
  std::vector<int64_t> out(512);
  for (int b = 0; b < 64; ++b) {
    for (auto& i : batch) i = rng() % n;
    std::sort(batch.begin(), batch.end());
    store.AccessBatch(batch, out);
  }
  const uint64_t window = std::min<uint64_t>(1024, n);
  std::vector<int64_t> range(window);
  for (int r = 0; r < 16; ++r) {
    const uint64_t from = rng() % (n - window + 1);
    store.DecompressRange(from, window, range.data());
    (void)store.RangeSum(from, window);
  }

  const obs::MetricsSnapshot snap = store.StatsSnapshot();
  const uint64_t* access = snap.counter("access.ops");
  const uint64_t* probes = snap.counter("access_batch.probes");
  const obs::LatencyHistogram* h_access = snap.histogram("access");
  const obs::LatencyHistogram* h_batch = snap.histogram("access_batch");
  if (access == nullptr || *access != 16 * 4096 || probes == nullptr ||
      *probes != 64 * 512 || h_access == nullptr || h_access->count() == 0 ||
      h_batch == nullptr || h_batch->count() == 0) {
    std::fprintf(stderr, "FATAL: store metrics snapshot is missing the "
                         "promised op counters or latency percentiles\n");
    std::abort();
  }
  std::printf(
      "store metrics: access n=%llu p50=%llu ns p99=%llu ns | "
      "access_batch n=%llu p50=%llu ns p99=%llu ns\n",
      static_cast<unsigned long long>(h_access->count()),
      static_cast<unsigned long long>(h_access->p50()),
      static_cast<unsigned long long>(h_access->p99()),
      static_cast<unsigned long long>(h_batch->count()),
      static_cast<unsigned long long>(h_batch->p50()),
      static_cast<unsigned long long>(h_batch->p99()));
  return obs::MetricsJson(snap, "  ");
}

/// The instrumentation-cost gate: per dataset, two stores identical except
/// for `metrics`, the same 4096 probes timed through the NeaTS scalar
/// access path in alternating rounds (min of 3 per store — alternation
/// cancels thermal / frequency drift, min discards scheduler noise). The
/// budget is on the *production* configuration, so the metrics-on store
/// keeps the default access sampling rate. Exceeding a 3% median ratio
/// across datasets aborts the report.
std::vector<OverheadRow> MeasureMetricsOverhead() {
  std::vector<OverheadRow> rows;
  for (const DatasetSpec& spec : kDatasetSpecs) {
    std::string code = spec.code;
    if (code != "CT" && code != "DP" && code != "UK" && code != "ECG") continue;
    Dataset ds = LoadDataset(spec);
    NeatsStoreOptions options;
    options.shard_size = std::max<uint64_t>(4096, ds.values.size() / 8);
    auto build = [&](bool metrics) {
      NeatsStoreOptions o = options;
      o.metrics = metrics;
      NeatsStore store(o);
      store.Append(ds.values);
      store.Flush();
      return store;
    };
    NeatsStore on = build(true);
    NeatsStore off = build(false);

    std::mt19937_64 rng(42);
    std::vector<uint64_t> idx(1 << 12);
    for (auto& i : idx) i = rng() % ds.values.size();
    for (uint64_t i : idx) {  // warm both + verify they agree with the data
      if (on.Access(i) != ds.values[i]) std::abort();
      if (off.Access(i) != ds.values[i]) std::abort();
    }

    OverheadRow row;
    row.code = code;
    row.on_ns = row.off_ns = 1e300;
    for (int round = 0; round < 3; ++round) {
      row.on_ns = std::min(row.on_ns, AccessNs(idx, [&](uint64_t i) {
        return static_cast<uint64_t>(on.Access(i));
      }));
      row.off_ns = std::min(row.off_ns, AccessNs(idx, [&](uint64_t i) {
        return static_cast<uint64_t>(off.Access(i));
      }));
    }
    row.ratio = row.on_ns / row.off_ns;
    std::printf("metrics overhead %s: on %.1f ns, off %.1f ns, ratio %.4f\n",
                row.code.c_str(), row.on_ns, row.off_ns, row.ratio);
    rows.push_back(std::move(row));
  }
  return rows;
}
#endif  // NEATS_BENCH_HAS_OBS

/// Fills the schema-8 observability section and enforces the 3% gate.
ObsSection MeasureObservability() {
  ObsSection section;
#if NEATS_BENCH_HAS_OBS
  std::printf("measuring store metrics ...\n");
  std::fflush(stdout);
  section.store_metrics_json = MeasureStoreMetrics();
  section.overhead = MeasureMetricsOverhead();
  std::vector<double> ratios;
  for (const OverheadRow& r : section.overhead) ratios.push_back(r.ratio);
  std::sort(ratios.begin(), ratios.end());
  section.median_ratio = ratios.empty() ? 0 : ratios[ratios.size() / 2];
  constexpr double kGate = 1.03;
  if (section.median_ratio > kGate) {
    std::fprintf(stderr,
                 "FATAL: metrics-on scalar access is %.2f%% slower than "
                 "metrics-off (budget 3%%) — the instrumentation regressed "
                 "the hot path\n",
                 (section.median_ratio - 1.0) * 100.0);
    std::exit(1);
  }
  std::printf("metrics overhead median ratio %.4f (gate %.2f)\n",
              section.median_ratio, kGate);
#endif
  return section;
}

/// The schema-9 "server" block: the loadgen's --out JSON (RPS and latency
/// percentiles per opcode against a running neats_server, plus coalesce /
/// shed counters), embedded verbatim. The loadgen runs out of process —
/// point NEATS_BENCH_SERVER at its report to fold it in; absent, the block
/// is {} so the schema stays stable whether or not a server run happened.
std::string LoadServerBlock() {
  const char* path = std::getenv("NEATS_BENCH_SERVER");
  if (path == nullptr || *path == '\0') return "{}";
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) {
    std::fprintf(stderr, "NEATS_BENCH_SERVER: cannot open %s\n", path);
    return "{}";
  }
  std::string doc;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) doc.append(buf, n);
  std::fclose(f);
  while (!doc.empty() && (doc.back() == '\n' || doc.back() == ' ')) {
    doc.pop_back();
  }
  if (doc.empty() || doc.front() != '{' || doc.back() != '}') {
    std::fprintf(stderr, "NEATS_BENCH_SERVER: %s is not a JSON object\n",
                 path);
    return "{}";
  }
  return doc;
}

void WriteJson(const std::vector<Row>& rows, const std::string& scenarios,
               const ObsSection& obs_section, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"neats\",\n  \"schema\": 10,\n");
  std::fprintf(f, "  \"server\": %s,\n", LoadServerBlock().c_str());
  if (scenarios.empty()) {
    std::fprintf(f, "  \"scenarios\": [],\n");
  } else {
    std::fprintf(f, "  \"scenarios\": [\n%s\n  ],\n", scenarios.c_str());
  }
  if (obs_section.store_metrics_json.empty()) {
    std::fprintf(f, "  \"store_metrics\": {},\n  \"metrics_overhead\": {},\n");
  } else {
    std::fprintf(f, "  \"store_metrics\":\n%s,\n",
                 obs_section.store_metrics_json.c_str());
    std::fprintf(f, "  \"metrics_overhead\": {\"gate\": 1.03, "
                    "\"median_ratio\": %.4f, \"datasets\": [",
                 obs_section.median_ratio);
    for (size_t i = 0; i < obs_section.overhead.size(); ++i) {
      const OverheadRow& r = obs_section.overhead[i];
      std::fprintf(f,
                   "{\"dataset\": \"%s\", \"metrics_on_ns\": %.1f, "
                   "\"metrics_off_ns\": %.1f, \"ratio\": %.4f}%s",
                   r.code.c_str(), r.on_ns, r.off_ns, r.ratio,
                   i + 1 < obs_section.overhead.size() ? ", " : "");
    }
    std::fprintf(f, "]},\n");
  }
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"has_scaling_knobs\": %s,\n",
               kHasScalingKnobs<NeatsOptions> ? "true" : "false");
  std::fprintf(f, "  \"datasets\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"dataset\": \"%s\", \"n\": %zu, "
                 "\"bits_per_value\": %.3f, "
                 "\"compress_mbps_1t\": %.3f, "
                 "\"compress_mbps_1t_chunked\": %.3f, "
                 "\"compress_mbps_4t_chunked\": %.3f, "
                 "\"scan_mbps\": %.1f, "
                 "\"cursor_scan_mbps\": %.1f, "
                 "\"access_ns\": %.1f, "
                 "\"random_access_ns_mmap\": %.1f, "
                 "\"range_sum_mbps\": %.1f, "
                 "\"select1_ns\": %.1f, "
                 "\"ef_rank_ns\": %.1f, "
                 "\"dir_lines_touched\": %.2f, "
                 "\"batch_access_ns_b8\": %.1f, "
                 "\"batch_access_ns_b64\": %.1f, "
                 "\"batch_access_ns_b512\": %.1f, "
                 "\"store_append_mbps\": %.3f, "
                 "\"codecs\": [",
                 r.code.c_str(), r.n, r.bits_per_value, r.compress_mbps_1t,
                 r.compress_mbps_1t_chunked, r.compress_mbps_4t_chunked,
                 r.scan_mbps, r.cursor_scan_mbps, r.access_ns,
                 r.access_ns_mmap, r.range_sum_mbps, r.select1_ns,
                 r.ef_rank_ns, r.dir_lines_touched, r.batch_access_ns_b8,
                 r.batch_access_ns_b64, r.batch_access_ns_b512,
                 r.store_append_mbps);
    for (size_t c = 0; c < r.codecs.size(); ++c) {
      std::fprintf(f,
                   "{\"codec\": \"%s\", \"bits_per_value\": %.3f, "
                   "\"random_access_ns\": %.1f, "
                   "\"batch_access_ns_b512\": %.1f, "
                   "\"store_access_ns\": %.1f, "
                   "\"cache_hit_rate\": %.4f}%s",
                   r.codecs[c].name.c_str(), r.codecs[c].bits_per_value,
                   r.codecs[c].random_access_ns,
                   r.codecs[c].batch_access_ns_b512,
                   r.codecs[c].store_access_ns, r.codecs[c].cache_hit_rate,
                   c + 1 < r.codecs.size() ? ", " : "");
    }
    std::fprintf(f, "]}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace
}  // namespace neats::bench

int main(int argc, char** argv) {
  using namespace neats;
  using namespace neats::bench;
  const char* out_path = argc > 1 ? argv[1] : "BENCH_neats.json";

  // A spread of generator shapes: smooth sensor trends (CT), high-precision
  // noise (DP), stock ticks (UK), and a long quasi-periodic signal (ECG).
  std::vector<Row> rows;
  for (const DatasetSpec& spec : kDatasetSpecs) {
    std::string code = spec.code;
    if (code != "CT" && code != "DP" && code != "UK" && code != "ECG") continue;
    std::printf("measuring %s ...\n", spec.code);
    std::fflush(stdout);
    rows.push_back(MeasureDataset(spec));
    const Row& r = rows.back();
    std::printf(
        "  n=%zu  %.2f bits/value  compress %.2f MB/s (1t)"
        "  chunked %.2f/%.2f MB/s (1t/4t)  scan %.0f MB/s"
        "  cursor-scan %.0f MB/s  access %.0f ns (mmap %.0f ns)"
        "  batch-access %.0f/%.0f/%.0f ns (b8/b64/b512)"
        "  range-sum %.0f MB/s  store-append %.2f MB/s"
        "  select1 %.1f ns  ef-rank %.1f ns\n",
        r.n, r.bits_per_value, r.compress_mbps_1t, r.compress_mbps_1t_chunked,
        r.compress_mbps_4t_chunked, r.scan_mbps, r.cursor_scan_mbps,
        r.access_ns, r.access_ns_mmap,
        r.batch_access_ns_b8, r.batch_access_ns_b64, r.batch_access_ns_b512,
        r.range_sum_mbps, r.store_append_mbps, r.select1_ns, r.ef_rank_ns);
    for (const Row::CodecRow& c : r.codecs) {
      std::printf(
          "    codec %-18s %7.2f bits/value  access %.0f ns"
          "  batch-b512 %.0f ns  store %.0f ns (hit rate %.2f)\n",
          c.name.c_str(), c.bits_per_value, c.random_access_ns,
          c.batch_access_ns_b512, c.store_access_ns, c.cache_hit_rate);
    }
  }
  FillCacheLineColumns(argv[0], &rows);
  for (const Row& r : rows) {
    if (r.dir_lines_touched > 0) {
      std::printf("%s: %.2f cache lines/access\n", r.code.c_str(),
                  r.dir_lines_touched);
    }
  }
  const std::string scenarios = MeasureScenarios();
  const ObsSection obs_section = MeasureObservability();
  WriteJson(rows, scenarios, obs_section, out_path);
  std::printf("wrote %s\n", out_path);
  return 0;
}
