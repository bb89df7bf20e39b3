// The serving layer: a long (and growing) series as a set of sealed,
// independently-compressed shards behind one routing index, plus a
// write-ahead hot tail for streaming ingest (the storage-engine deployment
// of Sec. IV-C1, grown into a subsystem).
//
// Shape of the store:
//
//   [ shard 0 ][ shard 1 ] ... [ shard s-1 ][ pending seals ][ hot tail ]
//     sealed codec blobs, immutable            raw chunks       raw vector
//     (owned, or mmap'd zero-copy where        compressing in
//      the codec supports it)                  the background
//
// Every shard is a SealedSeries — any codec of the registry
// (src/codecs/codec_registry.hpp) can serve one, and shards of one store may
// use different codecs. The seal policy decides: kFixed compresses every
// chunk with `options.codec`; kAuto compresses each chunk with every
// candidate codec and keeps the smallest blob, so the store adapts per shard
// to whatever regime the data is in (the paper's comparison table as a live
// engineering choice). The per-shard codec id travels in MANIFEST.neats
// (src/io/manifest.hpp).
//
// Append() buffers into the hot tail; every time the tail reaches
// `shard_size` values a chunk is cut off and handed to the thread pool,
// which compresses it into a new shard in the background (the raw values
// stay queryable until the seal lands, so queries never wait on a
// compressor). Flush() seals the remaining tail, drains the pool and — for
// a directory-backed store — writes one blob per shard plus the manifest;
// blobs and the manifest are fsync'd (write-to-temp + rename + directory
// fsync), so a completed Flush survives power loss. OpenDir() routes by the
// manifest and re-opens every blob zero-copy where its codec supports
// borrowing (Neats, LeCo, ALP), deserializing the rest.
//
// Durability & recovery (docs/ARCHITECTURE.md, "Durability & recovery"):
//
//   - Every file operation routes through a neats::io::FileSystem
//     (NeatsStoreOptions::fs), so the whole layer runs unchanged against
//     the fault-injection backend (io/fault_fs.hpp) in the crash harness.
//   - A directory-backed store write-ahead-logs the hot tail: Append()
//     puts a checksummed record in WAL.neats and fsyncs it before
//     returning, Flush() resets the log once the manifest durably covers
//     everything, and OpenDir() replays surviving records (discarding a
//     torn final record — the expected shape of a crash).
//   - Sealed blobs and the manifest carry CRC32C trailers, and every
//     manifest row records its blob's CRC. One verified path maps, checks
//     and opens a shard blob — at OpenDir, Scrub, seal promotion and WAL
//     repair alike. OpenDir() *quarantines* failures — a shard that is
//     corrupt or missing stops serving, but the store still opens, healthy
//     shards answer queries bit-identically, and a query routed into the
//     quarantined range throws a typed Error (StatusCode::kUnavailable)
//     instead of a wrong value. recovery_report() enumerates the damage;
//     Scrub() re-verifies every blob and re-seals quarantined shards whose
//     value range is still covered by intact WAL records.
//
// Every query routes through the in-memory routing index (shard ->
// [first, first+count)) and stitches across shard boundaries:
//
//   Access(i)              one shard lookup + one codec Access
//   AccessBatch(idx, out)  probes of any order: argsorted, grouped per
//                          shard, then resolved by the shard codec's
//                          batch kernel
//   DecompressRange(s)     per-shard scans, stitched; consecutive ranges
//                          covered by the same shard go to the codec as one
//                          DecompressRanges call, so one cursor serves the
//                          whole group instead of re-seeking per range
//   RangeSum               exact sums, combined across the covered shards
//
// Threading contract: single writer, many readers, and readers never wait.
// One thread at a time may mutate the store (Append/Flush/Scrub serialize
// on the store's writer mutex); any number of threads may run const queries
// concurrently — with each other, with the background seals, *and* with the
// writer. The read state is one immutable Snapshot (the shard rows, the
// chunks still sealing, the hot tail's published length and the totals)
// that the writer replaces whole: it builds the next snapshot aside and
// swaps one pointer. A query loads the current snapshot once — the only
// lock it takes is held for that pointer copy — and its bound check,
// routing and answer all come from that one view, so no query waits on
// Scrub, an inline seal, a WAL fsync or a seal drain. Queries see the
// store before or after each publication, never mid-flight, and a value
// becomes visible only once its WAL record is durable. The scenario engine
// (src/scenario/) drives exactly this shape — concurrent appenders/readers
// with every read verified — under ThreadSanitizer in CI. Moves and
// destruction still require outside quiescence, like any standard
// container.

#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "codecs/codec_registry.hpp"
#include "common/assert.hpp"
#include "common/thread_pool.hpp"
#include "core/codec_id.hpp"
#include "core/neats.hpp"
#include "io/checksum.hpp"
#include "io/fs.hpp"
#include "io/manifest.hpp"
#include "io/mmap_file.hpp"
#include "io/text_io.hpp"
#include "obs/events.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/log_sink.hpp"
#include "obs/metrics.hpp"
#include "store/block_cache.hpp"
#include "store/wal.hpp"

namespace neats {

/// How a chunk's codec is chosen at seal time.
enum class SealPolicy {
  kFixed,  // every shard uses NeatsStoreOptions::codec
  kAuto,   // compress with every candidate codec, keep the smallest blob
};

/// Tuning knobs of a NeatsStore.
struct NeatsStoreOptions {
  /// Values per sealed shard. Smaller shards seal sooner and parallelize
  /// better; larger shards amortize per-shard metadata and compress a bit
  /// tighter. Ignored by OpenDir (the manifest's value wins, so a store
  /// keeps its geometry across reopen).
  uint64_t shard_size = uint64_t{1} << 16;

  /// Compression options passed to the sealing codec (NeaTS uses all of
  /// them; the other codecs ignore them).
  NeatsOptions neats;

  /// Worker threads of the background sealer. 1 = a pool with no extra
  /// workers (seals run inline at the Append that cuts the chunk);
  /// 0 = one per hardware thread.
  int seal_threads = 1;

  /// Codec selection per sealed chunk (see SealPolicy).
  SealPolicy seal_policy = SealPolicy::kFixed;

  /// The codec of every shard under SealPolicy::kFixed.
  CodecId codec = CodecId::kNeats;

  /// Candidate set of SealPolicy::kAuto, tried in order (a strictly smaller
  /// blob wins; ties keep the earlier candidate, so the choice is
  /// deterministic). Empty = every registered codec.
  std::vector<CodecId> codec_candidates;

  /// The filesystem every store file goes through. Null = the production
  /// POSIX backend; the crash harness passes an io::FaultFs. Must outlive
  /// the store.
  io::FileSystem* fs = nullptr;

  /// Write-ahead-log new appends of a directory-backed store (Append fsyncs
  /// the record before acking). Disabling trades the pre-Flush crash
  /// guarantee for one fsync less per Append. Either way OpenDir replays an
  /// existing log and Flush resets it once the manifest covers it, so
  /// toggling the option between opens never drops or reorders
  /// acknowledged values.
  bool wal = true;

  /// Byte budget of the decoded-block LRU cache (store/block_cache.hpp)
  /// consulted by Access/AccessBatch before a Gorilla or Chimp block
  /// decode; 0 disables it. Only those stream codecs must decode inside a
  /// block to answer a point query; shards of codecs with native random
  /// access (Neats, LeCo, ALP) never touch the cache. The
  /// default holds ~1M decoded values — enough to pin the hot blocks of a
  /// point-lookup storm while staying small next to the mapped blobs.
  uint64_t block_cache_bytes = uint64_t{8} << 20;

  // --- Observability (src/obs/, docs/ARCHITECTURE.md "Observability") ----

  /// Maintain the store's metrics registry and flight recorder: per-op
  /// latency histograms, op/WAL/seal/quarantine counters, StatsSnapshot()
  /// and TraceDump(). Recording is per-thread relaxed-atomic — perfbench's
  /// obs.access_overhead_ratio gate (CI) budgets the scalar-access cost at
  /// 3% — but a store that wants the last nanosecond can turn it all off.
  bool metrics = true;

  /// Scalar Access latency sampling: 1 in `latency_sample_every` accesses
  /// is timed into the "access" histogram (counters always count every
  /// op). Batch and cold ops are always timed — their per-call cost is
  /// amortized. 1 = time every access.
  uint32_t latency_sample_every = 64;

  /// Structured log hook for quarantine / Scrub / WAL-replay events
  /// (obs::LogSink). Default (empty) prints one line per event to stderr;
  /// obs::NullLogSink() silences them. Ignored when metrics = false.
  obs::LogSink log_sink;
};

namespace store_internal {

/// The store's wiring into the observability layer: one registry with
/// every metric id resolved at construction (so recording sites index
/// arrays instead of hashing names), the flight recorder, and the log
/// sink. Heap-owned by the store so background seal tasks can capture the
/// stable pointer across store moves.
struct StoreObs {
  /// Flight-recorder ring capacity in events. Sampled ops, cold ops, and
  /// every error land in the ring; see NeatsStore::TraceDump().
  static constexpr size_t kTraceEvents = 256;

  obs::MetricsRegistry registry;
  obs::FlightRecorder recorder;
  obs::LogSink sink;
  uint32_t sample_every;

  // Counter / gauge / histogram ids, resolved once.
  obs::CounterId c_access, c_batch_calls, c_batch_probes, c_range_calls,
      c_range_values, c_sum_calls, c_sum_values, c_append_calls,
      c_append_values, c_bytes_in, c_wal_records, c_wal_fsyncs,
      c_wal_replayed, c_flush, c_seals, c_seal_bytes, c_scrub_calls,
      c_scrub_repaired, c_quarantine_in, c_quarantine_out, c_errors;
  obs::CounterId c_seal_codec[kNumCodecIds];
  obs::GaugeId g_size, g_shards, g_pending, g_tail, g_quarantined,
      g_cache_entries, g_cache_bytes;
  obs::HistogramId h_access, h_batch, h_range, h_sum, h_append, h_flush,
      h_seal, h_scrub;

  StoreObs(uint32_t sample, obs::LogSink log_sink)
      : recorder(kTraceEvents),
        sink(log_sink ? std::move(log_sink) : obs::LogSink(obs::StderrLog)),
        sample_every(sample == 0 ? 1 : sample) {
    c_access = registry.AddCounter("access.ops");
    c_batch_calls = registry.AddCounter("access_batch.calls");
    c_batch_probes = registry.AddCounter("access_batch.probes");
    c_range_calls = registry.AddCounter("range.calls");
    c_range_values = registry.AddCounter("range.values");
    c_sum_calls = registry.AddCounter("range_sum.calls");
    c_sum_values = registry.AddCounter("range_sum.values");
    c_append_calls = registry.AddCounter("append.calls");
    c_append_values = registry.AddCounter("append.values");
    c_bytes_in = registry.AddCounter("bytes.in");
    c_wal_records = registry.AddCounter("wal.records");
    c_wal_fsyncs = registry.AddCounter("wal.fsyncs");
    c_wal_replayed = registry.AddCounter("wal.replayed_records");
    c_flush = registry.AddCounter("flush.calls");
    c_seals = registry.AddCounter("seal.count");
    c_seal_bytes = registry.AddCounter("seal.blob_bytes");
    c_scrub_calls = registry.AddCounter("scrub.calls");
    c_scrub_repaired = registry.AddCounter("scrub.repaired");
    c_quarantine_in = registry.AddCounter("quarantine.entered");
    c_quarantine_out = registry.AddCounter("quarantine.exited");
    c_errors = registry.AddCounter("errors");
    for (CodecId id : CodecRegistry::All()) {
      c_seal_codec[static_cast<uint32_t>(id)] =
          registry.AddCounter(std::string("seal.codec.") + CodecName(id));
    }
    g_size = registry.AddGauge("store.values");
    g_shards = registry.AddGauge("store.shards");
    g_pending = registry.AddGauge("store.pending_seals");
    g_tail = registry.AddGauge("store.tail_values");
    g_quarantined = registry.AddGauge("store.quarantined_shards");
    g_cache_entries = registry.AddGauge("cache.entries");
    g_cache_bytes = registry.AddGauge("cache.bytes");
    h_access = registry.AddHistogram("access");
    h_batch = registry.AddHistogram("access_batch");
    h_range = registry.AddHistogram("range");
    h_sum = registry.AddHistogram("range_sum");
    h_append = registry.AddHistogram("append");
    h_flush = registry.AddHistogram("flush");
    h_seal = registry.AddHistogram("seal");
    h_scrub = registry.AddHistogram("scrub");
  }

  void Trace(obs::EventId op, obs::TraceTier tier, uint16_t status,
             uint32_t codec, uint64_t shard, uint64_t arg, uint64_t len,
             uint64_t dur_ns) {
    recorder.Record(op, tier, status, codec, shard, arg, len, dur_ns);
  }

  /// A recovery-class event: counted into the trace ring AND reported
  /// through the structured log hook.
  void Log(obs::EventId id, obs::Severity sev, uint64_t shard,
           std::string msg) {
    Trace(id, obs::TraceTier::kNone, 0, obs::TraceEvent::kNoCodec, shard,
          0, 0, 0);
    sink(obs::LogEvent{id, sev, shard, std::move(msg)});
  }

  /// A failed op: counted, traced with its status code, never logged (a
  /// kUnavailable storm must not flood the sink — the quarantine that
  /// caused it already did, with a trace dump).
  void Error(obs::EventId op, uint64_t arg, uint16_t status) {
    registry.Count(c_errors);
    Trace(op, obs::TraceTier::kNone, status, obs::TraceEvent::kNoCodec,
          obs::kNoShard, arg, 0, 0);
  }

  /// Emits the flight recorder's recent events through the log sink — the
  /// dump-on-quarantine path, so degraded states arrive with their
  /// last-N-operations context.
  void DumpTrace(const std::string& why) {
    sink(obs::LogEvent{obs::EventId::kTraceDump, obs::Severity::kWarn,
                       obs::kNoShard,
                       why + "; recent operations:\n" +
                           obs::TraceText(recorder.Dump())});
  }
};

/// The metrics wrapper of every store op but scalar Access (which keeps its
/// sampled fast path). With metrics off (`ob` null) it runs `body` bare.
/// With metrics on it times the body into histogram `hist`, traces one `op`
/// event carrying `arg` and `len`, and on an Error counts it, traces it
/// with its status and rethrows. Op counters stay with the callers: queries
/// count every call, Append only acked ones.
template <class Body>
std::invoke_result_t<const Body&> Observed(StoreObs* ob, obs::EventId op,
                                           obs::HistogramId StoreObs::*hist,
                                           uint64_t arg, uint64_t len,
                                           const Body& body) {
  if (ob == nullptr) return body();
  try {
    const uint64_t t0 = obs::NowNs();
    const auto finish = [&] {
      const uint64_t dur = obs::NowNs() - t0;
      ob->registry.Record(ob->*hist, dur);
      ob->Trace(op, obs::TraceTier::kNone, 0, obs::TraceEvent::kNoCodec,
                obs::kNoShard, arg, len, dur);
    };
    if constexpr (std::is_void_v<std::invoke_result_t<const Body&>>) {
      body();
      finish();
    } else {
      auto result = body();
      finish();
      return result;
    }
  } catch (const Error& e) {
    ob->Error(op, arg, static_cast<uint16_t>(e.code()));
    throw;
  }
}

}  // namespace store_internal


/// A sharded, append-able, randomly-accessible compressed series store.
class NeatsStore {
  using StoreObs = store_internal::StoreObs;

  /// One sealed shard: its manifest row (slice of the global index space,
  /// blob size, codec, CRC) and the type-erased series serving it — owned
  /// right after an in-memory seal, or borrowing `map` when the codec
  /// opened the blob zero-copy. A null `series` means the shard is
  /// quarantined (`quarantine` says why): its routing row stays so
  /// neighbors keep their slots, but queries into it throw kUnavailable.
  /// Immutable once published; Scrub and repair publish replacement rows.
  struct Shard : StoreManifest::Shard {
    Shard(const StoreManifest::Shard& row, std::unique_ptr<SealedSeries> s,
          std::string why = {})
        : StoreManifest::Shard(row),
          series(std::move(s)),
          quarantine(std::move(why)) {}

    std::unique_ptr<SealedSeries> series;  // null = quarantined
    std::string quarantine;  // why the shard is not serving
    io::MappedRegion map;    // backs `series` when served from disk
  };
  using ShardTable = std::vector<std::shared_ptr<const Shard>>;

  /// A chunk handed to the background sealer. Its raw values keep serving
  /// queries until the seal is promoted; the seal task shares ownership,
  /// reads `values` and writes only `sealed`, `codec`, `blob_bytes`, `crc`,
  /// `error` and finally `done` (the publication flag), none of which a
  /// reader looks at. A task must never let an exception escape into the
  /// pool (ThreadPool tasks must not throw), so a failed seal — disk full
  /// while writing the blob, a compressor precondition — lands in `error`
  /// and is rethrown on the caller's thread at the next promotion, where
  /// the facade (neats::FlushStore) converts it into a Status.
  struct PendingChunk {
    uint64_t first = 0;
    uint64_t count = 0;
    size_t ordinal = 0;  // shard number -> blob file name
    std::shared_ptr<int64_t[]> values;  // `count` values, never written
    std::unique_ptr<SealedSeries> sealed;
    CodecId codec = CodecId::kNeats;
    uint64_t blob_bytes = 0;
    uint32_t crc = 0;  // CRC32C of the blob payload (directory stores)
    std::string error;  // non-empty = the seal failed with this message
    StatusCode error_code = StatusCode::kFailed;  // its failure category
    std::atomic<bool> done{false};
  };

 public:
  /// What OpenDir()/Scrub() found wrong with a store directory and what
  /// they did about it. Empty everywhere = a fully healthy store.
  struct RepairReport {
    /// One quarantined shard: its routing row and why it stopped serving.
    struct ShardState {
      size_t shard = 0;      // index (and blob file ordinal)
      uint64_t first = 0;    // global index range the shard covers
      uint64_t count = 0;
      CodecId codec = CodecId::kNeats;
      std::string error;     // what the verification failed with
      /// The structured-log/flight-recorder event id this entry correlates
      /// with (obs::EventId) — a log sink and a repair report describing
      /// the same incident agree on it.
      obs::EventId event = obs::EventId::kQuarantine;
    };
    std::vector<ShardState> quarantined;  // shards currently not serving
    std::vector<size_t> repaired;         // shards Scrub() re-sealed
    std::vector<std::string> warnings;    // non-fatal recovery notes
  };

  /// Parallel query fan-out: a DecompressRange(s) / RangeSum spanning
  /// several sealed shards and at least this many sealed values runs one
  /// task per covered shard on the seal pool (smaller queries stay
  /// sequential — fan-out has dispatch overhead, and small queries are
  /// cursor-bound, not core-bound). Only stores with seal_threads > 1 fan
  /// out: the pool the sealer shares is the pool the fan-out rides.
  static constexpr uint64_t kParallelQueryValues = uint64_t{1} << 17;

  /// The store's read state at one publication: the sealed shard rows, the
  /// chunks still sealing, the hot tail up to its published length, and the
  /// totals. Immutable once published — the writer builds the next snapshot
  /// aside and swaps it in — so a query that loads one answers from a
  /// single consistent view however long it runs: its bound check (size()),
  /// routing and answer all agree. Every store query loads the current
  /// snapshot once; a caller that must check bounds and query in one view
  /// (the server) loads it with NeatsStore::snapshot() and queries it
  /// directly. Queries on a snapshot count into the store's metrics like
  /// the store's own. A snapshot borrows the store's metrics, block cache
  /// and seal pool, so it must not outlive the store.
  class Snapshot {
   public:
    /// Values visible in this snapshot (sealed + sealing + hot tail).
    uint64_t size() const {
      return sealed_total_ + pending_total_ + tail_len_;
    }

    /// The value at global index i (< size()): one routing lookup, then the
    /// covering shard codec's Access (or a raw read from a pending chunk /
    /// the tail). Gorilla/Chimp shards answer from the decoded-block cache
    /// when it holds the containing block (a hash probe + one array read —
    /// Neats-class latency), decoding and caching the block otherwise.
    int64_t Access(uint64_t i) const {
      NEATS_DCHECK(i < size());
      StoreObs* ob = obs_;
      if (ob == nullptr) return Lookup(i, nullptr);
      try {
        // The counter is exact; the clock pair is sampled (1 in
        // sample_every per thread) so timing costs a fraction of a
        // nanosecond amortized. One combined slab lookup — perfbench's
        // obs.access_overhead_ratio gate budgets this whole branch at 3% of
        // the access itself.
        if (!ob->registry.CountAndTick(ob->c_access, ob->h_access,
                                       ob->sample_every)) {
          return Lookup(i, nullptr);
        }
        obs::TraceEvent ev;
        const uint64_t t0 = obs::NowNs();
        const int64_t v = Lookup(i, &ev);
        const uint64_t dur = obs::NowNs() - t0;
        ob->registry.Record(ob->h_access, dur);
        ob->Trace(obs::EventId::kAccess, ev.tier, 0, ev.codec, ev.shard, i,
                  1, dur);
        return v;
      } catch (const Error& e) {
        ob->Error(obs::EventId::kAccess, i, static_cast<uint16_t>(e.code()));
        throw;
      }
    }

    /// Batched point queries (every probe < size()), any order, duplicates
    /// allowed. Probes are argsorted, grouped per shard, and each shard
    /// group is resolved by the shard codec's batch kernel; out[j] receives
    /// the value at idx[j] (the sort is internal, results come back in
    /// input order).
    void AccessBatch(std::span<const uint64_t> idx,
                     std::span<int64_t> out) const {
      NEATS_DCHECK(idx.size() == out.size());
      if (idx.empty()) return;
      if (StoreObs* ob = obs_) {
        ob->registry.Count(ob->c_batch_calls);
        ob->registry.Count(ob->c_batch_probes, idx.size());
      }
      store_internal::Observed(obs_, obs::EventId::kAccessBatch,
                               &StoreObs::h_batch, idx[0], idx.size(),
                               [&] { LookupBatch(idx, out); });
    }

    /// Multi-range decompression (every range inside [0, size())): every
    /// range's values, concatenated into `out` (sized to the sum of the
    /// range lengths). Consecutive (sub)ranges covered by the same sealed
    /// shard are batched into one codec-level DecompressRanges call, so the
    /// codec reuses a single cursor across the group (its monotone-seek hop
    /// chain) instead of paying a fresh rank per range.
    void DecompressRanges(std::span<const IndexRange> ranges,
                          int64_t* out) const {
      uint64_t values = 0;
      if (StoreObs* ob = obs_) {
        for (const IndexRange& r : ranges) values += r.len;
        ob->registry.Count(ob->c_range_calls);
        ob->registry.Count(ob->c_range_values, values);
      }
      store_internal::Observed(obs_, obs::EventId::kRange, &StoreObs::h_range,
                               ranges.empty() ? 0 : ranges[0].from, values,
                               [&] { Decode(ranges, out); });
    }

    /// Exact sum over values[from, from + len) (inside [0, size())),
    /// combined across shards.
    int64_t RangeSum(uint64_t from, uint64_t len) const {
      if (StoreObs* ob = obs_) {
        ob->registry.Count(ob->c_sum_calls);
        ob->registry.Count(ob->c_sum_values, len);
      }
      return store_internal::Observed(obs_, obs::EventId::kRangeSum,
                                      &StoreObs::h_sum, from, len,
                                      [&] { return Sum(from, len); });
    }

   private:
    friend class NeatsStore;

    const Shard& Row(size_t s) const { return *(*shards_)[s]; }

    bool Degraded() const {
      for (const auto& s : *shards_) {
        if (s->series == nullptr) return true;
      }
      return false;
    }

    /// Routing lookup: the index of the sealed shard covering global index
    /// i.
    size_t ShardOf(uint64_t i) const {
      NEATS_DCHECK(i < sealed_total_);
      const ShardTable& rows = *shards_;
      size_t lo = 0, hi = rows.size() - 1;
      while (lo < hi) {
        const size_t mid = (lo + hi + 1) / 2;
        if (rows[mid]->first <= i) {
          lo = mid;
        } else {
          hi = mid - 1;
        }
      }
      return lo;
    }

    /// ShardOf, refusing to route into a quarantined shard: the query gets
    /// a typed kUnavailable error instead of any chance of a wrong value.
    size_t HealthyShardOf(uint64_t i) const {
      const size_t s = ShardOf(i);
      if (Row(s).series == nullptr) {
        throw Error("shard " + std::to_string(s) +
                        " is quarantined: " + Row(s).quarantine,
                    StatusCode::kUnavailable);
      }
      return s;
    }

    /// Access body. `ev` is null on the untimed fast path (identical
    /// routing to the pre-metrics store); a sampled, traced access passes
    /// an event to receive the routing outcome — which tier answered, which
    /// shard, which codec.
    int64_t Lookup(uint64_t i, obs::TraceEvent* ev) const {
      if (i < sealed_total_) {
        const size_t index = HealthyShardOf(i);
        const Shard& s = Row(index);
        const uint64_t local = i - s.first;
        if (ev != nullptr) {
          ev->tier = obs::TraceTier::kSealed;
          ev->shard = index;
          ev->codec = static_cast<uint32_t>(s.codec);
        }
        if (cache_ != nullptr) {
          const uint64_t bv = s.series->BlockValues();
          if (bv > 0) {
            if (ev == nullptr) {
              return (*CachedBlock(index, local / bv))[local % bv];
            }
            // One cache consult either way — the hit flag rides along so
            // the trace can say which tier answered without a second probe
            // (block_cache_stats() stays exactly hits+misses == probes).
            bool hit = false;
            const auto values = CachedBlock(index, local / bv, &hit);
            ev->tier = hit ? obs::TraceTier::kCacheHit
                           : obs::TraceTier::kCacheMiss;
            return (*values)[local % bv];
          }
        }
        return s.series->Access(local);
      }
      if (ev != nullptr) {
        ev->tier = i < sealed_total_ + pending_total_ ? obs::TraceTier::kPending
                                                      : obs::TraceTier::kTail;
      }
      return AccessUnsealed(i);
    }

    /// AccessBatch body (the public wrapper only adds metrics around it).
    void LookupBatch(std::span<const uint64_t> idx,
                     std::span<int64_t> out) const {
      std::vector<size_t> order(idx.size());
      for (size_t j = 0; j < order.size(); ++j) order[j] = j;
      std::sort(order.begin(), order.end(),
                [&idx](size_t a, size_t b) { return idx[a] < idx[b]; });
      std::vector<uint64_t> local;
      std::vector<int64_t> local_out;
      size_t p = 0;
      while (p < idx.size()) {
        const uint64_t k = idx[order[p]];
        NEATS_DCHECK(k < size());
        if (k >= sealed_total_) {  // pending chunks + tail: raw reads
          out[order[p]] = AccessUnsealed(k);
          ++p;
          continue;
        }
        const size_t index = HealthyShardOf(k);
        const Shard& s = Row(index);
        const uint64_t end = s.first + s.count;
        size_t q = p;
        local.clear();
        while (q < idx.size() && idx[order[q]] < end) {
          local.push_back(idx[order[q]] - s.first);
          ++q;
        }
        local_out.resize(local.size());
        const uint64_t bv =
            cache_ != nullptr ? s.series->BlockValues() : uint64_t{0};
        if (bv > 0) {
          // Gorilla/Chimp shard: answer each touched block's probes from
          // one cached (or once-decoded) block.
          size_t a = 0;
          while (a < local.size()) {
            const uint64_t blk = local[a] / bv;
            size_t z = a;
            while (z < local.size() && local[z] / bv == blk) ++z;
            const auto values = CachedBlock(index, blk);
            for (size_t j = a; j < z; ++j) {
              local_out[j] = (*values)[local[j] % bv];
            }
            a = z;
          }
        } else {
          s.series->AccessBatch(local, local_out.data());
        }
        for (size_t j = p; j < q; ++j) out[order[j]] = local_out[j - p];
        p = q;
      }
    }

    /// The decoded block serving (shard-local) block `block` of shard
    /// `index`, from the cache when present, decoding (outside the cache
    /// lock) and inserting on a miss. Only called when cache_ is non-null
    /// and the shard's codec is block-structured (BlockValues() > 0:
    /// Gorilla, Chimp).
    DecodedBlockCache::BlockPtr CachedBlock(size_t index, uint64_t block,
                                            bool* was_hit = nullptr) const {
      const Shard& s = Row(index);
      const uint32_t codec = static_cast<uint32_t>(s.codec);
      if (auto hit = cache_->Lookup(index, codec, block)) {
        if (was_hit != nullptr) *was_hit = true;
        return hit;
      }
      if (was_hit != nullptr) *was_hit = false;
      auto values =
          std::make_shared<std::vector<int64_t>>(s.series->BlockValues());
      const uint64_t count = s.series->DecodeBlock(block, values->data());
      values->resize(count);
      cache_->Insert(index, codec, block, values);
      return values;
    }

    /// Raw read past the sealed prefix (pending chunks, then the tail).
    int64_t AccessUnsealed(uint64_t i) const {
      NEATS_DCHECK(i >= sealed_total_ && i < size());
      for (const auto& c : pending_) {
        if (i < c->first + c->count) return c->values[i - c->first];
      }
      return tail_[i - sealed_total_ - pending_total_];
    }

    /// One sealed shard's slice of a multi-range query: the shard-local
    /// subranges that landed on it consecutively and the output cursor
    /// where their values go. Groups are independent by construction
    /// (disjoint output spans, distinct series objects), which is what
    /// makes the fan-out below embarrassingly parallel.
    struct ShardGroup {
      const Shard* shard = nullptr;
      int64_t* out = nullptr;
      std::vector<IndexRange> local;  // shard-local coordinates
    };

    /// Runs task(0) .. task(count - 1), one per covered sealed shard: on
    /// the seal pool when the query spans at least two shards and
    /// kParallelQueryValues sealed values and the pool has two threads or
    /// more, inline otherwise. Quarantine was already rejected during
    /// routing (HealthyShardOf throws before any task runs), so task
    /// exceptions are the rare codec/I/O kind; pool bodies must not throw,
    /// so the first one is captured and rethrown on the calling thread.
    /// Each task writes only its own output, so both schedules give
    /// identical results.
    template <class Task>
    void RunShardTasks(size_t count, uint64_t sealed_values,
                       const Task& task) const {
      if (count < 2 || sealed_values < kParallelQueryValues ||
          pool_ == nullptr || pool_->num_threads() < 2) {
        for (size_t i = 0; i < count; ++i) task(i);
        return;
      }
      std::mutex err_mu;
      std::exception_ptr err;
      pool_->ParallelFor(count, [&](size_t i) {
        try {
          task(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(err_mu);
          if (!err) err = std::current_exception();
        }
      });
      if (err) std::rethrow_exception(err);
    }

    /// The one split of values[from, from + len) across the tiers, in
    /// index order: on_shard(shard, local_from, take) for every sealed
    /// piece, then on_raw(span) for every contiguous run of a pending chunk
    /// or the tail. Sealed pieces route through HealthyShardOf, so a
    /// quarantined shard throws here, before a caller starts any fan-out.
    template <class OnShard, class OnRaw>
    void ForEachPiece(uint64_t from, uint64_t len, const OnShard& on_shard,
                      const OnRaw& on_raw) const {
      NEATS_DCHECK(from + len <= size());
      const uint64_t end = from + len;
      while (from < end && from < sealed_total_) {
        const Shard& s = Row(HealthyShardOf(from));
        const uint64_t take = std::min(end, s.first + s.count) - from;
        on_shard(s, from - s.first, take);
        from += take;
      }
      for (const auto& c : pending_) {
        if (from >= end) return;
        const uint64_t c_end = c->first + c->count;
        if (from >= c_end) continue;
        const uint64_t take = std::min(end, c_end) - from;
        on_raw(std::span<const int64_t>(c->values.get() + (from - c->first),
                                        take));
        from += take;
      }
      if (from < end) {
        on_raw(std::span<const int64_t>(
            tail_.get() + (from - sealed_total_ - pending_total_),
            end - from));
      }
    }

    /// DecompressRanges body. Builds the per-shard groups sequentially —
    /// routing errors (quarantine) surface here, before any parallel work
    /// starts — then runs them through RunShardTasks. Not-yet-sealed spans
    /// are copied inline during the build; they live in plain buffers and
    /// are bounded by the tail, never worth a task.
    void Decode(std::span<const IndexRange> ranges, int64_t* out) const {
      std::vector<ShardGroup> groups;
      uint64_t sealed_values = 0;
      const Shard* cur = nullptr;  // group-continuity: an unsealed span or
                                   // a shard switch ends the open group
      for (const IndexRange& r : ranges) {
        ForEachPiece(
            r.from, r.len,
            [&](const Shard& s, uint64_t local_from, uint64_t take) {
              if (cur != &s) {
                cur = &s;
                groups.push_back(ShardGroup{&s, out, {}});
              }
              groups.back().local.push_back({local_from, take});
              sealed_values += take;
              out += take;
            },
            [&](std::span<const int64_t> raw) {
              cur = nullptr;
              out = std::copy(raw.begin(), raw.end(), out);
            });
      }
      RunShardTasks(groups.size(), sealed_values, [&](size_t i) {
        groups[i].shard->series->DecompressRanges(groups[i].local,
                                                  groups[i].out);
      });
    }

    /// RangeSum body. A sum spanning several sealed shards takes one
    /// partial sum per shard through RunShardTasks; int64 addition is
    /// associative, so the partials accumulated in segment order give the
    /// exact sequential answer.
    int64_t Sum(uint64_t from, uint64_t len) const {
      struct Segment {
        const Shard* shard;
        uint64_t local_from;
        uint64_t take;
      };
      std::vector<Segment> segments;
      int64_t sum = 0;
      uint64_t sealed_values = 0;
      ForEachPiece(
          from, len,
          [&](const Shard& s, uint64_t local_from, uint64_t take) {
            segments.push_back({&s, local_from, take});
            sealed_values += take;
          },
          [&](std::span<const int64_t> raw) {
            for (int64_t v : raw) sum += v;
          });
      std::vector<int64_t> partial(segments.size(), 0);
      RunShardTasks(segments.size(), sealed_values, [&](size_t i) {
        partial[i] = segments[i].shard->series->RangeSum(
            segments[i].local_from, segments[i].take);
      });
      for (int64_t p : partial) sum += p;
      return sum;
    }

    // Sealed + promoted shards, contiguous from index 0; shared with the
    // snapshots before and after this one until Scrub or a promotion
    // replaces the table.
    std::shared_ptr<const ShardTable> shards_ =
        std::make_shared<const ShardTable>();
    uint64_t sealed_total_ = 0;  // values covered by shards_
    std::vector<std::shared_ptr<PendingChunk>> pending_;  // seals in flight
    uint64_t pending_total_ = 0;  // their value count
    // The hot tail: values [0, tail_len_) of a buffer of tail_capacity_
    // values. The writer writes only past the lengths it has published, and
    // grows the tail by replacing the buffer, so a loaded snapshot's prefix
    // never changes or moves.
    std::shared_ptr<int64_t[]> tail_;
    uint64_t tail_len_ = 0;
    uint64_t tail_capacity_ = 0;
    // The store's metrics (null when off), block cache (null when off) and
    // seal pool. Heap-owned by the store, so these survive store moves.
    StoreObs* obs_ = nullptr;
    DecodedBlockCache* cache_ = nullptr;
    ThreadPool* pool_ = nullptr;
  };

  NeatsStore() : NeatsStore(NeatsStoreOptions{}) {}

  explicit NeatsStore(const NeatsStoreOptions& options)
      : pool_(std::make_unique<ThreadPool>(
            ResolveNumThreads(options.seal_threads))),
        options_(options),
        fs_(options.fs != nullptr ? options.fs : &io::PosixFileSystem()) {
    NEATS_REQUIRE(options_.shard_size > 0, "shard_size must be positive");
    if (options_.block_cache_bytes > 0) {
      cache_ = std::make_unique<DecodedBlockCache>(options_.block_cache_bytes);
    }
    if (options_.metrics) {
      obs_ = std::make_unique<store_internal::StoreObs>(
          options_.latency_sample_every, options_.log_sink);
    }
    // Validated here, where the caller can catch — a bad id discovered
    // inside a background seal task would terminate the process instead.
    NEATS_REQUIRE(IsRegisteredCodecId(static_cast<uint64_t>(options_.codec)),
                  "unknown or retired codec id");
    for (CodecId id : options_.codec_candidates) {
      NEATS_REQUIRE(IsRegisteredCodecId(static_cast<uint64_t>(id)),
                    "unknown or retired codec id");
    }
    auto first = std::make_shared<Snapshot>();
    first->obs_ = obs_.get();
    first->cache_ = cache_.get();
    first->pool_ = pool_.get();
    current_ = std::move(first);
  }

  /// A directory-backed store rooted at `dir` (created if missing): sealed
  /// shards are written there as codec blobs and served zero-copy via mmap
  /// once sealed; Flush() writes the manifest that OpenDir routes by.
  /// Refuses a directory that already holds a manifest — a fresh store's
  /// seals would overwrite the existing store's blobs out from under it;
  /// reopen with OpenDir (or clear the directory) instead. Stale files an
  /// abandoned store left behind (a WAL, a manifest temp) are removed.
  static NeatsStore CreateDir(const std::string& dir,
                              const NeatsStoreOptions& options = {}) {
    NeatsStore store(options);
    store.fs_->CreateDirs(dir);
    NEATS_REQUIRE(!store.fs_->Exists(dir + "/" + StoreManifest::FileName()),
                  "directory already holds a store — use OpenDir");
    store.dir_ = dir;
    store.fs_->Remove(dir + "/" + WalFileName());
    store.fs_->Remove(dir + "/" + StoreManifest::FileName() +
                      std::string(".tmp"));
    // Durably commit an empty manifest right away, so the directory is
    // OpenDir-able after a crash at ANY later point — including before the
    // first Flush(), when the WAL holds the only copy of acked appends.
    store.WriteManifest();
    return store;
  }

  /// Opens a store directory: parses the manifest (version 3 only),
  /// verifies and opens every shard blob through the codec registry —
  /// zero-copy where the shard's codec supports borrowing — and replays the
  /// write-ahead log over the manifested prefix. A shard that fails
  /// verification (missing blob, size mismatch, bad checksum, codec
  /// rejection) is *quarantined*, not fatal: the store opens, healthy
  /// shards serve, and recovery_report() says what happened. Only a
  /// damaged manifest — the routing root itself — still throws. `options`
  /// supplies the compression knobs *and seal policy* for future seals
  /// (the manifest persists per-shard geometry and codec ids, not the
  /// policy that chose them; the manifest's shard_size wins).
  static NeatsStore OpenDir(const std::string& dir,
                            const NeatsStoreOptions& options = {}) {
    NeatsStore store(options);
    store.dir_ = dir;
    io::FileSystem& fs = *store.fs_;
    const std::string manifest_path = dir + "/" + StoreManifest::FileName();
    const std::string tmp = manifest_path + ".tmp";
    if (fs.Exists(tmp)) {
      // A crash between the temp write and the rename left this behind;
      // the real manifest is still authoritative.
      fs.Remove(tmp);
      store.report_.warnings.push_back(
          "removed stale manifest temp file left by an interrupted Flush");
    }
    const io::MappedRegion manifest_bytes = fs.OpenRead(manifest_path);
    const StoreManifest manifest =
        StoreManifest::Deserialize(manifest_bytes.bytes());
    if (store.obs_ != nullptr) {
      // Everything collected so far (the stale temp file) goes through the
      // structured log hook; RecoverWal below reports its own warnings
      // under their specific event ids.
      for (const std::string& w : store.report_.warnings) {
        store.obs_->Log(obs::EventId::kOpenWarning, obs::Severity::kWarn,
                        obs::kNoShard, w);
      }
    }
    store.options_.shard_size = manifest.shard_size;
    auto table = std::make_shared<ShardTable>();
    table->reserve(manifest.shards.size());
    for (size_t s = 0; s < manifest.shards.size(); ++s) {
      table->push_back(store.OpenShard(s, manifest.shards[s]));
    }
    const std::shared_ptr<Snapshot> next = store.Edit();
    next->shards_ = std::move(table);
    next->sealed_total_ = manifest.total();
    store.Publish(next);
    store.manifest_total_ = manifest.total();
    store.next_ordinal_ = manifest.shards.size();
    store.RecoverWal();
    return store;
  }

  NeatsStore(NeatsStore&&) = default;
  NeatsStore& operator=(NeatsStore&&) = default;

  /// Waits for in-flight background seals (their tasks count seals into
  /// the metrics this object owns). Does NOT flush: an unflushed directory
  /// store simply keeps its already-written shard blobs and the previous
  /// manifest.
  ~NeatsStore() {
    if (pool_ != nullptr) pool_->DrainTasks();
  }

  // --- Ingest -------------------------------------------------------------

  /// Appends `values`; every full `shard_size` chunk is sealed into a new
  /// shard in the background and only the sub-shard remainder is buffered
  /// in the hot tail. Also promotes any seals that completed since the last
  /// call, so the sealed prefix advances without ever blocking the append
  /// path on a compressor.
  ///
  /// Directory-backed stores log the values to the WAL and fsync it before
  /// any query can see them — when Append returns, the data survives a
  /// crash. Queries keep serving the values acked before them meanwhile,
  /// and through an inline seal (seal_threads = 1) too: the new values
  /// are published only once the whole Append is done.
  void Append(std::span<const int64_t> values) {
    std::lock_guard<std::mutex> writer(*writer_mu_);
    store_internal::Observed(obs_.get(), obs::EventId::kAppend,
                             &StoreObs::h_append, current_->size(),
                             values.size(), [&] {
                               PromoteSealed();
                               LogToWal(values);
                               AppendImpl(values);
                             });
    // Counted after the body so the counters mean *acked* appends (a
    // failed WAL write rethrows without mutating the store).
    if (StoreObs* ob = obs_.get()) {
      ob->registry.Count(ob->c_append_calls);
      ob->registry.Count(ob->c_append_values, values.size());
      ob->registry.Count(ob->c_bytes_in, values.size() * sizeof(int64_t));
    }
  }

  /// Seals the remaining tail (as a final, possibly partial shard), drains
  /// the background sealer, and — for a directory-backed store — writes the
  /// manifest durably and resets the WAL it now supersedes. Afterwards
  /// every value lives in a sealed shard; appending may continue (new
  /// shards, manifest rewritten by the next Flush).
  void Flush() {
    std::lock_guard<std::mutex> writer(*writer_mu_);
    // A flush moves values between tiers but never changes size().
    store_internal::Observed(
        obs_.get(), obs::EventId::kFlush, &StoreObs::h_flush,
        current_->size(), 0, [&] {
          if (current_->tail_len_ > 0) {
            const std::shared_ptr<Snapshot> next = Edit();
            SealTail(*next);
            Publish(next);
          }
          pool_->DrainTasks();
          PromoteSealed();
          NEATS_DCHECK(current_->pending_.empty());
          if (!dir_.empty()) {
            WriteManifest();
            ResetWal();
          }
        });
    if (obs_ != nullptr) obs_->registry.Count(obs_->c_flush);
  }

  // --- Recovery -----------------------------------------------------------

  /// What OpenDir() and the last Scrub() found and did. Returns a reference
  /// into the store, so read it quiesced — not while another thread may be
  /// inside Scrub() rewriting it.
  const RepairReport& recovery_report() const { return report_; }

  /// True while any shard is quarantined (queries into its range throw
  /// kUnavailable; everything else keeps serving).
  bool degraded() const { return snapshot()->Degraded(); }

  /// Re-verifies every healthy shard blob through the same verified open as
  /// OpenDir (quarantining new failures; a shard that passes serves from
  /// the freshly verified blob) and tries to repair quarantined shards:
  /// a shard whose value range is still fully covered by intact WAL
  /// records is re-compressed with its original codec, written durably,
  /// and returned to service; the manifest is rewritten when anything was
  /// repaired. Queries keep serving the snapshot from before the Scrub
  /// until its outcome is published. Returns the updated report —
  /// `repaired` lists the shards brought back, `quarantined` what is still
  /// down. Every call counts in `scrub.calls`; one that throws (a repair's
  /// blob write failing, say) also counts an error and traces its status.
  const RepairReport& Scrub() {
    std::lock_guard<std::mutex> writer(*writer_mu_);
    NEATS_REQUIRE(!dir_.empty(), "Scrub requires a directory-backed store");
    if (obs_ != nullptr) obs_->registry.Count(obs_->c_scrub_calls);
    store_internal::Observed(
        obs_.get(), obs::EventId::kScrub, &StoreObs::h_scrub,
        current_->shards_->size(), 0, [&] {
          auto table = std::make_shared<ShardTable>(*current_->shards_);
          for (size_t s = 0; s < table->size(); ++s) {
            const Shard& row = *(*table)[s];
            if (row.series == nullptr) continue;
            try {
              (*table)[s] = OpenShardBlob(s, row);
            } catch (const std::exception& e) {
              (*table)[s] = Quarantine(s, row, e.what());
            }
          }
          PublishShards(std::move(table));
          RepairFromWal();
          RebuildQuarantineList();
        });
    return report_;
  }

  // --- Introspection ------------------------------------------------------

  /// The current snapshot of the read state. Every store query loads one;
  /// a caller that must bound-check and query in one consistent view loads
  /// it here and queries the snapshot.
  std::shared_ptr<const Snapshot> snapshot() const {
    std::lock_guard<std::mutex> lock(*publish_mu_);
    return current_;
  }

  /// Total number of values in the store (sealed + sealing + hot tail).
  uint64_t size() const { return snapshot()->size(); }

  /// Sealed-and-promoted shards (everything, after a Flush).
  size_t num_shards() const { return snapshot()->shards_->size(); }

  /// The codec serving sealed shard `s` (what the manifest records).
  CodecId shard_codec(size_t s) const { return snapshot()->Row(s).codec; }

  /// Chunks currently compressing in the background.
  size_t num_pending_seals() const { return snapshot()->pending_.size(); }

  /// Values still in the raw hot tail.
  uint64_t tail_size() const { return snapshot()->tail_len_; }

  /// Values per sealed shard (from the options, or the manifest after
  /// OpenDir).
  uint64_t shard_size() const { return options_.shard_size; }

  /// Hit/miss/eviction counters and current footprint of the decoded-block
  /// cache; all zeros when it is disabled (block_cache_bytes = 0).
  DecodedBlockCache::Stats block_cache_stats() const {
    return cache_ != nullptr ? cache_->stats() : DecodedBlockCache::Stats{};
  }

  /// True when the store maintains its metrics registry and flight
  /// recorder (NeatsStoreOptions::metrics).
  bool metrics_enabled() const { return obs_ != nullptr; }

  /// A merged, point-in-time view of every store metric: exact op/WAL/
  /// seal/quarantine counters, sampled per-op latency histograms, and
  /// current-topology gauges. The decoded-block cache's own counters are
  /// folded in as `cache.*` rows and a derived `bytes.out` (8 bytes per
  /// value served through Access/AccessBatch/ranges/sums) rides along, so
  /// one snapshot is the whole exposition surface. Empty when metrics are
  /// disabled. Safe concurrently with queries and writers; totals are
  /// exact for operations that happened-before the call.
  obs::MetricsSnapshot StatsSnapshot() const {
    if (obs_ == nullptr) return {};
    const std::shared_ptr<const Snapshot> view = snapshot();
    store_internal::StoreObs& ob = *obs_;
    ob.registry.SetGauge(ob.g_size, static_cast<int64_t>(view->size()));
    ob.registry.SetGauge(ob.g_shards,
                         static_cast<int64_t>(view->shards_->size()));
    ob.registry.SetGauge(ob.g_pending,
                         static_cast<int64_t>(view->pending_.size()));
    ob.registry.SetGauge(ob.g_tail, static_cast<int64_t>(view->tail_len_));
    int64_t quarantined = 0;
    for (const auto& s : *view->shards_) {
      if (s->series == nullptr) ++quarantined;
    }
    ob.registry.SetGauge(ob.g_quarantined, quarantined);
    const DecodedBlockCache::Stats cs =
        cache_ != nullptr ? cache_->stats() : DecodedBlockCache::Stats{};
    ob.registry.SetGauge(ob.g_cache_entries,
                         static_cast<int64_t>(cs.entries));
    ob.registry.SetGauge(ob.g_cache_bytes, static_cast<int64_t>(cs.bytes));
    obs::MetricsSnapshot snap = ob.registry.Snapshot();
    snap.counters.emplace_back("cache.hits", cs.hits);
    snap.counters.emplace_back("cache.misses", cs.misses);
    snap.counters.emplace_back("cache.evictions", cs.evictions);
    const uint64_t served = *snap.counter("access.ops") +
                            *snap.counter("access_batch.probes") +
                            *snap.counter("range.values") +
                            *snap.counter("range_sum.values");
    snap.counters.emplace_back("bytes.out", served * sizeof(int64_t));
    return snap;
  }

  /// The flight recorder's last StoreObs::kTraceEvents events,
  /// oldest-first; empty when metrics are off. The store dumps the same
  /// ring through the log sink whenever a shard is quarantined at runtime.
  std::vector<obs::TraceEvent> TraceDump() const {
    return obs_ != nullptr ? obs_->recorder.Dump()
                           : std::vector<obs::TraceEvent>{};
  }

  /// Compressed size of the sealed shards plus 64 bits per not-yet-sealed
  /// value (pending chunks and the hot tail are raw; a quarantined shard
  /// counts as raw too — its compressed form is not trustworthy).
  size_t SizeInBits() const {
    const std::shared_ptr<const Snapshot> view = snapshot();
    size_t bits = (view->pending_total_ + view->tail_len_) * 64;
    for (const auto& s : *view->shards_) {
      bits += s->series != nullptr ? s->series->SizeInBits() : s->count * 64;
    }
    return bits;
  }

  // --- Queries ------------------------------------------------------------
  // Each loads the current snapshot once and answers from it (see Snapshot
  // for what each does).

  int64_t Access(uint64_t i) const { return snapshot()->Access(i); }

  void AccessBatch(std::span<const uint64_t> idx,
                   std::span<int64_t> out) const {
    snapshot()->AccessBatch(idx, out);
  }

  /// Decompresses values[from, from + len) into out, stitching across shard
  /// boundaries — a multi-range query of one range, with the same
  /// per-shard fan-out.
  void DecompressRange(uint64_t from, uint64_t len, int64_t* out) const {
    const IndexRange one{from, len};
    snapshot()->DecompressRanges({&one, 1}, out);
  }

  void DecompressRanges(std::span<const IndexRange> ranges,
                        int64_t* out) const {
    snapshot()->DecompressRanges(ranges, out);
  }

  int64_t RangeSum(uint64_t from, uint64_t len) const {
    return snapshot()->RangeSum(from, len);
  }

 private:
  // --- Publication (writer side; every caller holds writer_mu_) -----------

  /// A private copy of the current snapshot to build the next one in.
  std::shared_ptr<Snapshot> Edit() const {
    return std::make_shared<Snapshot>(*current_);
  }

  /// Makes `next` the snapshot every later query loads. The swap is the
  /// only write the publication lock covers; the previous snapshot is
  /// released after it, by the last query still holding it.
  void Publish(std::shared_ptr<const Snapshot> next) {
    std::lock_guard<std::mutex> lock(*publish_mu_);
    current_.swap(next);
  }

  /// Publishes `table` as the shard rows, everything else unchanged.
  void PublishShards(std::shared_ptr<const ShardTable> table) {
    const std::shared_ptr<Snapshot> next = Edit();
    next->shards_ = std::move(table);
    Publish(next);
  }

  /// Compresses one chunk per the seal policy: kFixed uses the configured
  /// codec; kAuto tries every candidate and keeps the one with the smallest
  /// serialized blob (strictly smaller wins, ties keep the earlier
  /// candidate — deterministic for a fixed candidate order). Returns the
  /// sealed series together with its blob.
  struct SealResult {
    CodecId codec = CodecId::kNeats;
    std::unique_ptr<SealedSeries> series;
    std::vector<uint8_t> blob;
  };
  static SealResult SealValues(std::span<const int64_t> values,
                               const NeatsStoreOptions& options) {
    SealResult best;
    if (options.seal_policy == SealPolicy::kFixed) {
      best.codec = options.codec;
      best.series = CodecRegistry::Compress(options.codec, values,
                                            options.neats);
      best.series->Serialize(&best.blob);
      return best;
    }
    std::vector<CodecId> candidates = options.codec_candidates;
    if (candidates.empty()) candidates = CodecRegistry::All();
    std::vector<uint8_t> blob;
    for (CodecId id : candidates) {
      std::unique_ptr<SealedSeries> series =
          CodecRegistry::Compress(id, values, options.neats);
      series->Serialize(&blob);
      if (best.series == nullptr || blob.size() < best.blob.size()) {
        best.codec = id;
        best.series = std::move(series);
        best.blob = std::move(blob);
        blob = {};
      }
    }
    return best;
  }

  /// Cuts `next`'s tail (non-empty) into a pending chunk and submits its
  /// seal to the pool; the tail buffer becomes the chunk's values as it
  /// is. The task shares the chunk and captures everything else it needs
  /// by value (plus the filesystem, which outlives the store), so it never
  /// touches `this`. With seal_threads = 1 the seal runs inline, before
  /// `next` is published, so readers keep the previous snapshot meanwhile.
  /// Note the fault contract: a CrashFault from an injected kill-point is
  /// NOT a std::exception, so it escapes this handler like a real power cut
  /// would — the crash harness runs with seal_threads = 1 (inline seals)
  /// so it unwinds on the caller thread instead of terminating a worker.
  void SealTail(Snapshot& next) {
    auto chunk = std::make_shared<PendingChunk>();
    chunk->first = next.sealed_total_ + next.pending_total_;
    chunk->count = next.tail_len_;
    chunk->ordinal = next_ordinal_++;
    chunk->values = std::move(next.tail_);
    next.tail_ = nullptr;
    next.tail_len_ = 0;
    next.tail_capacity_ = 0;
    next.pending_total_ += chunk->count;
    next.pending_.push_back(chunk);
    pool_->Submit([chunk, opts = options_, dir = dir_, fs = fs_,
                   ob = obs_.get()] {
      // `ob` outlives the task: the store drains its pool before it
      // destroys obs_ (and a store move keeps the StoreObs address).
      PendingChunk& c = *chunk;
      const uint64_t t0 = ob != nullptr ? obs::NowNs() : 0;
      try {
        SealResult sealed = SealValues({c.values.get(), c.count}, opts);
        c.codec = sealed.codec;
        c.sealed = std::move(sealed.series);
        c.blob_bytes = sealed.blob.size();
        if (!dir.empty()) {
          // Durable before publication: payload + checksum trailer hit
          // stable storage before any manifest can name the blob.
          c.crc = AppendChecksumTrailer(&sealed.blob);
          io::WriteFileDurableTo(
              *fs, dir + "/" + StoreManifest::ShardFileName(c.ordinal),
              {sealed.blob.data(), sealed.blob.size()});
        }
        if (ob != nullptr) {
          const uint64_t dur = obs::NowNs() - t0;
          ob->registry.Count(ob->c_seals);
          ob->registry.Count(
              ob->c_seal_codec[static_cast<uint32_t>(c.codec)]);
          ob->registry.Count(ob->c_seal_bytes, c.blob_bytes);
          ob->registry.Record(ob->h_seal, dur);
          ob->Trace(obs::EventId::kSeal, obs::TraceTier::kNone, 0,
                    static_cast<uint32_t>(c.codec), c.ordinal, c.first,
                    c.count, dur);
        }
      } catch (const Error& e) {
        c.error = e.what();  // rethrown at promotion, caller thread
        c.error_code = e.code();
        if (ob != nullptr) {
          ob->Error(obs::EventId::kSeal, c.first,
                    static_cast<uint16_t>(e.code()));
        }
      } catch (const std::exception& e) {
        c.error = e.what();
        c.error_code = StatusCode::kFailed;
        if (ob != nullptr) {
          ob->Error(obs::EventId::kSeal, c.first,
                    static_cast<uint16_t>(StatusCode::kFailed));
        }
      }
      c.done.store(true, std::memory_order_release);
    });
  }

  /// Moves completed seals (in order) from the pending queue into the
  /// routing index, in one publication. Directory-backed shards whose
  /// codec supports borrowing are re-opened zero-copy from the blob the
  /// seal task just wrote, through the verified open, so they never hold
  /// the owned representation; everything else keeps the owned object from
  /// the seal. A chunk's raw values are released with the last snapshot
  /// that still routes to them.
  void PromoteSealed() {
    std::vector<std::shared_ptr<const Shard>> ready;
    std::exception_ptr failure;
    try {
      for (const auto& chunk : current_->pending_) {
        PendingChunk& c = *chunk;
        if (!c.done.load(std::memory_order_acquire)) break;
        // A failed seal — or a written blob that fails the verified open
        // below — surfaces here, on the caller's thread, as the same
        // neats::Error contract every loader uses (the facade turns it
        // into a Status). The chunk stays pending — its raw values keep
        // serving queries, and every later Append/Flush re-reports the
        // failure; the seals before it are still promoted.
        if (!c.error.empty()) {
          throw Error("background seal failed: " + c.error, c.error_code);
        }
        const StoreManifest::Shard meta{c.first, c.count, c.blob_bytes,
                                        c.codec, c.crc};
        if (!dir_.empty() && CodecRegistry::ZeroCopyView(c.codec)) {
          ready.push_back(OpenShardBlob(c.ordinal, meta));
        } else {
          ready.push_back(
              std::make_shared<Shard>(meta, std::move(c.sealed)));
        }
      }
    } catch (...) {
      failure = std::current_exception();
    }
    if (!ready.empty()) {
      const std::shared_ptr<Snapshot> next = Edit();
      auto table = std::make_shared<ShardTable>(*next->shards_);
      for (std::shared_ptr<const Shard>& s : ready) {
        next->sealed_total_ += s->count;
        next->pending_total_ -= s->count;
        table->push_back(std::move(s));
      }
      next->pending_.erase(next->pending_.begin(),
                           next->pending_.begin() +
                               static_cast<ptrdiff_t>(ready.size()));
      next->shards_ = std::move(table);
      Publish(next);
    }
    if (failure) std::rethrow_exception(failure);
  }

  void WriteManifest() {
    StoreManifest manifest;
    manifest.shard_size = options_.shard_size;
    manifest.shards.reserve(current_->shards_->size());
    for (const auto& s : *current_->shards_) manifest.shards.push_back(*s);
    std::vector<uint8_t> bytes;
    manifest.Serialize(&bytes);
    // A process crash mid-Flush can never destroy the previous manifest:
    // until the atomic rename lands, OpenDir keeps routing by the old file
    // (which only names fully-written blobs, since shards are written and
    // fsync'd before the manifest).
    ReplaceFileDurably(dir_ + "/" + StoreManifest::FileName(), bytes);
    manifest_total_ = manifest.total();
  }

  /// Replaces `path` with `bytes`: temp file written and fsync'd, atomic
  /// rename, directory fsync — so a crash leaves the old file or the new
  /// one, and a completed replace survives power loss. A failed write or
  /// rename removes the temp file (best effort) before rethrowing.
  void ReplaceFileDurably(const std::string& path,
                          std::span<const uint8_t> bytes) {
    const std::string tmp = path + ".tmp";
    try {
      io::WriteFileDurableTo(*fs_, tmp, bytes);
      fs_->Rename(tmp, path);
    } catch (const std::exception&) {
      try {
        fs_->Remove(tmp);
      } catch (const std::exception&) {
        // The cleanup is best-effort; the first failure is the error.
      }
      throw;
    }
    fs_->SyncDir(dir_);
  }

  // --- Durability helpers -------------------------------------------------

  /// The Append body shared by the ingest path and WAL replay (replay must
  /// not re-log what it reads from the WAL): fills the tail past its
  /// published length, cuts every tail that reaches `shard_size` values
  /// into a pending seal, and publishes the outcome once.
  void AppendImpl(std::span<const int64_t> values) {
    const std::shared_ptr<Snapshot> next = Edit();
    const uint64_t shard = options_.shard_size;
    while (!values.empty()) {
      const size_t take = static_cast<size_t>(
          std::min<uint64_t>(shard - next->tail_len_, values.size()));
      ReserveTail(*next, next->tail_len_ + take);
      std::copy_n(values.begin(), take, next->tail_.get() + next->tail_len_);
      next->tail_len_ += take;
      values = values.subspan(take);
      if (next->tail_len_ == shard) SealTail(*next);
    }
    Publish(next);
  }

  /// Gives `next`'s tail room for `need` (<= shard_size) values. The
  /// buffer never grows in place: a larger one (doubling, capped at
  /// shard_size) takes a copy of the prefix, and the old one stays with
  /// the snapshots that hold it.
  void ReserveTail(Snapshot& next, uint64_t need) const {
    if (need <= next.tail_capacity_) return;
    const uint64_t cap = std::min(options_.shard_size,
                                  std::max(need, 2 * next.tail_capacity_));
    std::shared_ptr<int64_t[]> grown(new int64_t[cap]);
    std::copy_n(next.tail_.get(), next.tail_len_, grown.get());
    next.tail_ = std::move(grown);
    next.tail_capacity_ = cap;
  }

  std::string WalPath() const { return dir_ + "/" + WalFileName(); }

  /// Durably logs `values` (at global index size()) before AppendImpl sees
  /// them. A failed log write marks the WAL dirty and rethrows without
  /// mutating the store — the ack contract stays honest — and the next
  /// attempt rewrites the log wholesale from the in-memory tail.
  void LogToWal(std::span<const int64_t> values) {
    if (dir_.empty() || !options_.wal) return;
    if (wal_dirty_) RebuildWal();
    EnsureWal();
    std::vector<uint8_t> record;
    AppendWalRecord(&record, current_->size(), values);
    try {
      wal_->Write({record.data(), record.size()});
      wal_->Sync();
    } catch (...) {
      wal_dirty_ = true;
      throw;
    }
    if (obs_ != nullptr) {
      obs_->registry.Count(obs_->c_wal_records);
      obs_->registry.Count(obs_->c_wal_fsyncs);
    }
  }

  /// Opens (or creates, with a header) the WAL append handle.
  void EnsureWal() {
    if (wal_ != nullptr) return;
    if (!fs_->Exists(WalPath()) || fs_->FileSize(WalPath()) == 0) {
      wal_ = fs_->Create(WalPath());
      std::vector<uint8_t> header;
      AppendWalHeader(&header);
      wal_->Write({header.data(), header.size()});
    } else {
      wal_ = fs_->OpenAppend(WalPath());
    }
  }

  /// After a successful Flush the manifest covers every value, so the WAL
  /// restarts empty — unless shards are quarantined, in which case the old
  /// records are kept: they may be the only copy Scrub() can repair from.
  /// With logging off, only an existing WAL (from an earlier open) is
  /// reset; none is created.
  void ResetWal() {
    if (current_->Degraded() || (!options_.wal && !fs_->Exists(WalPath()))) {
      return;
    }
    wal_ = fs_->Create(WalPath());
    std::vector<uint8_t> header;
    AppendWalHeader(&header);
    wal_->Write({header.data(), header.size()});
    wal_->Sync();
    wal_dirty_ = false;
  }

  /// Rewrites the WAL from the in-memory un-manifested suffix (one record
  /// covering [manifest_total_, size())), atomically via temp + rename.
  /// Recovery of last resort after a failed WAL append.
  void RebuildWal() {
    std::vector<uint8_t> bytes;
    AppendWalHeader(&bytes);
    const Snapshot& view = *current_;
    if (view.size() > manifest_total_) {
      const IndexRange suffix{manifest_total_, view.size() - manifest_total_};
      std::vector<int64_t> values(suffix.len);
      view.Decode({&suffix, 1}, values.data());
      AppendWalRecord(&bytes, manifest_total_,
                      {values.data(), values.size()});
    }
    ReplaceFileDurably(WalPath(), bytes);
    wal_ = fs_->OpenAppend(WalPath());
    wal_dirty_ = false;
  }

  /// OpenDir tail: replays intact WAL records past the manifested prefix
  /// and, if the log ended torn (the expected shape of a crash), rewrites
  /// it to contain exactly the surviving records. Runs whether or not new
  /// appends are logged: the records hold acknowledged values.
  void RecoverWal() {
    if (!fs_->Exists(WalPath())) return;
    const io::MappedRegion map = fs_->OpenRead(WalPath());
    WalReplayResult replay = ReplayWal(map.bytes());
    if (!replay.warning.empty()) {
      report_.warnings.push_back(replay.warning);
      if (obs_ != nullptr) {
        obs_->Log(obs::EventId::kWalTorn, obs::Severity::kWarn,
                  obs::kNoShard, replay.warning);
      }
    }
    bool rewrite = replay.torn;
    size_t usable = replay.records.size();
    for (size_t i = 0; i < replay.records.size(); ++i) {
      const WalRecord& rec = replay.records[i];
      const uint64_t size = current_->size();
      const uint64_t rec_end = rec.first + rec.values.size();
      if (rec_end <= size) continue;  // already manifested (stale)
      if (rec.first > size) {
        // A hole: everything past it cannot be anchored to the store.
        std::string gap = "write-ahead log has a gap at index " +
                          std::to_string(size) + "; discarding " +
                          std::to_string(replay.records.size() - i) +
                          " unanchored record(s)";
        if (obs_ != nullptr) {
          obs_->Log(obs::EventId::kWalGap, obs::Severity::kWarn,
                    obs::kNoShard, gap);
        }
        report_.warnings.push_back(std::move(gap));
        rewrite = true;
        usable = i;
        break;
      }
      const size_t skip = static_cast<size_t>(size - rec.first);
      AppendImpl({rec.values.data() + skip, rec.values.size() - skip});
      if (obs_ != nullptr) obs_->registry.Count(obs_->c_wal_replayed);
    }
    if (rewrite) {
      // Keep every intact record — including stale ones covering
      // manifested shards, which Scrub() may need for repairs.
      std::vector<uint8_t> bytes;
      AppendWalHeader(&bytes);
      for (size_t i = 0; i < usable; ++i) {
        const WalRecord& rec = replay.records[i];
        AppendWalRecord(&bytes, rec.first,
                        {rec.values.data(), rec.values.size()});
      }
      ReplaceFileDurably(WalPath(), bytes);
    }
    wal_ = fs_->OpenAppend(WalPath());
  }

  /// Opens one manifest row at OpenDir through OpenShardBlob; any failure
  /// quarantines the shard instead of throwing.
  std::shared_ptr<const Shard> OpenShard(size_t index,
                                         const StoreManifest::Shard& row) {
    try {
      return OpenShardBlob(index, row);
    } catch (const std::exception& e) {
      std::string why = std::string(e.what()) + " (" + dir_ + "/" +
                        StoreManifest::ShardFileName(index) + ")";
      report_.quarantined.push_back(
          {index, row.first, row.count, row.codec, why});
      if (obs_ != nullptr) {
        obs_->registry.Count(obs_->c_quarantine_in);
        obs_->Log(obs::EventId::kQuarantine, obs::Severity::kError, index,
                  "shard quarantined at open: " + why);
      }
      return std::make_shared<Shard>(row, nullptr, std::move(why));
    }
  }

  /// The one verified path from a shard blob file to a serving row, shared
  /// by OpenDir, Scrub, seal promotion and WAL repair. Shard `index`'s file
  /// must be exactly `row.blob_bytes` plus the checksum trailer, the
  /// trailer valid and its CRC equal to `row.crc`; the payload then opens
  /// through the codec registry and must hold `row.count` values. The new
  /// row keeps the mapping only when the codec borrows it. Throws on any
  /// failure.
  std::shared_ptr<const Shard> OpenShardBlob(
      size_t index, const StoreManifest::Shard& row) const {
    io::MappedRegion map =
        fs_->OpenRead(dir_ + "/" + StoreManifest::ShardFileName(index));
    NEATS_REQUIRE(map.size() == row.blob_bytes + kChecksumTrailerBytes,
                  "store shard blob disagrees with manifest");
    const TrailerInfo trailer = CheckChecksumTrailer(map.bytes());
    NEATS_REQUIRE(trailer.state == TrailerState::kValid,
                  "shard blob fails its checksum");
    NEATS_REQUIRE(trailer.crc == row.crc,
                  "shard blob checksum disagrees with manifest");
    auto s = std::make_shared<Shard>(
        row, CodecRegistry::Open(row.codec, trailer.payload,
                                 /*allow_view=*/true));
    NEATS_REQUIRE(s->series->size() == row.count,
                  "store shard blob disagrees with manifest");
    // A codec that deserialized into owned storage no longer needs the
    // mapping; drop it so the address space mirrors what actually serves.
    if (CodecRegistry::ZeroCopyView(row.codec)) s->map = std::move(map);
    // Queries read the mapping from here on: prefetch it once, at open,
    // rather than hinting on every batch or range call.
    s->map.Advise(MmapFile::Advice::kWillNeed);
    return s;
  }

  /// A quarantined copy of shard `index`'s row, logged (with the flight
  /// recorder's recent events) as a runtime quarantine.
  std::shared_ptr<const Shard> Quarantine(size_t index,
                                          const StoreManifest::Shard& row,
                                          const std::string& why) {
    if (obs_ != nullptr) {
      obs_->registry.Count(obs_->c_quarantine_in);
      obs_->Log(obs::EventId::kQuarantine, obs::Severity::kError, index,
                "shard quarantined: " + why);
      // A runtime quarantine is the flight recorder's moment: ship the
      // last-N-operations context out with the incident.
      obs_->DumpTrace("shard " + std::to_string(index) + " quarantined");
    }
    return std::make_shared<Shard>(row, nullptr, why);
  }

  /// Scrub step 2: re-seal every quarantined shard whose value range is
  /// fully covered by intact WAL records, publishing each as it returns to
  /// service, then rewrite the manifest if anything came back. The
  /// repaired blob replaces the old file by rename, never in place: a
  /// query still on an older snapshot may be reading the old file's
  /// mapping. A shard of a retired codec stays quarantined: no codec can
  /// re-seal it under its manifest id.
  void RepairFromWal() {
    std::vector<size_t> candidates;
    for (size_t i = 0; i < current_->shards_->size(); ++i) {
      const Shard& s = current_->Row(i);
      if (s.series == nullptr &&
          IsRegisteredCodecId(static_cast<uint64_t>(s.codec))) {
        candidates.push_back(i);
      }
    }
    if (candidates.empty()) return;
    WalReplayResult replay;
    if (fs_->Exists(WalPath())) {
      const io::MappedRegion map = fs_->OpenRead(WalPath());
      replay = ReplayWal(map.bytes());
    }
    bool repaired_any = false;
    for (size_t index : candidates) {
      StoreManifest::Shard row = current_->Row(index);
      std::vector<int64_t> values(row.count);
      std::vector<uint8_t> covered(row.count, 0);
      for (const WalRecord& rec : replay.records) {
        const uint64_t lo = std::max(rec.first, row.first);
        const uint64_t hi = std::min(rec.first + rec.values.size(),
                                     row.first + row.count);
        for (uint64_t g = lo; g < hi; ++g) {
          values[g - row.first] = rec.values[g - rec.first];
          covered[g - row.first] = 1;
        }
      }
      if (std::find(covered.begin(), covered.end(), 0) != covered.end()) {
        continue;  // the WAL no longer covers this range; cannot repair
      }
      std::unique_ptr<SealedSeries> series = CodecRegistry::Compress(
          row.codec, {values.data(), values.size()}, options_.neats);
      std::vector<uint8_t> blob;
      series->Serialize(&blob);
      row.blob_bytes = blob.size();
      row.crc = AppendChecksumTrailer(&blob);
      ReplaceFileDurably(dir_ + "/" + StoreManifest::ShardFileName(index),
                         blob);
      auto table = std::make_shared<ShardTable>(*current_->shards_);
      (*table)[index] = CodecRegistry::ZeroCopyView(row.codec)
                            ? OpenShardBlob(index, row)
                            : std::make_shared<Shard>(
                                  row, std::move(series));
      PublishShards(std::move(table));
      report_.repaired.push_back(index);
      repaired_any = true;
      if (obs_ != nullptr) {
        obs_->registry.Count(obs_->c_scrub_repaired);
        obs_->registry.Count(obs_->c_quarantine_out);
        obs_->Log(obs::EventId::kScrubRepair, obs::Severity::kInfo, index,
                  "shard re-sealed from WAL records and returned to "
                  "service");
      }
    }
    // The repaired blobs may differ byte-for-byte from the originals (a
    // re-compression), so the manifest rows must be republished.
    if (repaired_any) WriteManifest();
  }

  /// Refreshes report_.quarantined from the published shard rows.
  void RebuildQuarantineList() {
    report_.quarantined.clear();
    for (size_t i = 0; i < current_->shards_->size(); ++i) {
      const Shard& s = current_->Row(i);
      if (s.series == nullptr) {
        report_.quarantined.push_back(
            {i, s.first, s.count, s.codec, s.quarantine});
      }
    }
  }

  // Declared first so a move assignment replaces it first: the old pool
  // finishes its running seal before the metrics that seal counts into
  // are replaced. (~NeatsStore drains it explicitly.)
  std::unique_ptr<ThreadPool> pool_;

  NeatsStoreOptions options_;
  std::string dir_;  // empty = in-memory store
  io::FileSystem* fs_ = nullptr;  // never null after construction

  // Writer-only state, guarded by writer_mu_.
  uint64_t manifest_total_ = 0;  // values covered by the durable manifest
  size_t next_ordinal_ = 0;      // next shard blob number
  std::unique_ptr<io::WritableFile> wal_;  // open WAL append handle
  bool wal_dirty_ = false;  // a WAL append failed; rebuild before reuse
  RepairReport report_;     // what OpenDir/Scrub found and did

  // The observability wiring (metrics registry, flight recorder, log
  // sink); null when options_.metrics is false. Heap-owned so seal tasks
  // and snapshots hold a pointer that stays valid across store moves.
  std::unique_ptr<store_internal::StoreObs> obs_;

  // Decoded-block LRU over the Gorilla/Chimp shards; null when
  // options_.block_cache_bytes is 0. The cache itself is mutex-guarded, so
  // concurrent queries may populate it.
  std::unique_ptr<DecodedBlockCache> cache_;

  // Serializes the writers (Append, Flush, Scrub) and guards the
  // writer-only state above. Heap-allocated, like publish_mu_, so the
  // store stays movable.
  std::unique_ptr<std::mutex> writer_mu_ = std::make_unique<std::mutex>();

  // The published read state. Queries copy the pointer under publish_mu_
  // and release it before they run; the writer (holding writer_mu_) reads
  // current_ freely and takes publish_mu_ only to swap it (Publish).
  mutable std::unique_ptr<std::mutex> publish_mu_ =
      std::make_unique<std::mutex>();
  std::shared_ptr<const Snapshot> current_;
};

}  // namespace neats
