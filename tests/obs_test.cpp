// Tests for the observability layer (src/obs/): the latency histogram's
// bucketing, percentile accuracy and merging, exact concurrent counter
// totals through the per-thread slab registry, deterministic sampling
// ticks, snapshot coherence while recording threads are live, flight-
// recorder wraparound and torn-read protection under concurrent writers,
// the store's metrics cross-checked against ground-truth op counts, and
// the dump-on-quarantine + Scrub-repair log/counter contract end to end.
// The TSan CI job runs this binary alongside store_test and scenario_test.

#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "io/text_io.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/log_sink.hpp"
#include "store/neats_store.hpp"
#include "store/wal.hpp"

namespace neats {
namespace {

// ---------------------------------------------------------------------------
// LatencyHistogram contract.
// ---------------------------------------------------------------------------

// Pins the empty-histogram contract the exposition layer relies on: all
// percentiles (and max / count / sum) of a histogram nothing was recorded
// into are exactly zero, never a sentinel or a bucket lower bound.
TEST(LatencyHistogram, EmptyPercentilesAreZero) {
  obs::LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.p50(), 0u);
  EXPECT_EQ(h.p99(), 0u);
  EXPECT_EQ(h.p999(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(LatencyHistogram, SmallValuesAreExact) {
  obs::LatencyHistogram h;
  for (uint64_t v = 0; v < obs::LatencyHistogram::kSub; ++v) h.Record(v);
  EXPECT_EQ(h.count(), obs::LatencyHistogram::kSub);
  EXPECT_EQ(h.max(), obs::LatencyHistogram::kSub - 1);
  // With one sample per unit bucket, every quantile is the exact value.
  EXPECT_EQ(h.Percentile(1.0 / obs::LatencyHistogram::kSub), 0u);
  EXPECT_EQ(h.p50(), obs::LatencyHistogram::kSub / 2 - 1);
  EXPECT_EQ(h.Percentile(1.0), obs::LatencyHistogram::kSub - 1);
}

TEST(LatencyHistogram, PercentilesWithinRelativeErrorBound) {
  obs::LatencyHistogram h;
  for (uint64_t v = 1; v <= 100000; ++v) h.Record(v);
  // Bucket width / value <= 2^-kSubBits, so any reported percentile sits
  // within ~3.2% of the true rank value.
  const double bound = 1.0 / (1 << obs::LatencyHistogram::kSubBits);
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const double want = q * 100000;
    const double got = static_cast<double>(h.Percentile(q));
    EXPECT_NEAR(got, want, want * bound) << "q=" << q;
  }
  EXPECT_EQ(h.max(), 100000u);
  EXPECT_NEAR(h.mean(), 50000.5, 1.0);
}

TEST(LatencyHistogram, MergeMatchesCombinedRecording) {
  obs::LatencyHistogram a, b, both;
  std::mt19937_64 rng(99);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t v = rng() % 1000000;
    (i % 2 == 0 ? a : b).Record(v);
    both.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.max(), both.max());
  for (double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(a.Percentile(q), both.Percentile(q)) << "q=" << q;
  }
}

TEST(LatencyHistogram, HugeValuesBucketSanely) {
  obs::LatencyHistogram h;
  const uint64_t huge = uint64_t{1} << 62;
  h.Record(huge);
  h.Record(1);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max(), huge);
  const double got = static_cast<double>(h.Percentile(1.0));
  EXPECT_NEAR(got, static_cast<double>(huge), static_cast<double>(huge) * 0.04);
}

// ---------------------------------------------------------------------------
// MetricsRegistry.
// ---------------------------------------------------------------------------

// Counters are exact, not sampled: N threads hammering the same counter
// through their per-thread slabs must merge to exactly N * per-thread ops
// once joined. Histograms recorded concurrently keep an exact count too.
TEST(MetricsRegistry, ExactConcurrentTotals) {
  obs::MetricsRegistry registry;
  const obs::CounterId ops = registry.AddCounter("ops");
  const obs::HistogramId lat = registry.AddHistogram("lat");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        registry.Count(ops);
        registry.Record(lat, (i % 1000) + static_cast<uint64_t>(t));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(registry.CounterValue(ops), kThreads * kPerThread);
  const obs::LatencyHistogram merged = registry.HistogramValue(lat);
  EXPECT_EQ(merged.count(), kThreads * kPerThread);
  EXPECT_GT(merged.p50(), 0u);
  EXPECT_LE(merged.p50(), merged.max());
}

// The sampling countdown is per-thread and deterministic: with every=4 a
// thread's ticks land on its 1st, 5th, 9th, ... call — 25 per 100 calls —
// regardless of what other threads do to the same histogram id.
TEST(MetricsRegistry, TickIsPerThreadDeterministic) {
  obs::MetricsRegistry registry;
  const obs::HistogramId lat = registry.AddHistogram("lat");
  constexpr int kThreads = 4;
  std::vector<uint64_t> ticks(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      bool first_call_ticked = false;
      for (int i = 0; i < 100; ++i) {
        const bool tick = registry.Tick(lat, 4);
        if (i == 0) first_call_ticked = tick;
        if (tick) ++ticks[static_cast<size_t>(t)];
      }
      EXPECT_TRUE(first_call_ticked);  // countdown starts at 1
    });
  }
  for (auto& th : threads) th.join();
  for (uint64_t t : ticks) EXPECT_EQ(t, 25u);
}

// CountAndTick is the fused hot-path form of Count followed by Tick: same
// counter total, same sampling cadence.
TEST(MetricsRegistry, CountAndTickMatchesSeparateCalls) {
  obs::MetricsRegistry fused;
  const obs::CounterId fc = fused.AddCounter("ops");
  const obs::HistogramId fh = fused.AddHistogram("lat");
  obs::MetricsRegistry split;
  const obs::CounterId sc = split.AddCounter("ops");
  const obs::HistogramId sh = split.AddHistogram("lat");
  uint64_t fused_ticks = 0, split_ticks = 0;
  for (int i = 0; i < 1000; ++i) {
    if (fused.CountAndTick(fc, fh, 7)) ++fused_ticks;
    split.Count(sc);
    if (split.Tick(sh, 7)) ++split_ticks;
  }
  EXPECT_EQ(fused.CounterValue(fc), split.CounterValue(sc));
  EXPECT_EQ(fused_ticks, split_ticks);
  EXPECT_GT(fused_ticks, 0u);
}

// Snapshots taken while writers are live must be coherent (TSan-clean,
// monotone, never overshooting the final total) even though they merge
// relaxed per-thread cells.
TEST(MetricsRegistry, SnapshotWhileRecording) {
  obs::MetricsRegistry registry;
  const obs::CounterId ops = registry.AddCounter("ops");
  const obs::HistogramId lat = registry.AddHistogram("lat");
  constexpr uint64_t kTotal = 200000;
  std::thread writer([&] {
    for (uint64_t i = 0; i < kTotal; ++i) {
      registry.Count(ops);
      if (registry.Tick(lat, 16)) registry.Record(lat, i % 512);
    }
  });
  uint64_t last = 0;
  for (int s = 0; s < 50; ++s) {
    const obs::MetricsSnapshot snap = registry.Snapshot();
    const uint64_t* v = snap.counter("ops");
    ASSERT_NE(v, nullptr);
    EXPECT_GE(*v, last);
    EXPECT_LE(*v, kTotal);
    last = *v;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  writer.join();
  EXPECT_EQ(registry.CounterValue(ops), kTotal);
}

// ---------------------------------------------------------------------------
// FlightRecorder.
// ---------------------------------------------------------------------------

// A full ring keeps exactly the newest `capacity` events, oldest-first.
TEST(FlightRecorder, WraparoundKeepsNewest) {
  obs::FlightRecorder ring(8);
  ASSERT_EQ(ring.capacity(), 8u);
  for (uint64_t i = 0; i < 20; ++i) {
    ring.Record(obs::EventId::kAccess, obs::TraceTier::kSealed, 0,
                /*codec=*/2, /*shard=*/i % 3, /*arg=*/i * 10, /*len=*/1,
                /*dur_ns=*/i + 100);
  }
  EXPECT_EQ(ring.recorded(), 20u);
  const std::vector<obs::TraceEvent> events = ring.Dump();
  ASSERT_EQ(events.size(), 8u);
  for (size_t k = 0; k < events.size(); ++k) {
    const uint64_t i = 12 + k;  // survivors are tickets 12..19, in order
    EXPECT_EQ(events[k].seq, i);
    EXPECT_EQ(events[k].op, obs::EventId::kAccess);
    EXPECT_EQ(events[k].tier, obs::TraceTier::kSealed);
    EXPECT_EQ(events[k].codec, 2u);
    EXPECT_EQ(events[k].shard, i % 3);
    EXPECT_EQ(events[k].arg, i * 10);
    EXPECT_EQ(events[k].duration_ns, i + 100);
  }
  EXPECT_NE(obs::TraceText(events).find("access"), std::string::npos);
}

// Concurrent writers lapping the ring while a reader dumps: every dumped
// event must be internally consistent (the seqlock forbids stitching
// fields from two different writes together). Each write carries a
// self-checking relation between its fields.
TEST(FlightRecorder, TornReadsNeverSurface) {
  obs::FlightRecorder ring(16);
  constexpr int kWriters = 4;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (uint64_t i = 0; i < 20000; ++i) {
        const uint64_t x = (static_cast<uint64_t>(w) << 32) | i;
        ring.Record(obs::EventId::kAccess, obs::TraceTier::kTail, 0,
                    /*codec=*/static_cast<uint32_t>(w), /*shard=*/x,
                    /*arg=*/x * 3 + 1, /*len=*/1, /*dur_ns=*/7);
      }
    });
  }
  // While writers lap the ring at full speed a dump may legitimately come
  // back short (slots caught mid-write are skipped, never stitched) — the
  // invariant under the race is only consistency of what IS returned.
  for (int d = 0; d < 200; ++d) {
    for (const obs::TraceEvent& e : ring.Dump()) {
      EXPECT_EQ(e.arg, e.shard * 3 + 1);  // fields from one write, always
      EXPECT_LT(e.codec, static_cast<uint32_t>(kWriters));
    }
  }
  for (auto& th : writers) th.join();
  EXPECT_EQ(ring.recorded(), uint64_t{kWriters} * 20000);
  // Quiesced, the ring yields a full, ordered, consistent dump.
  const std::vector<obs::TraceEvent> final_dump = ring.Dump();
  EXPECT_EQ(final_dump.size(), ring.capacity());
  for (size_t k = 0; k < final_dump.size(); ++k) {
    const obs::TraceEvent& e = final_dump[k];
    EXPECT_EQ(e.arg, e.shard * 3 + 1);
    if (k > 0) {
      EXPECT_GT(e.seq, final_dump[k - 1].seq);
    }
  }
}

// ---------------------------------------------------------------------------
// Store integration: metrics vs ground truth.
// ---------------------------------------------------------------------------

std::vector<int64_t> RampSeries(size_t n) {
  std::vector<int64_t> values(n);
  for (size_t i = 0; i < n; ++i) {
    values[i] = static_cast<int64_t>(i * 7 + (i % 13));
  }
  return values;
}

std::string TempDir(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("neats_obs_test_") + tag + "_" +
           std::to_string(static_cast<unsigned long long>(
               std::chrono::steady_clock::now().time_since_epoch().count()))))
      .string();
}

// The trace events of `op` in `trace`, oldest first.
std::vector<obs::TraceEvent> EventsOf(const std::vector<obs::TraceEvent>& trace,
                                      obs::EventId op) {
  std::vector<obs::TraceEvent> out;
  for (const obs::TraceEvent& e : trace) {
    if (e.op == op) out.push_back(e);
  }
  return out;
}

// With latency_sample_every=1 every op is timed, so the store's counters
// AND histogram counts must equal the exact number of ops the test issued,
// and the trace ring holds one event per op with its argument and length.
TEST(NeatsStoreObs, MetricsMatchGroundTruth) {
  const std::vector<int64_t> values = RampSeries(4096);
  NeatsStoreOptions options;
  options.shard_size = 1024;
  options.latency_sample_every = 1;
  NeatsStore store(options);
  store.Append({values.data(), 2000});
  store.Append({values.data() + 2000, values.size() - 2000});
  store.Flush();

  // The write ops' events, read before the accesses below lap the ring.
  {
    const std::vector<obs::TraceEvent> trace = store.TraceDump();
    const std::vector<obs::TraceEvent> appends =
        EventsOf(trace, obs::EventId::kAppend);
    ASSERT_EQ(appends.size(), 2u);
    EXPECT_EQ(appends[0].arg, 0u);
    EXPECT_EQ(appends[0].len, 2000u);
    EXPECT_EQ(appends[1].arg, 2000u);
    EXPECT_EQ(appends[1].len, values.size() - 2000);
    const std::vector<obs::TraceEvent> flushes =
        EventsOf(trace, obs::EventId::kFlush);
    ASSERT_EQ(flushes.size(), 1u);
    EXPECT_EQ(flushes[0].arg, values.size());
    EXPECT_EQ(flushes[0].len, 0u);
    for (const obs::TraceEvent& e : appends) EXPECT_EQ(e.status, 0u);
    EXPECT_EQ(flushes[0].status, 0u);
  }

  constexpr uint64_t kAccesses = 300;
  for (uint64_t i = 0; i < kAccesses; ++i) {
    ASSERT_EQ(store.Access((i * 37) % values.size()),
              values[(i * 37) % values.size()]);
  }
  std::vector<uint64_t> idx = {3, 900, 1500, 2100, 4000};
  std::vector<int64_t> out(idx.size());
  store.AccessBatch(idx, out);
  std::vector<int64_t> range(512);
  store.DecompressRange(1000, range.size(), range.data());
  (void)store.RangeSum(100, 700);
  const std::vector<IndexRange> ranges = {{10, 20}, {3000, 1000}};
  std::vector<int64_t> multi(20 + 1000);
  store.DecompressRanges(ranges, multi.data());

  ASSERT_TRUE(store.metrics_enabled());
  const obs::MetricsSnapshot snap = store.StatsSnapshot();
  EXPECT_EQ(*snap.counter("access.ops"), kAccesses);
  EXPECT_EQ(snap.histogram("access")->count(), kAccesses);
  EXPECT_EQ(*snap.counter("access_batch.calls"), 1u);
  EXPECT_EQ(*snap.counter("access_batch.probes"), idx.size());
  EXPECT_EQ(snap.histogram("access_batch")->count(), 1u);
  EXPECT_EQ(*snap.counter("range.calls"), 2u);
  EXPECT_EQ(*snap.counter("range.values"), range.size() + multi.size());
  EXPECT_EQ(snap.histogram("range")->count(), 2u);
  EXPECT_EQ(*snap.counter("range_sum.calls"), 1u);
  EXPECT_EQ(*snap.counter("range_sum.values"), 700u);
  EXPECT_EQ(snap.histogram("range_sum")->count(), 1u);
  EXPECT_EQ(snap.histogram("append")->count(), 2u);
  EXPECT_EQ(snap.histogram("flush")->count(), 1u);
  EXPECT_EQ(*snap.counter("append.calls"), 2u);
  EXPECT_EQ(*snap.counter("append.values"), values.size());
  EXPECT_EQ(*snap.counter("bytes.in"), values.size() * sizeof(int64_t));
  EXPECT_EQ(*snap.counter("flush.calls"), 1u);
  EXPECT_EQ(*snap.counter("seal.count"), store.num_shards());
  EXPECT_EQ(*snap.counter("errors"), 0u);
  EXPECT_EQ(*snap.gauge("store.values"),
            static_cast<int64_t>(values.size()));
  EXPECT_EQ(*snap.gauge("store.quarantined_shards"), 0);
  // bytes.out is derived from the served-value counters at snapshot time.
  EXPECT_EQ(*snap.counter("bytes.out"),
            (kAccesses + idx.size() + range.size() + 700 + multi.size()) *
                sizeof(int64_t));
  EXPECT_GT(snap.histogram("access")->p50(), 0u);
  EXPECT_GE(snap.histogram("access")->p99(),
            snap.histogram("access")->p50());

  // The trace ring saw the sampled ops; the newest events decode.
  const std::vector<obs::TraceEvent> trace = store.TraceDump();
  ASSERT_FALSE(trace.empty());
  EXPECT_NE(obs::TraceText(trace).find("dur_ns"), std::string::npos);

  // One event per query op, carrying its op id, argument and length.
  struct Expected {
    obs::EventId op;
    uint64_t arg, len;
  };
  const std::vector<obs::TraceEvent> batches =
      EventsOf(trace, obs::EventId::kAccessBatch);
  ASSERT_EQ(batches.size(), 1u);
  const std::vector<obs::TraceEvent> range_events =
      EventsOf(trace, obs::EventId::kRange);
  ASSERT_EQ(range_events.size(), 2u);
  const std::vector<obs::TraceEvent> sums =
      EventsOf(trace, obs::EventId::kRangeSum);
  ASSERT_EQ(sums.size(), 1u);
  const std::pair<const obs::TraceEvent*, Expected> checks[] = {
      {&batches[0], {obs::EventId::kAccessBatch, idx[0], idx.size()}},
      {&range_events[0], {obs::EventId::kRange, 1000, range.size()}},
      {&range_events[1], {obs::EventId::kRange, 10, multi.size()}},
      {&sums[0], {obs::EventId::kRangeSum, 100, 700}},
  };
  for (const auto& [e, want] : checks) {
    SCOPED_TRACE(obs::EventName(want.op));
    EXPECT_EQ(e->op, want.op);
    EXPECT_EQ(e->arg, want.arg);
    EXPECT_EQ(e->len, want.len);
    EXPECT_EQ(e->status, 0u);
  }
}

// A traced Access on a sealed Gorilla shard records the tier that answered
// it: the shard's own codec path (`sealed`), with the shard and codec it
// routed to.
TEST(NeatsStoreObs, GorillaAccessTracesSealedTier) {
  const std::vector<int64_t> values = RampSeries(3000);
  NeatsStoreOptions options;
  options.shard_size = 1024;
  options.codec = CodecId::kGorilla;
  options.latency_sample_every = 1;
  NeatsStore store(options);
  store.Append(values);
  store.Flush();
  ASSERT_EQ(store.num_shards(), 3u);

  const std::vector<uint64_t> probes = {5, 5, 1500, 2999};
  for (uint64_t i : probes) ASSERT_EQ(store.Access(i), values[i]);
  const std::vector<obs::TraceEvent> accesses =
      EventsOf(store.TraceDump(), obs::EventId::kAccess);
  ASSERT_EQ(accesses.size(), probes.size());
  for (size_t k = 0; k < probes.size(); ++k) {
    SCOPED_TRACE(probes[k]);
    EXPECT_EQ(accesses[k].arg, probes[k]);
    EXPECT_EQ(accesses[k].tier, obs::TraceTier::kSealed);
    EXPECT_STREQ(obs::TraceTierName(accesses[k].tier), "sealed");
    EXPECT_EQ(accesses[k].codec, static_cast<uint32_t>(CodecId::kGorilla));
    EXPECT_STREQ(CodecName(static_cast<CodecId>(accesses[k].codec)),
                 "gorilla");
    EXPECT_EQ(accesses[k].shard, probes[k] / options.shard_size);
  }
}

// metrics=false is a true off switch: no registry, empty snapshots, empty
// trace, and every operation still serves correctly.
TEST(NeatsStoreObs, DisabledMetricsMeansEmptySnapshots) {
  const std::vector<int64_t> values = RampSeries(1024);
  NeatsStoreOptions options;
  options.shard_size = 512;
  options.metrics = false;
  NeatsStore store(options);
  store.Append({values.data(), values.size()});
  store.Flush();
  for (uint64_t i = 0; i < values.size(); i += 97) {
    ASSERT_EQ(store.Access(i), values[i]);
  }
  EXPECT_FALSE(store.metrics_enabled());
  const obs::MetricsSnapshot snap = store.StatsSnapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.histograms.empty());
  EXPECT_TRUE(store.TraceDump().empty());
}

// ---------------------------------------------------------------------------
// Dump-on-quarantine + Scrub repair: the structured-log contract.
// ---------------------------------------------------------------------------

// The incident pipeline end to end: a shard blob rots on disk after open,
// Scrub quarantines it (one kQuarantine log event carrying the shard, one
// kTraceDump event shipping the last-operations context), the hand-planted
// WAL coverage lets the same Scrub repair it (kScrubRepair), and the
// counters record exactly one entry into and one exit out of quarantine.
TEST(NeatsStoreObs, DumpOnQuarantineAndScrubRepair) {
  const std::string dir = TempDir("quarantine");
  const std::vector<int64_t> values = RampSeries(768);
  {
    NeatsStoreOptions options;
    options.shard_size = 256;
    NeatsStore store = NeatsStore::CreateDir(dir, options);
    store.Append({values.data(), values.size()});
    store.Flush();
  }

  // Plant WAL records covering shard 0's range [0, 256): the copy Scrub
  // repairs from (a clean Flush resets the WAL, so recovery of a sealed
  // shard needs exactly this shape — the crash scenarios produce it by
  // dying before the reset).
  std::vector<uint8_t> wal;
  AppendWalHeader(&wal);
  AppendWalRecord(&wal, 0, {values.data(), 256});
  WriteFile(dir + "/" + WalFileName(), wal);

  std::vector<obs::LogEvent> events;
  NeatsStoreOptions options;
  options.shard_size = 256;
  options.latency_sample_every = 1;
  options.log_sink = [&events](const obs::LogEvent& e) {
    events.push_back(e);
  };
  NeatsStore store = NeatsStore::OpenDir(dir, options);
  ASSERT_FALSE(store.degraded());
  for (uint64_t i = 300; i < 320; ++i) {  // populate the trace ring
    ASSERT_EQ(store.Access(i), values[i]);
  }

  // Bit rot: flip one payload byte of shard 0's blob on disk.
  const std::string shard0 = dir + "/" + StoreManifest::ShardFileName(0);
  std::vector<uint8_t> blob = ReadFile(shard0);
  blob[blob.size() / 2] ^= 0x40;
  WriteFile(shard0, blob);

  const NeatsStore::RepairReport& report = store.Scrub();
  ASSERT_EQ(report.repaired.size(), 1u);
  EXPECT_EQ(report.repaired[0], 0u);
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_FALSE(store.degraded());
  for (uint64_t i = 0; i < values.size(); i += 17) {
    ASSERT_EQ(store.Access(i), values[i]);  // repaired shard serves again
  }

  // The log stream told the whole story, in order, with the shard id.
  auto find = [&](obs::EventId id) -> const obs::LogEvent* {
    for (const obs::LogEvent& e : events) {
      if (e.id == id) return &e;
    }
    return nullptr;
  };
  const obs::LogEvent* quarantine = find(obs::EventId::kQuarantine);
  ASSERT_NE(quarantine, nullptr);
  EXPECT_EQ(quarantine->severity, obs::Severity::kError);
  EXPECT_EQ(quarantine->shard, 0u);
  const obs::LogEvent* dump = find(obs::EventId::kTraceDump);
  ASSERT_NE(dump, nullptr);
  EXPECT_NE(dump->message.find("recent operations"), std::string::npos);
  EXPECT_NE(dump->message.find("access"), std::string::npos);
  const obs::LogEvent* repair = find(obs::EventId::kScrubRepair);
  ASSERT_NE(repair, nullptr);
  EXPECT_EQ(repair->severity, obs::Severity::kInfo);
  EXPECT_EQ(repair->shard, 0u);

  const obs::MetricsSnapshot snap = store.StatsSnapshot();
  EXPECT_EQ(*snap.counter("quarantine.entered"), 1u);
  EXPECT_EQ(*snap.counter("quarantine.exited"), 1u);
  EXPECT_EQ(*snap.counter("scrub.repaired"), 1u);
  EXPECT_EQ(*snap.counter("scrub.calls"), 1u);
  EXPECT_EQ(snap.histogram("scrub")->count(), 1u);
  std::filesystem::remove_all(dir);
}

// An access routed into a quarantined range is counted as an error and
// traced, but must NOT emit a log event per failing query (a probe storm
// into a hole would flood the sink; the quarantine itself already logged).
TEST(NeatsStoreObs, QuarantinedReadsCountErrorsWithoutLogSpam) {
  const std::string dir = TempDir("errstorm");
  const std::vector<int64_t> values = RampSeries(512);
  {
    NeatsStoreOptions options;
    options.shard_size = 256;
    NeatsStore store = NeatsStore::CreateDir(dir, options);
    store.Append({values.data(), values.size()});
    store.Flush();
  }
  const std::string shard0 = dir + "/" + StoreManifest::ShardFileName(0);
  std::vector<uint8_t> blob = ReadFile(shard0);
  blob.resize(blob.size() - 8);  // torn: quarantined at open
  WriteFile(shard0, blob);

  std::vector<obs::LogEvent> events;
  NeatsStoreOptions options;
  options.shard_size = 256;
  options.log_sink = [&events](const obs::LogEvent& e) {
    events.push_back(e);
  };
  NeatsStore store = NeatsStore::OpenDir(dir, options);
  ASSERT_TRUE(store.degraded());
  ASSERT_EQ(store.recovery_report().quarantined.size(), 1u);
  EXPECT_EQ(store.recovery_report().quarantined[0].event,
            obs::EventId::kQuarantine);
  const size_t events_after_open = events.size();

  constexpr uint64_t kProbes = 50;
  uint64_t unavailable = 0;
  for (uint64_t p = 0; p < kProbes; ++p) {
    try {
      (void)store.Access(p % 256);
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), StatusCode::kUnavailable);
      ++unavailable;
    }
  }
  EXPECT_EQ(unavailable, kProbes);

  // Every other query op aimed into the quarantined shard throws the same
  // typed error, counts one error and leaves a trace event with its op id,
  // argument and status.
  const uint16_t kUnavailableStatus =
      static_cast<uint16_t>(StatusCode::kUnavailable);
  const std::vector<uint64_t> idx = {300, 7, 400};
  std::vector<int64_t> out(idx.size());
  const std::vector<IndexRange> ranges = {{5, 10}, {300, 10}};
  std::vector<int64_t> buf(100);
  struct QueryOp {
    obs::EventId op;
    uint64_t arg;
    std::function<void()> run;
  };
  const QueryOp ops[] = {
      {obs::EventId::kAccessBatch, idx[0],
       [&] { store.AccessBatch(idx, out); }},
      {obs::EventId::kRange, 20,
       [&] { store.DecompressRange(20, 100, buf.data()); }},
      {obs::EventId::kRange, 5,
       [&] { store.DecompressRanges(ranges, buf.data()); }},
      {obs::EventId::kRangeSum, 30, [&] { (void)store.RangeSum(30, 300); }},
  };
  uint64_t errors = kProbes;
  for (const QueryOp& q : ops) {
    SCOPED_TRACE(obs::EventName(q.op));
    try {
      q.run();
      ADD_FAILURE() << "query into a quarantined shard did not throw";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), StatusCode::kUnavailable);
    }
    ++errors;
    EXPECT_EQ(*store.StatsSnapshot().counter("errors"), errors);
    const std::vector<obs::TraceEvent> trace = store.TraceDump();
    ASSERT_FALSE(trace.empty());
    const obs::TraceEvent& last = trace.back();
    EXPECT_EQ(last.op, q.op);
    EXPECT_EQ(last.arg, q.arg);
    EXPECT_EQ(last.status, kUnavailableStatus);
  }

  EXPECT_EQ(events.size(), events_after_open);  // no per-query log spam
  const obs::MetricsSnapshot snap = store.StatsSnapshot();
  EXPECT_EQ(*snap.counter("errors"), kProbes + std::size(ops));
  EXPECT_EQ(*snap.counter("quarantine.entered"), 1u);
  EXPECT_EQ(*snap.gauge("store.quarantined_shards"), 1);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace neats
