// The built-in scenario suite: six seeded production-workload shapes
// against a real NeatsStore, every read verified against ground truth.
//
//   steady_ingest_point_storm   one appender + N point-lookup readers
//                               trailing the ingest frontier
//   dashboard_fanout            multi-range refreshes + range sums over a
//                               flushed prefix while a trickle append runs
//   burst_append_during_seal    bursty appends with background seals racing
//                               batched reads over the pending chunks
//   reopen_under_load           OpenDir of a live directory while readers
//                               drain the old handle, both bit-identical
//   mixed_codec_auto_churn      kAuto seal policy over alternating data
//                               shapes -> a mixed-codec store under churn
//   corrupt_shard_recovery      lying-fsync torn shard: typed kUnavailable
//                               under concurrency, Scrub repair under load
//
// Workload sizes scale linearly with ScenarioOptions::scale; scale=1 is
// the smoke size (each scenario well under Debug-seconds), the soak test
// runs scale=4. All randomness flows from ScenarioOptions::seed via
// scenario::Rng streams, so a failure's printed repro line replays the
// exact trace.

#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "datasets/generators.hpp"
#include "io/fault_fs.hpp"
#include "neats/neats.hpp"
#include "scenario/scenario.hpp"

namespace neats::scenario {
namespace scenarios_internal {

// Fingerprint op codes (folded into every trace-hash step).
inline constexpr uint64_t kOpPoint = 1;
inline constexpr uint64_t kOpRange = 2;
inline constexpr uint64_t kOpSum = 3;
inline constexpr uint64_t kOpBatch = 4;
inline constexpr uint64_t kOpAppend = 5;
inline constexpr uint64_t kOpReopen = 6;

/// Step levels with short ramps: compresses under every codec, and any
/// lost / duplicated / misrouted value is detectable (the crash harness
/// uses the same shape).
inline std::vector<int64_t> StepSeries(size_t n, uint64_t seed) {
  Rng rng(seed, /*stream=*/0x57e9);
  std::vector<int64_t> values;
  values.reserve(n);
  int64_t level = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i % 64 == 0) level = static_cast<int64_t>(rng.Below(1000000));
    values.push_back(level + static_cast<int64_t>(i % 7));
  }
  return values;
}

/// One reader task body: `probes` seeded point lookups over [0, n), each
/// awaiting the appender-published frontier before it fires, each verified
/// against `truth`. The shape scenarios 1 and 5 share.
inline void PointStormReader(ScenarioContext& ctx, const NeatsStore& store,
                             const std::vector<int64_t>& truth,
                             const std::atomic<uint64_t>& frontier,
                             const TaskGroup& group, int reader,
                             uint64_t probes) {
  Rng rng(ctx.seed(), static_cast<uint64_t>(reader) + 1);
  uint64_t fp = 0;
  uint64_t verified = 0;
  for (uint64_t p = 0; p < probes; ++p) {
    const uint64_t idx = rng.Below(truth.size());
    fp = MixTraceStep(fp, kOpPoint, idx);
    if (!AwaitFrontier(frontier, idx + 1, group)) return;
    const int64_t got = store.Access(idx);
    ctx.Check(got == truth[idx],
              "point_access[" + std::to_string(idx) + "] = " +
                  std::to_string(got) + ", want " +
                  std::to_string(truth[idx]));
    ++verified;
  }
  ctx.MixTrace(fp);
  ctx.CountVerified(verified);
}

/// The writer side of the storm scenarios: appends `truth` in seeded
/// ragged chunks, publishing the frontier after every acked Append.
inline void ChunkedAppender(ScenarioContext& ctx, NeatsStore& store,
                            const std::vector<int64_t>& truth,
                            std::atomic<uint64_t>* frontier,
                            uint64_t mean_chunk) {
  Rng rng(ctx.seed(), /*stream=*/0xA99E);
  uint64_t fp = 0;
  uint64_t at = 0;
  while (at < truth.size()) {
    const uint64_t n = std::min<uint64_t>(
        truth.size() - at, mean_chunk / 2 + rng.Below(mean_chunk)); // >= 1
    fp = MixTraceStep(fp, kOpAppend, at, n);
    store.Append({truth.data() + at, n});
    at += n;
    frontier->store(at, std::memory_order_release);
  }
  ctx.MixTrace(fp);
  ctx.CountIngested(at);
}

/// Full-range verification once the tasks are joined: the store must hold
/// exactly `truth`, end to end.
inline void VerifyWholeStore(ScenarioContext& ctx, const NeatsStore& store,
                             const std::vector<int64_t>& truth) {
  ctx.Check(store.size() == truth.size(),
            "store size " + std::to_string(store.size()) + ", want " +
                std::to_string(truth.size()));
  std::vector<int64_t> got(truth.size());
  store.DecompressRange(0, got.size(), got.data());
  for (size_t i = 0; i < truth.size(); ++i) {
    ctx.Check(got[i] == truth[i],
              "final sweep diverges at index " + std::to_string(i));
  }
  ctx.CountVerified(truth.size());
}

// --- 1. steady_ingest_point_storm ------------------------------------------

/// One appender streams a sensor series into a Gorilla store (inline
/// seals) while `readers` point-lookup tasks trail the ingest frontier —
/// the canonical write-path/read-path contention shape, with every thread
/// running Gorilla's checkpoint-seek Access against the shards the
/// appender seals.
inline void SteadyIngestPointStorm(ScenarioContext& ctx) {
  const uint64_t n = 16384 * ctx.scale();
  const Dataset ds = MakeDataset("CT", n, ctx.seed());
  NeatsStoreOptions options;
  options.shard_size = 2048;
  options.codec = CodecId::kGorilla;
  options.seal_threads = 1;
  NeatsStore store(options);

  std::atomic<uint64_t> frontier{0};
  TaskGroup group(ctx.readers() + 1);
  group.Spawn([&] { ChunkedAppender(ctx, store, ds.values, &frontier, 512); });
  for (int r = 0; r < ctx.readers(); ++r) {
    group.Spawn([&, r] {
      PointStormReader(ctx, store, ds.values, frontier, group, r,
                       4096 * ctx.scale());
    });
  }
  group.Wait();
  store.Flush();
  VerifyWholeStore(ctx, store, ds.values);
}

// --- 2. dashboard_fanout ----------------------------------------------------

/// Dashboard refreshes over a flushed ALP store: every refresh is one
/// DecompressRanges fan-out of several panel ranges plus a RangeSum,
/// verified value-for-value / against prefix sums, while a trickle
/// appender keeps the writer publishing in the background.
inline void DashboardFanout(ScenarioContext& ctx) {
  const uint64_t n = 32768 * ctx.scale();
  const uint64_t trickle = 2048 * ctx.scale();
  const Dataset ds = MakeDataset("AP", n + trickle, ctx.seed());
  std::vector<int64_t> prefix(n + 1, 0);
  for (uint64_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + ds.values[i];

  io::FaultFs fs;
  NeatsStoreOptions options;
  options.shard_size = 4096;
  options.codec = CodecId::kAlp;
  options.seal_threads = 1;
  options.fs = &fs;
  NeatsStore store = NeatsStore::CreateDir("dashboard", options);
  store.Append({ds.values.data(), n});
  store.Flush();
  ctx.CountIngested(n);

  constexpr uint64_t kPanels = 8;
  TaskGroup group(ctx.readers() + 1);
  group.Spawn([&] {
    // The trickle: small appends with yields — enough writer traffic to
    // surface torn routing or a reader stalled behind the writer.
    Rng rng(ctx.seed(), /*stream=*/0xA99E);
    uint64_t fp = 0;
    uint64_t at = n;
    while (at < n + trickle) {
      const uint64_t take =
          std::min<uint64_t>(n + trickle - at, 32 + rng.Below(96));
      fp = MixTraceStep(fp, kOpAppend, at, take);
      store.Append({ds.values.data() + at, take});
      at += take;
      std::this_thread::yield();
    }
    ctx.MixTrace(fp);
    ctx.CountIngested(at - n);
  });
  for (int r = 0; r < ctx.readers(); ++r) {
    group.Spawn([&, r] {
      Rng rng(ctx.seed(), static_cast<uint64_t>(r) + 1);
      uint64_t fp = 0;
      uint64_t verified = 0;
      std::vector<IndexRange> panels(kPanels);
      std::vector<int64_t> got;
      for (uint64_t q = 0; q < 64 * ctx.scale(); ++q) {
        uint64_t total = 0;
        for (IndexRange& p : panels) {
          p.len = 64 + rng.Below(449);  // 64..512 points per panel
          p.from = rng.Below(n - p.len);
          fp = MixTraceStep(fp, kOpRange, p.from, p.len);
          total += p.len;
        }
        got.resize(total);
        store.DecompressRanges(panels, got.data());
        uint64_t o = 0;
        for (const IndexRange& p : panels) {
          for (uint64_t i = 0; i < p.len; ++i, ++o) {
            ctx.Check(got[o] == ds.values[p.from + i],
                      "panel value diverges at index " +
                          std::to_string(p.from + i));
          }
          verified += p.len;
        }
        const uint64_t len = 128 + rng.Below(4096 - 128);
        const uint64_t from = rng.Below(n - len);
        fp = MixTraceStep(fp, kOpSum, from, len);
        const int64_t sum = store.RangeSum(from, len);
        ctx.Check(sum == prefix[from + len] - prefix[from],
                  "range sum diverges at [" + std::to_string(from) + ", +" +
                      std::to_string(len) + ")");
        ++verified;
      }
      ctx.MixTrace(fp);
      ctx.CountVerified(verified);
    });
  }
  group.Wait();
  store.Flush();
  std::vector<int64_t> all(ds.values.begin(),
                           ds.values.begin() + n + trickle);
  VerifyWholeStore(ctx, store, all);
}

// --- 3. burst_append_during_seal --------------------------------------------

/// Bursty ingest with a background sealer (seal_threads=2): whole shards
/// sit in the pending queue while batched readers probe straight through
/// sealed / pending / tail territory — the promotion path under fire.
inline void BurstAppendDuringSeal(ScenarioContext& ctx) {
  const uint64_t n = 32768 * ctx.scale();
  const std::vector<int64_t> values = StepSeries(n, ctx.seed());
  NeatsStoreOptions options;
  options.shard_size = 1024;
  options.codec = CodecId::kChimp;
  options.seal_threads = 2;  // one background seal worker
  NeatsStore store(options);

  constexpr uint64_t kRounds = 48;
  constexpr uint64_t kBatch = 256;
  std::atomic<uint64_t> frontier{0};
  TaskGroup group(ctx.readers() + 1);
  group.Spawn([&] {
    // Bursts of back-to-back shard-sized appends, then a breath: each
    // burst outruns the sealer, so reads land on pending chunks for real.
    Rng rng(ctx.seed(), /*stream=*/0xA99E);
    uint64_t fp = 0;
    uint64_t at = 0;
    while (at < n) {
      const uint64_t burst = std::min<uint64_t>(n - at, 4096);
      for (uint64_t done = 0; done < burst;) {
        const uint64_t take = std::min<uint64_t>(burst - done, 256);
        fp = MixTraceStep(fp, kOpAppend, at, take);
        store.Append({values.data() + at, take});
        at += take;
        done += take;
        frontier.store(at, std::memory_order_release);
      }
      std::this_thread::yield();
    }
    ctx.MixTrace(fp);
    ctx.CountIngested(at);
  });
  for (int r = 0; r < ctx.readers(); ++r) {
    group.Spawn([&, r] {
      Rng rng(ctx.seed(), static_cast<uint64_t>(r) + 1);
      uint64_t fp = 0;
      uint64_t verified = 0;
      std::vector<uint64_t> idx(kBatch);
      std::vector<int64_t> out(kBatch);
      const uint64_t rounds = kRounds * ctx.scale();
      for (uint64_t q = 0; q < rounds; ++q) {
        // Deterministic per-round horizon: probes reach into data the
        // appender may only just have acked.
        const uint64_t horizon = std::max<uint64_t>((q + 1) * n / rounds, 1);
        if (!AwaitFrontier(frontier, horizon, group)) return;
        for (uint64_t j = 0; j < kBatch; ++j) {
          idx[j] = rng.Below(horizon);
          fp = MixTraceStep(fp, kOpBatch, idx[j]);
        }
        store.AccessBatch(idx, out);
        for (uint64_t j = 0; j < kBatch; ++j) {
          ctx.Check(out[j] == values[idx[j]],
                    "batch_access[" + std::to_string(idx[j]) + "] diverges");
        }
        verified += kBatch;
      }
      ctx.MixTrace(fp);
      ctx.CountVerified(verified);
    });
  }
  group.Wait();
  store.Flush();
  VerifyWholeStore(ctx, store, values);
}

// --- 4. reopen_under_load ---------------------------------------------------

/// A flushed directory store is re-opened (several times) while readers
/// keep draining the old handle: both handles must serve bit-identical
/// values.
inline void ReopenUnderLoad(ScenarioContext& ctx) {
  const uint64_t n = 16384 * ctx.scale();
  const Dataset ds = MakeDataset("UK", n, ctx.seed());
  io::FaultFs fs;
  NeatsStoreOptions options;
  options.shard_size = 2048;
  options.codec = CodecId::kGorilla;
  options.seal_threads = 1;
  options.fs = &fs;
  NeatsStore store = NeatsStore::CreateDir("reopen", options);
  store.Append({ds.values.data(), ds.values.size()});
  store.Flush();
  ctx.CountIngested(n);

  TaskGroup group(ctx.readers() + 1);
  group.Spawn([&] {
    // The reopener: OpenDir the same directory the old handle still
    // serves, then verify seeded probes through the fresh handle.
    Rng rng(ctx.seed(), /*stream=*/0x09E4);
    uint64_t fp = 0;
    uint64_t verified = 0;
    for (uint64_t round = 0; round < 4 * ctx.scale(); ++round) {
      fp = MixTraceStep(fp, kOpReopen, round);
      NeatsStore fresh = NeatsStore::OpenDir("reopen", options);
      ctx.Check(!fresh.degraded(), "fresh handle opened degraded");
      ctx.Check(fresh.size() == n, "fresh handle size diverges");
      for (uint64_t p = 0; p < 512; ++p) {
        const uint64_t idx = rng.Below(n);
        fp = MixTraceStep(fp, kOpPoint, idx);
        const int64_t got = fresh.Access(idx);
        ctx.Check(got == ds.values[idx],
                  "fresh handle diverges at index " + std::to_string(idx));
        ++verified;
      }
    }
    ctx.MixTrace(fp);
    ctx.CountVerified(verified);
  });
  std::atomic<uint64_t> frontier{n};  // fully ingested: readers never wait
  for (int r = 0; r < ctx.readers(); ++r) {
    group.Spawn([&, r] {
      PointStormReader(ctx, store, ds.values, frontier, group, r,
                       2048 * ctx.scale());
    });
  }
  group.Wait();
  VerifyWholeStore(ctx, store, ds.values);
}

// --- 5. mixed_codec_auto_churn ----------------------------------------------

/// Alternating data shapes under SealPolicy::kAuto: ramp segments compress
/// to nothing under the linear-model codecs, noisy-walk segments win under
/// the XOR codecs, so churning appends + periodic flushes grow a genuinely
/// mixed-codec store — with readers trailing the frontier throughout.
inline void MixedCodecAutoChurn(ScenarioContext& ctx) {
  const uint64_t kSegment = 1024;
  const uint64_t segments = 24 * ctx.scale();
  std::vector<int64_t> values;
  values.reserve(segments * kSegment);
  Rng data_rng(ctx.seed(), /*stream=*/0xDA7A);
  for (uint64_t seg = 0; seg < segments; ++seg) {
    if (seg % 2 == 0) {
      // Linear ramp with a small slope: a one-fragment model fit.
      const int64_t base = static_cast<int64_t>(data_rng.Below(1 << 20));
      const int64_t slope = 1 + static_cast<int64_t>(data_rng.Below(7));
      for (uint64_t i = 0; i < kSegment; ++i) {
        values.push_back(base + slope * static_cast<int64_t>(i));
      }
    } else {
      // Jagged random walk: models fragment, XOR codecs shine.
      int64_t level = static_cast<int64_t>(data_rng.Below(1 << 20));
      for (uint64_t i = 0; i < kSegment; ++i) {
        level += static_cast<int64_t>(data_rng.Below(2001)) - 1000;
        values.push_back(level);
      }
    }
  }

  io::FaultFs fs;
  NeatsStoreOptions options;
  options.shard_size = kSegment;
  options.seal_policy = SealPolicy::kAuto;
  options.codec_candidates = {CodecId::kLeco, CodecId::kAlp,
                              CodecId::kGorilla, CodecId::kChimp};
  options.seal_threads = 1;
  options.fs = &fs;
  NeatsStore store = NeatsStore::CreateDir("churn", options);

  std::atomic<uint64_t> frontier{0};
  TaskGroup group(ctx.readers() + 1);
  group.Spawn([&] {
    // Segment-at-a-time appends; a Flush every few segments cycles the
    // WAL/manifest machinery under reader load.
    uint64_t fp = 0;
    for (uint64_t seg = 0; seg < segments; ++seg) {
      fp = MixTraceStep(fp, kOpAppend, seg * kSegment, kSegment);
      store.Append({values.data() + seg * kSegment, kSegment});
      frontier.store((seg + 1) * kSegment, std::memory_order_release);
      if ((seg + 1) % 6 == 0) store.Flush();
    }
    ctx.MixTrace(fp);
    ctx.CountIngested(segments * kSegment);
  });
  for (int r = 0; r < ctx.readers(); ++r) {
    group.Spawn([&, r] {
      PointStormReader(ctx, store, values, frontier, group, r,
                       2048 * ctx.scale());
    });
  }
  group.Wait();
  store.Flush();
  VerifyWholeStore(ctx, store, values);

  std::map<CodecId, size_t> mix;
  for (size_t s = 0; s < store.num_shards(); ++s) ++mix[store.shard_codec(s)];
  std::string codecs;
  for (const auto& [codec, count] : mix) {
    codecs += " " + std::string(CodecName(codec)) + "=" + std::to_string(count);
  }
  ctx.Check(mix.size() >= 2,
            "auto-seal picked a single codec for every shard — codec mix:" +
                codecs);
}

// --- 6. corrupt_shard_recovery ----------------------------------------------

/// The firmware-cache disaster, concurrently: shard 0's blob fsync lied,
/// the process died before the WAL reset, and the blob tore. The reopened
/// store serves degraded under a reader storm — probes into the hole get
/// typed kUnavailable (never a wrong value), probes elsewhere stay exact —
/// then Scrub() repairs from the WAL while the same readers keep firing.
inline void CorruptShardRecovery(ScenarioContext& ctx) {
  const uint64_t n = 2048 * ctx.scale();
  const std::vector<int64_t> values = StepSeries(n, ctx.seed());
  auto base_options = [](io::FaultFs* fs) {
    NeatsStoreOptions options;
    options.shard_size = 512;
    // Inline seals: the injected CrashFault must unwind on the scenario
    // thread, like the power cut it models.
    options.seal_threads = 1;
    options.codec = CodecId::kGorilla;
    options.fs = fs;
    // The quarantine below is the scenario's whole point — keep its log
    // events out of the test output (the counters still record them).
    options.log_sink = obs::NullLogSink();
    return options;
  };
  auto run = [&](io::FaultFs& fs) {
    NeatsStore store = NeatsStore::CreateDir("corrupt", base_options(&fs));
    store.Append({values.data(), values.size()});
    store.Flush();
  };

  // Pass 0, fault-free: locate the WAL reset (the Create right after the
  // final manifest commit's SyncDir) — the kill point that preserves the
  // WAL records Scrub repairs from.
  uint64_t reset_op = 0;
  {
    io::FaultFs fs;
    run(fs);
    for (const io::FaultFs::OpRecord& op : fs.trace()) {
      if (op.kind == io::FaultFs::OpKind::kSyncDir) reset_op = op.index + 1;
    }
    ctx.Check(reset_op != 0, "workload trace has no SyncDir");
  }

  io::FaultFs fs(io::FaultFs::Options{.seed = ctx.seed()});
  fs.LieOnSyncPath(StoreManifest::ShardFileName(0));
  fs.KillAtOp(reset_op);
  bool crashed = false;
  try {
    run(fs);
  } catch (const io::CrashFault&) {
    crashed = true;
  }
  ctx.Check(crashed, "kill point never fired");
  fs.Crash();
  fs.LieOnSyncPath("");  // the firmware behaves from here on

  // The seeded tear may keep any prefix of the never-persisted blob —
  // pin the scenario: shard 0 must actually be torn.
  const std::string shard0 = "corrupt/" + StoreManifest::ShardFileName(0);
  const StoreManifest manifest = StoreManifest::Deserialize(
      fs.ReadRaw(std::string("corrupt/") + StoreManifest::FileName()));
  std::vector<uint8_t> torn = fs.ReadRaw(shard0);
  if (torn.size() == manifest.shards[0].blob_bytes + kChecksumTrailerBytes) {
    torn.resize(torn.size() / 2);
    fs.SetRaw(shard0, torn);
  }

  NeatsStore store = NeatsStore::OpenDir("corrupt", base_options(&fs));
  ctx.Check(store.degraded(), "torn shard was not quarantined");
  const uint64_t hole = 512;  // shard 0's range: [0, 512)
  ctx.CountIngested(n);

  // Phase A (every reader, before Scrub may start): probes into the hole
  // must fail typed — deterministically, since the barrier below keeps
  // the repair from racing them. Phase B: full-range probes racing the
  // repair; a probe either verifies exactly or fails typed, never wrong.
  constexpr uint64_t kHoleProbes = 256;
  std::atomic<int> phase_a_done{0};
  TaskGroup group(ctx.readers());
  for (int r = 0; r < ctx.readers(); ++r) {
    group.Spawn([&, r] {
      Rng rng(ctx.seed(), static_cast<uint64_t>(r) + 1);
      uint64_t fp = 0;
      uint64_t verified = 0, unavailable = 0;
      for (uint64_t p = 0; p < kHoleProbes; ++p) {
        const uint64_t idx = rng.Below(hole);
        fp = MixTraceStep(fp, kOpPoint, idx);
        try {
          const int64_t got = store.Access(idx);
          ctx.Check(false, "quarantined read returned " +
                               std::to_string(got) + " at index " +
                               std::to_string(idx));
        } catch (const Error& e) {
          ctx.Check(e.code() == StatusCode::kUnavailable,
                    "quarantined read failed untyped: " +
                        std::string(e.what()));
          ++unavailable;
        }
      }
      phase_a_done.fetch_add(1, std::memory_order_acq_rel);
      for (uint64_t p = 0; p < 1024 * ctx.scale(); ++p) {
        const uint64_t idx = rng.Below(n);
        fp = MixTraceStep(fp, kOpPoint, idx);
        try {
          const int64_t got = store.Access(idx);
          ctx.Check(got == values[idx],
                    "degraded-store read diverges at index " +
                        std::to_string(idx));
          ++verified;
        } catch (const Error& e) {
          ctx.Check(e.code() == StatusCode::kUnavailable &&
                        idx < hole,
                    "unexpected failure at index " + std::to_string(idx) +
                        ": " + std::string(e.what()));
          ++unavailable;
        }
      }
      ctx.MixTrace(fp);
      ctx.CountVerified(verified);
      ctx.CountUnavailable(unavailable);
    });
  }

  // Scrub under load, once every reader has finished its hole probes.
  while (phase_a_done.load(std::memory_order_acquire) < ctx.readers()) {
    if (group.failed()) break;
    std::this_thread::yield();
  }
  const NeatsStore::RepairReport& report = store.Scrub();
  ctx.Check(report.quarantined.empty(),
            "Scrub left a shard quarantined");
  ctx.Check(report.repaired.size() == 1 && report.repaired[0] == 0,
            "Scrub did not repair shard 0 from the WAL");
  group.Wait();

  ctx.Check(!store.degraded(), "store still degraded after repair");
  VerifyWholeStore(ctx, store, values);

  // The repair is durable: a fresh open is fully healthy.
  NeatsStore again = NeatsStore::OpenDir("corrupt", base_options(&fs));
  ctx.Check(!again.degraded(), "repair did not survive a reopen");
  VerifyWholeStore(ctx, again, values);
}

}  // namespace scenarios_internal

/// The six built-in scenarios, in the order the tests run them.
inline std::span<const Scenario> BuiltinScenarios() {
  using namespace scenarios_internal;
  static constexpr Scenario kBuiltins[] = {
      {"steady_ingest_point_storm", SteadyIngestPointStorm},
      {"dashboard_fanout", DashboardFanout},
      {"burst_append_during_seal", BurstAppendDuringSeal},
      {"reopen_under_load", ReopenUnderLoad},
      {"mixed_codec_auto_churn", MixedCodecAutoChurn},
      {"corrupt_shard_recovery", CorruptShardRecovery},
  };
  return kBuiltins;
}

}  // namespace neats::scenario
