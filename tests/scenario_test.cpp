// The scenario engine's own suite (ISSUE: scenario engine).
//
// Covers the three layers: the latency histogram (bucketing math,
// percentile accuracy, merging), the registry/runner contract (named,
// seeded, deterministic — same seed, same workload trace), and a smoke
// run of every built-in scenario at ctest scale. Plus the two store-layer
// satellites the scenarios lean on: block_cache_stats() accuracy under
// concurrent Access, and reopen-under-load bit-identity on the real
// filesystem.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "datasets/generators.hpp"
#include "scenario/scenarios.hpp"

namespace neats {
namespace {

using obs::LatencyHistogram;
using scenario::BuiltinScenarios;
using scenario::Rng;
using scenario::RunScenario;
using scenario::Scenario;
using scenario::ScenarioOptions;
using scenario::ScenarioRegistry;
using scenario::ScenarioResult;
using scenario::TaskGroup;

// ---------------------------------------------------------------------------
// LatencyHistogram.
// ---------------------------------------------------------------------------

TEST(LatencyHistogram, SmallValuesAreExact) {
  LatencyHistogram h;
  for (uint64_t v = 0; v < LatencyHistogram::kSub; ++v) h.Record(v);
  EXPECT_EQ(h.count(), LatencyHistogram::kSub);
  EXPECT_EQ(h.max(), LatencyHistogram::kSub - 1);
  // With one sample per unit bucket, every quantile is the exact value.
  EXPECT_EQ(h.Percentile(1.0 / LatencyHistogram::kSub), 0u);
  EXPECT_EQ(h.p50(), LatencyHistogram::kSub / 2 - 1);
  EXPECT_EQ(h.Percentile(1.0), LatencyHistogram::kSub - 1);
}

TEST(LatencyHistogram, PercentilesWithinRelativeErrorBound) {
  LatencyHistogram h;
  for (uint64_t v = 1; v <= 100000; ++v) h.Record(v);
  // Bucket width / value <= 2^-kSubBits, so any reported percentile sits
  // within ~3.2% of the true rank value.
  const double bound = 1.0 / (1 << LatencyHistogram::kSubBits);
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const double want = q * 100000;
    const double got = static_cast<double>(h.Percentile(q));
    EXPECT_NEAR(got, want, want * bound) << "q=" << q;
  }
  EXPECT_EQ(h.max(), 100000u);
  EXPECT_NEAR(h.mean(), 50000.5, 1.0);
}

TEST(LatencyHistogram, EmptyReportsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.p50(), 0u);
  EXPECT_EQ(h.p999(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(LatencyHistogram, MergeMatchesCombinedRecording) {
  LatencyHistogram a, b, both;
  Rng rng(99, 0);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t v = rng.Next() % 1000000;
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
  LatencyHistogram h;
  const uint64_t huge = uint64_t{1} << 62;
  h.Record(huge);
  h.Record(1);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max(), huge);
  const double got = static_cast<double>(h.Percentile(1.0));
  EXPECT_NEAR(got, static_cast<double>(huge), static_cast<double>(huge) * 0.04);
}

// ---------------------------------------------------------------------------
// Registry and runner.
// ---------------------------------------------------------------------------

TEST(ScenarioRegistry, BuiltinsRegisteredOnceEach) {
  const ScenarioRegistry& reg = BuiltinScenarios();
  EXPECT_GE(reg.All().size(), 6u);
  for (const char* name :
       {"steady_ingest_point_storm", "dashboard_fanout",
        "burst_append_during_seal", "reopen_under_load",
        "mixed_codec_auto_churn", "corrupt_shard_recovery"}) {
    const Scenario* s = reg.Find(name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_EQ(s->name, name);
    EXPECT_FALSE(s->description.empty());
  }
  EXPECT_EQ(reg.Find("no_such_scenario"), nullptr);
  // Registration is idempotent through the public entry point.
  scenario::RegisterBuiltinScenarios();
  EXPECT_EQ(BuiltinScenarios().All().size(), reg.All().size());
}

TEST(ScenarioRegistry, DuplicateNameRejected) {
  scenario::RegisterBuiltinScenarios();
  EXPECT_THROW(ScenarioRegistry::Instance().Register(
                   {"dashboard_fanout", "dup", [](auto&) {}}),
               Error);
}

// Every built-in runs clean at smoke scale, verifies reads, and reports
// coherent percentiles for every op it timed.
TEST(Scenarios, AllBuiltinsSmoke) {
  ScenarioOptions options;
  options.seed = 3;
  options.scale = 1;
  options.readers = 2;
  for (const Scenario& s : BuiltinScenarios().All()) {
    SCOPED_TRACE(s.name);
    const ScenarioResult r = RunScenario(s, options);
    EXPECT_EQ(r.name, s.name);
    EXPECT_EQ(r.options.seed, options.seed);
    EXPECT_GT(r.values_ingested, 0u);
    EXPECT_GT(r.reads_verified, 0u);
    EXPECT_FALSE(r.ops.empty());
    for (const auto& [op, h] : r.ops) {
      SCOPED_TRACE(op);
      EXPECT_GT(h.count(), 0u);
      EXPECT_LE(h.p50(), h.p99());
      EXPECT_LE(h.p99(), h.p999());
      EXPECT_LE(h.p999(), h.max());
    }
    if (s.name == "corrupt_shard_recovery") {
      // The quarantine window is part of the script: typed failures are
      // counted, never silent.
      EXPECT_GT(r.unavailable_reads, 0u);
    } else {
      EXPECT_EQ(r.unavailable_reads, 0u);
    }
  }
}

// The determinism contract: the workload trace is a pure function of the
// options — same seed, same schedule-independent fingerprint, on every
// built-in; a different seed diverges.
TEST(Scenarios, SameSeedSameTrace) {
  ScenarioOptions options;
  options.seed = 11;
  options.scale = 1;
  options.readers = 2;
  for (const Scenario& s : BuiltinScenarios().All()) {
    SCOPED_TRACE(s.name);
    const ScenarioResult first = RunScenario(s, options);
    const ScenarioResult second = RunScenario(s, options);
    EXPECT_EQ(first.trace_fingerprint, second.trace_fingerprint);
    EXPECT_EQ(first.values_ingested, second.values_ingested);
  }
}

TEST(Scenarios, DifferentSeedDifferentTrace) {
  const Scenario* s = BuiltinScenarios().Find("steady_ingest_point_storm");
  ASSERT_NE(s, nullptr);
  ScenarioOptions options;
  options.readers = 2;
  options.seed = 11;
  const ScenarioResult a = RunScenario(*s, options);
  options.seed = 12;
  const ScenarioResult b = RunScenario(*s, options);
  EXPECT_NE(a.trace_fingerprint, b.trace_fingerprint);
}

// A failing verification must print the one-line repro.
TEST(Scenarios, FailureCarriesReproLine) {
  Scenario bad{"always_fails", "test-only",
               [](scenario::ScenarioContext& ctx) {
                 ctx.Check(false, "synthetic failure");
               }};
  ScenarioOptions options;
  options.seed = 77;
  try {
    RunScenario(bad, options);
    FAIL() << "expected a scenario failure";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("scenario=always_fails"), std::string::npos) << what;
    EXPECT_NE(what.find("seed=77"), std::string::npos) << what;
    EXPECT_NE(what.find("synthetic failure"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// Satellite: block_cache_stats() accuracy under concurrent Access.
// ---------------------------------------------------------------------------

// N threads of scalar Access against block-codec shards with a tiny
// eviction budget: every probe is exactly one cache consult, so
// hits + misses must equal the probe count, and the accounted bytes must
// never exceed the budget even while eviction churns.
TEST(BlockCacheStats, AccurateUnderConcurrentAccess) {
  constexpr uint64_t kN = 16000;
  constexpr uint64_t kShard = 2000;     // 2 Gorilla blocks (1000 values) each
  constexpr uint64_t kBudget = 25000;   // ~3 decoded blocks: constant churn
  constexpr int kThreads = 4;
  constexpr uint64_t kProbesPerThread = 4000;

  const std::vector<int64_t> values =
      scenario::scenarios_internal::StepSeries(kN, 5);
  NeatsStoreOptions options;
  options.shard_size = kShard;
  options.codec = CodecId::kGorilla;
  options.seal_threads = 1;
  options.block_cache_bytes = kBudget;
  NeatsStore store(options);
  store.Append({values.data(), values.size()});
  store.Flush();
  ASSERT_EQ(store.num_shards(), kN / kShard);  // fully sealed: every probe
                                               // goes through the cache

  TaskGroup group(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    group.Spawn([&, t] {
      Rng rng(17, static_cast<uint64_t>(t));
      for (uint64_t p = 0; p < kProbesPerThread; ++p) {
        const uint64_t idx = rng.Below(kN);
        const int64_t got = store.Access(idx);
        if (got != values[idx]) {
          throw Error("cache-path read diverges at " + std::to_string(idx));
        }
      }
    });
  }
  group.Wait();

  const DecodedBlockCache::Stats stats = store.block_cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kProbesPerThread);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.evictions, 0u);  // the budget is 3 blocks of 16: churn
  EXPECT_LE(stats.bytes, kBudget);
  EXPECT_GT(stats.entries, 0u);
}

// ---------------------------------------------------------------------------
// Satellite: reopen-under-load on the real filesystem.
// ---------------------------------------------------------------------------

// Flush + OpenDir of the same directory while readers drain the old
// handle: both handles must serve bit-identical values throughout.
TEST(ReopenUnderLoad, OldAndFreshHandlesBitIdentical) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("neats_scenario_reopen_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  struct Cleanup {
    std::filesystem::path dir;
    ~Cleanup() { std::filesystem::remove_all(dir); }
  } cleanup{dir};

  constexpr uint64_t kN = 8192;
  const Dataset ds = MakeDataset("GE", kN, 21);
  NeatsStoreOptions options;
  options.shard_size = 1024;
  options.codec = CodecId::kGorilla;
  options.seal_threads = 1;
  NeatsStore store = NeatsStore::CreateDir(dir.string(), options);
  store.Append({ds.values.data(), ds.values.size()});
  store.Flush();

  std::atomic<uint64_t> mismatches{0};
  TaskGroup group(3);
  for (int r = 0; r < 2; ++r) {
    group.Spawn([&, r] {  // drain the old handle
      Rng rng(21, static_cast<uint64_t>(r) + 1);
      for (uint64_t p = 0; p < 4096; ++p) {
        const uint64_t idx = rng.Below(kN);
        if (store.Access(idx) != ds.values[idx]) ++mismatches;
      }
    });
  }
  group.Spawn([&] {  // reopen the same directory, repeatedly, while loaded
    Rng rng(21, 99);
    for (int round = 0; round < 3; ++round) {
      NeatsStore fresh = NeatsStore::OpenDir(dir.string(), options);
      if (fresh.degraded() || fresh.size() != kN) {
        ++mismatches;
        return;
      }
      std::vector<int64_t> sweep(kN);
      fresh.DecompressRange(0, kN, sweep.data());
      for (uint64_t i = 0; i < kN; ++i) {
        if (sweep[i] != ds.values[i]) ++mismatches;
      }
      for (uint64_t p = 0; p < 1024; ++p) {
        const uint64_t idx = rng.Below(kN);
        if (fresh.Access(idx) != ds.values[idx]) ++mismatches;
      }
    }
  });
  group.Wait();
  EXPECT_EQ(mismatches.load(), 0u);
}

// ---------------------------------------------------------------------------
// Satellite: the generator seed is explicit and recorded.
// ---------------------------------------------------------------------------

TEST(Generators, SeedIsExplicitAndRecorded) {
  const Dataset a = MakeDataset("CT", 4096, 1);
  const Dataset b = MakeDataset("CT", 4096, 1);
  const Dataset c = MakeDataset("CT", 4096, 2);
  EXPECT_EQ(a.seed, 1u);
  EXPECT_EQ(c.seed, 2u);
  EXPECT_EQ(a.values, b.values);   // same seed, same data
  EXPECT_NE(a.values, c.values);   // different seed, different data
}

}  // namespace
}  // namespace neats
