// The scenario engine's own suite.
//
// Covers the built-in table and the runner contract (named, seeded,
// deterministic — same seed, same workload trace), a smoke run of every
// built-in scenario and a soak run at four times that size. Plus the two
// store-layer satellites the scenarios lean on: exact Gorilla reads from
// concurrent threads, and reopen-under-load bit-identity on the real
// filesystem.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "datasets/generators.hpp"
#include "scenario/scenarios.hpp"

namespace neats {
namespace {

using scenario::BuiltinScenarios;
using scenario::Rng;
using scenario::RunScenario;
using scenario::Scenario;
using scenario::ScenarioOptions;
using scenario::ScenarioResult;
using scenario::TaskGroup;

// ---------------------------------------------------------------------------
// The built-in table and the runner.
// ---------------------------------------------------------------------------

TEST(Scenarios, BuiltinTableHasTheSixByName) {
  const std::vector<std::string_view> want = {
      "steady_ingest_point_storm", "dashboard_fanout",
      "burst_append_during_seal",  "reopen_under_load",
      "mixed_codec_auto_churn",    "corrupt_shard_recovery"};
  ASSERT_EQ(BuiltinScenarios().size(), want.size());
  std::set<std::string_view> names;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(BuiltinScenarios()[i].name, want[i]);
    EXPECT_NE(BuiltinScenarios()[i].run, nullptr);
    names.insert(BuiltinScenarios()[i].name);
  }
  EXPECT_EQ(names.size(), want.size());
}

// Runs every built-in with `options` and checks what each one verified.
void RunAllBuiltins(const ScenarioOptions& options) {
  for (const Scenario& s : BuiltinScenarios()) {
    SCOPED_TRACE(s.name);
    const ScenarioResult r = RunScenario(s, options);
    EXPECT_EQ(r.name, s.name);
    EXPECT_EQ(r.options.seed, options.seed);
    EXPECT_GT(r.values_ingested, 0u);
    EXPECT_GT(r.reads_verified, 0u);
    if (s.name == "corrupt_shard_recovery") {
      // The quarantine window is part of the script: typed failures are
      // counted, never silent.
      EXPECT_GT(r.unavailable_reads, 0u);
    } else {
      EXPECT_EQ(r.unavailable_reads, 0u);
    }
  }
}

// Every built-in runs clean at smoke scale and verifies reads.
TEST(Scenarios, AllBuiltinsSmoke) {
  ScenarioOptions options;
  options.seed = 3;
  options.scale = 1;
  options.readers = 2;
  RunAllBuiltins(options);
}

// The soak sweep: every built-in at four times the smoke size.
TEST(Scenarios, AllBuiltinsAtSoakScale) {
  ScenarioOptions options;
  options.seed = 42;
  options.scale = 4;
  options.readers = 3;
  RunAllBuiltins(options);
}

// The determinism contract: the workload trace is a pure function of the
// options — same seed, same schedule-independent fingerprint, on every
// built-in; a different seed diverges.
TEST(Scenarios, SameSeedSameTrace) {
  ScenarioOptions options;
  options.seed = 11;
  options.scale = 1;
  options.readers = 2;
  for (const Scenario& s : BuiltinScenarios()) {
    SCOPED_TRACE(s.name);
    const ScenarioResult first = RunScenario(s, options);
    const ScenarioResult second = RunScenario(s, options);
    EXPECT_EQ(first.trace_fingerprint, second.trace_fingerprint);
    EXPECT_EQ(first.values_ingested, second.values_ingested);
  }
}

TEST(Scenarios, DifferentSeedDifferentTrace) {
  const auto builtins = BuiltinScenarios();
  const auto s = std::find_if(
      builtins.begin(), builtins.end(),
      [](const Scenario& b) { return b.name == "steady_ingest_point_storm"; });
  ASSERT_NE(s, builtins.end());
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
  Scenario bad{"always_fails", [](scenario::ScenarioContext& ctx) {
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
// Satellite: concurrent reads of Gorilla shards.
// ---------------------------------------------------------------------------

// N threads of scalar Access and AccessBatch against a fully sealed
// Gorilla store: every answer matches the raw values (the TSan CI job runs
// this suite, so the shared read path must also be race-free).
TEST(ConcurrentGorillaReads, AccessAndBatchesStayExact) {
  constexpr uint64_t kN = 16000;
  constexpr uint64_t kShard = 2000;  // 2 Gorilla blocks (1000 values) each
  constexpr int kThreads = 4;
  constexpr uint64_t kProbesPerThread = 4000;
  constexpr uint64_t kBatch = 256;

  const std::vector<int64_t> values =
      scenario::scenarios_internal::StepSeries(kN, 5);
  NeatsStoreOptions options;
  options.shard_size = kShard;
  options.codec = CodecId::kGorilla;
  options.seal_threads = 1;
  NeatsStore store(options);
  store.Append({values.data(), values.size()});
  store.Flush();
  ASSERT_EQ(store.num_shards(), kN / kShard);  // fully sealed: every probe
                                               // goes to a Gorilla shard

  TaskGroup group(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    group.Spawn([&, t] {
      Rng rng(17, static_cast<uint64_t>(t));
      std::vector<uint64_t> idx(kBatch);
      std::vector<int64_t> out(kBatch);
      for (uint64_t p = 0; p < kProbesPerThread; ++p) {
        const uint64_t i = rng.Below(kN);
        if (store.Access(i) != values[i]) {
          throw Error("scalar read diverges at " + std::to_string(i));
        }
        if (p % kBatch != 0) continue;
        for (uint64_t& k : idx) k = rng.Below(kN);
        store.AccessBatch(idx, out);
        for (uint64_t j = 0; j < kBatch; ++j) {
          if (out[j] != values[idx[j]]) {
            throw Error("batch read diverges at " + std::to_string(idx[j]));
          }
        }
      }
    });
  }
  group.Wait();
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
