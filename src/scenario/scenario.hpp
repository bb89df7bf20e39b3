// The scenario engine: named, seeded, self-verifying production-workload
// scenarios driven against a real NeatsStore (ROADMAP item 5b).
//
// A Scenario is a name plus a run function. The run function gets a
// ScenarioContext carrying the options (seed / scale / reader count) and
// collecting the result: per-op latency histograms, verification counters,
// and a trace fingerprint. Scenarios spawn concurrent appender/reader
// tasks on a TaskGroup (the repo's ThreadPool underneath) and verify every
// read against a ground-truth model — exact values on healthy ranges,
// typed kUnavailable on quarantined ones. Failures throw with a one-line
// repro prefix ("scenario=X seed=Y: ...").
//
// Determinism contract: a scenario's workload trace — which ops run, with
// which arguments, against which data — is a pure function of (seed,
// scale, readers). Every task derives its op sequence from the seed alone
// (never from timing, thread ids, or store state), and readers synchronize
// with the appender through a scenario-owned atomic frontier rather than
// by polling the store, so the same options replay the same trace on any
// schedule. The trace fingerprint makes that checkable: each thread hashes
// its own (op, args) sequence order-sensitively, and the per-thread hashes
// combine commutatively, so the fingerprint is schedule-independent —
// same seed, same fingerprint, every run.
//
// The registry is the extension point: later subsystems (network
// front-end, catalog, tiering) register their own scenarios next to the
// built-ins in scenarios.hpp and get the same runner, verification
// discipline, and percentile reporting for free.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/thread_pool.hpp"
#include "obs/latency_histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/stats_json.hpp"

namespace neats::scenario {

// --- Seeded randomness -----------------------------------------------------

/// SplitMix64 step: the engine's only randomness primitive. Cheap, seedable
/// from any 64-bit value, and fully specified — traces replay across
/// platforms and standard libraries.
inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// A tiny deterministic generator. Derive one per task from the scenario
/// seed and a fixed stream id (e.g. the reader index) so every task's op
/// sequence is independent of scheduling.
class Rng {
 public:
  Rng(uint64_t seed, uint64_t stream) : state_(seed) {
    // Decorrelate streams sharing a seed: burn the stream id through the
    // mixer twice so low-entropy ids (0, 1, 2...) diverge immediately.
    state_ ^= 0x2545f4914f6cdd1dull * (stream + 1);
    (void)SplitMix64(&state_);
    (void)SplitMix64(&state_);
  }

  uint64_t Next() { return SplitMix64(&state_); }

  /// Uniform in [0, n); n must be positive. Modulo bias is irrelevant at
  /// workload-index magnitudes.
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Order-sensitive hash step for per-thread trace fingerprints: fold the
/// next (op, args) tuple into the accumulator.
inline uint64_t MixTraceStep(uint64_t acc, uint64_t op, uint64_t a,
                             uint64_t b = 0) {
  uint64_t s = acc ^ (op * 0x9e3779b97f4a7c15ull);
  s = SplitMix64(&s) ^ a;
  s = SplitMix64(&s) ^ b;
  return SplitMix64(&s);
}

/// Monotonic now, nanoseconds — the unit every histogram records.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// --- Options and result ----------------------------------------------------

struct ScenarioOptions {
  /// The seed every task's op sequence derives from. A failure report
  /// quotes it; replaying with the same seed replays the same trace.
  uint64_t seed = 42;

  /// Linear workload multiplier: values ingested and probes issued scale
  /// with it. 1 is a smoke-test size (the ctest tier); the runner's soak
  /// sweep uses larger values.
  uint64_t scale = 1;

  /// Concurrent reader tasks per scenario (the writer is one more).
  int readers = 3;
};

/// What one scenario run produced. `ops` maps an op kind ("point_access",
/// "append", ...) to the merged latency histogram of every such op across
/// all tasks.
struct ScenarioResult {
  std::string name;
  ScenarioOptions options;
  double wall_seconds = 0;
  uint64_t values_ingested = 0;
  uint64_t reads_verified = 0;
  uint64_t unavailable_reads = 0;  // typed kUnavailable, expected + counted
  uint64_t trace_fingerprint = 0;
  std::map<std::string, obs::LatencyHistogram> ops;
  std::vector<std::string> notes;

  /// The store's own StatsSnapshot() taken at scenario end (empty when the
  /// scenario didn't attach one): store-side op counters and latency
  /// percentiles next to the workload-side `ops` above, so a report shows
  /// both views of the same run.
  obs::MetricsSnapshot store_metrics;
};

// --- Task group ------------------------------------------------------------

/// Runs a scenario's concurrent tasks on a dedicated ThreadPool sized so
/// every spawned task gets a worker immediately (spawn order can't
/// deadlock a frontier wait even on one hardware thread). Task bodies may
/// throw: the first exception is captured, `failed()` flips so sibling
/// tasks waiting on a frontier can bail out, and Wait() rethrows it on the
/// scenario thread.
class TaskGroup {
 public:
  explicit TaskGroup(int tasks) : pool_(tasks + 1) {}

  void Spawn(std::function<void()> fn) {
    pool_.Submit([this, fn = std::move(fn)] {
      try {
        fn();
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          if (!err_) err_ = std::current_exception();
        }
        failed_.store(true, std::memory_order_release);
      }
    });
  }

  /// True once any task has thrown. Frontier-wait loops poll this so a
  /// dead appender doesn't strand its readers.
  bool failed() const { return failed_.load(std::memory_order_acquire); }

  /// Blocks until every spawned task finished (the calling thread helps
  /// drain), then rethrows the first captured exception, if any.
  void Wait() {
    pool_.DrainTasks();
    if (err_) std::rethrow_exception(err_);
  }

 private:
  ThreadPool pool_;
  std::atomic<bool> failed_{false};
  std::mutex mu_;
  std::exception_ptr err_;
};

/// Spin-waits until `frontier` reaches `target` (readers tracking the
/// appender's published ingest progress). Returns false — caller should
/// abandon its op sequence — if a sibling task already failed.
inline bool AwaitFrontier(const std::atomic<uint64_t>& frontier,
                          uint64_t target, const TaskGroup& group) {
  while (frontier.load(std::memory_order_acquire) < target) {
    if (group.failed()) return false;
    std::this_thread::yield();
  }
  return true;
}

// --- Context ---------------------------------------------------------------

/// Handed to a scenario's run function: options in, result accumulation
/// out. The accumulation API is thread-safe; the intended shape is that
/// each task keeps private histograms / counters / a private fingerprint
/// and merges once, after its op loop.
class ScenarioContext {
 public:
  ScenarioContext(std::string name, const ScenarioOptions& options)
      : name_(std::move(name)), options_(options) {}

  const std::string& name() const { return name_; }
  const ScenarioOptions& options() const { return options_; }
  uint64_t seed() const { return options_.seed; }
  uint64_t scale() const { return options_.scale; }
  int readers() const { return options_.readers; }

  /// The one-line repro every failure message leads with.
  std::string Repro() const {
    return "scenario=" + name_ + " seed=" + std::to_string(options_.seed) +
           " scale=" + std::to_string(options_.scale) +
           " readers=" + std::to_string(options_.readers);
  }

  /// Scenario-level assertion: throws a neats::Error carrying the repro
  /// line. Safe to call from any task (TaskGroup routes it to Wait()).
  void Check(bool cond, const std::string& msg) const {
    if (!cond) throw Error(Repro() + ": " + msg);
  }

  /// Merges a task's private histogram into the scenario's op kind.
  void MergeOp(const std::string& op, const obs::LatencyHistogram& h) {
    std::lock_guard<std::mutex> lock(mu_);
    result_.ops[op].Merge(h);
  }

  /// Folds a task's private trace hash into the scenario fingerprint.
  /// Addition keeps the combined value independent of merge order.
  void MixTrace(uint64_t thread_hash) {
    trace_.fetch_add(thread_hash, std::memory_order_relaxed);
  }

  void CountIngested(uint64_t n) {
    ingested_.fetch_add(n, std::memory_order_relaxed);
  }
  void CountVerified(uint64_t n) {
    verified_.fetch_add(n, std::memory_order_relaxed);
  }
  void CountUnavailable(uint64_t n) {
    unavailable_.fetch_add(n, std::memory_order_relaxed);
  }

  /// A freeform observation for the report ("codec mix: alp=12 gorilla=4").
  void Note(std::string note) {
    std::lock_guard<std::mutex> lock(mu_);
    result_.notes.push_back(std::move(note));
  }

  /// Stores the store-side metrics snapshot in the result (typically the
  /// last thing a scenario does, after its tasks are joined). Last call
  /// wins.
  void AttachStoreMetrics(obs::MetricsSnapshot snapshot) {
    std::lock_guard<std::mutex> lock(mu_);
    result_.store_metrics = std::move(snapshot);
  }

  /// Finalizes and returns the result (runner-only; tasks must be joined).
  ScenarioResult TakeResult(double wall_seconds) {
    std::lock_guard<std::mutex> lock(mu_);
    result_.name = name_;
    result_.options = options_;
    result_.wall_seconds = wall_seconds;
    result_.values_ingested = ingested_.load(std::memory_order_relaxed);
    result_.reads_verified = verified_.load(std::memory_order_relaxed);
    result_.unavailable_reads = unavailable_.load(std::memory_order_relaxed);
    result_.trace_fingerprint = trace_.load(std::memory_order_relaxed);
    return std::move(result_);
  }

 private:
  std::string name_;
  ScenarioOptions options_;
  std::mutex mu_;  // guards result_.ops / result_.notes
  ScenarioResult result_;
  std::atomic<uint64_t> ingested_{0};
  std::atomic<uint64_t> verified_{0};
  std::atomic<uint64_t> unavailable_{0};
  std::atomic<uint64_t> trace_{0};
};

// --- Registry and runner ---------------------------------------------------

struct Scenario {
  std::string name;
  std::string description;
  std::function<void(ScenarioContext&)> run;
};

/// The named-scenario registry. Built-ins self-register via
/// RegisterBuiltinScenarios() (scenarios.hpp); later subsystems add their
/// own at startup and the runner / soak sweep picks them up by name.
class ScenarioRegistry {
 public:
  static ScenarioRegistry& Instance() {
    static ScenarioRegistry registry;
    return registry;
  }

  void Register(Scenario s) {
    NEATS_REQUIRE(!s.name.empty(), "scenario needs a name");
    NEATS_REQUIRE(Find(s.name) == nullptr,
                  "duplicate scenario registration");
    scenarios_.push_back(std::move(s));
  }

  const std::vector<Scenario>& All() const { return scenarios_; }

  const Scenario* Find(std::string_view name) const {
    for (const Scenario& s : scenarios_) {
      if (s.name == name) return &s;
    }
    return nullptr;
  }

 private:
  std::vector<Scenario> scenarios_;
};

/// Runs one scenario to completion and returns its result. Any failure
/// propagates as a neats::Error whose message leads with the repro line.
inline ScenarioResult RunScenario(const Scenario& s,
                                  const ScenarioOptions& options) {
  ScenarioContext ctx(s.name, options);
  const uint64_t t0 = NowNs();
  s.run(ctx);
  return ctx.TakeResult(static_cast<double>(NowNs() - t0) * 1e-9);
}

// --- JSON emission ---------------------------------------------------------

/// One scenario result as a JSON object (the schema-7 bench report embeds
/// these under "scenarios"; the neats_scenarios runner emits an array of
/// them). Fingerprint is hex text — JSON numbers lose uint64 precision.
inline void WriteScenarioJson(std::ostream& os, const ScenarioResult& r,
                              const char* indent = "  ") {
  auto hist = [&](const obs::LatencyHistogram& h) {
    os << "{\"count\": " << h.count() << ", \"p50_ns\": " << h.p50()
       << ", \"p99_ns\": " << h.p99() << ", \"p999_ns\": " << h.p999()
       << ", \"max_ns\": " << h.max() << "}";
  };
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(r.trace_fingerprint));
  char wall[32];
  std::snprintf(wall, sizeof(wall), "%.3f", r.wall_seconds);
  os << indent << "{\"scenario\": \"" << r.name
     << "\", \"seed\": " << r.options.seed
     << ", \"scale\": " << r.options.scale
     << ", \"readers\": " << r.options.readers << ",\n"
     << indent << " \"wall_s\": " << wall
     << ", \"values_ingested\": " << r.values_ingested
     << ", \"reads_verified\": " << r.reads_verified
     << ", \"unavailable_reads\": " << r.unavailable_reads
     << ", \"trace_fingerprint\": \"" << fp << "\",\n"
     << indent << " \"ops\": {";
  bool first = true;
  for (const auto& [op, h] : r.ops) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << op << "\": ";
    hist(h);
  }
  os << "},\n" << indent << " \"notes\": [";
  first = true;
  for (const std::string& note : r.notes) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << note << "\"";
  }
  os << "]";
  if (!r.store_metrics.counters.empty() ||
      !r.store_metrics.histograms.empty()) {
    os << ",\n"
       << indent << " \"store_metrics\":\n"
       << obs::MetricsJson(r.store_metrics, std::string(indent) + "  ");
  }
  os << "}";
}

/// A standalone report: a JSON array of scenario objects.
inline void WriteScenarioReport(std::ostream& os,
                                const std::vector<ScenarioResult>& results) {
  os << "[\n";
  for (size_t i = 0; i < results.size(); ++i) {
    WriteScenarioJson(os, results[i]);
    os << (i + 1 < results.size() ? ",\n" : "\n");
  }
  os << "]\n";
}

}  // namespace neats::scenario
