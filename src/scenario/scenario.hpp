// The scenario engine: named, seeded, self-verifying production-workload
// scenarios driven against a real NeatsStore. It only verifies; it times
// nothing (perfbench/ is the performance harness).
//
// A Scenario is a name plus a run function. The run function gets a
// ScenarioContext carrying the options (seed / scale / reader count) and
// collecting the result: verification counters and a trace fingerprint.
// Scenarios spawn concurrent appender/reader tasks on a TaskGroup (the
// repo's ThreadPool underneath) and verify every read against a
// ground-truth model — exact values on healthy ranges, typed kUnavailable
// on quarantined ones. Failures throw with a one-line repro prefix
// ("scenario=X seed=Y: ...").
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

#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "common/assert.hpp"
#include "common/thread_pool.hpp"

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

// --- Options and result ----------------------------------------------------

struct ScenarioOptions {
  /// The seed every task's op sequence derives from. A failure report
  /// quotes it; replaying with the same seed replays the same trace.
  uint64_t seed = 42;

  /// Linear workload multiplier: values ingested and probes issued scale
  /// with it. 1 is the smoke size; the soak test runs 4.
  uint64_t scale = 1;

  /// Concurrent reader tasks per scenario (the writer is one more).
  int readers = 3;
};

/// What one scenario run verified.
struct ScenarioResult {
  std::string name;
  ScenarioOptions options;
  uint64_t values_ingested = 0;
  uint64_t reads_verified = 0;
  uint64_t unavailable_reads = 0;  // typed kUnavailable, expected + counted
  uint64_t trace_fingerprint = 0;
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

/// Handed to a scenario's run function: options in, counters and the
/// trace fingerprint out. Every method is safe to call from any task; the
/// intended shape is that each task keeps private counters and a private
/// fingerprint and folds them in once, after its op loop.
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

  /// The counters so far (tasks must be joined for a final answer).
  ScenarioResult Result() const {
    return {name_,
            options_,
            ingested_.load(std::memory_order_relaxed),
            verified_.load(std::memory_order_relaxed),
            unavailable_.load(std::memory_order_relaxed),
            trace_.load(std::memory_order_relaxed)};
  }

 private:
  std::string name_;
  ScenarioOptions options_;
  std::atomic<uint64_t> ingested_{0};
  std::atomic<uint64_t> verified_{0};
  std::atomic<uint64_t> unavailable_{0};
  std::atomic<uint64_t> trace_{0};
};

// --- Scenarios and the runner ----------------------------------------------

struct Scenario {
  std::string_view name;
  void (*run)(ScenarioContext&);
};

/// Runs one scenario to completion and returns its result. Any failure
/// propagates as a neats::Error whose message leads with the repro line.
inline ScenarioResult RunScenario(const Scenario& s,
                                  const ScenarioOptions& options) {
  ScenarioContext ctx(std::string(s.name), options);
  s.run(ctx);
  return ctx.Result();
}

}  // namespace neats::scenario
