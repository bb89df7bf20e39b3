// The metrics registry: named counters, gauges, and latency histograms
// with per-thread-sharded, relaxed-atomic recording and bucket-wise merge
// on read — cheap enough to sit on the store's nanosecond access path.
//
// Recording model (the whole design in one paragraph): every recording
// thread gets its own ThreadSlab per registry, found through a thread-local
// one-entry cache (one fs-relative load + two compares on the hot path).
// Each slab cell is written by exactly one thread, so increments are plain
// load+store pairs on relaxed atomics — no lock prefix, no contention, no
// false sharing with other writers — while any thread may read them
// (Snapshot sums across slabs). Totals are exact once writers are joined:
// the join gives the happens-before edge, each cell has a single writer,
// and merge is pure addition. A snapshot taken mid-flight is a consistent-
// enough running view (each counter individually coherent).
//
// Histograms record into per-slab bucket arrays (the same log-linear
// bucketing as obs::LatencyHistogram, which BucketOf is borrowed from) and
// merge bucket-wise into a plain LatencyHistogram at snapshot time. Timing
// every scalar access would double its cost in clock reads, so the
// registry also owns the sampling countdown: Tick(h, every) says "time
// this op" once per `every` ops per thread, keeping the amortized clock
// cost at a fraction of a nanosecond while counters stay exact.
//
// Lifecycle contract: register all metrics before the first recording
// (slabs size themselves from the registered counts); registries must
// outlive their recording threads' calls, like the object holding them.
// The thread-local cache keys on (registry address, serial), so a registry
// reallocated at a recycled address can never inherit a stale slab.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "obs/latency_histogram.hpp"

namespace neats::obs {

/// Monotonic now, nanoseconds — the unit every latency metric records.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

using CounterId = uint32_t;
using GaugeId = uint32_t;
using HistogramId = uint32_t;

/// A merged, point-in-time view of a registry (plus whatever extra rows
/// the owner appends — the store adds a derived `bytes.out` row here).
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, LatencyHistogram>> histograms;

  const uint64_t* counter(std::string_view name) const {
    for (const auto& [n, v] : counters) {
      if (n == name) return &v;
    }
    return nullptr;
  }
  const int64_t* gauge(std::string_view name) const {
    for (const auto& [n, v] : gauges) {
      if (n == name) return &v;
    }
    return nullptr;
  }
  const LatencyHistogram* histogram(std::string_view name) const {
    for (const auto& [n, h] : histograms) {
      if (n == name) return &h;
    }
    return nullptr;
  }
};

namespace metrics_internal {

/// A single-writer cell: its owning thread updates it with a plain
/// load+store pair (relaxed — no read-modify-write, so no lock prefix on
/// x86), any thread reads it relaxed. Exactness relies on the one-writer
/// discipline the slab layout guarantees.
struct Cell {
  std::atomic<uint64_t> v{0};
  void Add(uint64_t n) {
    v.store(v.load(std::memory_order_relaxed) + n,
            std::memory_order_relaxed);
  }
  uint64_t Load() const { return v.load(std::memory_order_relaxed); }
};

struct HistShard {
  std::vector<Cell> buckets;  // LatencyHistogram::kNumBuckets
  Cell count;
  Cell sum;
  Cell max;  // single writer: plain compare + store suffices
};

struct ThreadSlab {
  ThreadSlab(size_t num_counters, size_t num_hists)
      : counters(num_counters), countdown(num_hists, 1), hists(num_hists) {
    for (HistShard& h : hists) {
      h.buckets = std::vector<Cell>(LatencyHistogram::kNumBuckets);
    }
  }
  std::vector<Cell> counters;
  // Sampling countdowns are owner-thread-private (never read elsewhere),
  // so they are plain integers. Initialized to 1: the first op after slab
  // creation is always timed, so short runs still populate histograms.
  std::vector<uint32_t> countdown;
  std::vector<HistShard> hists;
};

/// Thread-local slab lookup cache: one hot entry plus a small overflow
/// scan. Entries key on (registry address, registry serial) and are only
/// ever compared, never dereferenced, unless both match — so entries for
/// destroyed registries are inert, and an address-recycled registry (new
/// serial) can never alias an old slab. The hot entry is trivially
/// constructible and destructible on purpose: a function-local
/// `thread_local constinit` of this type compiles to a bare TLS load with
/// no init-guard branch, which is what keeps the per-op metrics cost to a
/// couple of nanoseconds (the overflow vector lives behind the slow path
/// only).
struct TlsEntry {
  const void* reg = nullptr;
  uint64_t serial = 0;
  ThreadSlab* slab = nullptr;
};

inline std::atomic<uint64_t>& RegistrySerialCounter() {
  static std::atomic<uint64_t> counter{1};
  return counter;
}

}  // namespace metrics_internal

class MetricsRegistry {
  using Cell = metrics_internal::Cell;
  using ThreadSlab = metrics_internal::ThreadSlab;

 public:
  MetricsRegistry()
      : serial_(metrics_internal::RegistrySerialCounter().fetch_add(
            1, std::memory_order_relaxed)) {}

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- Registration (setup phase, before recording threads exist) ---------

  CounterId AddCounter(std::string name) {
    NEATS_DCHECK(SlabsEmpty());
    counter_names_.push_back(std::move(name));
    return static_cast<CounterId>(counter_names_.size() - 1);
  }

  GaugeId AddGauge(std::string name) {
    NEATS_DCHECK(SlabsEmpty());
    gauge_names_.push_back(std::move(name));
    gauges_.push_back(std::make_unique<std::atomic<int64_t>>(0));
    return static_cast<GaugeId>(gauge_names_.size() - 1);
  }

  HistogramId AddHistogram(std::string name) {
    NEATS_DCHECK(SlabsEmpty());
    hist_names_.push_back(std::move(name));
    return static_cast<HistogramId>(hist_names_.size() - 1);
  }

  // --- Recording (any thread, relaxed, per-thread slabs) -------------------

  void Count(CounterId id, uint64_t n = 1) { Slab().counters[id].Add(n); }

  /// Per-thread sampling countdown for histogram `id`: true once every
  /// `every` calls (and on the very first), telling the caller to time
  /// this op and Record() the result. `every` must be >= 1.
  bool Tick(HistogramId id, uint32_t every) {
    ThreadSlab& s = Slab();
    if (--s.countdown[id] != 0) return false;
    s.countdown[id] = every;
    return true;
  }

  /// The scalar hot-path combo: bump counter `c` and run histogram `h`'s
  /// sampling countdown in one slab lookup. Semantically identical to
  /// Count(c) followed by Tick(h, every); exists because the TLS lookup is
  /// most of the cost of either call on a sub-100ns operation.
  bool CountAndTick(CounterId c, HistogramId h, uint32_t every) {
    ThreadSlab& s = Slab();
    s.counters[c].Add(1);
    if (--s.countdown[h] != 0) return false;
    s.countdown[h] = every;
    return true;
  }

  void Record(HistogramId id, uint64_t ns) {
    metrics_internal::HistShard& h = Slab().hists[id];
    h.buckets[LatencyHistogram::BucketOf(ns)].Add(1);
    h.count.Add(1);
    h.sum.Add(ns);
    if (ns > h.max.Load()) {
      h.max.v.store(ns, std::memory_order_relaxed);
    }
  }

  /// Gauges are registry-level (instantaneous values, last write wins).
  void SetGauge(GaugeId id, int64_t v) const {
    gauges_[id]->store(v, std::memory_order_relaxed);
  }

  // --- Reading -------------------------------------------------------------

  uint64_t CounterValue(CounterId id) const {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t total = 0;
    for (const auto& slab : slabs_) total += slab->counters[id].Load();
    return total;
  }

  LatencyHistogram HistogramValue(HistogramId id) const {
    std::lock_guard<std::mutex> lock(mu_);
    return MergeHistLocked(id);
  }

  /// Merges every slab into one snapshot. Exact once recording threads are
  /// joined; a coherent running view otherwise.
  MetricsSnapshot Snapshot() const {
    MetricsSnapshot out;
    std::lock_guard<std::mutex> lock(mu_);
    out.counters.reserve(counter_names_.size());
    for (size_t c = 0; c < counter_names_.size(); ++c) {
      uint64_t total = 0;
      for (const auto& slab : slabs_) total += slab->counters[c].Load();
      out.counters.emplace_back(counter_names_[c], total);
    }
    out.gauges.reserve(gauge_names_.size());
    for (size_t g = 0; g < gauge_names_.size(); ++g) {
      out.gauges.emplace_back(gauge_names_[g],
                              gauges_[g]->load(std::memory_order_relaxed));
    }
    out.histograms.reserve(hist_names_.size());
    for (size_t h = 0; h < hist_names_.size(); ++h) {
      out.histograms.emplace_back(hist_names_[h], MergeHistLocked(h));
    }
    return out;
  }

 private:
  bool SlabsEmpty() const {
    std::lock_guard<std::mutex> lock(mu_);
    return slabs_.empty();
  }

  LatencyHistogram MergeHistLocked(size_t id) const {
    LatencyHistogram merged;
    for (const auto& slab : slabs_) {
      const metrics_internal::HistShard& h = slab->hists[id];
      for (size_t b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
        const uint64_t n = h.buckets[b].Load();
        if (n != 0) merged.AccumulateBucket(b, n);
      }
      merged.AccumulateSummary(h.sum.Load(), h.max.Load());
    }
    return merged;
  }

  ThreadSlab& Slab() {
    thread_local constinit metrics_internal::TlsEntry hot{};
    if (hot.reg == this && hot.serial == serial_) [[likely]] {
      return *hot.slab;
    }
    return SlabSlow(hot);
  }

  ThreadSlab& SlabSlow(metrics_internal::TlsEntry& hot) {
    thread_local std::vector<metrics_internal::TlsEntry> others;
    for (metrics_internal::TlsEntry& e : others) {
      if (e.reg == this && e.serial == serial_) {
        std::swap(e, hot);
        return *hot.slab;
      }
    }
    auto owned =
        std::make_unique<ThreadSlab>(counter_names_.size(), hist_names_.size());
    ThreadSlab* slab = owned.get();
    {
      std::lock_guard<std::mutex> lock(mu_);
      slabs_.push_back(std::move(owned));
    }
    if (hot.reg != nullptr) {
      // Bound the overflow list: a thread churning through many registries
      // (the crash harness reopens hundreds of stores) drops oldest first.
      if (others.size() >= 64) others.erase(others.begin());
      others.push_back(hot);
    }
    hot = {this, serial_, slab};
    return *slab;
  }

  const uint64_t serial_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::string> hist_names_;
  // unique_ptr keeps each atomic at a stable address while the vector
  // grows during registration.
  std::vector<std::unique_ptr<std::atomic<int64_t>>> gauges_;
  mutable std::mutex mu_;  // guards slabs_ (the list, not the cells)
  std::vector<std::unique_ptr<ThreadSlab>> slabs_;
};

}  // namespace neats::obs
